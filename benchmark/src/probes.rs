//! Traced-run measurements outside the query path: the study's stages
//! called one by one, compaction, store encoding, and the server's
//! JSONL access log.

use std::path::Path;
use std::time::Duration;

use swim_catalog::Catalog;
use swim_report::{Comparison, TraceContext};
use swim_scenario::{Scenario, ScenarioStream};
use swim_sim::{ScenarioGrid, SchedulerKind, Simulator};
use swim_store::{store_to_vec, StoreOptions};
use swim_synth::ReplayPlan;

use crate::setup;
use crate::util::{median, timed};
use crate::workload::{self, derive, Workload};
use crate::Fail;

/// The study's stages, timed separately.
pub struct StudyStages {
    pub collect: Duration,
    pub battery: Duration,
    pub sweep: Duration,
    /// Jobs replayed across every sweep cell.
    pub sweep_jobs: u64,
}

pub fn study_stages(seed: u64) -> Result<StudyStages, Fail> {
    let options = workload::study_options(seed, None);
    let scenarios = workload::study_scenarios()?;
    let (traces, collect) = timed(|| {
        scenarios
            .iter()
            .map(|s| {
                ScenarioStream::new(s, options.seed, options.jobs_per_scenario)
                    .and_then(ScenarioStream::collect_trace)
                    .map(|(trace, _)| (s.name.clone(), trace))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let traces = traces.map_err(|e| Fail::new(format!("collect: {e}")))?;
    let contexts = traces
        .iter()
        .map(|(name, trace)| TraceContext::from_trace(name.clone(), trace.clone()))
        .collect();
    let (_, battery) = timed(|| Comparison::new(contexts).run());
    let grid = ScenarioGrid::new(options.nodes.clone())
        .schedulers(vec![SchedulerKind::Fifo, SchedulerKind::Fair]);
    let cells = (options.nodes.len() * 2) as u64;
    let mut sweep = Duration::ZERO;
    let mut sweep_jobs = 0u64;
    for (_, trace) in &traces {
        let plan = ReplayPlan::from_trace(trace);
        let (_, t) = timed(|| Simulator::sweep(&grid, &plan, None));
        sweep += t;
        sweep_jobs += plan.jobs.len() as u64 * cells;
    }
    Ok(StudyStages {
        collect,
        battery,
        sweep,
        sweep_jobs,
    })
}

/// Compaction of four small batches of the workload's batch scenario in
/// a scratch catalog: `(seconds, jobs rewritten)`. Used on workloads
/// whose timed phase never compacts.
pub fn compaction(workload: Workload, seed: u64, dir: &Path) -> Result<(f64, u64), Fail> {
    let _ = std::fs::remove_dir_all(dir);
    let mut catalog = Catalog::init(dir).map_err(|e| Fail::new(format!("init: {e}")))?;
    let options = setup::catalog_options(swim_catalog::DEFAULT_JOBS_PER_SHARD);
    let scenario = workload.batch_scenario()?;
    for batch in 0..4 {
        setup::ingest(
            &mut catalog,
            &scenario,
            derive(seed, 5_000 + batch),
            20_000,
            &options,
            false,
        )?;
    }
    let (stats, t) = timed(|| catalog.compact(&options));
    let stats = stats.map_err(|e| Fail::new(format!("compact: {e}")))?;
    let _ = std::fs::remove_dir_all(dir);
    Ok((t.as_secs_f64(), stats.jobs))
}

/// `store_to_vec` throughput on a 50k-job batch of `scenario`, in jobs
/// per second (median of three encodes).
pub fn encode_jobs_per_s(scenario: &Scenario, seed: u64) -> Result<f64, Fail> {
    let (trace, _) = ScenarioStream::new(scenario, seed, 50_000)
        .and_then(ScenarioStream::collect_trace)
        .map_err(|e| Fail::new(format!("encode batch: {e}")))?;
    let options = StoreOptions::default();
    let rates: Vec<f64> = (0..3)
        .map(|_| {
            let (_, t) = timed(|| store_to_vec(&trace, &options));
            trace.jobs().len() as f64 / t.as_secs_f64()
        })
        .collect();
    Ok(median(&rates))
}

/// The access-log fields the per-layer metrics use.
#[derive(Debug, Default, Clone, Copy)]
pub struct Access {
    pub cached: bool,
    pub queue_us: u64,
    pub execute_us: u64,
    pub render_us: u64,
    pub total_us: u64,
}

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

/// Query records of a `swim-serve` JSONL access log.
pub fn read_access_log(path: &Path) -> Result<Vec<Access>, Fail> {
    let text =
        std::fs::read_to_string(path).map_err(|e| Fail::new(format!("read access log: {e}")))?;
    let num = |line: &str, key: &str| -> Result<u64, Fail> {
        field(line, key)
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| Fail::new(format!("access log line without {key}: {line}")))
    };
    let mut records = Vec::new();
    for line in text.lines() {
        if field(line, "command") != Some("query") {
            continue;
        }
        records.push(Access {
            cached: field(line, "cached") == Some("true"),
            queue_us: num(line, "queue_us")?,
            execute_us: num(line, "execute_us")?,
            render_us: num(line, "render_us")?,
            total_us: num(line, "total_us")?,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::field;

    #[test]
    fn reads_access_log_fields() {
        let line = "{\"id\":3,\"command\":\"query\",\"generation\":1,\"cached\":true,\"queue_us\":0,\"execute_us\":0,\"render_us\":4,\"total_us\":20,\"outcome\":\"ok\"}";
        assert_eq!(field(line, "command"), Some("query"));
        assert_eq!(field(line, "cached"), Some("true"));
        assert_eq!(field(line, "render_us"), Some("4"));
        assert_eq!(field(line, "outcome"), Some("ok"));
    }
}
