//! End-to-end benchmark of the swim stack.
//!
//! ```text
//! swim-benchmark --workload scan|ingest-mixed|study \
//!                --seed N --seconds S --trace 0|1
//! ```
//!
//! Builds the workload's catalog with `swim_scenario`, serves it
//! in-process with `swim_serve::serve`, drives it over TCP with at most
//! `nproc` client threads, checks every answer, and prints one JSON line
//! last: end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. Exits 1 on any wrong answer or failed check, 2 on bad
//! usage. See `README.md` next to this file.

mod client;
mod pool;
mod probes;
mod replay;
mod setup;
mod util;
mod verify;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use swim_catalog::Catalog;
use swim_query::Session;
use swim_serve::{ServeOptions, ServerStats};

use client::Sample;
use setup::{deploy, deploy_repeated, Deployment};
use util::{median, metric, quantile, ratio, Metric};
use workload::{History, Phase, Workload, LOAD_THREADS};

/// A failure that stops the run: it prints no result line.
#[derive(Debug)]
pub struct Fail(pub String);

impl Fail {
    pub fn new(message: impl Into<String>) -> Fail {
        Fail(message.into())
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: swim-benchmark --workload scan|ingest-mixed|study --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

/// Failed operations and failed checks of a run.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    /// Distinct (generation, request) pairs re-executed to check answers.
    reexecuted: usize,
    problems: Vec<String>,
}

impl Checks {
    fn problem(&mut self, message: String) {
        self.problems.push(message);
    }

    /// Count the phase's operations and check every answer it got.
    fn phase(
        &mut self,
        workload: Workload,
        seed: u64,
        phase: &Phase,
        deployment: &Deployment,
        stats: &ServerStats,
        history: Option<&History>,
    ) -> Result<(), Fail> {
        let samples = &phase.samples;
        self.attempted += samples.len() as u64;
        let failed: Vec<&Sample> = samples.iter().filter(|s| !s.is_ok()).collect();
        self.failed += failed.len() as u64;
        if let Some(first) = failed.first() {
            self.problem(format!(
                "{} of {} requests failed; first: {}",
                failed.len(),
                samples.len(),
                first.outcome.describe()
            ));
        }
        if samples.is_empty() {
            self.problem("the timed phase completed no request".to_owned());
        }

        if let Some(scheduled) = phase.scheduled {
            let late_ms = quantile(&lates(samples), 0.99) / 1_000.0;
            if late_ms > workload::MAX_GENERATOR_LATE_MS || (samples.len() as u64) + 2 < scheduled {
                self.problem(format!(
                    "open-loop run invalid: generator p99 late {late_ms:.1} ms, sent {} of {scheduled}",
                    samples.len()
                ));
            }
        }

        let cached = samples.iter().filter(|s| s.cached()).count() as u64;
        if cached != stats.cache.hits {
            self.problem(format!(
                "result-cache hits: clients saw {cached}, ServerStats says {}",
                stats.cache.hits
            ));
        }

        let verdict = match (&phase.writer, history) {
            (Some(writer), Some(history)) => {
                verify::verify(samples, false, &|g| history.open(&writer.manifests, g))?
            }
            _ => verify::verify(samples, workload == Workload::Scan, &|_| {
                Session::open_catalog(&deployment.dir.to_string_lossy())
                    .map_err(|e| Fail::new(format!("open catalog: {e}")))
            })?,
        };
        self.failed += verdict.wrong;
        self.reexecuted += verdict.distinct;
        if let Some(mismatch) = verdict.first_mismatch {
            self.problem(format!(
                "{} wrong answers; first: {mismatch}",
                verdict.wrong
            ));
        }

        let mut declared = deployment.declared_jobs();
        if let Some(writer) = &phase.writer {
            self.attempted += writer.attempted;
            self.failed += writer.failed;
            if let Some(error) = &writer.first_error {
                self.problem(format!("writer: {error}"));
            }
            if writer.compactions.len() < 2 {
                self.problem(format!(
                    "only {} compaction cycles completed",
                    writer.compactions.len()
                ));
            }
            declared += writer.declared_jobs();
        }
        let catalog =
            Catalog::open(&deployment.dir).map_err(|e| Fail::new(format!("open catalog: {e}")))?;
        if workload == Workload::Scan && catalog.shard_count() <= catalog.cache_capacity() {
            self.problem(format!(
                "the scan catalog's {} shards fit the {}-shard column cache",
                catalog.shard_count(),
                catalog.cache_capacity()
            ));
        }
        let summary_jobs = catalog.summary().jobs as u64;
        if summary_jobs != declared {
            self.problem(format!(
                "catalog summary has {summary_jobs} jobs, the scenarios declared {declared}"
            ));
        }

        if !phase.studies.is_empty() {
            self.attempted += phase.studies.len() as u64;
            let reference = util::digest(workload::run_study(seed, Some(1))?.as_bytes());
            let differing = phase
                .studies
                .iter()
                .filter(|s| s.digest != reference)
                .count();
            self.failed += differing as u64;
            if differing > 0 {
                self.problem(format!(
                    "{differing} study reports differ from the single-threaded render"
                ));
            }
        }
        Ok(())
    }
}

fn lates(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.late_us).collect()
}

/// Latencies in ms of the measured window's successful requests.
fn latencies_ms(phase: &Phase) -> Vec<f64> {
    phase
        .measured()
        .filter(|s| s.is_ok())
        .map(|s| s.latency_us / 1_000.0)
        .collect()
}

/// Completed queries per second of the measured window. Closed loop:
/// answers that arrived inside the window over its length. Open loop
/// (fixed offered rate): answers over the time from the window's start
/// to the last answer, which drops below the offered rate when the
/// server lags.
fn throughput_qps(phase: &Phase) -> f64 {
    let ok: Vec<&Sample> = phase.measured().filter(|s| s.is_ok()).collect();
    if phase.scheduled.is_some() {
        let last = ok.iter().map(|s| s.done).max().unwrap_or(phase.from);
        return ratio(ok.len() as f64, (last - phase.from).as_secs_f64());
    }
    let inside = ok.iter().filter(|s| s.done < phase.to).count();
    ratio(inside as f64, (phase.to - phase.from).as_secs_f64())
}

fn ingest_rate(phase: &Phase, setup_rate: f64) -> f64 {
    match &phase.writer {
        Some(w) if !w.cycle_rates.is_empty() => median(&w.cycle_rates),
        Some(w) => ratio(w.jobs() as f64, w.busy.as_secs_f64()),
        None => setup_rate,
    }
}

fn study_seconds(phase: &Phase) -> Vec<f64> {
    phase.studies.iter().map(|s| s.wall.as_secs_f64()).collect()
}

/// The metric each workload's tracing overhead is judged on, oriented
/// so that a larger value is a slower run.
fn primary_cost(workload: Workload, phase: &Phase, setup_rate: f64) -> f64 {
    match workload {
        Workload::Scan => ratio(1.0, throughput_qps(phase)),
        Workload::IngestMixed => ratio(1.0, ingest_rate(phase, setup_rate)),
        Workload::Study => median(&study_seconds(phase)),
    }
}

fn final_catalog(dir: &Path) -> Result<Catalog, Fail> {
    Catalog::open(dir).map_err(|e| Fail::new(format!("open catalog: {e}")))
}

struct Output {
    checks: Checks,
    metrics: Vec<Metric>,
}

/// A deployment after its timed phase, with the server's counters.
struct Measured {
    deployment: Deployment,
    phase: Phase,
    stats: ServerStats,
}

fn measure(
    args: &Args,
    deployment: Deployment,
    history: Option<&mut History>,
    traced: bool,
) -> Result<Measured, Fail> {
    util::release_free_memory();
    let phase = workload::timed_phase(
        args.workload,
        deployment.server.addr(),
        &deployment.dir,
        history,
        args.seed,
        args.seconds,
        traced,
    )?;
    let stats = deployment.server.stats();
    Ok(Measured {
        deployment,
        phase,
        stats,
    })
}

fn new_history(work: &Path, workload: Workload) -> Result<Option<History>, Fail> {
    if workload != Workload::IngestMixed {
        return Ok(None);
    }
    let keep = work.join("keep");
    let _ = std::fs::remove_dir_all(&keep);
    History::new(keep).map(Some)
}

fn run_untraced(args: &Args, work: &Path) -> Result<Output, Fail> {
    let w = args.workload;
    let spec = w.catalog_spec(args.seed)?;
    // The query workloads' `study_s` comes from the same study run once
    // after each set-up, so that its samples spread over the run. The
    // workloads without a writer take one concurrent-ingest sample after
    // each set-up too.
    let mut closing_studies = Vec::new();
    let mut ingest_rates = Vec::new();
    let setup = deploy_repeated(
        &work.join("catalog"),
        &spec,
        &w.serve_options(),
        w.setup_repeats(),
        || {
            if w != Workload::Study {
                let (report, t) = util::timed(|| workload::run_study(args.seed, None));
                report?;
                closing_studies.push(t.as_secs_f64());
            }
            if w != Workload::IngestMixed {
                ingest_rates.push(setup::concurrent_ingest(work, &spec)?);
            }
            Ok(())
        },
    )?;
    let mut history = new_history(work, w)?;
    let Measured {
        deployment,
        phase,
        stats,
    } = measure(args, setup.deployment, history.as_mut(), false)?;
    let dir = deployment.dir.clone();
    let ingest_jobs_per_s = ingest_rate(&phase, median(&ingest_rates));
    deployment.server.shutdown();
    let mut checks = Checks::default();
    let started = std::time::Instant::now();
    checks.phase(w, args.seed, &phase, &deployment, &stats, history.as_ref())?;
    deployment.server.join();
    let catalog = final_catalog(&dir)?;
    eprintln!(
        "[{}] {} jobs; setup {:.2} s (median of {}); {} answers checked by {} re-executions in {:.2} s",
        w.name(),
        catalog.job_count(),
        setup.seconds,
        w.setup_repeats(),
        phase.samples.len(),
        checks.reexecuted,
        started.elapsed().as_secs_f64()
    );
    let bytes_per_job = setup::bytes_per_job(&catalog);

    checks.attempted += closing_studies.len() as u64;
    let study_s = if w == Workload::Study {
        median(&study_seconds(&phase))
    } else {
        median(&closing_studies)
    };

    let latencies = latencies_ms(&phase);
    let metrics = vec![
        metric("setup_s", "s", setup.seconds),
        metric("query_p50_ms", "ms", quantile(&latencies, 0.50)),
        metric("query_p90_ms", "ms", quantile(&latencies, 0.90)),
        metric("query_p99_ms", "ms", quantile(&latencies, 0.99)),
        metric("throughput_qps", "queries/s", throughput_qps(&phase)),
        metric("ingest_jobs_per_s", "jobs/s", ingest_jobs_per_s),
        metric("store_bytes_per_job", "B/job", bytes_per_job),
        metric("peak_rss_mb", "MiB", phase.peak_rss_mb),
        metric("study_s", "s", study_s),
    ];
    Ok(Output { checks, metrics })
}

/// How many distinct queries the traced run replays in-process.
fn replay_cap(workload: Workload) -> usize {
    match workload {
        Workload::Scan => 40,
        _ => 300,
    }
}

fn run_traced(args: &Args, work: &Path) -> Result<Output, Fail> {
    let w = args.workload;
    let spec = w.catalog_spec(args.seed)?;
    let dir = work.join("catalog");
    let mut checks = Checks::default();

    // The same timed phase untraced first: the reference for
    // `bench.tracing_overhead`. Its answers are checked too.
    swim_obs::set_enabled(0);
    let mut history = new_history(work, w)?;
    let plain = measure(
        args,
        deploy(&dir, &spec, w.serve_options(), false)?,
        history.as_mut(),
        false,
    )?;
    plain.deployment.server.shutdown();
    checks.phase(
        w,
        args.seed,
        &plain.phase,
        &plain.deployment,
        &plain.stats,
        history.as_ref(),
    )?;
    let untraced_cost = primary_cost(w, &plain.phase, plain.deployment.ingest_jobs_per_s());
    plain.deployment.stop();

    // The traced phase: access log on, swim-obs metrics on, generator
    // time split out of ingest.
    swim_obs::set_enabled(swim_obs::METRICS);
    let log = work.join("access.jsonl");
    let options = ServeOptions {
        access_log: Some(log.clone()),
        ..w.serve_options()
    };
    let refreshes = || {
        swim_obs::snapshot()
            .counter("serve.snapshot_refreshes")
            .unwrap_or(0)
    };
    let mut history = new_history(work, w)?;
    let deployment = deploy(&dir, &spec, options, true)?;
    let refreshes_before = refreshes();
    let traced = measure(args, deployment, history.as_mut(), true)?;
    let snapshot_refreshes = refreshes() - refreshes_before;
    traced.deployment.server.shutdown();
    checks.phase(
        w,
        args.seed,
        &traced.phase,
        &traced.deployment,
        &traced.stats,
        history.as_ref(),
    )?;
    let traced_cost = primary_cost(w, &traced.phase, traced.deployment.ingest_jobs_per_s());
    let Measured {
        deployment, phase, ..
    } = traced;
    let setup_ingests = deployment.ingests.clone();
    deployment.stop();
    let access = probes::read_access_log(&log)?;

    let mut lines: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for sample in phase.samples.iter().filter(|s| s.is_ok()) {
        if lines.len() < replay_cap(w) && seen.insert(sample.line.as_str()) {
            lines.push(sample.line.clone());
        }
    }
    let layers = replay::replay(&dir, &lines)?;
    for mismatch in &layers.mismatches {
        checks.problem(format!("layer accounting: {mismatch}"));
    }
    checks.failed += layers.mismatches.len() as u64;

    let catalog = final_catalog(&dir)?;
    let (compact_s, compact_jobs) = match &phase.writer {
        Some(writer) => (
            util::mean(
                &writer
                    .compactions
                    .iter()
                    .map(|(t, _)| t.as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
            writer.compactions.iter().map(|(_, jobs)| jobs).sum(),
        ),
        None => probes::compaction(w, args.seed, &work.join("compaction"))?,
    };
    let stages = probes::study_stages(args.seed)?;
    let encode = probes::encode_jobs_per_s(&w.batch_scenario()?, workload::derive(args.seed, 6))?;

    let mut ingests = setup_ingests;
    if let Some(writer) = &phase.writer {
        ingests.extend(writer.ingests.iter().copied());
    }
    let batch_s: Vec<f64> = ingests
        .iter()
        .map(|i| (i.wall - i.generate).as_secs_f64())
        .collect();
    let generated: u64 = ingests.iter().map(|i| i.declared_jobs).sum();
    let generate_s: f64 = ingests.iter().map(|i| i.generate.as_secs_f64()).sum();
    let resident_max = ingests.iter().map(|i| i.resident_max).max().unwrap_or(0);

    let ok: Vec<&Sample> = phase.samples.iter().filter(|s| s.is_ok()).collect();
    let rtt_us: Vec<f64> = ok.iter().map(|s| s.latency_us).collect();
    let cached = ok.iter().filter(|s| s.cached()).count();
    let queue: Vec<f64> = access
        .iter()
        .filter(|a| a.queue_us > 0)
        .map(|a| a.queue_us as f64)
        .collect();
    let execute: Vec<f64> = access
        .iter()
        .filter(|a| !a.cached)
        .map(|a| a.execute_us as f64)
        .collect();
    let render: Vec<f64> = access.iter().map(|a| a.render_us as f64).collect();
    let total: Vec<f64> = access.iter().map(|a| a.total_us as f64).collect();
    let q = layers.queries as f64;

    let metrics = vec![
        metric("serve.queue_wait_us.max", "us", quantile(&queue, 1.0)),
        metric("serve.execute_us.p50", "us", quantile(&execute, 0.50)),
        metric("serve.execute_us.p99", "us", quantile(&execute, 0.99)),
        metric("serve.render_us.mean", "us", util::mean(&render)),
        metric("serve.wire_us.p50", "us", median(&rtt_us) - median(&total)),
        metric(
            "serve.result_cache_hit_ratio",
            "ratio",
            ratio(cached as f64, ok.len() as f64),
        ),
        metric(
            "serve.snapshot_refreshes",
            "count",
            snapshot_refreshes as f64,
        ),
        metric("query.plan_us", "us", ratio(layers.plan_us, q)),
        metric(
            "query.shards_pruned_ratio",
            "ratio",
            ratio(layers.shards_pruned as f64, layers.shards_seen as f64),
        ),
        metric(
            "query.chunks_skipped_ratio",
            "ratio",
            ratio(layers.chunks_skipped as f64, layers.chunks_seen as f64),
        ),
        metric(
            "query.rows_scanned_per_match",
            "ratio",
            ratio(layers.rows_scanned as f64, layers.rows_matched as f64),
        ),
        metric("query.self_us", "us", ratio(layers.self_us, q)),
        metric("catalog.open_us", "us", layers.catalog_open_us),
        metric(
            "catalog.lru_hit_ratio",
            "ratio",
            ratio(
                layers.lru_hits as f64,
                (layers.lru_hits + layers.lru_misses) as f64,
            ),
        ),
        metric(
            "catalog.lru_evictions",
            "count",
            layers.lru_evictions as f64,
        ),
        metric(
            "catalog.load_columns_us",
            "us",
            ratio(layers.load_us, layers.loads as f64),
        ),
        metric("catalog.ingest_batch_s", "s", util::mean(&batch_s)),
        metric("catalog.compact_s", "s", compact_s),
        metric(
            "catalog.compact_jobs_rewritten",
            "count",
            compact_jobs as f64,
        ),
        metric("catalog.shards", "count", catalog.shard_count() as f64),
        metric(
            "store.open_us",
            "us",
            ratio(layers.open_us, layers.shard_opens as f64),
        ),
        metric(
            "store.decode_us_per_chunk",
            "us",
            ratio(layers.decode_us, layers.chunks_decoded as f64),
        ),
        metric(
            "store.decode_mb_per_s",
            "MB/s",
            ratio(layers.bytes_decoded as f64, layers.decode_us),
        ),
        metric(
            "store.chunks_decoded_per_query",
            "count",
            ratio(layers.chunks_decoded as f64, q),
        ),
        metric("store.encode_jobs_per_s", "jobs/s", encode),
        metric(
            "store.bytes_per_job",
            "B/job",
            setup::bytes_per_job(&catalog),
        ),
        metric(
            "scenario.gen_jobs_per_s",
            "jobs/s",
            ratio(generated as f64, generate_s),
        ),
        metric("scenario.resident_bytes.max", "B", resident_max as f64),
        metric("scenario.collect_s", "s", stages.collect.as_secs_f64()),
        metric("report.battery_s", "s", stages.battery.as_secs_f64()),
        metric("sim.sweep_s", "s", stages.sweep.as_secs_f64()),
        metric(
            "sim.jobs_per_s",
            "jobs/s",
            ratio(stages.sweep_jobs as f64, stages.sweep.as_secs_f64()),
        ),
        metric(
            "bench.generator_late_ms.p99",
            "ms",
            quantile(&lates(&phase.samples), 0.99) / 1_000.0,
        ),
        metric(
            "bench.tracing_overhead",
            "ratio",
            ratio(traced_cost, untraced_cost),
        ),
        metric("bench.layer_share.max", "ratio", layers.worst_layer_share),
        metric("bench.replayed_queries", "count", q),
        metric(
            "error_rate",
            "ratio",
            ratio(checks.failed as f64, checks.attempted as f64),
        ),
    ];
    Ok(Output { checks, metrics })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    if LOAD_THREADS > nproc {
        eprintln!(
            "error: refusing to start: {LOAD_THREADS} client threads and connections exceed nproc = {nproc}"
        );
        return ExitCode::from(2);
    }
    let root = PathBuf::from(".bench_work");
    let work = root.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    let outcome = if let Err(e) = std::fs::create_dir_all(&work) {
        Err(Fail::new(format!("create {}: {e}", work.display())))
    } else if args.trace {
        run_traced(&args, &work)
    } else {
        run_untraced(&args, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(&root);
    match outcome {
        Ok(output) => {
            for problem in &output.checks.problems {
                eprintln!("check failed: {problem}");
            }
            let correct = output.checks.problems.is_empty();
            println!(
                "{}",
                util::result_json(
                    correct,
                    output.checks.attempted.max(1),
                    output.checks.failed,
                    &output.metrics
                )
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(fail) => {
            eprintln!("error: {}", fail.0);
            ExitCode::FAILURE
        }
    }
}
