//! The traced run's in-process replay: each distinct query of the timed
//! phase runs once through `Session::execute` (serial, so every layer
//! runs on one thread) and once piecewise through the public layer
//! functions — `Catalog::open_shard`, `swim_query::plan` and
//! `Catalog::cached_columns`/`load_columns` — on a second catalog
//! handle whose column cache sees exactly the same request sequence.
//!
//! Layer accounting: the piecewise counts must equal the program's own
//! counters exactly (`ExecStats`, the `CatalogOutput` pruning line,
//! `CacheStats`, the `store.chunks_decoded` swim-obs counter). The
//! layer times — shard open and plan from the piecewise pass, decode
//! from the program's own `store.decode_chunk` spans of the same
//! `Session::execute` call — may not exceed that call's time by more
//! than [`TOLERANCE`] plus [`SLACK_US`]; the remainder is
//! `query.self_us` (grouping, aggregation, finalisation).

use std::path::Path;
use std::time::Instant;

use swim_catalog::Catalog;
use swim_query::{plan, Query, Session, Tri};

use crate::util::{timed, us};
use crate::verify::parse_request;
use crate::Fail;

/// Relative tolerance of the per-query layer sum against
/// `Session::execute`.
pub const TOLERANCE: f64 = 0.25;
/// Absolute slack in microseconds, for queries that take a few
/// microseconds and are dominated by timer granularity.
pub const SLACK_US: f64 = 300.0;

#[derive(Debug, Default)]
pub struct Layers {
    pub queries: u64,
    pub exec_us: f64,
    pub open_us: f64,
    pub shard_opens: u64,
    pub plan_us: f64,
    pub load_us: f64,
    pub loads: u64,
    pub decode_us: f64,
    pub chunks_decoded: u64,
    pub bytes_decoded: u64,
    pub self_us: f64,
    pub shards_seen: u64,
    pub shards_pruned: u64,
    pub chunks_seen: u64,
    pub chunks_skipped: u64,
    pub rows_scanned: u64,
    pub rows_matched: u64,
    pub lru_hits: u64,
    pub lru_misses: u64,
    pub lru_evictions: u64,
    pub catalog_open_us: f64,
    /// Largest (layer sum / execute time) over the replayed queries.
    pub worst_layer_share: f64,
    /// Accounting violations, one line each.
    pub mismatches: Vec<String>,
}

/// The program's chunk-decode count and the nanoseconds its
/// `store.decode_chunk` spans have recorded, under any parent span.
fn decode_totals() -> (u64, u64) {
    let snapshot = swim_obs::snapshot();
    let ns = snapshot
        .spans
        .iter()
        .filter(|s| s.path.ends_with("store.decode_chunk"))
        .map(|s| s.total_ns)
        .sum();
    (snapshot.counter("store.chunks_decoded").unwrap_or(0), ns)
}

/// `shards: scanned S of T (P pruned via shard zone maps); …` — the
/// federated executor's own pruning line.
fn pruned_in_summary(summary: &str) -> Option<u64> {
    let open = summary.find('(')?;
    summary[open + 1..].split_whitespace().next()?.parse().ok()
}

/// What the piecewise pass counted and timed for one query.
#[derive(Default)]
struct Piecewise {
    open_us: f64,
    opens: u64,
    plan_us: f64,
    load_us: f64,
    loads: u64,
    decoded: u64,
    bytes: u64,
    pruned: u64,
    selected: u64,
    skipped: u64,
    hits: u64,
    misses: u64,
}

fn piecewise(catalog: &Catalog, query: &Query) -> Result<Piecewise, Fail> {
    let mut p = Piecewise::default();
    for (idx, entry) in catalog.shards().iter().enumerate() {
        if query.predicate.zone_verdict(&entry.zone) == Tri::Never {
            p.pruned += 1;
            continue;
        }
        let (store, t) = timed(|| catalog.open_shard(idx));
        let store = store.map_err(|e| Fail::new(format!("open shard {idx}: {e}")))?;
        p.open_us += us(t);
        p.opens += 1;
        let (shard_plan, t) = timed(|| plan(&store, query));
        p.plan_us += us(t);
        p.selected += shard_plan.selected.len() as u64;
        p.skipped += shard_plan.chunks_skipped() as u64;
        if catalog.cached_columns(idx).is_some() {
            p.hits += 1;
        } else if shard_plan.selected.len() == store.chunk_count() && catalog.cache_capacity() > 0 {
            let (loaded, t) = timed(|| catalog.load_columns(idx, &store));
            loaded.map_err(|e| Fail::new(format!("load shard {idx}: {e}")))?;
            p.load_us += us(t);
            p.loads += 1;
            p.misses += 1;
            p.decoded += store.chunk_count() as u64;
            p.bytes += store.chunk_meta().iter().map(|m| m.block_len).sum::<u64>();
        } else {
            p.decoded += shard_plan.selected.len() as u64;
            p.bytes += shard_plan
                .selected
                .iter()
                .map(|&ci| store.chunk_meta()[ci].block_len)
                .sum::<u64>();
        }
    }
    Ok(p)
}

/// Replay `lines` against the catalog in `dir`. Turns swim-obs metrics
/// and spans on (the chunk-decode counter and decode spans are the
/// program's) and leaves only metrics on.
pub fn replay(dir: &Path, lines: &[String]) -> Result<Layers, Fail> {
    swim_obs::set_enabled(swim_obs::METRICS | swim_obs::SPANS);
    let layers = replay_traced(dir, lines);
    swim_obs::set_enabled(swim_obs::METRICS);
    layers
}

fn replay_traced(dir: &Path, lines: &[String]) -> Result<Layers, Fail> {
    let open = |d: &Path| Catalog::open(d).map_err(|e| Fail::new(format!("open catalog: {e}")));
    let mut layers = Layers::default();
    let opens = 20;
    let start = Instant::now();
    for _ in 0..opens {
        open(dir)?;
    }
    layers.catalog_open_us = us(start.elapsed()) / f64::from(opens);

    let engine = Session::from_catalog(open(dir)?);
    let engine_catalog = engine
        .catalog()
        .ok_or_else(|| Fail::new("session has no catalog"))?;
    let replica = open(dir)?;
    for line in lines {
        let (query, _) = parse_request(line).map_err(Fail::new)?;
        let cache_before = engine_catalog.cache_stats();
        let (decoded_before, decode_ns_before) = decode_totals();
        let (result, t) = timed(|| engine.execute(&query, true));
        let result = result.map_err(|e| Fail::new(format!("execute {line}: {e}")))?;
        let exec_us = us(t);
        let (decoded_after, decode_ns_after) = decode_totals();
        let decoded = decoded_after - decoded_before;
        let decode_us = (decode_ns_after - decode_ns_before) as f64 / 1_000.0;
        let cache_after = engine_catalog.cache_stats();

        let p = piecewise(&replica, &query)?;
        let stats = result.output.stats;
        let program = [
            (
                "shards pruned",
                pruned_in_summary(&result.summary).unwrap_or(u64::MAX),
            ),
            ("chunks scanned", stats.chunks_scanned as u64),
            ("chunks skipped", stats.chunks_skipped as u64),
            ("lru hits", cache_after.hits - cache_before.hits),
            ("lru misses", cache_after.misses - cache_before.misses),
            ("chunks decoded", decoded),
        ];
        let ours = [p.pruned, p.selected, p.skipped, p.hits, p.misses, p.decoded];
        for ((what, theirs), mine) in program.iter().zip(ours) {
            if *theirs != mine {
                layers
                    .mismatches
                    .push(format!("{line}: {what}: program {theirs}, replay {mine}"));
            }
        }
        let layer_sum = p.open_us + p.plan_us + decode_us;
        if layer_sum > exec_us * (1.0 + TOLERANCE) + SLACK_US {
            layers.mismatches.push(format!(
                "{line}: layers sum to {layer_sum:.0} us, Session::execute took {exec_us:.0} us"
            ));
        }
        if exec_us > SLACK_US {
            layers.worst_layer_share = layers.worst_layer_share.max(layer_sum / exec_us);
        }

        layers.queries += 1;
        layers.exec_us += exec_us;
        layers.open_us += p.open_us;
        layers.shard_opens += p.opens;
        layers.plan_us += p.plan_us;
        layers.load_us += p.load_us;
        layers.loads += p.loads;
        layers.decode_us += decode_us;
        layers.chunks_decoded += p.decoded;
        layers.bytes_decoded += p.bytes;
        layers.self_us += (exec_us - layer_sum).max(0.0);
        layers.shards_seen += p.pruned + p.opens;
        layers.shards_pruned += p.pruned;
        layers.chunks_seen += p.selected + p.skipped;
        layers.chunks_skipped += p.skipped;
        layers.rows_scanned += stats.rows_scanned;
        layers.rows_matched += stats.rows_matched;
        layers.lru_hits += p.hits;
        layers.lru_misses += p.misses;
        layers.lru_evictions += cache_after.evictions - cache_before.evictions;
    }
    Ok(layers)
}

#[cfg(test)]
mod tests {
    use super::pruned_in_summary;

    #[test]
    fn reads_the_pruning_line() {
        let line = "shards: scanned 2 of 8 (6 pruned via shard zone maps); chunks …";
        assert_eq!(pruned_in_summary(line), Some(6));
    }
}
