//! Seeded request pools: what the clients send.
//!
//! None of them is the five-line `serveload::DEFAULT_MIX`: cycling five
//! requests turns every workload into a result-cache benchmark.

use crate::util::Rng;

/// Request kinds of the interactive pool; entry `r` has kind
/// `r % KINDS`.
pub const KINDS: usize = 10;

const HOUR: u64 = 3_600;
const DAY: u64 = 86_400;

/// The interactive mix over a catalog spanning `span_secs`: 90% narrow
/// time-window aggregates (1 h to 1 day, 30% of them with a secondary
/// predicate) and 10% full-range grouped reports and top-k queries.
/// Entry `r` has kind `r % KINDS` and popularity rank `r / KINDS`
/// within its kind: kinds 0–8 are narrow (1, 4 and 7 with a secondary
/// predicate; 2 and 5 in JSON, 8 in Markdown), kind 9 is a report. The
/// kinds are laid out, not drawn, so every seed has the same mix; the
/// seed picks windows, aggregates and parameters.
pub fn interactive(seed: u64, size: usize, span_secs: u64) -> Vec<String> {
    let mut rng = Rng::new(seed, 0x1_0001);
    let windows = [HOUR, 3 * HOUR, 6 * HOUR, 12 * HOUR, DAY];
    let selects = [
        "count",
        "count,sum(total_io)",
        "p50(duration),max(input)",
        "avg(duration),sum(input)",
        "count,p90(duration)",
        "min(submit),max(submit),count",
    ];
    let secondary = [
        "input > 1gb",
        "duration >= 60",
        "map_tasks > 10",
        "reduce_tasks == 0",
        "total_io > 100mb",
    ];
    let hours = (span_secs / HOUR).max(2);
    (0..size as u64)
        .map(|rank| {
            let (kind, round) = (rank % KINDS as u64, rank / KINDS as u64);
            let format = match kind {
                2 | 5 => " --format json",
                8 => " --format md",
                _ => "",
            };
            if kind == 9 {
                let k = 3 + rng.below(18);
                return match round % 4 {
                    0 => format!(
                        "query --select \"count,sum(total_io)\" --group-by \"submit/{}\"{format}",
                        DAY * (1 + rng.below(2))
                    ),
                    1 => format!(
                        "query --select \"count,avg(duration)\" --group-by reduce_tasks --order-by 2 --desc --limit {k}{format}"
                    ),
                    2 => format!(
                        "query --select \"count,sum(input)\" --group-by \"submit/3600\" --order-by 3 --desc --limit {k}{format}"
                    ),
                    _ => format!(
                        "query --select \"count,p99(duration)\" --where \"input > {}gb\"{format}",
                        1 + rng.below(40)
                    ),
                };
            }
            let len = windows[(round % windows.len() as u64) as usize].min(span_secs.max(HOUR));
            let start = rng.below(hours.saturating_sub(len / HOUR).max(1)) * HOUR;
            let mut pred = format!("submit >= {start} and submit < {}", start + len);
            if matches!(kind, 1 | 4 | 7) {
                pred = format!("{pred} and {}", rng.pick(&secondary));
            }
            format!(
                "query --select \"{}\" --where \"{pred}\"{format}",
                rng.pick(&selects)
            )
        })
        .collect()
}

/// The `i`-th scan request: a full-range analytic report that neither
/// shard nor chunk zone maps can prune. `i` is global across clients,
/// so every request has its own canonical form and the result cache
/// never hits.
pub fn scan(seed: u64, i: u64) -> String {
    let salt = seed % 97;
    let n = i / 3 + salt;
    match i % 3 {
        0 => format!(
            "query --select \"count,p50(duration),p99(duration)\" --group-by \"submit/3600\" --where \"duration >= {} and id != {}\"",
            n % 60,
            1_000_000_000 + n
        ),
        1 => format!(
            "query --select \"count,sum(input),avg(duration)\" --group-by \"submit/{}\"",
            3_600 + n
        ),
        _ => format!(
            "query --select \"p99(total_io),max(output),count\" --where \"input >= {}\"",
            n
        ),
    }
}
