//! # swim-obs
//!
//! A zero-dependency observability layer for the swim workspace:
//! counters, gauges, nearest-rank latency histograms, and hierarchical
//! timed spans, collected into one process-wide [`Registry`] and
//! exported as plain data ([`Snapshot`]) or JSON lines ([`jsonl`]).
//!
//! The crate sits **below** every other workspace crate (including
//! `swim-store`), so any layer can instrument its hot paths without new
//! dependency edges. Three properties keep that instrumentation honest:
//!
//! 1. **Cheap when disabled.** Every recording call starts with one
//!    relaxed atomic load of the global enable mask; when the relevant
//!    bit is off the call returns immediately — no allocation, no lock,
//!    no clock read. Instrumentation is compiled in unconditionally and
//!    costs a branch.
//! 2. **Static instruments, lazy registration.** Instruments are
//!    `static` values (`Counter::new` is `const`); they register
//!    themselves with the global registry on first *enabled* touch, so
//!    an instrument that never fires never shows up in a snapshot.
//! 3. **Exact, deterministic data.** Counters are exact `u64`s,
//!    histogram quantiles use the same nearest-rank rule as
//!    `swim_core::stats::Ecdf::quantile` (property-tested bit-for-bit),
//!    and snapshots sort by name — so for a deterministic workload the
//!    counter section of a snapshot is byte-stable.
//!
//! Enablement comes from the `SWIM_OBS` environment variable
//! ([`init_from_env`]: comma-separated `metric` / `span` / `all`) or
//! programmatically ([`set_enabled`]) — `swim-query --profile` forces
//! everything on for the duration of the query.
//!
//! For **resident processes** (the `swim-serve` server) three further
//! pieces provide live telemetry at bounded memory:
//!
//! * [`window`] — [`WindowedHistogram`] / [`WindowedCounter`]: "last
//!   minute" distributions and rates over a ring of fixed-duration
//!   buckets, O(buckets) memory however many events are recorded,
//!   rotation driven by injectable timestamps ([`clock`]).
//! * [`flight`] — a bounded ring of the most recent span events, for
//!   "what just happened" forensics next to the aggregates.
//! * [`Snapshot::delta`] — difference two snapshots to turn lifetime
//!   counters into rates (`swim-top`'s polling primitive).
//!
//! The crate also owns the workspace's one JSON codec, [`json`]: the
//! string escaper every JSON renderer shares, the writer behind the
//! trace JSON-lines and `swim-analyze` exports, and a depth-bounded
//! reader. It lives here, at the dependency floor, so any layer can use
//! it without a new edge.
//!
//! [`par`] is the workspace's one parallel fan-out: scoped workers that
//! claim indices from a shared counter. It lives here for the same
//! reason, and next to [`mod@span`]: spans are thread-local today, so a
//! worker's spans start at the root, and carrying the caller's span
//! context into workers is a change to this one module.
//!
//! ```
//! use swim_obs::{set_enabled, snapshot, Counter, METRICS};
//!
//! static DECODED: Counter = Counter::new("example.chunks_decoded");
//! set_enabled(METRICS);
//! DECODED.add(3);
//! let snap = snapshot();
//! assert_eq!(snap.counter("example.chunks_decoded"), Some(3));
//! set_enabled(0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod clock;
pub mod flight;
pub mod json;
pub mod jsonl;
pub mod metrics;
pub mod par;
pub mod registry;
pub mod span;
pub mod window;

pub use flight::FlightEvent;
pub use metrics::{quantile_of_sorted, Counter, Gauge, Histogram};
pub use registry::{reset, snapshot, HistogramSample, Registry, Snapshot, SpanSample};
pub use span::{span, timed, SpanGuard};
pub use window::{BucketSummary, WindowSummary, WindowedCounter, WindowedHistogram};

use std::sync::atomic::{AtomicU32, Ordering};

/// Enable bit for counters, gauges, and histograms.
pub const METRICS: u32 = 1;
/// Enable bit for hierarchical timed spans.
pub const SPANS: u32 = 2;
/// Every component.
pub const ALL: u32 = METRICS | SPANS;

/// The process-wide enable mask. Everything is off by default, so
/// instrumented code paths cost one relaxed load + branch.
static ENABLED: AtomicU32 = AtomicU32::new(0);

/// Replace the enable mask (a bitwise OR of [`METRICS`] and [`SPANS`];
/// `0` disables everything).
pub fn set_enabled(mask: u32) {
    ENABLED.store(mask & ALL, Ordering::Relaxed);
}

/// `true` when *any* bit of `mask` is enabled.
#[inline]
pub fn enabled(mask: u32) -> bool {
    ENABLED.load(Ordering::Relaxed) & mask != 0
}

/// Parse an enable mask from `SWIM_OBS` and apply it, returning the
/// mask. Tokens are comma-separated: `metric`/`metrics`, `span`/`spans`,
/// `all`/`1`. Unknown tokens are ignored, so an unset or empty variable
/// leaves everything off.
pub fn init_from_env() -> u32 {
    let mask = std::env::var("SWIM_OBS")
        .map(|v| parse_mask(&v))
        .unwrap_or(0);
    set_enabled(mask);
    mask
}

/// Parse a `SWIM_OBS`-style component list into an enable mask.
pub fn parse_mask(text: &str) -> u32 {
    let mut mask = 0;
    for token in text.split(',') {
        match token.trim() {
            "metric" | "metrics" => mask |= METRICS,
            "span" | "spans" => mask |= SPANS,
            "all" | "1" | "true" => mask |= ALL,
            _ => {}
        }
    }
    mask
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Tests that flip the global enable mask must not interleave: this
    //! lock serializes them within the crate's test binary.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn serialize() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_parsing_accepts_components_and_ignores_junk() {
        assert_eq!(parse_mask(""), 0);
        assert_eq!(parse_mask("metric"), METRICS);
        assert_eq!(parse_mask("spans"), SPANS);
        assert_eq!(parse_mask("span,metric"), ALL);
        assert_eq!(parse_mask(" span , metrics "), ALL);
        assert_eq!(parse_mask("all"), ALL);
        assert_eq!(parse_mask("1"), ALL);
        assert_eq!(parse_mask("banana"), 0);
        assert_eq!(parse_mask("banana,span"), SPANS);
    }

    #[test]
    fn enable_mask_round_trips() {
        let _guard = test_support::serialize();
        set_enabled(METRICS);
        assert!(enabled(METRICS));
        assert!(!enabled(SPANS));
        assert!(enabled(ALL), "any-bit semantics");
        set_enabled(0);
        assert!(!enabled(ALL));
    }

    // The parallel fan-out through its public surface.

    #[test]
    fn scope_joins_and_returns() {
        let data = [1u64, 2, 3, 4];
        let chunks: Vec<&[u64]> = data.chunks(2).collect();
        let sums = par::map(2, chunks.len(), |i| chunks[i].iter().sum::<u64>());
        assert_eq!(sums, [3, 7]);
        let partials = par::fold(
            2,
            data.len(),
            || Ok::<u64, ()>(0),
            |acc, i| Ok(acc + data[i]),
        )
        .unwrap();
        assert_eq!(partials.into_iter().sum::<u64>(), 10);
    }

    #[test]
    fn nested_spawn_through_scope_arg() {
        // An outer fan-out whose workers each run an inner one, the
        // shape of a federated query fanning out over shards whose
        // stores fan out over chunks.
        let totals = par::map(3, 4, |outer| {
            par::map(2, 5, |inner| outer * 10 + inner)
                .into_iter()
                .sum::<usize>()
        });
        assert_eq!(totals, [10, 60, 110, 160]);
    }

    // The JSON codec through its public surface: documents written by
    // `json::write` and read back by `json::Reader`.

    fn read_all<'t>(
        text: &'t str,
        walk: impl FnOnce(&mut json::Reader<'t>) -> json::Result,
    ) -> json::Result {
        let mut r = json::Reader::new(text);
        walk(&mut r)?;
        r.finish()
    }

    #[test]
    fn u64_full_range() {
        let mut out = String::new();
        json::write(&mut out, &json::Value::U64(u64::MAX), false);
        assert_eq!(out, "18446744073709551615");
        let read = |t: &str| json::Reader::new(t).u64();
        assert_eq!(read(&out).unwrap(), u64::MAX);
        assert_eq!(read(" 0").unwrap(), 0);
        for bad in ["18446744073709551616", "1.5", "1e3", "1.0", "x", ""] {
            assert!(read(bad).is_err(), "{bad} should be rejected");
        }
    }

    #[test]
    fn signed_negatives() {
        let mut out = String::new();
        json::write(&mut out, &json::Value::F64(-5.0), false);
        assert_eq!(out, "-5.0");
        for text in ["-5", "-1", "-5.0", "-2.5e3"] {
            let err = json::Reader::new(text).u64().unwrap_err();
            assert_eq!(err.offset, 0, "{text}");
            read_all(text, json::Reader::skip).unwrap();
        }
        for bad in ["-", "-x", "--1", "-.5"] {
            assert!(
                read_all(bad, json::Reader::skip).is_err(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn array_round_trip() {
        let items = [0, 7, u64::MAX];
        for pretty in [false, true] {
            let mut out = String::new();
            let doc = json::Value::Array(items.iter().map(|&n| json::Value::U64(n)).collect());
            json::write(&mut out, &doc, pretty);
            let mut back = Vec::new();
            read_all(&out, |r| r.array(|r| r.u64().map(|n| back.push(n)))).unwrap();
            assert_eq!(back, items);
        }
        let mut back = Vec::new();
        read_all("[]", |r| r.array(|r| r.u64().map(|n| back.push(n)))).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn nested_containers() {
        let text = r#" {"a": [1, 2, {"b": null}], "c": "x", "d": [] } "#;
        let (mut nums, mut c) = (Vec::new(), String::new());
        read_all(text, |r| {
            r.object(|r, key| match key {
                "a" => r.array(|r| match r.peek() {
                    Some(b'{') => r.skip(),
                    _ => r.u64().map(|n| nums.push(n)),
                }),
                "c" => r.string().map(|s| c = s),
                _ => r.skip(),
            })
        })
        .unwrap();
        assert_eq!((nums, c.as_str()), (vec![1, 2], "x"));
        let deep = r#"{"a": [1, -2.5e3, "s", true, false, null, {"b": {}}], "c": []}"#;
        read_all(deep, json::Reader::skip).unwrap();
    }
}
