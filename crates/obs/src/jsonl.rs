//! Machine-readable JSONL export of a [`Snapshot`].
//!
//! One JSON object per line, one line per instrument, so the bench
//! harness can append successive snapshots to a single file and grep /
//! parse them without a streaming JSON parser. Names are the only
//! strings and go through the shared escaper in [`crate::json`].
//!
//! Line shapes:
//!
//! ```json
//! {"type":"counter","name":"store.chunks_decoded","value":12}
//! {"type":"gauge","name":"catalog.cache_entries","value":3}
//! {"type":"histogram","name":"...","count":4,"sum":10,"min":1,"p50":2,"p90":4,"p99":4,"max":4}
//! {"type":"span","path":"query.execute","count":1,"total_ns":123,"min_ns":123,"max_ns":123}
//! ```

use std::fmt::Write as _;
use std::io::Write as _;

use crate::json;
use crate::registry::Snapshot;

/// Environment variable naming the JSONL sink file. When set, CLIs
/// append their final snapshot to it via [`append_env`].
pub const SINK_ENV: &str = "SWIM_OBS_JSONL";

fn opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_owned(), |v| v.to_string())
}

/// Render a snapshot as JSON lines (trailing newline included when
/// non-empty; an empty snapshot renders as the empty string).
pub fn to_jsonl(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        out.push_str("{\"type\":\"counter\",\"name\":");
        json::write_str(&mut out, name);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    for (name, value) in &snapshot.gauges {
        out.push_str("{\"type\":\"gauge\",\"name\":");
        json::write_str(&mut out, name);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    for h in &snapshot.histograms {
        out.push_str("{\"type\":\"histogram\",\"name\":");
        json::write_str(&mut out, &h.name);
        let _ = writeln!(
            out,
            ",\"count\":{},\"sum\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
            h.count,
            h.sum,
            opt(h.min),
            opt(h.p50),
            opt(h.p90),
            opt(h.p99),
            opt(h.max),
        );
    }
    for s in &snapshot.spans {
        out.push_str("{\"type\":\"span\",\"path\":");
        json::write_str(&mut out, &s.path);
        let _ = writeln!(
            out,
            ",\"count\":{},\"total_ns\":{},\"min_ns\":{},\"max_ns\":{}}}",
            s.count, s.total_ns, s.min_ns, s.max_ns,
        );
    }
    out
}

/// Append `snapshot` to the file named by `path`, creating it if
/// needed. Empty snapshots append nothing.
pub fn append(path: &str, snapshot: &Snapshot) -> std::io::Result<()> {
    let text = to_jsonl(snapshot);
    if text.is_empty() {
        return Ok(());
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(text.as_bytes())
}

/// Append `snapshot` to the file named by [`SINK_ENV`], if that
/// variable is set. Returns `Ok(false)` when it is not set.
pub fn append_env(snapshot: &Snapshot) -> std::io::Result<bool> {
    match std::env::var(SINK_ENV) {
        Ok(path) if !path.is_empty() => {
            append(&path, snapshot)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{HistogramSample, SpanSample};

    #[test]
    fn jsonl_lines_have_fixed_shapes() {
        let snap = Snapshot {
            counters: vec![("a.count".to_owned(), 2)],
            gauges: vec![("b.level".to_owned(), -3)],
            histograms: vec![HistogramSample {
                name: "c.hist".to_owned(),
                count: 0,
                sum: 0,
                min: None,
                p50: None,
                p90: None,
                p99: None,
                max: None,
            }],
            spans: vec![SpanSample {
                path: "d/e".to_owned(),
                count: 1,
                total_ns: 5,
                min_ns: 5,
                max_ns: 5,
            }],
        };
        let text = to_jsonl(&snap);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            vec![
                "{\"type\":\"counter\",\"name\":\"a.count\",\"value\":2}",
                "{\"type\":\"gauge\",\"name\":\"b.level\",\"value\":-3}",
                "{\"type\":\"histogram\",\"name\":\"c.hist\",\"count\":0,\"sum\":0,\"min\":null,\"p50\":null,\"p90\":null,\"p99\":null,\"max\":null}",
                "{\"type\":\"span\",\"path\":\"d/e\",\"count\":1,\"total_ns\":5,\"min_ns\":5,\"max_ns\":5}",
            ]
        );
        assert!(text.ends_with('\n'));
        assert_eq!(to_jsonl(&Snapshot::default()), "");
    }

    #[test]
    fn json_strings_escape_specials() {
        let snap = Snapshot {
            counters: vec![("a\"b\\c\n\u{1}".to_owned(), 1)],
            ..Snapshot::default()
        };
        assert_eq!(
            to_jsonl(&snap),
            "{\"type\":\"counter\",\"name\":\"a\\\"b\\\\c\\n\\u0001\",\"value\":1}\n"
        );
    }

    #[test]
    fn append_env_is_noop_without_var() {
        // SINK_ENV is not set in the test environment.
        if std::env::var(SINK_ENV).is_err() {
            assert!(!append_env(&Snapshot::default()).unwrap());
        }
    }
}
