//! Byte pin for the JSON-lines codec: [`io::write_jsonl`] over a small
//! trace that exercises every escaping rule (quote, backslash, tab, other
//! control characters, non-ASCII, an astral-plane emoji), a custom
//! workload kind, jobs with and without paths, and `u64::MAX` ids and
//! sizes. The golden is also read back, so the reader accepts exactly
//! what the writer emits.
//!
//! Regenerate after an intentional format change with
//!
//! ```sh
//! SWIM_REGEN_GOLDEN=1 cargo test -p swim-trace --test jsonl_golden
//! ```

use std::path::Path;
use swim_trace::io;
use swim_trace::trace::WorkloadKind;
use swim_trace::{DataSize, Dur, JobBuilder, PathId, Timestamp, Trace};

fn edge_case_trace() -> Trace {
    let jobs = vec![
        JobBuilder::new(1)
            .name("say \"hi\" \\ tab\there")
            .submit(Timestamp::from_secs(10))
            .duration(Dur::from_secs(30))
            .input(DataSize::from_bytes(5_000_000))
            .shuffle(DataSize::from_bytes(10_000))
            .output(DataSize::from_bytes(1_000))
            .map_task_time(Dur::from_secs(20))
            .reduce_task_time(Dur::from_secs(8))
            .tasks(2, 1)
            .input_paths(vec![PathId(3), PathId(9)])
            .output_paths(vec![PathId(12)])
            .build()
            .expect("valid job"),
        JobBuilder::new(2)
            .name("ctl \u{1} bs \u{8} ff \u{c} nl \n cr \r")
            .submit(Timestamp::from_secs(40))
            .duration(Dur::from_secs(5))
            .input(DataSize::from_bytes(4_000))
            .map_task_time(Dur::from_secs(3))
            .tasks(1, 0)
            .build()
            .expect("valid job"),
        JobBuilder::new(3)
            .name("caf\u{e9} \u{65e5}\u{672c} \u{1F600}")
            .submit(Timestamp::from_secs(40))
            .duration(Dur::from_secs(7))
            .map_task_time(Dur::from_secs(2))
            .tasks(1, 0)
            .output_paths(vec![PathId(u64::MAX)])
            .build()
            .expect("valid job"),
        JobBuilder::new(u64::MAX)
            .name("")
            .submit(Timestamp::from_secs(u64::MAX))
            .duration(Dur::from_secs(u64::MAX))
            .input(DataSize::from_bytes(u64::MAX))
            .shuffle(DataSize::from_bytes(u64::MAX))
            .output(DataSize::from_bytes(u64::MAX))
            .map_task_time(Dur::from_secs(u64::MAX))
            .reduce_task_time(Dur::from_secs(u64::MAX))
            .tasks(u32::MAX, u32::MAX)
            .input_paths(vec![PathId(0), PathId(u64::MAX)])
            .build()
            .expect("valid job"),
    ];
    Trace::new(
        WorkloadKind::Custom("edge \"kind\" \u{e9}".into()),
        u32::MAX,
        jobs,
    )
    .expect("valid trace")
}

#[test]
fn write_jsonl_matches_golden() {
    let trace = edge_case_trace();
    let mut buf = Vec::new();
    io::write_jsonl(&trace, &mut buf).expect("write");
    let got = String::from_utf8(buf).expect("utf-8 output");

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/edge-cases.jsonl");
    if std::env::var_os("SWIM_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        got,
        golden,
        "write_jsonl drifted from {} (SWIM_REGEN_GOLDEN=1 to regenerate)",
        path.display()
    );
    let back = io::read_jsonl(golden.as_bytes()).expect("golden reads back");
    assert_eq!(back, trace);
}
