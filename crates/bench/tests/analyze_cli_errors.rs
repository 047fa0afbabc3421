//! `swim-analyze` on malformed JSON-lines input: every failure is a
//! one-line `error: parse …: parse error at line N: …` naming the
//! offending line, with exit code 1 — including a line nested far deeper
//! than any parser stack could follow.

use std::path::PathBuf;
use std::process::Command;

const META: &str = r#"{"kind":"CcB","machines":300}"#;
const JOB: &str = r#"{"id":1,"name":"a","submit":0,"duration":5,"input":10,"shuffle":0,"output":1,"map_task_time":3,"reduce_task_time":0,"map_tasks":1,"reduce_tasks":0}"#;

/// Write `doc` to a per-test temp file and run `swim-analyze` on it;
/// return (exit code, first stderr line).
fn analyze(tag: &str, doc: &str) -> (i32, String) {
    let path: PathBuf =
        std::env::temp_dir().join(format!("swim-analyze-{tag}-{}.jsonl", std::process::id()));
    std::fs::write(&path, doc).expect("write input");
    let output = Command::new(env!("CARGO_BIN_EXE_swim-analyze"))
        .args(["--format", "jsonl", "--input"])
        .arg(&path)
        .output()
        .expect("swim-analyze runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8_lossy(&output.stderr);
    (
        output.status.code().expect("exit code, not a signal"),
        stderr.lines().next().unwrap_or_default().to_owned(),
    )
}

#[test]
fn bad_job_on_line_three_is_located() {
    let bad = JOB
        .replace(r#""id":1"#, r#""id":2"#)
        .replace(r#""input":10"#, r#""input":-10"#);
    let (code, first) = analyze("line3", &format!("{META}\n{JOB}\n{bad}\n"));
    assert_eq!(code, 1, "{first}");
    assert!(first.starts_with("error: parse "), "{first}");
    assert!(first.contains("parse error at line 3: "), "{first}");
}

#[test]
fn deeply_nested_line_is_an_error_not_a_crash() {
    let deep = JOB.replace(
        r#""id":1"#,
        &format!(r#""junk":{},"id":1"#, "[".repeat(300_000)),
    );
    let (code, first) = analyze("deep", &format!("{META}\n{deep}\n"));
    assert_eq!(code, 1, "{first}");
    assert!(
        first.contains("parse error at line 2: nesting deeper than"),
        "{first}"
    );
}
