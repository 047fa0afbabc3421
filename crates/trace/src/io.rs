//! Trace codecs: a simple CSV dialect and JSON-lines, both round-trip safe.
//!
//! The CSV dialect mirrors the per-job Hadoop history summaries the paper
//! ingests. Paths are encoded as `;`-separated raw ids (the original traces
//! ship hashed paths, so no escaping concerns arise; external string paths
//! should be interned via [`crate::PathInterner`] first).

use crate::job::{Job, JobBuilder, JobId};
use crate::path::PathId;
use crate::size::DataSize;
use crate::time::{Dur, Timestamp};
use crate::trace::{Trace, WorkloadKind};
use crate::TraceError;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use swim_obs::json::{self, Reader, Value};

/// CSV header line for the per-job schema.
pub const CSV_HEADER: &str = "job_id,name,submit_secs,duration_secs,input_bytes,\
shuffle_bytes,output_bytes,map_task_secs,reduce_task_secs,map_tasks,reduce_tasks,\
input_paths,output_paths";

/// Write a trace as CSV (header + one line per job).
pub fn write_csv<W: Write>(trace: &Trace, writer: W) -> Result<(), TraceError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "{CSV_HEADER}")?;
    for job in trace.jobs() {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{},{},{},{}",
            job.id.0,
            escape_name(&job.name),
            job.submit.secs(),
            job.duration.secs(),
            job.input.bytes(),
            job.shuffle.bytes(),
            job.output.bytes(),
            job.map_task_time.secs(),
            job.reduce_task_time.secs(),
            job.map_tasks,
            job.reduce_tasks,
            encode_paths(&job.input_paths),
            encode_paths(&job.output_paths),
        )?;
    }
    w.flush()?;
    Ok(())
}

/// Read a trace from CSV produced by [`write_csv`].
pub fn read_csv<R: Read>(
    kind: WorkloadKind,
    machines: u32,
    reader: R,
) -> Result<Trace, TraceError> {
    let r = BufReader::new(reader);
    let mut jobs = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if lineno == 0 {
            if line != CSV_HEADER {
                return Err(TraceError::Parse {
                    line: 1,
                    reason: "missing or unrecognized CSV header".into(),
                });
            }
            continue;
        }
        if line.trim().is_empty() {
            continue;
        }
        jobs.push(parse_csv_line(&line, lineno + 1)?);
    }
    Trace::new(kind, machines, jobs)
}

fn parse_csv_line(line: &str, lineno: usize) -> Result<Job, TraceError> {
    let fields: Vec<&str> = line.split(',').collect();
    if fields.len() != 13 {
        return Err(TraceError::Parse {
            line: lineno,
            reason: format!("expected 13 fields, got {}", fields.len()),
        });
    }
    let perr = |what: &str, value: &str| TraceError::Parse {
        line: lineno,
        reason: format!("invalid {what} {value:?}"),
    };
    let num = |s: &str, what: &str| -> Result<u64, TraceError> {
        s.parse::<u64>().map_err(|_| perr(what, s))
    };
    // Task counts are u32 in the schema; going through `as` would silently
    // truncate oversized values into plausible-looking garbage.
    let num32 = |s: &str, what: &str| -> Result<u32, TraceError> {
        s.parse::<u32>().map_err(|_| TraceError::Parse {
            line: lineno,
            reason: format!("invalid {what} {s:?} (must fit in u32)"),
        })
    };
    let job = JobBuilder::new(num(fields[0], "job_id")?)
        .name(unescape_name(fields[1]))
        .submit(Timestamp::from_secs(num(fields[2], "submit_secs")?))
        .duration(Dur::from_secs(num(fields[3], "duration_secs")?))
        .input(DataSize::from_bytes(num(fields[4], "input_bytes")?))
        .shuffle(DataSize::from_bytes(num(fields[5], "shuffle_bytes")?))
        .output(DataSize::from_bytes(num(fields[6], "output_bytes")?))
        .map_task_time(Dur::from_secs(num(fields[7], "map_task_secs")?))
        .reduce_task_time(Dur::from_secs(num(fields[8], "reduce_task_secs")?))
        .tasks(
            num32(fields[9], "map_tasks")?,
            num32(fields[10], "reduce_tasks")?,
        )
        .input_paths(decode_paths(fields[11], lineno)?)
        .output_paths(decode_paths(fields[12], lineno)?)
        .build_unchecked();
    Ok(job)
}

/// Commas and newlines inside names would corrupt rows; replace them with
/// spaces (names are analysis keys via first-word only, so this is lossless
/// for every downstream use).
fn escape_name(name: &str) -> String {
    name.replace([',', '\n', '\r'], " ")
}

fn unescape_name(s: &str) -> String {
    s.to_owned()
}

fn encode_paths(paths: &[PathId]) -> String {
    let mut out = String::new();
    for (i, p) in paths.iter().enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(&p.0.to_string());
    }
    out
}

fn decode_paths(s: &str, lineno: usize) -> Result<Vec<PathId>, TraceError> {
    if s.is_empty() {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|tok| {
            tok.parse::<u64>()
                .map(PathId)
                .map_err(|_| TraceError::Parse {
                    line: lineno,
                    reason: format!("invalid path id {tok:?}"),
                })
        })
        .collect()
}

/// Tags of [`WorkloadKind::PAPER_SEVEN`] in JSON-lines metadata; any
/// other kind is written as `{"Custom":"<label>"}`.
const KIND_TAGS: [&str; 7] = ["CcA", "CcB", "CcC", "CcD", "CcE", "Fb2009", "Fb2010"];

/// Keys a JSON-lines job record must carry (the paths are optional).
const REQUIRED: &str = "id name submit duration input shuffle output \
                        map_task_time reduce_task_time map_tasks reduce_tasks";

/// Write a trace as JSON-lines: one JSON object per job, preceded by a
/// metadata object (`{"kind": …, "machines": …}`). Job keys appear in
/// schema order; `input_paths` / `output_paths` are omitted when empty.
pub fn write_jsonl<W: Write>(trace: &Trace, writer: W) -> Result<(), TraceError> {
    let mut w = BufWriter::new(writer);
    let tag = KIND_TAGS
        .iter()
        .zip(WorkloadKind::PAPER_SEVEN)
        .find(|(_, k)| *k == trace.kind);
    let kind = match tag {
        Some((tag, _)) => Value::Str(tag),
        None => Value::Object(vec![("Custom", Value::Str(trace.kind.label()))]),
    };
    let meta = Value::Object(vec![
        ("kind", kind),
        ("machines", Value::U64(trace.machines.into())),
    ]);
    let mut line = String::new();
    for value in std::iter::once(meta).chain(trace.jobs().iter().map(job_value)) {
        line.clear();
        json::write(&mut line, &value, false);
        line.push('\n');
        w.write_all(line.as_bytes())?;
    }
    w.flush()?;
    Ok(())
}

fn job_value(job: &Job) -> Value<'_> {
    let mut fields = vec![
        ("id", Value::U64(job.id.0)),
        ("name", Value::Str(&job.name)),
        ("submit", Value::U64(job.submit.secs())),
        ("duration", Value::U64(job.duration.secs())),
        ("input", Value::U64(job.input.bytes())),
        ("shuffle", Value::U64(job.shuffle.bytes())),
        ("output", Value::U64(job.output.bytes())),
        ("map_task_time", Value::U64(job.map_task_time.secs())),
        ("reduce_task_time", Value::U64(job.reduce_task_time.secs())),
        ("map_tasks", Value::U64(job.map_tasks.into())),
        ("reduce_tasks", Value::U64(job.reduce_tasks.into())),
    ];
    for (key, paths) in [
        ("input_paths", &job.input_paths),
        ("output_paths", &job.output_paths),
    ] {
        if !paths.is_empty() {
            fields.push((
                key,
                Value::Array(paths.iter().map(|p| Value::U64(p.0)).collect()),
            ));
        }
    }
    Value::Object(fields)
}

/// Read a trace from JSON-lines produced by [`write_jsonl`].
///
/// Keys may come in any order with any JSON whitespace, and unknown keys
/// are skipped whatever their value. The paths default to empty; every
/// other field is required, and numbers must be exact non-negative
/// integers. Blank lines are ignored. A malformed line is a
/// [`TraceError::Parse`] with its 1-based number (the metadata is line 1).
pub fn read_jsonl<R: Read>(reader: R) -> Result<Trace, TraceError> {
    let mut lines = BufReader::new(reader).split(b'\n');
    let empty = || TraceError::Parse {
        line: 1,
        reason: "empty stream".into(),
    };
    let (kind, machines) = parse_line(&lines.next().ok_or_else(empty)??, 1, parse_meta)?;
    let mut jobs = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if !line.iter().all(u8::is_ascii_whitespace) {
            jobs.push(parse_line(&line, i + 2, parse_job)?);
        }
    }
    Trace::new(kind, machines, jobs)
}

/// Parse line number `line` as exactly one JSON value.
fn parse_line<T>(
    bytes: &[u8],
    line: usize,
    parse: fn(&mut Reader<'_>) -> json::Result<T>,
) -> Result<T, TraceError> {
    let located = |reason: String| TraceError::Parse { line, reason };
    let text = std::str::from_utf8(bytes).map_err(|e| located(format!("invalid UTF-8: {e}")))?;
    let mut r = Reader::new(text);
    let value = parse(&mut r).map_err(|e| located(e.to_string()))?;
    r.finish().map_err(|e| located(e.to_string()))?;
    Ok(value)
}

fn parse_meta(r: &mut Reader<'_>) -> json::Result<(WorkloadKind, u32)> {
    let (mut kind, mut machines) = (None, None);
    r.object(|r, key| match key {
        "kind" => parse_kind(r).map(|k| kind = Some(k)),
        "machines" => read_u32(r).map(|n| machines = Some(n)),
        _ => r.skip(),
    })?;
    let kind = kind.ok_or_else(|| r.error("missing field `kind`"))?;
    Ok((
        kind,
        machines.ok_or_else(|| r.error("missing field `machines`"))?,
    ))
}

/// A `"CcB"`-style tag, or `{"Custom":"<label>"}` with no other key.
fn parse_kind(r: &mut Reader<'_>) -> json::Result<WorkloadKind> {
    if r.peek() == Some(b'"') {
        let tag = r.string()?;
        let known = KIND_TAGS
            .iter()
            .zip(WorkloadKind::PAPER_SEVEN)
            .find(|(t, _)| **t == tag);
        return known
            .map(|(_, kind)| kind)
            .ok_or_else(|| r.error(format!("unknown workload kind `{tag}`")));
    }
    let mut label = None;
    r.object(|r, key| match (key, &label) {
        ("Custom", None) => r.string().map(|s| label = Some(s)),
        _ => Err(r.error(format!("unexpected workload kind key `{key}`"))),
    })?;
    label
        .map(WorkloadKind::Custom)
        .ok_or_else(|| r.error("empty workload kind"))
}

fn parse_job(r: &mut Reader<'_>) -> json::Result<Job> {
    let mut job = JobBuilder::new(0).build_unchecked();
    let mut seen = 0u32;
    r.object(|r, key| {
        if let Some(i) = REQUIRED.split_whitespace().position(|k| k == key) {
            seen |= 1 << i;
        }
        match key {
            "id" => job.id = JobId(r.u64()?),
            "name" => job.name = r.string()?,
            "submit" => job.submit = Timestamp::from_secs(r.u64()?),
            "duration" => job.duration = Dur::from_secs(r.u64()?),
            "input" => job.input = DataSize::from_bytes(r.u64()?),
            "shuffle" => job.shuffle = DataSize::from_bytes(r.u64()?),
            "output" => job.output = DataSize::from_bytes(r.u64()?),
            "map_task_time" => job.map_task_time = Dur::from_secs(r.u64()?),
            "reduce_task_time" => job.reduce_task_time = Dur::from_secs(r.u64()?),
            "map_tasks" => job.map_tasks = read_u32(r)?,
            "reduce_tasks" => job.reduce_tasks = read_u32(r)?,
            "input_paths" => job.input_paths = read_paths(r)?,
            "output_paths" => job.output_paths = read_paths(r)?,
            _ => r.skip()?,
        }
        Ok(())
    })?;
    match REQUIRED
        .split_whitespace()
        .enumerate()
        .find(|(i, _)| seen & (1 << i) == 0)
    {
        Some((_, key)) => Err(r.error(format!("missing field `{key}`"))),
        None => Ok(job),
    }
}

fn read_u32(r: &mut Reader<'_>) -> json::Result<u32> {
    let n = r.u64()?;
    u32::try_from(n).map_err(|_| r.error(format!("{n} does not fit in u32")))
}

fn read_paths(r: &mut Reader<'_>) -> json::Result<Vec<PathId>> {
    let mut paths = Vec::new();
    r.array(|r| r.u64().map(|n| paths.push(PathId(n))))?;
    Ok(paths)
}

/// Serialize a trace to a CSV string (convenience).
pub fn to_csv_string(trace: &Trace) -> Result<String, TraceError> {
    let mut buf = Vec::new();
    write_csv(trace, &mut buf)?;
    String::from_utf8(buf).map_err(|e| TraceError::Parse {
        line: 0,
        reason: format!("non-utf8 output: {e}"),
    })
}

/// Deserialize a trace from a CSV string (convenience).
pub fn from_csv_string(kind: WorkloadKind, machines: u32, s: &str) -> Result<Trace, TraceError> {
    read_csv(kind, machines, s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobBuilder;

    fn sample_trace() -> Trace {
        let jobs = vec![
            JobBuilder::new(1)
                .name("insert overwrite, weekly")
                .submit(Timestamp::from_secs(10))
                .duration(Dur::from_secs(30))
                .input(DataSize::from_mb(5))
                .shuffle(DataSize::from_kb(10))
                .output(DataSize::from_kb(1))
                .map_task_time(Dur::from_secs(20))
                .reduce_task_time(Dur::from_secs(8))
                .tasks(2, 1)
                .input_paths(vec![PathId(3), PathId(9)])
                .output_paths(vec![PathId(12)])
                .build()
                .unwrap(),
            JobBuilder::new(2)
                .name("piglatin")
                .submit(Timestamp::from_secs(40))
                .duration(Dur::from_secs(5))
                .input(DataSize::from_kb(4))
                .map_task_time(Dur::from_secs(3))
                .tasks(1, 0)
                .build()
                .unwrap(),
        ];
        Trace::new(WorkloadKind::CcB, 300, jobs).unwrap()
    }

    #[test]
    fn csv_round_trip_preserves_everything_but_commas() {
        let t = sample_trace();
        let csv = to_csv_string(&t).unwrap();
        let back = from_csv_string(WorkloadKind::CcB, 300, &csv).unwrap();
        assert_eq!(back.len(), 2);
        // Comma in the name was replaced by a space; everything else intact.
        assert_eq!(back.jobs()[0].name, "insert overwrite  weekly");
        assert_eq!(back.jobs()[0].input_paths, vec![PathId(3), PathId(9)]);
        assert_eq!(back.jobs()[1], t.jobs()[1]);
    }

    #[test]
    fn jsonl_round_trip_is_identity() {
        let t = sample_trace();
        let mut buf = Vec::new();
        write_jsonl(&t, &mut buf).unwrap();
        let back = read_jsonl(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn csv_rejects_bad_header() {
        let r = from_csv_string(WorkloadKind::CcA, 1, "nope\n1,2,3\n");
        assert!(matches!(r, Err(TraceError::Parse { line: 1, .. })));
    }

    #[test]
    fn csv_rejects_wrong_field_count() {
        let csv = format!("{CSV_HEADER}\n1,2,3\n");
        let r = from_csv_string(WorkloadKind::CcA, 1, &csv);
        assert!(matches!(r, Err(TraceError::Parse { line: 2, .. })));
    }

    #[test]
    fn csv_rejects_bad_path_id() {
        let csv = format!("{CSV_HEADER}\n1,n,0,1,0,0,0,1,0,1,0,x;y,\n");
        assert!(from_csv_string(WorkloadKind::CcA, 1, &csv).is_err());
    }

    #[test]
    fn jsonl_rejects_empty_stream() {
        let r = read_jsonl(&b""[..]);
        assert!(matches!(r, Err(TraceError::Parse { line: 1, .. })), "{r:?}");
    }

    /// A valid job line with input paths.
    const VALID_JOB: &str = r#"{"id":7,"name":"n","submit":1,"duration":2,"input":3,"shuffle":0,"output":4,"map_task_time":5,"reduce_task_time":0,"map_tasks":1,"reduce_tasks":0,"input_paths":[1,2]}"#;

    fn doc_with_job(job: &str) -> String {
        format!("{{\"kind\":\"CcA\",\"machines\":10}}\n{job}\n")
    }

    /// The line and reason of a `read_jsonl` failure.
    fn jsonl_error(doc: &str) -> (usize, String) {
        match read_jsonl(doc.as_bytes()) {
            Err(TraceError::Parse { line, reason }) => (line, reason),
            other => panic!("expected a parse error for {doc:?}, got {other:?}"),
        }
    }

    #[test]
    fn jsonl_accepts_any_key_order_whitespace_and_unknown_keys() {
        let doc = concat!(
            " { \"machines\" : 3 , \"extra\": [1, {\"x\": null}], \"kind\": {\"Custom\": \"k\"} }\n",
            "\n",
            "{\"reduce_tasks\":0,\"map_tasks\":1,\"reduce_task_time\":0,\"map_task_time\":5,",
            "\"output\":4,\"shuffle\":0,\"input\":3,\"duration\":2,\"submit\":1,",
            "\"name\":\"n\\u00e9\\ud83d\\ude00\",\"new_field\":{\"deep\":[[[\"s\",true,-1.5e3]]]},\"id\":7}\r\n",
        );
        let trace = read_jsonl(doc.as_bytes()).unwrap();
        assert_eq!(trace.kind, WorkloadKind::Custom("k".into()));
        assert_eq!(trace.machines, 3);
        let job = &trace.jobs()[0];
        assert_eq!(job.name, "n\u{e9}\u{1F600}");
        assert!(job.input_paths.is_empty() && job.output_paths.is_empty());
        let with_paths = read_jsonl(doc_with_job(VALID_JOB).as_bytes()).unwrap();
        assert_eq!(with_paths.jobs()[0].input_paths, vec![PathId(1), PathId(2)]);
    }

    #[test]
    fn jsonl_deep_nesting_is_a_located_error() {
        let deep = VALID_JOB.replace(
            "\"id\"",
            &format!("\"junk\":{},\"id\"", "[".repeat(300_000)),
        );
        let (line, reason) = jsonl_error(&doc_with_job(&deep));
        assert_eq!(line, 2);
        assert!(reason.contains("nesting"), "{reason}");
    }

    #[test]
    fn jsonl_truncated_job_line_is_an_error_at_every_offset() {
        for cut in 1..VALID_JOB.len() {
            let (line, _) = jsonl_error(&doc_with_job(&VALID_JOB[..cut]));
            assert_eq!(line, 2, "cut at {cut}");
        }
    }

    #[test]
    fn jsonl_rejects_bad_strings_and_numbers() {
        let cases = [
            ("\"name\":\"n\"", r#""name":"bad \x escape""#),
            ("\"name\":\"n\"", r#""name":"lone \ud83d high""#),
            ("\"name\":\"n\"", r#""name":"lone \ude00 low""#),
            ("\"id\":7", r#""id":18446744073709551616"#),
            ("\"input\":3", r#""input":-3"#),
            ("\"input\":3", r#""input":1.5"#),
            ("\"input\":3", r#""input":3e2"#),
            ("\"map_tasks\":1", r#""map_tasks":4294967296"#),
            ("\"name\":\"n\"", r#""name":5"#),
            ("\"id\":7", r#""id":"7""#),
            ("\"input_paths\":[1,2]", r#""input_paths":[1,"2"]"#),
        ];
        for (from, to) in cases {
            let job = VALID_JOB.replace(from, to);
            assert_ne!(job, VALID_JOB, "{to} did not apply");
            let (line, reason) = jsonl_error(&doc_with_job(&job));
            assert_eq!(line, 2, "{to}: {reason}");
        }
        let (_, reason) = jsonl_error(&doc_with_job(&VALID_JOB.replace("\"id\":7,", "")));
        assert!(reason.contains("missing field `id`"), "{reason}");
        let (_, reason) = jsonl_error(&doc_with_job(&format!("{VALID_JOB} x")));
        assert!(reason.contains("trailing characters"), "{reason}");
        let (line, _) = jsonl_error("{\"kind\":\"CcZ\",\"machines\":1}\n");
        assert_eq!(line, 1);
        let (line, _) = jsonl_error("{\"kind\":\"CcA\"}\n");
        assert_eq!(line, 1);
    }

    #[test]
    fn jsonl_error_reports_the_offending_line() {
        let good = VALID_JOB.replace("\"id\":7", "\"id\":8");
        let bad = VALID_JOB.replace("\"map_tasks\":1", "\"map_tasks\":true");
        let doc = format!("{}{bad}\n", doc_with_job(&good));
        assert_eq!(jsonl_error(&doc).0, 3);
    }

    #[test]
    fn csv_rejects_oversized_task_counts() {
        // 2^32 + 2 would truncate to 2 under a silent `as u32` cast.
        let over = (1u64 << 32) + 2;
        let csv = format!("{CSV_HEADER}\n1,n,0,1,0,0,0,1,0,{over},0,,\n");
        let err = from_csv_string(WorkloadKind::CcA, 1, &csv).unwrap_err();
        match err {
            TraceError::Parse { line, reason } => {
                assert_eq!(line, 2);
                assert!(reason.contains("map_tasks"), "{reason}");
            }
            other => panic!("expected Parse error, got {other:?}"),
        }
    }

    #[test]
    fn csv_rejects_unparseable_numerics_with_line_number() {
        for (field_idx, what) in [
            (0, "job_id"),
            (2, "submit_secs"),
            (4, "input_bytes"),
            (10, "reduce_tasks"),
        ] {
            let mut fields = vec![
                "1", "n", "0", "1", "0", "0", "0", "1", "0", "1", "0", "", "",
            ];
            fields[field_idx] = "12x";
            let csv = format!("{CSV_HEADER}\n{}\n", fields.join(","));
            let err = from_csv_string(WorkloadKind::CcA, 1, &csv).unwrap_err();
            match err {
                TraceError::Parse { line, reason } => {
                    assert_eq!(line, 2);
                    assert!(reason.contains(what), "{what}: {reason}");
                }
                other => panic!("expected Parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn csv_rejects_negative_and_float_numerics() {
        for bad in ["-1", "1.5", " 7", ""] {
            let csv = format!("{CSV_HEADER}\n1,n,{bad},1,0,0,0,1,0,1,0,,\n");
            assert!(
                from_csv_string(WorkloadKind::CcA, 1, &csv).is_err(),
                "submit_secs {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn empty_paths_encode_as_empty_string() {
        assert_eq!(encode_paths(&[]), "");
        assert_eq!(decode_paths("", 1).unwrap(), Vec::<PathId>::new());
    }
}
