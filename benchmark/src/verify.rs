//! Answer checking: every `ok` body a client received must equal what
//! `Session::execute` plus `cli::render_for` produce at the generation
//! the server reported.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};

use swim_query::cli::{render_for, QueryFlags};
use swim_query::{Query, Session};
use swim_serve::protocol;

use crate::client::{Outcome, Sample};
use crate::Fail;

/// Parse a `query …` request line exactly as the server does.
pub fn parse_request(line: &str) -> Result<(Query, QueryFlags), String> {
    let tokens = protocol::tokenize(line)?;
    let Some((command, args)) = tokens.split_first() else {
        return Err("empty request".to_owned());
    };
    if command != "query" {
        return Err(format!("not a query: {line}"));
    }
    let mut flags = QueryFlags::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let accepted = flags.accept(arg, || {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{arg} requires a value"))
        })?;
        if !accepted {
            return Err(format!("unexpected argument {arg}"));
        }
    }
    let query = flags.build_query()?;
    Ok((query, flags))
}

/// The body the server must have sent for `line` at `generation`.
/// `serial` executes with `execute_serial`: the server always runs the
/// parallel path, and the table/JSON renderers print every float with
/// round-trip precision, so an equal body means a bit-identical result.
pub fn expected_body(session: &Session, generation: u64, line: &str, serial: bool) -> Expected {
    let (query, flags) = parse_request(line)?;
    let result = session
        .execute(&query, serial)
        .map_err(|e| format!("execute: {e}"))?;
    if result.generation != Some(generation) {
        return Err(format!(
            "session is at generation {:?}, expected {generation}",
            result.generation
        ));
    }
    let title = format!("swim-serve: generation {generation}");
    let mut body = render_for(&result.output, flags.format, &title).into_bytes();
    body.extend_from_slice(result.summary.as_bytes());
    body.push(b'\n');
    Ok(body)
}

/// A re-executed body, or why it could not be produced.
type Expected = Result<Vec<u8>, String>;

#[derive(Debug, Default)]
pub struct Verdict {
    /// `ok` responses whose body differed from the re-execution.
    pub wrong: u64,
    /// Distinct (generation, request) pairs re-executed.
    pub distinct: usize,
    pub first_mismatch: Option<String>,
}

/// Check every `ok` sample's body digest. `open` yields a session at a
/// generation; distinct requests are re-executed once each, on two
/// threads.
pub fn verify(
    samples: &[Sample],
    serial: bool,
    open: &dyn Fn(u64) -> Result<Session, Fail>,
) -> Result<Verdict, Fail> {
    let mut by_generation: BTreeMap<u64, Vec<&str>> = BTreeMap::new();
    for sample in samples {
        if let Outcome::Ok { generation, .. } = &sample.outcome {
            by_generation
                .entry(*generation)
                .or_default()
                .push(&sample.line);
        }
    }
    let mut expected: HashMap<(u64, &str), Result<u128, String>> = HashMap::new();
    for (generation, mut lines) in by_generation {
        lines.sort_unstable();
        lines.dedup();
        let session = open(generation)?;
        let cursor = AtomicUsize::new(0);
        let computed: Vec<Vec<(usize, Result<u128, String>)>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        let mut mine = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(line) = lines.get(i) else { break };
                            let body = expected_body(&session, generation, line, serial);
                            mine.push((i, body.map(|b| crate::util::digest(&b))));
                        }
                        mine
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().unwrap_or_default())
                .collect()
        });
        for (i, body) in computed.into_iter().flatten() {
            expected.insert((generation, lines[i]), body);
        }
    }
    let mut verdict = Verdict {
        distinct: expected.len(),
        ..Verdict::default()
    };
    for sample in samples {
        let Outcome::Ok {
            generation, digest, ..
        } = &sample.outcome
        else {
            continue;
        };
        let good = matches!(
            expected.get(&(*generation, sample.line.as_str())),
            Some(Ok(want)) if want == digest
        );
        if !good {
            verdict.wrong += 1;
            if verdict.first_mismatch.is_none() {
                let reason = match expected.get(&(*generation, sample.line.as_str())) {
                    Some(Err(e)) => e.clone(),
                    _ => "body differs from the in-process re-execution".to_owned(),
                };
                verdict.first_mismatch = Some(format!(
                    "generation {generation}: {}: {reason}",
                    sample.line
                ));
            }
        }
    }
    Ok(verdict)
}
