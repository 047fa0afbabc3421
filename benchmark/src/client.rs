//! Wire clients over `swim_serve::protocol`: a closed-loop client on one
//! persistent connection, and an open-loop client that sends on a fixed
//! schedule over one connection and reads responses as they come.

use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use swim_serve::protocol::{self, Response};

/// What one request got back.
#[derive(Debug, Clone)]
pub enum Outcome {
    Ok {
        generation: u64,
        cached: bool,
        /// [`crate::util::digest`] of the body.
        digest: u128,
    },
    /// A typed error response (`overloaded` counts as refused).
    Error { kind: String, message: String },
    /// The connection failed before a response arrived.
    Io(String),
}

#[derive(Debug, Clone)]
pub struct Sample {
    pub line: String,
    /// Round trip in microseconds; open-loop samples are timed from the
    /// scheduled send time, so client-side queueing counts.
    pub latency_us: f64,
    /// How late the request left: after its schedule slot (open loop),
    /// or after the previous response arrived (closed loop).
    pub late_us: f64,
    /// When the answer (or the failure) arrived.
    pub done: Instant,
    pub outcome: Outcome,
}

impl Outcome {
    /// One line for failure reports.
    pub fn describe(&self) -> String {
        match self {
            Outcome::Ok { generation, .. } => format!("ok at generation {generation}"),
            Outcome::Error { kind, message } => format!("error {kind}: {}", message.trim()),
            Outcome::Io(reason) => format!("connection: {reason}"),
        }
    }
}

impl Sample {
    pub fn is_ok(&self) -> bool {
        matches!(self.outcome, Outcome::Ok { .. })
    }

    pub fn cached(&self) -> bool {
        matches!(self.outcome, Outcome::Ok { cached: true, .. })
    }
}

fn outcome_of(response: Response) -> Outcome {
    if response.ok {
        Outcome::Ok {
            generation: response.generation,
            cached: response.cached,
            digest: crate::util::digest(&response.body),
        }
    } else {
        Outcome::Error {
            kind: response
                .kind
                .map_or_else(|| "unknown".to_owned(), |k| k.as_str().to_owned()),
            message: response.body_text(),
        }
    }
}

pub fn connect(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

/// One request/response over an established connection.
pub fn roundtrip(
    stream: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
    line: &str,
) -> std::io::Result<Response> {
    protocol::write_request(stream, line)?;
    protocol::read_response(reader)
}

/// Send requests back to back until `deadline`, each as soon as the
/// previous answer arrived.
pub fn closed_loop(
    addr: SocketAddr,
    deadline: Instant,
    mut next_line: impl FnMut() -> String,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            samples.push(Sample {
                line: String::new(),
                latency_us: 0.0,
                late_us: 0.0,
                done: Instant::now(),
                outcome: Outcome::Io(format!("connect: {e}")),
            });
            return samples;
        }
    };
    let mut reader = match stream.try_clone() {
        Ok(s) => BufReader::new(s),
        Err(e) => {
            samples.push(Sample {
                line: String::new(),
                latency_us: 0.0,
                late_us: 0.0,
                done: Instant::now(),
                outcome: Outcome::Io(format!("clone: {e}")),
            });
            return samples;
        }
    };
    let mut ready = Instant::now();
    while Instant::now() < deadline {
        let line = next_line();
        let sent = Instant::now();
        let result = roundtrip(&mut stream, &mut reader, &line);
        let done = Instant::now();
        let failed = result.is_err();
        samples.push(Sample {
            line,
            latency_us: crate::util::us(done - sent),
            late_us: crate::util::us(sent - ready),
            done,
            outcome: match result {
                Ok(response) => outcome_of(response),
                Err(e) => Outcome::Io(e.to_string()),
            },
        });
        if failed {
            break;
        }
        ready = Instant::now();
    }
    samples
}

/// Byte length of the first complete response in `buf`, if there is
/// one (header line plus `bytes=N` body bytes).
fn complete_len(buf: &[u8]) -> Option<usize> {
    let newline = buf.iter().position(|&b| b == b'\n')?;
    let header = std::str::from_utf8(&buf[..newline]).ok()?;
    let body: usize = header
        .split_whitespace()
        .find_map(|field| field.strip_prefix("bytes="))?
        .parse()
        .ok()?;
    let total = newline + 1 + body;
    (buf.len() >= total).then_some(total)
}

/// Send `rate` requests per second on a fixed schedule from `start`
/// until `deadline` over one connection, never waiting for answers
/// before sending; read answers in between. Answers still missing
/// `drain` after the deadline count as failures.
pub fn open_loop(
    addr: SocketAddr,
    start: Instant,
    deadline: Instant,
    rate: f64,
    drain: Duration,
    mut next_line: impl FnMut() -> String,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut stream = match connect(addr) {
        Ok(s) => s,
        Err(e) => {
            samples.push(Sample {
                line: String::new(),
                latency_us: 0.0,
                late_us: 0.0,
                done: Instant::now(),
                outcome: Outcome::Io(format!("connect: {e}")),
            });
            return samples;
        }
    };
    let mut pending: VecDeque<(String, Instant, f64)> = VecDeque::new();
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; 64 * 1024];
    let mut sent = 0u64;
    let give_up = deadline + drain;
    let mut broken: Option<String> = None;
    loop {
        let now = Instant::now();
        let slot = start + Duration::from_secs_f64(sent as f64 / rate);
        let sending = slot < deadline;
        if sending && now >= slot {
            let line = next_line();
            let mut wire = line.clone().into_bytes();
            wire.push(b'\n');
            if let Err(e) = stream.write_all(&wire) {
                broken = Some(format!("send: {e}"));
                break;
            }
            pending.push_back((line, slot, crate::util::us(now - slot)));
            sent += 1;
            continue;
        }
        if !sending && pending.is_empty() {
            break;
        }
        if now >= give_up {
            broken = Some("no answer before the drain deadline".to_owned());
            break;
        }
        let wake = if sending { slot } else { give_up };
        let wait = wake
            .saturating_duration_since(now)
            .max(Duration::from_micros(50));
        if let Err(e) = stream.set_read_timeout(Some(wait)) {
            broken = Some(format!("timeout: {e}"));
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                broken = Some("server closed the connection".to_owned());
                break;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => {
                broken = Some(format!("read: {e}"));
                break;
            }
        }
        let arrived = Instant::now();
        while let Some(len) = complete_len(&buf) {
            let parsed = protocol::read_response(&mut &buf[..len]);
            buf.drain(..len);
            let Some((line, slot, late_us)) = pending.pop_front() else {
                broken = Some("answer without a request".to_owned());
                break;
            };
            samples.push(Sample {
                line,
                latency_us: crate::util::us(arrived - slot),
                late_us,
                done: arrived,
                outcome: match parsed {
                    Ok(response) => outcome_of(response),
                    Err(e) => Outcome::Io(e.to_string()),
                },
            });
        }
    }
    if let Some(reason) = broken {
        for (line, _, late_us) in pending {
            samples.push(Sample {
                line,
                latency_us: 0.0,
                late_us,
                done: Instant::now(),
                outcome: Outcome::Io(reason.clone()),
            });
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::complete_len;

    #[test]
    fn complete_len_waits_for_the_whole_body() {
        let full = b"swim-serve ok generation=1 cached=0 bytes=3\nabc";
        assert_eq!(complete_len(full), Some(full.len()));
        assert_eq!(complete_len(&full[..full.len() - 1]), None);
        assert_eq!(complete_len(b"swim-serve ok"), None);
    }
}
