//! Error types for trace construction and (de)serialization.

use std::fmt;

/// Errors produced while building, validating, or (de)serializing traces.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// A job record failed validation (e.g. negative duration encoded as
    /// wrap-around, or task counts inconsistent with task-time).
    InvalidJob {
        /// Numerical id of the offending job, if known.
        job: Option<u64>,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A serialized record could not be parsed.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// Description of the parse failure.
        reason: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A trace-level invariant was violated (e.g. empty trace where at
    /// least one job is required).
    InvalidTrace(String),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidJob {
                job: Some(id),
                reason,
            } => {
                write!(f, "invalid job {id}: {reason}")
            }
            TraceError::InvalidJob { job: None, reason } => {
                write!(f, "invalid job: {reason}")
            }
            TraceError::Parse { line, reason } => {
                write!(f, "parse error at line {line}: {reason}")
            }
            TraceError::Io(e) => write!(f, "i/o error: {e}"),
            TraceError::InvalidTrace(reason) => write!(f, "invalid trace: {reason}"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_job_id() {
        let e = TraceError::InvalidJob {
            job: Some(7),
            reason: "bad".into(),
        };
        assert_eq!(e.to_string(), "invalid job 7: bad");
    }

    #[test]
    fn display_without_job_id() {
        let e = TraceError::InvalidJob {
            job: None,
            reason: "bad".into(),
        };
        assert_eq!(e.to_string(), "invalid job: bad");
    }

    #[test]
    fn display_parse_line() {
        let e = TraceError::Parse {
            line: 3,
            reason: "missing field".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        use std::error::Error as _;
        let e = TraceError::from(std::io::Error::other("disk on fire"));
        assert!(e.source().is_some());
        assert!(e.to_string().contains("disk on fire"));
    }
}
