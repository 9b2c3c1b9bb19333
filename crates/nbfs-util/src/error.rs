//! The workspace-wide error type and [`Result`] alias.
//!
//! Every fallible operation in the `numa-bfs` workspace funnels into
//! [`NbfsError`] so that callers match on one enum instead of juggling
//! `io::Result`, stringly-typed `Result<_, String>` and panics. Library
//! crates propagate these errors; only binaries and examples decide how to
//! surface them.

use std::fmt;

/// Unified error type for the `numa-bfs` workspace.
#[derive(Debug)]
pub enum NbfsError {
    /// An underlying I/O failure (file open / read / write).
    Io(std::io::Error),
    /// Structurally invalid input data: bad magic, truncated section,
    /// inconsistent header fields.
    InvalidData(String),
    /// An invalid configuration: machine shape, builder parameters,
    /// placement that does not fit the topology.
    Config(String),
    /// A serialization or deserialization failure (JSON import/export).
    Serde(String),
    /// An injected whole-rank crash fault fired, and the BSP world cannot
    /// make progress without that rank.
    RankFailed {
        /// The rank that failed.
        rank: usize,
    },
    /// An injected communication fault exhausted its recovery budget.
    ///
    /// Carries the failing edge so chaos harnesses can pinpoint exactly
    /// which transfer of which collective gave up.
    Fault {
        /// Operation label (a collective label, or `"rank"`).
        op: String,
        /// Fault kind label (`"drop"`, `"crash"`, ...).
        kind: String,
        /// Source rank of the failing edge.
        src: usize,
        /// Destination rank of the failing edge.
        dst: usize,
        /// Round index of the failing edge within its collective.
        tag: u64,
        /// BFS level the failure occurred in, when level-scoped.
        level: Option<usize>,
        /// Delivery attempts consumed before giving up.
        attempts: u32,
    },
}

impl NbfsError {
    /// Shorthand for [`NbfsError::InvalidData`].
    pub fn invalid_data(msg: impl Into<String>) -> Self {
        NbfsError::InvalidData(msg.into())
    }

    /// Shorthand for [`NbfsError::Config`].
    pub fn config(msg: impl Into<String>) -> Self {
        NbfsError::Config(msg.into())
    }
}

impl fmt::Display for NbfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NbfsError::Io(e) => write!(f, "i/o error: {e}"),
            NbfsError::InvalidData(msg) => write!(f, "invalid data: {msg}"),
            NbfsError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            NbfsError::Serde(msg) => write!(f, "serialization error: {msg}"),
            NbfsError::RankFailed { rank } => write!(f, "rank failure: rank {rank} died"),
            NbfsError::Fault {
                op,
                kind,
                src,
                dst,
                tag,
                level,
                attempts,
            } => {
                write!(
                    f,
                    "communication fault: {kind} on {op} edge {src}->{dst} tag {tag}"
                )?;
                if let Some(l) = level {
                    write!(f, " level {l}")?;
                }
                write!(f, " after {attempts} attempt(s)")
            }
        }
    }
}

impl std::error::Error for NbfsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NbfsError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NbfsError {
    fn from(e: std::io::Error) -> Self {
        NbfsError::Io(e)
    }
}

/// Workspace-wide result alias carrying [`NbfsError`].
pub type Result<T> = std::result::Result<T, NbfsError>;

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use std::error::Error as _;

    #[test]
    fn display_is_prefixed_by_category() {
        assert_eq!(
            NbfsError::invalid_data("bad magic").to_string(),
            "invalid data: bad magic"
        );
        assert_eq!(
            NbfsError::config("ppn exceeds cores").to_string(),
            "invalid configuration: ppn exceeds cores"
        );
        assert_eq!(
            NbfsError::Serde("eof".to_string()).to_string(),
            "serialization error: eof"
        );
    }

    #[test]
    fn io_errors_convert_and_expose_source() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "gone");
        let err: NbfsError = io.into();
        assert!(matches!(err, NbfsError::Io(_)));
        assert!(err.source().is_some());
        assert!(NbfsError::invalid_data("x").source().is_none());
    }

    #[test]
    fn fault_errors_name_the_failing_edge_and_level() {
        let e = NbfsError::Fault {
            op: "allgather-words".to_string(),
            kind: "drop".to_string(),
            src: 3,
            dst: 4,
            tag: 2,
            level: Some(5),
            attempts: 4,
        };
        assert_eq!(
            e.to_string(),
            "communication fault: drop on allgather-words edge 3->4 tag 2 level 5 after 4 attempt(s)"
        );
        let levelless = NbfsError::Fault {
            op: "allreduce".to_string(),
            kind: "crash".to_string(),
            src: 1,
            dst: 0,
            tag: 42,
            level: None,
            attempts: 1,
        };
        assert_eq!(
            levelless.to_string(),
            "communication fault: crash on allreduce edge 1->0 tag 42 after 1 attempt(s)"
        );
        assert_eq!(
            NbfsError::RankFailed { rank: 7 }.to_string(),
            "rank failure: rank 7 died"
        );
    }

    #[test]
    fn result_alias_propagates_with_question_mark() {
        fn inner() -> Result<u32> {
            Err(NbfsError::invalid_data("short header"))
        }
        fn outer() -> Result<u32> {
            let v = inner()?;
            Ok(v + 1)
        }
        assert!(outer().is_err());
    }
}
