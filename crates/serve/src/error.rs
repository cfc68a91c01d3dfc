//! Service-level errors and their wire codes.

use aware_core::AwareError;
use std::fmt;

/// Machine-readable error category carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid JSON or not a request object.
    BadRequest,
    /// The `cmd` discriminator names no known command.
    UnknownCommand,
    /// A field was missing, of the wrong type, or out of range.
    InvalidArgument,
    /// The referenced dataset is not registered with the server.
    UnknownDataset,
    /// The referenced session does not exist (never created, closed, or
    /// evicted).
    UnknownSession,
    /// The session's α-wealth cannot fund the requested test; the
    /// session survives, the hypothesis was recorded untested.
    WealthExhausted,
    /// The session rejected the operation (unknown attribute, untestable
    /// override target, …).
    SessionError,
    /// The command was skipped: an earlier command of the same session
    /// stream failed inside a fail-fast batch.
    Aborted,
    /// The server refused the work: session capacity exhausted and
    /// nothing evictable.
    Overloaded,
    /// The session was spilled to disk but every on-disk snapshot
    /// generation failed validation; the session cannot be restored.
    /// Deliberately distinct from `unknown_session`: a client must be
    /// able to tell "your wealth ledger is gone" from "your wealth
    /// ledger is unreadable" — the latter must never be silently
    /// answered with a fresh budget.
    CorruptSnapshot,
    /// The shard that owns the addressed session is unreachable (a
    /// cluster router's answer for a dead backend). Deliberately
    /// distinct from `unknown_session`: the session and its wealth
    /// ledger still exist on the dead shard and will be served again
    /// when it returns — a router must never answer a dead shard with
    /// a fresh budget.
    Unavailable,
    /// The service is shutting down.
    Shutdown,
}

impl ErrorCode {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownCommand => "unknown_command",
            ErrorCode::InvalidArgument => "invalid_argument",
            ErrorCode::UnknownDataset => "unknown_dataset",
            ErrorCode::UnknownSession => "unknown_session",
            ErrorCode::WealthExhausted => "wealth_exhausted",
            ErrorCode::SessionError => "session_error",
            ErrorCode::Aborted => "aborted",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::CorruptSnapshot => "corrupt_snapshot",
            ErrorCode::Unavailable => "unavailable",
            ErrorCode::Shutdown => "shutdown",
        }
    }

    /// Inverse of [`Self::as_str`]; unknown strings map to
    /// [`ErrorCode::SessionError`] so clients never fail on a new code.
    pub fn parse(s: &str) -> ErrorCode {
        match s {
            "bad_request" => ErrorCode::BadRequest,
            "unknown_command" => ErrorCode::UnknownCommand,
            "invalid_argument" => ErrorCode::InvalidArgument,
            "unknown_dataset" => ErrorCode::UnknownDataset,
            "unknown_session" => ErrorCode::UnknownSession,
            "wealth_exhausted" => ErrorCode::WealthExhausted,
            "aborted" => ErrorCode::Aborted,
            "overloaded" => ErrorCode::Overloaded,
            "corrupt_snapshot" => ErrorCode::CorruptSnapshot,
            "unavailable" => ErrorCode::Unavailable,
            "shutdown" => ErrorCode::Shutdown,
            _ => ErrorCode::SessionError,
        }
    }
}

/// An error response payload.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeError {
    pub code: ErrorCode,
    pub message: String,
}

impl ServeError {
    /// Shorthand for [`ErrorCode::InvalidArgument`].
    pub fn invalid(message: impl Into<String>) -> ServeError {
        ServeError {
            code: ErrorCode::InvalidArgument,
            message: message.into(),
        }
    }

    /// Shorthand for [`ErrorCode::UnknownSession`].
    pub fn unknown_session(id: u64) -> ServeError {
        ServeError {
            code: ErrorCode::UnknownSession,
            message: format!("no session {id} (never created, closed, or evicted)"),
        }
    }

    /// Maps a session-layer failure onto a wire code.
    pub fn from_session(e: AwareError) -> ServeError {
        if e.is_wealth_exhausted() {
            ServeError {
                code: ErrorCode::WealthExhausted,
                message: e.to_string(),
            }
        } else {
            ServeError {
                code: ErrorCode::SessionError,
                message: e.to_string(),
            }
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

impl std::error::Error for ServeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_round_trip() {
        for code in [
            ErrorCode::BadRequest,
            ErrorCode::UnknownCommand,
            ErrorCode::InvalidArgument,
            ErrorCode::UnknownDataset,
            ErrorCode::UnknownSession,
            ErrorCode::WealthExhausted,
            ErrorCode::SessionError,
            ErrorCode::Aborted,
            ErrorCode::Overloaded,
            ErrorCode::CorruptSnapshot,
            ErrorCode::Unavailable,
            ErrorCode::Shutdown,
        ] {
            assert_eq!(ErrorCode::parse(code.as_str()), code);
        }
        assert_eq!(ErrorCode::parse("brand_new_code"), ErrorCode::SessionError);
    }
}
