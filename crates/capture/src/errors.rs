//! Typed extraction errors.
//!
//! Real traces are messy: vantage points crash mid-download, servers
//! reset connections, retransmission storms blur packet timings. The
//! measurement pipeline must *skip but count* such sessions rather than
//! silently drop them (or worse, panic). These error types name the
//! reasons so aggregation can report how much data each filter removed.

use std::fmt;

/// Why a raw event list could not be reduced to a client-side trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// No SYN was transmitted by the claimed client node — either the
    /// trace belongs to someone else or capture started mid-session.
    NoClientSyn,
    /// The client sent SYNs but never saw a SYN-ACK: the handshake never
    /// completed (server outage, path blackhole, aborted session).
    NoHandshake,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::NoClientSyn => {
                write!(f, "no client-side SYN in trace")
            }
            SessionError::NoHandshake => {
                write!(f, "handshake never completed (no SYN-ACK)")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Why a [`Timeline`](crate::Timeline) could not be extracted from a
/// session.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimelineError {
    /// The session itself was unusable.
    Session(SessionError),
    /// The handshake completed but no HTTP GET was ever sent.
    NoRequest,
    /// The session was truncated: the GET went out but the response
    /// never completed (mid-download abort, client deadline).
    Truncated,
    /// No static-content boundary could be identified.
    NoStatic,
    /// No dynamic-content packet was identified — e.g. a degraded
    /// response whose dynamic portion was replaced by an error stub.
    NoDynamic,
    /// The response consisted entirely of an error/rejection stub (a
    /// shed query's fast rejection): there is no content timeline to
    /// measure, only the refusal.
    ErrorStubOnly,
    /// Retransmitted payload dominates the receive stream; landmark
    /// times would be fiction, not measurement.
    RetransmissionHeavy,
    /// The query has no capture: it failed before its client opened a
    /// connection (no live FE to map it to), so there is nothing to
    /// extract — an empty timeline here would be silently read as "no
    /// packets arrived".
    TracingDisabled,
}

impl fmt::Display for TimelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimelineError::Session(e) => write!(f, "unusable session: {e}"),
            TimelineError::NoRequest => write!(f, "no HTTP GET in session"),
            TimelineError::Truncated => {
                write!(f, "session truncated before the response completed")
            }
            TimelineError::NoStatic => {
                write!(f, "no static-content boundary found")
            }
            TimelineError::NoDynamic => {
                write!(f, "no dynamic-content packet found")
            }
            TimelineError::ErrorStubOnly => {
                write!(f, "response was only an error/rejection stub")
            }
            TimelineError::RetransmissionHeavy => {
                write!(f, "retransmissions dominate the receive stream")
            }
            TimelineError::TracingDisabled => {
                write!(f, "packet tracing was disabled; no events were captured")
            }
        }
    }
}

impl TimelineError {
    /// The stable telemetry counter name for this skip reason, as it
    /// appears in `metrics.tsv` (`capture.err.*` namespace). Names are
    /// part of the metrics document format: renaming one is a breaking
    /// change for downstream tooling.
    pub fn metric_name(&self) -> &'static str {
        match self {
            TimelineError::Session(SessionError::NoClientSyn) => {
                "capture.err.session_no_client_syn"
            }
            TimelineError::Session(SessionError::NoHandshake) => "capture.err.session_no_handshake",
            TimelineError::NoRequest => "capture.err.no_request",
            TimelineError::Truncated => "capture.err.truncated",
            TimelineError::NoStatic => "capture.err.no_static",
            TimelineError::NoDynamic => "capture.err.no_dynamic",
            TimelineError::ErrorStubOnly => "capture.err.error_stub_only",
            TimelineError::RetransmissionHeavy => "capture.err.retransmission_heavy",
            TimelineError::TracingDisabled => "capture.err.tracing_disabled",
        }
    }
}

impl std::error::Error for TimelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TimelineError::Session(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SessionError> for TimelineError {
    fn from(e: SessionError) -> TimelineError {
        TimelineError::Session(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(SessionError::NoClientSyn.to_string().contains("SYN"));
        assert!(TimelineError::Session(SessionError::NoHandshake)
            .to_string()
            .contains("SYN-ACK"));
        assert!(TimelineError::Truncated.to_string().contains("truncated"));
        assert!(TimelineError::TracingDisabled
            .to_string()
            .contains("tracing was disabled"));
    }

    #[test]
    fn metric_names_are_unique_and_namespaced() {
        let all = [
            TimelineError::Session(SessionError::NoClientSyn),
            TimelineError::Session(SessionError::NoHandshake),
            TimelineError::NoRequest,
            TimelineError::Truncated,
            TimelineError::NoStatic,
            TimelineError::NoDynamic,
            TimelineError::ErrorStubOnly,
            TimelineError::RetransmissionHeavy,
            TimelineError::TracingDisabled,
        ];
        let names: std::collections::BTreeSet<&str> = all.iter().map(|e| e.metric_name()).collect();
        assert_eq!(names.len(), all.len());
        assert!(names.iter().all(|n| n.starts_with("capture.err.")));
    }

    #[test]
    fn error_source_chain() {
        use std::error::Error;
        let e = TimelineError::Session(SessionError::NoClientSyn);
        assert!(e.source().is_some());
        assert!(TimelineError::NoDynamic.source().is_none());
    }
}
