//! The wire-layer error taxonomy.
//!
//! Distributed diagnosis fails in more ways than in-process diagnosis,
//! and the tracker's retry policy depends on *which* way: a clean EOF
//! (worker finished or was shut down between frames), a mid-frame cut
//! (worker died while a frame was in flight), an oversized frame
//! (protocol corruption or a hostile peer), or a timeout. [`NetError`]
//! keeps those distinctions first-class, and [`FailureKind`] is the
//! coarse classification the fault-injection suites assert on.

use std::io;

use netanom_core::codec::CodecError;
use netanom_core::CoreError;
use netanom_traffic::io::CsvError;

/// Everything that can go wrong on the wire or while coordinating it.
#[derive(Debug)]
pub enum NetError {
    /// The peer closed the connection cleanly at a frame boundary.
    CleanDisconnect,
    /// The connection was cut mid-frame: `got` of `expected` bytes of
    /// the frame (length prefix included) had arrived.
    SeveredMidFrame {
        /// Bytes received before the cut.
        got: usize,
        /// Bytes the frame needed (8-byte prefix + payload).
        expected: usize,
    },
    /// A frame's length prefix exceeded the negotiated maximum — the
    /// frame is rejected *before* any payload allocation.
    FrameTooLarge {
        /// Claimed payload length.
        len: u64,
        /// Maximum allowed payload length.
        max: u64,
    },
    /// A read or write exceeded the configured deadline.
    Timeout {
        /// What the peer was waiting on.
        during: &'static str,
    },
    /// The peer spoke the protocol incorrectly.
    Protocol {
        /// What was wrong.
        reason: String,
    },
    /// The tracker refused a worker's join request.
    Rejected {
        /// The tracker's reason.
        reason: String,
    },
    /// A worker failed and did not rejoin within the retry budget.
    WorkerLost {
        /// Shard index of the lost worker.
        shard: usize,
        /// Rejoin windows waited before giving up.
        attempts: usize,
        /// The failure that started the episode.
        last: Box<NetError>,
    },
    /// A checkpoint could not be written, read, or validated.
    Checkpoint {
        /// What was wrong.
        reason: String,
    },
    /// The local measurement feed failed.
    Feed(CsvError),
    /// An I/O failure that is none of the classified cases above.
    Io(io::Error),
    /// The diagnosis core rejected an operation.
    Core(CoreError),
    /// A test-injected fault fired (never produced in production paths).
    Injected,
}

/// Coarse classification of a connection failure — what the tracker
/// records per rejoin episode and what the fault-injection suites
/// assert on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// Clean EOF at a frame boundary.
    CleanEof,
    /// Cut mid-frame.
    SeveredMidFrame,
    /// Oversized frame rejected.
    FrameTooLarge,
    /// Deadline exceeded.
    Timeout,
    /// Other I/O failure (reset, refused, …).
    Io,
    /// Well-formed transport, ill-formed protocol.
    Protocol,
}

impl NetError {
    /// The coarse failure classification, for retry policy and
    /// reporting.
    pub fn kind(&self) -> FailureKind {
        match self {
            NetError::CleanDisconnect => FailureKind::CleanEof,
            NetError::SeveredMidFrame { .. } => FailureKind::SeveredMidFrame,
            NetError::FrameTooLarge { .. } => FailureKind::FrameTooLarge,
            NetError::Timeout { .. } => FailureKind::Timeout,
            NetError::Io(_) => FailureKind::Io,
            _ => FailureKind::Protocol,
        }
    }

    /// Whether the failure is a connection-level fault the tracker
    /// answers with a rejoin window (vs a protocol/state error that
    /// retrying cannot fix).
    pub fn is_connection_fault(&self) -> bool {
        matches!(
            self,
            NetError::CleanDisconnect
                | NetError::SeveredMidFrame { .. }
                | NetError::Timeout { .. }
                | NetError::Io(_)
        )
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::CleanDisconnect => write!(f, "peer disconnected cleanly"),
            NetError::SeveredMidFrame { got, expected } => {
                write!(f, "connection severed mid-frame ({got}/{expected} bytes)")
            }
            NetError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte maximum")
            }
            NetError::Timeout { during } => write!(f, "timed out during {during}"),
            NetError::Protocol { reason } => write!(f, "protocol error: {reason}"),
            NetError::Rejected { reason } => write!(f, "join rejected: {reason}"),
            NetError::WorkerLost {
                shard,
                attempts,
                last,
            } => write!(
                f,
                "worker {shard} lost after {attempts} rejoin windows (cause: {last})"
            ),
            NetError::Checkpoint { reason } => write!(f, "checkpoint error: {reason}"),
            NetError::Feed(e) => write!(f, "feed error: {e}"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Core(e) => write!(f, "core error: {e}"),
            NetError::Injected => write!(f, "injected fault fired"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Core(e) => Some(e),
            NetError::Feed(e) => Some(e),
            NetError::WorkerLost { last, .. } => Some(last.as_ref()),
            _ => None,
        }
    }
}

impl From<io::Error> for NetError {
    /// Classify an I/O error: timeouts become [`NetError::Timeout`]
    /// (non-blocking reads surface as `WouldBlock` on Unix, `TimedOut`
    /// on Windows); everything else stays [`NetError::Io`].
    fn from(e: io::Error) -> Self {
        match e.kind() {
            io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => NetError::Timeout {
                during: "socket i/o",
            },
            _ => NetError::Io(e),
        }
    }
}

impl From<CoreError> for NetError {
    fn from(e: CoreError) -> Self {
        NetError::Core(e)
    }
}

impl From<CodecError> for NetError {
    /// A frame payload that does not decode is a protocol error (the
    /// checkpoint loader relabels its own as [`NetError::Checkpoint`]).
    fn from(e: CodecError) -> Self {
        NetError::Protocol {
            reason: e.to_string(),
        }
    }
}

impl From<CsvError> for NetError {
    fn from(e: CsvError) -> Self {
        NetError::Feed(e)
    }
}

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, NetError>;
