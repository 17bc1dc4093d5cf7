//! The newline-framed request/response protocol.
//!
//! One request per line, `verb [session] [arguments…]`, answered by one
//! final reply line (`ok …`, `err …`, or `busy …`) possibly preceded by
//! event lines (`alarm …`, `fit …`, `stat …`) — the UCI/TEI engine
//! pattern: a persistent engine behind a line protocol, where events
//! stream out as they fire and the reply closes the exchange.
//!
//! ```text
//! open <sid> dim=<m> train-bins=<n> [method=<name>] [refit=<full|incremental|truncated>]
//!      [refit-every=<n>] [window=<n>] [confidence=<c>]
//!      [queue=<cap>] [drain=<auto|manual>]
//! obs <sid> <v1>,<v2>,…,<vm>
//! drain <sid> [<max>]
//! checkpoint <sid> <path>
//! restore <sid> <path>
//! stats [<sid>]
//! close <sid>
//! ping
//! quit
//! ```
//!
//! An `obs` row converts through the CSV reader's converter
//! (`netanom_traffic::io::convert_fields`): a bad value draws the text a
//! `links.csv` row does, less its line number.
//!
//! Errors are *typed*: every `err` line is `err <code> <message>` with a
//! stable kebab-case code ([`ErrorCode`]), and no error kills the
//! daemon — an out-of-order command (obs before open, double open,
//! restore with mismatched dimensions) is answered and the loop
//! continues.

use netanom_core::DiagnosisReport;
use netanom_net::convert_fields;

/// Stable error codes of the `err <code> <message>` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The verb is not part of the protocol.
    UnknownCommand,
    /// The line or an argument did not parse, or a measurement was not
    /// a finite number.
    Parse,
    /// An `open`/`restore` configuration value was invalid.
    BadConfig,
    /// The named session does not exist.
    NoSession,
    /// `open` named a session that already exists.
    SessionExists,
    /// A measurement row or checkpoint had the wrong number of links.
    DimMismatch,
    /// The command is not valid in the session's current phase, or the
    /// checkpoint disagrees with the opened configuration.
    StateMismatch,
    /// A checkpoint could not be written, read, or validated.
    Checkpoint,
    /// A request line exceeded the transport's fixed length limit.
    LineTooLong,
}

impl ErrorCode {
    /// The stable kebab-case wire form.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::UnknownCommand => "unknown-command",
            ErrorCode::Parse => "parse",
            ErrorCode::BadConfig => "bad-config",
            ErrorCode::NoSession => "no-session",
            ErrorCode::SessionExists => "session-exists",
            ErrorCode::DimMismatch => "dim-mismatch",
            ErrorCode::StateMismatch => "state-mismatch",
            ErrorCode::Checkpoint => "checkpoint",
            ErrorCode::LineTooLong => "line-too-long",
        }
    }
}

/// A typed protocol error: the `err <code> <message>` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// The stable error code.
    pub code: ErrorCode,
    /// The human-readable detail.
    pub message: String,
}

impl ServeError {
    /// Build an error reply.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ServeError {
            code,
            message: message.into(),
        }
    }

    /// The wire form: `err <code> <message>`.
    pub fn to_line(&self) -> String {
        format!("err {} {}", self.code.as_str(), self.message)
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code.as_str(), self.message)
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request<'a> {
    /// Open a named engine configuration.
    Open {
        /// Session id.
        sid: &'a str,
        /// The raw `key=value` parameters, in line order.
        params: Vec<(&'a str, &'a str)>,
    },
    /// Enqueue one measurement row.
    Obs {
        /// Session id.
        sid: &'a str,
        /// The parsed row.
        row: Vec<f64>,
    },
    /// Process up to `max` queued rows (all, when absent).
    Drain {
        /// Session id.
        sid: &'a str,
        /// Processing budget.
        max: Option<usize>,
    },
    /// Persist the session to a checkpoint file.
    Checkpoint {
        /// Session id.
        sid: &'a str,
        /// Destination path.
        path: &'a str,
    },
    /// Replace the session's state from a checkpoint file.
    Restore {
        /// Session id.
        sid: &'a str,
        /// Source path.
        path: &'a str,
    },
    /// Report per-session counters.
    Stats {
        /// Restrict to one session.
        sid: Option<&'a str>,
    },
    /// Discard a session.
    Close {
        /// Session id.
        sid: &'a str,
    },
    /// Liveness probe.
    Ping,
    /// Shut the daemon down.
    Quit,
}

/// Parse one request line. Empty lines and `#` comments parse to
/// `None`.
pub fn parse_line(line: &str) -> Result<Option<Request<'_>>, ServeError> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return Ok(None);
    }
    let mut toks = line.split_whitespace();
    #[allow(clippy::expect_used)] // `trim` and `split_whitespace` share one whitespace set
    let verb = toks.next().expect("non-empty after trim");
    let mut need_sid = |verb: &str| {
        toks.next()
            .ok_or_else(|| ServeError::new(ErrorCode::Parse, format!("{verb} needs a session id")))
    };
    let req = match verb {
        "open" => {
            let sid = need_sid("open")?;
            let mut params = Vec::new();
            for tok in toks.by_ref() {
                let (k, v) = tok.split_once('=').ok_or_else(|| {
                    ServeError::new(
                        ErrorCode::Parse,
                        format!("open argument {tok:?} is not key=value"),
                    )
                })?;
                params.push((k, v));
            }
            Request::Open { sid, params }
        }
        "obs" => {
            let sid = need_sid("obs")?;
            let csv = toks.next().ok_or_else(|| {
                ServeError::new(ErrorCode::Parse, "obs needs a comma-separated row")
            })?;
            if toks.next().is_some() {
                return Err(ServeError::new(
                    ErrorCode::Parse,
                    "obs rows are comma-separated without spaces",
                ));
            }
            // The width is the session's to check, in `Session::push`.
            let mut row = Vec::new();
            convert_fields(csv, &mut row)
                .map_err(|e| ServeError::new(ErrorCode::Parse, e.to_string()))?;
            Request::Obs { sid, row }
        }
        "drain" => {
            let sid = need_sid("drain")?;
            let max = match toks.next() {
                None => None,
                Some(tok) => Some(tok.parse::<usize>().map_err(|_| {
                    ServeError::new(
                        ErrorCode::Parse,
                        format!("drain budget {tok:?} is not an integer"),
                    )
                })?),
            };
            Request::Drain { sid, max }
        }
        "checkpoint" => {
            let sid = need_sid("checkpoint")?;
            let path = toks.next().ok_or_else(|| {
                ServeError::new(ErrorCode::Parse, "checkpoint needs a destination path")
            })?;
            Request::Checkpoint { sid, path }
        }
        "restore" => {
            let sid = need_sid("restore")?;
            let path = toks
                .next()
                .ok_or_else(|| ServeError::new(ErrorCode::Parse, "restore needs a source path"))?;
            Request::Restore { sid, path }
        }
        "stats" => Request::Stats { sid: toks.next() },
        "close" => Request::Close {
            sid: need_sid("close")?,
        },
        "ping" => Request::Ping,
        "quit" => Request::Quit,
        other => {
            return Err(ServeError::new(
                ErrorCode::UnknownCommand,
                format!(
                    "unknown command {other:?}; commands: open obs drain checkpoint restore \
                     stats close ping quit"
                ),
            ))
        }
    };
    // Trailing tokens after a fully-parsed request are a parse error —
    // silently ignoring them would mask client bugs.
    if let Some(extra) = toks.next() {
        return Err(ServeError::new(
            ErrorCode::Parse,
            format!("unexpected trailing token {extra:?}"),
        ));
    }
    Ok(Some(req))
}

/// The alarm payload of a detected report — byte-identical to the CSV
/// data lines `netanom stream` prints
/// (`bin,spe,threshold,flow,estimated_bytes,explained_fraction`, with
/// `-` identification columns for detection-only methods). `serve`
/// emits it prefixed as `alarm <sid> <row>`; the CLI's offline verbs
/// print it bare.
pub fn alarm_csv_row(rep: &DiagnosisReport, train_bins: usize) -> String {
    match rep.identification {
        Some(id) => format!(
            "{},{:.6e},{:.6e},{},{:.6e},{:.4}",
            train_bins + rep.time,
            rep.spe,
            rep.threshold,
            id.flow,
            rep.estimated_bytes.unwrap_or(0.0),
            id.explained_fraction(),
        ),
        None => format!(
            "{},{:.6e},{:.6e},-,-,-",
            train_bins + rep.time,
            rep.spe,
            rep.threshold,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_grammar() {
        assert_eq!(parse_line("").unwrap(), None);
        assert_eq!(parse_line("# comment").unwrap(), None);
        assert_eq!(parse_line("ping").unwrap(), Some(Request::Ping));
        assert_eq!(parse_line("quit").unwrap(), Some(Request::Quit));
        assert_eq!(
            parse_line("stats").unwrap(),
            Some(Request::Stats { sid: None })
        );
        assert_eq!(
            parse_line("stats s1").unwrap(),
            Some(Request::Stats { sid: Some("s1") })
        );
        let open = parse_line("open s1 dim=3 train-bins=10").unwrap().unwrap();
        assert_eq!(
            open,
            Request::Open {
                sid: "s1",
                params: vec![("dim", "3"), ("train-bins", "10")],
            }
        );
        assert_eq!(
            parse_line("obs s1 1.5,2,3").unwrap(),
            Some(Request::Obs {
                sid: "s1",
                row: vec![1.5, 2.0, 3.0],
            })
        );
        assert_eq!(
            parse_line("drain s1 5").unwrap(),
            Some(Request::Drain {
                sid: "s1",
                max: Some(5),
            })
        );
    }

    #[test]
    fn typed_parse_errors() {
        let e = parse_line("teleport s1").unwrap_err();
        assert_eq!(e.code, ErrorCode::UnknownCommand);
        let e = parse_line("obs s1 1,zebra,3").unwrap_err();
        assert_eq!(
            e.to_line(),
            r#"err parse column 1: "zebra" is not a finite number"#
        );
        let e = parse_line("obs s1").unwrap_err();
        assert_eq!(e.code, ErrorCode::Parse);
        let e = parse_line("open s1 dim").unwrap_err();
        assert_eq!(e.code, ErrorCode::Parse);
        let e = parse_line("ping extra").unwrap_err();
        assert_eq!(e.code, ErrorCode::Parse);
        assert!(e.to_line().starts_with("err parse "));
    }
}
