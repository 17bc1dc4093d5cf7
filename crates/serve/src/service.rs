//! The service core: a map of named sessions behind one command
//! dispatcher, independent of any transport.
//!
//! [`Service::handle_line`] is the whole protocol: one request line in,
//! a [`Response`] of output lines out. Both the stdio and the TCP
//! transports (and the in-process tests) drive this same function, so
//! wire behaviour cannot diverge between transports.

use std::collections::BTreeMap;

use crate::checkpoint::SessionCheckpoint;
use crate::protocol::{parse_line, ErrorCode, Request, ServeError};
use crate::session::{Event, Session, SessionConfig};

/// The daemon's answer to one request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Event lines followed by the final `ok`/`err`/`busy` reply.
    pub lines: Vec<String>,
    /// Set by `quit`: the transport should stop reading.
    pub quit: bool,
}

impl Response {
    fn reply(line: String) -> Self {
        Response {
            lines: vec![line],
            quit: false,
        }
    }

    pub(crate) fn error(e: ServeError) -> Self {
        Response::reply(e.to_line())
    }
}

/// The transport-independent session service.
///
/// Sessions live in a `BTreeMap` so `stats` output is deterministic
/// (sorted by session id) regardless of open order.
#[derive(Default)]
pub struct Service {
    sessions: BTreeMap<String, Session>,
}

impl Service {
    /// An empty service with no sessions.
    pub fn new() -> Self {
        Service::default()
    }

    /// Handle one request line. Never panics on malformed input: every
    /// failure becomes an `err <code> <message>` reply and the daemon
    /// keeps serving.
    pub fn handle_line(&mut self, line: &str) -> Response {
        let req = match parse_line(line) {
            Ok(None) => {
                return Response {
                    lines: Vec::new(),
                    quit: false,
                }
            }
            Ok(Some(req)) => req,
            Err(e) => return Response::error(e),
        };
        match req {
            Request::Ping => Response::reply("ok pong".to_string()),
            Request::Quit => Response {
                lines: vec!["ok bye".to_string()],
                quit: true,
            },
            Request::Open { sid, params } => self.open(sid, &params),
            Request::Obs { sid, row } => self.obs(sid, row),
            Request::Drain { sid, max } => self.drain(sid, max),
            Request::Checkpoint { sid, path } => self.checkpoint(sid, path),
            Request::Restore { sid, path } => self.restore(sid, path),
            Request::Stats { sid } => self.stats(sid),
            Request::Close { sid } => self.close(sid),
        }
    }

    fn session_mut(&mut self, sid: &str) -> Result<&mut Session, ServeError> {
        self.sessions.get_mut(sid).ok_or_else(|| {
            ServeError::new(ErrorCode::NoSession, format!("no session {sid:?} is open"))
        })
    }

    fn open(&mut self, sid: &str, params: &[(&str, &str)]) -> Response {
        if self.sessions.contains_key(sid) {
            return Response::error(ServeError::new(
                ErrorCode::SessionExists,
                format!("session {sid:?} is already open; close it first"),
            ));
        }
        let config = match SessionConfig::from_params(params) {
            Ok(c) => c,
            Err(e) => return Response::error(e),
        };
        let session = Session::open(config);
        let mut lines = Vec::new();
        if let Some(note) = session.downgraded() {
            lines.push(format!("note {sid} {note}"));
        }
        lines.push(format!(
            "ok open {sid} phase={} queue={}",
            session.phase_name(),
            session.queue_capacity(),
        ));
        self.sessions.insert(sid.to_string(), session);
        Response { lines, quit: false }
    }

    fn obs(&mut self, sid: &str, row: Vec<f64>) -> Response {
        let session = match self.session_mut(sid) {
            Ok(s) => s,
            Err(e) => return Response::error(e),
        };
        match session.push(row) {
            Err(e) => Response::error(e),
            Ok(false) => Response::reply(format!(
                "busy {sid} queued={} capacity={}",
                session.queued(),
                session.queue_capacity(),
            )),
            Ok(true) => {
                if !session.autodrain() {
                    return Response::reply(format!(
                        "ok obs {sid} queued={} phase={}",
                        session.queued(),
                        session.phase_name(),
                    ));
                }
                match session.drain(None) {
                    Err(e) => Response::error(e),
                    Ok(outcome) => {
                        let mut lines = event_lines(sid, &outcome.events);
                        lines.push(format!(
                            "ok obs {sid} queued={} phase={}",
                            outcome.remaining,
                            session.phase_name(),
                        ));
                        Response { lines, quit: false }
                    }
                }
            }
        }
    }

    fn drain(&mut self, sid: &str, max: Option<usize>) -> Response {
        let session = match self.session_mut(sid) {
            Ok(s) => s,
            Err(e) => return Response::error(e),
        };
        match session.drain(max) {
            Err(e) => Response::error(e),
            Ok(outcome) => {
                let mut lines = event_lines(sid, &outcome.events);
                lines.push(format!(
                    "ok drain {sid} processed={} queued={}",
                    outcome.processed, outcome.remaining,
                ));
                Response { lines, quit: false }
            }
        }
    }

    fn checkpoint(&mut self, sid: &str, path: &str) -> Response {
        let session = match self.session_mut(sid) {
            Ok(s) => s,
            Err(e) => return Response::error(e),
        };
        let cp = session.checkpoint();
        match cp.save(std::path::Path::new(path)) {
            Err(e) => Response::error(e),
            Ok(bytes) => Response::reply(format!("ok checkpoint {sid} bytes={bytes}")),
        }
    }

    fn restore(&mut self, sid: &str, path: &str) -> Response {
        let session = match self.session_mut(sid) {
            Ok(s) => s,
            Err(e) => return Response::error(e),
        };
        let cp = match SessionCheckpoint::load(std::path::Path::new(path)) {
            Ok(cp) => cp,
            Err(e) => return Response::error(e),
        };
        match session.restore(cp) {
            Err(e) => Response::error(e),
            Ok(()) => Response::reply(format!(
                "ok restore {sid} phase={} arrivals={}",
                session.phase_name(),
                session.arrivals(),
            )),
        }
    }

    fn stats(&mut self, sid: Option<&str>) -> Response {
        let selected: Vec<&String> = match sid {
            Some(sid) => {
                if !self.sessions.contains_key(sid) {
                    return Response::error(ServeError::new(
                        ErrorCode::NoSession,
                        format!("no session {sid:?} is open"),
                    ));
                }
                self.sessions.keys().filter(|k| *k == sid).collect()
            }
            None => self.sessions.keys().collect(),
        };
        let mut lines: Vec<String> = Vec::with_capacity(selected.len() + 1);
        let count = selected.len();
        for key in selected {
            let s = &self.sessions[key];
            let refit = match s.last_refit_ms() {
                Some(ms) => format!("{ms:.3}"),
                None => "-".to_string(),
            };
            lines.push(format!(
                "stat {key} phase={} arrivals={} arrivals-per-sec={:.1} refits={} \
                 last-refit-ms={} alarms={} queued={} drops={}",
                s.phase_name(),
                s.arrivals(),
                s.arrivals_per_sec(),
                s.refits(),
                refit,
                s.alarms(),
                s.queued(),
                s.drops(),
            ));
        }
        lines.push(format!("ok stats sessions={count}"));
        Response { lines, quit: false }
    }

    fn close(&mut self, sid: &str) -> Response {
        match self.sessions.remove(sid) {
            None => Response::error(ServeError::new(
                ErrorCode::NoSession,
                format!("no session {sid:?} is open"),
            )),
            Some(_) => Response::reply(format!("ok close {sid}")),
        }
    }
}

fn event_lines(sid: &str, events: &[Event]) -> Vec<String> {
    events
        .iter()
        .map(|ev| match ev {
            Event::Fit {
                method,
                threshold,
                normal_dim,
            } => match normal_dim {
                Some(r) => {
                    format!("fit {sid} method={method} normal-dim={r} threshold={threshold:.6e}")
                }
                None => format!("fit {sid} method={method} threshold={threshold:.6e}"),
            },
            Event::Alarm { row } => format!("alarm {sid} {row}"),
        })
        .collect()
}
