//! Transports: the same [`Service`] behind stdin/stdout or a TCP
//! socket.
//!
//! Both transports are one line pump around [`Service::handle_line`]:
//! read one line, write the response's lines, flush, and repeat. The
//! pump reads bytes, not text, into a buffer of fixed maximum size, so
//! neither a byte that is not UTF-8 (`err parse line is not UTF-8`) nor
//! a client that never sends a newline (`err line-too-long`, the rest
//! of the line discarded) can stop the daemon or grow it: both are
//! answered and the conversation continues. The TCP listener serves
//! clients *sequentially* and keeps sessions alive across connections:
//! a client may connect, feed a session, disconnect, and a later client
//! resumes it — the daemon is the state holder, exactly like the stdio
//! form.
//! Socket failures reuse the [`netanom_net`] error taxonomy
//! ([`NetError`]): a clean EOF ends the client (`CleanDisconnect`
//! semantics, next client is accepted), a read deadline surfaces as
//! [`NetError::Timeout`] and drops the idle client, and other I/O
//! failures propagate.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use netanom_net::NetError;

use crate::protocol::{ErrorCode, ServeError};
use crate::service::{Response, Service};

/// Longest request line either transport accepts, terminator excluded.
/// 1 MiB holds an `obs` row of some forty thousand links; a client that
/// sends more without a newline is answered `err line-too-long` and the
/// rest of its line discarded, so the daemon's line buffer never
/// outgrows this.
const MAX_LINE_BYTES: usize = 1 << 20;

/// Read one `\n`-terminated line into `buf`, without the terminator
/// and holding at most [`MAX_LINE_BYTES`] of it; whatever lies beyond
/// that is consumed and dropped. Returns the line's whole length, or
/// `None` at end of input (a last line without a newline still counts).
fn read_bounded_line<R: BufRead>(reader: &mut R, buf: &mut Vec<u8>) -> io::Result<Option<usize>> {
    buf.clear();
    let mut len = 0usize;
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            return Ok((len > 0).then_some(len));
        }
        let newline = chunk.iter().position(|&b| b == b'\n');
        let part = &chunk[..newline.unwrap_or(chunk.len())];
        let room = MAX_LINE_BYTES - buf.len();
        buf.extend_from_slice(&part[..part.len().min(room)]);
        len += part.len();
        let consumed = part.len() + usize::from(newline.is_some());
        reader.consume(consumed);
        if newline.is_some() {
            return Ok(Some(len));
        }
    }
}

/// The line pump under both transports: read a bounded line, answer it,
/// flush, repeat. Returns `Ok(true)` when `quit` was handled and
/// `Ok(false)` at end of input. A line that is too long or not UTF-8 is
/// the client's mistake, answered with a typed error like any other —
/// the pump, the service and its sessions carry on.
fn pump<R: BufRead, W: Write>(
    service: &mut Service,
    mut reader: R,
    mut writer: W,
) -> io::Result<bool> {
    let mut buf = Vec::new();
    while let Some(len) = read_bounded_line(&mut reader, &mut buf)? {
        let response = if len > MAX_LINE_BYTES {
            Response::error(ServeError::new(
                ErrorCode::LineTooLong,
                format!("line of {len} bytes exceeds the {MAX_LINE_BYTES}-byte limit"),
            ))
        } else {
            match std::str::from_utf8(&buf) {
                Ok(line) => service.handle_line(line),
                Err(_) => Response::error(ServeError::new(ErrorCode::Parse, "line is not UTF-8")),
            }
        };
        for out in &response.lines {
            writeln!(writer, "{out}")?;
        }
        writer.flush()?;
        if response.quit {
            return Ok(true);
        }
    }
    Ok(false)
}

/// Pump request lines from `reader` through the service, writing each
/// response to `writer`. Returns when `quit` is handled or the reader
/// reaches EOF.
pub fn serve_lines<R: BufRead, W: Write>(
    service: &mut Service,
    reader: R,
    writer: W,
) -> io::Result<()> {
    pump(service, reader, writer).map(|_quit| ())
}

/// TCP transport knobs.
#[derive(Debug, Clone, Default)]
pub struct TcpServeOptions {
    /// Per-read deadline; an idle client past it is disconnected (the
    /// daemon and its sessions keep running).
    pub read_timeout: Option<Duration>,
    /// Stop after this many client connections (for driving the daemon
    /// from scripts and CI); `None` serves until `quit`.
    pub max_connections: Option<usize>,
}

/// Accept clients sequentially on `listener`, serving each with the
/// shared `service` until the client disconnects or sends `quit`.
/// Sessions persist across client connections. Returns after `quit`,
/// after `max_connections` clients, or on an unclassified I/O failure.
pub fn serve_tcp(
    service: &mut Service,
    listener: &TcpListener,
    options: &TcpServeOptions,
) -> netanom_net::Result<()> {
    let mut served = 0usize;
    loop {
        if let Some(max) = options.max_connections {
            if served >= max {
                return Ok(());
            }
        }
        let (stream, _addr) = listener.accept().map_err(NetError::from)?;
        served += 1;
        match serve_client(service, stream, options) {
            Ok(true) => return Ok(()),
            Ok(false) => {}
            // An idle client is the client's fault, not the daemon's:
            // drop the connection and accept the next one.
            Err(NetError::Timeout { .. }) => {}
            Err(e) => return Err(e),
        }
    }
}

/// Serve one client connection. Returns `Ok(true)` when the client sent
/// `quit` (the daemon should stop), `Ok(false)` on clean disconnect.
fn serve_client(
    service: &mut Service,
    stream: TcpStream,
    options: &TcpServeOptions,
) -> netanom_net::Result<bool> {
    stream
        .set_read_timeout(options.read_timeout)
        .map_err(NetError::from)?;
    let writer = stream.try_clone().map_err(NetError::from)?;
    // `From<io::Error>` classifies an exceeded deadline into
    // `NetError::Timeout`, matching the rest of the wire layer.
    pump(service, BufReader::new(stream), writer).map_err(NetError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn stdio_pump_answers_and_quits() {
        let mut service = Service::new();
        let input = Cursor::new("ping\nquit\nping\n");
        let mut out = Vec::new();
        serve_lines(&mut service, input, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // The third line is never read: quit stops the pump.
        assert_eq!(text, "ok pong\nok bye\n");
    }

    #[test]
    fn an_endless_line_is_counted_whole_but_held_to_the_limit() {
        let mut input = vec![b'x'; 2 * MAX_LINE_BYTES];
        input.extend(b"\nping");
        let mut reader = Cursor::new(input);
        let mut buf = Vec::new();
        let len = read_bounded_line(&mut reader, &mut buf).unwrap();
        assert_eq!((len, buf.len()), (Some(2 * MAX_LINE_BYTES), MAX_LINE_BYTES));
        // What follows the discarded tail is read intact.
        assert_eq!(read_bounded_line(&mut reader, &mut buf).unwrap(), Some(4));
        assert_eq!(buf, b"ping");
        assert_eq!(read_bounded_line(&mut reader, &mut buf).unwrap(), None);
    }

    #[test]
    fn tcp_sessions_survive_reconnects() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut service = Service::new();
            let options = TcpServeOptions::default();
            serve_tcp(&mut service, &listener, &options).unwrap();
        });

        let talk = |lines: &str| -> Vec<String> {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            writer.write_all(lines.as_bytes()).unwrap();
            writer.flush().unwrap();
            // Half-close so the server sees EOF after our last command.
            stream.shutdown(std::net::Shutdown::Write).unwrap();
            let reader = BufReader::new(stream);
            reader.lines().map(|l| l.unwrap()).collect()
        };

        let first = talk("open s1 dim=2 train-bins=4\n");
        assert_eq!(first, vec!["ok open s1 phase=training queue=4096"]);
        // A second connection sees the session opened by the first.
        let second = talk("stats\nquit\n");
        assert!(second[0].starts_with("stat s1 phase=training"));
        assert_eq!(second[1], "ok stats sessions=1");
        assert_eq!(second[2], "ok bye");
        handle.join().unwrap();
    }
}
