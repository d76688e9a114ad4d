//! Transport loops: newline-delimited JSON over stdio and TCP.
//!
//! Both loops share one [`ServeState`]; any mix of stdio and TCP
//! clients can ingest and query concurrently. A `shutdown` request (or
//! stdin EOF) flips the shared flag; every loop notices within one
//! poll interval and drains out, so the process exits cleanly with all
//! replies flushed.

use std::io::{self, BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration as StdDuration;

use crate::state::ServeState;

/// How often blocked readers and the acceptor re-check the shutdown
/// flag.
const POLL_INTERVAL: StdDuration = StdDuration::from_millis(50);

/// Serves requests line-by-line from `reader`, writing one reply line
/// each to `writer`. Returns after a `shutdown` request or EOF; EOF
/// also requests global shutdown so companion TCP loops drain.
///
/// # Errors
///
/// Propagates I/O errors from the reader or writer.
pub fn serve_stdio<R: BufRead, W: Write>(
    state: &ServeState,
    mut reader: R,
    mut writer: W,
) -> io::Result<()> {
    let mut line = Vec::new();
    loop {
        line.clear();
        if reader.read_until(b'\n', &mut line)? == 0 {
            state.request_shutdown();
            return Ok(());
        }
        if let Some(reply) = reply_to(state, &line) {
            writer.write_all(reply.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        if state.is_shutdown() {
            return Ok(());
        }
    }
}

/// Accepts TCP connections on `listener` until shutdown, serving each
/// on its own thread against the shared state. Connection threads are
/// scoped: the call returns only after every client has drained.
///
/// # Errors
///
/// Propagates listener configuration errors; per-connection errors
/// only end that connection.
pub fn serve_tcp(state: &ServeState, listener: &TcpListener) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    std::thread::scope(|scope| -> io::Result<()> {
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    scope.spawn(move || {
                        // A failed client connection only ends that
                        // client; the server keeps accepting.
                        let _ = serve_connection(state, stream);
                    });
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if state.is_shutdown() {
                        return Ok(());
                    }
                    std::thread::sleep(POLL_INTERVAL);
                }
                Err(e) => return Err(e),
            }
        }
    })
}

/// Serves one TCP client. Read timeouts poll the shutdown flag so the
/// connection drains promptly when another client stops the server.
fn serve_connection(state: &ServeState, stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        // Lines are framed as raw bytes: on timeout, any partial line
        // already read (even half of a multibyte character) stays in
        // `line` and the next pass appends to it. A line is decoded
        // only once it is whole.
        let eof = match reader.read_until(b'\n', &mut line) {
            Ok(n) => n == 0,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if state.is_shutdown() {
                    return Ok(());
                }
                continue;
            }
            Err(e) => return Err(e),
        };
        // At EOF `line` holds whatever followed the last newline.
        if let Some(reply) = reply_to(state, &line) {
            writer.write_all(reply.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
        }
        line.clear();
        if eof || state.is_shutdown() {
            return Ok(());
        }
    }
}

/// The reply to one raw request line, or `None` for a blank one.
fn reply_to(state: &ServeState, line: &[u8]) -> Option<String> {
    match std::str::from_utf8(line) {
        Ok(text) if text.trim().is_empty() => None,
        Ok(text) => Some(state.handle(text.trim_end())),
        Err(e) => Some(state.handle_undecodable(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mira_core::{Duration, SimConfig, Simulation};
    use std::io::Cursor;

    fn state() -> ServeState {
        let sim = Simulation::new(SimConfig::with_seed(7));
        ServeState::new(sim, Duration::from_hours(6)).expect("positive step")
    }

    #[test]
    fn stdio_session_replies_per_line_and_stops_on_shutdown() {
        let s = state();
        let input = "\
{\"cmd\":\"ingest\",\"steps\":8,\"id\":1}\n\
\n\
{\"cmd\":\"status\",\"id\":2}\n\
{\"cmd\":\"shutdown\",\"id\":3}\n\
{\"cmd\":\"status\",\"id\":4}\n";
        let mut out = Vec::new();
        serve_stdio(&s, Cursor::new(input), &mut out).expect("io");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        // The blank line is skipped; the post-shutdown request is never
        // read.
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"ingested\":8"));
        assert!(lines[1].contains("\"steps_ingested\":8"));
        assert!(lines[2].contains("\"shutting_down\":true"));
        assert!(s.is_shutdown());
    }

    #[test]
    fn stdio_answers_a_line_that_is_not_utf8() {
        let s = state();
        let mut out = Vec::new();
        serve_stdio(
            &s,
            Cursor::new(b"\xff\n{\"cmd\":\"status\",\"id\":1}\n"),
            &mut out,
        )
        .expect("io");
        let text = String::from_utf8(out).expect("utf8");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "{text}");
        assert!(lines[0].contains("not valid UTF-8"), "{text}");
        assert!(lines[1].contains("\"steps_ingested\""), "{text}");
    }

    #[test]
    fn stdio_eof_requests_shutdown() {
        let s = state();
        let mut out = Vec::new();
        serve_stdio(&s, Cursor::new("{\"cmd\":\"status\"}\n"), &mut out).expect("io");
        assert!(s.is_shutdown(), "EOF must stop companion loops");
    }

    #[test]
    fn tcp_round_trip_and_shutdown() {
        use std::io::{BufRead as _, Write as _};
        use std::net::TcpListener;

        let s = state();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_tcp(&s, &listener));
            let stream = TcpStream::connect(addr).expect("connect");
            let mut writer = stream.try_clone().expect("clone");
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();

            writer
                .write_all(b"{\"cmd\":\"ingest\",\"steps\":4,\"id\":1}\n")
                .expect("write");
            reader.read_line(&mut reply).expect("read");
            assert!(reply.contains("\"ingested\":4"), "{reply}");

            reply.clear();
            writer
                .write_all(b"{\"cmd\":\"shutdown\",\"id\":2}\n")
                .expect("write");
            reader.read_line(&mut reply).expect("read");
            assert!(reply.contains("\"shutting_down\":true"), "{reply}");

            server.join().expect("join").expect("serve_tcp");
        });
    }

    #[test]
    fn tcp_keeps_a_character_split_across_a_pause() {
        use std::io::{Read as _, Write as _};
        use std::net::{Shutdown, TcpListener};

        let s = state();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("addr");
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_tcp(&s, &listener));
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .set_read_timeout(Some(StdDuration::from_secs(10)))
                .expect("timeout");
            stream.set_nodelay(true).expect("nodelay");

            // "é" is 0xC3 0xA9; the pause outlasts the server's read
            // timeout, so the server sees half a character first.
            let request = "{\"cmd\":\"status\",\"id\":\"caf\u{e9}\"}\n".as_bytes();
            let split = request.iter().position(|&b| b == 0xC3).expect("é") + 1;
            stream.write_all(&request[..split]).expect("write");
            std::thread::sleep(StdDuration::from_millis(150));
            stream.write_all(&request[split..]).expect("write");
            // A line that is not UTF-8 gets an error reply and the
            // connection stays open.
            stream.write_all(b"\xff\xfe\n").expect("write");
            // A last request without a newline is answered at EOF.
            stream
                .write_all(b"{\"cmd\":\"shutdown\",\"id\":2}")
                .expect("write");
            stream.shutdown(Shutdown::Write).expect("half-close");

            let mut replies = String::new();
            let read = stream.read_to_string(&mut replies);
            // Stop the server even when the connection died early, so a
            // failing assertion below cannot hang the scope join.
            s.request_shutdown();
            server.join().expect("join").expect("serve_tcp");
            read.expect("read");
            let lines: Vec<&str> = replies.lines().collect();
            assert_eq!(lines.len(), 3, "{replies}");
            let ok = lines
                .iter()
                .filter(|l| l.contains("\"ok\":true") && l.contains("\"id\":\"caf\u{e9}\""))
                .count();
            assert_eq!(ok, 1, "{replies}");
            assert!(lines[0].contains("\"steps_ingested\""), "{replies}");
            assert!(lines[1].contains("\"ok\":false"), "{replies}");
            assert!(lines[1].contains("not valid UTF-8"), "{replies}");
            assert!(lines[2].contains("\"shutting_down\":true"), "{replies}");
        });
    }
}
