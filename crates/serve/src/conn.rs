//! Per-connection state machine for the readiness reactor.
//!
//! A [`Connection`] owns one nonblocking client socket plus the two
//! buffers the reactor drives it through: a read buffer that NDJSON
//! request lines are sliced out of without re-copying the tail more
//! than once, and a write buffer holding at most **one** pending
//! response. That one-response bound is the write-backpressure rule
//! that makes slow readers harmless: a client that pipelines requests
//! but never drains responses can pin at most one response worth of
//! memory, and the reactor's write deadline closes it if the buffered
//! response does not drain in time.
//!
//! Wire parity notes (the reactor must be byte-identical to the old
//! thread-per-connection loop):
//! - blank lines are skipped, not answered;
//! - request lines are handed to the engine with trailing whitespace
//!   (including `\r`) trimmed, exactly as `trim_end` did before;
//! - a final unterminated line at EOF is still served (the old
//!   `read_line` returned the partial line before reporting EOF);
//! - invalid UTF-8 closes the connection (the old `BufRead::read_line`
//!   errored the stream).

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::json::run_len;

/// Hard cap on buffered, not-yet-answered request bytes for one
/// connection. Publish artifacts arrive as a single base64 line, so
/// the cap is deliberately generous; a connection that manages to
/// exceed it without ever completing a line is not speaking the
/// protocol and is closed.
pub const MAX_READ_BUF: usize = 64 * 1024 * 1024;

/// Spare capacity a read starts with, so an ordinary request arrives in
/// one `read(2)`.
const MIN_READ: usize = 4 * 1024;

/// One client connection owned by the reactor: socket, buffers, and
/// the in-flight flag that serializes request dispatch.
pub struct Connection {
    stream: TcpStream,
    /// The variant split plan's sticky-key fallback for requests
    /// without a `"client"` id: stable for the connection's lifetime.
    conn_key: String,
    /// Guards stale worker completions after this slab slot is reused.
    epoch: u64,
    read_buf: Vec<u8>,
    /// Prefix of `read_buf` already scanned for a newline.
    scanned: usize,
    write_buf: Vec<u8>,
    /// Prefix of `write_buf` already written to the socket.
    written: usize,
    /// True between dispatching a request to a worker and queueing its
    /// response; at most one request per connection is in flight.
    in_flight: bool,
    eof: bool,
    /// When the current response first failed to flush completely; the
    /// reactor closes the connection once this exceeds its write
    /// deadline.
    stalled_since: Option<Instant>,
    /// The readiness interest currently registered with the poller
    /// (bitmask of the reactor's `EVENT_READ` / `EVENT_WRITE`).
    interest: u32,
}

impl Connection {
    /// Wraps an accepted (already nonblocking) stream.
    pub fn new(stream: TcpStream, conn_key: String, epoch: u64) -> Self {
        Self {
            stream,
            conn_key,
            epoch,
            read_buf: Vec::new(),
            scanned: 0,
            write_buf: Vec::new(),
            written: 0,
            in_flight: false,
            eof: false,
            stalled_since: None,
            interest: 0,
        }
    }

    /// The sticky per-connection key (`conn-{id}`).
    pub fn conn_key(&self) -> &str {
        &self.conn_key
    }

    /// The slab-reuse guard attached to this connection's jobs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The raw fd for poller registration.
    pub fn raw_fd(&self) -> std::os::fd::RawFd {
        use std::os::fd::AsRawFd;
        self.stream.as_raw_fd()
    }

    /// The currently registered poller interest bitmask.
    pub fn interest(&self) -> u32 {
        self.interest
    }

    /// Records the poller interest bitmask after a successful modify.
    pub fn set_interest(&mut self, interest: u32) {
        self.interest = interest;
    }

    /// Drains the socket into the read buffer until it would block,
    /// hits EOF, or the buffer reaches [`MAX_READ_BUF`]. Errors mean
    /// the peer is gone and the connection should be closed.
    ///
    /// Bytes land in the buffer's own spare capacity: `read_to_end`
    /// appends what it has read even when it stops on `WouldBlock`, and
    /// it grows both the buffer and the size of each `read(2)` with what
    /// has arrived, so a 1.9 MB line costs tens of reads while a short
    /// request costs one into `MIN_READ` bytes.
    pub fn on_readable(&mut self) -> io::Result<()> {
        let room = MAX_READ_BUF.saturating_sub(self.read_buf.len());
        if room == 0 {
            return Ok(()); // paused; `next_line` decides if this is fatal
        }
        self.read_buf.reserve(MIN_READ.min(room));
        match (&self.stream)
            .take(room as u64)
            .read_to_end(&mut self.read_buf)
        {
            Ok(_) if self.read_buf.len() < MAX_READ_BUF => self.eof = true,
            Ok(_) => {} // the cap, not the peer, ended the read
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
        Ok(())
    }

    /// Extracts the next non-blank complete request line, trimmed of
    /// trailing whitespace. Returns `Ok(None)` when no complete line
    /// is buffered yet, and an error when the connection is no longer
    /// speaking the protocol (invalid UTF-8, or a single line that
    /// exceeded [`MAX_READ_BUF`]).
    pub fn next_line(&mut self) -> io::Result<Option<String>> {
        loop {
            let unscanned = &self.read_buf[self.scanned..];
            let end = match run_len(unscanned, |b| b == b'\n') {
                off if off < unscanned.len() => self.scanned + off,
                _ => {
                    self.scanned = self.read_buf.len();
                    if self.read_buf.len() >= MAX_READ_BUF {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "request line exceeds the per-connection buffer cap",
                        ));
                    }
                    // Old-loop parity: `read_line` returned a final
                    // unterminated line before reporting EOF.
                    if !self.eof || self.read_buf.is_empty() {
                        return Ok(None);
                    }
                    self.read_buf.len()
                }
            };
            let line = self.take_line(end)?;
            if !line.is_empty() {
                return Ok(Some(line));
            }
            // blank lines are skipped, same as before
        }
    }

    /// Removes `read_buf[..end]` and the newline after it (if any) and
    /// returns it as a string with trailing whitespace trimmed,
    /// validating UTF-8 exactly once. When nothing follows the line —
    /// the closed-loop case, and the one a 1.9 MB publish is in — the
    /// buffer itself becomes the string; otherwise the line is copied
    /// out and the tail kept.
    fn take_line(&mut self, end: usize) -> io::Result<String> {
        let invalid = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "request line is not valid UTF-8",
            )
        };
        self.scanned = 0;
        if end + 1 >= self.read_buf.len() {
            let mut bytes = std::mem::take(&mut self.read_buf);
            bytes.truncate(end);
            let mut line = String::from_utf8(bytes).map_err(|_| invalid())?;
            line.truncate(line.trim_end().len());
            return Ok(line);
        }
        let line = std::str::from_utf8(&self.read_buf[..end])
            .map_err(|_| invalid())?
            .trim_end()
            .to_string();
        self.read_buf.drain(..=end);
        Ok(line)
    }

    /// Marks a request as dispatched to a worker; no further lines are
    /// handed out until [`Connection::queue_response`] clears it.
    pub fn begin_request(&mut self) {
        self.in_flight = true;
    }

    /// Whether a request is currently out with a worker.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Buffers a response line (newline appended) and clears the
    /// in-flight flag. The reactor's dispatch gating guarantees the
    /// write buffer is empty when this is called.
    pub fn queue_response(&mut self, response: &str) {
        debug_assert!(self.write_buf.is_empty());
        self.write_buf.extend_from_slice(response.as_bytes());
        self.write_buf.push(b'\n');
        self.written = 0;
        self.in_flight = false;
    }

    /// Writes buffered response bytes until done or the socket would
    /// block. Returns `Ok(true)` when the buffer fully drained. A
    /// partial flush starts (or keeps) the stall clock that backs the
    /// reactor's write deadline.
    pub fn flush(&mut self) -> io::Result<bool> {
        while self.written < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.written..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket closed mid-response",
                    ))
                }
                Ok(n) => self.written += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.written == self.write_buf.len() {
            self.write_buf.clear();
            self.written = 0;
            self.stalled_since = None;
            Ok(true)
        } else {
            if self.stalled_since.is_none() {
                self.stalled_since = Some(Instant::now());
            }
            Ok(false)
        }
    }

    /// Whether response bytes are waiting on the socket to accept them.
    pub fn wants_write(&self) -> bool {
        self.written < self.write_buf.len()
    }

    /// Whether the read side is paused at the buffer cap.
    pub fn read_saturated(&self) -> bool {
        self.read_buf.len() >= MAX_READ_BUF
    }

    /// Whether the peer half-closed (no more request bytes coming).
    pub fn is_eof(&self) -> bool {
        self.eof
    }

    /// Idle means safe to close immediately during a drain: no request
    /// out with a worker and no response bytes left to deliver.
    pub fn is_idle(&self) -> bool {
        !self.in_flight && self.write_buf.is_empty()
    }

    /// How long the current response has been stuck behind a
    /// non-reading peer (zero when writes are flowing).
    pub fn stalled_for(&self, now: Instant) -> Duration {
        self.stalled_since
            .map(|t| now.saturating_duration_since(t))
            .unwrap_or(Duration::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn pair() -> (TcpStream, TcpStream) {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        let a = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let (b, _) = l.accept().unwrap();
        b.set_nonblocking(true).unwrap();
        (a, b)
    }

    #[test]
    fn slices_lines_and_skips_blanks() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, "conn-0".into(), 1);
        client
            .write_all(b"{\"a\":1}\r\n\n  \n{\"b\":2}\n{\"part")
            .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        conn.on_readable().unwrap();
        assert_eq!(conn.next_line().unwrap().as_deref(), Some("{\"a\":1}"));
        assert_eq!(conn.next_line().unwrap().as_deref(), Some("{\"b\":2}"));
        assert_eq!(conn.next_line().unwrap(), None, "partial line held back");
        // EOF flushes the unterminated tail, like read_line did.
        client.write_all(b"ial\"}").unwrap();
        drop(client);
        std::thread::sleep(Duration::from_millis(50));
        conn.on_readable().unwrap();
        assert!(conn.is_eof());
        assert_eq!(conn.next_line().unwrap().as_deref(), Some("{\"partial\"}"));
        assert_eq!(conn.next_line().unwrap(), None);
    }

    #[test]
    fn invalid_utf8_is_fatal() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, "conn-0".into(), 1);
        client.write_all(&[0xFF, 0xFE, b'\n']).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        conn.on_readable().unwrap();
        assert!(conn.next_line().is_err());
    }

    /// Pumps the connection until the peer has closed and every line is
    /// out, the way the reactor does: read what is there, take what is
    /// complete.
    fn drain_lines(conn: &mut Connection) -> io::Result<Vec<String>> {
        let mut lines = Vec::new();
        loop {
            conn.on_readable()?;
            while let Some(line) = conn.next_line()? {
                lines.push(line);
            }
            if conn.is_eof() {
                return Ok(lines);
            }
            std::thread::yield_now();
        }
    }

    /// A publish-sized line: 1.9 MB of base64-looking text in a JSON shell.
    fn big_line() -> String {
        let artifact: String = (0..1_900_000u32)
            .map(|i| char::from(b'A' + (i.wrapping_mul(2_654_435_761) >> 28) as u8))
            .collect();
        format!("{{\"op\":\"publish\",\"artifact\":\"{artifact}\"}}")
    }

    #[test]
    fn a_publish_sized_line_is_the_same_line_however_it_is_cut() {
        let line = big_line();
        let wire = format!("{line}\n").into_bytes();
        for cut in [1usize, 16 * 1024, wire.len()] {
            let (mut client, server) = pair();
            let mut conn = Connection::new(server, "conn-0".into(), 1);
            let wire = wire.clone();
            let writer = std::thread::spawn(move || {
                // Byte-sized cuts for the head and the tail of the line
                // only: two million `write(2)`s would prove no more.
                let (byte_cut, rest) = if cut == 1 {
                    let (head, rest) = wire.split_at(4096);
                    head.iter().for_each(|b| client.write_all(&[*b]).unwrap());
                    let (middle, tail) = rest.split_at(rest.len() - 4096);
                    client.write_all(middle).unwrap();
                    (true, tail.to_vec())
                } else {
                    (false, wire)
                };
                for piece in rest.chunks(if byte_cut { 1 } else { cut }) {
                    client.write_all(piece).unwrap();
                }
            });
            let lines = drain_lines(&mut conn).unwrap();
            writer.join().unwrap();
            assert_eq!(lines.len(), 1, "cut {cut}");
            assert!(lines[0] == line, "cut {cut}: the line arrived changed");
            assert!(conn.read_buf.is_empty() && conn.scanned == 0);
        }
    }

    #[test]
    fn pipelined_crlf_and_blank_lines_in_one_read() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, "conn-0".into(), 1);
        client
            .write_all(b"{\"a\":1}\n{\"b\":2} \t\r\n\r\n \n\n{\"c\":3}\r\n")
            .unwrap();
        drop(client);
        assert_eq!(
            drain_lines(&mut conn).unwrap(),
            ["{\"a\":1}", "{\"b\":2}", "{\"c\":3}"]
        );
    }

    #[test]
    fn the_moved_buffer_leaves_the_connection_ready_for_the_next_request() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, "conn-0".into(), 1);
        let mut request = |bytes: &[u8], conn: &mut Connection| {
            client.write_all(bytes).unwrap();
            std::thread::sleep(Duration::from_millis(30));
            conn.on_readable().unwrap();
            conn.next_line().unwrap()
        };
        // Exactly one line buffered: the buffer itself becomes the line.
        assert_eq!(
            request(b"{\"a\":1}  \r\n", &mut conn).as_deref(),
            Some("{\"a\":1}")
        );
        assert!(conn.read_buf.is_empty() && conn.scanned == 0);
        assert_eq!(
            conn.read_buf.capacity(),
            0,
            "the buffer was moved, not copied"
        );
        // A partial line is scanned once and held …
        assert_eq!(request(b"{\"b\"", &mut conn), None);
        assert_eq!((conn.read_buf.len(), conn.scanned), (4, 4));
        // … then completed, with the start of the next one behind it:
        // that line is copied out and the tail kept.
        assert_eq!(
            request(b":2}\n{\"c", &mut conn).as_deref(),
            Some("{\"b\":2}")
        );
        assert_eq!((conn.read_buf.as_slice(), conn.scanned), (&b"{\"c"[..], 0));
        assert_eq!(request(b"\":3}\n", &mut conn).as_deref(), Some("{\"c\":3}"));
        assert!(conn.read_buf.is_empty() && conn.scanned == 0);
    }

    #[test]
    fn invalid_utf8_is_fatal_on_both_line_paths() {
        // Alone in the buffer (moved) and with a request behind it (copied).
        for wire in [&b"{\"a\":\"\xC3\x28\"}\n"[..], &b"\xFF\n{\"b\":2}\n"[..]] {
            let (mut client, server) = pair();
            let mut conn = Connection::new(server, "conn-0".into(), 1);
            client.write_all(wire).unwrap();
            drop(client);
            let err = drain_lines(&mut conn).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn an_unterminated_line_stops_at_the_buffer_cap() {
        let (mut client, server) = pair();
        let mut conn = Connection::new(server, "conn-0".into(), 1);
        let writer = std::thread::spawn(move || {
            // More than the cap, never a newline. The reader stops
            // taking bytes at the cap, so the tail may not go through.
            let chunk = vec![b'x'; 1 << 20];
            for _ in 0..MAX_READ_BUF / chunk.len() + 1 {
                if client.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        loop {
            conn.on_readable().unwrap();
            if conn.read_saturated() {
                break;
            }
            assert_eq!(conn.next_line().unwrap(), None, "no line below the cap");
        }
        assert_eq!(
            conn.read_buf.len(),
            MAX_READ_BUF,
            "reads stop at the cap exactly"
        );
        assert!(!conn.is_eof(), "the cap ended the read, not the peer");
        let err = conn.next_line().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        drop(conn); // closes the socket: the writer's next write fails
        writer.join().unwrap();
    }

    #[test]
    fn one_response_backpressure_and_stall_clock() {
        let (_client, server) = pair();
        let mut conn = Connection::new(server, "conn-0".into(), 1);
        conn.begin_request();
        assert!(conn.in_flight());
        conn.queue_response("{\"ok\":true}");
        assert!(!conn.in_flight());
        assert!(conn.wants_write());
        // A tiny response flushes straight into the socket buffer.
        assert!(conn.flush().unwrap());
        assert!(conn.is_idle());
        assert_eq!(conn.stalled_for(Instant::now()), Duration::ZERO);
    }
}
