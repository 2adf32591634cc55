//! The client half of the NDJSON wire protocol.
//!
//! [`crate::ops`] is where a server decides what a request line means;
//! this module is where a caller decides what a reply line means, so
//! the router, the publish and experiment coordinators, the health
//! probe, the CLI and every harness read a reply the same way:
//!
//! - [`LineClient`] is the lockstep connection — one request line out,
//!   one reply line in — with connect, read and write timeouts always
//!   set, so a peer that accepts and then says nothing costs its caller
//!   a timeout, never a hang. It carries no fault-injection site: the
//!   fault plan is process-global, and harness traffic must not consume
//!   the hits a plan aims at the router's replica links (the cluster's
//!   `ReplicaConn` is this client plus that site).
//! - [`classify`] is the one reading of a reply: a JSON answer, a
//!   refusal (any `{"error":…}` — a shed line is *not* a report), or a
//!   transport failure that names the step that failed.
//! - [`ask`] is both for a one-shot admin request.

use std::fmt;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::json::{self, Json};

/// One lockstep NDJSON connection.
pub struct LineClient {
    reader: BufReader<TcpStream>,
    /// The request and its newline, so each request is one `write(2)`:
    /// on a `TCP_NODELAY` socket two writes are two segments and can be
    /// two wake-ups of the peer.
    out: Vec<u8>,
}

impl LineClient {
    /// Connects within `connect_timeout` and bounds every later read
    /// and write by `io_timeout`.
    pub fn connect(
        addr: impl ToSocketAddrs,
        connect_timeout: Duration,
        io_timeout: Duration,
    ) -> io::Result<Self> {
        let mut last = io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing");
        for addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&addr, connect_timeout) {
                Ok(stream) => {
                    stream.set_read_timeout(Some(io_timeout))?;
                    stream.set_write_timeout(Some(io_timeout))?;
                    stream.set_nodelay(true)?;
                    return Ok(Self {
                        reader: BufReader::new(stream),
                        out: Vec::new(),
                    });
                }
                Err(e) => last = e,
            }
        }
        Err(last)
    }

    /// Sends one request line and reads one reply line (without its
    /// newline). A peer that closed instead of replying is
    /// `UnexpectedEof`; one that closed mid-line — a torn write — is
    /// `InvalidData`. Any error, timeouts included, leaves the
    /// connection out of step: drop it.
    pub fn ask(&mut self, line: &str) -> io::Result<String> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.reader.get_mut().write_all(&self.out)?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the reply",
            ));
        }
        if !reply.ends_with('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "connection closed in the middle of the reply line",
            ));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    /// [`LineClient::ask`], parsed. An `{"error":…}` reply is returned
    /// as data; callers that must not mistake one for an answer use
    /// [`classify`].
    pub fn ask_json(&mut self, line: &str) -> io::Result<Json> {
        json::parse(&self.ask(line)?).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// The step of an exchange that failed to produce a reply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The connection could not be opened.
    Connect,
    /// No complete reply line came back (timeout, reset, early close).
    RoundTrip,
    /// The reply line is not JSON.
    Parse,
}

/// Why a request has no answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Unanswered {
    /// There is no reply to read: the step that failed and a message
    /// that names it (`connect: …`, `round trip: …`, `parse: …`).
    Transport(Step, String),
    /// The peer answered `{"error":…}` — a shed, a rejection, a client
    /// error. Holds the whole reply.
    Refused(Json),
}

impl Unanswered {
    /// A failed connect.
    pub fn connect(e: io::Error) -> Self {
        Self::Transport(Step::Connect, format!("connect: {e}"))
    }

    /// True for a refusal flagged `"retryable": true` on the wire: the
    /// peer shed the request without acting on it.
    pub fn retryable(&self) -> bool {
        matches!(self, Self::Refused(reply)
            if reply.get("error").and_then(|e| e.get("retryable")) == Some(&Json::Bool(true)))
    }
}

/// A transport failure's message, or a refusal's `error` object.
impl fmt::Display for Unanswered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Transport(_, why) => f.write_str(why),
            Self::Refused(reply) => reply.get("error").unwrap_or(reply).fmt(f),
        }
    }
}

/// Reads the outcome of a round trip: the parsed answer, or why there
/// is none.
pub fn classify(reply: io::Result<String>) -> Result<Json, Unanswered> {
    let raw =
        reply.map_err(|e| Unanswered::Transport(Step::RoundTrip, format!("round trip: {e}")))?;
    let reply =
        json::parse(&raw).map_err(|e| Unanswered::Transport(Step::Parse, format!("parse: {e}")))?;
    if reply.get("error").is_some() {
        return Err(Unanswered::Refused(reply));
    }
    Ok(reply)
}

/// One request on a connection of its own: connect, ask, classify.
pub fn ask(
    addr: impl ToSocketAddrs,
    connect_timeout: Duration,
    io_timeout: Duration,
    line: &str,
) -> Result<Json, Unanswered> {
    let mut client =
        LineClient::connect(addr, connect_timeout, io_timeout).map_err(Unanswered::connect)?;
    classify(client.ask(line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::{SocketAddr, TcpListener};
    use std::thread::JoinHandle;
    use std::time::Instant;

    const TIMEOUT: Duration = Duration::from_millis(300);

    /// A listener that takes one connection: with `Some(reply)` it reads
    /// the request line and writes `reply` verbatim; with `None` it
    /// never answers and holds the socket until the client gives up.
    fn scripted(reply: Option<&'static str>) -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let thread = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            match reply {
                Some(reply) => {
                    let mut line = String::new();
                    BufReader::new(&stream).read_line(&mut line).unwrap();
                    stream.write_all(reply.as_bytes()).unwrap();
                }
                None => {
                    let _ = stream.read_to_end(&mut Vec::new());
                }
            }
        });
        (addr, thread)
    }

    #[test]
    fn a_reply_is_an_answer_a_refusal_or_a_transport_failure() {
        let shed = r#"{"error":{"code":"overloaded","message":"x","retryable":true}}"#;
        let terminal = r#"{"error":{"code":"bad_artifact","message":"x"},"outcomes":[]}"#;
        for (reply, want) in [
            (Some("{\"generation\":3}\n"), Ok(3.0)),
            (Some("{\"generation\":3}"), Err(Some(Step::RoundTrip))), // EOF before the newline
            (Some("not json\n"), Err(Some(Step::Parse))),
            (None, Err(Some(Step::RoundTrip))), // read timeout
        ] {
            let (addr, listener) = scripted(reply);
            let got = ask(addr, TIMEOUT, TIMEOUT, r#"{"op":"stats"}"#);
            listener.join().unwrap();
            let got = match got {
                Ok(answer) => Ok(answer.get("generation").and_then(Json::as_num).unwrap()),
                Err(Unanswered::Transport(step, why)) => {
                    let prefix = ["connect: ", "round trip: ", "parse: "][step as usize];
                    assert!(why.starts_with(prefix), "{why}");
                    Err(Some(step))
                }
                Err(Unanswered::Refused(_)) => Err(None),
            };
            assert_eq!(got, want, "scripted reply {reply:?}");
        }
        for (line, retryable, shown) in [
            (
                shed,
                true,
                r#"{"code":"overloaded","message":"x","retryable":true}"#,
            ),
            (terminal, false, r#"{"code":"bad_artifact","message":"x"}"#),
        ] {
            let refusal = classify(Ok(line.to_string())).unwrap_err();
            assert_eq!(refusal, Unanswered::Refused(json::parse(line).unwrap()));
            assert_eq!(refusal.retryable(), retryable);
            assert_eq!(
                refusal.to_string(),
                shown,
                "a refusal shows its error object"
            );
        }
        // Nobody listening: a bound-then-dropped port refuses the connect.
        let dead = TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap();
        let refused = ask(dead, TIMEOUT, TIMEOUT, "{}").unwrap_err();
        assert!(
            matches!(&refused, Unanswered::Transport(Step::Connect, why) if why.starts_with("connect: "))
        );
        assert!(!refused.retryable());
    }

    #[test]
    fn a_hung_peer_costs_a_timeout_not_a_hang() {
        let (addr, listener) = scripted(None);
        let mut client = LineClient::connect(addr, TIMEOUT, TIMEOUT).unwrap();
        let asked = Instant::now();
        let err = client.ask_json(r#"{"op":"stats"}"#).unwrap_err();
        assert!(
            matches!(
                err.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "{err}"
        );
        assert!(asked.elapsed() < TIMEOUT * 4, "{:?}", asked.elapsed());
        drop(client);
        listener.join().unwrap();
    }

    #[test]
    fn errors_are_data_to_ask_json_and_one_connection_serves_many_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let echo = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 {
                let reply = format!(
                    "{{\"error\":{{\"code\":\"echo\",\"len\":{}}}}}\r\n",
                    line.len()
                );
                stream.write_all(reply.as_bytes()).unwrap();
                line.clear();
            }
        });
        let mut client = LineClient::connect(addr, TIMEOUT, TIMEOUT).unwrap();
        assert_eq!(
            client.ask("abc").unwrap(),
            r#"{"error":{"code":"echo","len":4}}"#,
            "the reply comes back without its line ending"
        );
        let reply = client.ask_json("abcdef").unwrap();
        let len = reply.get("error").and_then(|e| e.get("len"));
        assert_eq!(len.and_then(Json::as_num), Some(7.0));
        drop(client);
        echo.join().unwrap();
    }
}
