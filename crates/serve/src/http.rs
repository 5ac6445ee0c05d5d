//! A deliberately minimal HTTP/1.1 layer over blocking [`TcpStream`]s.
//!
//! Only what the service needs: one request per connection
//! (`Connection: close` on every response), bounded header and body
//! sizes, one read deadline per request, and a write path that
//! tolerates the socket being switched to non-blocking mode
//! mid-request (the connection watchdog and the worker share the
//! underlying fd — see [`crate::server`]).

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Largest accepted request head (request line + headers), bytes.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Largest accepted request body, bytes.
pub const MAX_BODY_BYTES: usize = 64 * 1024;
/// How long a response write may retry `WouldBlock` before giving up.
pub const WRITE_DEADLINE: Duration = Duration::from_secs(2);

/// A parsed request head plus body.
#[derive(Debug, Clone)]
pub struct Request {
    /// The HTTP method, uppercased as received (`GET`, `POST`, …).
    pub method: String,
    /// The request path, query string included.
    pub path: String,
    /// Lowercased header names with their raw values.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let lower = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == lower)
            .map(|(_, v)| v.as_str())
    }
}

/// A typed request-read failure; each variant maps to one HTTP status.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed or timed out before a full head arrived.
    Io(std::io::Error),
    /// The request line or a header line was not parseable HTTP/1.1.
    Malformed(&'static str),
    /// The head or body exceeded its size bound.
    TooLarge(&'static str),
    /// The peer closed the connection before sending anything.
    Disconnected,
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "socket error: {e}"),
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
            HttpError::Disconnected => write!(f, "peer disconnected before sending a request"),
        }
    }
}

/// Reads one request from `stream`.
///
/// The whole request, head and body, must arrive within `timeout` of
/// the call: once it has passed, the next read is refused with
/// [`HttpError::Io`] (`TimedOut`), so a peer trickling bytes cannot
/// hold the caller. A socket caller sets the same value as the
/// socket's read timeout, which bounds the last blocking read too: a
/// request is settled within twice `timeout`.
///
/// # Errors
///
/// See [`HttpError`].
pub fn read_request<R: Read>(stream: &mut R, timeout: Duration) -> Result<Request, HttpError> {
    let deadline = Instant::now() + timeout;
    let mut chunk = [0u8; 1024];
    let mut read_some = |buf: &mut Vec<u8>| {
        if Instant::now() >= deadline {
            return Err(HttpError::Io(std::io::Error::new(
                ErrorKind::TimedOut,
                "request incomplete at the read deadline",
            )));
        }
        let n = stream.read(&mut chunk).map_err(HttpError::Io)?;
        buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    };
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        // The head runs through its blank-line terminator.
        match find_head_end(&buf) {
            Some(pos) if pos + 4 <= MAX_HEAD_BYTES => break pos,
            None if buf.len() < MAX_HEAD_BYTES => {}
            _ => return Err(HttpError::TooLarge("request head")),
        }
        if read_some(&mut buf)? == 0 {
            if buf.is_empty() {
                return Err(HttpError::Disconnected);
            }
            return Err(HttpError::Malformed("connection closed mid-head"));
        }
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("missing path"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header without a colon"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed("bad Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("request body"));
    }
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        if read_some(&mut body)? == 0 {
            return Err(HttpError::Malformed("connection closed mid-body"));
        }
    }
    body.truncate(content_length);
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Writes one complete response and flushes it.
///
/// The stream may be in non-blocking mode (the fd is shared with the
/// connection watchdog, which needs non-blocking peeks), so
/// `WouldBlock` is retried with a short sleep until [`WRITE_DEADLINE`]
/// passes. Write failures are returned but are usually ignored by the
/// caller: a peer that vanished mid-response has already got all the
/// service can give it.
///
/// # Errors
///
/// Returns the underlying socket error, or `TimedOut` if the peer
/// stopped draining for longer than [`WRITE_DEADLINE`].
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    let give_up = Instant::now() + WRITE_DEADLINE;
    let mut written = 0;
    while written < message.len() {
        match stream.write(&message[written..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    ErrorKind::WriteZero,
                    "peer closed mid-response",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                if Instant::now() >= give_up {
                    return Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "peer stopped draining the response",
                    ));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
    loop {
        match stream.flush() {
            Ok(()) => return Ok(()),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::Interrupted => {
                if Instant::now() >= give_up {
                    return Err(std::io::Error::new(ErrorKind::TimedOut, "flush stalled"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    const TIMEOUT: Duration = Duration::from_secs(2);

    fn round_trip(raw: &str) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let raw = raw.to_string();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(raw.as_bytes()).expect("write");
        });
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_read_timeout(Some(TIMEOUT)).expect("timeout");
        let result = read_request(&mut stream, TIMEOUT);
        writer.join().expect("writer thread");
        result
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = round_trip("POST /v1/mac HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nhey!")
            .expect("parse");
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/mac");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.header("HOST"), Some("x"));
        assert_eq!(req.body, b"hey!");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = round_trip("GET /healthz HTTP/1.1\r\n\r\n").expect("parse");
        assert_eq!(req.method, "GET");
        assert!(req.body.is_empty());
    }

    #[test]
    fn rejects_garbage_and_eof() {
        assert!(matches!(
            round_trip("not http at all\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(round_trip(""), Err(HttpError::Disconnected)));
        assert!(matches!(
            round_trip("POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n"),
            Err(HttpError::TooLarge(_))
        ));
    }

    /// A head of exactly [`MAX_HEAD_BYTES`], terminator included,
    /// parses; one byte more is refused.
    #[test]
    fn head_bound_is_exact() {
        let head = |len: usize| {
            let mut head = String::from("GET / HTTP/1.1\r\nX-Pad: ");
            head.push_str(&"a".repeat(len - head.len() - 4));
            head.push_str("\r\n\r\n");
            assert_eq!(head.len(), len);
            head
        };
        let at_bound = head(MAX_HEAD_BYTES);
        assert!(read_request(&mut at_bound.as_bytes(), TIMEOUT).is_ok());
        let over = head(MAX_HEAD_BYTES + 1);
        assert!(matches!(
            read_request(&mut over.as_bytes(), TIMEOUT),
            Err(HttpError::TooLarge(_))
        ));
    }

    /// A client sending one byte every 150 ms never trips a 200 ms
    /// per-read timeout, but the request deadline still cuts it off.
    #[test]
    fn trickling_client_is_cut_off_at_the_request_deadline() {
        let timeout = Duration::from_millis(200);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            for byte in b"POST /v1/mac HTTP/1.1\r\nContent-Length: 0\r\n\r\n" {
                if s.write_all(&[*byte]).is_err() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(150));
            }
        });
        let (mut stream, _) = listener.accept().expect("accept");
        stream.set_read_timeout(Some(timeout)).expect("timeout");
        let started = Instant::now();
        let result = read_request(&mut stream, timeout);
        let elapsed = started.elapsed();
        drop(stream);
        writer.join().expect("writer thread");
        assert!(matches!(result, Err(HttpError::Io(_))), "{result:?}");
        assert!(elapsed < 2 * timeout, "held for {elapsed:?}");
    }
}
