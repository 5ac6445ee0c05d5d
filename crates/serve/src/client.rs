//! A blocking single-request HTTP client, for the benchmark and probe
//! harnesses, the `--self-check` smoke mode, and integration tests.
//!
//! One request per connection (matching the server's
//! `Connection: close`), with a read timeout so a wedged server fails a
//! test instead of hanging it.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A decoded response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// The HTTP status code.
    pub status: u16,
    /// The response body.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// The body parsed as JSON, when it is JSON.
    pub fn json(&self) -> Option<serde_json::Value> {
        let text = std::str::from_utf8(&self.body).ok()?;
        serde_json::from_str(text).ok()
    }
}

/// Performs one request and reads the full response.
///
/// # Errors
///
/// Returns connection, write, timeout, and malformed-response errors.
pub fn http_request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &[u8],
    timeout: Duration,
) -> std::io::Result<HttpResponse> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: ferrocim\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> std::io::Result<HttpResponse> {
    let malformed = |what: &str| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("malformed response: {what}"),
        )
    };
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| malformed("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| malformed("head is not UTF-8"))?;
    let status_line = head.lines().next().ok_or_else(|| malformed("empty head"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| malformed("bad status line"))?;
    Ok(HttpResponse {
        status,
        body: raw[head_end + 4..].to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nContent-Length: 2\r\n\r\n{}";
        let resp = parse_response(raw).expect("parse");
        assert_eq!(resp.status, 429);
        assert_eq!(resp.body, b"{}");
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_response(b"nope").is_err());
        assert!(parse_response(b"HTTP/1.1 huh\r\n\r\n").is_err());
    }
}
