//! Property tests for the hand-written HTTP/1.1 request parser.
//!
//! Three invariants keep a hostile or broken peer from getting past
//! the typed error taxonomy:
//!
//! 1. **Total**: any byte stream parses or gives a typed `HttpError`,
//!    and never panics. An in-memory stream never fails, so it never
//!    gives `HttpError::Io`.
//! 2. **Framing-blind**: a valid request parses identically however
//!    its bytes are split across reads.
//! 3. **Failure-honest**: a stream that fails before the request is
//!    complete, mid-head or mid-body, gives `HttpError::Io`.

use ferrocim_serve::http::{read_request, HttpError, Request, MAX_BODY_BYTES};
use proptest::prelude::*;
use std::io::{self, ErrorKind, Read};
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(10);

/// Serves `bytes` in reads of the scripted sizes (cycled), then either
/// reports end of stream or fails with `fail`.
struct Scripted<'a> {
    bytes: &'a [u8],
    chunks: Vec<usize>,
    reads: usize,
    fail: Option<ErrorKind>,
}

impl<'a> Scripted<'a> {
    fn new(bytes: &'a [u8], chunks: Vec<usize>, fail: Option<ErrorKind>) -> Self {
        Scripted {
            bytes,
            chunks,
            reads: 0,
            fail,
        }
    }
}

impl Read for Scripted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.bytes.is_empty() {
            return match self.fail {
                Some(kind) => Err(kind.into()),
                None => Ok(0),
            };
        }
        let want = self.chunks[self.reads % self.chunks.len()];
        self.reads += 1;
        let n = want.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// The fields of a parsed request, comparable as one value.
fn fields(req: Request) -> (String, String, Vec<(String, String)>, Vec<u8>) {
    (req.method, req.path, req.headers, req.body)
}

/// A well-formed request: method, path, extra headers, and a body
/// framed by `Content-Length`.
fn valid_request() -> impl Strategy<Value = Vec<u8>> {
    let token = prop::collection::vec(prop::sample::select(b"abcxyzABC019-_./;= ".to_vec()), 0..24);
    (
        prop::sample::select(vec!["GET", "POST", "PUT", "DELETE"]),
        prop::sample::select(vec!["/", "/v1/mac", "/healthz", "/debug/queue?x=1"]),
        prop::collection::vec(
            (
                prop::sample::select(vec!["Host", "X-Tenant", "accept", "User-Agent"]),
                token,
            ),
            0..6,
        ),
        prop::collection::vec(any::<u8>(), 0..300),
    )
        .prop_map(|(method, path, headers, body)| {
            let mut raw = format!("{method} {path} HTTP/1.1\r\n").into_bytes();
            for (name, value) in headers {
                raw.extend_from_slice(name.as_bytes());
                raw.extend_from_slice(b": ");
                raw.extend_from_slice(&value);
                raw.extend_from_slice(b"\r\n");
            }
            raw.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
            raw.extend_from_slice(&body);
            raw
        })
}

fn read_sizes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..2048, 1..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random bytes, including heads past the size bound, never panic
    /// and never surface as a socket error.
    #[test]
    fn arbitrary_bytes_give_a_request_or_a_typed_error(
        bytes in prop::collection::vec(any::<u8>(), 0..12_000),
        chunks in read_sizes(),
    ) {
        match read_request(&mut Scripted::new(&bytes, chunks, None), TIMEOUT) {
            Ok(req) => prop_assert!(req.body.len() <= MAX_BODY_BYTES),
            Err(HttpError::Io(e)) => prop_assert!(false, "in-memory stream gave {e}"),
            Err(_) => {}
        }
    }

    /// A valid request with a few bytes overwritten reaches the deeper
    /// branches (request line, header syntax, Content-Length) and still
    /// gives a request or a typed error.
    #[test]
    fn mutated_requests_give_a_request_or_a_typed_error(
        raw in valid_request(),
        edits in prop::collection::vec((any::<u16>(), any::<u8>()), 1..6),
        chunks in read_sizes(),
    ) {
        let mut raw = raw;
        for (at, byte) in edits {
            let at = usize::from(at) % raw.len();
            raw[at] = byte;
        }
        match read_request(&mut Scripted::new(&raw, chunks, None), TIMEOUT) {
            Ok(req) => prop_assert!(req.body.len() <= MAX_BODY_BYTES),
            Err(HttpError::Io(e)) => prop_assert!(false, "in-memory stream gave {e}"),
            Err(_) => {}
        }
    }

    /// The parse does not depend on how the bytes arrive.
    #[test]
    fn valid_requests_parse_identically_under_any_split(
        raw in valid_request(),
        chunks in read_sizes(),
    ) {
        let whole = match read_request(&mut raw.as_slice(), TIMEOUT) {
            Ok(req) => fields(req),
            Err(e) => return Err(proptest::TestCaseError::fail(format!("refused: {e}"))),
        };
        let split = read_request(&mut Scripted::new(&raw, chunks, None), TIMEOUT).map(fields);
        prop_assert!(split.as_ref().is_ok_and(|split| *split == whole), "{split:?} != {whole:?}");
        let body_at = raw.windows(4).position(|w| w == b"\r\n\r\n").map(|p| p + 4);
        prop_assert_eq!(Some(&whole.3[..]), body_at.map(|at| &raw[at..]));
    }

    /// A stream failing at any point before the request is complete
    /// surfaces its own error, whether the head or the body was cut.
    #[test]
    fn a_stream_failing_mid_request_gives_io(
        raw in valid_request(),
        cut in any::<u16>(),
        kind in prop::sample::select(vec![
            ErrorKind::ConnectionReset,
            ErrorKind::TimedOut,
            ErrorKind::WouldBlock,
            ErrorKind::BrokenPipe,
            ErrorKind::UnexpectedEof,
        ]),
        chunks in read_sizes(),
    ) {
        let cut = usize::from(cut) % raw.len();
        let result = read_request(&mut Scripted::new(&raw[..cut], chunks, Some(kind)), TIMEOUT);
        prop_assert!(
            matches!(&result, Err(HttpError::Io(e)) if e.kind() == kind),
            "cut at {cut} of {}: {result:?}",
            raw.len()
        );
    }
}
