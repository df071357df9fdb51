//! Hand-rolled HTTP/1.1 framing over `std::net` streams.
//!
//! In keeping with the workspace's vendored-stubs/offline policy there
//! is no HTTP dependency: this module implements exactly the slice the
//! server needs — one request per connection (`Connection: close`),
//! `Content-Length` bodies, and strict limits. Parsing failures map to
//! precise status codes so clients get actionable errors instead of
//! dropped sockets: 400 for malformed framing, 411 for a `POST` without
//! a length, 413 for a body over the configured cap, 431 for runaway
//! headers.

use hypdb_obs::Deadline;
use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Upper bound on the request line + headers (bytes).
pub const MAX_HEAD: usize = 8 * 1024;

/// A parsed request: method, path (query string stripped), and body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, …).
    pub method: String,
    /// Request path up to any `?`.
    pub path: String,
    /// Decoded body (empty for bodiless requests).
    pub body: String,
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// Client spoke garbage → 400 with a reason.
    Bad(String),
    /// `POST` without `Content-Length` → 411.
    LengthRequired,
    /// Declared body exceeds the cap → 413.
    TooLarge {
        /// The configured body cap (bytes).
        limit: usize,
    },
    /// Header section exceeds [`MAX_HEAD`] → 431.
    HeadTooLarge,
    /// Socket-level failure (peer vanished, timeout): no response owed.
    Io(io::Error),
}

impl From<io::Error> for RequestError {
    fn from(e: io::Error) -> Self {
        RequestError::Io(e)
    }
}

/// One `read` bounded by the connection's remaining deadline budget. A
/// per-*read* socket timeout alone would let a client trickle one byte
/// per interval and pin a worker forever; shrinking the timeout to the
/// time left makes the whole request strictly bounded.
fn read_within(stream: &mut TcpStream, chunk: &mut [u8], deadline: Deadline) -> io::Result<usize> {
    let remaining = deadline.remaining();
    if remaining.is_zero() {
        return Err(io::ErrorKind::TimedOut.into());
    }
    stream.set_read_timeout(Some(remaining))?;
    stream.read(chunk)
}

/// Reads one request from `stream`, enforcing `max_body` and giving the
/// client until `deadline` to deliver the complete request.
pub fn read_request(
    stream: &mut TcpStream,
    max_body: usize,
    deadline: Deadline,
) -> Result<Request, RequestError> {
    read_request_from(|chunk| read_within(stream, chunk, deadline), max_body)
}

/// [`read_request`] over any byte source. `read` fills a prefix of the
/// slice it is handed and returns how much (0 at end of input). The
/// parser never asks for a byte it might not keep: the head (with its
/// blank line) must fit in [`MAX_HEAD`], and the body read stops at
/// the declared length — so one request buffers at most `MAX_HEAD +
/// max_body` bytes, whatever the peer sends.
fn read_request_from(
    mut read: impl FnMut(&mut [u8]) -> io::Result<usize>,
    max_body: usize,
) -> Result<Request, RequestError> {
    // Accumulate until the blank line that ends the header section.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() >= MAX_HEAD {
            return Err(RequestError::HeadTooLarge);
        }
        let want = chunk.len().min(MAX_HEAD - buf.len());
        let n = read(&mut chunk[..want])?;
        if n == 0 {
            if buf.is_empty() {
                // Peer connected and left (port probe): nothing to answer.
                return Err(RequestError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            return Err(RequestError::Bad("truncated request head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RequestError::Bad("request head is not UTF-8".into()))?;
    let mut lines = head.split("\r\n").map(|l| l.trim_end_matches('\r'));
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Bad("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Bad("request line has no target".into()))?;
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Bad(format!(
            "unsupported protocol `{version}`"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::Bad(format!("malformed header `{line}`")));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" {
            let n = value
                .parse::<usize>()
                .map_err(|_| RequestError::Bad(format!("bad Content-Length `{value}`")))?;
            content_length = Some(n);
        } else if name == "transfer-encoding" && !value.eq_ignore_ascii_case("identity") {
            return Err(RequestError::Bad(
                "chunked transfer encoding is not supported".into(),
            ));
        }
    }

    let body_len = match (method.as_str(), content_length) {
        (_, Some(n)) => n,
        ("POST" | "PUT" | "PATCH", None) => return Err(RequestError::LengthRequired),
        (_, None) => 0,
    };
    if body_len > max_body {
        return Err(RequestError::TooLarge { limit: max_body });
    }

    // The body starts with whatever arrived after the head.
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < body_len {
        let want = chunk.len().min(body_len - body.len());
        let n = read(&mut chunk[..want])?;
        if n == 0 {
            return Err(RequestError::Bad("truncated request body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(body_len);
    let body = String::from_utf8(body)
        .map_err(|_| RequestError::Bad("request body is not UTF-8".into()))?;

    Ok(Request { method, path, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// An outgoing response: status, content type, extra headers, body.
///
/// The body is an `Arc<String>` so a cached report can be served
/// without copying its bytes — the cache-hit hot path shares the
/// stored allocation all the way to the socket write.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra `(name, value)` headers (e.g. cache diagnostics).
    pub headers: Vec<(String, String)>,
    /// Response body (shared, never mutated).
    pub body: Arc<String>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response::json_shared(status, Arc::new(body.into()))
    }

    /// A JSON response over an already-shared body (zero-copy).
    pub fn json_shared(status: u16, body: Arc<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body,
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: Arc::new(body.into()),
        }
    }

    /// An `{"error": …}` JSON response with the message safely escaped.
    pub fn error(status: u16, message: impl AsRef<str>) -> Response {
        let quoted = serde_json::to_string(&message.as_ref()).unwrap_or_else(|_| "\"\"".into());
        Response::json(status, format!("{{\"error\":{quoted}}}"))
    }

    /// Adds a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// Standard reason phrase for the status codes the server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        411 => "Length Required",
        413 => "Payload Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes `resp` and flushes: head and body leave in one vectored
/// write (one segment for a report that fits one), not a small head
/// segment followed by the body. One response per connection
/// (`Connection: close`), so clients may simply read to EOF.
pub fn write_response(stream: &mut impl Write, resp: &Response) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        resp.status,
        reason(resp.status),
        resp.content_type,
        resp.body.len()
    );
    for (name, value) in &resp.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let (head, body) = (head.as_bytes(), resp.body.as_bytes());
    // Gather both until the head is out; a short write that got into
    // the body leaves `sent - head.len()` of it behind.
    let mut sent = 0;
    while sent < head.len() {
        let n = stream.write_vectored(&[IoSlice::new(&head[sent..]), IoSlice::new(body)])?;
        if n == 0 {
            return Err(io::ErrorKind::WriteZero.into());
        }
        sent += n;
    }
    stream.write_all(&body[sent - head.len()..])?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    fn far_deadline() -> Deadline {
        Deadline::after(std::time::Duration::from_secs(10))
    }

    /// Runs `read_request` against raw client bytes via a loopback pair.
    fn parse_raw(raw: &[u8], max_body: usize) -> Result<Request, RequestError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // The server may stop reading (and close) at its first
            // objection, before a long request is fully written.
            s.write_all(&raw).ok();
            // Keep the socket open briefly so reads see EOF cleanly.
            s.shutdown(std::net::Shutdown::Write).ok();
            let mut sink = Vec::new();
            s.read_to_end(&mut sink).ok();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let out = read_request(&mut stream, max_body, far_deadline());
        drop(stream);
        client.join().unwrap();
        out
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse_raw(
            b"POST /analyze?x=1 HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/analyze");
        assert_eq!(req.body, "abcd");
    }

    #[test]
    fn parses_get_without_length() {
        let req = parse_raw(b"GET /healthz HTTP/1.0\r\n\r\n", 1024).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/healthz");
        assert!(req.body.is_empty());
    }

    #[test]
    fn post_without_length_is_411() {
        assert!(matches!(
            parse_raw(b"POST /analyze HTTP/1.1\r\n\r\n", 1024),
            Err(RequestError::LengthRequired)
        ));
    }

    #[test]
    fn oversized_body_is_413() {
        assert!(matches!(
            parse_raw(b"POST /a HTTP/1.1\r\nContent-Length: 99\r\n\r\n", 10),
            Err(RequestError::TooLarge { limit: 10 })
        ));
    }

    #[test]
    fn garbage_is_400() {
        assert!(matches!(
            parse_raw(b"NOT-HTTP\r\n\r\n", 1024),
            Err(RequestError::Bad(_))
        ));
        assert!(matches!(
            parse_raw(b"POST /a HTTP/1.1\r\nContent-Length: zz\r\n\r\n", 1024),
            Err(RequestError::Bad(_))
        ));
    }

    #[test]
    fn runaway_headers_are_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD + 64));
        assert!(matches!(
            parse_raw(&raw, 1024),
            Err(RequestError::HeadTooLarge)
        ));
    }

    #[test]
    fn trickling_clients_hit_the_connection_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // Drip bytes slowly, never completing the head: each write
            // would reset a naive per-read timeout.
            for _ in 0..20 {
                if s.write_all(b"x").is_err() {
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let t0 = hypdb_obs::Tick::now();
        let deadline = Deadline::after(std::time::Duration::from_millis(200));
        let out = read_request(&mut stream, 1024, deadline);
        assert!(matches!(out, Err(RequestError::Io(_))), "{out:?}");
        assert!(
            t0.elapsed() < std::time::Duration::from_millis(900),
            "must give up at the deadline, not per-read"
        );
        drop(stream);
        client.join().unwrap();
    }

    #[test]
    fn response_escapes_error_messages() {
        let r = Response::error(400, "bad \"quote\"\nline");
        assert!(r.body.starts_with("{\"error\":"));
        assert!(serde_json::parse(&r.body).is_ok());
    }

    /// A seeded stream off the workspace's SplitMix64 mixer.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = hypdb_exec::seed::mix(self.0, 0);
            self.0
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n.max(1) as u64) as usize
        }
    }

    const FUZZ_MAX_BODY: usize = 2048;

    /// Well-formed requests the mutations start from.
    fn fuzz_seeds() -> Vec<Vec<u8>> {
        let json = "{\"dataset\":\"caf\u{e9}\",\"sql\":\"SELECT \u{65e5}\u{672c}, avg(y) FROM t GROUP BY \u{65e5}\u{672c}\"}";
        let post = |body: &str| {
            format!(
                "POST /analyze HTTP/1.1\r\nHost: h\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        };
        vec![
            b"GET /healthz HTTP/1.1\r\nHost: h\r\n\r\n".to_vec(),
            b"GET /metrics?x=1 HTTP/1.0\r\n\r\n".to_vec(),
            post(json),
            post(&"\u{e9}".repeat(FUZZ_MAX_BODY / 2)),
            post(""),
        ]
    }

    fn insert_header(raw: &mut Vec<u8>, header: &[u8]) {
        let at = find_head_end(raw).map_or(raw.len(), |i| i + 2);
        raw.splice(at..at, header.iter().copied());
    }

    /// One hostile edit of a request.
    fn mutate(rng: &mut Rng, raw: &mut Vec<u8>) {
        let at = rng.below(raw.len() + 1);
        match rng.below(10) {
            0 => raw.truncate(at),
            1 => insert_header(
                raw,
                format!("Content-Length: {}\r\n", rng.below(5000)).as_bytes(),
            ),
            2 => insert_header(raw, b"Content-Length: 99999999999999999999999999\r\n"),
            3 => raw.insert(at, b'\r'),
            4 => raw.insert(at, 0),
            5 => {
                let mut junk = b"X-Pad: ".to_vec();
                junk.extend(std::iter::repeat_n(b'a', MAX_HEAD - 64 + rng.below(2048)));
                junk.extend_from_slice(b"\r\n");
                insert_header(raw, &junk);
            }
            // A declared length that ends inside the body, often inside
            // a multi-byte character.
            6 => {
                if let Some(end) = find_head_end(raw) {
                    let keep = rng.below(raw.len() - end - 3);
                    let head = String::from_utf8_lossy(&raw[..end]).into_owned();
                    let head = head.replace("Content-Length: ", "Content-Length: 0");
                    let body = raw[end + 4..].to_vec();
                    *raw = format!("{head}\r\nContent-Length: {keep}\r\n\r\n").into_bytes();
                    raw.extend(body);
                }
            }
            7 if !raw.is_empty() => {
                let i = at % raw.len();
                raw[i] ^= 1 << rng.below(8);
            }
            8 => {
                if let Some(i) = raw.windows(2).position(|w| w == b"\r\n") {
                    raw.remove(i);
                }
            }
            _ => raw.extend(std::iter::repeat_n(b'z', rng.below(3 * FUZZ_MAX_BODY))),
        }
    }

    /// The outcome as the status the server would answer with (`None`:
    /// a silent drop), checking the parsed request's own bounds.
    fn status_of(out: &Result<Request, RequestError>) -> Option<u16> {
        match out {
            Ok(req) => {
                assert!(req.body.len() <= FUZZ_MAX_BODY);
                assert!(!req.method.is_empty() && req.path.len() <= MAX_HEAD);
                Some(200)
            }
            Err(RequestError::Io(_)) => None,
            Err(RequestError::Bad(_)) => Some(400),
            Err(RequestError::LengthRequired) => Some(411),
            Err(RequestError::TooLarge { limit }) => {
                assert_eq!(*limit, FUZZ_MAX_BODY);
                Some(413)
            }
            Err(RequestError::HeadTooLarge) => Some(431),
        }
    }

    /// Parses `raw` handed over in random pieces; returns the outcome
    /// and how many bytes the parser took from the source.
    fn parse_pieces(rng: &mut Rng, raw: &[u8]) -> (Option<u16>, usize) {
        let mut taken = 0;
        let out = read_request_from(
            |chunk| {
                let n = (1 + rng.below(chunk.len())).min(raw.len() - taken);
                chunk[..n].copy_from_slice(&raw[taken..taken + n]);
                taken += n;
                Ok(n)
            },
            FUZZ_MAX_BODY,
        );
        (status_of(&out), taken)
    }

    #[test]
    fn hostile_bytes_get_a_4xx_or_a_silent_drop_within_the_buffer_bound() {
        let seeds = fuzz_seeds();
        let mut rng = Rng(0x5EED_0016);
        let mut seen = std::collections::BTreeSet::new();
        for case in 0..4000 {
            let mut raw = seeds[case % seeds.len()].clone();
            for _ in 0..1 + rng.below(3) {
                mutate(&mut rng, &mut raw);
            }
            let (status, taken) = parse_pieces(&mut rng, &raw);
            // Never a byte more than one head and one body — whatever
            // the peer sent — and so never a buffer past that.
            assert!(
                taken <= MAX_HEAD + FUZZ_MAX_BODY,
                "case {case}: took {taken} of {} bytes",
                raw.len()
            );
            assert!(
                matches!(status, None | Some(200 | 400 | 411 | 413 | 431)),
                "case {case}: {status:?}"
            );
            // The verdict is a function of the bytes, not of how the
            // network cut them up…
            assert_eq!(parse_pieces(&mut rng, &raw).0, status, "case {case}");
            // …including over a real socket pair (a sample: each one
            // costs a connection).
            if case % 16 == 0 {
                assert_eq!(
                    status_of(&parse_raw(&raw, FUZZ_MAX_BODY)),
                    status,
                    "case {case}: {:?}",
                    String::from_utf8_lossy(&raw)
                );
            }
            seen.insert(status);
        }
        // The mutations reach every branch, the happy path included.
        let all = [None, Some(200), Some(400), Some(411), Some(413), Some(431)];
        assert_eq!(seen, all.into_iter().collect());
    }

    #[test]
    fn a_head_fits_max_head_or_is_431_however_it_arrives() {
        let request = |pad: usize| {
            let mut raw = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
            raw.extend(std::iter::repeat_n(b'a', pad));
            raw.extend_from_slice(b"\r\n\r\n");
            raw
        };
        let overhead = request(0).len();
        let mut rng = Rng(7);
        for _ in 0..50 {
            let fits = request(MAX_HEAD - overhead);
            assert_eq!(parse_pieces(&mut rng, &fits), (Some(200), MAX_HEAD));
            let over = request(MAX_HEAD - overhead + 1);
            assert_eq!(parse_pieces(&mut rng, &over), (Some(431), MAX_HEAD));
        }
    }

    /// What `write_response` put on the wire before it gathered head and
    /// body into one write: the framing clients and the journal replay
    /// were pinned against.
    fn two_write_framing(resp: &Response) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            resp.status,
            reason(resp.status),
            resp.content_type,
            resp.body.len()
        );
        for (name, value) in &resp.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut wire = head.into_bytes();
        wire.extend_from_slice(resp.body.as_bytes());
        wire
    }

    /// A peer that takes at most `cap` bytes per call.
    struct Stingy {
        cap: usize,
        wire: Vec<u8>,
        calls: usize,
    }

    impl Write for Stingy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut room = self.cap;
            for buf in bufs {
                let n = room.min(buf.len());
                self.wire.extend_from_slice(&buf[..n]);
                room -= n;
            }
            Ok(self.cap - room)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_gathered_write_frames_exactly_like_the_two_writes_did() {
        let bodies = [
            String::new(),
            "{\"status\":\"ok\",\"datasets\":3}".to_string(),
            "{\"error\":\"caf\u{e9} \u{65e5}\u{672c}\"}".to_string(),
            "x".repeat(100_000),
        ];
        for status in [200u16, 400, 404, 405, 411, 413, 431, 500, 503] {
            for body in &bodies {
                let plain = Response::json(status, body.clone());
                let text = Response::text(status, body.clone());
                let tagged = Response::json(status, body.clone())
                    .with_header("X-Hypdb-Cache", "hit")
                    .with_header("X-Hypdb-Fingerprint", "00ff00ff00ff00ff")
                    .with_header("Retry-After", "1")
                    .with_header("X-Hypdb-Request-Id", "req-00000001");
                for resp in [plain, text, tagged] {
                    let expect = two_write_framing(&resp);
                    for cap in [1, 7, 64, 4096, usize::MAX] {
                        let mut peer = Stingy {
                            cap,
                            wire: Vec::new(),
                            calls: 0,
                        };
                        write_response(&mut peer, &resp).unwrap();
                        assert!(peer.wire == expect, "status {status}, cap {cap}");
                        if cap == usize::MAX {
                            assert_eq!(peer.calls, 1, "head and body leave together");
                        }
                    }
                }
            }
        }
        // And a peer that stops taking bytes is an error, not a spin.
        let mut dead = Stingy {
            cap: 0,
            wire: Vec::new(),
            calls: 0,
        };
        assert!(write_response(&mut dead, &Response::json(200, "{}")).is_err());
    }
}
