//! Minimal HTTP/1.1 request/response handling over `std::net`.
//!
//! This is deliberately not a general HTTP implementation: it parses
//! exactly the subset the stmaker endpoints need — a request line, a small
//! header block (only `Content-Length` frames the body), an optional body —
//! and always answers `Connection: close`, so a connection carries one
//! request and one response. Keeping the wire layer this small is what
//! lets the crate stay std-only (ROADMAP item 1: no framework, no async
//! runtime) while remaining strict-tier panic-free.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Upper bound on the request head (request line + headers). Anything
/// larger is a 431-class client error; 16 KiB is far beyond what the
/// stmaker endpoints (short paths, a handful of query params) ever need.
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request. Query parameters are kept as ordered pairs in arrival
/// order; lookups scan linearly (there are at most a handful).
pub(crate) struct Request {
    pub method: String,
    /// Path without the query string, percent-decoding *not* applied — the
    /// stmaker endpoints use fixed ASCII paths and `[a-z0-9_=&-]` queries.
    pub path: String,
    query: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Total bytes consumed off the wire (head + body), for `serve.bytes_in`.
    pub wire_bytes: u64,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn query(&self, key: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be parsed; each variant maps to one status code.
#[derive(Debug)]
pub(crate) enum HttpError {
    /// Peer closed before sending a complete head. If `clean` the peer
    /// sent nothing at all (health probes, the shutdown wake connection) —
    /// not worth a response or a counter.
    Disconnected { clean: bool },
    /// Read timed out mid-request → 408.
    Timeout,
    /// Malformed request line or header block → 400.
    Malformed(String),
    /// Head exceeded [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// Declared `Content-Length` exceeds the configured cap → 413.
    BodyTooLarge { declared: usize, max: usize },
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Disconnected { .. } => write!(f, "client disconnected mid-request"),
            HttpError::Timeout => write!(f, "timed out reading request"),
            HttpError::Malformed(why) => write!(f, "malformed request: {why}"),
            HttpError::HeadTooLarge => {
                write!(f, "request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            HttpError::BodyTooLarge { declared, max } => {
                write!(f, "request body of {declared} bytes exceeds the {max}-byte limit")
            }
        }
    }
}

impl std::error::Error for HttpError {}

/// Reads and parses one request off `stream`, honouring the stream's
/// configured read timeout and capping the body at `max_body` bytes.
pub(crate) fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        let n = match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Disconnected { clean: buf.is_empty() }),
            Ok(n) => n,
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) => return Err(HttpError::Malformed(format!("read failed: {e}"))),
        };
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::Malformed("request head is not valid UTF-8".into()))?;
    let (method, path, query) = parse_head_line(head)?;
    let content_length = parse_content_length(head)?;
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge { declared: content_length, max: max_body });
    }
    // Body bytes that arrived glued to the head, then the remainder.
    let body_start = head_end + 4;
    let mut body: Vec<u8> = buf.get(body_start..).unwrap_or(&[]).to_vec();
    body.truncate(content_length);
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        let n = match stream.read(&mut chunk[..want]) {
            Ok(0) => return Err(HttpError::Disconnected { clean: false }),
            Ok(n) => n,
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) => return Err(HttpError::Malformed(format!("read failed: {e}"))),
        };
        body.extend_from_slice(&chunk[..n]);
    }
    let wire_bytes = (body_start + content_length) as u64;
    Ok(Request { method, path, query, body, wire_bytes })
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Splits `"POST /summarize?k=3 HTTP/1.1"` into method, path, and query
/// pairs. Versions other than HTTP/1.x are refused.
fn parse_head_line(head: &str) -> Result<(String, String, Vec<(String, String)>), HttpError> {
    let line = head.lines().next().unwrap_or("");
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::Malformed(format!("bad request line {line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!("unsupported version {version:?}")));
    }
    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (k.to_owned(), v.to_owned()),
            None => (kv.to_owned(), String::new()),
        })
        .collect();
    Ok((method.to_owned(), path.to_owned(), query))
}

/// Checks every header line and extracts `Content-Length` (0 when absent).
///
/// Anything that makes the body's framing ambiguous is a 400, because
/// reading the wrong number of bytes would desynchronize the connection:
/// a malformed or conflicting `Content-Length` (repeats with an equal value
/// are accepted), any `Transfer-Encoding` (chunked bodies are not read), and
/// a header line with no colon.
fn parse_content_length(head: &str) -> Result<usize, HttpError> {
    let mut length: Option<usize> = None;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("header line without a colon {line:?}")));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Malformed(format!(
                "transfer-encoding {:?} is not supported; send a content-length",
                value.trim()
            )));
        }
        if name.eq_ignore_ascii_case("content-length") {
            let n = value
                .trim()
                .parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length {value:?}")))?;
            if length.is_some_and(|prev| prev != n) {
                return Err(HttpError::Malformed("conflicting content-length headers".into()));
            }
            length = Some(n);
        }
    }
    Ok(length.unwrap_or(0))
}

/// An HTTP response; `write_to` serializes it with `Connection: close`.
pub(crate) struct Response {
    pub status: u16,
    content_type: &'static str,
    pub body: Vec<u8>,
}

impl Response {
    pub fn text(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self { status, content_type: "text/plain; charset=utf-8", body: body.into() }
    }

    pub fn json(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self { status, content_type: "application/json", body: body.into() }
    }

    /// An STC1 binary payload (`GET /model?format=stc`).
    pub fn binary(status: u16, body: impl Into<Vec<u8>>) -> Self {
        Self { status, content_type: "application/x-stc1", body: body.into() }
    }

    /// The uniform error shape: `{"error": <message>, "status": N}`.
    pub fn error(status: u16, message: &str) -> Self {
        let body = format!("{{\"error\": {}, \"status\": {status}}}\n", json_str(message));
        Self::json(status, body)
    }

    /// Serializes onto `stream`; returns the bytes written (for
    /// `serve.bytes_out`). Write failures are the client's loss — the
    /// caller counts them but has nobody left to tell.
    pub fn write_to(&self, stream: &mut TcpStream) -> std::io::Result<u64> {
        let head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len(),
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(&self.body)?;
        stream.flush()?;
        Ok((head.len() + self.body.len()) as u64)
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// JSON string literal for `s` (quotes included) — enough escaping for the
/// handful of hand-assembled response bodies; full documents go through
/// `Report::to_json_pretty`.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn head_line_parses_query_pairs() {
        let (m, p, q) =
            parse_head_line("POST /summarize?k=3&sanitize=drop&flag HTTP/1.1\r\n").unwrap();
        assert_eq!((m.as_str(), p.as_str()), ("POST", "/summarize"));
        assert_eq!(
            q,
            vec![
                ("k".to_owned(), "3".to_owned()),
                ("sanitize".to_owned(), "drop".to_owned()),
                ("flag".to_owned(), String::new()),
            ]
        );
    }

    #[test]
    fn head_line_rejects_garbage() {
        assert!(parse_head_line("").is_err());
        assert!(parse_head_line("GET /x").is_err());
        assert!(parse_head_line("GET /x SMTP/1.0").is_err());
        assert!(parse_head_line("GET /x HTTP/1.1 extra").is_err());
    }

    #[test]
    fn content_length_is_strict() {
        let len = parse_content_length;
        assert_eq!(len("POST / HTTP/1.1\r\nContent-Length: 12\r\n").unwrap(), 12);
        assert_eq!(len("POST / HTTP/1.1\r\nHost: x\r\n").unwrap(), 0);
        assert_eq!(len("POST / HTTP/1.1\r\nContent-Length: 3\r\ncontent-length: 3").unwrap(), 3);
        // Ambiguous framing: a bad or conflicting length, any transfer
        // coding, or a header line that is not `name: value`.
        for head in [
            "POST / HTTP/1.1\r\nContent-Length: twelve\r\n",
            "POST / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 4",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked",
            "POST / HTTP/1.1\r\nContent-Length: 3\r\nTransfer-Encoding: chunked",
            "POST / HTTP/1.1\r\nHost x",
        ] {
            assert!(matches!(len(head), Err(HttpError::Malformed(_))), "{head:?}");
        }
    }

    #[test]
    fn json_str_escapes_controls() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }
}
