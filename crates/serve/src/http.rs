//! A deliberately small HTTP/1.1 subset shared by the daemon and the
//! flood client: request/response framing with `Content-Length` bodies,
//! persistent connections, and pipelining.
//!
//! No chunked encoding, no TLS, no HTTP/2 — the service speaks JSON over
//! the simplest wire format the standard library can carry, so the whole
//! stack stays dependency-free and auditable. Limits are hard-coded and
//! conservative: oversized heads or bodies are an error, never an
//! allocation amplifier.

use std::io::{self, BufRead, Write};

/// Maximum bytes in a request/status line or a single header line.
pub const MAX_LINE: usize = 8 * 1024;
/// Maximum number of header lines per message.
pub const MAX_HEADERS: usize = 64;
/// Maximum body size accepted or parsed.
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, uppercased by the client as sent.
    pub method: String,
    /// Request target (path + optional query), verbatim.
    pub target: String,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// One parsed HTTP response (flood-client side).
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }
}

impl Response {
    /// Case-insensitive header lookup (names are stored lowercased).
    pub fn header(&self, name: &str) -> Option<&str> {
        header_of(&self.headers, name)
    }
}

fn header_of<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(name))
        .map(|(_, v)| v.as_str())
}

fn bad(detail: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.to_string())
}

/// Reads one CRLF- (or LF-) terminated line, bounded by [`MAX_LINE`].
/// Returns `None` on clean EOF before any byte.
fn read_line(r: &mut impl BufRead) -> io::Result<Option<String>> {
    let mut line = Vec::with_capacity(64);
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(bad("eof mid-line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let s = String::from_utf8(line).map_err(|_| bad("non-utf8 header line"))?;
                    return Ok(Some(s));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(bad("header line too long"));
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn read_headers(r: &mut impl BufRead) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(r)?.ok_or_else(|| bad("eof in headers"))?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(bad("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

fn read_body(r: &mut impl BufRead, headers: &[(String, String)]) -> io::Result<Vec<u8>> {
    let len = match header_of(headers, "content-length") {
        None => return Ok(Vec::new()),
        Some(v) => v.parse::<usize>().map_err(|_| bad("bad content-length"))?,
    };
    if len > MAX_BODY {
        return Err(bad("body too large"));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Reads one request off a persistent connection. `Ok(None)` means the
/// peer closed cleanly between requests.
pub fn read_request(r: &mut impl BufRead) -> io::Result<Option<Request>> {
    let line = loop {
        match read_line(r)? {
            None => return Ok(None),
            // Tolerate stray blank lines between pipelined requests.
            Some(l) if l.is_empty() => continue,
            Some(l) => break l,
        }
    };
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or_else(|| bad("empty request line"))?;
    let target = parts.next().ok_or_else(|| bad("missing request target"))?;
    let version = parts.next().ok_or_else(|| bad("missing http version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported http version"));
    }
    let headers = read_headers(r)?;
    let body = read_body(r, &headers)?;
    Ok(Some(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
    }))
}

/// Reads one response off a persistent connection. `Ok(None)` means the
/// peer closed cleanly between responses.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Option<Response>> {
    let line = match read_line(r)? {
        None => return Ok(None),
        Some(l) => l,
    };
    let mut parts = line.split_whitespace();
    let version = parts.next().ok_or_else(|| bad("empty status line"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(bad("unsupported http version"));
    }
    let status = parts
        .next()
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status code"))?;
    let headers = read_headers(r)?;
    let body = read_body(r, &headers)?;
    Ok(Some(Response {
        status,
        headers,
        body,
    }))
}

/// Writes one JSON response with the given extra headers.
pub fn write_response(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    extra: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    write_response_typed(w, status, reason, "application/json", extra, body)
}

/// Writes one response with an explicit content type (the `/metrics`
/// endpoint serves Prometheus text exposition, not JSON).
pub fn write_response_typed(
    w: &mut impl Write,
    status: u16,
    reason: &str,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
) -> io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n",
        status,
        reason,
        content_type,
        body.len()
    )?;
    for (k, v) in extra {
        write!(w, "{}: {}\r\n", k, v)?;
    }
    w.write_all(b"\r\n")?;
    w.write_all(body)
}

/// Writes one JSON POST request.
pub fn write_post(w: &mut impl Write, target: &str, body: &[u8]) -> io::Result<()> {
    write!(
        w,
        "POST {} HTTP/1.1\r\nhost: mbts\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
        target,
        body.len()
    )?;
    w.write_all(body)
}

/// Writes one GET request.
pub fn write_get(w: &mut impl Write, target: &str) -> io::Result<()> {
    write!(w, "GET {} HTTP/1.1\r\nhost: mbts\r\n\r\n", target)
}

/// Canonical reason phrase for the handful of statuses the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Cursor};

    #[test]
    fn request_round_trips_with_pipelining() {
        let mut wire = Vec::new();
        write_post(&mut wire, "/submit", br#"{"runtime":1.0}"#).unwrap();
        write_get(&mut wire, "/stats").unwrap();
        let mut r = BufReader::new(Cursor::new(wire));
        let a = read_request(&mut r).unwrap().unwrap();
        assert_eq!(a.method, "POST");
        assert_eq!(a.target, "/submit");
        assert_eq!(a.body, br#"{"runtime":1.0}"#);
        let b = read_request(&mut r).unwrap().unwrap();
        assert_eq!(b.method, "GET");
        assert_eq!(b.target, "/stats");
        assert!(read_request(&mut r).unwrap().is_none());
    }

    #[test]
    fn response_round_trips_with_extra_headers() {
        let mut wire = Vec::new();
        write_response(
            &mut wire,
            429,
            reason(429),
            &[("retry-after", "3".to_string())],
            br#"{"error":"backpressure"}"#,
        )
        .unwrap();
        let mut r = BufReader::new(Cursor::new(wire));
        let resp = read_response(&mut r).unwrap().unwrap();
        assert_eq!(resp.status, 429);
        assert_eq!(resp.header("Retry-After"), Some("3"));
        assert_eq!(resp.body, br#"{"error":"backpressure"}"#);
    }

    #[test]
    fn typed_response_carries_its_content_type() {
        let mut wire = Vec::new();
        write_response_typed(
            &mut wire,
            200,
            reason(200),
            "text/plain; version=0.0.4",
            &[],
            b"serve_queue_depth 0\n",
        )
        .unwrap();
        let mut r = BufReader::new(Cursor::new(wire));
        let resp = read_response(&mut r).unwrap().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.header("content-type"),
            Some("text/plain; version=0.0.4")
        );
        assert_eq!(resp.body, b"serve_queue_depth 0\n");
    }

    #[test]
    fn limits_reject_oversized_messages() {
        let big_line = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(MAX_LINE + 1));
        let mut r = BufReader::new(Cursor::new(big_line.into_bytes()));
        assert!(read_request(&mut r).is_err());

        let big_body = format!(
            "POST / HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let mut r = BufReader::new(Cursor::new(big_body.into_bytes()));
        assert!(read_request(&mut r).is_err());
    }

    #[test]
    fn eof_mid_message_is_an_error_not_a_hang() {
        let torn = b"POST /submit HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc".to_vec();
        let mut r = BufReader::new(Cursor::new(torn));
        assert!(read_request(&mut r).is_err());
    }
}
