//! Minimal HTTP/1.1 request parsing and response rendering.
//!
//! The service speaks a deliberately small subset: one request per
//! connection (`Connection: close` on every response), bounded header and
//! body sizes, and a read timeout so a stalled client cannot wedge the
//! accept loop. Anything outside the subset maps to a 4xx, never a panic.

use crate::json::Json;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum bytes of request line + headers.
pub const MAX_HEAD: usize = 8 * 1024;
/// Maximum request body size.
pub const MAX_BODY: usize = 1024 * 1024;
/// Per-connection read timeout.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method token (`GET`, `POST`, ...).
    pub method: String,
    /// The path, query string stripped.
    pub path: String,
    /// Header `(name, value)` pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First value of a header, by lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be served at the transport level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// Malformed request line, header syntax, or missing/invalid framing.
    BadRequest(&'static str),
    /// Head exceeded [`MAX_HEAD`].
    HeadTooLarge,
    /// Declared body exceeded [`MAX_BODY`].
    BodyTooLarge,
    /// Socket error or timeout.
    Io(std::io::ErrorKind),
}

/// Reads and parses one request from `stream`.
///
/// # Errors
///
/// Returns [`RecvError`] on malformed input, oversized head/body, or I/O
/// failure (including the read timeout).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RecvError> {
    stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| RecvError::Io(e.kind()))?;
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(i) = find_head_end(&buf) {
            break i;
        }
        if buf.len() > MAX_HEAD {
            return Err(RecvError::HeadTooLarge);
        }
        let mut chunk = [0u8; 1024];
        let got = stream.read(&mut chunk).map_err(|e| RecvError::Io(e.kind()))?;
        if got == 0 {
            return Err(RecvError::BadRequest("connection closed before head"));
        }
        buf.extend_from_slice(&chunk[..got]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RecvError::BadRequest("head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(RecvError::BadRequest("empty head"))?;
    let mut parts = request_line.split(' ');
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().ok_or(RecvError::BadRequest("missing request target"))?;
    let version = parts.next().ok_or(RecvError::BadRequest("missing HTTP version"))?;
    if method.is_empty() || parts.next().is_some() {
        return Err(RecvError::BadRequest("malformed request line"));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::BadRequest("unsupported HTTP version"));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();
    if !path.starts_with('/') {
        return Err(RecvError::BadRequest("request target is not origin-form"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) =
            line.split_once(':').ok_or(RecvError::BadRequest("header without ':'"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => {
            v.parse::<usize>().map_err(|_| RecvError::BadRequest("bad Content-Length"))?
        }
        None => 0,
    };
    if content_length > MAX_BODY {
        return Err(RecvError::BodyTooLarge);
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let want = (content_length - body.len()).min(chunk.len());
        let got = stream.read(&mut chunk[..want]).map_err(|e| RecvError::Io(e.kind()))?;
        if got == 0 {
            return Err(RecvError::BadRequest("connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..got]);
    }
    body.truncate(content_length);

    Ok(Request { method, path, headers, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Extra headers beyond the defaults.
    pub headers: Vec<(&'static str, String)>,
    /// Content type of `body`.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: &Json) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "application/json",
            body: body.render().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            headers: Vec::new(),
            content_type: "text/plain; charset=utf-8",
            body: body.into().into_bytes(),
        }
    }

    /// A JSON error body `{"error": message}`.
    pub fn error(status: u16, message: &str) -> Response {
        Response::json(status, &Json::obj([("error", Json::str(message))]))
    }

    /// Appends a header.
    pub fn header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.headers.push((name, value.into()));
        self
    }

    /// The standard reason phrase for the codes this service emits.
    pub fn reason(status: u16) -> &'static str {
        match status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "",
        }
    }

    /// Serializes the response (always `Connection: close`).
    pub fn render(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.body.len() + 256);
        let _ = write!(
            HttpWrite(&mut out),
            "HTTP/1.1 {} {}\r\nConnection: close\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            Response::reason(self.status),
            self.content_type,
            self.body.len()
        );
        for (name, value) in &self.headers {
            let _ = write!(HttpWrite(&mut out), "{name}: {value}\r\n");
        }
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(&self.body);
        out
    }

    /// Writes the response to `stream` and flushes.
    ///
    /// # Errors
    ///
    /// Propagates socket errors (the caller logs and drops the connection).
    pub fn send(&self, stream: &mut TcpStream) -> std::io::Result<()> {
        stream.write_all(&self.render())?;
        stream.flush()
    }
}

/// Adapter: `fmt::Write` onto a byte buffer (headers are ASCII).
struct HttpWrite<'a>(&'a mut Vec<u8>);

impl std::fmt::Write for HttpWrite<'_> {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.0.extend_from_slice(s.as_bytes());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_renders_with_framing() {
        let r = Response::text(200, "hi").header("Retry-After", "1");
        let bytes = r.render();
        let s = String::from_utf8(bytes).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"), "{s}");
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(s.contains("Retry-After: 1\r\n"));
        assert!(s.ends_with("\r\n\r\nhi"));
    }

    #[test]
    fn error_bodies_are_json() {
        let r = Response::error(400, "bad \"spec\"");
        assert_eq!(r.content_type, "application/json");
        assert_eq!(String::from_utf8(r.body).unwrap(), "{\"error\":\"bad \\\"spec\\\"\"}");
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
