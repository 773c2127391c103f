//! Minimal hand-rolled HTTP/1.1 plumbing (std-only, `TcpStream`-based).
//!
//! Just enough protocol for the daemon's JSON API and for `curl`:
//! one request per connection (`Connection: close`), `Content-Length`
//! bodies, and two response shapes — a buffered byte body with a length
//! header, or a streamed body (no length, terminated by close) for large
//! trace artifacts that should never be materialized in memory.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line plus headers.
const MAX_HEAD_BYTES: usize = 64 * 1024;
/// Upper bound on a request body (sweep specs and cell reports are small).
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub(crate) struct Request {
    /// Request method, uppercase (`GET`, `POST`, ...).
    pub(crate) method: String,
    /// Path component, without the query string.
    pub(crate) path: String,
    /// Raw query string (after `?`), empty if absent.
    pub(crate) query: String,
    /// Request body (empty without a `Content-Length`).
    pub(crate) body: Vec<u8>,
}

impl Request {
    /// Reads and parses one request from `reader`.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on a malformed request line or header, an
    /// oversized head or body, or a truncated body; propagates transport
    /// errors. A clean EOF before any bytes yields `UnexpectedEof`.
    pub(crate) fn read_from(reader: &mut BufReader<TcpStream>) -> io::Result<Request> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let mut line = String::new();
        let mut head_bytes = 0;
        reader.read_line(&mut line)?;
        if line.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "empty request",
            ));
        }
        head_bytes += line.len();
        let mut parts = line.split_whitespace();
        let method = parts
            .next()
            .ok_or_else(|| bad("missing method"))?
            .to_string();
        let target = parts.next().ok_or_else(|| bad("missing path"))?;
        if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
            return Err(bad("not an HTTP/1.x request"));
        }
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), q.to_string()),
            None => (target.to_string(), String::new()),
        };

        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header)?;
            head_bytes += header.len();
            if head_bytes > MAX_HEAD_BYTES {
                return Err(bad("request head too large"));
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(bad("malformed header"));
            };
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad("bad content-length"))?;
            }
        }
        if content_length > MAX_BODY_BYTES {
            return Err(bad("request body too large"));
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        Ok(Request {
            method,
            path,
            query,
            body,
        })
    }

    /// The decoded value of query parameter `name`, if present (no
    /// percent-decoding — the API's parameters are plain tokens).
    pub(crate) fn query_param(&self, name: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v)
    }

    /// The path split into non-empty `/`-separated segments.
    pub(crate) fn segments(&self) -> Vec<&str> {
        self.path.split('/').filter(|s| !s.is_empty()).collect()
    }
}

/// A body-producing closure: writes the body straight to the socket.
pub(crate) type BodyWriter = Box<dyn FnOnce(&mut dyn Write) -> io::Result<()> + Send>;

/// A response body: buffered bytes, or a writer-driven stream.
pub(crate) enum Body {
    /// A fully-materialized body sent with `Content-Length`.
    Bytes(Vec<u8>),
    /// A streaming body: the closure writes directly to the (buffered)
    /// socket; the response carries no `Content-Length` and the
    /// connection close delimits it.
    Stream(BodyWriter),
}

/// An HTTP response ready to be written.
pub(crate) struct Response {
    /// Status code.
    pub(crate) status: u16,
    /// `Content-Type` header value.
    pub(crate) content_type: &'static str,
    /// The body.
    pub(crate) body: Body,
}

impl Response {
    /// A JSON response.
    pub(crate) fn json(status: u16, value: &hintm::Json) -> Response {
        Response {
            status,
            content_type: "application/json",
            body: Body::Bytes(value.to_string().into_bytes()),
        }
    }

    /// A plain-text response.
    pub(crate) fn text(status: u16, text: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            body: Body::Bytes(text.into().into_bytes()),
        }
    }

    /// A buffered response with an explicit content type (e.g. CSV).
    pub(crate) fn bytes(status: u16, content_type: &'static str, body: Vec<u8>) -> Response {
        Response {
            status,
            content_type,
            body: Body::Bytes(body),
        }
    }

    /// A streaming response: `f` writes the body straight to the socket.
    pub(crate) fn stream(
        content_type: &'static str,
        f: impl FnOnce(&mut dyn Write) -> io::Result<()> + Send + 'static,
    ) -> Response {
        Response {
            status: 200,
            content_type,
            body: Body::Stream(Box::new(f)),
        }
    }

    /// A JSON `{"error": msg}` response.
    pub(crate) fn error(status: u16, msg: impl Into<String>) -> Response {
        Response::json(
            status,
            &hintm::Json::Obj(vec![("error".into(), hintm::Json::Str(msg.into()))]),
        )
    }

    /// Serializes the response onto `stream` (head, then body). Always
    /// sends `Connection: close`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the socket write fails.
    pub(crate) fn write_to(self, stream: TcpStream) -> io::Result<()> {
        let mut w = BufWriter::new(stream);
        let reason = match self.status {
            200 => "OK",
            201 => "Created",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            410 => "Gone",
            _ => "Internal Server Error",
        };
        write!(
            w,
            "HTTP/1.1 {} {reason}\r\nContent-Type: {}\r\nConnection: close\r\n",
            self.status, self.content_type
        )?;
        match self.body {
            Body::Bytes(bytes) => {
                write!(w, "Content-Length: {}\r\n\r\n", bytes.len())?;
                w.write_all(&bytes)?;
            }
            Body::Stream(f) => {
                w.write_all(b"\r\n")?;
                f(&mut w)?;
            }
        }
        w.flush()
    }
}

/// A tiny blocking HTTP client for worker mode and tests: sends one
/// request, reads the whole response.
///
/// # Errors
///
/// Returns the transport error, or `InvalidData` on a malformed status
/// line.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;

    let mut reader = BufReader::new(stream);
    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad status line: {status_line:?}"),
            )
        })?;
    // Skip headers; the connection close delimits the body.
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        if line.trim_end().is_empty() {
            break;
        }
    }
    let mut body = Vec::new();
    reader.read_to_end(&mut body)?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_request_and_writes_response() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let req = Request::read_from(&mut reader).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/sweeps");
            assert_eq!(req.query_param("format"), Some("csv"));
            assert_eq!(req.segments(), vec!["sweeps"]);
            assert_eq!(req.body, b"{\"x\":1}");
            Response::text(200, "hello").write_to(stream).unwrap();
        });
        let (status, body) = client_request(&addr, "POST", "/sweeps?format=csv", b"{\"x\":1}")
            .expect("client request");
        assert_eq!(status, 200);
        assert_eq!(body, b"hello");
        server.join().unwrap();
    }

    #[test]
    fn streams_bodies_without_content_length() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            Request::read_from(&mut reader).unwrap();
            Response::stream("application/octet-stream", |w| {
                for chunk in [b"abc".as_slice(), b"def"] {
                    w.write_all(chunk)?;
                }
                Ok(())
            })
            .write_to(stream)
            .unwrap();
        });
        let (status, body) = client_request(&addr, "GET", "/x", b"").unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, b"abcdef");
        server.join().unwrap();
    }

    #[test]
    fn rejects_malformed_requests() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"NONSENSE\r\n\r\n").unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream);
        assert!(Request::read_from(&mut reader).is_err());
        client.join().unwrap();
    }
}
