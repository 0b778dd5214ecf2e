//! From-scratch HTTP/1.1 request parsing.
//!
//! Covers exactly what a SPARQL 1.1 Protocol endpoint needs: the
//! request line, header fields, `Content-Length` and chunked
//! transfer-coding bodies, percent-decoding of the request target, and
//! `application/x-www-form-urlencoded` body decoding. The parser is
//! restartable — it is re-run over the connection's receive buffer
//! until a full request is present — and every limit violation maps to
//! the HTTP status the peer should see.

/// Request methods the protocol endpoint distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    Get,
    Head,
    Post,
    Other,
}

impl Method {
    fn parse(s: &str) -> Method {
        match s {
            "GET" => Method::Get,
            "HEAD" => Method::Head,
            "POST" => Method::Post,
            _ => Method::Other,
        }
    }
}

/// Parser limits, all enforced before any allocation proportional to
/// the peer's claim.
#[derive(Debug, Clone, Copy)]
pub struct Limits {
    /// Cap on the header block (request line + headers + CRLFCRLF).
    pub max_head_bytes: usize,
    /// Cap on the decoded body.
    pub max_body_bytes: usize,
    /// Cap on the number of header fields.
    pub max_headers: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits {
            max_head_bytes: 64 * 1024,
            max_body_bytes: 16 * 1024 * 1024,
            max_headers: 100,
        }
    }
}

/// A fully parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    pub method: Method,
    /// Percent-decoded path component of the target.
    pub path: String,
    /// Decoded `key=value` pairs of the target's query string.
    pub query_pairs: Vec<(String, String)>,
    /// Lower-cased header names with their values.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the connection may carry further requests afterwards.
    pub keep_alive: bool,
}

impl Request {
    /// First value of a (lower-case) header name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query-string value for a key.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query_pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The media type of the body, lower-cased, parameters stripped.
    pub fn content_type(&self) -> Option<String> {
        self.header("content-type").map(|v| {
            v.split(';')
                .next()
                .unwrap_or("")
                .trim()
                .to_ascii_lowercase()
        })
    }
}

/// A protocol error the peer should be told about (then dropped — after
/// a framing error the stream cannot be trusted).
#[derive(Debug, Clone)]
pub struct ParseError {
    pub status: u16,
    pub message: String,
}

impl ParseError {
    fn new(status: u16, message: impl Into<String>) -> ParseError {
        ParseError {
            status,
            message: message.into(),
        }
    }
}

/// What one parse attempt over the receive buffer produced.
#[derive(Debug)]
pub enum Parsed {
    /// Not enough bytes yet; `expects_continue` is set when a complete
    /// header block announced `Expect: 100-continue` and the body has
    /// not fully arrived (the server should send the interim response).
    /// `need` is the buffer length the parser is waiting for before it
    /// can get any further: the end of the body a `Content-Length`
    /// announced, the end of the chunk whose size line it has read, or
    /// one byte more than it has when nothing has been announced yet.
    /// The connection stretches its receive cap to it, so a body larger
    /// than the cap still arrives; every announced length has passed
    /// its limit before it is reported here.
    Incomplete {
        expects_continue: bool,
        need: usize,
    },
    /// One request plus how many buffer bytes it consumed.
    Complete(Box<Request>, usize),
    Error(ParseError),
}

/// Try to parse one request from the front of `buf`.
pub fn parse_request(buf: &[u8], limits: &Limits) -> Parsed {
    // Locate the end of the header block.
    let head_end = match find_double_crlf(buf) {
        Some(i) => i,
        None => {
            if buf.len() > limits.max_head_bytes {
                return Parsed::Error(ParseError::new(431, "request header block too large"));
            }
            return Parsed::Incomplete {
                expects_continue: false,
                need: buf.len() + 1,
            };
        }
    };
    if head_end > limits.max_head_bytes {
        return Parsed::Error(ParseError::new(431, "request header block too large"));
    }
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(h) => h,
        Err(_) => return Parsed::Error(ParseError::new(400, "request head is not UTF-8")),
    };
    let body_start = head_end + 4;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split(' ');
    let (method_s, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() && !t.is_empty() => {
            (m, t, v)
        }
        _ => return Parsed::Error(ParseError::new(400, "malformed request line")),
    };
    let http11 = match version {
        "HTTP/1.1" => true,
        "HTTP/1.0" => false,
        _ => return Parsed::Error(ParseError::new(505, "HTTP version not supported")),
    };
    let method = Method::parse(method_s);

    // Headers.
    let mut headers: Vec<(String, String)> = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if headers.len() >= limits.max_headers {
            return Parsed::Error(ParseError::new(431, "too many header fields"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Error(ParseError::new(400, "malformed header field"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };

    // Keep-alive semantics: 1.1 defaults on, 1.0 defaults off.
    let connection = header("connection").unwrap_or("").to_ascii_lowercase();
    let keep_alive = if connection.split(',').any(|t| t.trim() == "close") {
        false
    } else if connection.split(',').any(|t| t.trim() == "keep-alive") {
        true
    } else {
        http11
    };
    let expects_continue = header("expect")
        .map(|v| v.eq_ignore_ascii_case("100-continue"))
        .unwrap_or(false);

    // Body framing.
    let chunked = header("transfer-encoding")
        .map(|v| v.to_ascii_lowercase().contains("chunked"))
        .unwrap_or(false);
    let (body, consumed) = if chunked {
        match parse_chunked(&buf[body_start..], limits) {
            ChunkedBody::Incomplete { need } => {
                return Parsed::Incomplete {
                    expects_continue,
                    need: body_start + need,
                }
            }
            ChunkedBody::Error(e) => return Parsed::Error(e),
            ChunkedBody::Complete(body, used) => (body, body_start + used),
        }
    } else if let Some(v) = header("content-length") {
        let Ok(len) = v.trim().parse::<usize>() else {
            return Parsed::Error(ParseError::new(400, "malformed Content-Length"));
        };
        if len > limits.max_body_bytes {
            return Parsed::Error(ParseError::new(413, "request body too large"));
        }
        if buf.len() < body_start + len {
            return Parsed::Incomplete {
                expects_continue,
                need: body_start + len,
            };
        }
        (buf[body_start..body_start + len].to_vec(), body_start + len)
    } else {
        (Vec::new(), body_start)
    };

    // Decode the target.
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let Some(path) = percent_decode(raw_path, false) else {
        return Parsed::Error(ParseError::new(400, "malformed percent-encoding in path"));
    };
    let query_pairs = match raw_query {
        None => Vec::new(),
        Some(q) => match parse_urlencoded(q) {
            Some(pairs) => pairs,
            None => {
                return Parsed::Error(ParseError::new(400, "malformed query string"));
            }
        },
    };

    Parsed::Complete(
        Box::new(Request {
            method,
            path,
            query_pairs,
            headers,
            body,
            keep_alive,
        }),
        consumed,
    )
}

enum ChunkedBody {
    /// `need`: the length of `buf` that holds the chunk in progress.
    Incomplete {
        need: usize,
    },
    Complete(Vec<u8>, usize),
    Error(ParseError),
}

/// Decode a chunked transfer-coding body: `size-hex CRLF data CRLF`
/// repeated, terminated by a zero chunk and a trailer section we accept
/// but discard.
fn parse_chunked(buf: &[u8], limits: &Limits) -> ChunkedBody {
    let mut body = Vec::new();
    let mut pos = 0usize;
    loop {
        let Some(line_end) = find_crlf(&buf[pos..]) else {
            return ChunkedBody::Incomplete {
                need: buf.len() + 1,
            };
        };
        let size_line = &buf[pos..pos + line_end];
        let Some(size) = std::str::from_utf8(size_line)
            .ok()
            .map(|s| s.split(';').next().unwrap_or("").trim())
            .and_then(|s| usize::from_str_radix(s, 16).ok())
        else {
            return ChunkedBody::Error(ParseError::new(400, "malformed chunk size"));
        };
        pos += line_end + 2;
        if size == 0 {
            // Trailer section: zero or more header lines, then CRLF.
            loop {
                let Some(te) = find_crlf(&buf[pos..]) else {
                    return ChunkedBody::Incomplete {
                        need: buf.len() + 1,
                    };
                };
                pos += te + 2;
                if te == 0 {
                    return ChunkedBody::Complete(body, pos);
                }
            }
        }
        // `body.len()` never exceeds the cap, so this cannot overflow
        // whatever size the peer announces.
        if size > limits.max_body_bytes - body.len() {
            return ChunkedBody::Error(ParseError::new(413, "request body too large"));
        }
        if buf.len() < pos + size + 2 {
            return ChunkedBody::Incomplete {
                need: pos + size + 2,
            };
        }
        body.extend_from_slice(&buf[pos..pos + size]);
        if &buf[pos + size..pos + size + 2] != b"\r\n" {
            return ChunkedBody::Error(ParseError::new(400, "chunk data not CRLF-terminated"));
        }
        pos += size + 2;
    }
}

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Percent-decode a component; `plus_is_space` applies the form rule
/// (`+` → space). Returns `None` on truncated or non-hex escapes or
/// non-UTF-8 results.
pub fn percent_decode(s: &str, plus_is_space: bool) -> Option<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let h = bytes.get(i + 1).and_then(|b| (*b as char).to_digit(16))?;
                let l = bytes.get(i + 2).and_then(|b| (*b as char).to_digit(16))?;
                out.push((h * 16 + l) as u8);
                i += 3;
            }
            b'+' if plus_is_space => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).ok()
}

/// Decode an `application/x-www-form-urlencoded` payload (also the
/// query-string syntax) into ordered pairs.
pub fn parse_urlencoded(s: &str) -> Option<Vec<(String, String)>> {
    let mut pairs = Vec::new();
    for piece in s.split('&') {
        if piece.is_empty() {
            continue;
        }
        let (k, v) = piece.split_once('=').unwrap_or((piece, ""));
        pairs.push((percent_decode(k, true)?, percent_decode(v, true)?));
    }
    Some(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(raw: &[u8]) -> (Request, usize) {
        match parse_request(raw, &Limits::default()) {
            Parsed::Complete(r, n) => (*r, n),
            other => panic!("expected complete request, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_query_string() {
        let raw =
            b"GET /query?query=SELECT%20%2A%20WHERE%20%7B%7D&x=a+b HTTP/1.1\r\nHost: h\r\n\r\n";
        let (req, used) = parse_ok(raw);
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.path, "/query");
        assert_eq!(req.query_param("query"), Some("SELECT * WHERE {}"));
        assert_eq!(req.query_param("x"), Some("a b"));
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn parses_post_with_content_length_body() {
        let raw = b"POST /update HTTP/1.1\r\nContent-Type: application/sparql-update\r\nContent-Length: 5\r\n\r\nhello";
        let (req, used) = parse_ok(raw);
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.body, b"hello");
        assert_eq!(
            req.content_type().as_deref(),
            Some("application/sparql-update")
        );
        assert_eq!(used, raw.len());
    }

    #[test]
    fn parses_chunked_body_with_trailers() {
        let raw = b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nSELE\r\n3\r\nCT*\r\n0\r\nX-Trailer: v\r\n\r\n";
        let (req, used) = parse_ok(raw);
        assert_eq!(req.body, b"SELECT*");
        assert_eq!(used, raw.len());
    }

    #[test]
    fn pipelined_requests_consume_exactly_one() {
        let one = b"GET /metrics HTTP/1.1\r\n\r\n";
        let mut raw = one.to_vec();
        raw.extend_from_slice(b"GET /stats HTTP/1.1\r\n\r\n");
        let (req, used) = parse_ok(&raw);
        assert_eq!(req.path, "/metrics");
        assert_eq!(used, one.len());
        let (req2, _) = parse_ok(&raw[used..]);
        assert_eq!(req2.path, "/stats");
    }

    #[test]
    fn incomplete_returns_incomplete_and_flags_expect_continue() {
        match parse_request(b"POST /q HTTP/1.1\r\nContent-Le", &Limits::default()) {
            Parsed::Incomplete {
                expects_continue,
                need,
            } => {
                assert!(!expects_continue);
                assert_eq!(need, 28 + 1, "no length announced yet: one more byte");
            }
            other => panic!("{other:?}"),
        }
        let head = b"POST /q HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 10\r\n\r\nabc";
        match parse_request(head, &Limits::default()) {
            Parsed::Incomplete {
                expects_continue,
                need,
            } => {
                assert!(expects_continue);
                assert_eq!(need, head.len() + 7, "the announced body's end");
            }
            other => panic!("{other:?}"),
        }
        let chunked = b"POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n10\r\nde";
        match parse_request(chunked, &Limits::default()) {
            Parsed::Incomplete { need, .. } => {
                assert_eq!(need, chunked.len() + 14 + 2, "the announced chunk's end")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn http10_defaults_to_close_and_connection_header_overrides() {
        let (req, _) = parse_ok(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!req.keep_alive);
        let (req, _) = parse_ok(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(req.keep_alive);
        let (req, _) = parse_ok(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!req.keep_alive);
    }

    #[test]
    fn limit_violations_map_to_statuses() {
        let limits = Limits {
            max_head_bytes: 32,
            max_body_bytes: 4,
            max_headers: 2,
        };
        let long_head = format!("GET /{} HTTP/1.1\r\n\r\n", "x".repeat(64));
        match parse_request(long_head.as_bytes(), &limits) {
            Parsed::Error(e) => assert_eq!(e.status, 431),
            other => panic!("{other:?}"),
        }
        let body_limits = Limits {
            max_head_bytes: 128,
            max_body_bytes: 4,
            max_headers: 10,
        };
        match parse_request(
            b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\n",
            &body_limits,
        ) {
            Parsed::Error(e) => assert_eq!(e.status, 413),
            other => panic!("{other:?}"),
        }
        match parse_request(b"GET / HTTP/2\r\n\r\n", &Limits::default()) {
            Parsed::Error(e) => assert_eq!(e.status, 505),
            other => panic!("{other:?}"),
        }
        match parse_request(b"garbage\r\n\r\n", &Limits::default()) {
            Parsed::Error(e) => assert_eq!(e.status, 400),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn percent_decoding_rejects_bad_escapes() {
        assert_eq!(percent_decode("a%2Fb", false).as_deref(), Some("a/b"));
        assert_eq!(percent_decode("a%2", false), None);
        assert_eq!(percent_decode("a%zz", false), None);
        assert_eq!(percent_decode("a+b", true).as_deref(), Some("a b"));
        assert_eq!(percent_decode("a+b", false).as_deref(), Some("a+b"));
    }

    #[test]
    fn form_decoding_handles_empty_and_valueless_keys() {
        let pairs = parse_urlencoded("query=ASK%7B%7D&flag&x=").unwrap();
        assert_eq!(
            pairs,
            vec![
                ("query".into(), "ASK{}".into()),
                ("flag".into(), String::new()),
                ("x".into(), String::new()),
            ]
        );
    }
}
