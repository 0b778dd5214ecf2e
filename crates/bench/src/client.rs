//! A minimal HTTP/1.1 client for the serving scenarios: GET over a
//! persistent connection, reading responses by `Content-Length`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A keep-alive connection to `addr`, its reader buffered.
pub fn connect(addr: SocketAddr) -> BufReader<TcpStream> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("timeout");
    BufReader::new(stream)
}

/// One GET on a persistent connection: (status, body).
pub fn get(reader: &mut BufReader<TcpStream>, target: &str, accept: &str) -> (u16, Vec<u8>) {
    reader
        .get_mut()
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: bench\r\nAccept: {accept}\r\n\r\n").as_bytes(),
        )
        .expect("request write");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("content length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (status, body)
}

/// `path?query=…` with `query` percent-encoded.
pub fn query_target(path: &str, query: &str) -> String {
    let mut out = format!("{path}?query=");
    for b in query.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}
