//! HTTP bodies larger than the connection's receive cap, over a real
//! socket against the real event loop.
//!
//! A body above `max_buffered` (1 MiB) and within `max_body_bytes`
//! (16 MiB) used to stop arriving at the cap while the level-triggered
//! poller kept reporting the socket readable: the request never
//! completed and the reactor spun until the idle bound reaped the
//! connection. The spin is what is asserted against — reactor wake-ups
//! (`ssdm_http_reactor_wakeups_total`, one per return of the poller)
//! stay proportional to the bytes sent — not a wall-clock bound.
//!
//! One test function: the wake-up counter is process-wide, and this
//! file's process runs no other server beside it.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use ssdm::http::{HttpConfig, HttpServer};
use ssdm::tenant::{TenantQuotas, TenantRegistry};
use ssdm::{Backend, Ssdm};

fn wakeups() -> u64 {
    ssdm_obs::recorder()
        .counter("ssdm_http_reactor_wakeups_total")
        .get()
}

/// Send `request` in socket-sized writes, then read one response with
/// a `Content-Length` body. Returns its status line and body.
fn exchange(stream: &mut TcpStream, request: &[u8]) -> (String, String) {
    // The server may answer (and close) before it has read everything.
    let _ = stream.write_all(request);
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        assert_eq!(
            stream.read(&mut byte).unwrap(),
            1,
            "response head cut short"
        );
        raw.push(byte[0]);
    }
    let head = String::from_utf8(raw).unwrap();
    let length: usize = head
        .lines()
        .find_map(|l| {
            l.to_ascii_lowercase()
                .strip_prefix("content-length:")
                .map(|v| v.trim().parse().unwrap())
        })
        .unwrap_or(0);
    let mut body = vec![0u8; length];
    stream.read_exact(&mut body).unwrap();
    (
        head.lines().next().unwrap().to_string(),
        String::from_utf8(body).unwrap(),
    )
}

#[test]
fn bodies_over_the_receive_cap_complete_or_are_refused_without_spinning() {
    let config = HttpConfig::default();
    assert!(config.max_buffered < 2 << 20 && config.limits.max_body_bytes >= 2 << 20);
    let server = HttpServer::bind("127.0.0.1:0", config).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let registry = Arc::new(TenantRegistry::new(
        Ssdm::open(Backend::Memory),
        TenantQuotas::default(),
    ));
    let join = std::thread::spawn(move || server.serve_registry(registry));

    // A 2 MiB update: one triple and a long comment.
    let statement = "INSERT DATA { <http://ex/big> <http://ex/p> 7 } #";
    let body = format!("{statement}{}", "x".repeat((2 << 20) - statement.len()));
    let head = "POST /update HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-update\r\n";
    let sized = format!("{head}Content-Length: {}\r\n\r\n{body}", body.len());
    let mut chunked = format!("{head}Transfer-Encoding: chunked\r\n\r\n");
    for piece in body.as_bytes().chunks(300_000) {
        chunked += &format!("{:x}\r\n", piece.len());
        chunked += std::str::from_utf8(piece).unwrap();
        chunked += "\r\n";
    }
    chunked += "0\r\n\r\n";

    let mut stream = TcpStream::connect(addr).unwrap();
    for (what, request) in [("Content-Length", &sized), ("chunked", &chunked)] {
        let before = wakeups();
        let (status, _) = exchange(&mut stream, request.as_bytes());
        assert!(status.starts_with("HTTP/1.1 2"), "{what}: {status}");
        let woke = wakeups() - before;
        // Every wake-up that is not a spin read at least one byte; a
        // loopback write lands in pieces of kilobytes, not bytes.
        let budget = request.len() as u64 / 4096 + 64;
        assert!(
            woke <= budget,
            "{what}: {woke} reactor wake-ups for {} bytes",
            request.len()
        );
    }
    // The update was applied, on the same keep-alive connection.
    let ask = "GET /query?query=ASK%20%7B%20%3Chttp%3A%2F%2Fex%2Fbig%3E%20%3Chttp%3A%2F%2Fex%2Fp%3E%207%20%7D HTTP/1.1\r\nHost: t\r\nAccept: text/csv\r\n\r\n";
    let (status, answer) = exchange(&mut stream, ask.as_bytes());
    assert!(status.starts_with("HTTP/1.1 200"), "{status}");
    assert!(answer.contains("true"), "{answer}");

    // 17 MiB announced: refused on the announcement. Only the head is
    // ever sent, so nothing of the body can have been buffered.
    for announce in [
        format!("{head}Content-Length: {}\r\n\r\n", 17 << 20),
        format!("{head}Transfer-Encoding: chunked\r\n\r\n{:x}\r\n", 17 << 20),
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        let before = wakeups();
        let (status, _) = exchange(&mut stream, announce.as_bytes());
        assert!(status.starts_with("HTTP/1.1 413"), "{status}");
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).unwrap();
        assert!(rest.is_empty(), "the connection closes after the refusal");
        assert!(wakeups() - before <= 64, "{} wake-ups", wakeups() - before);
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}
