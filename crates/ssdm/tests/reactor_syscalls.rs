//! What a point query costs the serving core in syscalls, over a real
//! socket against the real event loop.
//!
//! A keep-alive client sends point queries one after another. For each,
//! the reactor should read the request once, write the response once,
//! leave the poller's interest set alone (it stays "readable" for the
//! whole exchange), and be woken by the worker once. The process-wide
//! front-end counters (`ssdm_http_socket_reads_total`,
//! `ssdm_http_socket_writes_total`, `ssdm_http_epoll_ctl_total`,
//! `ssdm_http_waker_writes_total`) are asserted per request.
//!
//! One test function: the counters are process-wide, and this file's
//! process runs no other server beside it.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use ssdm::http::{HttpConfig, HttpServer};
use ssdm::tenant::{TenantQuotas, TenantRegistry};
use ssdm::{Backend, Ssdm};

const COUNTERS: [&str; 4] = [
    "ssdm_http_socket_reads_total",
    "ssdm_http_socket_writes_total",
    "ssdm_http_epoll_ctl_total",
    "ssdm_http_waker_writes_total",
];

fn snapshot() -> [u64; 4] {
    COUNTERS.map(|name| ssdm_obs::recorder().counter(name).get())
}

/// Read one response with a `Content-Length` body; returns its status
/// code and body.
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status = String::new();
    reader.read_line(&mut status).unwrap();
    let code = status.split_whitespace().nth(1).unwrap().parse().unwrap();
    let mut length = 0;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end().is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            length = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).unwrap();
    (code, String::from_utf8(body).unwrap())
}

#[test]
fn a_keep_alive_point_query_costs_one_read_one_write_and_one_wake() {
    let mut db = Ssdm::open(Backend::Memory);
    db.query("INSERT DATA { <http://ex/s> <http://ex/p> 42 }")
        .unwrap();
    let server = HttpServer::bind("127.0.0.1:0", HttpConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle().unwrap();
    let registry = Arc::new(TenantRegistry::new(db, TenantQuotas::default()));
    let join = std::thread::spawn(move || server.serve_registry(registry));

    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let request = "GET /query?query=SELECT%20%3Fo%20WHERE%20%7B%20%3Chttp%3A%2F%2Fex%2Fs%3E%20%3Chttp%3A%2F%2Fex%2Fp%3E%20%3Fo%20%7D HTTP/1.1\r\nHost: t\r\nAccept: text/csv\r\n\r\n";

    const REQUESTS: u64 = 200;
    let before = snapshot();
    for i in 0..REQUESTS {
        (&stream).write_all(request.as_bytes()).unwrap();
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "request {i}: {body}");
        assert_eq!(body.lines().last(), Some("42"), "request {i}");
    }
    let after = snapshot();
    let [reads, writes, epoll_ctl, waker_writes] =
        [0, 1, 2, 3].map(|i| (after[i] - before[i]) as f64 / REQUESTS as f64);
    // The connection's registration may fall inside the window;
    // nothing else should touch the poller.
    assert!(reads <= 1.1, "{reads} socket reads per request");
    assert!(writes <= 1.1, "{writes} socket writes per request");
    assert!(epoll_ctl <= 0.1, "{epoll_ctl} epoll_ctl calls per request");
    // Each request is one completion.
    assert!(
        waker_writes <= 1.0,
        "{waker_writes} waker writes per completion"
    );

    // `/metrics` exports all four.
    (&stream)
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\n\r\n")
        .unwrap();
    let (status, metrics) = read_response(&mut reader);
    assert_eq!(status, 200);
    for name in COUNTERS {
        assert!(
            metrics.lines().any(|l| l.starts_with(&format!("{name} "))),
            "{name} missing from /metrics"
        );
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}
