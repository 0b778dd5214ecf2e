//! Serving-core scenario: idle session scale on both wires, HTTP
//! throughput against the framed protocol, and byte-validated result
//! formats.
//!
//! Three sweeps over `ssdm::http`'s event-loop server:
//!
//! 1. **idle scale** — ≥1000 HTTP keep-alive connections *and* ≥1000
//!    framed sessions held open at once on one server, each having
//!    served a request; the process thread count must not grow with
//!    connections (the reactor owns them all), and a request issued
//!    over a parked connection of either wire still answers.
//! 2. **throughput** — the same engine behind the HTTP and the framed
//!    listener, sequential and concurrent request streams over
//!    persistent connections; requests/s for both.
//! 3. **format round trip** — `GET /query` across the four negotiated
//!    result formats; each response body must be byte-identical to the
//!    serializer's output for the expected result.
//!
//! The binary *asserts* the PR's acceptance criteria and writes the
//! measurements as JSON (default `BENCH_http.json`, `--out PATH`).
//!
//! ```text
//! repro_http [--quick] [--out PATH]
//! ```

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use scisparql::{QueryResult, Value};
use ssdm::http::{results, Format, HttpConfig, HttpServer, ShutdownHandle};
use ssdm::server::{Client, Server, ServerConfig};
use ssdm::tenant::{TenantQuotas, TenantRegistry};
use ssdm::{Backend, Ssdm};
use ssdm_bench::runner::print_table;

fn usage() -> ! {
    eprintln!("usage: repro_http [--quick] [--out PATH]");
    std::process::exit(2)
}

/// A small engine with a predictable answer for every request shape the
/// sweeps use.
fn engine() -> Ssdm {
    let mut db = Ssdm::open(Backend::Memory);
    let mut turtle = String::from("@prefix ex: <http://e#> .\n");
    for i in 0..100 {
        turtle.push_str(&format!("ex:s{i} ex:p {i} .\n"));
    }
    db.load_turtle(&turtle).expect("seed triples");
    db
}

fn start_http(config: HttpConfig) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let server = HttpServer::bind("127.0.0.1:0", config).expect("bind http");
    let addr = server.local_addr().expect("http addr");
    let handle = server.shutdown_handle().expect("shutdown handle");
    let registry = Arc::new(TenantRegistry::new(engine(), TenantQuotas::default()));
    let join = std::thread::spawn(move || server.serve_registry(registry).expect("http serve"));
    (addr, handle, join)
}

/// Read one HTTP response off a persistent per-connection reader;
/// returns (status, body).
fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<u8>) {
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

fn send_get(stream: &mut TcpStream, target: &str, accept: &str) {
    stream
        .write_all(
            format!("GET {target} HTTP/1.1\r\nHost: bench\r\nAccept: {accept}\r\n\r\n").as_bytes(),
        )
        .expect("request write");
}

/// The current thread count of this process (`/proc/self/status`);
/// `None` off Linux.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

fn percent_encode(query: &str) -> String {
    let mut out = String::new();
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

fn main() {
    let mut quick = false;
    let mut out = "BENCH_http.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    let idle_target: usize = if quick { 256 } else { 1000 };
    let seq_requests: usize = if quick { 200 } else { 1000 };
    let conc_clients: usize = 8;
    let conc_requests: usize = if quick { 50 } else { 200 };

    // The bench process holds both ends of every idle connection, on
    // both wires.
    let _ = ssdm::http::raise_nofile_limit((idle_target as u64) * 4 + 512);

    println!("serving core: idle session scale, throughput http vs framed, format round trip");

    // --- Sweep 1: idle session scale, both wires on one server -----------
    let mut server = Server::bind_with(
        "127.0.0.1:0",
        engine(),
        ServerConfig {
            max_connections: idle_target * 4,
            idle_timeout: Duration::from_secs(600),
            ..ServerConfig::default()
        },
    )
    .expect("bind framed");
    let framed_addr = server.local_addr().expect("framed addr");
    let addr = server.enable_http("127.0.0.1:0").expect("bind http");
    let join = std::thread::spawn(move || server.serve().expect("serve"));
    // Warm up first so the reactor and its worker pool exist before the
    // baseline thread count is taken — what must stay flat is the count
    // per *connection*, not the fixed pool.
    {
        let mut warm = TcpStream::connect(addr).expect("connect");
        warm.set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        send_get(&mut warm, "/healthz", "*/*");
        let mut reader = BufReader::new(warm);
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 200, "warm-up request");
    }
    let threads_before = process_threads();
    let start = Instant::now();
    let mut parked: Vec<BufReader<TcpStream>> = Vec::with_capacity(idle_target);
    for i in 0..idle_target {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        send_get(&mut stream, "/healthz", "*/*");
        let mut reader = BufReader::new(stream);
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 200, "connection {i} served");
        parked.push(reader);
    }
    let mut parked_framed: Vec<Client> = Vec::with_capacity(idle_target);
    for _ in 0..idle_target {
        let mut client = Client::connect(framed_addr).expect("framed connect");
        client.query("ASK { }").expect("framed session served");
        parked_framed.push(client);
    }
    let establish_s = start.elapsed().as_secs_f64();
    let threads_with_idle = process_threads();
    // A parked connection is still live: ask it for a query.
    let probe_target = format!(
        "/query?query={}",
        percent_encode("SELECT ?o WHERE { <http://e#s7> <http://e#p> ?o }")
    );
    let mid = parked.len() / 2;
    send_get(parked[mid].get_mut(), &probe_target, "text/csv");
    let (status, body) = read_response(&mut parked[mid]);
    assert_eq!(status, 200, "parked connection still answers");
    assert_eq!(body, b"o\r\n7\r\n", "parked-connection query result");
    let (_, rows) = parked_framed[mid]
        .query_rows("SELECT ?o WHERE { <http://e#s7> <http://e#p> ?o }")
        .expect("parked framed session still answers");
    assert_eq!(rows, vec![vec!["7".to_string()]]);
    let thread_growth = match (threads_before, threads_with_idle) {
        (Some(before), Some(with)) => Some(with as i64 - before as i64),
        _ => None,
    };
    println!(
        "idle scale: {} keep-alive connections + {} framed sessions in {:.2}s, thread growth {}",
        parked.len(),
        parked_framed.len(),
        establish_s,
        thread_growth.map_or("n/a".into(), |d| d.to_string()),
    );
    if let Some(growth) = thread_growth {
        assert_eq!(
            growth, 0,
            "holding {idle_target} connections per wire must not grow the thread count"
        );
    }
    drop(parked);
    let mut last = parked_framed.pop().expect("a framed session");
    drop(parked_framed);
    last.shutdown().expect("framed shutdown");
    join.join().expect("idle server thread");

    // --- Sweep 2: throughput vs the framed protocol ----------------------
    let query = "SELECT ?o WHERE { <http://e#s7> <http://e#p> ?o }";
    let http_target = format!("/query?query={}", percent_encode(query));

    let (addr, handle, join) = start_http(HttpConfig::default());
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    send_get(&mut stream, &http_target, "text/csv"); // warm up
    let mut reader = BufReader::new(stream);
    read_response(&mut reader);
    let start = Instant::now();
    for _ in 0..seq_requests {
        send_get(reader.get_mut(), &http_target, "text/csv");
        let (status, _) = read_response(&mut reader);
        assert_eq!(status, 200);
    }
    let http_seq_rps = seq_requests as f64 / start.elapsed().as_secs_f64();

    let start = Instant::now();
    let workers: Vec<_> = (0..conc_clients)
        .map(|_| {
            let target = http_target.clone();
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(30)))
                    .expect("timeout");
                let mut reader = BufReader::new(stream);
                for _ in 0..conc_requests {
                    send_get(reader.get_mut(), &target, "text/csv");
                    let (status, _) = read_response(&mut reader);
                    assert_eq!(status, 200);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("concurrent http client");
    }
    let http_conc_rps = (conc_clients * conc_requests) as f64 / start.elapsed().as_secs_f64();
    handle.shutdown();
    join.join().expect("throughput server thread");

    let framed_server = Server::bind_with(
        "127.0.0.1:0",
        engine(),
        ServerConfig {
            workers: conc_clients,
            ..ServerConfig::default()
        },
    )
    .expect("bind framed");
    let framed_addr = framed_server.local_addr().expect("framed addr");
    let framed_join = std::thread::spawn(move || framed_server.serve().expect("framed serve"));
    let mut client = Client::connect(framed_addr).expect("framed client");
    client.query(query).expect("warm up");
    let start = Instant::now();
    for _ in 0..seq_requests {
        client.query(query).expect("framed query");
    }
    let framed_seq_rps = seq_requests as f64 / start.elapsed().as_secs_f64();
    drop(client);
    let start = Instant::now();
    let workers: Vec<_> = (0..conc_clients)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(framed_addr).expect("framed client");
                for _ in 0..conc_requests {
                    client.query(query).expect("framed query");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("concurrent framed client");
    }
    let framed_conc_rps = (conc_clients * conc_requests) as f64 / start.elapsed().as_secs_f64();
    Client::connect(framed_addr)
        .expect("framed client")
        .shutdown()
        .expect("framed shutdown");
    framed_join.join().expect("framed server thread");

    let header: Vec<String> = ["protocol", "sequential req/s", "8-way req/s"]
        .into_iter()
        .map(String::from)
        .collect();
    let rows = vec![
        vec![
            "http/1.1 keep-alive".to_string(),
            format!("{http_seq_rps:.0}"),
            format!("{http_conc_rps:.0}"),
        ],
        vec![
            "framed tcp".to_string(),
            format!("{framed_seq_rps:.0}"),
            format!("{framed_conc_rps:.0}"),
        ],
    ];
    print_table("throughput, one shared engine", &header, &rows);

    // --- Sweep 3: byte-validated format round trip -----------------------
    let (addr, handle, join) = start_http(HttpConfig::default());
    let expected = QueryResult::Solutions {
        vars: vec!["o".into()],
        rows: vec![vec![Some(Value::integer(7))]],
    };
    let mut formats_ok = Vec::new();
    for (accept, format) in [
        ("application/sparql-results+json", Format::Json),
        ("application/sparql-results+xml", Format::Xml),
        ("text/csv", Format::Csv),
        ("text/tab-separated-values", Format::Tsv),
    ] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        send_get(&mut stream, &http_target, accept);
        let mut reader = BufReader::new(stream);
        let (status, body) = read_response(&mut reader);
        assert_eq!(status, 200, "format {accept}");
        assert_eq!(
            body,
            results::serialize(&expected, format),
            "byte-identical {accept} body"
        );
        formats_ok.push(accept);
    }
    handle.shutdown();
    join.join().expect("format server thread");
    println!(
        "format round trip ✓: {} byte-identical response bodies",
        formats_ok.len()
    );

    println!(
        "\nidle acceptance ✓: {idle_target} keep-alive connections + {idle_target} framed sessions, thread growth {}",
        thread_growth.map_or("n/a (no /proc)".into(), |d| d.to_string()),
    );

    // --- JSON -------------------------------------------------------------
    let json = format!(
        "{{\n  \"measured_at\": \"{}\",\n  \"config\": {{\"idle_connections\": {idle_target}, \
         \"sequential_requests\": {seq_requests}, \"concurrent_clients\": {conc_clients}, \
         \"requests_per_client\": {conc_requests}, \"quick\": {quick}}},\n  \
         \"idle_scale\": {{\"connections\": {idle_target}, \"framed_sessions\": {idle_target}, \"establish_s\": {establish_s:.3}, \
         \"thread_growth\": {}, \"parked_query_ok\": true}},\n  \
         \"throughput\": {{\"http_sequential_rps\": {http_seq_rps:.1}, \
         \"http_concurrent_rps\": {http_conc_rps:.1}, \
         \"framed_sequential_rps\": {framed_seq_rps:.1}, \
         \"framed_concurrent_rps\": {framed_conc_rps:.1}}},\n  \
         \"format_round_trip\": {{\"formats\": {}, \"byte_identical\": true}}\n}}\n",
        ssdm_bench::measured_at(),
        thread_growth.map_or("null".into(), |d| d.to_string()),
        formats_ok.len(),
    );
    std::fs::write(&out, json).expect("write JSON");
    println!("wrote {out}");
}
