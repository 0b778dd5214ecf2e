//! Serving-core scenario: idle session scale on both wires, HTTP
//! throughput against the framed protocol, and byte-validated result
//! formats.
//!
//! Three sweeps over `ssdm::http`'s event-loop server:
//!
//! 1. **idle scale** — ≥1000 HTTP keep-alive connections *and* ≥1000
//!    framed sessions held open at once on one server, each having
//!    served a request; a request issued over a parked connection of
//!    either wire still answers. Claim: the process thread count does
//!    not grow with connections (the reactor owns them all).
//! 2. **throughput** — the same engine behind the HTTP and the framed
//!    listener, sequential and concurrent request streams over
//!    persistent connections; requests/s for both, printed, not checked.
//! 3. **format round trip** — `GET /query` across the four negotiated
//!    result formats. Claim: each response body is byte-identical to
//!    the serializer's output for the expected result.
//!
//! ```text
//! repro_http [--quick] [--out PATH]
//! ```

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use scisparql::{QueryResult, Value};
use ssdm::http::{results, Format, HttpConfig, HttpServer, ShutdownHandle};
use ssdm::server::{Client, Server, ServerConfig};
use ssdm::tenant::{TenantQuotas, TenantRegistry};
use ssdm::{Backend, Ssdm};
use ssdm_bench::client::{connect, get, query_target};
use ssdm_bench::{best_of, Args, Bar, Fmt, Report};

const QUERY: &str = "SELECT ?o WHERE { <http://e#s7> <http://e#p> ?o }";

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

/// The current thread count of this process (`/proc/self/status`);
/// `None` off Linux.
fn process_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Requests per second over `conns`, each on its own thread making
/// `requests` calls of `one`.
fn rps<C: Send>(conns: Vec<C>, requests: usize, one: impl Fn(&mut C) + Sync) -> f64 {
    let total = (conns.len() * requests) as f64;
    let start = Instant::now();
    std::thread::scope(|s| {
        for mut conn in conns {
            let one = &one;
            s.spawn(move || (0..requests).for_each(|_| one(&mut conn)));
        }
    });
    total / start.elapsed().as_secs_f64()
}

fn main() -> ExitCode {
    let args = Args::parse("repro_http", &["--quick", "--out PATH"]);
    let mut report = Report::new(&args);
    let quick = args.quick();
    let idle_target: usize = if quick { 256 } else { 1000 };
    let seq_requests: usize = if quick { 200 } else { 1000 };
    let conc_clients: usize = 8;
    let conc_requests: usize = if quick { 50 } else { 200 };
    report.config(&[
        ("idle_connections", idle_target.into()),
        ("sequential_requests", seq_requests.into()),
        ("concurrent_clients", conc_clients.into()),
        ("requests_per_client", conc_requests.into()),
    ]);

    // The bench process holds both ends of every idle connection, on
    // both wires.
    let _ = ssdm::http::raise_nofile_limit((idle_target as u64) * 4 + 512);
    println!("serving core: idle session scale, throughput http vs framed, format round trip");

    // --- Sweep 1: idle session scale, both wires on one server -----------
    let config = ServerConfig {
        max_connections: idle_target * 4,
        idle_timeout: Duration::from_secs(600),
        ..ServerConfig::default()
    };
    let mut server = Server::bind_with("127.0.0.1:0", engine(), config).expect("bind framed");
    let framed_addr = server.local_addr().expect("framed addr");
    let addr = server.enable_http("127.0.0.1:0").expect("bind http");
    let join = std::thread::spawn(move || server.serve().expect("serve"));
    // Warm up first so the reactor and its worker pool exist before the
    // baseline thread count is taken — what must stay flat is the count
    // per *connection*, not the fixed pool.
    assert_eq!(
        get(&mut connect(addr), "/healthz", "*/*").0,
        200,
        "warm-up request"
    );
    let threads_before = process_threads();
    let (establish_ms, (mut parked, mut parked_framed)) = best_of(1, || {
        let http = (0..idle_target).map(|i| {
            let mut reader = connect(addr);
            assert_eq!(
                get(&mut reader, "/healthz", "*/*").0,
                200,
                "connection {i} served"
            );
            reader
        });
        let http: Vec<_> = http.collect();
        let framed = (0..idle_target).map(|_| {
            let mut client = Client::connect(framed_addr).expect("framed connect");
            client.query("ASK { }").expect("framed session served");
            client
        });
        (http, framed.collect::<Vec<_>>())
    });
    let thread_growth = match (threads_before, process_threads()) {
        (Some(before), Some(with)) => Some(with as i64 - before as i64),
        _ => None,
    };
    // A parked connection is still live: ask it for a query.
    let mid = parked.len() / 2;
    let (status, body) = get(&mut parked[mid], &query_target("/query", QUERY), "text/csv");
    assert_eq!(
        (status, body.as_slice()),
        (200, &b"o\r\n7\r\n"[..]),
        "parked connection"
    );
    let (_, rows) = parked_framed[mid]
        .query_rows(QUERY)
        .expect("parked framed session still answers");
    assert_eq!(rows, vec![vec!["7".to_string()]]);
    report.table(
        "idle_scale",
        "idle sessions held on one server (parked query answered on both wires ✓)",
        &[
            ("keep-alive connections", "connections", Fmt::Plain),
            ("framed sessions", "framed_sessions", Fmt::Plain),
            ("establish s", "establish_s", Fmt::Fixed(2)),
            ("thread growth", "thread_growth", Fmt::Plain),
        ],
        vec![vec![
            parked.len().into(),
            parked_framed.len().into(),
            (establish_ms / 1e3).into(),
            thread_growth.into(),
        ]],
    );
    parked.clear();
    let mut last = parked_framed.pop().expect("a framed session");
    parked_framed.clear();
    last.shutdown().expect("framed shutdown");
    join.join().expect("idle server thread");

    // --- Sweep 2: throughput vs the framed protocol ----------------------
    let http_target = query_target("/query", QUERY);
    let (addr, handle, join) = start_http(HttpConfig::default());
    let http_conn = || {
        let mut reader = connect(addr);
        get(&mut reader, &http_target, "text/csv"); // warm up
        reader
    };
    let http_get = |reader: &mut _| assert_eq!(get(reader, &http_target, "text/csv").0, 200);
    let http_seq = rps(vec![http_conn()], seq_requests, http_get);
    let conns = (0..conc_clients).map(|_| http_conn()).collect();
    let http_conc = rps(conns, conc_requests, http_get);
    handle.shutdown();
    join.join().expect("throughput server thread");

    let config = ServerConfig {
        workers: conc_clients,
        ..ServerConfig::default()
    };
    let framed_server = Server::bind_with("127.0.0.1:0", engine(), config).expect("bind framed");
    let framed_addr = framed_server.local_addr().expect("framed addr");
    let framed_join = std::thread::spawn(move || framed_server.serve().expect("framed serve"));
    let framed_conn = || {
        let mut client = Client::connect(framed_addr).expect("framed client");
        client.query(QUERY).expect("warm up");
        client
    };
    let framed_query = |client: &mut Client| {
        client.query(QUERY).expect("framed query");
    };
    let framed_seq = rps(vec![framed_conn()], seq_requests, framed_query);
    let conns = (0..conc_clients).map(|_| framed_conn()).collect();
    let framed_conc = rps(conns, conc_requests, framed_query);
    framed_conn().shutdown().expect("framed shutdown");
    framed_join.join().expect("framed server thread");
    report.table(
        "throughput",
        "throughput, one shared engine",
        &[
            ("protocol", "protocol", Fmt::Plain),
            ("sequential req/s", "sequential_rps", Fmt::Fixed(0)),
            ("8-way req/s", "concurrent_rps", Fmt::Fixed(0)),
        ],
        vec![
            vec![
                "http/1.1 keep-alive".into(),
                http_seq.into(),
                http_conc.into(),
            ],
            vec!["framed tcp".into(), framed_seq.into(), framed_conc.into()],
        ],
    );

    // --- Sweep 3: byte-validated format round trip -----------------------
    let (addr, handle, join) = start_http(HttpConfig::default());
    let expected = QueryResult::Solutions {
        vars: vec!["o".into()],
        rows: vec![vec![Some(Value::integer(7))]],
    };
    let formats = [
        ("application/sparql-results+json", Format::Json),
        ("application/sparql-results+xml", Format::Xml),
        ("text/csv", Format::Csv),
        ("text/tab-separated-values", Format::Tsv),
    ];
    let identical = formats.iter().filter(|(accept, format)| {
        let (status, body) = get(&mut connect(addr), &http_target, accept);
        status == 200 && body == results::serialize(&expected, *format)
    });
    let identical = identical.count();
    handle.shutdown();
    join.join().expect("format server thread");

    if let Some(growth) = thread_growth {
        let claim = format!("thread growth holding {idle_target} connections per wire");
        report.check(claim, growth as f64, Bar::Equals(0.0));
    }
    let claim = "byte-identical response bodies, one per result format";
    report.check(claim, identical as f64, Bar::Equals(formats.len() as f64));
    report.finish()
}
