//! End-to-end multi-tenant serving: lifecycle and isolation over both
//! wires, quota exhaustion and recovery, deterministic fair-share
//! under a synthetic hog, per-tenant accounting in `/metrics`, and the
//! properties that hold because both wires share one serving core —
//! quotas and the worker pool span them, a panicking statement costs
//! one reply on either, a peer that stops reading is reaped on either.
//!
//! Fairness and rate-limit behaviour are asserted against the public
//! admission surfaces (`TenantRegistry::admit` with synthetic
//! `Instant`s, `FairDispatch` pop order), and statements are held in
//! flight by a foreign function parked on a condvar, so no test depends
//! on wall-clock sleeps.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use scisparql::{ForeignFunction, Value};
use ssdm::server::{Client, Server, ServerConfig};
use ssdm::tenant::{
    FairDispatch, RateLimit, Rejection, TenantCaps, TenantQuotas, TenantRegistry, DEFAULT_QUANTUM,
};
use ssdm::{Backend, Ssdm};

fn start_server(
    tenants: &[(&str, TenantQuotas)],
) -> (SocketAddr, SocketAddr, std::thread::JoinHandle<()>) {
    let tenants = tenants
        .iter()
        .map(|(name, quotas)| (*name, Ssdm::open(Backend::Memory), *quotas))
        .collect();
    start_server_with(ServerConfig::default(), tenants)
}

fn start_server_with(
    config: ServerConfig,
    tenants: Vec<(&str, Ssdm, TenantQuotas)>,
) -> (SocketAddr, SocketAddr, std::thread::JoinHandle<()>) {
    let mut server = Server::bind_with("127.0.0.1:0", Ssdm::open(Backend::Memory), config).unwrap();
    for (name, db, quotas) in tenants {
        server.add_tenant(name, db, quotas).unwrap();
    }
    let http = server.enable_http("127.0.0.1:0").unwrap();
    let framed = server.local_addr().unwrap();
    let join = std::thread::spawn(move || server.serve().unwrap());
    (framed, http, join)
}

/// Keeps statements in flight for exactly as long as a test needs: the
/// engine's `hold()` foreign function parks its caller until `release`.
#[derive(Default)]
struct Hold {
    running: AtomicUsize,
    released: Mutex<bool>,
    cv: Condvar,
}

impl Hold {
    fn engine() -> (Ssdm, Arc<Hold>) {
        let hold = Arc::new(Hold::default());
        let mut db = Ssdm::open(Backend::Memory);
        let parked = Arc::clone(&hold);
        db.dataset.registry.register_foreign(ForeignFunction {
            name: "hold".into(),
            arity: 0,
            imp: Arc::new(move |_| {
                parked.running.fetch_add(1, Ordering::SeqCst);
                let mut released = parked.released.lock().unwrap();
                while !*released {
                    released = parked.cv.wait(released).unwrap();
                }
                Ok(Value::integer(1))
            }),
        });
        (db, hold)
    }

    fn wait_running(&self, n: usize) {
        while self.running.load(Ordering::SeqCst) < n {
            std::thread::yield_now();
        }
    }

    fn release(&self) {
        *self.released.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

const HOLD: &str = "SELECT (hold() AS ?v) WHERE { }";

/// One labelled series out of a Prometheus page.
fn series(metrics: &str, name: &str, tenant: &str) -> u64 {
    let needle = format!("{name}{{tenant=\"{tenant}\"}} ");
    metrics
        .lines()
        .find_map(|l| l.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("missing series {needle} in:\n{metrics}"))
        .trim()
        .parse()
        .unwrap()
}

/// One `Connection: close` HTTP exchange; returns (status, body).
fn http_request(addr: SocketAddr, raw: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    // A reply that never comes fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(raw.as_bytes()).unwrap();
    let mut buf = Vec::new();
    stream.read_to_end(&mut buf).unwrap();
    let text = String::from_utf8_lossy(&buf).to_string();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {text:?}"));
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    http_request(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"),
    )
}

#[test]
fn framed_tenant_lifecycle_and_isolation() {
    let (framed, _http, join) = start_server(&[
        ("alice", TenantQuotas::default()),
        ("bob", TenantQuotas::default()),
    ]);

    let mut c1 = Client::connect(framed).unwrap();
    assert_eq!(c1.current_tenant().unwrap(), "default");
    c1.use_tenant("alice").unwrap();
    assert_eq!(c1.current_tenant().unwrap(), "alice");
    c1.query("INSERT DATA { <http://s> <http://p> 7 }").unwrap();
    assert!(c1
        .query("ASK { <http://s> <http://p> 7 }")
        .unwrap()
        .contains("true"));

    // Bob and the default tenant run isolated engines: neither sees
    // Alice's row.
    let mut c2 = Client::connect(framed).unwrap();
    assert!(c2
        .query("ASK { <http://s> <http://p> 7 }")
        .unwrap()
        .contains("false"));
    c2.use_tenant("bob").unwrap();
    assert!(c2
        .query("ASK { <http://s> <http://p> 7 }")
        .unwrap()
        .contains("false"));

    // Switching to an unknown tenant fails and leaves the session put.
    assert!(c2.use_tenant("nobody").is_err());
    assert_eq!(c2.current_tenant().unwrap(), "bob");

    // STATS carries the per-tenant admission section.
    assert!(c1.query("STATS").unwrap().contains("tenant"));

    c1.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn http_tenant_routes_and_protocol_conformance() {
    let (framed, http, join) = start_server(&[("alice", TenantQuotas::default())]);

    // Seed Alice through her update endpoint.
    let body = "INSERT DATA { <http://s> <http://p> 9 }";
    let (status, _) = http_request(
        http,
        &format!(
            "POST /tenants/alice/update HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        ),
    );
    assert_eq!(status, 200);

    // Alice sees her row at her path; the default path does not.
    let ask = "/query?query=ASK%20%7B%20%3Chttp%3A%2F%2Fs%3E%20%3Chttp%3A%2F%2Fp%3E%209%20%7D";
    let (status, body) = http_get(http, &format!("/tenants/alice{ask}"));
    assert_eq!(status, 200);
    assert!(body.contains("true"));
    let (status, body) = http_get(http, ask);
    assert_eq!(status, 200);
    assert!(body.contains("false"));

    // Unknown tenants and unknown tenant endpoints are 404.
    assert_eq!(
        http_get(http, "/tenants/nobody/query?query=ASK%7B%7D").0,
        404
    );
    assert_eq!(http_get(http, "/tenants/alice/metrics").0, 404);

    // Conformance: dataset-scope params and duplicate statement
    // params are refused, parameterized Content-Type is accepted.
    let (status, body) = http_get(
        http,
        "/query?query=ASK%7B%7D&named-graph-uri=http%3A%2F%2Fg",
    );
    assert_eq!(status, 400);
    assert!(body.contains("named-graph-uri"));
    assert_eq!(
        http_get(http, "/query?query=ASK%7B%7D&query=ASK%7B%7D").0,
        400
    );
    let form = "query=ASK%20%7B%7D";
    let (status, _) = http_request(
        http,
        &format!(
            "POST /tenants/alice/query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\
             Content-Type: application/x-www-form-urlencoded; charset=UTF-8\r\n\
             Content-Length: {}\r\n\r\n{}",
            form.len(),
            form
        ),
    );
    assert_eq!(status, 200);

    // Per-tenant stats page exists for named tenants.
    assert_eq!(http_get(http, "/tenants/alice/stats").0, 200);

    let mut c = Client::connect(framed).unwrap();
    c.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn rate_quota_rejects_with_429_then_recovers() {
    let registry = TenantRegistry::new(Ssdm::open(Backend::Memory), TenantQuotas::default());
    registry
        .add(
            "alice",
            Ssdm::open(Backend::Memory),
            TenantQuotas {
                rate: Some(RateLimit {
                    per_sec: 1.0,
                    burst: 1.0,
                }),
                ..TenantQuotas::default()
            },
        )
        .unwrap();

    // Synthetic clock: the burst token admits one request, the second
    // at the same instant is over quota, and 1.5 simulated seconds
    // later the bucket has refilled.
    let t0 = Instant::now();
    assert!(registry.admit(Some("alice"), t0).is_ok());
    let why = match registry.admit(Some("alice"), t0) {
        Err(why) => why,
        Ok(_) => panic!("second admission at t0 should be over quota"),
    };
    assert!(matches!(why, Rejection::RateLimited(_)));
    assert_eq!(why.http_status(), 429);
    assert!(registry
        .admit(Some("alice"), t0 + Duration::from_millis(1500))
        .is_ok());

    // The rejection was counted against Alice only.
    let alice = registry.get("alice").unwrap();
    assert_eq!(
        alice
            .counters
            .rejected_rate
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
}

#[test]
fn concurrency_quota_rejects_then_recovers_after_finish() {
    let dispatch: FairDispatch<u32> = FairDispatch::new(DEFAULT_QUANTUM, 64);
    let caps = TenantCaps {
        max_concurrent: 1,
        max_queued: 1,
    };

    dispatch.push("alice", caps, 1, 1, || ()).unwrap();
    let (name, _) = dispatch.pop().unwrap(); // now active: 1
    assert_eq!(name, "alice");
    dispatch.push("alice", caps, 1, 2, || ()).unwrap(); // waiting: 1
    let (why, _) = dispatch.push("alice", caps, 1, 3, || ()).unwrap_err();
    assert!(matches!(why, Rejection::QuotaExceeded(_)));
    assert_eq!(why.http_status(), 429);

    // Finishing the active job frees an in-flight slot.
    dispatch.finish("alice");
    dispatch.push("alice", caps, 1, 3, || ()).unwrap();
}

#[test]
fn fair_share_serves_interactive_tenant_under_synthetic_hog() {
    let dispatch: FairDispatch<usize> = FairDispatch::new(DEFAULT_QUANTUM, 0);
    let caps = TenantCaps {
        max_concurrent: 64,
        max_queued: 64,
    };

    // A hog floods the queue with 20 quantum-sized jobs before the
    // interactive tenant's two small ones arrive.
    for i in 0..20 {
        dispatch
            .push("hog", caps, DEFAULT_QUANTUM, i, || ())
            .unwrap();
    }
    dispatch.push("mouse", caps, 1, 100, || ()).unwrap();
    dispatch.push("mouse", caps, 1, 101, || ()).unwrap();

    let mut order = Vec::new();
    for _ in 0..22 {
        let (name, _) = dispatch.pop().unwrap();
        dispatch.finish(&name);
        order.push(name);
    }
    // Deficit round robin interleaves by byte budget: both interactive
    // jobs are served within the first round instead of queueing
    // behind the hog's backlog (FIFO would put them at positions
    // 21-22).
    let last_mouse = order.iter().rposition(|n| n == "mouse").unwrap();
    assert!(
        last_mouse <= 4,
        "interactive tenant starved: pop order {order:?}"
    );
}

#[test]
fn per_tenant_counters_reconcile_in_metrics() {
    let (framed, http, join) = start_server(&[("alice", TenantQuotas::default())]);

    let ok = "/tenants/alice/query?query=ASK%7B%7D";
    assert_eq!(http_get(http, ok).0, 200);
    assert_eq!(http_get(http, ok).0, 200);
    // A parse error executes and fails: counted as an error, not a
    // rejection.
    assert_eq!(
        http_get(http, "/tenants/alice/query?query=NOT%20SPARQL").0,
        400
    );
    assert_eq!(http_get(http, "/query?query=ASK%7B%7D").0, 200);

    let (status, metrics) = http_get(http, "/metrics");
    assert_eq!(status, 200);
    let series = |name: &str, tenant: &str| series(&metrics, name, tenant);

    // Alice: 3 admitted, 2 completed, 1 error; nothing timed out or
    // rejected. The books balance exactly.
    assert_eq!(series("ssdm_tenant_admitted_total", "alice"), 3);
    assert_eq!(series("ssdm_tenant_completed_total", "alice"), 2);
    assert_eq!(series("ssdm_tenant_errors_total", "alice"), 1);
    assert_eq!(series("ssdm_tenant_timed_out_total", "alice"), 0);
    assert_eq!(series("ssdm_tenant_rejected_rate_total", "alice"), 0);

    // The default tenant's one finished query reconciles too; the
    // in-flight /metrics request itself is the only unfinished one.
    let admitted = series("ssdm_tenant_admitted_total", "default");
    let done = series("ssdm_tenant_completed_total", "default")
        + series("ssdm_tenant_errors_total", "default")
        + series("ssdm_tenant_timed_out_total", "default");
    assert_eq!(admitted, done + 1);

    let mut c = Client::connect(framed).unwrap();
    c.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn a_concurrency_quota_holds_across_both_wires() {
    let (db, hold) = Hold::engine();
    let quotas = TenantQuotas {
        max_concurrent: 1,
        max_queued: 0,
        rate: None,
    };
    let (framed, http, join) = start_server_with(ServerConfig::default(), vec![("t", db, quotas)]);

    // One statement of t's held in flight over the framed wire...
    let first = std::thread::spawn(move || {
        let mut c = Client::connect(framed).unwrap();
        c.use_tenant("t").unwrap();
        c.query(HOLD).unwrap()
    });
    while series(
        &http_get(http, "/metrics").1,
        "ssdm_tenant_admitted_total",
        "t",
    ) < 1
    {
        std::thread::yield_now();
    }
    // ...is t's whole quota on the HTTP listener too.
    let ask = "/tenants/t/query?query=ASK%7B%7D";
    let (status, body) = http_get(http, ask);
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("max in-flight quota"), "{body}");

    hold.release();
    assert!(first.join().unwrap().contains('1'));
    assert_eq!(http_get(http, ask).0, 200, "the slot is free again");

    let metrics = http_get(http, "/metrics").1;
    assert_eq!(series(&metrics, "ssdm_tenant_admitted_total", "t"), 2);
    assert_eq!(series(&metrics, "ssdm_tenant_rejected_quota_total", "t"), 1);

    Client::connect(framed).unwrap().shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn the_worker_pool_bounds_execution_across_both_wires() {
    let (db, hold) = Hold::engine();
    let (framed, http, join) = start_server_with(
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            ..ServerConfig::default()
        },
        vec![("t", db, TenantQuotas::default())],
    );

    // The one worker is executing a framed statement.
    let first = std::thread::spawn(move || {
        let mut c = Client::connect(framed).unwrap();
        c.use_tenant("t").unwrap();
        c.query(HOLD).unwrap()
    });
    hold.wait_running(1);

    // Two HTTP requests behind it: whichever arrives first waits in the
    // one queue slot for that same worker, so the other finds the server
    // full — the only reply there can be before the release. (Each wire
    // with a pool of its own answered both 200 at once.)
    let (tx, rx) = mpsc::channel();
    for _ in 0..2 {
        let tx = tx.clone();
        std::thread::spawn(move || tx.send(http_get(http, "/query?query=ASK%7B%7D").0));
    }
    assert_eq!(rx.recv().unwrap(), 503);
    hold.release();
    assert_eq!(rx.recv().unwrap(), 200);
    first.join().unwrap();

    Client::connect(framed).unwrap().shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn a_panicking_statement_costs_one_reply_on_either_wire() {
    let mut db = Ssdm::open(Backend::Memory);
    db.dataset.registry.register_foreign(ForeignFunction {
        name: "boom".into(),
        arity: 0,
        imp: Arc::new(|_| panic!("boom went off")),
    });
    let quotas = TenantQuotas {
        max_concurrent: 1,
        max_queued: 0,
        rate: None,
    };
    let (framed, http, join) = start_server_with(ServerConfig::default(), vec![("p", db, quotas)]);
    // Process-wide, but no other test here panics an engine.
    let panics = |metrics: &str| -> u64 {
        let line = metrics
            .lines()
            .find_map(|l| l.strip_prefix("ssdm_http_panics_total "));
        line.map_or(0, |n| n.trim().parse().unwrap())
    };
    let panics_before = panics(&http_get(http, "/metrics").1);

    // Framed: a status-1 reply, and the same connection and the same
    // one-slot tenant serve the next statement.
    let mut c = Client::connect(framed).unwrap();
    c.use_tenant("p").unwrap();
    let err = c.query("SELECT (boom() AS ?v) WHERE { }").unwrap_err();
    assert!(
        err.to_string()
            .contains("internal error: query engine panicked: boom went off"),
        "{err}"
    );
    assert!(c.query("ASK { }").unwrap().contains("true"));

    // HTTP: a 500 on a keep-alive connection, which then serves the
    // next request.
    let mut reader = BufReader::new(TcpStream::connect(http).unwrap());
    let mut exchange = |query: &str| {
        let get = format!("GET /tenants/p/query?query={query} HTTP/1.1\r\nHost: t\r\n\r\n");
        reader.get_mut().write_all(get.as_bytes()).unwrap();
        let mut head = String::new();
        while !head.ends_with("\r\n\r\n") {
            reader.read_line(&mut head).unwrap();
        }
        let length = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).unwrap();
        (head, String::from_utf8(body).unwrap())
    };
    let (head, body) = exchange("SELECT%20(boom()%20AS%20%3Fv)%20WHERE%20%7B%20%7D");
    assert!(head.starts_with("HTTP/1.1 500 "), "{head}");
    assert!(
        body.contains("query engine panicked: boom went off"),
        "{body}"
    );
    let (head, body) = exchange("ASK%7B%7D");
    assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
    assert!(body.contains("true"), "{body}");

    // Every admitted statement ended as exactly one outcome.
    let metrics = http_get(http, "/metrics").1;
    let count = |name: &str| series(&metrics, name, "p");
    assert_eq!(count("ssdm_tenant_admitted_total"), 4);
    assert_eq!(count("ssdm_tenant_completed_total"), 2);
    assert_eq!(count("ssdm_tenant_errors_total"), 2);
    assert_eq!(count("ssdm_tenant_timed_out_total"), 0);
    // ...and a panic is counted whichever wire it came in on.
    assert_eq!(panics(&metrics), panics_before + 2);

    c.shutdown().unwrap();
    join.join().unwrap();
}

/// A peer that asks for more than the socket buffers hold and never
/// reads pins its connection's transmit buffer. With nothing else to
/// bound it but the drain deadline (a minute here), `serve` returning
/// early shows the idle bound reaped it.
fn a_peer_that_stops_reading_is_reaped(ask: impl FnOnce(SocketAddr, SocketAddr) -> TcpStream) {
    let mut db = Ssdm::open(Backend::Memory);
    db.query(&format!(
        "INSERT DATA {{ <urn:s> <urn:p> \"{}\" }}",
        "x".repeat(1 << 20)
    ))
    .unwrap();
    let (framed, http, join) = start_server_with(
        ServerConfig {
            idle_timeout: Duration::from_millis(200),
            drain_timeout: Duration::from_secs(60),
            ..ServerConfig::default()
        },
        vec![("big", db, TenantQuotas::default())],
    );

    // `REPLIES` MiB of replies requested, none read.
    let stalled = ask(framed, http);
    while series(
        &http_get(http, "/metrics").1,
        "ssdm_tenant_completed_total",
        "big",
    ) < REPLIES as u64
    {
        std::thread::yield_now();
    }

    let started = Instant::now();
    Client::connect(framed).unwrap().shutdown().unwrap();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(join.join()));
    rx.recv_timeout(Duration::from_secs(30))
        .expect("serve() pinned by a peer that is not reading")
        .unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "drain took {:?}",
        started.elapsed()
    );
    drop(stalled);
}

const BIG: &str = "SELECT ?o WHERE { <urn:s> <urn:p> ?o }";
/// Each reply is 1 MiB; together they overflow both socket buffers.
const REPLIES: usize = 24;

#[test]
fn an_http_peer_that_stops_reading_is_reaped() {
    a_peer_that_stops_reading_is_reaped(|_, http| {
        let mut stream = TcpStream::connect(http).unwrap();
        let get = format!(
            "GET /tenants/big/query?query={} HTTP/1.1\r\nHost: t\r\n\r\n",
            BIG.replace(' ', "%20")
                .replace('?', "%3F")
                .replace('{', "%7B")
                .replace('}', "%7D")
                .replace('<', "%3C")
                .replace('>', "%3E")
        );
        stream.write_all(get.repeat(REPLIES).as_bytes()).unwrap();
        stream
    });
}

#[test]
fn a_framed_peer_that_stops_reading_is_reaped() {
    a_peer_that_stops_reading_is_reaped(|framed, _| {
        let frame = |text: &str| [&(text.len() as u32).to_le_bytes()[..], text.as_bytes()].concat();
        let mut stream = TcpStream::connect(framed).unwrap();
        let mut wire = frame("USE big");
        for _ in 0..REPLIES {
            wire.extend(frame(BIG));
        }
        stream.write_all(&wire).unwrap();
        stream
    });
}
