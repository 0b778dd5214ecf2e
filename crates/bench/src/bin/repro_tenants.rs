//! Multi-tenant serving scenario: fair-share admission keeps
//! interactive tenants responsive while a hog saturates its quota.
//!
//! One HTTP front end hosts three tenants over isolated engines:
//!
//! * `hog` — floods `/tenants/hog/query` with expensive cross-join
//!   queries from several keep-alive connections (quota: 1 concurrent
//!   slot, deep queue), staying saturated for the whole contended
//!   phase;
//! * `i1`, `i2` — interactive tenants issuing point lookups, measured
//!   request-by-request.
//!
//! Phase 1 measures the interactive tenants solo (hog silent); phase 2
//! re-measures them while the hog saturates. Deficit-round-robin
//! dispatch plus the hog's concurrency quota must keep the interactive
//! p99 within a bounded factor of solo — a plain FIFO queue fails this
//! by parking interactive requests behind the hog's backlog. Claims:
//! interactive p99 ≤ 3× solo (with a 2 ms floor on the solo p99 against
//! scheduler noise) and exact per-tenant counter reconciliation
//! (`admitted = completed + errors + timed_out`) in `/metrics`.
//!
//! ```text
//! repro_tenants [--quick] [--out PATH]
//! ```

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssdm::http::{HttpConfig, HttpServer, ShutdownHandle};
use ssdm::tenant::{RateLimit, TenantQuotas, TenantRegistry};
use ssdm::{Backend, Ssdm};
use ssdm_bench::client::{connect, get, query_target};
use ssdm_bench::{percentile, Args, Bar, Fmt, Report};

fn engine(rows: usize) -> Ssdm {
    let mut db = Ssdm::open(Backend::Memory);
    let mut turtle = String::from("@prefix ex: <http://e#> .\n");
    for i in 0..rows {
        turtle.push_str(&format!("ex:s{i} ex:p {i} .\n"));
    }
    db.load_turtle(&turtle).expect("seed triples");
    db
}

fn start_server(
    hog_quotas: TenantQuotas,
) -> (SocketAddr, ShutdownHandle, std::thread::JoinHandle<()>) {
    let registry = TenantRegistry::new(engine(10), TenantQuotas::default());
    registry
        .add("hog", engine(120), hog_quotas)
        .expect("hog tenant");
    for name in ["i1", "i2"] {
        registry
            .add(name, engine(10), TenantQuotas::default())
            .expect("interactive tenant");
    }
    let server = HttpServer::bind(
        "127.0.0.1:0",
        HttpConfig {
            // Two workers: the hog's single concurrency slot can pin at
            // most one, so fairness — not luck — keeps the other free.
            workers: 2,
            ..HttpConfig::default()
        },
    )
    .expect("bind http");
    let addr = server.local_addr().expect("http addr");
    let handle = server.shutdown_handle().expect("shutdown handle");
    let join = std::thread::spawn(move || {
        server
            .serve_registry(Arc::new(registry))
            .expect("http serve")
    });
    (addr, handle, join)
}

/// Per-request latencies (ms) for `n` sequential point queries on
/// `tenant`.
fn measure(addr: SocketAddr, tenant: &str, n: usize) -> Vec<f64> {
    let path = format!("/tenants/{tenant}/query");
    let target = query_target(&path, "SELECT ?o WHERE { <http://e#s7> <http://e#p> ?o }");
    let mut reader = connect(addr);
    let (status, _) = get(&mut reader, &target, "text/csv"); // warm up
    assert_eq!(status, 200, "interactive warm-up on {tenant}");
    let sample = |_| {
        let start = Instant::now();
        let (status, _) = get(&mut reader, &target, "text/csv");
        assert_eq!(status, 200, "interactive request on {tenant}");
        start.elapsed().as_secs_f64() * 1e3
    };
    (0..n).map(sample).collect()
}

fn main() -> ExitCode {
    let args = Args::parse("repro_tenants", &["--quick", "--out PATH"]);
    let mut report = Report::new(&args);
    let interactive_n: usize = if args.quick() { 150 } else { 500 };
    let hog_clients: usize = 4;
    report.config(&[
        ("interactive_requests", interactive_n.into()),
        ("hog_clients", hog_clients.into()),
        ("workers", 2u8.into()),
    ]);
    println!("multi-tenant fair share: one hog, two interactive tenants, shared worker pool");

    let (addr, handle, join) = start_server(TenantQuotas {
        max_concurrent: 1,
        max_queued: 16,
        rate: Some(RateLimit {
            per_sec: 400.0,
            burst: 32.0,
        }),
    });

    // --- Phase 1: solo baselines -----------------------------------------
    let interactive = ["i1", "i2"];
    let solo = interactive.map(|tenant| measure(addr, tenant, interactive_n));

    // --- Phase 2: the hog saturates, interactive re-measured -------------
    let stop = Arc::new(AtomicBool::new(false));
    let hog_ok = Arc::new(AtomicU64::new(0));
    let hog_rejected = Arc::new(AtomicU64::new(0));
    // A cross join over the hog's 120 subjects: ~14k result rows per
    // request, expensive enough that an unfair queue visibly stalls
    // the interactive tenants behind it.
    let hog_target = query_target(
        "/tenants/hog/query",
        "SELECT ?a ?b WHERE { ?a <http://e#p> ?x . ?b <http://e#p> ?y }",
    );
    let hogs: Vec<_> = (0..hog_clients)
        .map(|_| {
            let (stop, ok) = (Arc::clone(&stop), Arc::clone(&hog_ok));
            let rejected = Arc::clone(&hog_rejected);
            let target = hog_target.clone();
            std::thread::spawn(move || {
                let mut reader = connect(addr);
                while !stop.load(Ordering::Relaxed) {
                    match get(&mut reader, &target, "text/csv").0 {
                        200 => ok.fetch_add(1, Ordering::Relaxed),
                        429 | 503 => rejected.fetch_add(1, Ordering::Relaxed),
                        other => panic!("unexpected hog status {other}"),
                    };
                }
            })
        })
        .collect();
    // Let the hog build a backlog before measuring.
    while hog_ok.load(Ordering::Relaxed) < 4 {
        std::thread::sleep(Duration::from_millis(5));
    }
    let contended = interactive.map(|tenant| measure(addr, tenant, interactive_n));
    stop.store(true, Ordering::Relaxed);
    for h in hogs {
        h.join().expect("hog client");
    }

    // --- Bounded interference --------------------------------------------
    let floor_ms = 2.0;
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for ((tenant, s), c) in interactive.iter().zip(&solo).zip(&contended) {
        let (solo_p99, cont_p99) = (percentile(s, 0.99), percentile(c, 0.99));
        let ratio = cont_p99 / solo_p99.max(floor_ms);
        ratios.push((tenant, ratio));
        rows.push(vec![
            (*tenant).into(),
            percentile(s, 0.5).into(),
            solo_p99.into(),
            percentile(c, 0.5).into(),
            cont_p99.into(),
            ratio.into(),
        ]);
    }
    report.table(
        "interactive",
        "interactive latency, hog saturating its quota",
        &[
            ("tenant", "tenant", Fmt::Plain),
            ("solo p50", "solo_p50_ms", Fmt::Unit(2, "ms")),
            ("solo p99", "solo_p99_ms", Fmt::Unit(2, "ms")),
            ("contended p50", "contended_p50_ms", Fmt::Unit(2, "ms")),
            ("contended p99", "contended_p99_ms", Fmt::Unit(2, "ms")),
            ("ratio", "ratio_vs_bound", Fmt::Fixed(2)),
        ],
        rows,
    );
    let (served, rejected) = (
        hog_ok.load(Ordering::Relaxed),
        hog_rejected.load(Ordering::Relaxed),
    );
    report.table(
        "hog",
        "hog tenant over its quota",
        &[
            ("served", "served", Fmt::Plain),
            ("rejected", "rejected", Fmt::Plain),
        ],
        vec![vec![served.into(), rejected.into()]],
    );

    // --- Per-tenant counters reconcile ------------------------------------
    let (status, body) = get(&mut connect(addr), "/metrics", "text/csv");
    assert_eq!(status, 200, "/metrics");
    let metrics = String::from_utf8(body).expect("metrics utf-8");
    let series = |name: &str, tenant: &str| -> u64 {
        let needle = format!("{name}{{tenant=\"{tenant}\"}} ");
        metrics
            .lines()
            .find_map(|l| l.strip_prefix(&needle))
            .unwrap_or_else(|| panic!("missing series {needle}"))
            .trim()
            .parse()
            .expect("numeric series")
    };
    handle.shutdown();
    join.join().expect("server thread");

    for (tenant, ratio) in ratios {
        let claim = format!("{tenant}: contended p99 / max(solo p99, {floor_ms} ms)");
        report.check(claim, ratio, Bar::AtMost(3.0));
    }
    for tenant in ["hog", "i1", "i2"] {
        let finished = ["completed", "errors", "timed_out"]
            .map(|what| series(&format!("ssdm_tenant_{what}_total"), tenant));
        let unreconciled = series("ssdm_tenant_admitted_total", tenant) as f64
            - finished.iter().sum::<u64>() as f64;
        let claim = format!("{tenant}: admitted - (completed + errors + timed_out)");
        report.check(claim, unreconciled, Bar::Equals(0.0));
    }
    report.finish()
}
