//! HTTP front end: the SPARQL 1.1 Protocol over a readiness-based
//! nonblocking server core.
//!
//! The framed protocol of [`crate::server`] pins one worker thread per
//! active connection — fine for a lab, not for thousands of mostly-idle
//! HTTP clients. This subsystem decouples the two: a single **reactor**
//! thread owns every connection (accept, parse, flush) on top of a raw
//! epoll surface ([`sys`]), and only actual engine work crosses to the
//! bounded worker pool. Thousands of idle keep-alive connections then
//! cost file descriptors, not threads.
//!
//! * [`parser`] — restartable HTTP/1.1 request parsing;
//! * [`negotiate`] — Accept-header selection of the result format;
//! * [`results`] — SPARQL JSON / XML / CSV / TSV serializers;
//! * [`router`] — protocol routing and engine execution;
//! * [`conn`] — per-connection buffers and pipelined response order;
//! * [`sys`] — the epoll/signalfd syscall layer.
//!
//! # Multi-tenancy, admission control, and back-pressure
//!
//! Requests resolve against a [`TenantRegistry`]: `/query` and
//! `/update` serve the default tenant, `/tenants/<id>/query|update`
//! the named one (404 for unknown tenants). Admission happens in the
//! reactor before any queueing: a tenant over its req/s token bucket
//! gets a flat `429`, one at its in-flight quota a `429`, and a full
//! server-wide queue a `503` — instead of piling up unbounded. Queued
//! work feeds the worker pool through a deficit-round-robin
//! [`FairDispatch`] keyed on the tenant (replacing the old FIFO
//! channel), so one tenant's burst cannot starve another's interactive
//! queries. A worker also re-checks how long the job waited in the
//! queue and answers `503` past [`HttpConfig::request_timeout`].
//! Beyond [`HttpConfig::max_connections`] concurrent sockets, new
//! arrivals get a one-line `503` and are closed.
//!
//! # Graceful drain
//!
//! Shutdown (a [`ShutdownHandle`], or SIGTERM via an installed signal
//! fd) reuses the framed server's [`DrainState`] semantics: accepting
//! stops, idle connections close immediately, in-flight requests finish
//! and flush, and anything still open when the drain deadline passes is
//! dropped.

pub mod conn;
pub mod negotiate;
pub mod parser;
pub mod results;
pub mod router;
pub mod sys;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::server::DrainState;
use crate::tenant::{FairDispatch, Tenant, TenantQuotas, TenantRegistry, DEFAULT_QUANTUM};
use crate::Ssdm;

use conn::{Conn, FlushState};
use parser::Limits;
use router::{Exec, Response};
use sys::{Interest, Poller};

pub use negotiate::ResultFormat as Format;
pub use sys::native_event_loop;

/// SIGTERM / SIGINT numbers for [`prepare_signal_drain`].
pub const SIGINT: i32 = 2;
pub const SIGTERM: i32 = 15;

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_SIGNAL: u64 = 2;
const FIRST_CONN_TOKEN: u64 = 16;

/// Knobs of the HTTP front end.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Query-execution worker threads (minimum 1). Connections do not
    /// consume workers; only in-flight requests do.
    pub workers: usize,
    /// Concurrent sockets; arrivals beyond this are answered 503.
    pub max_connections: usize,
    /// Dispatch-queue bound: requests beyond `workers` executing plus
    /// this many waiting are answered 503 (admission control).
    pub queue_depth: usize,
    /// Close keep-alive connections idle longer than this.
    pub idle_timeout: Duration,
    /// Bound on queue wait per request; exceeded jobs answer 503
    /// without touching the engine.
    pub request_timeout: Duration,
    /// Graceful-drain bound on shutdown, as in the framed server.
    pub drain_timeout: Duration,
    /// HTTP parse limits.
    pub limits: Limits,
    /// Per-connection receive-buffer cap; reading pauses beyond it
    /// until the pipeline drains (back-pressure).
    pub max_buffered: usize,
    /// A signalfd from [`prepare_signal_drain`]: when readable the
    /// server begins its graceful drain. `None` disables signal-driven
    /// shutdown (the [`ShutdownHandle`] still works).
    pub signal_fd: Option<std::os::fd::RawFd>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            workers: 4,
            max_connections: 4096,
            queue_depth: 64,
            idle_timeout: Duration::from_secs(60),
            request_timeout: Duration::from_secs(30),
            drain_timeout: Duration::from_secs(5),
            limits: Limits::default(),
            max_buffered: 1 << 20,
            signal_fd: None,
        }
    }
}

/// Block `signals` on the calling thread (spawn threads only *after*
/// this so they inherit the mask) and return a signalfd to pass as
/// [`HttpConfig::signal_fd`]. Linux-only; other platforms get an error
/// and fall back to default signal disposition.
pub fn prepare_signal_drain(signals: &[i32]) -> std::io::Result<std::os::fd::RawFd> {
    sys::signal_fd(signals)
}

/// Raise the process's soft open-file limit toward `target` (clamped
/// to the hard limit); a no-op returning 0 off Linux. The event loop
/// holds one fd per connection, so serving thousands of keep-alive
/// clients needs more than the common 1024 default.
pub fn raise_nofile_limit(target: u64) -> std::io::Result<u64> {
    sys::raise_nofile_limit(target)
}

/// Orders the reactor to begin its graceful drain from another thread.
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    waker: TcpStream,
}

impl ShutdownHandle {
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        let _ = (&self.waker).write(&[1]);
    }
}

/// A bound, not-yet-serving HTTP front end.
pub struct HttpServer {
    listener: TcpListener,
    config: HttpConfig,
    shutdown: Arc<AtomicBool>,
    waker_rx: TcpStream,
    waker_tx: TcpStream,
}

/// A worker-completed response on its way back to the reactor.
struct Done {
    token: u64,
    seq: u64,
    encoded: Vec<u8>,
    close: bool,
}

/// One unit of engine work queued to the pool.
struct Job {
    token: u64,
    seq: u64,
    exec: Exec,
    head_only: bool,
    keep_alive: bool,
    enqueued: Instant,
    /// The admitted tenant (resolved in the reactor), for outcome
    /// counters.
    tenant: Arc<Tenant>,
}

/// Loopback byte-pipe used to wake the reactor out of `epoll_wait`
/// from worker threads and shutdown handles.
fn waker_pair() -> std::io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let tx = TcpStream::connect(addr)?;
    let (rx, _) = listener.accept()?;
    rx.set_nonblocking(true)?;
    tx.set_nonblocking(true)?;
    tx.set_nodelay(true)?;
    Ok((rx, tx))
}

impl HttpServer {
    pub fn bind(addr: impl ToSocketAddrs, config: HttpConfig) -> std::io::Result<HttpServer> {
        let listener = TcpListener::bind(addr)?;
        let (waker_rx, waker_tx) = waker_pair()?;
        Ok(HttpServer {
            listener,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            waker_rx,
            waker_tx,
        })
    }

    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            waker: self.waker_tx.try_clone()?,
        })
    }

    /// [`HttpServer::serve_registry`] over a single default tenant
    /// sharing `engine` — the single-tenant deployment shape, kept for
    /// embedders.
    pub fn serve(self, engine: Arc<Mutex<Ssdm>>) -> std::io::Result<()> {
        self.serve_registry(Arc::new(TenantRegistry::from_shared(
            engine,
            TenantQuotas::default(),
        )))
    }

    /// Run the reactor on the calling thread with the worker pool
    /// around it, serving every tenant in `registry`; returns after a
    /// graceful drain (handle, signal, or worker-pool loss).
    pub fn serve_registry(self, registry: Arc<TenantRegistry>) -> std::io::Result<()> {
        let HttpServer {
            listener,
            config,
            shutdown,
            waker_rx,
            waker_tx,
        } = self;
        // Best effort: the fd budget should cover the connection cap.
        let _ = sys::raise_nofile_limit(config.max_connections as u64 * 2 + 64);
        let workers = config.workers.max(1);
        // DRR-ordered dispatch replacing the old FIFO sync_channel: the
        // queue_depth bound becomes the server-wide cap, per-tenant
        // caps ride each push.
        let dispatch: Arc<FairDispatch<Job>> = Arc::new(FairDispatch::new(
            DEFAULT_QUANTUM,
            config.queue_depth.max(1),
        ));
        let done: Arc<Mutex<Vec<Done>>> = Arc::new(Mutex::new(Vec::new()));
        let request_timeout = config.request_timeout;

        let worker_done = Arc::clone(&done);
        let worker_registry = Arc::clone(&registry);
        let worker_dispatch = Arc::clone(&dispatch);
        let reactor_dispatch = Arc::clone(&dispatch);
        ssdm_array::pool::run_scoped(
            workers,
            || {
                while let Some((tenant_name, job)) = worker_dispatch.pop() {
                    let mut response = if job.enqueued.elapsed() > request_timeout {
                        ssdm_obs::recorder()
                            .counter("ssdm_http_queue_timeouts_total")
                            .inc();
                        job.tenant.note_timed_out();
                        Response::text(503, "request timed out waiting for a worker")
                    } else {
                        let response = router::execute(&job.exec, &worker_registry);
                        job.tenant.note_done(response.status < 400);
                        response
                    };
                    worker_dispatch.finish(&tenant_name);
                    response.head_only = job.head_only;
                    let encoded = response.encode(job.keep_alive);
                    worker_done.lock().expect("http done queue").push(Done {
                        token: job.token,
                        seq: job.seq,
                        encoded,
                        close: !job.keep_alive,
                    });
                    let _ = (&waker_tx).write(&[1]);
                }
            },
            || {
                let result = reactor(
                    listener,
                    &config,
                    &shutdown,
                    waker_rx,
                    &registry,
                    &reactor_dispatch,
                    &done,
                );
                // Unblock the workers (queued jobs still drain).
                reactor_dispatch.close();
                result
            },
        )
    }
}

/// The event loop. Owns all connection state; never blocks on the
/// engine.
fn reactor(
    listener: TcpListener,
    config: &HttpConfig,
    shutdown: &AtomicBool,
    waker_rx: TcpStream,
    registry: &TenantRegistry,
    dispatch: &FairDispatch<Job>,
    done: &Mutex<Vec<Done>>,
) -> std::io::Result<()> {
    let poller = Poller::new()?;
    listener.set_nonblocking(true)?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
    poller.add(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
    if let Some(fd) = config.signal_fd {
        poller.add(fd, TOKEN_SIGNAL, Interest::READ)?;
    }

    let drain = DrainState::new();
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events = Vec::new();
    let rec = ssdm_obs::recorder();

    loop {
        poller.wait(&mut events, Some(Duration::from_millis(200)))?;
        let mut touched: Vec<u64> = Vec::new();

        for ev in &events {
            match ev.token {
                TOKEN_LISTENER => {
                    accept_ready(
                        &listener,
                        &poller,
                        config,
                        &drain,
                        &mut conns,
                        &mut next_token,
                    );
                }
                TOKEN_WAKER => {
                    let mut sink = [0u8; 64];
                    while matches!((&waker_rx).read(&mut sink), Ok(n) if n > 0) {}
                }
                TOKEN_SIGNAL => {
                    if let Some(fd) = config.signal_fd {
                        if sys::drain_signal_fd(fd) > 0 && !drain.draining() {
                            drain.begin(config.drain_timeout);
                        }
                    }
                }
                token => {
                    let mut dead = false;
                    if let Some(conn) = conns.get_mut(&token) {
                        if (ev.readable || ev.hangup) && conn.fill(config.max_buffered).is_err() {
                            poller_forget(&poller, conn);
                            dead = true;
                        }
                        if !dead {
                            touched.push(token);
                        }
                    }
                    if dead {
                        conns.remove(&token);
                    }
                }
            }
        }

        if shutdown.load(Ordering::SeqCst) && !drain.draining() {
            drain.begin(config.drain_timeout);
        }

        // Deliver worker completions before pumping, so freed pipeline
        // slots parse further buffered requests in the same pass.
        let completed = std::mem::take(&mut *done.lock().expect("http done queue"));
        for d in completed {
            if let Some(conn) = conns.get_mut(&d.token) {
                conn.complete_inflight(d.seq, d.encoded, d.close);
                touched.push(d.token);
            }
        }

        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            let finished = pump(conn, config, &drain, registry, dispatch, rec);
            if finished {
                poller_forget(&poller, conn);
            } else {
                let interest = Interest {
                    read: true,
                    write: conn.wants_write(),
                };
                let _ = poller.modify(conn.stream.as_raw_fd(), token, interest);
            }
            if finished {
                conns.remove(&token);
            }
        }

        // Timeout scan + drain progress.
        let now = Instant::now();
        let mut expired: Vec<u64> = Vec::new();
        for (token, conn) in &conns {
            let idle_too_long = now.duration_since(conn.last_activity) > config.idle_timeout;
            if (idle_too_long && conn.is_idle()) || (drain.draining() && conn.is_idle()) {
                expired.push(*token);
            }
        }
        for token in expired {
            if let Some(conn) = conns.get(&token) {
                poller_forget(&poller, conn);
            }
            conns.remove(&token);
        }

        if drain.draining() {
            // `remaining` floors at 10 ms, so that value means expired.
            let deadline_passed = drain
                .remaining()
                .map(|d| d <= Duration::from_millis(10))
                .unwrap_or(true);
            if conns.is_empty() || deadline_passed {
                return Ok(());
            }
        }
    }
}

fn poller_forget(poller: &Poller, conn: &Conn) {
    let _ = poller.delete(conn.stream.as_raw_fd());
}

/// Accept everything pending. During a drain new arrivals are dropped;
/// over the connection cap they get a one-line 503.
fn accept_ready(
    listener: &TcpListener,
    poller: &Poller,
    config: &HttpConfig,
    drain: &DrainState,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
) {
    let rec = ssdm_obs::recorder();
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if drain.draining() {
                    continue; // dropped: the listener is logically closed
                }
                if conns.len() >= config.max_connections {
                    rec.counter("ssdm_http_rejected_connections_total").inc();
                    let resp = Response::text(503, "connection limit reached");
                    let _ = stream.set_nonblocking(true);
                    let _ = (&stream).write(&resp.encode(false));
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if poller
                    .add(stream.as_raw_fd(), token, Interest::READ)
                    .is_ok()
                {
                    rec.counter("ssdm_http_connections_total").inc();
                    conns.insert(token, Conn::new(stream, token));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Advance one connection: parse buffered requests, dispatch or reject
/// jobs, flush output. Returns whether the connection is finished.
fn pump(
    conn: &mut Conn,
    config: &HttpConfig,
    drain: &DrainState,
    registry: &TenantRegistry,
    dispatch: &FairDispatch<Job>,
    rec: &'static ssdm_obs::Recorder,
) -> bool {
    // During a drain no *new* requests are taken; what is in flight
    // still completes and flushes below.
    if !drain.draining() {
        for d in conn.drain_input(&config.limits) {
            let keep_alive = d.keep_alive;
            let seq = d.seq;
            // Admission before any queueing: unknown tenant → 404,
            // over the req/s token bucket → 429.
            let tenant = match registry.admit(d.exec.tenant(), Instant::now()) {
                Ok(tenant) => tenant,
                Err(why) => {
                    rec.counter("ssdm_http_admission_rejects_total").inc();
                    let resp = Response::text(why.http_status(), why.message());
                    conn.complete_inflight(seq, resp.encode(keep_alive), !keep_alive);
                    continue;
                }
            };
            let caps = tenant.caps();
            let cost = d.exec.cost();
            let job = Job {
                token: conn.token,
                seq,
                exec: d.exec,
                head_only: d.head_only,
                keep_alive,
                enqueued: Instant::now(),
                tenant: Arc::clone(&tenant),
            };
            // DRR push enforces the tenant's in-flight cap (429) and
            // the server-wide queue bound (503) — admission control
            // now rather than unbounded buffering.
            // Counted as admitted before a worker can pop the job: the
            // job may be the very `/metrics` read that reports the count.
            match dispatch.push_then(&tenant.name, caps, cost, job, || tenant.note_admitted()) {
                Ok(()) => {}
                Err(why) => {
                    rec.counter("ssdm_http_admission_rejects_total").inc();
                    tenant.note_rejected(&why);
                    let resp = Response::text(why.http_status(), why.message());
                    conn.complete_inflight(seq, resp.encode(keep_alive), !keep_alive);
                }
            }
        }
    }
    conn.flush() == FlushState::Closed
}

#[cfg(test)]
mod tests {
    use super::negotiate::ResultFormat;
    use super::*;
    use scisparql::QueryResult;
    use std::io::BufRead;

    fn start_server(
        config: HttpConfig,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<std::io::Result<()>>,
    ) {
        let mut db = Ssdm::open(crate::Backend::Memory);
        db.query("INSERT DATA { <http://ex/s> <http://ex/p> 42 }")
            .unwrap();
        let server = HttpServer::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let engine = Arc::new(Mutex::new(db));
        let join = std::thread::spawn(move || server.serve(engine));
        (addr, handle, join)
    }

    /// Read one HTTP/1.1 response off a persistent reader; returns
    /// (status, headers, body). One `BufReader` per connection —
    /// creating a fresh one per response would lose pipelined bytes
    /// already pulled into the old reader's buffer.
    fn read_response(
        reader: &mut std::io::BufReader<TcpStream>,
    ) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .expect("status code")
            .parse()
            .unwrap();
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let line = line.trim_end().to_string();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                let name = name.trim().to_ascii_lowercase();
                let value = value.trim().to_string();
                if name == "content-length" {
                    content_length = value.parse().unwrap();
                }
                headers.push((name, value));
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, headers, body)
    }

    fn get(
        addr: SocketAddr,
        target: &str,
        accept: Option<&str>,
    ) -> (u16, Vec<(String, String)>, Vec<u8>) {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let accept_line = accept
            .map(|a| format!("Accept: {a}\r\n"))
            .unwrap_or_default();
        stream
            .write_all(
                format!(
                    "GET {target} HTTP/1.1\r\nHost: t\r\n{accept_line}Connection: close\r\n\r\n"
                )
                .as_bytes(),
            )
            .unwrap();
        let mut reader = std::io::BufReader::new(stream);
        read_response(&mut reader)
    }

    #[test]
    fn query_round_trips_all_four_negotiated_formats() {
        let (addr, handle, join) = start_server(HttpConfig::default());
        let query = "SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o }";
        let target = format!(
            "/query?query={}",
            query
                .replace(' ', "%20")
                .replace('{', "%7B")
                .replace('}', "%7D")
                .replace('?', "%3F")
        );
        // The expected bytes come straight from the serializers — the
        // wire must match them exactly.
        let expected = QueryResult::Solutions {
            vars: vec!["o".into()],
            rows: vec![vec![Some(scisparql::Value::integer(42))]],
        };
        for (accept, format) in [
            ("application/sparql-results+json", ResultFormat::Json),
            ("application/sparql-results+xml", ResultFormat::Xml),
            ("text/csv", ResultFormat::Csv),
            ("text/tab-separated-values", ResultFormat::Tsv),
        ] {
            let (status, headers, body) = get(addr, &target, Some(accept));
            assert_eq!(status, 200, "format {accept}");
            assert_eq!(
                body,
                results::serialize(&expected, format),
                "format {accept}"
            );
            let ct = headers
                .iter()
                .find(|(n, _)| n == "content-type")
                .map(|(_, v)| v.as_str())
                .unwrap();
            assert!(ct.starts_with(accept), "content-type {ct} for {accept}");
        }
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn post_update_then_query_over_keep_alive_pipeline() {
        let (addr, handle, join) = start_server(HttpConfig::default());
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let update = "INSERT DATA { <http://ex/s2> <http://ex/p> 7 }";
        let query = "ASK { <http://ex/s2> <http://ex/p> 7 }";
        // Two requests in one write: the update and, pipelined behind
        // it, the query that observes its effect.
        let wire = format!(
            "POST /update HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-update\r\nContent-Length: {}\r\n\r\n{}POST /query HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nAccept: application/sparql-results+json\r\nContent-Length: {}\r\n\r\n{}",
            update.len(),
            update,
            query.len(),
            query
        );
        stream.write_all(wire.as_bytes()).unwrap();
        let mut reader = std::io::BufReader::new(stream);
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert!(String::from_utf8_lossy(&body).contains("inserted 1"));
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(
            String::from_utf8(body).unwrap(),
            r#"{"head":{},"boolean":true}"#
        );
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn metrics_health_and_errors() {
        let (addr, handle, join) = start_server(HttpConfig::default());
        let (status, _, body) = get(addr, "/metrics", None);
        assert_eq!(status, 200);
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("ssdm_"), "prometheus dump: {text}");

        let (status, _, _) = get(addr, "/healthz", None);
        assert_eq!(status, 200);
        let (status, _, _) = get(addr, "/nope", None);
        assert_eq!(status, 404);
        let (status, _, _) = get(addr, "/query", None);
        assert_eq!(status, 400);
        let (status, _, _) = get(addr, "/query?query=ASK%7B%7D", Some("image/png"));
        assert_eq!(status, 406);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn graceful_drain_closes_idle_keep_alive_connections() {
        let (addr, handle, join) = start_server(HttpConfig {
            drain_timeout: Duration::from_secs(2),
            ..HttpConfig::default()
        });
        // An idle keep-alive connection (one request answered, held
        // open) and a fresh never-used one.
        let mut used = TcpStream::connect(addr).unwrap();
        used.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        used.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            .unwrap();
        let mut used = std::io::BufReader::new(used);
        let (status, _, _) = read_response(&mut used);
        assert_eq!(status, 200);
        let mut fresh = TcpStream::connect(addr).unwrap();
        fresh
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        let start = Instant::now();
        handle.shutdown();
        join.join().unwrap().unwrap();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "drain should beat the idle timeout by far"
        );
        // Both sockets observe EOF.
        let mut buf = [0u8; 1];
        assert_eq!(used.read(&mut buf).unwrap_or(0), 0);
        assert_eq!(fresh.read(&mut buf).unwrap_or(0), 0);
    }

    #[test]
    fn connection_limit_answers_503() {
        let (addr, handle, join) = start_server(HttpConfig {
            max_connections: 2,
            ..HttpConfig::default()
        });
        let hold1 = TcpStream::connect(addr).unwrap();
        let hold2 = TcpStream::connect(addr).unwrap();
        // Make sure both are registered before the third arrives.
        std::thread::sleep(Duration::from_millis(300));
        let third = TcpStream::connect(addr).unwrap();
        third
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut third = std::io::BufReader::new(third);
        let (status, _, _) = read_response(&mut third);
        assert_eq!(status, 503);
        drop((hold1, hold2));
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}
