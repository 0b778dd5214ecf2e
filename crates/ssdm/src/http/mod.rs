//! The serving core: one readiness-based event loop under both wires.
//!
//! SSDM runs "stand-alone, client-server, or as a cluster of processes"
//! (thesis §5.1); this module is the client-server deployment, once. A
//! single **reactor** thread owns every listener and every connection
//! (accept, decode, flush) on top of a raw epoll surface ([`sys`]), and
//! only engine work crosses to the bounded worker pool — thousands of
//! idle sessions cost file descriptors, not threads. A connection's
//! wire — HTTP/1.1 carrying the SPARQL 1.1 Protocol, or the framed
//! protocol of [`crate::server`] — is a [`conn::Codec`] fixed at
//! accept; everything after decoding is one path:
//!
//! ```text
//! listeners → codec → admit → DRR queue → workers → completion list
//!           → in-order flush → drain
//! ```
//!
//! * [`parser`] — restartable HTTP/1.1 request parsing;
//! * [`frame`] — the framed wire: restartable decoder, reply frames,
//!   the six wire statements;
//! * [`negotiate`] — Accept-header selection of the result format;
//! * [`results`] — SPARQL JSON / XML / CSV / TSV, written by one writer
//!   from borrowed cells;
//! * [`router`] — SPARQL 1.1 Protocol routing and engine execution;
//! * [`conn`] — per-connection buffers and pipelined response order;
//! * [`sys`] — the epoll/signalfd syscall layer.
//!
//! # Multi-tenancy, admission control, and back-pressure
//!
//! Requests resolve against a [`TenantRegistry`]: over HTTP `/query`
//! and `/update` serve the default tenant and
//! `/tenants/<id>/query|update` the named one; a framed session names
//! its tenant with `USE`. Admission happens in the reactor before any
//! queueing: an unknown tenant gets a flat 404, a tenant over its req/s
//! token bucket or at its in-flight quota a 429, and a full server-wide
//! queue a 503 — as an HTTP status, or as the text of a status-1 frame.
//! Admitted work feeds the pool through one deficit-round-robin
//! [`FairDispatch`] keyed on the tenant, so a tenant's `conc=N` quota
//! and its fair share hold across every listener together. That
//! includes `/metrics`, `/stats` and the framed `STATS`, `METRICS` and
//! `CHECKPOINT`: they are admitted and counted in the tenant's
//! `admitted`/`completed` like any statement. A worker also re-checks
//! how long a job waited in the queue and answers 503 past
//! [`HttpConfig::request_timeout`]. Beyond
//! [`HttpConfig::max_connections`] concurrent sockets, new arrivals get
//! a one-line 503 and are closed.
//!
//! Each job runs inside one unwind boundary on its worker: a panic
//! anywhere in it — engine, serializer, encoder — costs that request a
//! 500 (a status-1 frame) and nothing else; the tenant's DRR slot is
//! released and the outcome counted on every exit path.
//!
//! Counters keep their `ssdm_http_` prefix and count both wires
//! (`ssdm_http_panics_total` included); request latency is per wire
//! (`ssdm_http_request_seconds`, `ssdm_framed_request_seconds`).
//! `ssdm_http_reactor_wakeups_total` counts returns of the poller: set
//! against bytes or requests served it shows a loop that spins. What a
//! request costs the front end in syscalls is counted beside it:
//! `ssdm_http_socket_reads_total`, `ssdm_http_socket_writes_total`,
//! `ssdm_http_epoll_ctl_total` and `ssdm_http_waker_writes_total`.
//!
//! HTTP requests on one connection are independent and up to
//! [`conn::MAX_PIPELINE`] of them execute at once; a framed connection
//! is a session whose statements execute one at a time in the order
//! sent, so a statement sees the effects of those pipelined ahead of
//! it. Replies leave in request order on both.
//!
//! # Graceful drain
//!
//! A framed `SHUTDOWN`, a [`ShutdownHandle`] and SIGTERM (via an
//! installed signal fd) all begin the same drain: accepting stops, idle
//! connections close immediately, in-flight requests finish and flush,
//! and anything still open when the drain deadline passes is dropped.
//! A connection that moves no byte for [`HttpConfig::idle_timeout`]
//! while no worker owes it a response is dropped at any time — parked,
//! stalled mid-request, or not reading what it asked for.

pub mod conn;
pub mod frame;
pub mod negotiate;
pub mod parser;
pub mod results;
pub mod router;
pub mod sys;

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::tenant::{FairDispatch, Tenant, TenantRegistry, DEFAULT_QUANTUM};

use conn::{Codec, Conn, FlushState};
use frame::FramedExec;
use router::{Exec, Response};
use sys::{counters, Interest, Poller};

pub use negotiate::ResultFormat as Format;
pub use sys::native_event_loop;

/// SIGTERM / SIGINT numbers for [`prepare_signal_drain`].
pub const SIGINT: i32 = 2;
pub const SIGTERM: i32 = 15;

const TOKEN_WAKER: u64 = 0;
const TOKEN_SIGNAL: u64 = 1;
/// Listener `i` polls under this token plus `i`; connections follow.
const FIRST_LISTENER_TOKEN: u64 = 2;

/// Knobs of the serving core, each of which exists once whichever
/// listeners are bound.
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Execution worker threads (minimum 1). Connections do not
    /// consume workers; only in-flight requests do.
    pub workers: usize,
    /// Concurrent sockets across every listener; arrivals beyond this
    /// are answered 503.
    pub max_connections: usize,
    /// Dispatch-queue bound: requests beyond `workers` executing plus
    /// this many waiting are answered 503 (admission control).
    pub queue_depth: usize,
    /// Close a connection that moved no byte for this long while no
    /// worker owes it a response.
    pub idle_timeout: Duration,
    /// Bound on queue wait per request; exceeded jobs answer 503
    /// without touching the engine.
    pub request_timeout: Duration,
    /// Graceful-drain bound: in-flight requests finish and get their
    /// responses, idle connections close, and whatever is still open
    /// this long after the drain began is abandoned.
    pub drain_timeout: Duration,
    /// HTTP parse limits.
    pub limits: parser::Limits,
    /// Largest framed request or response payload, in bytes.
    pub max_frame: u32,
    /// Consecutive protocol errors (non-UTF-8 statements) tolerated on
    /// one framed connection before it is dropped.
    pub max_protocol_errors: u32,
    /// Per-connection receive-buffer cap; reading pauses beyond it
    /// until the pipeline drains (back-pressure). A single framed
    /// statement may exceed it, up to `max_frame`.
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
            limits: parser::Limits::default(),
            max_frame: frame::MAX_FRAME,
            max_protocol_errors: 3,
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
    waker: UnixStream,
}

impl ShutdownHandle {
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        wake(&self.waker);
    }
}

/// Wake the reactor out of `epoll_wait`. The waker is a socket pair
/// whose read end the reactor polls; a full pipe already wakes it.
fn wake(waker: &UnixStream) {
    counters().waker_writes.inc();
    let _ = (&*waker).write(&[1]);
}

/// The serving core, bound and not yet serving. Named for its first
/// wire; [`crate::server::Server`] adds the framed listener to the same
/// core.
pub struct HttpServer {
    listeners: Vec<(TcpListener, Codec)>,
    config: HttpConfig,
    shutdown: Arc<AtomicBool>,
    waker_rx: UnixStream,
    waker_tx: UnixStream,
}

/// What a request needs from a worker, and the wire its reply goes out
/// in.
pub enum Work {
    Http {
        exec: Exec,
        head_only: bool,
        keep_alive: bool,
    },
    Framed(FramedExec),
}

impl Work {
    /// Which tenant's queue and quotas this job charges against: the
    /// request's own over HTTP, the `session`'s on the framed wire.
    fn tenant<'a>(&'a self, session: Option<&'a str>) -> Option<&'a str> {
        match self {
            Work::Http { exec, .. } => exec.tenant(),
            Work::Framed(_) => session,
        }
    }

    fn cost(&self) -> u64 {
        match self {
            Work::Http { exec, .. } => exec.cost(),
            Work::Framed(exec) => exec.cost(),
        }
    }

    /// Whether the connection closes once this reply is flushed.
    fn closes(&self) -> bool {
        match self {
            Work::Http { keep_alive, .. } => !keep_alive,
            Work::Framed(_) => false,
        }
    }

    /// Execute on a worker; returns whether it succeeded, and the
    /// encoded reply. A statement the router parsed is moved out into
    /// the engine.
    fn run(
        &mut self,
        tenant: &Tenant,
        registry: &TenantRegistry,
        max_frame: u32,
    ) -> (bool, Vec<u8>) {
        match self {
            Work::Http {
                exec,
                head_only,
                keep_alive,
            } => {
                let response = router::execute(exec, registry);
                let ok = response.status < 400;
                (ok, encode_http(response, *head_only, *keep_alive))
            }
            Work::Framed(exec) => {
                let (status, payload) = exec.run(tenant, registry);
                (status == 0, frame::encode(status, &payload, max_frame))
            }
        }
    }

    /// A flat refusal: an HTTP status, or the text of a status-1 frame
    /// that begins with it.
    fn refuse(&self, status: u16, message: &str, max_frame: u32) -> Vec<u8> {
        match *self {
            Work::Http {
                head_only,
                keep_alive,
                ..
            } => encode_http(Response::text(status, message), head_only, keep_alive),
            Work::Framed(_) => frame::encode(1, &format!("{status} {message}"), max_frame),
        }
    }

    /// The reply to a job that panicked, counted for either wire.
    fn panicked(&self, panic: Box<dyn std::any::Any + Send>, max_frame: u32) -> Vec<u8> {
        ssdm_obs::recorder().counter("ssdm_http_panics_total").inc();
        let what = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".into());
        let message = format!("internal error: query engine panicked: {what}");
        match self {
            Work::Http { .. } => self.refuse(500, &message, max_frame),
            Work::Framed(_) => frame::encode(1, &message, max_frame),
        }
    }
}

fn encode_http(mut response: Response, head_only: bool, keep_alive: bool) -> Vec<u8> {
    response.head_only = head_only;
    response.encode(keep_alive)
}

/// One unit of work queued to the pool.
struct Job {
    token: u64,
    seq: u64,
    work: Work,
    enqueued: Instant,
    /// The admitted tenant (resolved in the reactor).
    tenant: Arc<Tenant>,
}

/// A worker-completed response on its way back to the reactor.
struct Done {
    token: u64,
    seq: u64,
    encoded: Vec<u8>,
    close: bool,
}

/// Graceful-drain state, owned by the reactor.
struct DrainState {
    deadline: Option<Instant>,
}

impl DrainState {
    fn begin(&mut self, timeout: Duration) {
        self.deadline
            .get_or_insert_with(|| Instant::now() + timeout);
    }

    fn draining(&self) -> bool {
        self.deadline.is_some()
    }

    fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

impl HttpServer {
    pub fn bind(addr: impl ToSocketAddrs, config: HttpConfig) -> std::io::Result<HttpServer> {
        HttpServer::bind_as(addr, config, Codec::Http)
    }

    /// A core whose first listener speaks `codec`.
    pub(crate) fn bind_as(
        addr: impl ToSocketAddrs,
        config: HttpConfig,
        codec: Codec,
    ) -> std::io::Result<HttpServer> {
        // Wakes the reactor out of `epoll_wait` from worker threads
        // and shutdown handles.
        let (waker_rx, waker_tx) = UnixStream::pair()?;
        waker_rx.set_nonblocking(true)?;
        waker_tx.set_nonblocking(true)?;
        let mut server = HttpServer {
            listeners: Vec::new(),
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
            waker_rx,
            waker_tx,
        };
        server.listen(addr, codec)?;
        Ok(server)
    }

    /// Bind one more listener speaking `codec`; returns its address.
    pub(crate) fn listen(
        &mut self,
        addr: impl ToSocketAddrs,
        codec: Codec,
    ) -> std::io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let bound = listener.local_addr()?;
        self.listeners.push((listener, codec));
        Ok(bound)
    }

    /// The address of the first listener.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listeners[0].0.local_addr()
    }

    pub fn shutdown_handle(&self) -> std::io::Result<ShutdownHandle> {
        Ok(ShutdownHandle {
            flag: Arc::clone(&self.shutdown),
            waker: self.waker_tx.try_clone()?,
        })
    }

    /// Run the reactor on the calling thread with the worker pool
    /// around it, serving every tenant in `registry` on every listener;
    /// returns after a graceful drain (framed `SHUTDOWN`, handle, or
    /// signal).
    pub fn serve_registry(self, registry: Arc<TenantRegistry>) -> std::io::Result<()> {
        let HttpServer {
            listeners,
            config,
            shutdown,
            waker_rx,
            waker_tx,
        } = self;
        // Best effort: the fd budget should cover the connection cap.
        let _ = sys::raise_nofile_limit(config.max_connections as u64 * 2 + 64);
        // The queue_depth bound is the server-wide cap; per-tenant caps
        // ride each push.
        let dispatch: FairDispatch<Job> =
            FairDispatch::new(DEFAULT_QUANTUM, config.queue_depth.max(1));
        let done: Mutex<Vec<Done>> = Mutex::new(Vec::new());
        ssdm_array::pool::run_scoped(
            config.workers.max(1),
            || {
                while let Some((tenant_name, mut job)) = dispatch.pop() {
                    // `None`: the job outwaited its queue bound.
                    let run = || {
                        if job.enqueued.elapsed() > config.request_timeout {
                            let why = "request timed out waiting for a worker";
                            (None, job.work.refuse(503, why, config.max_frame))
                        } else {
                            let (ok, encoded) =
                                job.work.run(&job.tenant, &registry, config.max_frame);
                            (Some(ok), encoded)
                        }
                    };
                    // The unwind boundary is the whole job: wherever it
                    // panics, the slot is released, the outcome counted
                    // and the reply delivered below.
                    let (outcome, encoded) =
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(run)).unwrap_or_else(
                            |panic| (Some(false), job.work.panicked(panic, config.max_frame)),
                        );
                    dispatch.finish(&tenant_name);
                    match outcome {
                        Some(ok) => job.tenant.note_done(ok),
                        None => {
                            ssdm_obs::recorder()
                                .counter("ssdm_http_queue_timeouts_total")
                                .inc();
                            job.tenant.note_timed_out();
                        }
                    }
                    let mut completed = done.lock().expect("completion list");
                    // The reactor takes the whole list in one pass, so
                    // only the completion that starts a list wakes it.
                    let first = completed.is_empty();
                    completed.push(Done {
                        token: job.token,
                        seq: job.seq,
                        encoded,
                        close: job.work.closes(),
                    });
                    drop(completed);
                    if first {
                        wake(&waker_tx);
                    }
                }
            },
            || {
                let result = reactor(
                    &listeners, &config, &shutdown, waker_rx, &registry, &dispatch, &done,
                );
                // Unblock the workers (queued jobs still drain).
                dispatch.close();
                result
            },
        )
    }
}

/// The event loop. Owns all connection state; never blocks on the
/// engine.
fn reactor(
    listeners: &[(TcpListener, Codec)],
    config: &HttpConfig,
    shutdown: &AtomicBool,
    waker_rx: UnixStream,
    registry: &TenantRegistry,
    dispatch: &FairDispatch<Job>,
    done: &Mutex<Vec<Done>>,
) -> std::io::Result<()> {
    let poller = Poller::new()?;
    poller.add(waker_rx.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
    if let Some(fd) = config.signal_fd {
        poller.add(fd, TOKEN_SIGNAL, Interest::READ)?;
    }
    let first_conn_token = FIRST_LISTENER_TOKEN + listeners.len() as u64;
    for (token, (listener, _)) in (FIRST_LISTENER_TOKEN..).zip(listeners) {
        listener.set_nonblocking(true)?;
        poller.add(listener.as_raw_fd(), token, Interest::READ)?;
    }

    let mut drain = DrainState { deadline: None };
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = first_conn_token;
    let mut events = Vec::new();
    let rec = ssdm_obs::recorder();
    let counters = counters();

    loop {
        poller.wait(&mut events, Some(Duration::from_millis(200)))?;
        counters.wakeups.inc();
        let mut touched: Vec<u64> = Vec::new();

        for ev in &events {
            match ev.token {
                TOKEN_WAKER => {
                    // One read: a byte left behind keeps the
                    // level-triggered poller reporting the waker. It
                    // comes before the completion list is taken below,
                    // so a byte written after that take stays unread.
                    let _ = (&waker_rx).read(&mut [0u8; 64]);
                }
                TOKEN_SIGNAL => {
                    if config
                        .signal_fd
                        .is_some_and(|fd| sys::drain_signal_fd(fd) > 0)
                    {
                        drain.begin(config.drain_timeout);
                    }
                }
                token if token < first_conn_token => {
                    let (listener, codec) = &listeners[(token - FIRST_LISTENER_TOKEN) as usize];
                    accept_ready(
                        listener,
                        *codec,
                        &poller,
                        config,
                        &drain,
                        &mut conns,
                        &mut next_token,
                    );
                }
                token => {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    if (ev.readable || ev.hangup) && conn.fill(config.max_buffered).is_err() {
                        poller_forget(&poller, conn);
                        conns.remove(&token);
                    } else {
                        touched.push(token);
                    }
                }
            }
        }

        if shutdown.load(Ordering::SeqCst) {
            drain.begin(config.drain_timeout);
        }

        // Deliver worker completions before pumping, so freed pipeline
        // slots parse further buffered requests in the same pass.
        let completed = std::mem::take(&mut *done.lock().expect("completion list"));
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
            if pump(conn, config, &mut drain, registry, dispatch, rec) {
                poller_forget(&poller, conn);
                conns.remove(&token);
            } else {
                let interest = Interest {
                    read: true,
                    write: conn.wants_write(),
                };
                if interest != conn.registered
                    && poller
                        .modify(conn.stream.as_raw_fd(), token, interest)
                        .is_ok()
                {
                    conn.registered = interest;
                }
            }
        }

        // Timeout scan + drain progress.
        let now = Instant::now();
        conns.retain(|_, conn| {
            let expired =
                conn.timed_out(now, config.idle_timeout) || (drain.draining() && conn.is_idle());
            if expired {
                poller_forget(&poller, conn);
            }
            !expired
        });

        if drain.draining() && (conns.is_empty() || drain.expired()) {
            return Ok(());
        }
    }
}

fn poller_forget(poller: &Poller, conn: &Conn) {
    let _ = poller.delete(conn.stream.as_raw_fd());
}

/// Accept everything pending on one listener. During a drain new
/// arrivals are dropped; over the connection cap they get a one-line
/// 503 in the listener's wire.
fn accept_ready(
    listener: &TcpListener,
    codec: Codec,
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
                    let _ = stream.set_nonblocking(true);
                    counters().socket_writes.inc();
                    let _ = (&stream).write(&codec.busy_reply(config.max_frame));
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
                    conns.insert(token, Conn::new(stream, token, codec));
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Advance one connection: decode buffered requests, admit and dispatch
/// or refuse them, flush output. Returns whether the connection is
/// finished.
fn pump(
    conn: &mut Conn,
    config: &HttpConfig,
    drain: &mut DrainState,
    registry: &TenantRegistry,
    dispatch: &FairDispatch<Job>,
    rec: &'static ssdm_obs::Recorder,
) -> bool {
    // During a drain no *new* requests are taken; what is in flight
    // still completes and flushes below. A refusal frees its pipeline
    // slot at once, so decoding resumes behind it.
    let mut again = !drain.draining();
    while std::mem::take(&mut again) {
        let input = conn.drain_input(config, registry);
        for d in input.jobs {
            // Admission before any queueing: unknown tenant → 404, over
            // the req/s token bucket → 429; then the DRR push enforces
            // the tenant's in-flight cap (429) and the server-wide
            // queue bound (503).
            let name = d.work.tenant(conn.session_tenant());
            let rejected = match registry.admit(name, Instant::now()) {
                Err(why) => Some((why, d.work)),
                Ok(tenant) => {
                    let cost = d.work.cost();
                    let job = Job {
                        token: conn.token,
                        seq: d.seq,
                        work: d.work,
                        enqueued: Instant::now(),
                        tenant: Arc::clone(&tenant),
                    };
                    // Counted as admitted before a worker can pop the
                    // job: the job may be the very `/metrics` read that
                    // reports the count.
                    dispatch
                        .push(&tenant.name, tenant.caps(), cost, job, || {
                            tenant.note_admitted()
                        })
                        .err()
                        .map(|(why, job)| {
                            tenant.note_rejected(&why);
                            (why, job.work)
                        })
                }
            };
            if let Some((why, work)) = rejected {
                rec.counter("ssdm_http_admission_rejects_total").inc();
                let refusal = work.refuse(why.http_status(), &why.message(), config.max_frame);
                conn.complete_inflight(d.seq, refusal, work.closes());
                again = true;
            }
        }
        if input.shutdown {
            drain.begin(config.drain_timeout);
        }
    }
    conn.flush() == FlushState::Closed
}

#[cfg(test)]
mod tests {
    use super::negotiate::ResultFormat;
    use super::*;
    use crate::tenant::TenantQuotas;
    use crate::Ssdm;
    use scisparql::QueryResult;
    use std::io::BufRead;
    use std::net::TcpStream;

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
        let registry = Arc::new(TenantRegistry::new(db, TenantQuotas::default()));
        let join = std::thread::spawn(move || server.serve_registry(registry));
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

    /// Fifty rounds of INSERT, ASK, DELETE, ASK on one triple, all in
    /// one write: each ASK must see exactly the updates sent before it.
    #[test]
    fn pipelined_updates_are_barriers_for_the_queries_behind_them() {
        let (addr, handle, join) = start_server(HttpConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let triple = "<http://ex/r> <http://ex/p> 1";
        let request = |endpoint: &str, kind: &str, text: &str| {
            format!(
                "POST /{endpoint} HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-{kind}\r\nAccept: application/sparql-results+json\r\nContent-Length: {}\r\n\r\n{text}",
                text.len()
            )
        };
        let ask = request("query", "query", &format!("ASK {{ {triple} }}"));
        let round = [
            request("update", "update", &format!("INSERT DATA {{ {triple} }}")),
            ask.clone(),
            request("update", "update", &format!("DELETE DATA {{ {triple} }}")),
            ask,
        ]
        .concat();
        const ROUNDS: usize = 50;
        let wire = round.repeat(ROUNDS);
        let mut writer = stream.try_clone().unwrap();
        let sender = std::thread::spawn(move || writer.write_all(wire.as_bytes()).unwrap());
        let mut reader = std::io::BufReader::new(stream);
        for n in 0..ROUNDS {
            for (what, want) in [
                ("insert", "inserted 1"),
                ("ask", "true"),
                ("delete", "deleted 1"),
                ("ask", "false"),
            ] {
                let (status, _, body) = read_response(&mut reader);
                let body = String::from_utf8(body).unwrap();
                assert_eq!(status, 200, "round {n} {what}: {body}");
                assert!(body.contains(want), "round {n} {what}: {body}");
            }
        }
        sender.join().unwrap();
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
        // A served request shows each held connection is registered
        // before the third arrives.
        let held: Vec<_> = (0..2)
            .map(|_| {
                let mut stream = TcpStream::connect(addr).unwrap();
                stream
                    .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                    .unwrap();
                let mut reader = std::io::BufReader::new(stream);
                assert_eq!(read_response(&mut reader).0, 200);
                reader
            })
            .collect();
        let third = TcpStream::connect(addr).unwrap();
        third
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut third = std::io::BufReader::new(third);
        let (status, _, _) = read_response(&mut third);
        assert_eq!(status, 503);
        drop(held);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    /// 8 connections × 64 pipelined queries on 4 workers, against two
    /// tenants capped below the pool (one and two statements at once),
    /// so workers keep blocking behind a capped tenant and only
    /// `finish` can wake them. Every response must arrive, in order; a
    /// lost wake-up shows as a read timing out, not as a hang.
    #[test]
    fn pipelined_connections_on_capped_tenants_lose_no_wakeup() {
        const CONNS: usize = 8;
        const DEPTH: usize = 64;
        let quotas = |max_concurrent| TenantQuotas {
            max_concurrent,
            max_queued: CONNS * DEPTH,
            rate: None,
        };
        let registry = TenantRegistry::new(Ssdm::open(crate::Backend::Memory), quotas(1));
        registry
            .add("alice", Ssdm::open(crate::Backend::Memory), quotas(2))
            .unwrap();
        let config = HttpConfig {
            workers: 4,
            queue_depth: CONNS * DEPTH,
            ..HttpConfig::default()
        };
        let server = HttpServer::bind("127.0.0.1:0", config).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = server.shutdown_handle().unwrap();
        let registry = Arc::new(registry);
        let join = std::thread::spawn(move || server.serve_registry(registry));

        let clients: Vec<_> = (0..CONNS)
            .map(|c| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(20)))
                        .unwrap();
                    let path = if c % 2 == 0 {
                        "/query"
                    } else {
                        "/tenants/alice/query"
                    };
                    let wire: String = (0..DEPTH)
                        .map(|i| {
                            let n = c * 1000 + i;
                            format!(
                                "GET {path}?query=SELECT%20%28{n}%20AS%20%3Fn%29%20WHERE%20%7B%7D HTTP/1.1\r\nHost: t\r\nAccept: text/csv\r\n\r\n"
                            )
                        })
                        .collect();
                    (&stream).write_all(wire.as_bytes()).unwrap();
                    let mut reader = std::io::BufReader::new(stream);
                    for i in 0..DEPTH {
                        let (status, _, body) = read_response(&mut reader);
                        let body = String::from_utf8(body).unwrap();
                        assert_eq!(status, 200, "connection {c} request {i}: {body}");
                        let n = body.lines().last().unwrap_or_default().trim();
                        assert_eq!(n, (c * 1000 + i).to_string(), "connection {c} out of order");
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().unwrap();
        }
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    /// `fill` stops after a read that does not fill its chunk: a body
    /// longer than one chunk must still be read whole, and a request
    /// trickling in a byte per write must still complete.
    #[test]
    fn short_reads_lose_no_request_bytes() {
        let (addr, handle, join) = start_server(HttpConfig::default());
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());

        // 40 KiB body, more than two of `fill`'s 16 KiB chunks, in one
        // write.
        let query = format!(
            "ASK {{ <http://ex/s> <http://ex/p> 42 }} #{}",
            "x".repeat(40 << 10)
        );
        let request = format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Type: application/sparql-query\r\nAccept: application/sparql-results+json\r\nContent-Length: {}\r\n\r\n{query}",
            query.len()
        );
        (&stream).write_all(request.as_bytes()).unwrap();
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"head":{},"boolean":true}"#);

        // The same keep-alive connection, one byte per write.
        let request = "GET /query?query=ASK%7B%3Chttp%3A%2F%2Fex%2Fs%3E%20%3Chttp%3A%2F%2Fex%2Fp%3E%2042%7D HTTP/1.1\r\nHost: t\r\nAccept: application/sparql-results+json\r\n\r\n";
        for byte in request.as_bytes() {
            (&stream).write_all(std::slice::from_ref(byte)).unwrap();
        }
        let (status, _, body) = read_response(&mut reader);
        assert_eq!(status, 200);
        assert_eq!(body, br#"{"head":{},"boolean":true}"#);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}
