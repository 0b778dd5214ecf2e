//! Per-connection state for the event loop.
//!
//! A [`Conn`] owns one nonblocking socket plus its receive buffer,
//! transmit buffer, and the reorder window that keeps pipelined
//! responses in request order: each decoded request gets a sequence
//! number, workers complete them in any order, and completed responses
//! are promoted to the transmit buffer only when every earlier sequence
//! has been promoted first. Which wire the bytes are in — HTTP/1.1 or
//! the framed protocol — is a [`Codec`] fixed when the connection is
//! accepted; everything but decoding is common to both.
//!
//! Pipelined HTTP queries run side by side; an HTTP update is a barrier
//! on its connection. It is dispatched once every request ahead of it
//! has completed, and nothing behind it is decoded until it completes,
//! so each request sees exactly the updates sent before it.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::tenant::{TenantRegistry, DEFAULT_TENANT};

use super::frame::{self, Decoded, Statement};
use super::parser::{self, Limits, Parsed};
use super::router::{self, Exec, Response, Routed};
use super::sys::{counters, Interest};
use super::{HttpConfig, Work};

/// Cap on requests a single HTTP connection may have in flight at once;
/// beyond it, pipelined bytes wait in the receive buffer.
pub const MAX_PIPELINE: usize = 32;

/// The wire a listener speaks, and so every connection it accepts.
#[derive(Debug, Clone, Copy)]
pub enum Codec {
    Http,
    Framed,
}

impl Codec {
    /// The flat refusal for an arrival over the connection cap.
    pub fn busy_reply(self, max_frame: u32) -> Vec<u8> {
        match self {
            Codec::Http => Response::text(503, "connection limit reached").encode(false),
            Codec::Framed => {
                frame::encode(1, "503 server busy: connection limit reached", max_frame)
            }
        }
    }
}

/// A decoded request handed to the reactor for admission and dispatch.
pub struct Dispatch {
    pub seq: u64,
    pub work: Work,
}

/// What one [`Conn::drain_input`] pass decoded.
#[derive(Default)]
pub struct Input {
    pub jobs: Vec<Dispatch>,
    /// A framed `SHUTDOWN` was answered: begin the graceful drain.
    pub shutdown: bool,
}

/// What `flush` left behind.
#[derive(Debug, PartialEq, Eq)]
pub enum FlushState {
    /// Everything promoted so far is on the wire.
    Drained,
    /// The socket would block; keep write interest registered.
    Blocked,
    /// The connection is finished (close-after-flush completed or the
    /// peer vanished) and should be deregistered and dropped.
    Closed,
}

pub struct Conn {
    pub stream: TcpStream,
    pub token: u64,
    /// The interest the poller holds for this socket: it is changed
    /// only when the wanted interest differs.
    pub(crate) registered: Interest,
    codec: Codec,
    rbuf: Vec<u8>,
    /// Bytes the request being received will occupy, as far as its
    /// decoder can tell: the receive cap stretches to it, so one frame
    /// or one HTTP body may exceed `max_buffered`.
    need: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    /// Completed responses waiting on earlier sequences: seq →
    /// (encoded bytes, close-after flag).
    ready: BTreeMap<u64, (Vec<u8>, bool)>,
    /// Sequence the next decoded request receives.
    next_seq: u64,
    /// Sequence the next promoted response must carry.
    flush_seq: u64,
    /// Requests dispatched to workers and not yet completed.
    pub inflight: usize,
    /// HTTP: the sequence of the update decoded last, until it
    /// completes; no request behind it is decoded before then.
    barrier: Option<u64>,
    /// That update, while requests ahead of it are still running.
    held: Option<Dispatch>,
    pub last_activity: Instant,
    /// Stop reading; close once the transmit buffer drains.
    close_after_flush: bool,
    peer_closed: bool,
    /// HTTP: `Expect: 100-continue` answered already for the request
    /// currently accumulating.
    sent_continue: bool,
    /// Framed session state: the tenant `USE` selected (`None` = the
    /// default; always `None` over HTTP), and consecutive non-UTF-8
    /// statements so far.
    tenant: Option<String>,
    protocol_errors: u32,
}

impl Conn {
    pub fn new(stream: TcpStream, token: u64, codec: Codec) -> Conn {
        Conn {
            stream,
            token,
            registered: Interest::READ,
            codec,
            rbuf: Vec::new(),
            need: 0,
            wbuf: Vec::new(),
            wpos: 0,
            ready: BTreeMap::new(),
            next_seq: 0,
            flush_seq: 0,
            inflight: 0,
            barrier: None,
            held: None,
            last_activity: Instant::now(),
            close_after_flush: false,
            peer_closed: false,
            sent_continue: false,
            tenant: None,
            protocol_errors: 0,
        }
    }

    /// Nothing pending in either direction — safe to close during a
    /// drain without cutting off an answered request.
    pub fn is_idle(&self) -> bool {
        self.inflight == 0 && self.ready.is_empty() && self.wbuf.len() == self.wpos
    }

    /// No byte has moved in either direction for `idle` and no worker
    /// owes this connection a response: it is parked, stalled
    /// mid-request, or its peer stopped reading what was sent.
    pub fn timed_out(&self, now: Instant, idle: Duration) -> bool {
        self.inflight == 0 && now.duration_since(self.last_activity) > idle
    }

    /// The tenant a framed job just decoded runs as: with one statement
    /// in flight, no later `USE` has been decoded yet.
    pub fn session_tenant(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    pub fn wants_write(&self) -> bool {
        self.wbuf.len() > self.wpos
    }

    /// Read what is available, up to the receive cap. A read that
    /// does not fill the chunk has taken everything the socket held, so
    /// reading stops there instead of asking again for a `WouldBlock`;
    /// bytes arriving later make the level-triggered poller report the
    /// socket again. Returns `false` when the peer closed its write
    /// side (pending responses still flush).
    pub fn fill(&mut self, max_buffered: usize) -> io::Result<bool> {
        let cap = max_buffered.max(self.need);
        let mut chunk = [0u8; 16 * 1024];
        loop {
            if self.rbuf.len() >= cap {
                // Backpressure: stop reading until the pipeline drains.
                return Ok(!self.peer_closed);
            }
            counters().socket_reads.inc();
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.peer_closed = true;
                    return Ok(false);
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.last_activity = Instant::now();
                    if n < chunk.len() {
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Decode as many buffered requests as the pipeline window allows.
    /// Immediate responses are completed in place; engine work comes
    /// back as [`Dispatch`] entries for the reactor. HTTP queries are
    /// independent of each other, an HTTP update waits for the requests
    /// ahead of it and holds back those behind it; a framed session's
    /// statements execute in the order sent (an `ASK` sees the `INSERT`
    /// pipelined ahead of it), so the next frame waits for the one in
    /// flight.
    pub fn drain_input(&mut self, config: &HttpConfig, registry: &TenantRegistry) -> Input {
        let mut input = Input::default();
        self.release_held(&mut input.jobs);
        let window = match self.codec {
            Codec::Http => MAX_PIPELINE,
            Codec::Framed => 1,
        };
        while !self.close_after_flush
            && !self.rbuf.is_empty()
            && self.barrier.is_none()
            && self.inflight + self.ready.len() < window
        {
            let more = match self.codec {
                Codec::Http => self.next_http(&config.limits, &mut input.jobs),
                Codec::Framed => self.next_framed(config, registry, &mut input),
            };
            if !more {
                break;
            }
        }
        input
    }

    /// Parse one HTTP request off the receive buffer; `false` when the
    /// buffer holds no further complete request.
    fn next_http(&mut self, limits: &Limits, jobs: &mut Vec<Dispatch>) -> bool {
        match parser::parse_request(&self.rbuf, limits) {
            Parsed::Incomplete {
                expects_continue,
                need,
            } => {
                // The most one request may occupy: a head, its blank
                // line and a body, each at its limit. An unfinished
                // request that already fills it (chunk framing counts)
                // can never complete within the limits.
                let bound = limits.max_head_bytes + 4 + limits.max_body_bytes;
                if self.rbuf.len() >= bound {
                    let refusal = Response::text(413, "request too large");
                    self.reply(refusal.encode(false), true);
                    self.rbuf.clear();
                    return false;
                }
                self.need = need.min(bound);
                if expects_continue && !self.sent_continue {
                    self.sent_continue = true;
                    self.wbuf
                        .extend_from_slice(b"HTTP/1.1 100 Continue\r\n\r\n");
                }
                // A torso with no more bytes coming: give up.
                self.close_after_flush |= self.peer_closed;
                false
            }
            Parsed::Error(e) => {
                // Framing is broken; answer once and close.
                self.reply(Response::text(e.status, e.message).encode(false), true);
                self.rbuf.clear();
                false
            }
            Parsed::Complete(req, consumed) => {
                self.rbuf.drain(..consumed);
                self.need = 0;
                self.sent_continue = false;
                let keep_alive = req.keep_alive;
                // Without keep-alive no further requests will be
                // answered; stop parsing whatever was pipelined behind.
                self.close_after_flush |= !keep_alive;
                match router::route(&req) {
                    Routed::Immediate(resp) => {
                        self.reply(resp.encode(keep_alive), !keep_alive);
                        true
                    }
                    Routed::Dispatch { exec, head_only } => {
                        let update = matches!(exec, Exec::Update { .. });
                        let work = Work::Http {
                            exec,
                            head_only,
                            keep_alive,
                        };
                        if update {
                            let seq = self.take_seq();
                            self.barrier = Some(seq);
                            self.held = Some(Dispatch { seq, work });
                            self.release_held(jobs);
                            return false;
                        }
                        self.dispatch(jobs, work);
                        true
                    }
                }
            }
        }
    }

    /// Decode one frame off the receive buffer and act on it: protocol
    /// errors and the session's own statements are answered here, the
    /// rest become jobs. A `USE` therefore takes effect for every frame
    /// decoded after it.
    fn next_framed(
        &mut self,
        config: &HttpConfig,
        registry: &TenantRegistry,
        input: &mut Input,
    ) -> bool {
        let max = config.max_frame;
        let status1 = |message: &str| frame::encode(1, message, max);
        let (text, consumed) = match frame::decode(&self.rbuf, max) {
            Decoded::Incomplete { need } => {
                self.need = need;
                self.close_after_flush |= self.peer_closed;
                return false;
            }
            Decoded::TooLarge(len) => {
                // The unread payload makes the stream unframeable:
                // answer once, then drop the connection.
                let why = format!("request too large: {len} bytes > {max} max");
                self.reply(status1(&why), true);
                self.rbuf.clear();
                return false;
            }
            Decoded::Frame(payload, consumed) => (
                std::str::from_utf8(payload).ok().map(str::to_owned),
                consumed,
            ),
        };
        self.rbuf.drain(..consumed);
        self.need = 0;
        let Some(text) = text else {
            self.protocol_errors += 1;
            if self.protocol_errors >= config.max_protocol_errors {
                self.reply(status1("too many protocol errors"), true);
            } else {
                self.reply(status1("request is not UTF-8"), false);
            }
            return true;
        };
        self.protocol_errors = 0;
        match Statement::parse(text) {
            Statement::Shutdown => {
                self.reply(frame::encode(0, "bye", max), true);
                input.shutdown = true;
            }
            Statement::Tenant => {
                let name = self.tenant.as_deref().unwrap_or(DEFAULT_TENANT);
                self.reply(frame::encode(0, name, max), false);
            }
            Statement::Use(name) => match registry.get(&name) {
                Some(_) => {
                    self.reply(frame::encode(0, &format!("tenant {name}"), max), false);
                    self.tenant = Some(name);
                }
                None => self.reply(status1(&format!("unknown tenant: {name}")), false),
            },
            Statement::Exec(exec) => self.dispatch(&mut input.jobs, Work::Framed(exec)),
        }
        true
    }

    fn take_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq - 1
    }

    /// Answer the request just decoded from the event loop itself.
    fn reply(&mut self, encoded: Vec<u8>, close: bool) {
        let seq = self.take_seq();
        self.complete(seq, encoded, close);
    }

    /// Dispatch the held update once nothing ahead of it is running.
    fn release_held(&mut self, jobs: &mut Vec<Dispatch>) {
        if self.inflight == 0 {
            if let Some(held) = self.held.take() {
                self.inflight += 1;
                jobs.push(held);
            }
        }
    }

    /// Hand the request just decoded to the reactor as a job.
    fn dispatch(&mut self, jobs: &mut Vec<Dispatch>, work: Work) {
        self.inflight += 1;
        let seq = self.take_seq();
        jobs.push(Dispatch { seq, work });
    }

    /// Record a finished response; promotes every response whose turn
    /// has come into the transmit buffer.
    pub fn complete(&mut self, seq: u64, encoded: Vec<u8>, close: bool) {
        self.ready.insert(seq, (encoded, close));
        while let Some((bytes, close)) = self.ready.remove(&self.flush_seq) {
            self.flush_seq += 1;
            self.wbuf.extend_from_slice(&bytes);
            if close {
                self.close_after_flush = true;
            }
        }
    }

    /// Like [`Conn::complete`] for worker results (which decrement the
    /// in-flight count).
    pub fn complete_inflight(&mut self, seq: u64, encoded: Vec<u8>, close: bool) {
        self.inflight = self.inflight.saturating_sub(1);
        if self.barrier == Some(seq) {
            self.barrier = None;
        }
        self.complete(seq, encoded, close);
    }

    /// Write buffered bytes until the socket blocks or the buffer
    /// empties.
    pub fn flush(&mut self) -> FlushState {
        while self.wpos < self.wbuf.len() {
            counters().socket_writes.inc();
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return FlushState::Closed,
                Ok(n) => {
                    self.wpos += n;
                    self.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return FlushState::Blocked,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return FlushState::Closed,
            }
        }
        self.wbuf.clear();
        self.wpos = 0;
        if self.close_after_flush && self.ready.is_empty() && self.inflight == 0 {
            return FlushState::Closed;
        }
        if self.peer_closed && self.is_idle() {
            return FlushState::Closed;
        }
        FlushState::Drained
    }
}

#[cfg(test)]
mod tests {
    use super::super::frame::FramedExec;
    use super::*;
    use crate::tenant::TenantQuotas;
    use crate::{Backend, Ssdm};
    use std::net::TcpListener;

    /// Tight framed limits; HTTP's stay at their defaults.
    fn config() -> HttpConfig {
        HttpConfig {
            max_frame: 1024,
            max_protocol_errors: 2,
            ..HttpConfig::default()
        }
    }

    fn pair(codec: Codec) -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        (Conn::new(server, 7, codec), client)
    }

    fn registry() -> TenantRegistry {
        let registry = TenantRegistry::new(Ssdm::open(Backend::Memory), TenantQuotas::default());
        registry
            .add(
                "alice",
                Ssdm::open(Backend::Memory),
                TenantQuotas::default(),
            )
            .unwrap();
        registry
    }

    /// Write `bytes` from the client and read until the connection has
    /// buffered all of them.
    fn send(conn: &mut Conn, client: &mut TcpStream, bytes: &[u8]) {
        let want = conn.rbuf.len() + bytes.len();
        client.write_all(bytes).unwrap();
        while conn.rbuf.len() < want {
            conn.fill(1 << 20).unwrap();
            std::thread::yield_now();
        }
    }

    fn frame_of(statement: &[u8]) -> Vec<u8> {
        [&(statement.len() as u32).to_le_bytes()[..], statement].concat()
    }

    /// Flush and read everything the connection has written so far.
    fn written(conn: &mut Conn, client: &mut TcpStream) -> Vec<u8> {
        let expect = conn.wbuf.len() - conn.wpos;
        conn.flush();
        let mut out = vec![0u8; expect];
        client.read_exact(&mut out).unwrap();
        out
    }

    #[test]
    fn pipelined_responses_flush_in_request_order() {
        let (mut conn, mut client) = pair(Codec::Http);
        send(
            &mut conn,
            &mut client,
            b"GET /metrics HTTP/1.1\r\n\r\nGET /stats HTTP/1.1\r\n\r\n",
        );
        let jobs = conn.drain_input(&config(), &registry()).jobs;
        assert_eq!(jobs.len(), 2);
        assert_eq!(conn.inflight, 2);

        // Complete out of order: seq 1 first must not reach the wire
        // before seq 0.
        conn.complete_inflight(jobs[1].seq, b"SECOND".to_vec(), false);
        assert!(!conn.wants_write(), "seq 1 held back until seq 0 lands");
        conn.complete_inflight(jobs[0].seq, b"FIRST".to_vec(), false);
        assert_eq!(written(&mut conn, &mut client), b"FIRSTSECOND");
    }

    #[test]
    fn an_update_waits_for_the_requests_ahead_and_holds_back_those_behind() {
        let (mut conn, mut client) = pair(Codec::Http);
        let update = "POST /update HTTP/1.1\r\nContent-Type: application/sparql-update\r\nContent-Length: 6\r\n\r\nCLEAR ";
        let query = "GET /query?query=ASK%7B%7D HTTP/1.1\r\n\r\n";
        let wire = [query, query, update, query, query, update, update].concat();
        send(&mut conn, &mut client, wire.as_bytes());
        let (config, registry) = (config(), registry());
        let drain = |conn: &mut Conn| -> Vec<u64> {
            let jobs = conn.drain_input(&config, &registry).jobs;
            jobs.iter().map(|d| d.seq).collect()
        };
        // Both queries run; the update behind them waits, and so does
        // everything behind it.
        assert_eq!(drain(&mut conn), [0, 1]);
        conn.complete_inflight(1, b"B".to_vec(), false);
        assert_eq!(drain(&mut conn), [] as [u64; 0]);
        conn.complete_inflight(0, b"A".to_vec(), false);
        assert_eq!(drain(&mut conn), [2], "the update runs alone");
        assert_eq!(drain(&mut conn), [] as [u64; 0]);
        conn.complete_inflight(2, b"U".to_vec(), false);
        assert_eq!(
            drain(&mut conn),
            [3, 4],
            "queries between updates run together"
        );
        conn.complete_inflight(3, b"C".to_vec(), false);
        conn.complete_inflight(4, b"D".to_vec(), false);
        assert_eq!(
            drain(&mut conn),
            [5],
            "an update with nothing ahead runs at once"
        );
        conn.complete_inflight(5, b"V".to_vec(), false);
        assert_eq!(drain(&mut conn), [6]);
        conn.complete_inflight(6, b"W".to_vec(), false);
        assert_eq!(written(&mut conn, &mut client), b"ABUCDVW");
    }

    #[test]
    fn connection_close_request_stops_the_pipeline() {
        let (mut conn, mut client) = pair(Codec::Http);
        send(
            &mut conn,
            &mut client,
            b"GET /metrics HTTP/1.1\r\nConnection: close\r\n\r\nGET /stats HTTP/1.1\r\n\r\n",
        );
        let jobs = conn.drain_input(&config(), &registry()).jobs;
        assert_eq!(jobs.len(), 1, "nothing behind a Connection: close parses");
        conn.complete_inflight(jobs[0].seq, b"BYE".to_vec(), true);
        assert_eq!(conn.flush(), FlushState::Closed);
    }

    #[test]
    fn malformed_request_answers_then_closes() {
        let (mut conn, mut client) = pair(Codec::Http);
        send(&mut conn, &mut client, b"garbage\r\n\r\n");
        let jobs = conn.drain_input(&config(), &registry()).jobs;
        assert!(jobs.is_empty());
        assert!(conn.wants_write());
        assert_eq!(conn.flush(), FlushState::Closed);
        drop(conn); // the reactor would deregister and drop it here
        let mut out = Vec::new();
        client.read_to_end(&mut out).unwrap();
        assert!(String::from_utf8_lossy(&out).starts_with("HTTP/1.1 400"));
    }

    #[test]
    fn expect_continue_gets_the_interim_response_once() {
        let (mut conn, mut client) = pair(Codec::Http);
        let registry = registry();
        send(&mut conn, &mut client, b"POST /query HTTP/1.1\r\nExpect: 100-continue\r\nContent-Type: application/sparql-query\r\nContent-Length: 6\r\n\r\n");
        assert!(conn.drain_input(&config(), &registry).jobs.is_empty());
        assert!(conn.wants_write(), "100 Continue queued");
        assert_eq!(conn.flush(), FlushState::Drained);
        // A second parse attempt must not repeat the interim response.
        assert!(conn.drain_input(&config(), &registry).jobs.is_empty());
        assert!(!conn.wants_write());
        // Body arrives; the request dispatches.
        send(&mut conn, &mut client, b"ASK {}");
        assert_eq!(conn.drain_input(&config(), &registry).jobs.len(), 1);
    }

    #[test]
    fn framed_statements_run_one_at_a_time_and_use_binds_later_frames() {
        let (mut conn, mut client) = pair(Codec::Framed);
        let registry = registry();
        // One write, five frames: a query on the default tenant, USE,
        // TENANT, a job that must run as the new tenant, and a USE of a
        // tenant that does not exist.
        let wire = [
            frame_of(b"ASK { }"),
            frame_of(b"use alice"),
            frame_of(b"TENANT"),
            frame_of(b"STATS"),
            frame_of(b"USE nobody"),
        ]
        .concat();
        send(&mut conn, &mut client, &wire);
        fn framed(d: &Dispatch) -> &FramedExec {
            match &d.work {
                Work::Framed(exec) => exec,
                Work::Http { .. } => panic!("HTTP work on a framed connection"),
            }
        }
        // Nothing behind the query is decoded while it is in flight: the
        // session's statements execute in the order sent.
        let first = conn.drain_input(&config(), &registry).jobs;
        assert_eq!(first.len(), 1);
        assert_eq!(framed(&first[0]), &FramedExec::Query("ASK { }".into()));
        assert_eq!(conn.session_tenant(), None);
        assert!(conn.drain_input(&config(), &registry).jobs.is_empty());
        assert!(!conn.wants_write());
        conn.complete_inflight(first[0].seq, frame::encode(0, "Q", 1024), false);

        let second = conn.drain_input(&config(), &registry).jobs;
        assert_eq!(second.len(), 1);
        assert_eq!(framed(&second[0]), &FramedExec::Stats);
        assert_eq!(conn.session_tenant(), Some("alice"));
        conn.complete_inflight(second[0].seq, frame::encode(0, "S", 1024), false);
        assert!(conn.drain_input(&config(), &registry).jobs.is_empty());
        let expected = [
            frame::encode(0, "Q", 1024),
            frame::encode(0, "tenant alice", 1024),
            frame::encode(0, "alice", 1024),
            frame::encode(0, "S", 1024),
            frame::encode(1, "unknown tenant: nobody", 1024),
        ]
        .concat();
        assert_eq!(written(&mut conn, &mut client), expected);
    }

    #[test]
    fn framed_protocol_errors_answer_then_drop_at_the_cap() {
        let (mut conn, mut client) = pair(Codec::Framed);
        let registry = registry();
        let bad = frame_of(&[0xFF, 0xFE, 0xFD]);
        // A valid statement between two bad ones resets the count.
        let wire = [&bad[..], &frame_of(b"TENANT"), &bad, &bad, &bad].concat();
        send(&mut conn, &mut client, &wire);
        assert!(conn.drain_input(&config(), &registry).jobs.is_empty());
        let expected = [
            frame::encode(1, "request is not UTF-8", 1024),
            frame::encode(0, "default", 1024),
            frame::encode(1, "request is not UTF-8", 1024),
            frame::encode(1, "too many protocol errors", 1024),
        ]
        .concat();
        assert_eq!(written(&mut conn, &mut client), expected);
        assert_eq!(conn.flush(), FlushState::Closed, "fifth frame never read");
    }

    #[test]
    fn framed_oversized_request_answers_then_closes() {
        let (mut conn, mut client) = pair(Codec::Framed);
        send(&mut conn, &mut client, &2048u32.to_le_bytes());
        assert!(conn.drain_input(&config(), &registry()).jobs.is_empty());
        assert_eq!(
            written(&mut conn, &mut client),
            frame::encode(1, "request too large: 2048 bytes > 1024 max", 1024)
        );
        assert_eq!(conn.flush(), FlushState::Closed);
    }

    #[test]
    fn framed_shutdown_says_bye_and_stops_decoding() {
        let (mut conn, mut client) = pair(Codec::Framed);
        let wire = [frame_of(b"SHUTDOWN"), frame_of(b"ASK { }")].concat();
        send(&mut conn, &mut client, &wire);
        let input = conn.drain_input(&config(), &registry());
        assert!(input.shutdown);
        assert!(input.jobs.is_empty(), "nothing behind SHUTDOWN is taken");
        assert_eq!(
            written(&mut conn, &mut client),
            frame::encode(0, "bye", 1024)
        );
    }

    #[test]
    fn one_frame_may_exceed_the_receive_cap() {
        let (mut conn, mut client) = pair(Codec::Framed);
        let (roomy, registry) = (HttpConfig::default(), registry());
        let statement = format!("ASK {{ }} #{}", "x".repeat(64 * 1024));
        let wire = frame_of(statement.as_bytes());
        client.write_all(&wire).unwrap();
        // A 4 KiB receive cap: reading pauses there until the decoder
        // has seen the length prefix and asked for the whole frame.
        let mut jobs = Vec::new();
        while jobs.is_empty() {
            conn.fill(4096).unwrap();
            jobs = conn.drain_input(&roomy, &registry).jobs;
            std::thread::yield_now();
        }
        assert!(matches!(
            &jobs[0].work,
            Work::Framed(FramedExec::Query(q)) if *q == statement
        ));
        assert_eq!(conn.need, 0, "the cap falls back once the frame is out");
    }

    /// Pump `wire` through a 4 KiB receive cap until the connection
    /// either hands out a job or wants to answer by itself.
    fn receive_through_a_small_cap(
        conn: &mut Conn,
        client: &mut TcpStream,
        wire: &[u8],
        config: &HttpConfig,
    ) -> Vec<Dispatch> {
        let registry = registry();
        // The peer keeps sending whatever the server does; once the
        // server has answered and dropped the connection that fails.
        let mut sender = client.try_clone().unwrap();
        let wire = wire.to_vec();
        let sending = std::thread::spawn(move || sender.write_all(&wire).is_ok());
        let mut jobs = Vec::new();
        while jobs.is_empty() && !conn.wants_write() {
            conn.fill(4096).unwrap();
            jobs = conn.drain_input(config, &registry).jobs;
            std::thread::yield_now();
        }
        if !jobs.is_empty() {
            assert!(sending.join().unwrap(), "the whole request was taken");
        }
        jobs
    }

    #[test]
    fn one_http_body_may_exceed_the_receive_cap() {
        let body = format!("INSERT DATA {{ <a> <b> 1 }} #{}", "x".repeat(64 * 1024));
        let head = "POST /update HTTP/1.1\r\nContent-Type: application/sparql-update\r\n";
        let sized = format!("{head}Content-Length: {}\r\n\r\n{body}", body.len());
        // Chunks larger and smaller than the cap, and a trailer.
        let (a, b) = body.split_at(50_000);
        let chunked = format!(
            "{head}Transfer-Encoding: chunked\r\n\r\n{:x}\r\n{a}\r\n{:x};ext\r\n{b}\r\n0\r\nT: v\r\n\r\n",
            a.len(),
            b.len()
        );
        for wire in [sized, chunked] {
            let (mut conn, mut client) = pair(Codec::Http);
            let jobs = receive_through_a_small_cap(
                &mut conn,
                &mut client,
                wire.as_bytes(),
                &HttpConfig::default(),
            );
            assert!(matches!(
                &jobs[0].work,
                Work::Http { exec: router::Exec::Update { statement, .. }, .. } if *statement == body
            ));
            assert_eq!(conn.need, 0, "the cap falls back once the request is out");
            assert!(conn.rbuf.is_empty());
        }
    }

    #[test]
    fn a_request_that_outgrows_head_plus_body_is_refused_not_awaited() {
        // Two-byte chunks: five bytes of framing for two of body, so the
        // raw request passes head + body limits long before the decoded
        // body reaches its own.
        let config = HttpConfig {
            limits: Limits {
                max_head_bytes: 256,
                max_body_bytes: 8 * 1024,
                max_headers: 8,
            },
            ..HttpConfig::default()
        };
        let mut wire = b"POST /update HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec();
        for _ in 0..4096 {
            wire.extend_from_slice(b"2\r\nxy\r\n");
        }
        let (mut conn, mut client) = pair(Codec::Http);
        let jobs = receive_through_a_small_cap(&mut conn, &mut client, &wire, &config);
        assert!(jobs.is_empty());
        assert_eq!(conn.flush(), FlushState::Closed);
        drop(conn);
        let mut out = Vec::new();
        let _ = client.read_to_end(&mut out);
        assert!(
            String::from_utf8_lossy(&out).starts_with("HTTP/1.1 413"),
            "{}",
            String::from_utf8_lossy(&out)
        );
    }

    #[test]
    fn a_connection_times_out_only_while_no_worker_owes_it_a_reply() {
        let (mut conn, _client) = pair(Codec::Http);
        let idle = Duration::from_secs(60);
        let later = conn.last_activity + idle + Duration::from_secs(1);
        assert!(!conn.timed_out(conn.last_activity + idle, idle));
        assert!(conn.timed_out(later, idle), "parked");
        conn.inflight = 1;
        assert!(!conn.timed_out(later, idle), "waiting on a worker");
        // The reply arrives but the peer is not reading: unflushed
        // output is not a reason to keep the connection.
        conn.complete_inflight(0, b"REPLY".to_vec(), false);
        assert!(conn.wants_write() && !conn.is_idle());
        assert!(conn.timed_out(later, idle), "stalled on write");
    }
}
