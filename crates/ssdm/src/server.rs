//! Client–server deployment over TCP (thesis §5.1, ch. 7).
//!
//! SSDM "can be utilized as a stand-alone system, a client-server
//! system, or a cluster of processes"; the Matlab integration of ch. 7
//! speaks to an SSDM server over TCP. The wire is a minimal framed
//! protocol ([`crate::http::frame`]):
//!
//! * request: `u32` length (LE) + UTF-8 SciSPARQL statement;
//! * response: `u8` status (0 = ok, 1 = error) + `u32` length + UTF-8
//!   payload. SELECT results serialize as TSV (header line of variable
//!   names, then one row per solution, arrays in collection notation);
//!   ASK returns `true`/`false`; updates return `inserted N deleted M`.
//!
//! Six statements are handled by the wire layer itself: `SHUTDOWN`
//! stops the server, `STATS` returns the session tenant's back-end /
//! cache / APR / durability statistics plus the
//! per-tenant admission counters, `METRICS` returns the Prometheus
//! dump (tenant-labelled series included), `CHECKPOINT` runs a
//! durability checkpoint on the session tenant's engine (an error on
//! non-durable engines), `USE <tenant>` switches the session to a
//! registered tenant, and `TENANT` reports the session's current
//! tenant. `STATS`, `METRICS` and `CHECKPOINT` pass admission and run
//! on a worker like any statement (and are counted in the tenant's
//! `admitted`/`completed`, as HTTP's `/stats` and `/metrics` are); the
//! other three are answered from the session's own state.
//!
//! [`Server`] is a builder and nothing more: it binds the framed
//! listener and any HTTP ones ([`Server::enable_http`]: the `--http`
//! and `--metrics` flags of `ssdm-server`), collects the tenants, and
//! hands them to the one serving core of [`crate::http`]. Connections,
//! admission, fair share, the worker pool, timeouts, panic isolation
//! and the graceful drain are that core's, identical for both wires
//! and described there. What is the framed wire's own
//! ([`ServerConfig::max_frame`], [`ServerConfig::max_protocol_errors`]):
//!
//! * **frame caps in both directions** — an oversized *request* gets a
//!   status-1 reply and the connection is dropped (the stream can no
//!   longer be trusted to be in frame sync); an oversized *response* is
//!   replaced server-side by a status-1 "response too large" frame so
//!   client framing never desynchronizes;
//! * a cap on **consecutive protocol errors** (non-UTF-8 statements)
//!   before the peer is dropped;
//! * refusals (unknown tenant, quota, overload, queue timeout) are
//!   status-1 frames whose text begins with the HTTP-equivalent code;
//! * pipelined frames on one connection are executed one at a time in
//!   the order sent and answered in that order — a session reads its
//!   own writes — and a `USE` takes effect for every frame after it.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;

use scisparql::QueryError;

use crate::http::conn::Codec;
use crate::http::frame::MAX_FRAME;
use crate::http::HttpServer;
use crate::tenant::{TenantQuotas, TenantRegistry};
use crate::Ssdm;

/// Knobs of the server: the serving core's, one set for every listener.
pub use crate::http::HttpConfig as ServerConfig;

/// An SSDM server being set up: listeners bound, tenants collected.
pub struct Server {
    core: HttpServer,
    registry: TenantRegistry,
}

impl Server {
    /// Bind to an address (use port 0 for an ephemeral port) with
    /// default limits.
    pub fn bind(addr: impl ToSocketAddrs, db: Ssdm) -> std::io::Result<Server> {
        Self::bind_with(addr, db, ServerConfig::default())
    }

    /// Bind with explicit [`ServerConfig`] limits; `db` becomes the
    /// default tenant.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        db: Ssdm,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Ok(Server {
            core: HttpServer::bind_as(addr, config, Codec::Framed)?,
            registry: TenantRegistry::new(db, TenantQuotas::default()),
        })
    }

    /// Quotas for the default tenant (the engine passed to
    /// [`Server::bind`]). Generous by default.
    pub fn set_default_quotas(&mut self, quotas: TenantQuotas) {
        self.registry.default_tenant().set_quotas(quotas);
    }

    /// Register an additional named tenant with its own engine and
    /// quotas, served by both the framed wire (`USE <name>`) and HTTP
    /// (`/tenants/<name>/...`) once [`Server::serve`] starts.
    pub fn add_tenant(&mut self, name: &str, db: Ssdm, quotas: TenantQuotas) -> Result<(), String> {
        self.registry.add(name, db, quotas).map(|_| ())
    }

    /// The bound address of the framed listener (to hand to clients).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.core.local_addr()
    }

    /// Bind a SPARQL 1.1 Protocol HTTP listener (use port 0 for an
    /// ephemeral port); returns the bound address. It is served by the
    /// same core as the framed listener: same tenants, same worker
    /// pool and quotas, same graceful drain. `ssdm-server --metrics`
    /// binds one too: scrapers just hit `/metrics` on it.
    pub fn enable_http(&mut self, addr: impl ToSocketAddrs) -> std::io::Result<SocketAddr> {
        self.core.listen(addr, Codec::Http)
    }

    /// Serve every listener until a client sends the statement
    /// `SHUTDOWN` (or [`ServerConfig::signal_fd`] fires), then drain
    /// gracefully: accepting stops, requests in flight finish and get
    /// their responses, idle connections close at once, and whatever is
    /// still open after [`ServerConfig::drain_timeout`] is abandoned.
    pub fn serve(self) -> std::io::Result<()> {
        self.core.serve_registry(Arc::new(self.registry))
    }
}

/// A client connection to an SSDM server — what the Matlab interface of
/// ch. 7 uses under the hood.
pub struct Client {
    /// Replies are read through a buffer: status, length and a short
    /// payload arrive in one `read`.
    stream: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream: BufReader::new(stream),
        })
    }

    /// Send one statement; returns the rendered payload or the server's
    /// error message.
    pub fn query(&mut self, text: &str) -> Result<String, QueryError> {
        let send = |stream: &mut BufReader<TcpStream>| -> std::io::Result<(u8, String)> {
            // Length and statement leave in one write: the server's
            // event loop wakes once per request, not once per piece.
            let mut request = Vec::with_capacity(4 + text.len());
            request.extend_from_slice(&(text.len() as u32).to_le_bytes());
            request.extend_from_slice(text.as_bytes());
            stream.get_mut().write_all(&request)?;
            let mut head = [0u8; 5];
            stream.read_exact(&mut head)?;
            let len = u32::from_le_bytes(head[1..].try_into().expect("4 bytes"));
            if len > MAX_FRAME {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "response too large",
                ));
            }
            let mut buf = vec![0u8; len as usize];
            stream.read_exact(&mut buf)?;
            Ok((
                head[0],
                String::from_utf8(buf).unwrap_or_else(|_| "<binary>".into()),
            ))
        };
        match send(&mut self.stream) {
            Ok((0, payload)) => Ok(payload),
            Ok((_, message)) => Err(QueryError::Eval(message)),
            Err(e) => Err(QueryError::Eval(format!("connection error: {e}"))),
        }
    }

    /// TSV convenience: parse a SELECT payload into (vars, rows).
    pub fn query_rows(
        &mut self,
        text: &str,
    ) -> Result<(Vec<String>, Vec<Vec<String>>), QueryError> {
        let payload = self.query(text)?;
        let mut lines = payload.lines();
        let vars: Vec<String> = lines
            .next()
            .unwrap_or_default()
            .split('\t')
            .map(str::to_string)
            .collect();
        let rows = lines
            .map(|l| l.split('\t').map(str::to_string).collect())
            .collect();
        Ok((vars, rows))
    }

    /// Switch this session to a named tenant (`USE <name>` on the
    /// wire); subsequent statements run against that tenant's engine.
    pub fn use_tenant(&mut self, name: &str) -> Result<(), QueryError> {
        self.query(&format!("USE {name}")).map(|_| ())
    }

    /// The session's current tenant (`TENANT` on the wire).
    pub fn current_tenant(&mut self) -> Result<String, QueryError> {
        self.query("TENANT")
    }

    /// Ask the server to shut down.
    pub fn shutdown(&mut self) -> Result<(), QueryError> {
        self.query("SHUTDOWN").map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Backend;
    use std::sync::mpsc;
    use std::time::{Duration, Instant};

    fn spawn_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let mut db = Ssdm::open(Backend::Memory);
        db.load_turtle(
            r#"@prefix ex: <http://e#> .
               ex:a ex:v (1 2 3) ; ex:name "alpha" .
               ex:b ex:v (4 5 6) ; ex:name "beta" ."#,
        )
        .unwrap();
        let server = Server::bind("127.0.0.1:0", db).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());
        (addr, handle)
    }

    #[test]
    fn select_over_the_wire() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();
        let (vars, rows) = client
            .query_rows(
                "PREFIX ex: <http://e#>
                 SELECT ?name (array_sum(?v) AS ?s) WHERE { ?x ex:name ?name ; ex:v ?v }
                 ORDER BY ?name",
            )
            .unwrap();
        assert_eq!(vars, vec!["name", "s"]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec!["\"alpha\"", "6"]);
        assert_eq!(rows[1], vec!["\"beta\"", "15"]);
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn updates_and_errors_over_the_wire() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();
        let r = client
            .query("PREFIX ex: <http://e#> INSERT DATA { ex:c ex:name \"gamma\" . }")
            .unwrap();
        assert!(r.contains("inserted 1"));
        // The update persists across statements on the same session.
        let (_, rows) = client
            .query_rows("PREFIX ex: <http://e#> SELECT ?n WHERE { ?x ex:name ?n }")
            .unwrap();
        assert_eq!(rows.len(), 3);
        // A bad query returns an error, not a dead connection.
        let err = client.query("SELECT garbage").unwrap_err();
        assert!(err.to_string().contains("error"));
        let (_, rows) = client
            .query_rows("PREFIX ex: <http://e#> SELECT ?n WHERE { ?x ex:name ?n }")
            .unwrap();
        assert_eq!(rows.len(), 3, "connection survives query errors");
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn oversized_request_is_answered_then_dropped() {
        let mut db = Ssdm::open(Backend::Memory);
        db.load_turtle("@prefix ex: <http://e#> . ex:a ex:p 1 .")
            .unwrap();
        let server = Server::bind_with(
            "127.0.0.1:0",
            db,
            ServerConfig {
                max_frame: 1024,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        let mut raw = TcpStream::connect(addr).unwrap();
        raw.write_all(&(2048u32).to_le_bytes()).unwrap(); // over the cap
        raw.flush().unwrap();
        let mut status = [0u8; 1];
        raw.read_exact(&mut status).unwrap();
        assert_eq!(status[0], 1);
        let mut len_buf = [0u8; 4];
        raw.read_exact(&mut len_buf).unwrap();
        let mut msg = vec![0u8; u32::from_le_bytes(len_buf) as usize];
        raw.read_exact(&mut msg).unwrap();
        assert!(String::from_utf8(msg)
            .unwrap()
            .contains("request too large"));
        // The server dropped us: further reads see EOF.
        assert_eq!(raw.read(&mut [0u8; 1]).unwrap(), 0);

        // ...but keeps serving new connections.
        let mut client = Client::connect(addr).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn over_the_connection_cap_is_a_busy_frame() {
        let server = Server::bind_with(
            "127.0.0.1:0",
            Ssdm::open(Backend::Memory),
            ServerConfig {
                max_connections: 1,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        // A served statement shows the first session is registered.
        let mut held = Client::connect(addr).unwrap();
        held.query("ASK { }").unwrap();
        let mut refused = Vec::new();
        TcpStream::connect(addr)
            .unwrap()
            .read_to_end(&mut refused)
            .unwrap();
        let message = "503 server busy: connection limit reached";
        assert_eq!(
            refused,
            crate::http::frame::encode(1, message, MAX_FRAME),
            "{}",
            String::from_utf8_lossy(&refused)
        );
        held.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn repeated_protocol_errors_drop_the_connection() {
        let db = Ssdm::open(Backend::Memory);
        let server = Server::bind_with(
            "127.0.0.1:0",
            db,
            ServerConfig {
                max_protocol_errors: 2,
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        let mut raw = TcpStream::connect(addr).unwrap();
        let garbage = [0xFFu8, 0xFE, 0xFD];
        let mut statuses = Vec::new();
        for _ in 0..2 {
            raw.write_all(&(garbage.len() as u32).to_le_bytes())
                .unwrap();
            raw.write_all(&garbage).unwrap();
            raw.flush().unwrap();
            let mut status = [0u8; 1];
            raw.read_exact(&mut status).unwrap();
            let mut len_buf = [0u8; 4];
            raw.read_exact(&mut len_buf).unwrap();
            let mut msg = vec![0u8; u32::from_le_bytes(len_buf) as usize];
            raw.read_exact(&mut msg).unwrap();
            statuses.push(status[0]);
        }
        assert_eq!(statuses, vec![1, 1]);
        // Second strike hit the cap: connection is gone.
        assert_eq!(raw.read(&mut [0u8; 1]).unwrap(), 0);

        let mut client = Client::connect(addr).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn stalled_client_is_timed_out_not_forever() {
        let db = Ssdm::open(Backend::Memory);
        let server = Server::bind_with(
            "127.0.0.1:0",
            db,
            ServerConfig {
                idle_timeout: Duration::from_millis(100),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        // Connect and go silent: the server must give up on us (the
        // read returns at its close, not at our timeout) and keep
        // serving.
        let mut stalled = TcpStream::connect(addr).unwrap();
        stalled
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(stalled.read(&mut [0u8; 1]).unwrap(), 0);
        let mut client = Client::connect(addr).unwrap();
        client.query("ASK { }").unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn concurrent_clients_are_served_while_one_stays_connected() {
        let (addr, handle) = spawn_server();
        // Hold a session open mid-conversation...
        let mut parked = Client::connect(addr).unwrap();
        parked.query("ASK { }").unwrap();
        // ...and several other clients must still get answers — under
        // the old one-at-a-time accept loop these would block until
        // `parked` disconnected.
        let others: Vec<_> = (0..3)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    let (_, rows) = c
                        .query_rows("PREFIX ex: <http://e#> SELECT ?n WHERE { ?x ex:name ?n }")
                        .unwrap();
                    rows.len()
                })
            })
            .collect();
        for t in others {
            assert_eq!(t.join().unwrap(), 2);
        }
        // The parked session still works afterwards.
        parked.query("ASK { }").unwrap();
        parked.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn stats_statement_reports_counters_over_the_wire() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();
        client
            .query(
                "PREFIX ex: <http://e#>
                 SELECT (array_sum(?v) AS ?s) WHERE { ex:a ex:v ?v }",
            )
            .unwrap();
        let report = client.query("STATS").unwrap();
        for section in [
            "backend[cumulative]:",
            "cache[cumulative]:",
            "apr[cumulative]:",
            "apr[last_op]:",
            "compute[cumulative]:",
            "durability[cumulative]:",
        ] {
            assert!(report.contains(section), "missing {section} in {report}");
        }
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn metrics_statement_returns_valid_prometheus_text() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();
        client
            .query(
                "PREFIX ex: <http://e#>
                 SELECT (array_sum(?v) AS ?s) WHERE { ex:a ex:v ?v }",
            )
            .unwrap();
        let metrics = client.query("METRICS").unwrap();
        ssdm_obs::validate_prometheus_text(&metrics)
            .unwrap_or_else(|e| panic!("invalid Prometheus text: {e}\n{metrics}"));
        for series in [
            "ssdm_backend_statements_total",
            "ssdm_cache_hits_total",
            "ssdm_compute_elements_total",
            "ssdm_chunk_fetch_seconds",
            "ssdm_wal_fsync_seconds",
            "ssdm_query_seconds_count",
        ] {
            assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
        }
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn explain_analyze_over_the_wire() {
        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();
        let profile = client
            .query(
                "PREFIX ex: <http://e#>
                 EXPLAIN ANALYZE SELECT (array_sum(?v) AS ?s) WHERE { ex:a ex:v ?v }",
            )
            .unwrap();
        for needle in [
            "EXPLAIN ANALYZE",
            "phases:",
            "operators:",
            "totals:",
            "time_us=",
        ] {
            assert!(profile.contains(needle), "missing {needle} in:\n{profile}");
        }
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn http_metrics_endpoint_serves_prometheus_dump() {
        let db = Ssdm::open(Backend::Memory);
        let mut server = Server::bind("127.0.0.1:0", db).unwrap();
        let addr = server.local_addr().unwrap();
        let metrics_addr = server.enable_http("127.0.0.1:0").unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        let mut http = TcpStream::connect(metrics_addr).unwrap();
        http.write_all(b"GET /metrics HTTP/1.0\r\nHost: localhost\r\n\r\n")
            .unwrap();
        http.flush().unwrap();
        let mut response = String::new();
        http.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain"), "{response}");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b)
            .unwrap_or_default();
        ssdm_obs::validate_prometheus_text(body)
            .unwrap_or_else(|e| panic!("invalid Prometheus text: {e}\n{body}"));
        assert!(body.contains("ssdm_backend_statements_total"), "{body}");

        let mut client = Client::connect(addr).unwrap();
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn checkpoint_statement_over_the_wire() {
        // Non-durable engine: CHECKPOINT is a clean error.
        let (addr, handle) = spawn_server();
        let mut client = Client::connect(addr).unwrap();
        let err = client.query("CHECKPOINT").unwrap_err();
        assert!(err.to_string().contains("durable"), "got: {err}");
        client.shutdown().unwrap();
        handle.join().unwrap();

        // Durable engine: CHECKPOINT truncates the WAL and the state
        // survives a server restart over the same directory.
        let dir = std::env::temp_dir().join(format!("ssdm-srv-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Ssdm::open_durable(&dir).unwrap();
        let server = Server::bind("127.0.0.1:0", db).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());
        let mut client = Client::connect(addr).unwrap();
        client
            .query("INSERT DATA { <http://s> <http://p> 1 . }")
            .unwrap();
        assert_eq!(client.query("CHECKPOINT").unwrap(), "checkpoint complete");
        let report = client.query("STATS").unwrap();
        assert!(report.contains("checkpoints=1"), "report: {report}");
        client.shutdown().unwrap();
        handle.join().unwrap();

        let mut db = Ssdm::open_durable(&dir).unwrap();
        let rows = db
            .query("SELECT ?o WHERE { <http://s> <http://p> ?o }")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slow_in_flight_query_completes_during_shutdown() {
        use ssdm_storage::RelChunkStore;

        // A back-end charging 150 ms per statement keeps the query in
        // flight while SHUTDOWN lands.
        let mut rel = RelChunkStore::open_memory().unwrap();
        rel.db_mut().set_latency(relstore::LatencyModel {
            per_statement: Duration::from_millis(150),
            per_row: Duration::ZERO,
            per_kib: Duration::ZERO,
        });
        let mut db = Ssdm::from_dataset(scisparql::Dataset::with_backend(Box::new(rel)));
        db.set_externalize_threshold(8, 64);
        let values: Vec<String> = (1..=64).map(|i| i.to_string()).collect();
        db.load_turtle(&format!(
            "@prefix ex: <http://e#> . ex:a ex:v ({}) .",
            values.join(" ")
        ))
        .unwrap();

        // The slow engine is a named tenant: METRICS reads the default
        // tenant's engine, which must stay free to be polled.
        let mut server = Server::bind("127.0.0.1:0", Ssdm::open(Backend::Memory)).unwrap();
        server
            .add_tenant("slow", db, TenantQuotas::default())
            .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        let slow = std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            c.use_tenant("slow").unwrap();
            c.query_rows(
                "PREFIX ex: <http://e#>
                 SELECT (array_sum(?v) AS ?s) WHERE { ex:a ex:v ?v }",
            )
            .unwrap()
        });
        // Once the slow query is admitted, pull the plug from another
        // session.
        let mut killer = Client::connect(addr).unwrap();
        while !killer
            .query("METRICS")
            .unwrap()
            .contains("ssdm_tenant_admitted_total{tenant=\"slow\"} 1")
        {
            std::thread::yield_now();
        }
        killer.shutdown().unwrap();

        // The drain must deliver the in-flight response, complete and
        // correct, before the server exits.
        let (_, rows) = slow.join().unwrap();
        assert_eq!(rows, vec![vec![(1..=64).sum::<i64>().to_string()]]);
        handle.join().unwrap();
    }

    #[test]
    fn parked_idle_connection_does_not_pin_shutdown() {
        let db = Ssdm::open(Backend::Memory);
        let server = Server::bind_with(
            "127.0.0.1:0",
            db,
            ServerConfig {
                // The old behavior pinned serve() on this for 30 s.
                idle_timeout: Duration::from_secs(30),
                drain_timeout: Duration::from_millis(300),
                ..ServerConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        // A healthy session that then just sits there, holding its
        // connection open with no request in flight.
        let mut parked = Client::connect(addr).unwrap();
        parked.query("ASK { }").unwrap();

        let mut killer = Client::connect(addr).unwrap();
        let started = Instant::now();
        killer.shutdown().unwrap();

        // serve() must return promptly despite the parked connection;
        // join through a channel so a regression fails instead of
        // hanging the test suite.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let _ = tx.send(handle.join());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("serve() still pinned by the parked connection")
            .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(3),
            "drain took {:?}",
            started.elapsed()
        );
        drop(parked);
    }

    #[test]
    fn tenant_statement_round_trip_over_the_wire() {
        let mut server = Server::bind("127.0.0.1:0", Ssdm::open(Backend::Memory)).unwrap();
        server
            .add_tenant(
                "alice",
                Ssdm::open(Backend::Memory),
                crate::tenant::TenantQuotas::default(),
            )
            .unwrap();
        assert!(
            server
                .add_tenant(
                    "alice",
                    Ssdm::open(Backend::Memory),
                    crate::tenant::TenantQuotas::default()
                )
                .is_err(),
            "duplicate tenant rejected at registration"
        );
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        let mut client = Client::connect(addr).unwrap();
        // Sessions start on the default tenant.
        assert_eq!(client.current_tenant().unwrap(), "default");
        // Data written on the default tenant...
        client.query("INSERT DATA { <urn:s> <urn:p> 1 . }").unwrap();
        // ...is invisible after switching to alice.
        client.use_tenant("alice").unwrap();
        assert_eq!(client.current_tenant().unwrap(), "alice");
        let (_, rows) = client
            .query_rows("SELECT ?o WHERE { <urn:s> <urn:p> ?o }")
            .unwrap();
        assert!(
            rows.is_empty() || rows == vec![vec![String::new()]],
            "{rows:?}"
        );
        // Unknown tenants are a clean error; the session stays put.
        let err = client.use_tenant("nobody").unwrap_err();
        assert!(err.to_string().contains("unknown tenant"), "{err}");
        assert_eq!(client.current_tenant().unwrap(), "alice");
        // STATS carries the tenant-labelled admission counters.
        let stats = client.query("STATS").unwrap();
        assert!(stats.contains("tenant[cumulative]:"), "{stats}");
        assert!(stats.contains("admitted{tenant=alice}"), "{stats}");
        // METRICS carries the labelled Prometheus series.
        let metrics = client.query("METRICS").unwrap();
        assert!(
            metrics.contains("ssdm_tenant_admitted_total{tenant=\"alice\"}"),
            "{metrics}"
        );
        // A second session sees the default tenant's data untouched.
        let mut other = Client::connect(addr).unwrap();
        let (_, rows) = other
            .query_rows("SELECT ?o WHERE { <urn:s> <urn:p> ?o }")
            .unwrap();
        assert_eq!(rows.len(), 1);
        other.shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn framed_rate_quota_rejects_with_429_then_recovers() {
        use crate::tenant::{RateLimit, TenantQuotas};
        let mut server = Server::bind("127.0.0.1:0", Ssdm::open(Backend::Memory)).unwrap();
        server
            .add_tenant(
                "limited",
                Ssdm::open(Backend::Memory),
                TenantQuotas {
                    rate: Some(RateLimit {
                        per_sec: 1000.0, // refills fast: recovery within ms
                        burst: 1.0,
                    }),
                    ..TenantQuotas::default()
                },
            )
            .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        let mut client = Client::connect(addr).unwrap();
        client.use_tenant("limited").unwrap();
        // Burst of 1: fire statements back-to-back until one is
        // rejected with the flat 429 reply.
        let mut saw_429 = false;
        for _ in 0..50 {
            match client.query("ASK { }") {
                Ok(_) => {}
                Err(e) => {
                    assert!(e.to_string().contains("429"), "unexpected error: {e}");
                    saw_429 = true;
                    break;
                }
            }
        }
        assert!(saw_429, "burst never hit the rate quota");
        // The bucket refills at 1000/s: the tenant recovers.
        let deadline = Instant::now() + Duration::from_secs(10);
        while let Err(e) = client.query("ASK { }") {
            assert!(e.to_string().contains("429"), "unexpected error: {e}");
            assert!(Instant::now() < deadline, "rate quota never refilled");
        }
        client.shutdown().unwrap();
        handle.join().unwrap();
    }

    /// One write carrying every statement in `statements`, framed.
    fn pipeline(addr: SocketAddr, statements: &[String]) -> TcpStream {
        let mut raw = TcpStream::connect(addr).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let wire: Vec<u8> = statements
            .iter()
            .flat_map(|s| [&(s.len() as u32).to_le_bytes()[..], s.as_bytes()].concat())
            .collect();
        raw.write_all(&wire).unwrap();
        raw
    }

    fn read_reply(raw: &mut TcpStream) -> (u8, String) {
        let mut head = [0u8; 5];
        raw.read_exact(&mut head).unwrap();
        let len = u32::from_le_bytes(head[1..].try_into().unwrap());
        let mut payload = vec![0u8; len as usize];
        raw.read_exact(&mut payload).unwrap();
        (head[0], String::from_utf8(payload).unwrap())
    }

    #[test]
    fn pipelined_statements_execute_in_the_order_sent() {
        // Four workers, one session: every ASK must see the INSERT
        // pipelined just ahead of it, not race it to the engine.
        let (addr, handle) = spawn_server();
        let statements: Vec<String> = (0..2000)
            .flat_map(|i| {
                let triple = format!("<http://e#s{i}> <http://e#p> {i}");
                [
                    format!("INSERT DATA {{ {triple} }}"),
                    format!("ASK {{ {triple} }}"),
                ]
            })
            .collect();
        let mut raw = pipeline(addr, &statements);
        for i in 0..2000 {
            assert_eq!(read_reply(&mut raw), (0, "inserted 1 deleted 0\n".into()));
            assert_eq!(read_reply(&mut raw), (0, "true\n".into()), "pair {i}");
        }
        Client::connect(addr).unwrap().shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn a_refused_frame_does_not_stall_the_frames_pipelined_behind_it() {
        use crate::tenant::{RateLimit, TenantQuotas};
        let mut server = Server::bind("127.0.0.1:0", Ssdm::open(Backend::Memory)).unwrap();
        let one_then_none = RateLimit {
            per_sec: 0.0,
            burst: 1.0,
        };
        server
            .add_tenant(
                "limited",
                Ssdm::open(Backend::Memory),
                TenantQuotas {
                    rate: Some(one_then_none),
                    ..TenantQuotas::default()
                },
            )
            .unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve().unwrap());

        // Nothing further is sent: every reply must come from this one
        // write, the refusals included.
        let statements = ["USE limited", "ASK { }", "ASK { }", "ASK { }", "TENANT"];
        let mut raw = pipeline(addr, &statements.map(String::from));
        assert_eq!(read_reply(&mut raw), (0, "tenant limited".into()));
        assert_eq!(read_reply(&mut raw), (0, "true\n".into()));
        for _ in 0..2 {
            let (status, text) = read_reply(&mut raw);
            assert!(status == 1 && text.starts_with("429 "), "{text}");
        }
        assert_eq!(read_reply(&mut raw), (0, "limited".into()));
        Client::connect(addr).unwrap().shutdown().unwrap();
        handle.join().unwrap();
    }

    #[test]
    fn sequential_clients() {
        let (addr, handle) = spawn_server();
        {
            let mut c1 = Client::connect(addr).unwrap();
            c1.query("PREFIX ex: <http://e#> INSERT DATA { ex:z ex:name \"zeta\" . }")
                .unwrap();
        } // c1 disconnects
        let mut c2 = Client::connect(addr).unwrap();
        let (_, rows) = c2
            .query_rows("PREFIX ex: <http://e#> SELECT ?n WHERE { ?x ex:name ?n }")
            .unwrap();
        assert_eq!(rows.len(), 3, "state persists across connections");
        c2.shutdown().unwrap();
        handle.join().unwrap();
    }
}
