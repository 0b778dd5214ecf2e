//! The SSDM server: serve SciSPARQL over the framed wire protocol
//! (thesis §5.1 client-server deployment; the ch. 7 Matlab client's
//! peer) and, on request, over HTTP — every listener on one serving
//! core.
//!
//! ```text
//! ssdm-server [--listen ADDR:PORT] [--backend memory|relational|file:DIR]
//!             [--load FILE.ttl]... [--threshold N --chunk BYTES]
//!             [--workers N] [--apr-workers N] [--cache BYTES]
//!             [--shards N] [--replicas K] [--codec raw|delta-bp|rle|auto]
//!             [--durable DIR] [--fsync always|interval[:MS]|off]
//!             [--http ADDR:PORT] [--metrics ADDR:PORT]
//!             [--tenants SPEC[,SPEC]...]
//!             [--slow-query-ms N] [--planner textual|greedy|dp]
//! ```
//!
//! `--codec` picks the chunk compression policy for newly externalized
//! arrays (default `auto`, or the `SSDM_CODEC` environment variable);
//! every policy reads every frame, so mixed stores are fine.
//!
//! `--durable DIR` serves a crash-safe instance: committed updates are
//! write-ahead logged under `DIR` and recovered on the next start;
//! clients trigger checkpoints with the `CHECKPOINT` wire statement.
//! `--durable` replaces `--backend` (the instance keeps its chunks under
//! `DIR`); `--cache` still fronts them.
//!
//! `--shards N` spreads externalized arrays over N back-ends of the
//! chosen kind; `--replicas K` adds K WAL-shipping read replicas per
//! shard, with automatic failover (counters under `STATS` and the
//! Prometheus dump). Neither combines with `--durable`: placement
//! depends on the shard count, which a durable directory does not
//! record, so a restart with another count would look for chunks on the
//! wrong shards.
//!
//! Send the statement `SHUTDOWN` to stop the server, `STATS` for
//! back-end/cache/APR/durability statistics, `METRICS` for the
//! Prometheus text dump. SIGTERM/SIGINT begin the same graceful drain
//! as `SHUTDOWN`: requests in flight finish, then the process exits 0.
//!
//! `--http` also serves the SPARQL 1.1 Protocol over HTTP: GET/POST
//! `/query` with content-negotiated JSON/XML/CSV/TSV results, POST
//! `/update`, plus `/metrics` and `/stats`. `--metrics` is an alias
//! that binds one more such listener (scrapers just hit `/metrics`).
//! `--workers N` sizes the one pool that executes statements from
//! every listener; tenant quotas hold across all of them together.
//! `--slow-query-ms N` logs an `EXPLAIN ANALYZE` profile to stderr for
//! every statement taking ≥ N ms.
//!
//! `--planner` forces the join-enumeration mode (default `dp`;
//! equivalent to the `SSDM_PLANNER` environment variable, flag wins).
//!
//! `--tenants` hosts additional isolated engines behind the same
//! sockets, each with its own backend, cache budget, and admission
//! quotas. A spec is `name[:key=value]...` with keys `mem`, `rel`,
//! `file=DIR`, `durable=DIR`, `cache=BYTES[k|m|g]`, `conc=N`,
//! `queue=N`, `rate=PER_SEC`, `burst=N`; e.g.
//! `--tenants alice:file=/data/alice:cache=64m:conc=2,bob:mem:rate=50`.
//! HTTP clients reach a tenant at `/tenants/<name>/query|update|stats`;
//! framed clients switch with the `USE <name>` statement. The flags
//! above configure only the default tenant, which keeps serving at the
//! bare paths.
//!
//! Startup exits with status 2 on a usage error or a refused
//! combination, and with status 1 when an engine — the default one or a
//! tenant's — cannot be opened (its back-end cannot be created, or
//! recovery fails).

use std::path::PathBuf;

use ssdm::server::{Server, ServerConfig};
use ssdm::OpenOptions;

fn usage() -> ! {
    eprintln!(
        "usage: ssdm-server [--listen ADDR:PORT] [--backend memory|relational|file:DIR]\n\
         \x20                  [--load FILE.ttl]... [--threshold N --chunk BYTES]\n\
         \x20                  [--workers N] [--apr-workers N] [--cache BYTES]\n\
         \x20                  [--shards N] [--replicas K]\n\
         \x20                  [--codec raw|delta-bp|rle|auto]\n\
         \x20                  [--durable DIR] [--fsync always|interval[:MS]|off]\n\
         \x20                  [--http ADDR:PORT] [--metrics ADDR:PORT]\n\
         \x20                  [--tenants NAME[:key=value]...[,NAME...]]\n\
         \x20                  [--slow-query-ms N] [--planner textual|greedy|dp]\n\
         --durable excludes --shards and --replicas"
    );
    std::process::exit(2)
}

/// The flag's value as `parse` reads it; a missing or unreadable one
/// is a usage error.
fn value<T>(args: &mut impl Iterator<Item = String>, parse: impl Fn(&str) -> Option<T>) -> T {
    let parsed = args.next().as_deref().and_then(parse);
    parsed.unwrap_or_else(|| usage())
}

fn text(v: &str) -> Option<String> {
    Some(v.to_string())
}

fn at_least_one(v: &str) -> Option<usize> {
    v.parse().ok().filter(|&n| n >= 1)
}

fn main() {
    let mut listen = "127.0.0.1:8580".to_string();
    let mut engine = OpenOptions {
        workers: Some(1),
        ..OpenOptions::default()
    };
    let mut loads: Vec<PathBuf> = Vec::new();
    let mut config = ServerConfig::default();
    let mut http: Vec<String> = Vec::new();
    let mut tenants: Vec<ssdm::tenant::TenantSpec> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = value(&mut args, text),
            "--workers" => config.workers = value(&mut args, at_least_one),
            "--apr-workers" => engine.workers = Some(value(&mut args, at_least_one)),
            "--load" => loads.push(value(&mut args, text).into()),
            "--http" | "--metrics" => http.push(value(&mut args, text)),
            "--tenants" => {
                let specs = value(&mut args, text);
                for spec in specs.split(',').filter(|s| !s.trim().is_empty()) {
                    match ssdm::tenant::TenantSpec::parse(spec) {
                        Ok(s) => tenants.push(s),
                        Err(e) => {
                            eprintln!("bad --tenants entry {spec:?}: {e}");
                            std::process::exit(2);
                        }
                    }
                }
            }
            "--help" | "-h" => usage(),
            flag => {
                if let Err(e) = engine.parse_flag(flag, &mut args) {
                    eprintln!("{e}");
                    usage()
                }
            }
        }
    }

    // Block SIGTERM/SIGINT and obtain the signal fd *before* anything
    // spawns a thread, so every later thread inherits the mask and the
    // event loop is the one place the signals surface (as a graceful
    // drain).
    match ssdm::http::prepare_signal_drain(&[ssdm::http::SIGTERM, ssdm::http::SIGINT]) {
        Ok(fd) => config.signal_fd = Some(fd),
        Err(e) => eprintln!("signal-driven drain unavailable ({e})"),
    }
    let mut db = engine.open_or_exit("the default tenant");
    for path in &loads {
        match db.load_turtle_file(path) {
            Ok(n) => eprintln!("loaded {n} triples from {}", path.display()),
            Err(e) => {
                eprintln!("error loading {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    let mut server = match Server::bind_with(&listen, db, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    for spec in &tenants {
        let tenant_db = spec.options.open_or_exit(&format!("tenant {}", spec.name));
        if let Err(e) = server.add_tenant(&spec.name, tenant_db, spec.quotas) {
            eprintln!("cannot add tenant {}: {e}", spec.name);
            std::process::exit(1);
        }
        eprintln!("tenant {} ready", spec.name);
    }
    for addr in &http {
        match server.enable_http(addr) {
            Ok(bound) => eprintln!("http endpoint on http://{bound}/ (query, update, metrics)"),
            Err(e) => {
                eprintln!("cannot bind http endpoint {addr}: {e}");
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "SSDM server listening on {}",
        server.local_addr().map(|a| a.to_string()).unwrap_or(listen)
    );
    if let Err(e) = server.serve() {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
    eprintln!("server shut down");
}
