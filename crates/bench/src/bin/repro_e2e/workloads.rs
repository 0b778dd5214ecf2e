//! The five workloads: what data each loads, which tenants serve it,
//! and the request sequence of every client.
//!
//! The *i*-th request of client *c* is a pure function of
//! `(seed, c, i)`: request bytes are built during set-up into per-lane
//! pools, request `i` takes lane `i mod lanes` (so every run has the
//! same template mix) and, within the lane, the pool entry
//! `mix(seed, c, i) mod pool`. The only client that is not pool-driven
//! is `mixed_rw`'s writer, whose requests are built on demand from `i`.

use std::borrow::Cow;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use relstore::{DbOptions, LatencyModel, PoolStats};
use scisparql::Dataset;
use ssdm::bistab::{load_bistab, BistabConfig, NS};
use ssdm::http::{results, Format};
use ssdm::tenant::{TenantQuotas, TenantRegistry};
use ssdm::{Backend, DurableOptions, FsyncPolicy, Ssdm};
use ssdm_array::NumArray;
use ssdm_rdf::Term;
use ssdm_storage::{CachedChunkStore, CodecPolicy, FileChunkStore, RelChunkStore};

use crate::gate::Fingerprint;
use crate::stats::{mix, SeededRng};
use crate::trace::{DecodeProbe, Recorder, Scope, TimedStore};

/// Engine-side worker count (`Ssdm::set_parallel_workers`) and HTTP
/// worker count: the box has two cores.
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Query,
    Update,
}

pub struct Template {
    pub name: &'static str,
    pub class: Class,
}

const fn query(name: &'static str) -> Template {
    Template {
        name,
        class: Class::Query,
    }
}

/// Every request template of every workload; `Request::template`
/// indexes this table.
pub const TEMPLATES: [Template; 15] = [
    query("q1_filter"),
    query("star_join"),
    query("group_by"),
    query("traj_slice_avg"),
    query("traj_max"),
    query("tile_avg"),
    query("regrid_avg"),
    query("range_count"),
    query("ask"),
    query("lookup"),
    query("rows10"),
    Template {
        name: "insert",
        class: Class::Update,
    },
    Template {
        name: "delete",
        class: Class::Update,
    },
    query("read_meta"),
    query("read_slice"),
];

fn template(name: &str) -> usize {
    TEMPLATES
        .iter()
        .position(|t| t.name == name)
        .expect("template is in the table")
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "meta_query",
        why: "metadata-only SPARQL on one shared engine: evaluator, graph and planner do the work, storage none, two clients contend for the engine lock",
    },
    Workload {
        name: "array_cold",
        why: "array slices and aggregates over file and relational back-ends with a chunk cache 1/16 of the working set: fetch, CRC, decode and kernels dominate",
    },
    Workload {
        name: "array_warm",
        why: "the array_cold request sequence with a cache that holds everything: bypasses the back-ends, keeps decode and kernels",
    },
    Workload {
        name: "http_point",
        why: "microsecond point queries on two private tenants in every method and result format: reactor, parser, router, admission and serializers are the cost",
    },
    Workload {
        name: "mixed_rw",
        why: "a writer (fsync-always inserts and deletes) beside a reader on one durable engine: shows a change that trades reader speed against writer speed",
    },
];

/// One pre-built request: its bytes on the wire and the fingerprint of
/// the body a correct server answers with.
#[derive(Clone)]
pub struct Request {
    pub template: usize,
    pub wire: Vec<u8>,
    pub expect: Fingerprint,
}

pub enum ClientPlan {
    Lanes { lanes: Vec<Vec<Request>>, key: u64 },
    Writer(Writer),
}

impl ClientPlan {
    fn lanes(lanes: Vec<Vec<Request>>, seed: u64, client: u64) -> ClientPlan {
        ClientPlan::Lanes {
            lanes,
            key: mix(&[seed, client]),
        }
    }

    /// The `i`-th request of this client.
    pub fn request(&self, i: u64) -> Cow<'_, Request> {
        match self {
            ClientPlan::Lanes { lanes, key } => {
                let lane = &lanes[(i % lanes.len() as u64) as usize];
                Cow::Borrowed(&lane[(mix(&[*key, i]) % lane.len() as u64) as usize])
            }
            ClientPlan::Writer(writer) => Cow::Owned(writer.request(i)),
        }
    }
}

/// Handles a traced pass needs into the engines it built.
pub struct TraceKit {
    pub rec: Arc<Recorder>,
    pub decode: Arc<DecodeProbe>,
    /// Tenant name → the slot its store wrappers read their parent
    /// span from.
    pub scopes: Vec<(&'static str, Arc<Scope>)>,
    /// The relational back-end's buffer-pool counters, refreshed by
    /// every `sync` of that engine's back-end.
    pub pool: Arc<Mutex<PoolStats>>,
}

impl TraceKit {
    pub fn new() -> TraceKit {
        TraceKit {
            rec: Recorder::new(),
            decode: Arc::default(),
            scopes: Vec::new(),
            pool: Arc::default(),
        }
    }

    pub fn scope(&self, tenant: &str) -> Option<&Arc<Scope>> {
        self.scopes
            .iter()
            .find(|(name, _)| *name == tenant)
            .map(|(_, s)| s)
    }
}

/// A workload ready to serve.
pub struct Setup {
    pub registry: Arc<TenantRegistry>,
    /// One plan per client connection.
    pub plans: Vec<ClientPlan>,
    /// Names of the tenants that hold this workload's data.
    pub tenants: Vec<&'static str>,
    /// Raw array payload bytes loaded into external storage.
    pub user_bytes: u64,
    /// Triples in the data tenants' default graphs after load.
    pub triples: usize,
    /// Whether the workload's engines keep data under the scratch
    /// directory (so bytes at rest mean something).
    pub on_disk: bool,
    /// The directory of the durable instance, if the workload has one
    /// whose acknowledged updates must survive a reopen.
    pub durable: Option<PathBuf>,
    /// Requests per client a traced pass replays: enough that span
    /// bookkeeping on the first, cold requests does not set the shares.
    pub traced_requests: u64,
}

/// Build `workload`'s data, engines and client plans from `seed`.
/// `scratch` is an empty directory of this set-up's own; `kit` is given
/// for a traced pass and makes array engines wear [`TimedStore`]s.
pub fn build(workload: &str, seed: u64, scratch: &Path, kit: Option<&mut TraceKit>) -> Setup {
    match workload {
        "meta_query" => meta_query(seed),
        "array_cold" => array(seed, scratch, ARRAY_COLD_CACHE, kit),
        "array_warm" => array(seed, scratch, ARRAY_WARM_CACHE, kit),
        "http_point" => http_point(seed),
        "mixed_rw" => mixed_rw(seed, scratch),
        other => panic!("unknown workload {other}"),
    }
}

// ---------------------------------------------------------------------
// Request bytes
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
pub enum Method {
    Get,
    PostForm,
    PostRaw,
}

const JSON: (Format, &str) = (Format::Json, "application/sparql-results+json");
const FORMATS: [(Format, &str); 4] = [
    JSON,
    (Format::Xml, "application/sparql-results+xml"),
    (Format::Csv, "text/csv"),
    (Format::Tsv, "text/tab-separated-values"),
];

fn percent_encode(text: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    for b in text.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn endpoint(tenant: &str, which: &str) -> String {
    if tenant == ssdm::tenant::DEFAULT_TENANT {
        format!("/{which}")
    } else {
        format!("/tenants/{tenant}/{which}")
    }
}

fn query_wire(tenant: &str, method: Method, statement: &str, accept: &str) -> Vec<u8> {
    let path = endpoint(tenant, "query");
    let common = format!("Host: bench\r\nAccept: {accept}\r\n");
    match method {
        Method::Get => format!(
            "GET {path}?query={} HTTP/1.1\r\n{common}\r\n",
            percent_encode(statement)
        ),
        Method::PostForm => {
            let body = format!("query={}", percent_encode(statement));
            format!(
                "POST {path} HTTP/1.1\r\n{common}Content-Type: application/x-www-form-urlencoded\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
        }
        Method::PostRaw => format!(
            "POST {path} HTTP/1.1\r\n{common}Content-Type: application/sparql-query\r\n\
             Content-Length: {}\r\n\r\n{statement}",
            statement.len()
        ),
    }
    .into_bytes()
}

fn update_wire(tenant: &str, statement: &str) -> Vec<u8> {
    format!(
        "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/sparql-update\r\n\
         Content-Length: {}\r\n\r\n{statement}",
        endpoint(tenant, "update"),
        statement.len()
    )
    .into_bytes()
}

/// Build one query request and, by running the statement directly on
/// the tenant's own engine, the fingerprint of its correct answer.
/// Same engine means same back-end, codec and fold order: a streamed
/// aggregate differs from a resident one in the last ulps.
fn query_request(
    registry: &TenantRegistry,
    tenant: &str,
    template_name: &str,
    statement: &str,
    method: Method,
    (format, accept): (Format, &str),
) -> Request {
    let engine = registry.get(tenant).expect("tenant was registered");
    let result = engine
        .engine()
        .lock()
        .expect("set-up is single-threaded")
        .query(statement)
        .unwrap_or_else(|e| panic!("{template_name} failed during set-up: {e}\n{statement}"));
    Request {
        template: template(template_name),
        wire: query_wire(tenant, method, statement, accept),
        expect: Fingerprint::of(&results::serialize(&result, format)),
    }
}

fn prologue() -> String {
    format!("PREFIX b: <{NS}> ")
}

/// A point in `[0, 1)` for pool entry `j` of `pool`, to place a
/// parameter that sets a request's cost (a filter threshold decides how
/// many rows come back): seeded, but inside the entry's own
/// `1/pool`-wide stratum. Every seed then gives a pool with the same
/// spread of costs, and the seed-to-seed difference a run shows is the
/// program's, not the draw's. Parameters that do not change the cost are
/// drawn freely from the generator.
fn stratified(j: usize, pool: usize, rng: &mut SeededRng) -> f64 {
    (j as f64 + rng.unit()) / pool as f64
}

/// Builds one pool entry's statement from the lane's generator and the
/// entry's stratified point.
type Draw<'a> = dyn FnMut(&mut SeededRng, f64) -> String + 'a;

fn registry_with(tenants: Vec<(&str, Ssdm)>) -> Arc<TenantRegistry> {
    // The registry insists on a default tenant; it stays empty and
    // unused when the workload names its own.
    let registry = TenantRegistry::new(Ssdm::open(Backend::Memory), TenantQuotas::default());
    for (name, engine) in tenants {
        registry
            .add(name, engine, TenantQuotas::default())
            .expect("tenant names are valid and distinct");
    }
    Arc::new(registry)
}

fn triples(registry: &TenantRegistry, tenant: &str) -> usize {
    let engine = registry.get(tenant).expect("tenant was registered");
    let guard = engine.engine().lock().expect("set-up is single-threaded");
    guard.dataset.graph.len()
}

// ---------------------------------------------------------------------
// meta_query
// ---------------------------------------------------------------------

const META_TASKS: usize = 20_000;
/// Tasks per `realization` value: what `star_join` returns.
const META_TASKS_PER_REALIZATION: usize = 200;
const META_POOL: usize = 24;

fn meta_query(seed: u64) -> Setup {
    let mut db = Ssdm::open(Backend::Memory);
    db.set_parallel_workers(WORKERS);
    load_bistab(
        &mut db,
        &BistabConfig {
            tasks: META_TASKS,
            realizations: META_TASKS / META_TASKS_PER_REALIZATION,
            // Below every externalisation threshold: arrays stay in
            // the graph and are never fetched.
            trajectory_len: 8,
            seed,
        },
    )
    .expect("bistab load");
    let tenant = ssdm::tenant::DEFAULT_TENANT;
    let registry = Arc::new(TenantRegistry::new(db, TenantQuotas::default()));
    let p = prologue();
    let realizations = (META_TASKS / META_TASKS_PER_REALIZATION) as u64;

    let plans = (0..2)
        .map(|client| {
            let mut rng = SeededRng::new(&[seed, client, 0x6d65_7461]);
            let mut lane = |name: &str, statement: &mut Draw| {
                (0..META_POOL)
                    .map(|j| {
                        let at = stratified(j, META_POOL, &mut rng);
                        let s = statement(&mut rng, at);
                        query_request(&registry, tenant, name, &s, Method::Get, JSON)
                    })
                    .collect::<Vec<_>>()
            };
            let lanes = vec![
                // BISTAB Q1; k_1 is uniform on [10, 50).
                lane("q1_filter", &mut |_, at| {
                    format!(
                        "{p}SELECT ?task ?k1 WHERE {{ ?task b:k_1 ?k1 ; b:result 1 . \
                         FILTER (?k1 > {:.3}) }}",
                        47.0 + 2.0 * at
                    )
                }),
                // The selective pattern is written last; the planner
                // has to find it.
                lane("star_join", &mut |rng, _| {
                    format!(
                        "{p}SELECT ?task ?k1 ?ka ?k4 WHERE {{ ?task b:k_1 ?k1 ; b:k_a ?ka ; \
                         b:k_4 ?k4 ; b:realization {} }}",
                        1 + rng.below(realizations)
                    )
                }),
                lane("group_by", &mut |_, at| {
                    format!(
                        "{p}SELECT ?r (AVG(?k1) AS ?avg) (COUNT(?task) AS ?n) WHERE {{ \
                         ?task b:result 1 ; b:k_1 ?k1 ; b:realization ?r . \
                         FILTER (?k1 > {:.3}) }} GROUP BY ?r",
                        44.0 + 2.0 * at
                    )
                }),
            ];
            ClientPlan::lanes(lanes, seed, client)
        })
        .collect();

    Setup {
        triples: triples(&registry, tenant),
        registry,
        plans,
        tenants: vec![tenant],
        user_bytes: 0,
        on_disk: false,
        durable: None,
        traced_requests: 200,
    }
}

// ---------------------------------------------------------------------
// array_cold / array_warm
// ---------------------------------------------------------------------

const ARRAY_TASKS: usize = 1000;
const ARRAY_TRAJECTORY_LEN: usize = 4096;
const RASTER_SIDE: usize = 2048;
/// 16 KiB chunks: one raster row, half a trajectory.
const ARRAY_CHUNK_BYTES: usize = 16 * 1024;
/// 1/16 of one tenant's 64 MiB of array payload.
const ARRAY_COLD_CACHE: usize = 4 << 20;
/// Holds one tenant's payload twice over at charged (decoded) size.
const ARRAY_WARM_CACHE: usize = 128 << 20;
const ARRAY_POOL: usize = 12;
const TILE: usize = 256;
const REGRID_SPAN: usize = 1024;
const REGRID_STRIDE: usize = 8;
/// Raster rows a `range_count` request looks at, and how many of them
/// hold values in the range it asks for.
const RANGE_BAND_ROWS: usize = 128;
const RANGE_ROWS: usize = 8;
/// Width of each raster row's value band (see [`raster`]).
const ROW_BAND: i64 = 64;

/// An integer raster whose row `r` holds values in
/// `[ROW_BAND * r, ROW_BAND * (r + 1))`: smooth enough for delta
/// packing, and banded so a value range maps to a run of rows — which
/// is what zone maps can skip by, one chunk being one row.
fn raster(seed: u64) -> NumArray {
    let salt = (seed % 61) as i64;
    let values = (0..RASTER_SIDE as i64)
        .flat_map(|r| {
            (0..RASTER_SIDE as i64).map(move |c| ROW_BAND * r + (r * 31 + c * 17 + salt) % ROW_BAND)
        })
        .collect();
    NumArray::from_i64_shaped(values, &[RASTER_SIDE, RASTER_SIDE]).expect("square raster")
}

/// The chunk cache over `store`, under the outer timed wrapper.
fn cached<S>(
    store: S,
    cache_bytes: usize,
    kit: &TraceKit,
    scope: &Arc<Scope>,
) -> TimedStore<CachedChunkStore<S>> {
    TimedStore::new(
        CachedChunkStore::new(store, cache_bytes),
        "storage.cache",
        Arc::clone(&kit.rec),
        Arc::clone(scope),
    )
    .with_decode_probe(Arc::clone(&kit.decode))
}

fn open_array_engine(
    tenant: &'static str,
    scratch: &Path,
    cache_bytes: usize,
    kit: Option<&mut TraceKit>,
) -> Ssdm {
    let rel_path = scratch.join("rel.db");
    let rel_options = DbOptions {
        pool_pages: 1024,
        latency: LatencyModel::none(),
    };
    let file_dir = scratch.join("file");
    let Some(kit) = kit else {
        let backend = match tenant {
            "rel" => Backend::RelationalFile(rel_path, rel_options),
            _ => Backend::File(file_dir),
        };
        return Ssdm::open_with_cache(backend, cache_bytes);
    };
    // The same stack `open_with_cache` builds, with a timed wrapper on
    // each side of the cache.
    let scope = Arc::new(Scope::default());
    kit.scopes.push((tenant, Arc::clone(&scope)));
    let backend: scisparql::dataset::DynChunkStore = match tenant {
        "rel" => {
            let pool = Arc::clone(&kit.pool);
            let store = RelChunkStore::create_file(&rel_path, rel_options).expect("database file");
            let timed = TimedStore::new(
                store,
                "storage.store.rel",
                Arc::clone(&kit.rec),
                Arc::clone(&scope),
            )
            .with_sync_tap(move |store: &mut RelChunkStore| {
                *pool.lock().expect("pool stats cell") = store.db_mut().pool_stats();
            });
            Box::new(cached(timed, cache_bytes, kit, &scope))
        }
        _ => {
            let store = FileChunkStore::new(file_dir).expect("array directory");
            let timed = TimedStore::new(
                store,
                "storage.store.file",
                Arc::clone(&kit.rec),
                Arc::clone(&scope),
            );
            Box::new(cached(timed, cache_bytes, kit, &scope))
        }
    };
    Ssdm::from_dataset(Dataset::with_backend(backend))
}

fn array(seed: u64, scratch: &Path, cache_bytes: usize, mut kit: Option<&mut TraceKit>) -> Setup {
    let tenants = ["rel", "file"];
    let image = Term::uri(format!("{NS}image"));
    let raster1 = Term::uri(format!("{NS}raster1"));
    let engines = tenants
        .iter()
        .map(|&tenant| {
            let mut db = open_array_engine(tenant, scratch, cache_bytes, kit.as_deref_mut());
            db.set_parallel_workers(WORKERS);
            db.set_codec(CodecPolicy::Auto);
            db.set_externalize_threshold(64, ARRAY_CHUNK_BYTES);
            db.dataset
                .graph
                .insert(raster1.clone(), image.clone(), Term::Array(raster(seed)));
            // Externalises the raster along with the trajectories.
            load_bistab(
                &mut db,
                &BistabConfig {
                    tasks: ARRAY_TASKS,
                    realizations: 4,
                    trajectory_len: ARRAY_TRAJECTORY_LEN,
                    seed,
                },
            )
            .expect("bistab load");
            // Bytes at rest are measured from the files: the relational
            // store still holds its newest pages in the buffer pool. (The
            // file store writes through, and its `sync` would be a
            // thousand fsyncs.)
            if tenant == "rel" {
                db.dataset
                    .arrays
                    .backend_mut()
                    .sync()
                    .expect("flush the database file");
            }
            (tenant, db)
        })
        .collect();
    let registry = registry_with(engines);
    let p = prologue();

    let mut rng = SeededRng::new(&[seed, 0x6172_7279]);
    // One parameter draw serves both tenants: they hold the same data
    // and see the same statements.
    let mut draws = |statement: &mut Draw| {
        (0..ARRAY_POOL)
            .map(|j| {
                let at = stratified(j, ARRAY_POOL, &mut rng);
                statement(&mut rng, at)
            })
            .collect::<Vec<_>>()
    };
    let by_template = [
        // BISTAB Q3 over the tasks in a k_1 window (k_1 is uniform on
        // [10, 50), half the tasks have result 1).
        (
            "traj_slice_avg",
            draws(&mut |_, at| {
                let lo = 10.0 + 34.0 * at;
                format!(
                    "{p}SELECT ?task (array_avg(?tr[1:32]) AS ?early) WHERE {{ \
                     ?task b:trajectory ?tr ; b:result 1 ; b:k_1 ?k1 . \
                     FILTER (?k1 > {lo:.3} && ?k1 < {:.3}) }}",
                    lo + 6.0
                )
            }),
        ),
        // BISTAB Q4: metadata filter, then the whole array. The maximum
        // is taken in the projection: as a BIND the planner leaves it
        // below the filter and every task's array is fetched, twenty
        // times the cost of the other templates.
        (
            "traj_max",
            draws(&mut |_, at| {
                let lo = 10.0 + 37.0 * at;
                format!(
                    "{p}SELECT (AVG(array_max(?tr)) AS ?avgmax) (COUNT(?task) AS ?n) WHERE {{ \
                     ?task b:k_1 ?k1 ; b:trajectory ?tr . \
                     FILTER (?k1 > {lo:.3} && ?k1 < {:.3}) }}",
                    lo + 3.0
                )
            }),
        ),
        // SS-DB tile slice-aggregate at a seeded origin.
        (
            "tile_avg",
            draws(&mut |rng, _| {
                let r = 1 + rng.below((RASTER_SIDE - TILE) as u64);
                let c = 1 + rng.below((RASTER_SIDE - TILE) as u64);
                format!(
                    "{p}SELECT (array_avg(?img[{r}:{}, {c}:{}]) AS ?v) WHERE {{ \
                     b:raster1 b:image ?img }}",
                    r + TILE as u64 - 1,
                    c + TILE as u64 - 1
                )
            }),
        ),
        // SS-DB regrid: every eighth cell of a region (strided access).
        (
            "regrid_avg",
            draws(&mut |rng, _| {
                let r = 1 + rng.below((RASTER_SIDE - REGRID_SPAN) as u64);
                let c = 1 + rng.below((RASTER_SIDE - REGRID_SPAN) as u64);
                format!(
                    "{p}SELECT (array_avg(?img[{r}:{REGRID_STRIDE}:{}, {c}:{REGRID_STRIDE}:{}]) \
                     AS ?v) WHERE {{ b:raster1 b:image ?img }}",
                    r + REGRID_SPAN as u64 - 1,
                    c + REGRID_SPAN as u64 - 1
                )
            }),
        ),
        // Value-range access over a band of rows; zone maps skip the
        // rows of the band whose values lie outside the range. (Over the
        // whole raster the filtered aggregate enumerates four million
        // addresses before it skips anything: 120 ms a request.)
        (
            "range_count",
            draws(&mut |rng, _| {
                let r = 1 + rng.below((RASTER_SIDE - RANGE_BAND_ROWS) as u64);
                let first = r - 1 + rng.below((RANGE_BAND_ROWS - RANGE_ROWS) as u64);
                let lo = ROW_BAND * first as i64;
                format!(
                    "{p}SELECT (array_count_range(?img[{r}:{}, 1:{RASTER_SIDE}], {lo}, {}) AS ?n) \
                     WHERE {{ b:raster1 b:image ?img }}",
                    r + RANGE_BAND_ROWS as u64 - 1,
                    lo + ROW_BAND * RANGE_ROWS as i64 - 1
                )
            }),
        ),
    ];
    // Lane order alternates tenants on every request and walks the
    // templates every two.
    let lanes = by_template
        .iter()
        .flat_map(|(name, statements)| {
            let registry = &registry;
            tenants.iter().map(move |&tenant| {
                statements
                    .iter()
                    .map(|s| query_request(registry, tenant, name, s, Method::Get, JSON))
                    .collect::<Vec<_>>()
            })
        })
        .collect();

    let payload = (ARRAY_TASKS * ARRAY_TRAJECTORY_LEN + RASTER_SIDE * RASTER_SIDE) * 8;
    Setup {
        triples: tenants.iter().map(|t| triples(&registry, t)).sum(),
        registry,
        plans: vec![ClientPlan::lanes(lanes, seed, 0)],
        tenants: tenants.to_vec(),
        user_bytes: (payload * tenants.len()) as u64,
        on_disk: true,
        durable: None,
        traced_requests: 200,
    }
}

// ---------------------------------------------------------------------
// http_point
// ---------------------------------------------------------------------

const POINT_SUBJECTS: u64 = 100;
/// Entries per lane. Thirty-six lanes of them make set-up 40 ms of the
/// program's own work; with eight, `setup_s` was 17 ms of mostly thread
/// start-up and doubled at a whim.
const POINT_POOL: usize = 48;

fn http_point(seed: u64) -> Setup {
    let tenants = ["a", "b"];
    let engines = tenants
        .iter()
        .map(|&tenant| {
            let mut db = Ssdm::open(Backend::Memory);
            db.set_parallel_workers(WORKERS);
            // 100 subjects x (1 `first` + 9 `v`) = 1000 triples.
            let mut turtle = String::from("@prefix ex: <http://e#> .\n");
            for s in 0..POINT_SUBJECTS {
                turtle.push_str(&format!("ex:s{s} ex:first {s} .\n"));
                for v in 0..9 {
                    turtle.push_str(&format!("ex:s{s} ex:v {} .\n", s * 10 + v));
                }
            }
            db.load_turtle(&turtle).expect("point triples");
            (tenant, db)
        })
        .collect();
    let registry = registry_with(engines);
    let p = "PREFIX ex: <http://e#> ";

    let plans = tenants
        .iter()
        .zip(0u64..)
        .map(|(&tenant, client)| {
            let mut rng = SeededRng::new(&[seed, client, 0x706f_696e]);
            let mut lanes = Vec::new();
            for name in ["ask", "lookup", "rows10"] {
                for method in [Method::Get, Method::PostForm, Method::PostRaw] {
                    for format in FORMATS {
                        let lane = (0..POINT_POOL)
                            .map(|_| {
                                let s = rng.below(POINT_SUBJECTS);
                                let statement = match name {
                                    // One in ten asks for a triple that is absent.
                                    "ask" => format!(
                                        "{p}ASK {{ ex:s{s} ex:v {} }}",
                                        s * 10 + rng.below(10)
                                    ),
                                    "lookup" => {
                                        format!("{p}SELECT ?o WHERE {{ ex:s{s} ex:first ?o }}")
                                    }
                                    _ => format!("{p}SELECT ?p ?o WHERE {{ ex:s{s} ?p ?o }}"),
                                };
                                query_request(&registry, tenant, name, &statement, method, format)
                            })
                            .collect();
                        lanes.push(lane);
                    }
                }
            }
            ClientPlan::lanes(lanes, seed, client)
        })
        .collect();

    Setup {
        triples: tenants.iter().map(|t| triples(&registry, t)).sum(),
        registry,
        plans,
        tenants: tenants.to_vec(),
        user_bytes: 0,
        on_disk: false,
        durable: None,
        // Fifteen microseconds a request: two thousand of them are
        // still the shortest traced pass of the five.
        traced_requests: 2000,
    }
}

// ---------------------------------------------------------------------
// mixed_rw
// ---------------------------------------------------------------------

const RW_TENANT: &str = "dur";
const RW_TASKS: usize = 2000;
pub const RW_TRAJECTORY_LEN: usize = 256;
/// A 256-step trajectory is exactly one chunk.
const RW_CHUNK_BYTES: usize = RW_TRAJECTORY_LEN * 8;
/// Writer tasks alive at any time: a delete removes the task this many
/// inserts back, so the dataset keeps its size.
pub const RW_LIVE: u64 = 64;
const RW_POOL: usize = 24;

/// `mixed_rw`'s writer client. Request `2n` inserts task `w{LIVE+n}`,
/// request `2n+1` deletes task `w{n}`; tasks `w0..w{LIVE}` are loaded
/// during set-up.
pub struct Writer {
    seed: u64,
}

impl Writer {
    fn insert_statement(seed: u64, task: u64) -> String {
        let mut rng = SeededRng::new(&[seed, task, 0x7772_6974]);
        let mut values = String::with_capacity(RW_TRAJECTORY_LEN * 8);
        for _ in 0..RW_TRAJECTORY_LEN {
            values.push_str(&format!("{:.3} ", 100.0 * rng.unit()));
        }
        format!(
            "{}INSERT DATA {{ b:experimentW b:task b:w{task} . b:w{task} b:k_1 {:.3} ; \
             b:result 1 ; b:trajectory ({values}) . }}",
            prologue(),
            10.0 + 40.0 * rng.unit()
        )
    }

    fn request(&self, i: u64) -> Request {
        let n = i / 2;
        let (name, statement, body) = if i.is_multiple_of(2) {
            (
                "insert",
                Writer::insert_statement(self.seed, RW_LIVE + n),
                "inserted 4 deleted 0\n",
            )
        } else {
            (
                "delete",
                format!(
                    "{}DELETE WHERE {{ b:experimentW b:task b:w{n} . b:w{n} ?p ?o }}",
                    prologue()
                ),
                "inserted 0 deleted 4\n",
            )
        };
        Request {
            template: template(name),
            wire: update_wire(RW_TENANT, &statement),
            expect: Fingerprint::of(body.as_bytes()),
        }
    }

    /// The writer tasks that must exist after exactly the updates in
    /// `acked` (request indices) were acknowledged.
    pub fn surviving_tasks(acked: &[u64]) -> std::collections::BTreeSet<String> {
        let mut live: std::collections::BTreeSet<u64> = (0..RW_LIVE).collect();
        for &i in acked {
            if i.is_multiple_of(2) {
                live.insert(RW_LIVE + i / 2);
            } else {
                live.remove(&(i / 2));
            }
        }
        live.into_iter().map(|t| format!("{NS}w{t}")).collect()
    }
}

fn mixed_rw(seed: u64, scratch: &Path) -> Setup {
    let dir = scratch.join("dur");
    let mut db = Ssdm::open_durable_with(
        &dir,
        DurableOptions {
            fsync: FsyncPolicy::Always,
            cache_bytes: 0,
            ..DurableOptions::default()
        },
    )
    .expect("durable instance");
    db.set_parallel_workers(WORKERS);
    db.set_codec(CodecPolicy::Auto);
    db.set_externalize_threshold(64, RW_CHUNK_BYTES);
    load_bistab(
        &mut db,
        &BistabConfig {
            tasks: RW_TASKS,
            realizations: 4,
            trajectory_len: RW_TRAJECTORY_LEN,
            seed,
        },
    )
    .expect("bistab load");
    for task in 0..RW_LIVE {
        db.query(&Writer::insert_statement(seed, task))
            .expect("initial writer task");
    }
    // `load_bistab` writes the graph directly, past the journal: the
    // checkpoint is what makes the base data survive the reopen.
    db.checkpoint().expect("checkpoint after load");
    let registry = registry_with(vec![(RW_TENANT, db)]);
    let p = prologue();

    // The reader asks only about the immutable experiment1, so its
    // answers are constant whatever the writer has done.
    let mut rng = SeededRng::new(&[seed, 0x7265_6164]);
    let mut lane = |name: &str, statement: &mut Draw| {
        (0..RW_POOL)
            .map(|j| {
                let at = stratified(j, RW_POOL, &mut rng);
                let s = statement(&mut rng, at);
                query_request(&registry, RW_TENANT, name, &s, Method::Get, JSON)
            })
            .collect::<Vec<_>>()
    };
    let reader = vec![
        lane("read_meta", &mut |_, at| {
            format!(
                "{p}SELECT ?task ?k1 WHERE {{ b:experiment1 b:task ?task . \
                 ?task b:k_1 ?k1 ; b:result 1 . FILTER (?k1 > {:.3}) }}",
                44.0 + 4.0 * at
            )
        }),
        lane("read_slice", &mut |_, at| {
            let lo = 10.0 + 36.0 * at;
            format!(
                "{p}SELECT ?task (array_avg(?tr[1:32]) AS ?early) WHERE {{ \
                 b:experiment1 b:task ?task . ?task b:trajectory ?tr ; b:result 1 ; b:k_1 ?k1 . \
                 FILTER (?k1 > {lo:.3} && ?k1 < {:.3}) }}",
                lo + 4.0
            )
        }),
    ];

    Setup {
        triples: triples(&registry, RW_TENANT),
        registry,
        plans: vec![
            ClientPlan::Writer(Writer { seed }),
            ClientPlan::lanes(reader, seed, 1),
        ],
        tenants: vec![RW_TENANT],
        user_bytes: ((RW_TASKS + RW_LIVE as usize) * RW_TRAJECTORY_LEN * 8) as u64,
        on_disk: true,
        durable: Some(dir),
        traced_requests: 200,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wires(plan: &ClientPlan, n: u64) -> Vec<Vec<u8>> {
        (0..n).map(|i| plan.request(i).wire.clone()).collect()
    }

    #[test]
    fn request_sequence_is_a_pure_function_of_seed_client_and_index() {
        let a = http_point(11);
        let b = http_point(11);
        for (pa, pb) in a.plans.iter().zip(&b.plans) {
            assert_eq!(wires(pa, 200), wires(pb, 200));
        }
        // Asking out of order gives the same request as asking in order.
        assert_eq!(a.plans[0].request(57).wire, wires(&a.plans[0], 58)[57]);
        // The two clients of one run do not mirror each other.
        assert_ne!(wires(&a.plans[0], 200), wires(&a.plans[1], 200));
    }

    #[test]
    fn different_seeds_give_different_sequences() {
        let a = http_point(11);
        let b = http_point(12);
        assert_ne!(wires(&a.plans[0], 200), wires(&b.plans[0], 200));
        let w = |seed| ClientPlan::Writer(Writer { seed });
        assert_eq!(wires(&w(3), 8), wires(&w(3), 8));
        assert_ne!(wires(&w(3), 8), wires(&w(4), 8));
    }

    #[test]
    fn lanes_fix_the_template_mix_whatever_the_seed() {
        for seed in [1, 2] {
            let setup = http_point(seed);
            let mut counts = [0usize; TEMPLATES.len()];
            for i in 0..360 {
                counts[setup.plans[0].request(i).template] += 1;
            }
            for name in ["ask", "lookup", "rows10"] {
                assert_eq!(counts[template(name)], 120, "{name} under seed {seed}");
            }
        }
    }

    #[test]
    fn writer_alternates_and_keeps_the_dataset_size() {
        let writer = Writer { seed: 5 };
        assert_eq!(TEMPLATES[writer.request(0).template].name, "insert");
        assert_eq!(TEMPLATES[writer.request(1).template].name, "delete");
        let after = Writer::surviving_tasks(&[0, 1, 2, 3, 4]);
        assert_eq!(after.len() as u64, RW_LIVE + 1);
        assert!(!after.contains(&format!("{NS}w0")) && !after.contains(&format!("{NS}w1")));
        assert!(after.contains(&format!("{NS}w{}", RW_LIVE + 2)));
    }
}
