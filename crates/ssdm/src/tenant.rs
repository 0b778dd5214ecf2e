//! Multi-tenant serving: named [`Ssdm`] engines behind one server,
//! per-tenant quotas enforced at admission, and deficit-round-robin
//! (DRR) fair-share dispatch so one tenant's burst cannot starve the
//! others.
//!
//! The pieces, bottom-up:
//!
//! * [`TokenBucket`] — an optional per-tenant req/s limiter. Time is a
//!   parameter (`try_take(now)`), so tests drive it with synthetic
//!   instants instead of sleeping.
//! * [`DrrCore`] — the scheduling heart: one FIFO per tenant plus a
//!   deficit counter, served round-robin with a byte quantum. Costs are
//!   statement byte lengths (clamped), so a tenant draining many small
//!   queries and a tenant posting few huge ones get comparable service.
//!   Tenants at their `max_concurrent` cap are skipped without spending
//!   their deficit; per-tenant and global queue caps are enforced on
//!   push. Pure data structure — no locks, no clocks — so fairness is
//!   testable as a pop-sequence property.
//! * [`FairDispatch`] — a blocking MPMC queue around [`DrrCore`]: the
//!   one queue between the serving core's event loop and its worker
//!   pool, whichever wire a statement arrived on.
//! * [`Tenant`] / [`TenantRegistry`] — a named engine with quotas and
//!   admission counters, and the registry both wires resolve against.
//!   Counters ride the obs [`Report`] as `tenant="..."` labelled series
//!   in `/metrics`, `.stats`, and `STATS`.
//!
//! Admission outcomes map onto flat protocol replies: unknown tenant →
//! 404, rate/quota rejection → 429, global overload → 503
//! ([`Rejection::http_status`]).

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Instant;

use ssdm_obs::{Report, Scope};

use crate::{Backend, OpenOptions, Ssdm};

/// The tenant requests without an explicit tenant route resolve to.
pub const DEFAULT_TENANT: &str = "default";

/// DRR service quantum in cost units (statement bytes) added to a
/// tenant's deficit per round.
pub const DEFAULT_QUANTUM: u64 = 1024;

/// Costs are clamped to `DEFAULT_QUANTUM * COST_CLAMP_QUANTA` so a
/// pathological statement cannot stall the ring for more than a bounded
/// number of rounds.
pub const COST_CLAMP_QUANTA: u64 = 64;

// ---------------------------------------------------------------------------
// Quotas and admission outcomes
// ---------------------------------------------------------------------------

/// Optional request-rate quota: a token bucket refilled at `per_sec`
/// with capacity `burst`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimit {
    pub per_sec: f64,
    pub burst: f64,
}

/// Per-tenant admission quotas. The cache-byte budget is part of the
/// tenant's engine construction ([`TenantSpec`]), not checked here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantQuotas {
    /// Statements a tenant may have executing at once.
    pub max_concurrent: usize,
    /// Statements a tenant may have waiting beyond the executing ones;
    /// `max_concurrent + max_queued` bounds total in-flight work.
    pub max_queued: usize,
    /// Optional req/s token bucket.
    pub rate: Option<RateLimit>,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        TenantQuotas {
            max_concurrent: 4,
            max_queued: 64,
            rate: None,
        }
    }
}

/// The subset of quotas the scheduler enforces per push/pop.
#[derive(Debug, Clone, Copy)]
pub struct TenantCaps {
    pub max_concurrent: usize,
    pub max_queued: usize,
}

impl From<&TenantQuotas> for TenantCaps {
    fn from(q: &TenantQuotas) -> Self {
        TenantCaps {
            max_concurrent: q.max_concurrent.max(1),
            max_queued: q.max_queued,
        }
    }
}

/// Why a request was refused at admission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// No such tenant registered (HTTP 404).
    UnknownTenant(String),
    /// The tenant's req/s token bucket is empty (HTTP 429).
    RateLimited(String),
    /// The tenant is at its in-flight cap `max_concurrent + max_queued`
    /// (HTTP 429).
    QuotaExceeded(String),
    /// The server-wide dispatch queue is full or shutting down
    /// (HTTP 503).
    Overloaded,
}

impl Rejection {
    pub fn http_status(&self) -> u16 {
        match self {
            Rejection::UnknownTenant(_) => 404,
            Rejection::RateLimited(_) | Rejection::QuotaExceeded(_) => 429,
            Rejection::Overloaded => 503,
        }
    }

    pub fn message(&self) -> String {
        match self {
            Rejection::UnknownTenant(t) => format!("unknown tenant: {t}"),
            Rejection::RateLimited(t) => {
                format!("tenant {t} over request-rate quota; retry later")
            }
            Rejection::QuotaExceeded(t) => {
                format!("tenant {t} at max in-flight quota; retry later")
            }
            Rejection::Overloaded => "server overloaded".to_string(),
        }
    }
}

// ---------------------------------------------------------------------------
// Token bucket
// ---------------------------------------------------------------------------

/// A token bucket with injectable time: `try_take(now)` refills from
/// the previously observed instant, so tests pass synthetic instants
/// and never sleep.
#[derive(Debug)]
pub struct TokenBucket {
    capacity: f64,
    per_sec: f64,
    tokens: f64,
    last: Option<Instant>,
}

impl TokenBucket {
    pub fn new(limit: RateLimit) -> TokenBucket {
        let capacity = limit.burst.max(1.0);
        TokenBucket {
            capacity,
            per_sec: limit.per_sec.max(0.0),
            tokens: capacity,
            last: None,
        }
    }

    /// Take one token if available at `now`; `false` means rate-limited.
    pub fn try_take(&mut self, now: Instant) -> bool {
        if let Some(last) = self.last {
            if let Some(dt) = now.checked_duration_since(last) {
                self.tokens = (self.tokens + self.per_sec * dt.as_secs_f64()).min(self.capacity);
                self.last = Some(now);
            }
            // `now` before `last` (callers racing on the clock): keep
            // the newer refill point, just try the balance.
        } else {
            self.last = Some(now);
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

// ---------------------------------------------------------------------------
// Deficit round robin core
// ---------------------------------------------------------------------------

struct TenantQueue<T> {
    items: VecDeque<(u64, T)>,
    deficit: u64,
    active: usize,
    caps: TenantCaps,
}

/// The DRR scheduler state: per-tenant FIFOs served round-robin with a
/// deficit counter. Plain data — [`FairDispatch`] provides locking.
pub struct DrrCore<T> {
    queues: BTreeMap<String, TenantQueue<T>>,
    /// Round-robin order over tenants with waiting items.
    ring: VecDeque<String>,
    quantum: u64,
    /// Total waiting items across tenants.
    queued: usize,
    /// Server-wide cap on waiting items; 0 = unbounded.
    global_cap: usize,
    closed: bool,
}

impl<T> DrrCore<T> {
    pub fn new(quantum: u64, global_cap: usize) -> DrrCore<T> {
        DrrCore {
            queues: BTreeMap::new(),
            ring: VecDeque::new(),
            quantum: quantum.max(1),
            queued: 0,
            global_cap,
            closed: false,
        }
    }

    pub fn len(&self) -> usize {
        self.queued
    }

    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    pub fn close(&mut self) {
        self.closed = true;
    }

    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Enqueue `item` for `tenant` at `cost` (clamped), enforcing the
    /// global cap (→ [`Rejection::Overloaded`]) and the tenant's
    /// in-flight cap (→ [`Rejection::QuotaExceeded`]); a rejected item
    /// comes back with the reason. `caps` is re-recorded on every push
    /// so quota changes take effect live.
    pub fn push(
        &mut self,
        tenant: &str,
        caps: TenantCaps,
        cost: u64,
        item: T,
    ) -> Result<(), (Rejection, T)> {
        if self.closed || (self.global_cap > 0 && self.queued >= self.global_cap) {
            return Err((Rejection::Overloaded, item));
        }
        let q = self
            .queues
            .entry(tenant.to_string())
            .or_insert_with(|| TenantQueue {
                items: VecDeque::new(),
                deficit: 0,
                active: 0,
                caps,
            });
        q.caps = caps;
        if q.active + q.items.len() >= caps.max_concurrent + caps.max_queued {
            // Drop the placeholder entry if this push created it.
            if q.items.is_empty() && q.active == 0 {
                self.queues.remove(tenant);
            }
            return Err((Rejection::QuotaExceeded(tenant.to_string()), item));
        }
        let cost = cost.clamp(1, self.quantum * COST_CLAMP_QUANTA);
        let was_empty = q.items.is_empty();
        q.items.push_back((cost, item));
        if was_empty {
            q.deficit = 0;
            self.ring.push_back(tenant.to_string());
        }
        self.queued += 1;
        Ok(())
    }

    /// Dequeue the next item under DRR, skipping tenants at their
    /// `max_concurrent` cap (without spending their deficit). Returns
    /// `None` when nothing is runnable — either empty, or every tenant
    /// with waiting work is at its cap (callers wait for
    /// [`DrrCore::finish`]).
    pub fn pop(&mut self) -> Option<(String, T)> {
        if self.queued == 0 {
            return None;
        }
        // Each full pass adds `quantum` to every unblocked tenant at
        // the front, so after COST_CLAMP_QUANTA passes any unblocked
        // head is affordable; +1 pass detects the all-blocked case.
        for _ in 0..=COST_CLAMP_QUANTA {
            let mut any_runnable = false;
            for _ in 0..self.ring.len() {
                let name = self.ring.front().cloned()?;
                let q = self.queues.get_mut(&name).expect("ring tenant has queue");
                if q.active >= q.caps.max_concurrent {
                    self.ring.rotate_left(1);
                    continue;
                }
                any_runnable = true;
                let head_cost = q
                    .items
                    .front()
                    .map(|(c, _)| *c)
                    .expect("ring tenant nonempty");
                if q.deficit >= head_cost {
                    q.deficit -= head_cost;
                    let (_, item) = q.items.pop_front().expect("head exists");
                    q.active += 1;
                    self.queued -= 1;
                    if q.items.is_empty() {
                        q.deficit = 0;
                        self.ring.pop_front();
                    }
                    return Some((name, item));
                }
                q.deficit += self.quantum;
                self.ring.rotate_left(1);
            }
            if !any_runnable {
                return None;
            }
        }
        unreachable!("DRR deficit must cover a clamped cost within the pass bound");
    }

    /// Record that an item popped for `tenant` finished executing,
    /// releasing one of its `max_concurrent` slots.
    pub fn finish(&mut self, tenant: &str) {
        if let Some(q) = self.queues.get_mut(tenant) {
            q.active = q.active.saturating_sub(1);
            if q.items.is_empty() && q.active == 0 {
                self.queues.remove(tenant);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Blocking fair dispatch queue (worker feed)
// ---------------------------------------------------------------------------

/// A blocking MPMC queue with DRR ordering: producers `push` (rejected
/// with quota/overload errors), workers `pop` (blocks until runnable
/// work or close) and must call `finish` when done executing.
pub struct FairDispatch<T> {
    core: Mutex<DrrCore<T>>,
    cv: Condvar,
}

fn lock_core<T>(core: &Mutex<DrrCore<T>>) -> MutexGuard<'_, DrrCore<T>> {
    // The core holds plain scheduler state; a panicked pusher cannot
    // leave it inconsistent, so recover rather than cascade.
    core.lock().unwrap_or_else(|e| e.into_inner())
}

impl<T> FairDispatch<T> {
    pub fn new(quantum: u64, global_cap: usize) -> FairDispatch<T> {
        FairDispatch {
            core: Mutex::new(DrrCore::new(quantum, global_cap)),
            cv: Condvar::new(),
        }
    }

    /// Enqueue as [`DrrCore::push`] does, running `admitted` once the
    /// item is accepted and while the queue is still locked. A consumer
    /// therefore cannot pop the item — and run it, or report on it —
    /// before the producer's own bookkeeping for it (an admission
    /// counter) is in place.
    pub fn push(
        &self,
        tenant: &str,
        caps: TenantCaps,
        cost: u64,
        item: T,
        admitted: impl FnOnce(),
    ) -> Result<(), (Rejection, T)> {
        let mut core = lock_core(&self.core);
        core.push(tenant, caps, cost, item)?;
        admitted();
        drop(core);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until an item is runnable; `None` means closed and fully
    /// drained (queued items are still served after close).
    pub fn pop(&self) -> Option<(String, T)> {
        let mut core = lock_core(&self.core);
        loop {
            if let Some(out) = core.pop() {
                return Some(out);
            }
            if core.is_closed() && core.is_empty() {
                return None;
            }
            core = self.cv.wait(core).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Release `tenant`'s slot. A worker blocks in `pop` with work
    /// queued only while every queued tenant is at its `max_concurrent`
    /// cap, and one released slot makes at most one item runnable: so
    /// one waiter is woken, and none when nothing is queued. Once the
    /// queue is closed every waiter is woken instead: the finish that
    /// leaves it drained is the only event that tells a worker blocked
    /// behind a capped tenant to return `None`.
    pub fn finish(&self, tenant: &str) {
        let mut core = lock_core(&self.core);
        core.finish(tenant);
        let (closed, queued) = (core.is_closed(), !core.is_empty());
        drop(core);
        if closed {
            self.cv.notify_all();
        } else if queued {
            self.cv.notify_one();
        }
    }

    pub fn close(&self) {
        lock_core(&self.core).close();
        self.cv.notify_all();
    }
}

// ---------------------------------------------------------------------------
// Tenant
// ---------------------------------------------------------------------------

/// Monotonic per-tenant admission/outcome counters. `admitted` counts
/// statements accepted into the dispatch queue; every admitted
/// statement ends as exactly one of `completed`, `errors`, or
/// `timed_out` — the reconciliation `repro_tenants` asserts.
#[derive(Default)]
pub struct TenantCounters {
    pub admitted: AtomicU64,
    pub completed: AtomicU64,
    pub errors: AtomicU64,
    pub timed_out: AtomicU64,
    pub rejected_rate: AtomicU64,
    pub rejected_quota: AtomicU64,
    pub rejected_overload: AtomicU64,
}

impl TenantCounters {
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// One named engine with quotas and counters.
pub struct Tenant {
    pub name: String,
    engine: Arc<Mutex<Ssdm>>,
    quotas: Mutex<TenantQuotas>,
    bucket: Mutex<Option<TokenBucket>>,
    pub counters: TenantCounters,
}

impl Tenant {
    fn new(name: &str, engine: Ssdm, quotas: TenantQuotas) -> Tenant {
        Tenant {
            name: name.to_string(),
            engine: Arc::new(Mutex::new(engine)),
            bucket: Mutex::new(quotas.rate.map(TokenBucket::new)),
            quotas: Mutex::new(quotas),
            counters: TenantCounters::default(),
        }
    }

    /// The engine mutex: framed and HTTP traffic for this tenant see one
    /// consistent dataset.
    pub fn engine(&self) -> &Arc<Mutex<Ssdm>> {
        &self.engine
    }

    pub fn quotas(&self) -> TenantQuotas {
        *self.quotas.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn set_quotas(&self, quotas: TenantQuotas) {
        *self.bucket.lock().unwrap_or_else(|e| e.into_inner()) = quotas.rate.map(TokenBucket::new);
        *self.quotas.lock().unwrap_or_else(|e| e.into_inner()) = quotas;
    }

    pub fn caps(&self) -> TenantCaps {
        TenantCaps::from(&self.quotas())
    }

    /// Spend one rate token at `now`; `true` when no rate quota is set.
    pub fn rate_admit(&self, now: Instant) -> bool {
        match self
            .bucket
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_mut()
        {
            Some(bucket) => bucket.try_take(now),
            None => true,
        }
    }

    pub fn note_admitted(&self) {
        TenantCounters::bump(&self.counters.admitted);
    }

    pub fn note_done(&self, ok: bool) {
        TenantCounters::bump(if ok {
            &self.counters.completed
        } else {
            &self.counters.errors
        });
    }

    pub fn note_timed_out(&self) {
        TenantCounters::bump(&self.counters.timed_out);
    }

    pub fn note_rejected(&self, why: &Rejection) {
        TenantCounters::bump(match why {
            Rejection::RateLimited(_) => &self.counters.rejected_rate,
            Rejection::QuotaExceeded(_) => &self.counters.rejected_quota,
            _ => &self.counters.rejected_overload,
        });
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The set of tenants one server hosts. Always contains the
/// [`DEFAULT_TENANT`]; the default tenant cannot be evicted.
pub struct TenantRegistry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
}

impl TenantRegistry {
    /// A registry whose default tenant owns `engine`.
    pub fn new(engine: Ssdm, quotas: TenantQuotas) -> TenantRegistry {
        let default = Arc::new(Tenant::new(DEFAULT_TENANT, engine, quotas));
        TenantRegistry {
            tenants: RwLock::new(BTreeMap::from([(default.name.clone(), default)])),
        }
    }

    fn map(&self) -> std::sync::RwLockReadGuard<'_, BTreeMap<String, Arc<Tenant>>> {
        self.tenants.read().unwrap_or_else(|e| e.into_inner())
    }

    /// Register a new tenant with its own engine.
    pub fn add(
        &self,
        name: &str,
        engine: Ssdm,
        quotas: TenantQuotas,
    ) -> Result<Arc<Tenant>, String> {
        if !valid_name(name) {
            return Err(format!(
                "invalid tenant name {name:?}: use 1-64 chars from [A-Za-z0-9_-]"
            ));
        }
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        if map.contains_key(name) {
            return Err(format!("tenant {name:?} already exists"));
        }
        let tenant = Arc::new(Tenant::new(name, engine, quotas));
        map.insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Remove a tenant. In-flight statements holding the engine `Arc`
    /// finish normally; new requests get 404.
    pub fn evict(&self, name: &str) -> Result<(), String> {
        if name == DEFAULT_TENANT {
            return Err("the default tenant cannot be evicted".to_string());
        }
        let mut map = self.tenants.write().unwrap_or_else(|e| e.into_inner());
        map.remove(name)
            .map(|_| ())
            .ok_or_else(|| format!("tenant {name:?} not found"))
    }

    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.map().get(name).cloned()
    }

    pub fn default_tenant(&self) -> Arc<Tenant> {
        self.get(DEFAULT_TENANT)
            .expect("default tenant always present")
    }

    pub fn names(&self) -> Vec<String> {
        self.map().keys().cloned().collect()
    }

    /// Resolve `None` to the default tenant, `Some(name)` to that
    /// tenant or [`Rejection::UnknownTenant`].
    pub fn resolve(&self, name: Option<&str>) -> Result<Arc<Tenant>, Rejection> {
        let name = name.unwrap_or(DEFAULT_TENANT);
        self.get(name)
            .ok_or_else(|| Rejection::UnknownTenant(name.to_string()))
    }

    /// Resolve + spend a rate token: the admission prefix. Queue/slot
    /// caps are enforced later, at [`FairDispatch::push`].
    pub fn admit(&self, name: Option<&str>, now: Instant) -> Result<Arc<Tenant>, Rejection> {
        let tenant = self.resolve(name)?;
        if !tenant.rate_admit(now) {
            let why = Rejection::RateLimited(tenant.name.clone());
            tenant.note_rejected(&why);
            return Err(why);
        }
        Ok(tenant)
    }

    /// Per-tenant admission counters as `tenant="..."` labelled series.
    pub fn report(&self) -> Report {
        let mut r = Report::default();
        for (name, t) in self.map().iter() {
            let c = &t.counters;
            for (metric, value) in [
                ("admitted", &c.admitted),
                ("completed", &c.completed),
                ("errors", &c.errors),
                ("timed_out", &c.timed_out),
                ("rejected_rate", &c.rejected_rate),
                ("rejected_quota", &c.rejected_quota),
                ("rejected_overload", &c.rejected_overload),
            ] {
                r.push_labeled_int(
                    "tenant",
                    Scope::Cumulative,
                    metric,
                    ("tenant", name.clone()),
                    value.load(Ordering::Relaxed),
                );
            }
        }
        r
    }

    /// The `/metrics` / `METRICS` body: the default tenant's engine
    /// report, the tenant-labelled admission counters, and the process
    /// recorder, in one Prometheus text page.
    pub fn metrics_prometheus(&self) -> String {
        let engine_part = {
            let engine = self.default_tenant();
            let guard = engine.engine().lock().unwrap_or_else(|e| e.into_inner());
            guard.report().render_prometheus()
        };
        format!(
            "{}{}{}",
            engine_part,
            self.report().render_prometheus(),
            crate::recorder_prometheus_text()
        )
    }

    /// The `.stats` / `STATS` body for one tenant: its engine report
    /// plus the registry's tenant section.
    pub fn stats_text(&self, tenant: &Tenant) -> String {
        let engine_part = {
            let guard = tenant.engine().lock().unwrap_or_else(|e| e.into_inner());
            guard.report().render_text()
        };
        format!("{}{}", engine_part, self.report().render_text())
    }
}

// ---------------------------------------------------------------------------
// Tenant spec (CLI / config surface)
// ---------------------------------------------------------------------------

/// A parsed `--tenants` entry: how to open one named tenant's engine,
/// and its quotas.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    pub name: String,
    pub options: OpenOptions,
    pub quotas: TenantQuotas,
}

fn parse_bytes(s: &str) -> Result<usize, String> {
    let s = s.trim().to_ascii_lowercase();
    let (digits, mult) = match s.strip_suffix(['k', 'm', 'g']) {
        Some(d) if s.ends_with('k') => (d, 1usize << 10),
        Some(d) if s.ends_with('m') => (d, 1usize << 20),
        Some(d) => (d, 1usize << 30),
        None => (s.as_str(), 1),
    };
    digits
        .trim()
        .parse::<usize>()
        .map(|n| n * mult)
        .map_err(|_| format!("bad byte size {s:?} (use N, Nk, Nm, or Ng)"))
}

fn number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("bad {key} value {value:?}"))
}

impl TenantSpec {
    /// Parse `name[:key=value]...` where keys are `mem`, `rel`,
    /// `file=DIR`, `durable=DIR`, `cache=BYTES`, `conc=N`, `queue=N`,
    /// `rate=PER_SEC`, `burst=N`. Example:
    /// `alice:file=/data/alice:cache=64m:conc=2:rate=100:burst=20`.
    pub fn parse(s: &str) -> Result<TenantSpec, String> {
        let mut parts = s.split(':');
        let name = parts.next().unwrap_or("").trim().to_string();
        if !valid_name(&name) {
            return Err(format!(
                "invalid tenant name {name:?}: use 1-64 chars from [A-Za-z0-9_-]"
            ));
        }
        let mut spec = TenantSpec {
            name,
            options: OpenOptions::default(),
            quotas: TenantQuotas::default(),
        };
        let mut rate: Option<f64> = None;
        let mut burst: Option<f64> = None;
        for part in parts {
            let (key, value) = match part.split_once('=') {
                Some((k, v)) => (k.trim(), v.trim()),
                None => (part.trim(), ""),
            };
            match key {
                "mem" | "rel" | "file" => {
                    // The last back-end key wins, `durable` included.
                    spec.options.durable = None;
                    spec.options.backend = match key {
                        "mem" => Backend::Memory,
                        "rel" => Backend::Relational,
                        _ => Backend::File(PathBuf::from(value)),
                    };
                }
                "durable" => spec.options.durable = Some(PathBuf::from(value)),
                "cache" => spec.options.cache_bytes = parse_bytes(value)?,
                "conc" => spec.quotas.max_concurrent = number(key, value)?,
                "queue" => spec.quotas.max_queued = number(key, value)?,
                "rate" => rate = Some(number(key, value)?),
                "burst" => burst = Some(number(key, value)?),
                other => return Err(format!("unknown tenant option {other:?} in {s:?}")),
            }
        }
        if let Some(per_sec) = rate {
            spec.quotas.rate = Some(RateLimit {
                per_sec,
                burst: burst.unwrap_or(per_sec.max(1.0)),
            });
        } else if burst.is_some() {
            return Err(format!("tenant option burst requires rate in {s:?}"));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn caps(max_concurrent: usize, max_queued: usize) -> TenantCaps {
        TenantCaps {
            max_concurrent,
            max_queued,
        }
    }

    #[test]
    fn token_bucket_refills_with_synthetic_time() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(RateLimit {
            per_sec: 1.0,
            burst: 2.0,
        });
        assert!(b.try_take(t0));
        assert!(b.try_take(t0));
        assert!(!b.try_take(t0), "burst exhausted");
        assert!(!b.try_take(t0 + Duration::from_millis(100)));
        assert!(b.try_take(t0 + Duration::from_secs(2)), "refilled");
        // Refill caps at burst: 100s later there are 2 tokens, not 100.
        let later = t0 + Duration::from_secs(102);
        assert!(b.try_take(later));
        assert!(b.try_take(later));
        assert!(!b.try_take(later));
    }

    #[test]
    fn drr_interleaves_hog_and_mouse() {
        // A hog with 100 queued statements and a mouse with 3, equal
        // costs: DRR must serve the mouse's statements interleaved at
        // the front, not after the hog drains.
        let mut core = DrrCore::new(8, 0);
        for i in 0..100u32 {
            core.push("hog", caps(64, 1024), 8, ("hog", i)).unwrap();
        }
        for i in 0..3u32 {
            core.push("mouse", caps(64, 1024), 8, ("mouse", i)).unwrap();
        }
        let mut order = Vec::new();
        while let Some((name, _)) = core.pop() {
            core.finish(&name);
            order.push(name);
        }
        assert_eq!(order.len(), 103);
        let mouse_positions: Vec<usize> = order
            .iter()
            .enumerate()
            .filter(|(_, n)| n.as_str() == "mouse")
            .map(|(i, _)| i)
            .collect();
        assert_eq!(mouse_positions.len(), 3);
        assert!(
            *mouse_positions.last().unwrap() <= 6,
            "mouse served within the first rounds, got positions {mouse_positions:?}"
        );
    }

    #[test]
    fn drr_weighs_cost_not_count() {
        // Tenant "big" posts statements 8x the size of "small"; per
        // byte served they should come out roughly even, i.e. small
        // pops ~8 items per big item.
        let mut core = DrrCore::new(64, 0);
        for i in 0..10u32 {
            core.push("big", caps(64, 1024), 512, i).unwrap();
        }
        for i in 0..80u32 {
            core.push("small", caps(64, 1024), 64, i).unwrap();
        }
        let mut first_20 = Vec::new();
        for _ in 0..20 {
            let (name, _) = core.pop().unwrap();
            core.finish(&name);
            first_20.push(name);
        }
        let big = first_20.iter().filter(|n| n.as_str() == "big").count();
        let small = first_20.len() - big;
        // Fair per byte: small pops ~8 items (8*64 bytes) per big item
        // (512 bytes), so bytes served stay within 2x of each other.
        let (small_bytes, big_bytes) = (small as u64 * 64, big as u64 * 512);
        assert!(
            big >= 1 && small_bytes <= 2 * big_bytes && big_bytes <= 2 * small_bytes,
            "expected byte-fair service, got small={small} ({small_bytes}B) big={big} ({big_bytes}B)"
        );
    }

    #[test]
    fn drr_skips_tenants_at_concurrency_cap() {
        let mut core = DrrCore::new(8, 0);
        core.push("a", caps(1, 8), 1, 1).unwrap();
        core.push("a", caps(1, 8), 1, 2).unwrap();
        core.push("b", caps(1, 8), 1, 10).unwrap();
        let (n1, v1) = core.pop().unwrap();
        assert_eq!((n1.as_str(), v1), ("a", 1));
        // "a" is now at max_concurrent=1: its second item must wait,
        // "b" runs instead.
        let (n2, v2) = core.pop().unwrap();
        assert_eq!((n2.as_str(), v2), ("b", 10));
        // Everything left is capped.
        assert!(core.pop().is_none());
        assert_eq!(core.len(), 1);
        core.finish("a");
        let (n3, v3) = core.pop().unwrap();
        assert_eq!((n3.as_str(), v3), ("a", 2));
    }

    #[test]
    fn push_enforces_tenant_and_global_caps() {
        let mut core = DrrCore::new(8, 3);
        // Tenant cap: max_concurrent 1 + max_queued 1 → 2 in flight.
        core.push("a", caps(1, 1), 1, 1).unwrap();
        core.push("a", caps(1, 1), 1, 2).unwrap();
        assert_eq!(
            core.push("a", caps(1, 1), 1, 3),
            Err((Rejection::QuotaExceeded("a".to_string()), 3))
        );
        // Global cap: 3 waiting total.
        core.push("b", caps(8, 8), 1, 1).unwrap();
        assert_eq!(
            core.push("c", caps(8, 8), 1, 1),
            Err((Rejection::Overloaded, 1))
        );
        // Draining "a" frees both caps.
        let (name, _) = core.pop().unwrap();
        assert_eq!(name, "a");
        core.push("c", caps(8, 8), 1, 1).unwrap();
    }

    #[test]
    fn rejected_push_does_not_leak_placeholder_state() {
        let mut core: DrrCore<u32> = DrrCore::new(8, 0);
        assert_eq!(
            core.push("ghost", caps(1, 0), 1, 1).err(),
            None,
            "first push within caps"
        );
        let (name, _) = core.pop().unwrap();
        assert_eq!(name, "ghost");
        // At max_concurrent with nothing queued: next push rejected and
        // must not corrupt the active count tracked for "ghost".
        assert!(core.push("ghost", caps(1, 0), 1, 2).is_err());
        core.finish("ghost");
        assert!(core.queues.is_empty(), "state reclaimed after finish");
    }

    #[test]
    fn fair_dispatch_close_drains_then_unblocks() {
        let d: Arc<FairDispatch<u32>> = Arc::new(FairDispatch::new(8, 0));
        d.push("a", caps(4, 16), 1, 7, || ()).unwrap();
        d.close();
        // Queued items still served after close…
        let (name, v) = d.pop().unwrap();
        assert_eq!((name.as_str(), v), ("a", 7));
        d.finish("a");
        // …then pop reports closed.
        assert!(d.pop().is_none());
        // A blocked worker wakes on close.
        let d2: Arc<FairDispatch<u32>> = Arc::new(FairDispatch::new(8, 0));
        let d2c = Arc::clone(&d2);
        let worker = std::thread::spawn(move || d2c.pop());
        d2.close();
        assert!(worker.join().unwrap().is_none());
    }

    #[test]
    fn finish_wakes_a_worker_blocked_behind_a_tenant_at_its_cap() {
        let d: Arc<FairDispatch<u32>> = Arc::new(FairDispatch::new(8, 0));
        d.push("a", caps(1, 4), 1, 1, || ()).unwrap();
        d.push("a", caps(1, 4), 1, 2, || ()).unwrap();
        // "a" is at its cap of one: its second item is queued but not
        // runnable, so the worker below blocks in `pop`.
        assert_eq!(d.pop(), Some(("a".to_string(), 1)));
        let (tx, rx) = std::sync::mpsc::channel();
        let blocked = Arc::clone(&d);
        let worker = std::thread::spawn(move || tx.send(blocked.pop()).unwrap());
        assert!(
            rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "a tenant at its cap ran a second item"
        );
        d.finish("a");
        let woken = rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            woken,
            Ok(Some(("a".to_string(), 2))),
            "finish left it blocked"
        );
        worker.join().unwrap();
    }

    #[test]
    fn close_with_work_behind_a_capped_tenant_releases_every_worker() {
        let d: Arc<FairDispatch<u32>> = Arc::new(FairDispatch::new(8, 0));
        for v in 1..=3 {
            d.push("a", caps(1, 8), 1, v, || ()).unwrap();
        }
        // "a" runs item 1 here; items 2 and 3 wait behind its cap of one,
        // so each of the three workers below blocks in `pop`.
        assert_eq!(d.pop(), Some(("a".to_string(), 1)));
        let (tx, rx) = std::sync::mpsc::channel();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (d, tx) = (Arc::clone(&d), tx.clone());
                std::thread::spawn(move || tx.send(d.pop()).unwrap())
            })
            .collect();
        let quiet = |what: &str| {
            assert!(
                rx.recv_timeout(Duration::from_millis(50)).is_err(),
                "a worker returned from pop {what}"
            )
        };
        quiet("while its tenant was at its cap");
        // Close with capped work still queued, as a reactor that gives up
        // on its drain does: the woken workers find only capped work and
        // wait again.
        d.close();
        quiet("after close with work still queued");
        // Release the slot once per item; the finish that drains the
        // queue must release the worker that got no item.
        let mut got = Vec::new();
        for _ in 0..3 {
            d.finish("a");
            let popped = rx.recv_timeout(Duration::from_secs(10));
            got.push(popped.expect("a finish left every worker blocked"));
        }
        // Which worker answers first is the scheduler's choice: once item 3
        // is out, the last worker can find the queue closed and empty before
        // the one holding item 3 has sent it.
        got.sort();
        assert_eq!(
            got,
            vec![None, Some(("a".to_string(), 2)), Some(("a".to_string(), 3))]
        );
        for w in workers {
            w.join().unwrap();
        }
    }

    #[test]
    fn registry_lifecycle_create_route_evict() {
        let reg = TenantRegistry::new(Ssdm::open(Backend::Memory), TenantQuotas::default());
        assert_eq!(reg.names(), vec![DEFAULT_TENANT.to_string()]);
        reg.add(
            "alice",
            Ssdm::open(Backend::Memory),
            TenantQuotas::default(),
        )
        .unwrap();
        assert!(reg
            .add(
                "alice",
                Ssdm::open(Backend::Memory),
                TenantQuotas::default()
            )
            .is_err());
        assert!(reg
            .add(
                "bad name",
                Ssdm::open(Backend::Memory),
                TenantQuotas::default()
            )
            .is_err());
        assert_eq!(reg.resolve(Some("alice")).unwrap().name, "alice");
        assert_eq!(reg.resolve(None).unwrap().name, DEFAULT_TENANT);
        assert_eq!(
            reg.resolve(Some("bob")).err(),
            Some(Rejection::UnknownTenant("bob".to_string()))
        );
        assert!(reg.evict(DEFAULT_TENANT).is_err());
        reg.evict("alice").unwrap();
        assert!(reg.get("alice").is_none());
        assert!(reg.evict("alice").is_err());
    }

    #[test]
    fn tenants_have_isolated_datasets() {
        let reg = TenantRegistry::new(Ssdm::open(Backend::Memory), TenantQuotas::default());
        let alice = reg
            .add(
                "alice",
                Ssdm::open(Backend::Memory),
                TenantQuotas::default(),
            )
            .unwrap();
        let bob = reg
            .add("bob", Ssdm::open(Backend::Memory), TenantQuotas::default())
            .unwrap();
        alice
            .engine()
            .lock()
            .unwrap()
            .query("INSERT DATA { <urn:a> <urn:p> 1 }")
            .unwrap();
        let count = |t: &Arc<Tenant>| {
            let mut e = t.engine().lock().unwrap();
            match e
                .query("SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }")
                .unwrap()
            {
                crate::QueryResult::Solutions { rows, .. } => format!("{:?}", rows[0][0]),
                other => panic!("unexpected result {other:?}"),
            }
        };
        assert!(count(&alice).contains("Int(1)"), "{}", count(&alice));
        assert!(count(&bob).contains("Int(0)"), "{}", count(&bob));
    }

    #[test]
    fn admit_rate_limits_then_recovers() {
        let reg = TenantRegistry::new(Ssdm::open(Backend::Memory), TenantQuotas::default());
        reg.add(
            "limited",
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
        let t0 = Instant::now();
        assert!(reg.admit(Some("limited"), t0).is_ok());
        assert_eq!(
            reg.admit(Some("limited"), t0).err(),
            Some(Rejection::RateLimited("limited".to_string()))
        );
        assert!(reg
            .admit(Some("limited"), t0 + Duration::from_secs(2))
            .is_ok());
        let report = reg.report();
        assert_eq!(
            report.get_labeled("tenant", "rejected_rate", "limited"),
            Some(ssdm_obs::MetricValue::Int(1))
        );
    }

    #[test]
    fn registry_report_labels_every_tenant() {
        let reg = TenantRegistry::new(Ssdm::open(Backend::Memory), TenantQuotas::default());
        let alice = reg
            .add(
                "alice",
                Ssdm::open(Backend::Memory),
                TenantQuotas::default(),
            )
            .unwrap();
        alice.note_admitted();
        alice.note_done(true);
        alice.note_admitted();
        alice.note_done(false);
        let report = reg.report();
        assert_eq!(
            report.get_labeled("tenant", "admitted", "alice"),
            Some(ssdm_obs::MetricValue::Int(2))
        );
        assert_eq!(
            report.get_labeled("tenant", "completed", "alice"),
            Some(ssdm_obs::MetricValue::Int(1))
        );
        assert_eq!(
            report.get_labeled("tenant", "errors", "alice"),
            Some(ssdm_obs::MetricValue::Int(1))
        );
        assert_eq!(
            report.get_labeled("tenant", "admitted", DEFAULT_TENANT),
            Some(ssdm_obs::MetricValue::Int(0))
        );
        let prom = reg.metrics_prometheus();
        ssdm_obs::validate_prometheus_text(&prom).unwrap();
        assert!(prom.contains("ssdm_tenant_admitted_total{tenant=\"alice\"} 2"));
    }

    #[test]
    fn tenant_spec_parses_options() {
        let spec =
            TenantSpec::parse("alice:file=/data/a:cache=64m:conc=2:queue=8:rate=100:burst=20")
                .unwrap();
        assert_eq!(spec.name, "alice");
        assert_eq!(
            spec.options,
            OpenOptions {
                backend: Backend::File(PathBuf::from("/data/a")),
                cache_bytes: 64 << 20,
                ..OpenOptions::default()
            }
        );
        assert_eq!(spec.quotas.max_concurrent, 2);
        assert_eq!(spec.quotas.max_queued, 8);
        assert_eq!(
            spec.quotas.rate,
            Some(RateLimit {
                per_sec: 100.0,
                burst: 20.0
            })
        );
        // Every engine key, alone and in the order that decides between
        // back-end keys: the last one wins.
        let options = |s: &str| TenantSpec::parse(s).unwrap().options;
        let with = |backend, durable: Option<&str>, cache_bytes| OpenOptions {
            backend,
            durable: durable.map(PathBuf::from),
            cache_bytes,
            ..OpenOptions::default()
        };
        assert_eq!(options("bob"), with(Backend::Memory, None, 0));
        assert_eq!(options("bob:rel"), with(Backend::Relational, None, 0));
        assert_eq!(options("bob:rel:mem"), with(Backend::Memory, None, 0));
        assert_eq!(
            options("bob:cache=3k"),
            with(Backend::Memory, None, 3 << 10)
        );
        assert_eq!(
            options("bob:cache=2g"),
            with(Backend::Memory, None, 2 << 30)
        );
        assert_eq!(
            options("bob:durable=/d:cache=1m"),
            with(Backend::Memory, Some("/d"), 1 << 20)
        );
        assert_eq!(
            options("bob:file=/f:durable=/d"),
            with(Backend::File("/f".into()), Some("/d"), 0)
        );
        assert_eq!(
            options("bob:durable=/d:file=/f"),
            with(Backend::File("/f".into()), None, 0)
        );
        assert_eq!(
            options("bob:durable=/d:rel"),
            with(Backend::Relational, None, 0)
        );
        let quotas = TenantSpec::parse("bob:conc=3:queue=0:rate=2.5")
            .unwrap()
            .quotas;
        assert_eq!(
            quotas,
            TenantQuotas {
                max_concurrent: 3,
                max_queued: 0,
                rate: Some(RateLimit {
                    per_sec: 2.5,
                    burst: 2.5
                }),
            }
        );
        assert!(TenantSpec::parse("bad name").is_err());
        assert!(TenantSpec::parse("x:nope=1").is_err());
        assert!(
            TenantSpec::parse("x:burst=5").is_err(),
            "burst without rate"
        );
        assert!(TenantSpec::parse("x:cache=zz").is_err());
    }
}
