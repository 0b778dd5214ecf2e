//! Optimizer v2: planner configuration, the statistics-fed selectivity
//! model, and the runtime feedback loop.
//!
//! The thesis engine delegates join ordering to Amos II's cost-based
//! conjunctive-predicate optimizer (§5.4). This module is our
//! reproduction's equivalent control plane:
//!
//! * [`PlannerConfig`] / [`PlannerMode`] select the join-enumeration
//!   strategy — `textual` (no reordering), `greedy` (one-shot minimum
//!   cardinality, the pre-v2 behaviour) or `dp` (bottom-up dynamic
//!   programming over connected subsets, the default) — overridable per
//!   process with `SSDM_PLANNER` and per dataset via the public field.
//! * [`filter_selectivity`] replaces the historical hard-coded
//!   `Filter × 0.5` with an expression-aware estimate: equality and
//!   range predicates consult the graph's per-predicate object
//!   histograms ([`ssdm_rdf::NumericHistogram`]), `array_contains` /
//!   `array_*_range` predicates consult the array store's zone maps
//!   through [`ZoneStatsProvider`], and only expressions the model
//!   cannot see fall back to the documented constants in [`consts`].
//! * [`Calibration`] closes the loop: after every profiled query the
//!   dataset folds observed-vs-estimated scan cardinalities into
//!   per-predicate correction factors (EWMA in log space), and refreshes
//!   a per-backend cost-per-statement figure from the process-wide
//!   `ssdm_chunk_fetch_seconds` latency histogram. The planner multiplies
//!   scan estimates by the learned factor, so misestimates shrink with
//!   each observation instead of repeating forever. A plan, once chosen,
//!   runs as written: the loop corrects the next query, not this one.

use std::collections::{HashMap, HashSet};
use std::ops::Bound;

use ssdm_array::Num;
use ssdm_rdf::{GraphView, Term, TermId};
use ssdm_storage::{ArrayStore, ValuePredicate};

use crate::ast::{CmpOp, Expr};
use crate::dataset::DynChunkStore;

/// Every fallback constant the cost model uses when statistics cannot
/// answer, in one place (historically these were magic numbers strewn
/// through `algebra::estimate`). Each constant is a *default of last
/// resort*: the planner prefers histogram, sketch, zone-map or
/// calibration evidence whenever it exists.
pub mod consts {
    /// Selectivity of a filter expression the model cannot analyze
    /// (the pre-v2 blanket `Filter × 0.5`).
    pub const DEFAULT_FILTER_SELECTIVITY: f64 = 0.5;
    /// Equality comparison against a constant, when no histogram
    /// covers the operand.
    pub const EQ_SELECTIVITY: f64 = 0.1;
    /// One-sided range comparison (`<`, `>`, ...), when no histogram
    /// covers the operand.
    pub const RANGE_SELECTIVITY: f64 = 0.3;
    /// `regex` / `contains` / `strstarts` / `strends` string matching.
    pub const REGEX_SELECTIVITY: f64 = 0.25;
    /// `EXISTS { ... }` (and its negation) — correlated subpatterns
    /// have no static statistics.
    pub const EXISTS_SELECTIVITY: f64 = 0.5;
    /// Floor for any derived selectivity: keeps a product of many
    /// filters from collapsing to zero and freezing the join order.
    pub const MIN_SELECTIVITY: f64 = 1e-3;
    /// Fan-out multiplier for `GRAPH` patterns, whose target graph's
    /// statistics the planner does not consult (pre-v2 `Graph × 2.0`).
    pub const GRAPH_FANOUT: f64 = 2.0;
    /// Fan-out multiplier per start node for property paths.
    pub const PATH_FANOUT: f64 = 2.0;
    /// Floor for a join child's cardinality contribution (pre-v2
    /// `max(0.1)`): an operator is never free, however selective.
    pub const MIN_JOIN_CHILD_CARD: f64 = 0.1;
    /// Floor for a single scan estimate.
    pub const MIN_SCAN_CARD: f64 = 0.01;
    /// Fallback divisor per join variable bound by earlier operators
    /// when the pattern's predicate is unknown (variable or absent): a
    /// bound variable restricts like a constant of unknown value. With
    /// a known predicate the estimator divides by that position's
    /// distinct-value count instead.
    pub const BOUND_VAR_ATTENUATION: f64 = 3.0;
    /// DP join enumeration handles joins up to this many children;
    /// larger conjunctions fall back to greedy (2^n state table).
    pub const DP_MAX_PATTERNS: usize = 10;
    /// EWMA weight of the newest observation in a calibration factor.
    pub const CALIBRATION_ALPHA: f64 = 0.5;
    /// Clamp on a calibration factor's log-magnitude (`ln 64`): one
    /// pathological observation cannot swing estimates by more than 64×.
    pub const LN_FACTOR_CLAMP: f64 = 4.158883083359672;
    /// Half-row floor used in Q-error and calibration ratios so empty
    /// results stay finite.
    pub const CARD_FLOOR: f64 = 0.5;
}

/// Join-enumeration strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlannerMode {
    /// Keep children in written order (filters still push down).
    Textual,
    /// One-shot greedy minimum-cardinality ordering (pre-v2 default).
    Greedy,
    /// Bottom-up dynamic programming over connected subsets, greedy
    /// fallback above [`consts::DP_MAX_PATTERNS`] children.
    Dp,
}

impl PlannerMode {
    /// Parse a mode name as accepted by `SSDM_PLANNER` / `--planner`.
    pub fn parse(s: &str) -> Option<PlannerMode> {
        match s.to_ascii_lowercase().as_str() {
            "textual" | "none" => Some(PlannerMode::Textual),
            "greedy" => Some(PlannerMode::Greedy),
            "dp" | "dynamic" => Some(PlannerMode::Dp),
            _ => None,
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            PlannerMode::Textual => "textual",
            PlannerMode::Greedy => "greedy",
            PlannerMode::Dp => "dp",
        }
    }
}

/// Per-dataset planner configuration (env-seeded, field-overridable).
#[derive(Debug, Clone, Copy)]
pub struct PlannerConfig {
    pub mode: PlannerMode,
    /// Whether learned per-predicate correction factors feed estimates.
    pub calibration: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            mode: PlannerMode::Dp,
            calibration: true,
        }
    }
}

impl PlannerConfig {
    /// The default configuration with environment overrides applied:
    /// `SSDM_PLANNER=textual|greedy|dp`, `SSDM_CALIBRATION=on|off`.
    pub fn from_env() -> Self {
        let mut cfg = PlannerConfig::default();
        if let Ok(v) = std::env::var("SSDM_PLANNER") {
            if let Some(m) = PlannerMode::parse(&v) {
                cfg.mode = m;
            }
        }
        if let Ok(v) = std::env::var("SSDM_CALIBRATION") {
            cfg.calibration = !matches!(v.to_ascii_lowercase().as_str(), "0" | "off" | "false");
        }
        cfg
    }
}

/// One learned per-predicate correction: an EWMA over `ln(actual/est)`
/// plus the number of observations behind it.
#[derive(Debug, Clone, Copy)]
struct PredFactor {
    ln_factor: f64,
    samples: u64,
}

/// The runtime feedback table: per-predicate cardinality correction
/// factors learned from profiled queries.
#[derive(Debug, Default, Clone)]
pub struct Calibration {
    factors: HashMap<String, PredFactor>,
}

impl Calibration {
    /// Fold one observed-vs-estimated scan cardinality into the
    /// predicate's correction factor. Ratios are floored at half a row
    /// and clamped in log space so one wild sample cannot dominate.
    pub fn observe(&mut self, predicate: &str, estimated: f64, actual: f64) {
        if !estimated.is_finite() {
            return;
        }
        let ratio = actual.max(consts::CARD_FLOOR) / estimated.max(consts::CARD_FLOOR);
        let ln = ratio
            .ln()
            .clamp(-consts::LN_FACTOR_CLAMP, consts::LN_FACTOR_CLAMP);
        match self.factors.get_mut(predicate) {
            Some(f) => {
                f.ln_factor = (1.0 - consts::CALIBRATION_ALPHA) * f.ln_factor
                    + consts::CALIBRATION_ALPHA * ln;
                f.samples += 1;
            }
            None => {
                self.factors.insert(
                    predicate.to_string(),
                    PredFactor {
                        ln_factor: ln,
                        samples: 1,
                    },
                );
            }
        }
    }

    /// The multiplicative correction for a predicate's scan estimates
    /// (1.0 when nothing has been learned).
    pub fn factor(&self, predicate: &str) -> f64 {
        self.factors
            .get(predicate)
            .map(|f| f.ln_factor.exp())
            .unwrap_or(1.0)
    }

    /// Observations recorded for a predicate.
    pub fn samples(&self, predicate: &str) -> u64 {
        self.factors.get(predicate).map(|f| f.samples).unwrap_or(0)
    }

    /// Number of predicates with learned corrections.
    pub fn len(&self) -> usize {
        self.factors.len()
    }

    pub fn is_empty(&self) -> bool {
        self.factors.is_empty()
    }

    /// `(predicate, factor, samples)` rows, unordered (for reports).
    pub fn entries(&self) -> impl Iterator<Item = (&str, f64, u64)> {
        self.factors
            .iter()
            .map(|(k, f)| (k.as_str(), f.ln_factor.exp(), f.samples))
    }

    /// Raw `(predicate, ln_factor, samples)` rows for persistence —
    /// the log-space EWMA itself, so a save/load round trip is exact.
    pub fn export(&self) -> impl Iterator<Item = (&str, f64, u64)> {
        self.factors
            .iter()
            .map(|(k, f)| (k.as_str(), f.ln_factor, f.samples))
    }

    /// Restore one persisted entry (the counterpart of
    /// [`Calibration::export`]). Non-finite factors are dropped and
    /// out-of-range ones clamped, so a hand-edited or corrupt file
    /// cannot plant an unbounded correction.
    pub fn restore(&mut self, predicate: &str, ln_factor: f64, samples: u64) {
        if !ln_factor.is_finite() || samples == 0 {
            return;
        }
        self.factors.insert(
            predicate.to_string(),
            PredFactor {
                ln_factor: ln_factor.clamp(-consts::LN_FACTOR_CLAMP, consts::LN_FACTOR_CLAMP),
                samples,
            },
        );
    }
}

/// Aggregate zone-map answer for one value predicate: how many chunks
/// exist across the store's zone maps and how many could match.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZoneSelectivity {
    pub chunks_total: u64,
    pub chunks_matching: u64,
}

impl ZoneSelectivity {
    /// Matching fraction; 1.0 (no pruning evidence) when no chunk is
    /// summarized.
    pub fn fraction(&self) -> f64 {
        if self.chunks_total == 0 {
            1.0
        } else {
            self.chunks_matching as f64 / self.chunks_total as f64
        }
    }
}

/// Planner-facing view of the array store's zone maps: the expected
/// fraction of chunks an `array_contains` / `array_*_range` predicate
/// must actually decode (the rest are `chunks_skipped`).
pub trait ZoneStatsProvider {
    fn zone_selectivity(&self, pred: &ValuePredicate) -> ZoneSelectivity;
}

impl ZoneStatsProvider for ArrayStore<DynChunkStore> {
    fn zone_selectivity(&self, pred: &ValuePredicate) -> ZoneSelectivity {
        let mut z = ZoneSelectivity::default();
        for zm in self.zone_maps() {
            for s in &zm.summaries {
                z.chunks_total += 1;
                if s.may_match(zm.ty, pred) {
                    z.chunks_matching += 1;
                }
            }
        }
        z
    }
}

/// Everything the cost model may consult while planning one query.
/// Statistics sources are optional: a bare `PlannerCtx::new(graph)`
/// plans from graph statistics alone (the library path), while `eval`
/// builds the full context from the dataset.
pub struct PlannerCtx<'a> {
    pub graph: GraphView<'a>,
    pub config: PlannerConfig,
    pub calibration: Option<&'a Calibration>,
    pub zones: Option<&'a dyn ZoneStatsProvider>,
}

impl<'a> PlannerCtx<'a> {
    /// Graph-only context with environment-derived configuration.
    pub fn new(graph: impl Into<GraphView<'a>>) -> Self {
        PlannerCtx {
            graph: graph.into(),
            config: PlannerConfig::from_env(),
            calibration: None,
            zones: None,
        }
    }

    /// Graph-only context with the built-in default configuration (no
    /// environment reads — for hot estimate wrappers).
    pub fn plain(graph: impl Into<GraphView<'a>>) -> Self {
        PlannerCtx {
            graph: graph.into(),
            config: PlannerConfig::default(),
            calibration: None,
            zones: None,
        }
    }

    /// The learned correction factor for a predicate term (1.0 when
    /// calibration is absent or disabled).
    pub fn factor_for(&self, predicate: &Term) -> f64 {
        if !self.config.calibration {
            return 1.0;
        }
        match self.calibration {
            Some(c) if !c.is_empty() => c.factor(&predicate.to_string()),
            _ => 1.0,
        }
    }
}

/// What the sargable conjuncts of a filter say, together, about one
/// variable: `?v > 30 && 31 >= ?v` is the window `(30, 31]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    pub lo: Bound<f64>,
    pub hi: Bound<f64>,
}

impl Window {
    const ALL: Window = Window {
        lo: Bound::Unbounded,
        hi: Bound::Unbounded,
    };

    /// The lower end as the inclusive bound the graph's range scan and
    /// range estimate take (they answer a superset; strictness is the
    /// residual filter's business).
    pub fn lo_value(&self) -> Option<f64> {
        bound_value(self.lo)
    }

    pub fn hi_value(&self) -> Option<f64> {
        bound_value(self.hi)
    }

    /// Whether `x`, a number as f64, lies strictly inside both ends. A
    /// number that does satisfies every comparison the window came
    /// from: `Num::partial_cmp` compares Int with Int exactly and all
    /// else as f64, and i64 → f64 rounding is monotone, so for each
    /// constant `c` of a lower end `f64(x) > lo >= f64(c)` gives
    /// `x > c` — beyond 2⁵³ too — and likewise below an upper end.
    /// NaN is inside nothing; a value on an end is for the comparison.
    pub fn contains_strictly(&self, x: f64) -> bool {
        self.lo_value().is_none_or(|lo| x > lo) && self.hi_value().is_none_or(|hi| x < hi)
    }

    /// Intersect with `?v op c`, `op` one of `< <= > >=`.
    fn tighten(&mut self, op: CmpOp, c: f64) {
        let lower = matches!(op, CmpOp::Gt | CmpOp::Ge);
        let strict = matches!(op, CmpOp::Gt | CmpOp::Lt);
        let end = if lower { &mut self.lo } else { &mut self.hi };
        // The new bound wins when it cuts deeper, or at the same value
        // strictly.
        let wins = match bound_value(*end) {
            None => true,
            Some(old) if c == old => strict,
            Some(old) => (c > old) == lower,
        };
        if wins {
            *end = if strict {
                Bound::Excluded(c)
            } else {
                Bound::Included(c)
            };
        }
    }

    /// The window as the conjunction it came from, for `EXPLAIN`.
    pub fn describe(&self, var: &str) -> String {
        let side = |bound, strict, inclusive| match bound {
            Bound::Excluded(c) => Some(format!("?{var} {strict} {c}")),
            Bound::Included(c) => Some(format!("?{var} {inclusive} {c}")),
            Bound::Unbounded => None,
        };
        let sides = [side(self.lo, ">", ">="), side(self.hi, "<", "<=")];
        sides.into_iter().flatten().collect::<Vec<_>>().join(" && ")
    }
}

fn bound_value(b: Bound<f64>) -> Option<f64> {
    match b {
        Bound::Included(c) | Bound::Excluded(c) => Some(c),
        Bound::Unbounded => None,
    }
}

/// `?v op c`, for a comparison between a variable and a numeric
/// constant written either way round.
fn var_cmp_const<'e>(op: CmpOp, lhs: &'e Expr, rhs: &'e Expr) -> Option<(&'e str, CmpOp, f64)> {
    match (lhs, rhs) {
        (Expr::Var(v), e) => Some((v.as_str(), op, const_num(e)?)),
        (e, Expr::Var(v)) => Some((v.as_str(), flip(op), const_num(e)?)),
        _ => None,
    }
}

/// The window a filter says exactly and nothing more — one window on
/// one variable, no other conjunct — with that variable.
pub(crate) fn exact_window(expr: &Expr) -> Option<(&str, Window)> {
    match sargable([expr]) {
        (windows, rest) if windows.len() == 1 && rest.is_empty() => windows.first().copied(),
        _ => None,
    }
}

/// The recognizer of sargable filter conjuncts — the one place that
/// decides what a range predicate on a variable is. Splits the
/// top-level conjunction of `filters` into one [`Window`] per variable
/// compared with a numeric constant by `< <= > >=`, and the conjuncts
/// that are anything else. The join planner attaches a window to the
/// scan that binds its variable and the selectivity model costs it as
/// one range, so the two cannot disagree about what was recognized.
pub(crate) fn sargable<'e>(
    filters: impl IntoIterator<Item = &'e Expr>,
) -> (Vec<(&'e str, Window)>, Vec<&'e Expr>) {
    let mut windows: Vec<(&str, Window)> = Vec::new();
    let mut rest = Vec::new();
    let mut todo: Vec<&Expr> = filters.into_iter().collect();
    todo.reverse();
    while let Some(e) = todo.pop() {
        let ranged = match e {
            Expr::And(a, b) => {
                todo.extend([&**b, &**a]);
                continue;
            }
            Expr::Cmp(op, a, b) if !matches!(op, CmpOp::Eq | CmpOp::Ne) => {
                // A NaN constant compares with nothing: not a window.
                var_cmp_const(*op, a, b).filter(|(_, _, c)| !c.is_nan())
            }
            _ => None,
        };
        let Some((var, op, c)) = ranged else {
            rest.push(e);
            continue;
        };
        let at = windows.iter().position(|(v, _)| *v == var);
        let at = at.unwrap_or_else(|| {
            windows.push((var, Window::ALL));
            windows.len() - 1
        });
        windows[at].1.tighten(op, c);
    }
    (windows, rest)
}

/// What the join under a filter says about the variables it reads.
#[derive(Debug, Clone, Copy)]
pub struct FilterVars<'a> {
    /// Object-position variables of constant-predicate scans, by that
    /// predicate's id: comparisons on them consult its value histogram.
    pub preds: &'a HashMap<String, TermId>,
    /// Variables whose window the scan binding them already enforces
    /// (and was costed with): the filter removes nothing more there.
    pub enforced: &'a HashSet<String>,
}

/// Expression-aware filter selectivity: the fraction of input rows a
/// `FILTER expr` is expected to keep.
pub fn filter_selectivity(expr: &Expr, ctx: &PlannerCtx, vars: FilterVars) -> f64 {
    selectivity(expr, ctx, vars).clamp(consts::MIN_SELECTIVITY, 1.0)
}

fn selectivity(expr: &Expr, ctx: &PlannerCtx, vars: FilterVars) -> f64 {
    match expr {
        Expr::Not(e) => 1.0 - selectivity(e, ctx, vars),
        // A conjunction is its windows, each one range estimate, times
        // its other conjuncts.
        Expr::And(..) | Expr::Cmp(..) => {
            let (windows, rest) = sargable([expr]);
            let ranges = windows
                .iter()
                .map(|(v, w)| range_selectivity(v, w, ctx, vars));
            let others = rest.iter().map(|e| match e {
                Expr::Cmp(op, a, b) => cmp_selectivity(*op, a, b, ctx, vars),
                other => selectivity(other, ctx, vars),
            });
            ranges.chain(others).product()
        }
        Expr::Or(a, b) => {
            let (sa, sb) = (selectivity(a, ctx, vars), selectivity(b, ctx, vars));
            (sa + sb - sa * sb).min(1.0)
        }
        Expr::InList {
            needle,
            haystack,
            negated,
        } => {
            let eq = if let Expr::Var(v) = &**needle {
                haystack
                    .iter()
                    .map(|h| match const_num(h) {
                        Some(n) => eq_selectivity(v, n, ctx, vars),
                        None => consts::EQ_SELECTIVITY,
                    })
                    .sum::<f64>()
            } else {
                consts::EQ_SELECTIVITY * haystack.len() as f64
            };
            let sel = eq.min(1.0);
            if *negated {
                1.0 - sel
            } else {
                sel
            }
        }
        Expr::Exists { .. } => consts::EXISTS_SELECTIVITY,
        Expr::Call { name, args } => call_selectivity(name, args, ctx),
        _ => consts::DEFAULT_FILTER_SELECTIVITY,
    }
}

/// A comparison that is not part of a window: equality, or a range
/// comparison [`sargable`] did not recognize.
fn cmp_selectivity(op: CmpOp, lhs: &Expr, rhs: &Expr, ctx: &PlannerCtx, vars: FilterVars) -> f64 {
    // Comparisons over zone-mapped array predicates: cost by the
    // fraction of chunks the filtered scan cannot skip.
    if let Some(frac) = zone_call_fraction(lhs, ctx).or_else(|| zone_call_fraction(rhs, ctx)) {
        return frac;
    }
    if !matches!(op, CmpOp::Eq | CmpOp::Ne) {
        return consts::RANGE_SELECTIVITY;
    }
    let eq = match var_cmp_const(op, lhs, rhs) {
        Some((v, _, n)) => eq_selectivity(v, n, ctx, vars),
        None => consts::EQ_SELECTIVITY,
    };
    if op == CmpOp::Eq {
        eq
    } else {
        1.0 - eq
    }
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        other => other,
    }
}

/// A numeric constant, negated as the evaluator negates it: `-c` of
/// `i64::MIN` is an error there, so it is no constant here.
fn const_num(e: &Expr) -> Option<f64> {
    fn num(e: &Expr) -> Option<Num> {
        match e {
            Expr::Const(Term::Number(n)) => Some(*n),
            Expr::Neg(inner) => num(inner)?.checked_neg().ok(),
            _ => None,
        }
    }
    num(e).map(Num::as_f64)
}

/// Histogram-backed equality selectivity, falling back to
/// [`consts::EQ_SELECTIVITY`].
fn eq_selectivity(var: &str, num: f64, ctx: &PlannerCtx, vars: FilterVars) -> f64 {
    if let Some(&p) = vars.preds.get(var) {
        if let Some(matches) = ctx.graph.estimate_object_eq(p, num) {
            let total = ctx.graph.estimate_pattern(None, Some(p), None).max(1.0);
            return matches / total;
        }
    }
    consts::EQ_SELECTIVITY
}

/// Histogram-backed selectivity of a window — one range estimate for
/// both of its ends — falling back to [`consts::RANGE_SELECTIVITY`]
/// per end.
fn range_selectivity(var: &str, window: &Window, ctx: &PlannerCtx, vars: FilterVars) -> f64 {
    if vars.enforced.contains(var) {
        return 1.0;
    }
    let (lo, hi) = (window.lo_value(), window.hi_value());
    if let Some(&p) = vars.preds.get(var) {
        if let Some(matches) = ctx.graph.estimate_object_range(p, lo, hi) {
            let total = ctx.graph.estimate_pattern(None, Some(p), None).max(1.0);
            return matches / total;
        }
    }
    consts::RANGE_SELECTIVITY.powi(lo.is_some() as i32 + hi.is_some() as i32)
}

fn call_selectivity(name: &str, args: &[Expr], ctx: &PlannerCtx) -> f64 {
    match name {
        "regex" | "contains" | "strstarts" | "strends" => consts::REGEX_SELECTIVITY,
        "array_contains" | "acontains" => {
            zone_fraction_for(name, args, ctx).unwrap_or(consts::DEFAULT_FILTER_SELECTIVITY)
        }
        _ => consts::DEFAULT_FILTER_SELECTIVITY,
    }
}

/// Zone-map matching fraction for an `array_contains` /
/// `array_*_range` call with constant bounds, when a zone provider is
/// attached and any chunk is summarized.
fn zone_call_fraction(e: &Expr, ctx: &PlannerCtx) -> Option<f64> {
    let Expr::Call { name, args } = e else {
        return None;
    };
    zone_fraction_for(name, args, ctx)
}

fn zone_fraction_for(name: &str, args: &[Expr], ctx: &PlannerCtx) -> Option<f64> {
    let zones = ctx.zones?;
    let pred = match name {
        "array_contains" | "acontains" => {
            let needles: Vec<ssdm_array::Num> = args
                .get(1..)?
                .iter()
                .map(|a| const_num(a).map(ssdm_array::Num::Real))
                .collect::<Option<_>>()?;
            if needles.is_empty() {
                return None;
            }
            ValuePredicate::In(needles)
        }
        "array_sum_range" | "array_avg_range" | "array_min_range" | "array_max_range"
        | "array_count_range" => {
            let lo = const_num(args.get(1)?)?;
            let hi = const_num(args.get(2)?)?;
            ValuePredicate::Range {
                lo: ssdm_array::Num::Real(lo),
                hi: ssdm_array::Num::Real(hi),
            }
        }
        _ => return None,
    };
    let z = zones.zone_selectivity(&pred);
    if z.chunks_total == 0 {
        return None;
    }
    // Never report zero: zone maps prove chunk-level absence, not that
    // the filter is statically false.
    Some(z.fraction().max(consts::MIN_SELECTIVITY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_rdf::{Graph, Term};

    #[test]
    fn mode_parsing_accepts_aliases() {
        assert_eq!(PlannerMode::parse("dp"), Some(PlannerMode::Dp));
        assert_eq!(PlannerMode::parse("DYNAMIC"), Some(PlannerMode::Dp));
        assert_eq!(PlannerMode::parse("greedy"), Some(PlannerMode::Greedy));
        assert_eq!(PlannerMode::parse("textual"), Some(PlannerMode::Textual));
        assert_eq!(PlannerMode::parse("none"), Some(PlannerMode::Textual));
        assert_eq!(PlannerMode::parse("bogus"), None);
    }

    #[test]
    fn calibration_learns_and_clamps() {
        let mut c = Calibration::default();
        assert_eq!(c.factor("p"), 1.0);
        c.observe("p", 10.0, 200.0); // 20x under-estimate
        assert!(c.factor("p") > 10.0 && c.factor("p") < 30.0);
        // A wild sample is clamped to 64x in log space.
        c.observe("q", 1.0, 1e9);
        assert!(c.factor("q") <= 64.01);
        // EWMA pulls back toward accurate observations.
        for _ in 0..8 {
            c.observe("p", 100.0, 100.0);
        }
        assert!(c.factor("p") < 1.5, "factor {}", c.factor("p"));
        assert_eq!(c.samples("p"), 9);
        assert_eq!(c.len(), 2);
    }

    fn cmp(op: CmpOp, var: &str, c: i64) -> Expr {
        Expr::Cmp(
            op,
            Box::new(Expr::Var(var.into())),
            Box::new(Expr::Const(Term::integer(c))),
        )
    }

    fn and(a: Expr, b: Expr) -> Expr {
        Expr::And(Box::new(a), Box::new(b))
    }

    /// Selectivity of `e` with `?x` the object of predicate `pid`.
    fn selectivity_on(g: &Graph, pid: TermId, e: &Expr) -> f64 {
        let preds = HashMap::from([("x".to_string(), pid)]);
        let vars = FilterVars {
            preds: &preds,
            enforced: &HashSet::new(),
        };
        filter_selectivity(e, &PlannerCtx::plain(g), vars)
    }

    /// Selectivity of `e` when nothing is known about its variables.
    fn blind_selectivity(g: &Graph, e: &Expr) -> f64 {
        let vars = FilterVars {
            preds: &HashMap::new(),
            enforced: &HashSet::new(),
        };
        filter_selectivity(e, &PlannerCtx::plain(g), vars)
    }

    #[test]
    fn filter_selectivity_uses_histograms() {
        let mut g = Graph::new();
        let p = Term::uri("http://ex/value");
        // 90 small values, 10 large ones.
        for i in 0..100i64 {
            let v = if i < 90 { i % 9 } else { 1000 + i };
            g.insert(
                Term::uri(format!("http://ex/s{i}")),
                p.clone(),
                Term::integer(v),
            );
        }
        let pid = g.dictionary().lookup(&p).unwrap();
        let gt = cmp(CmpOp::Gt, "x", 500);
        let sel = selectivity_on(&g, pid, &gt);
        assert!(
            sel < 0.25,
            "high-range filter should be selective, got {sel}"
        );
        // Same comparison with no predicate mapping → documented fallback.
        assert_eq!(blind_selectivity(&g, &gt), consts::RANGE_SELECTIVITY);
    }

    #[test]
    fn a_window_is_one_range_estimate() {
        // The `planner_matrix` score distribution: 90 % in 0..9, the
        // rest spread over 1009..1159.
        let mut g = Graph::new();
        let p = Term::uri("http://ex/score");
        for i in 0..160i64 {
            let score = if i % 10 == 9 { 1000 + i } else { i % 10 };
            g.insert(
                Term::uri(format!("http://ex/s{i}")),
                p.clone(),
                Term::integer(score),
            );
        }
        let pid = g.dictionary().lookup(&p).unwrap();
        let window = and(cmp(CmpOp::Gt, "x", 1000), cmp(CmpOp::Lt, "x", 1050));
        let truth = 5.0 / 160.0; // 1009, 1019, 1029, 1039, 1049
        let sel = selectivity_on(&g, pid, &window);
        assert!(
            (truth / 2.0..=truth * 2.0).contains(&sel),
            "window estimated at {sel}, truth {truth}"
        );
        // The product of its two one-sided estimates is not.
        let product = selectivity_on(&g, pid, &cmp(CmpOp::Gt, "x", 1000))
            * selectivity_on(&g, pid, &cmp(CmpOp::Lt, "x", 1050));
        assert!(product > truth * 2.0, "product {product}");
        // A window the scan already enforced filters nothing more.
        let preds = HashMap::from([("x".to_string(), pid)]);
        let enforced = HashSet::from(["x".to_string()]);
        let vars = FilterVars {
            preds: &preds,
            enforced: &enforced,
        };
        assert_eq!(
            filter_selectivity(&window, &PlannerCtx::plain(&g), vars),
            1.0
        );
    }

    #[test]
    fn sargable_recognizes_windows_and_nothing_else() {
        let flipped = Expr::Cmp(
            CmpOp::Ge,
            Box::new(Expr::Neg(Box::new(Expr::Const(Term::integer(3))))),
            Box::new(Expr::Var("y".into())),
        );
        let disguised = Expr::Cmp(
            CmpOp::Gt,
            Box::new(Expr::Arith(
                crate::ast::ArithOp::Add,
                Box::new(Expr::Var("x".into())),
                Box::new(Expr::Const(Term::integer(0))),
            )),
            Box::new(Expr::Const(Term::integer(1))),
        );
        let nan = Expr::Cmp(
            CmpOp::Lt,
            Box::new(Expr::Var("x".into())),
            Box::new(Expr::Const(Term::double(f64::NAN))),
        );
        // The evaluator cannot negate i64::MIN: an error, not a bound.
        let unnegatable = Expr::Cmp(
            CmpOp::Lt,
            Box::new(Expr::Var("w".into())),
            Box::new(Expr::Neg(Box::new(Expr::Const(Term::integer(i64::MIN))))),
        );
        let filters = [
            and(
                cmp(CmpOp::Gt, "x", 30),
                and(flipped, cmp(CmpOp::Eq, "x", 7)),
            ),
            and(cmp(CmpOp::Le, "x", 40), cmp(CmpOp::Ge, "x", 30)),
            cmp(CmpOp::Lt, "x", 45),
            disguised,
            nan,
            unnegatable,
            Expr::Or(
                Box::new(cmp(CmpOp::Lt, "z", 1)),
                Box::new(cmp(CmpOp::Gt, "z", 2)),
            ),
        ];
        let (windows, rest) = sargable(&filters);
        let x = Window {
            lo: Bound::Excluded(30.0),
            hi: Bound::Included(40.0),
        };
        let y = Window {
            lo: Bound::Unbounded,
            hi: Bound::Included(-3.0),
        };
        assert_eq!(windows, [("x", x), ("y", y)]);
        assert_eq!(x.describe("x"), "?x > 30 && ?x <= 40");
        assert_eq!(y.describe("y"), "?y <= -3");
        // Equality, the disguised comparison, the NaN bound, the
        // unnegatable one and the disjunction stay with the filter alone.
        assert_eq!(rest.len(), 5);
    }

    #[test]
    fn boolean_combinations_compose() {
        let g = Graph::new();
        let t = |e: &Expr| blind_selectivity(&g, e);
        let eq = cmp(CmpOp::Eq, "x", 1);
        let and = Expr::And(Box::new(eq.clone()), Box::new(eq.clone()));
        let or = Expr::Or(Box::new(eq.clone()), Box::new(eq.clone()));
        let not = Expr::Not(Box::new(eq.clone()));
        assert!(t(&and) < t(&eq));
        assert!(t(&or) > t(&eq));
        assert!((t(&not) - (1.0 - t(&eq))).abs() < 1e-9);
    }
}
