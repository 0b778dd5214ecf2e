//! Type-specialized dense compute kernels.
//!
//! The generic element-wise and aggregate paths walk one boxed [`Num`]
//! at a time through `BinOp::apply` / per-element folds. This module
//! instead operates directly on the `&[i64]` / `&[f64]` slices inside
//! [`Buffer`], in three layers:
//!
//! * **operand extraction** — a contiguous view borrows its buffer
//!   range directly (the autovectorization-friendly fast path); a
//!   strided/transposed view is gathered once into a dense scratch
//!   vector and then takes the same dense loops.
//! * **dense loops** — monomorphized per element type and broadcast
//!   shape (slice⊗slice, slice⊗scalar, scalar⊗slice), so the inner
//!   loop is a branch-free map the compiler can vectorize. Arrays of
//!   ≥ [`PAR_MIN`] elements split across [`pool::par_chunks_mut`]
//!   segments for the pure (non-erroring) loops.
//! * **checked semantics** — integer overflow is detected per
//!   [`BLOCK`]-sized block rather than per element: the loop
//!   accumulates an overflow flag branch-free and the block boundary
//!   checks it once, so the observable behaviour (same error on the
//!   same inputs) matches the scalar reference path exactly while the
//!   happy path stays vectorizable.
//!
//! # Dispatch rules
//!
//! [`elementwise`] returns `None` (caller falls back to the retained
//! scalar reference path, counted in [`ComputeStats`]) when the result
//! type or error behaviour could not be reproduced slice-wise:
//!
//! * empty arrays — `from_nums(&[])` typing is the reference path's;
//! * `Pow` on two Int operands — per-element `checked_pow` vs `powf`
//!   selection depends on each exponent's value;
//! * `Min`/`Max` on mixed Int/Real operands — the scalar result keeps
//!   the *winning operand's* type per element, so one output buffer
//!   type cannot represent it.
//!
//! Everything else is kernelized, including mixed-type arithmetic
//! (promoted to `f64` exactly like `Num::as_f64`) and comparisons.
//!
//! # Float summation order
//!
//! `f64` Sum/Avg use **pairwise summation** (better error growth than a
//! running sum, and what the parallel chunk-side aggregation needs):
//! the deterministic order is documented on [`pairwise_sum`] and is the
//! *policy* — sequential and parallel aggregation, and every worker
//! count, produce bit-identical results because they all fold each
//! dense lane with this function and combine partials in plan order.
//! Int folds keep exact checked semantics (see [`fold_i64`]).

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::agg::AggregateOp;
use crate::data::{ArrayData, Buffer};
use crate::dtype::{Num, NumericType};
use crate::error::{ArrayError, Result};
use crate::num_array::NumArray;
use crate::ops::BinOp;
use crate::pool;
use crate::view::ArrayView;

/// Block length for block-level integer overflow checking.
pub const BLOCK: usize = 4096;
/// Element count from which pure element-wise loops use the worker pool.
pub const PAR_MIN: usize = 1 << 20;
/// Minimum segment length for pool-parallel element-wise loops.
const PAR_SEG: usize = 1 << 16;

// ---------------------------------------------------------------------------
// ComputeStats
// ---------------------------------------------------------------------------

static KERNEL_INVOCATIONS: AtomicU64 = AtomicU64::new(0);
static ELEMENTS_PROCESSED: AtomicU64 = AtomicU64::new(0);
static SCALAR_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static PARALLEL_FOLDS: AtomicU64 = AtomicU64::new(0);

/// Process-global compute-layer counters, surfaced through
/// `stats_report` / `.stats` / the server `STATS` statement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ComputeStats {
    /// Dense kernel executions (element-wise ops and aggregate folds).
    pub kernel_invocations: u64,
    /// Elements processed by dense kernels.
    pub elements_processed: u64,
    /// Operations served by the scalar reference path instead.
    pub scalar_fallbacks: u64,
    /// Per-chunk partial aggregates folded inside parallel fetch workers.
    pub parallel_folds: u64,
}

/// Snapshot the global counters.
pub fn compute_stats() -> ComputeStats {
    ComputeStats {
        kernel_invocations: KERNEL_INVOCATIONS.load(Ordering::Relaxed),
        elements_processed: ELEMENTS_PROCESSED.load(Ordering::Relaxed),
        scalar_fallbacks: SCALAR_FALLBACKS.load(Ordering::Relaxed),
        parallel_folds: PARALLEL_FOLDS.load(Ordering::Relaxed),
    }
}

/// Reset the global counters to zero.
pub fn reset_compute_stats() {
    KERNEL_INVOCATIONS.store(0, Ordering::Relaxed);
    ELEMENTS_PROCESSED.store(0, Ordering::Relaxed);
    SCALAR_FALLBACKS.store(0, Ordering::Relaxed);
    PARALLEL_FOLDS.store(0, Ordering::Relaxed);
}

fn note_kernel(elements: usize) {
    KERNEL_INVOCATIONS.fetch_add(1, Ordering::Relaxed);
    ELEMENTS_PROCESSED.fetch_add(elements as u64, Ordering::Relaxed);
}

pub(crate) fn note_fallback() {
    SCALAR_FALLBACKS.fetch_add(1, Ordering::Relaxed);
}

/// Record `count` per-chunk partial folds performed inside parallel
/// fetch workers (called by the storage layer's AAPR pipeline).
pub fn note_parallel_folds(count: u64) {
    PARALLEL_FOLDS.fetch_add(count, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Operand extraction
// ---------------------------------------------------------------------------

/// One side of an element-wise operation: a whole array or a broadcast
/// scalar.
#[derive(Clone, Copy)]
pub(crate) enum Elem<'a> {
    Array(&'a NumArray),
    Scalar(Num),
}

fn operand_type(e: Elem<'_>) -> NumericType {
    match e {
        Elem::Array(a) => a.data().numeric_type(),
        Elem::Scalar(Num::Int(_)) => NumericType::Int,
        Elem::Scalar(Num::Real(_)) => NumericType::Real,
    }
}

/// Dense logical-order elements of `view` over `buf`: a borrow for
/// contiguous views, a one-pass strided gather otherwise.
fn typed_cow<'a, T: Copy>(buf: &'a [T], view: &ArrayView) -> Cow<'a, [T]> {
    let n = view.element_count();
    if view.is_contiguous() {
        Cow::Borrowed(&buf[view.offset()..view.offset() + n])
    } else {
        let mut out = Vec::with_capacity(n);
        view.for_each_address(|a| out.push(buf[a]));
        Cow::Owned(out)
    }
}

/// A kernel operand after extraction: dense data or a broadcast value.
enum CowSrc<'a, T: Copy> {
    Slice(Cow<'a, [T]>),
    Scalar(T),
}

impl<'a, T: Copy> CowSrc<'a, T> {
    fn as_src(&self) -> Src<'_, T> {
        match self {
            CowSrc::Slice(c) => Src::Slice(c),
            CowSrc::Scalar(v) => Src::Scalar(*v),
        }
    }
}

/// Borrowed form the dense loops consume.
#[derive(Clone, Copy)]
enum Src<'a, T: Copy> {
    Slice(&'a [T]),
    Scalar(T),
}

impl<'a, T: Copy> Src<'a, T> {
    #[inline(always)]
    fn at(self, i: usize) -> T {
        match self {
            Src::Slice(s) => s[i],
            Src::Scalar(c) => c,
        }
    }
}

/// Extract an Int operand. Only called when both operands are Int.
fn int_cow(e: Elem<'_>) -> CowSrc<'_, i64> {
    match e {
        Elem::Scalar(s) => CowSrc::Scalar(s.as_i64()),
        Elem::Array(a) => match a.data().buffer() {
            Buffer::Int(v) => CowSrc::Slice(typed_cow(v, a.view())),
            Buffer::Real(_) => unreachable!("int path requires Int operands"),
        },
    }
}

/// Extract an operand promoted to `f64` (exactly `Num::as_f64`).
fn real_cow(e: Elem<'_>) -> CowSrc<'_, f64> {
    match e {
        Elem::Scalar(s) => CowSrc::Scalar(s.as_f64()),
        Elem::Array(a) => match a.data().buffer() {
            Buffer::Real(v) => CowSrc::Slice(typed_cow(v, a.view())),
            Buffer::Int(v) => {
                let view = a.view();
                let n = view.element_count();
                let mut out = Vec::with_capacity(n);
                if view.is_contiguous() {
                    out.extend(
                        v[view.offset()..view.offset() + n]
                            .iter()
                            .map(|&x| x as f64),
                    );
                } else {
                    view.for_each_address(|a| out.push(v[a] as f64));
                }
                CowSrc::Slice(Cow::Owned(out))
            }
        },
    }
}

// ---------------------------------------------------------------------------
// Dense loops
// ---------------------------------------------------------------------------

/// Pure (non-erroring) element-wise map, specialized per broadcast
/// shape; large inputs split across the worker pool (the map is pure,
/// so segmentation cannot change the result).
fn map2<T, U, F>(n: usize, a: Src<'_, T>, b: Src<'_, T>, f: F) -> Vec<U>
where
    T: Copy + Sync,
    U: Copy + Default + Send,
    F: Fn(T, T) -> U + Sync,
{
    let workers = pool::compute_workers();
    if n >= PAR_MIN && workers > 1 {
        let mut out = vec![U::default(); n];
        pool::par_chunks_mut(workers, PAR_SEG, &mut out, |off, seg| {
            for (k, slot) in seg.iter_mut().enumerate() {
                let i = off + k;
                *slot = f(a.at(i), b.at(i));
            }
        });
        return out;
    }
    match (a, b) {
        (Src::Slice(x), Src::Slice(y)) => {
            x[..n].iter().zip(&y[..n]).map(|(&p, &q)| f(p, q)).collect()
        }
        (Src::Slice(x), Src::Scalar(c)) => x[..n].iter().map(|&p| f(p, c)).collect(),
        (Src::Scalar(c), Src::Slice(y)) => y[..n].iter().map(|&q| f(c, q)).collect(),
        (Src::Scalar(p), Src::Scalar(q)) => vec![f(p, q); n],
    }
}

/// Checked element-wise map: `f` yields `(value, fault)`; the fault
/// flag is accumulated branch-free and inspected once per [`BLOCK`], so
/// a faulting block reports `err` before any later block runs — the
/// same positionless error the scalar path raises at the first faulting
/// element.
fn map2_checked<T, U>(
    n: usize,
    a: Src<'_, T>,
    b: Src<'_, T>,
    f: impl Fn(T, T) -> (U, bool),
    err: ArrayError,
) -> Result<Vec<U>>
where
    T: Copy,
{
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    while start < n {
        let end = (start + BLOCK).min(n);
        let mut fault = false;
        out.extend((start..end).map(|i| {
            let (v, o) = f(a.at(i), b.at(i));
            fault |= o;
            v
        }));
        if fault {
            return Err(err);
        }
        start = end;
    }
    Ok(out)
}

fn int_kernel(n: usize, a: Src<'_, i64>, b: Src<'_, i64>, op: BinOp) -> Result<ArrayData> {
    Ok(match op {
        BinOp::Add => ArrayData::from_i64(map2_checked(
            n,
            a,
            b,
            |x, y| x.overflowing_add(y),
            ArrayError::ArithmeticOverflow,
        )?),
        BinOp::Sub => ArrayData::from_i64(map2_checked(
            n,
            a,
            b,
            |x, y| x.overflowing_sub(y),
            ArrayError::ArithmeticOverflow,
        )?),
        BinOp::Mul => ArrayData::from_i64(map2_checked(
            n,
            a,
            b,
            |x, y| x.overflowing_mul(y),
            ArrayError::ArithmeticOverflow,
        )?),
        // Int / Int is Real like the scalar path; 0 divisors fault.
        BinOp::Div => ArrayData::from_f64(map2_checked(
            n,
            a,
            b,
            |x, y| (x as f64 / y as f64, y == 0),
            ArrayError::DivisionByZero,
        )?),
        // wrapping_rem matches checked_rem (i64::MIN % -1 == 0); the
        // dummy divisor only feeds lanes already flagged as faults.
        BinOp::Rem => ArrayData::from_i64(map2_checked(
            n,
            a,
            b,
            |x, y| (x.wrapping_rem(if y == 0 { 1 } else { y }), y == 0),
            ArrayError::DivisionByZero,
        )?),
        BinOp::Pow => unreachable!("Int^Int falls back to the scalar path"),
        BinOp::Eq => ArrayData::from_i64(map2(n, a, b, |x, y| (x == y) as i64)),
        BinOp::Ne => ArrayData::from_i64(map2(n, a, b, |x, y| (x != y) as i64)),
        BinOp::Lt => ArrayData::from_i64(map2(n, a, b, |x, y| (x < y) as i64)),
        BinOp::Le => ArrayData::from_i64(map2(n, a, b, |x, y| (x <= y) as i64)),
        BinOp::Gt => ArrayData::from_i64(map2(n, a, b, |x, y| (x > y) as i64)),
        BinOp::Ge => ArrayData::from_i64(map2(n, a, b, |x, y| (x >= y) as i64)),
        // Num::min keeps self unless strictly greater; same for max.
        BinOp::Min => ArrayData::from_i64(map2(n, a, b, |x, y| if x > y { y } else { x })),
        BinOp::Max => ArrayData::from_i64(map2(n, a, b, |x, y| if x < y { y } else { x })),
    })
}

/// Real-path kernel: never errors (division/remainder follow IEEE 754,
/// matching `Num`'s mixed/Real semantics).
fn real_kernel(n: usize, a: Src<'_, f64>, b: Src<'_, f64>, op: BinOp) -> ArrayData {
    match op {
        BinOp::Add => ArrayData::from_f64(map2(n, a, b, |x, y| x + y)),
        BinOp::Sub => ArrayData::from_f64(map2(n, a, b, |x, y| x - y)),
        BinOp::Mul => ArrayData::from_f64(map2(n, a, b, |x, y| x * y)),
        BinOp::Div => ArrayData::from_f64(map2(n, a, b, |x, y| x / y)),
        BinOp::Rem => ArrayData::from_f64(map2(n, a, b, |x, y| x % y)),
        BinOp::Pow => ArrayData::from_f64(map2(n, a, b, |x, y| x.powf(y))),
        BinOp::Eq => ArrayData::from_i64(map2(n, a, b, |x, y| (x == y) as i64)),
        BinOp::Ne => ArrayData::from_i64(map2(n, a, b, |x, y| (x != y) as i64)),
        BinOp::Lt => ArrayData::from_i64(map2(n, a, b, |x, y| (x < y) as i64)),
        BinOp::Le => ArrayData::from_i64(map2(n, a, b, |x, y| (x <= y) as i64)),
        BinOp::Gt => ArrayData::from_i64(map2(n, a, b, |x, y| (x > y) as i64)),
        BinOp::Ge => ArrayData::from_i64(map2(n, a, b, |x, y| (x >= y) as i64)),
        // NaN comparisons are false, so NaN operands keep the left
        // side — exactly Num::min/max's partial_cmp behaviour.
        BinOp::Min => ArrayData::from_f64(map2(n, a, b, |x, y| if x > y { y } else { x })),
        BinOp::Max => ArrayData::from_f64(map2(n, a, b, |x, y| if x < y { y } else { x })),
    }
}

/// Kernel-dispatched element-wise operation. `None` means "not
/// kernelizable, use the scalar reference path" (see module docs for
/// the dispatch rules); `Some(Err)` is a genuine arithmetic fault.
pub(crate) fn elementwise(
    lhs: Elem<'_>,
    rhs: Elem<'_>,
    op: BinOp,
    shape: &[usize],
) -> Option<Result<NumArray>> {
    let n: usize = shape.iter().product();
    if n == 0 {
        return None;
    }
    let (lt, rt) = (operand_type(lhs), operand_type(rhs));
    let data = if lt == NumericType::Int && rt == NumericType::Int {
        if op == BinOp::Pow {
            return None;
        }
        let (ac, bc) = (int_cow(lhs), int_cow(rhs));
        match int_kernel(n, ac.as_src(), bc.as_src(), op) {
            Ok(d) => d,
            Err(e) => return Some(Err(e)),
        }
    } else {
        if matches!(op, BinOp::Min | BinOp::Max) && lt != rt {
            return None;
        }
        let (ac, bc) = (real_cow(lhs), real_cow(rhs));
        real_kernel(n, ac.as_src(), bc.as_src(), op)
    };
    note_kernel(n);
    Some(NumArray::from_data(data, shape))
}

/// Kernel-dispatched element-wise negation (`None` → reference path).
pub(crate) fn negate(a: &NumArray) -> Option<Result<NumArray>> {
    let n = a.element_count();
    if n == 0 {
        return None;
    }
    let shape = a.shape();
    let data = match a.data().buffer() {
        Buffer::Int(_) => {
            let c = int_cow(Elem::Array(a));
            let v = map2_checked(
                n,
                c.as_src(),
                Src::Scalar(0i64),
                |x, _| (x.wrapping_neg(), x == i64::MIN),
                ArrayError::ArithmeticOverflow,
            );
            match v {
                Ok(v) => ArrayData::from_i64(v),
                Err(e) => return Some(Err(e)),
            }
        }
        Buffer::Real(_) => {
            let c = real_cow(Elem::Array(a));
            ArrayData::from_f64(map2(n, c.as_src(), Src::Scalar(0.0f64), |x, _| -x))
        }
    };
    note_kernel(n);
    Some(NumArray::from_data(data, &shape))
}

// ---------------------------------------------------------------------------
// Aggregate folds
// ---------------------------------------------------------------------------

/// Pairwise summation — **the** deterministic `f64` Sum/Avg fold order
/// for the whole system (resident kernels, sequential AAPR partials and
/// parallel AAPR partials all use it):
///
/// * `len <= 32`: a left-to-right running sum **starting from the first
///   element** (so a 1-element slice returns it bitwise, `-0.0`
///   included);
/// * otherwise: split at `len / 2`, sum the halves recursively, combine
///   `left + right`.
///
/// The order depends only on the slice length, never on worker count or
/// scheduling.
pub fn pairwise_sum(xs: &[f64]) -> f64 {
    match xs.len() {
        0 => 0.0,
        len if len <= 32 => {
            let mut acc = xs[0];
            for &x in &xs[1..] {
                acc += x;
            }
            acc
        }
        len => {
            let mid = len / 2;
            pairwise_sum(&xs[..mid]) + pairwise_sum(&xs[mid..])
        }
    }
}

/// Checked `i64` sum with block-level overflow detection: per block,
/// one fused pass records min/max and a wrapping sum; if
/// `|acc| + block_len * max(|min|, |max|)` provably fits in `i64`, no
/// prefix of the block can overflow and the wrapping sum is exact.
/// Otherwise the block re-runs element-by-element with `checked_add`,
/// reproducing the scalar path's error on the exact faulting prefix
/// (e.g. `[i64::MAX, 1, -2]` must fail even though the total fits).
fn sum_i64_checked(xs: &[i64]) -> Result<i64> {
    let mut acc: i64 = 0;
    for block in xs.chunks(BLOCK) {
        let mut mn = i64::MAX;
        let mut mx = i64::MIN;
        let mut wrapped: i64 = 0;
        for &x in block {
            mn = mn.min(x);
            mx = mx.max(x);
            wrapped = wrapped.wrapping_add(x);
        }
        let bound = mn.unsigned_abs().max(mx.unsigned_abs()) as i128;
        let safe = acc.unsigned_abs() as i128 + block.len() as i128 * bound <= i64::MAX as i128;
        if safe {
            acc += wrapped;
        } else {
            for &x in block {
                acc = acc.checked_add(x).ok_or(ArrayError::ArithmeticOverflow)?;
            }
        }
    }
    Ok(acc)
}

fn empty_fold_err() -> ArrayError {
    ArrayError::InvalidSlice("aggregate over empty array".into())
}

/// Dense partial fold over an `i64` slice. `Avg` folds like `Sum` (the
/// caller divides by the element count); `Count` is the slice length.
/// Overflow errors are bit-identical to the sequential checked fold:
/// starting the sum at `0` instead of the first element cannot change
/// any prefix value (`0 + x0 == x0` exactly).
pub fn fold_i64(xs: &[i64], op: AggregateOp) -> Result<Num> {
    if let AggregateOp::Count = op {
        return Ok(Num::Int(xs.len() as i64));
    }
    if xs.is_empty() {
        return Err(empty_fold_err());
    }
    note_kernel(xs.len());
    Ok(match op {
        AggregateOp::Sum | AggregateOp::Avg => Num::Int(sum_i64_checked(xs)?),
        AggregateOp::Prod => {
            let mut acc = xs[0];
            for &x in &xs[1..] {
                acc = acc.checked_mul(x).ok_or(ArrayError::ArithmeticOverflow)?;
            }
            Num::Int(acc)
        }
        AggregateOp::Min => Num::Int(xs.iter().copied().min().expect("non-empty")),
        AggregateOp::Max => Num::Int(xs.iter().copied().max().expect("non-empty")),
        AggregateOp::Count => unreachable!("handled above"),
    })
}

/// Lanes of [`extreme_f64`]: independent running extremes the compiler
/// keeps in vector registers.
const LANES: usize = 8;

/// The `f64` `Min`/`Max` fold, **bit-identical** to the left fold
/// `acc = xs[0]; for x in &xs[1..] { if replaces(acc, x) { acc = x } }`
/// (`replaces` is `acc > x` for `Min`, `acc < x` for `Max`), which
/// replicates `Num`'s NaN-keeps-left behaviour: a NaN first element
/// sticks, later NaNs never replace anything. One compare per element
/// there is a loop-carried chain; here [`LANES`] independent extremes
/// run side by side and are combined at the end. The extreme *value* is
/// the same in any order; only `0.0` and `-0.0` compare equal with
/// different bits, and the left fold keeps whichever came first, so a
/// zero result is settled by the serial loop.
fn extreme_f64(xs: &[f64], replaces: impl Fn(f64, f64) -> bool) -> f64 {
    let serial = |acc: f64, xs: &[f64]| {
        xs.iter()
            .fold(acc, |acc, &x| if replaces(acc, x) { x } else { acc })
    };
    let first = xs[0];
    if first.is_nan() {
        return first;
    }
    let mut lanes = [first; LANES];
    let groups = xs.chunks_exact(LANES);
    let tail = groups.remainder();
    for group in groups {
        for (acc, &x) in lanes.iter_mut().zip(group) {
            *acc = if replaces(*acc, x) { x } else { *acc };
        }
    }
    let best = serial(serial(first, &lanes), tail);
    if best == 0.0 {
        serial(first, xs)
    } else {
        best
    }
}

/// Dense partial fold over an `f64` slice. Sum/Avg use [`pairwise_sum`]
/// (the documented deterministic order); Prod folds left to right from
/// the first element, and Min/Max return what that left fold would
/// ([`extreme_f64`]).
pub fn fold_f64(xs: &[f64], op: AggregateOp) -> Result<Num> {
    if let AggregateOp::Count = op {
        return Ok(Num::Int(xs.len() as i64));
    }
    if xs.is_empty() {
        return Err(empty_fold_err());
    }
    note_kernel(xs.len());
    Ok(match op {
        AggregateOp::Sum | AggregateOp::Avg => Num::Real(pairwise_sum(xs)),
        AggregateOp::Prod => {
            let mut acc = xs[0];
            for &x in &xs[1..] {
                acc *= x;
            }
            Num::Real(acc)
        }
        AggregateOp::Min => Num::Real(extreme_f64(xs, |acc, x| acc > x)),
        AggregateOp::Max => Num::Real(extreme_f64(xs, |acc, x| acc < x)),
        AggregateOp::Count => unreachable!("handled above"),
    })
}

/// Fold every element of `view` over `data` with the typed kernels
/// (gathering strided views densely first). `Avg` returns the raw sum.
pub(crate) fn aggregate_view(data: &ArrayData, view: &ArrayView, op: AggregateOp) -> Result<Num> {
    match data.buffer() {
        Buffer::Int(v) => fold_i64(&typed_cow(v, view), op),
        Buffer::Real(v) => fold_f64(&typed_cow(v, view), op),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pairwise_sum_matches_documented_order() {
        // 70 elements: split 35/35, each <= 32? No — 35 splits 17/18.
        // Reproduce the recursion by hand and compare bitwise.
        let xs: Vec<f64> = (0..70)
            .map(|i| (i as f64) * 0.1 + 1e10 / (i + 1) as f64)
            .collect();
        fn reference(xs: &[f64]) -> f64 {
            if xs.len() <= 32 {
                let mut acc = xs[0];
                for &x in &xs[1..] {
                    acc += x;
                }
                acc
            } else {
                let mid = xs.len() / 2;
                reference(&xs[..mid]) + reference(&xs[mid..])
            }
        }
        assert_eq!(pairwise_sum(&xs).to_bits(), reference(&xs).to_bits());
    }

    #[test]
    fn pairwise_sum_preserves_negative_zero() {
        assert_eq!(pairwise_sum(&[-0.0]).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn block_sum_catches_prefix_overflow() {
        // Total fits in i64 but the prefix overflows: must error like
        // the sequential checked fold.
        assert!(matches!(
            fold_i64(&[i64::MAX, 1, -2], AggregateOp::Sum),
            Err(ArrayError::ArithmeticOverflow)
        ));
        // Same magnitude without the overflowing prefix is fine.
        assert_eq!(
            fold_i64(&[i64::MAX - 1, 1, -2], AggregateOp::Sum).unwrap(),
            Num::Int(i64::MAX - 2)
        );
    }

    #[test]
    fn block_sum_exact_across_blocks() {
        let xs: Vec<i64> = (0..(BLOCK as i64 * 3 + 17)).map(|i| i * 7 - 5).collect();
        let expect: i64 = xs.iter().sum();
        assert_eq!(fold_i64(&xs, AggregateOp::Sum).unwrap(), Num::Int(expect));
    }

    #[test]
    fn fold_f64_min_keeps_left_on_nan() {
        let nan_first = fold_f64(&[f64::NAN, 1.0], AggregateOp::Min).unwrap();
        assert!(nan_first.as_f64().is_nan());
        let nan_later = fold_f64(&[1.0, f64::NAN], AggregateOp::Min).unwrap();
        assert_eq!(nan_later, Num::Real(1.0));
    }

    /// The left fold [`extreme_f64`] replaced, kept as its reference.
    fn left_fold(xs: &[f64], op: AggregateOp) -> f64 {
        let mut acc = xs[0];
        for &x in &xs[1..] {
            let replace = match op {
                AggregateOp::Min => acc > x,
                _ => acc < x,
            };
            if replace {
                acc = x;
            }
        }
        acc
    }

    /// Values that make a min/max fold order-sensitive, and small ones
    /// that repeat.
    fn tricky() -> impl Strategy<Value = f64> {
        prop_oneof![
            Just(f64::NAN),
            Just(0.0),
            Just(-0.0),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            (-3i64..4).prop_map(|v| v as f64),
            -1e3..1e3f64,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn min_max_lanes_equal_the_left_fold_bitwise(
            xs in prop::collection::vec(tricky(), 1..=300),
        ) {
            for op in [AggregateOp::Min, AggregateOp::Max] {
                let got = fold_f64(&xs, op).unwrap().as_f64();
                prop_assert_eq!(got.to_bits(), left_fold(&xs, op).to_bits(), "{:?}", op);
            }
        }
    }

    #[test]
    fn min_max_zero_ties_keep_the_leftmost() {
        // A zero in every lane and in the tail, the first one deciding.
        for first in [0.0f64, -0.0] {
            let mut xs = vec![first];
            xs.extend((0..40).map(|i| if i % 2 == 0 { -0.0 } else { 0.0 }));
            for op in [AggregateOp::Min, AggregateOp::Max] {
                let got = fold_f64(&xs, op).unwrap().as_f64();
                assert_eq!(got.to_bits(), first.to_bits(), "{op:?}");
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        // Counters are process-global and other tests run concurrently,
        // so assert growth rather than exact values.
        let before = compute_stats();
        fold_i64(&[1, 2, 3], AggregateOp::Sum).unwrap();
        let after = compute_stats();
        assert!(after.kernel_invocations > before.kernel_invocations);
        assert!(after.elements_processed >= before.elements_processed + 3);
    }
}
