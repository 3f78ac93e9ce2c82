//! Constraint graphs (§VII-A): conjunctions of difference constraints
//! `x ≤ y + c` over interned variables, stored as a dense difference-bound
//! matrix keyed by [`VarId`] with instrumented, *lazy* transitive closure.
//!
//! Writes record dirty edges; [`ConstraintGraph::close`] is a no-op when
//! nothing changed and otherwise drains the dirty set with per-edge O(n²)
//! incremental propagation, falling back to the full O(n³) Floyd–Warshall
//! pass only when enough of the matrix was touched to make that cheaper.

use std::borrow::Cow;
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use std::time::Instant;

use crate::linexpr::LinExpr;
use crate::stats;
use crate::var::{PsetId, VarId};

/// "No constraint". Kept well below `i64::MAX` so bound additions cannot
/// overflow; any sum reaching `INF` is clamped back to `INF`.
const INF: i64 = i64::MAX / 4;

/// The widening threshold ladder used by [`ConstraintGraph::widen`] when
/// the client supplies none (see
/// [`ConstraintGraph::widen_with_thresholds`]).
pub const DEFAULT_WIDEN_THRESHOLDS: [i64; 7] = [-2, -1, 0, 1, 2, 4, 8];

fn add(a: i64, b: i64) -> i64 {
    if a >= INF || b >= INF {
        INF
    } else {
        (a + b).min(INF)
    }
}

/// A packed `VarId` is already well-mixed enough for an identity-style
/// hash: one multiply by a 64-bit golden-ratio constant replaces SipHash
/// on the hot index lookups.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u32(&mut self, v: u32) {
        self.0 = u64::from(v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type IdMap = HashMap<VarId, usize, BuildHasherDefault<IdHasher>>;

/// All bottoms fingerprint to this sentinel: once a negative cycle is
/// found, recorded bounds are meaningless and every bottom is the same
/// lattice element.
const BOTTOM_FP: u64 = 0x0B07_70B0_0B07_70B0;

/// SplitMix64 finalizer — the mixing behind the structural fingerprint.
/// Public because every fingerprint in the workspace (DBM structure,
/// constant environments, analysis-request content hashes) draws from
/// this one mixing function.
#[must_use]
pub const fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

use splitmix64 as mix64;

/// The mix of one bound value inside [`edge_mix`].
const fn bound_mix(c: i64) -> u64 {
    mix64(c as u64 ^ 0x9E37_79B9_7F4A_7C15)
}

/// Offset of [`SMALL_BOUND_MIXES`]: it covers `c` in `-128..128`.
const SMALL_BOUND: i64 = 128;

/// [`bound_mix`] precomputed for the small bounds that make up nearly
/// every matrix entry, so a fingerprint pass pays one mix per entry.
const SMALL_BOUND_MIXES: [u64; 2 * SMALL_BOUND as usize] = {
    let mut table = [0; 2 * SMALL_BOUND as usize];
    let mut k = 0;
    while k < table.len() {
        table[k] = bound_mix(k as i64 - SMALL_BOUND);
        k += 1;
    }
    table
};

/// The fingerprint contribution of the bound `x ≤ y + c`.
fn edge_mix(x: VarId, y: VarId, c: i64) -> u64 {
    let pair = (u64::from(x.raw()) << 32) | u64::from(y.raw());
    let c_mix = match usize::try_from(c + SMALL_BOUND) {
        Ok(k) if k < SMALL_BOUND_MIXES.len() => SMALL_BOUND_MIXES[k],
        _ => bound_mix(c),
    };
    mix64(pair.wrapping_add(c_mix))
}

/// The fingerprint contribution of tracking variable `x` at all.
fn var_mix(x: VarId) -> u64 {
    mix64(u64::from(x.raw()) ^ 0xD6E8_FEB8_6659_FD93)
}

/// The crate's shared fingerprint mixer — [`crate::ConstEnv`] reuses it
/// so all structural fingerprints draw from one mixing function.
pub(crate) fn mix_for_fingerprint(z: u64) -> u64 {
    mix64(z)
}

thread_local! {
    /// Reusable keep-list for projections: `remove_var` and
    /// `drop_namespace` recycle this instead of building a fresh
    /// `Vec<usize>` on every call.
    static KEEP_SCRATCH: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// A conjunction of difference constraints `x ≤ y + c`.
///
/// The distinguished variable [`VarId::ZERO`] is always present, so unary
/// bounds are expressed as differences against it (`x ≤ 5` is
/// `x ≤ Zero + 5`). An inconsistent conjunction (negative cycle) is the
/// explicit bottom element, reported by [`ConstraintGraph::is_bottom`].
///
/// Every variable-taking method accepts `impl Into<VarId>`, so call sites
/// may pass a packed [`VarId`] or a rich [`crate::NsVar`] (by value or
/// reference) interchangeably.
///
/// # Example
///
/// ```
/// use mpl_domains::{ConstraintGraph, NsVar, PsetId};
///
/// let mut g = ConstraintGraph::new();
/// let i = NsVar::pset(PsetId(0), "i");
/// g.assert_eq_const(&i, 1);                 // i = 1
/// g.assert_le(&i, &NsVar::Np, -1);          // i <= np - 1
/// assert_eq!(g.const_of(&i), Some(1));
/// assert!(g.implies_le(&NsVar::Zero, &NsVar::Np, -2)); // 0 <= np - 2
/// ```
#[derive(Clone)]
pub struct ConstraintGraph {
    vars: Vec<VarId>,
    index: IdMap,
    /// Row-major bound matrix with stride `cap ≥ n`; `m[i*cap + j] = c`
    /// means `vars[i] ≤ vars[j] + c`. The stride is sized to the live
    /// variable count and grows by about 1.5× through
    /// [`ConstraintGraph::reserve_vars`].
    ///
    /// Shared copy-on-write: cloning a graph bumps a refcount, and the
    /// first mutation through [`ConstraintGraph::m_mut`] materializes a
    /// private copy. Read-only queries on an already-closed graph never
    /// copy, even through `&mut self` accessors.
    m: Arc<Vec<i64>>,
    cap: usize,
    closed: bool,
    infeasible: bool,
    /// Edges written since the matrix was last closed (only tracked while
    /// `closed`; an unclosed matrix is fully re-closed anyway).
    dirty: Vec<(u32, u32)>,
}

impl Default for ConstraintGraph {
    fn default() -> Self {
        Self::new()
    }
}

impl ConstraintGraph {
    /// An unconstrained, feasible graph containing only [`VarId::ZERO`].
    #[must_use]
    pub fn new() -> ConstraintGraph {
        ConstraintGraph::build(vec![VarId::ZERO], |_, _| {})
    }

    /// Builds a closed-flagged graph over `vars` (distinct) in one pass:
    /// `fill(i, row)` writes row `i` — `row[j]` is the recorded `c` of
    /// `vars[i] ≤ vars[j] + c`, `INF` (the initial value) for none; the
    /// diagonal is zeroed afterwards. The stride is `max(n, 8)`, and the
    /// matrix and index are written once — no per-variable growth and no
    /// per-entry copy-on-write checks.
    fn build(vars: Vec<VarId>, mut fill: impl FnMut(usize, &mut [i64])) -> ConstraintGraph {
        let n = vars.len();
        let cap = n.max(8);
        let mut m = vec![INF; cap * cap];
        for (i, row) in m.chunks_exact_mut(cap).take(n).enumerate() {
            fill(i, &mut row[..n]);
            row[i] = 0;
        }
        let index = vars.iter().enumerate().map(|(k, &v)| (v, k)).collect();
        ConstraintGraph {
            vars,
            index,
            m: Arc::new(m),
            cap,
            closed: true,
            infeasible: false,
            dirty: Vec::new(),
        }
    }

    /// The canonical bottom element.
    #[must_use]
    pub fn bottom() -> ConstraintGraph {
        let mut g = ConstraintGraph::new();
        g.infeasible = true;
        g
    }

    /// True if the constraints are known unsatisfiable. Detection of a
    /// contradiction introduced by a deferred edge happens at the next
    /// [`ConstraintGraph::close`] (the engine always closes before
    /// checking); the common direct cycle is caught eagerly at
    /// [`ConstraintGraph::assert_le`] time.
    #[must_use]
    pub fn is_bottom(&self) -> bool {
        self.infeasible
    }

    /// Number of tracked variables (including `Zero`).
    #[must_use]
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// All tracked variables.
    #[must_use]
    pub fn variables(&self) -> &[VarId] {
        &self.vars
    }

    /// True if `v` is tracked.
    #[must_use]
    pub fn has_var(&self, v: impl Into<VarId>) -> bool {
        self.index.contains_key(&v.into())
    }

    fn n(&self) -> usize {
        self.vars.len()
    }

    fn at(&self, i: usize, j: usize) -> i64 {
        self.m[i * self.cap + j]
    }

    /// Row `i` of the live matrix.
    fn row(&self, i: usize) -> &[i64] {
        &self.m[i * self.cap..i * self.cap + self.n()]
    }

    /// Mutable access to the bound matrix, materializing a private copy
    /// when the allocation is shared (copy-on-write).
    fn m_mut(&mut self) -> &mut Vec<i64> {
        if Arc::strong_count(&self.m) != 1 {
            stats::record_matrix_copy();
        }
        Arc::make_mut(&mut self.m)
    }

    /// Writes one entry. Kept out of line: the closure loops read far
    /// more entries than they write, and the copy-on-write path inlined
    /// into them slows every read.
    #[inline(never)]
    fn set(&mut self, i: usize, j: usize, c: i64) {
        let idx = i * self.cap + j;
        if self.m[idx] != c {
            self.m_mut()[idx] = c;
        }
    }

    /// True if every recorded bound is already propagated — no closure
    /// work pending.
    fn is_effectively_closed(&self) -> bool {
        self.infeasible || (self.closed && self.dirty.is_empty())
    }

    /// Order-canonical 64-bit structural fingerprint, computed on demand
    /// in one O(n²) pass over the matrix.
    ///
    /// Equal fingerprints stand for structural equality (same tracked
    /// variables, same finite recorded bounds, or both bottom): the value
    /// is an XOR of per-variable and per-bound mixes, so it is
    /// independent of insertion order and matrix layout. Different
    /// fingerprints say nothing — the caller falls back to a full walk.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        if self.infeasible {
            return BOTTOM_FP;
        }
        let mut fp = 0;
        for (i, &x) in self.vars.iter().enumerate() {
            fp ^= var_mix(x);
            for (j, (&y, &c)) in self.vars.iter().zip(self.row(i)).enumerate() {
                if i != j && c < INF {
                    fp ^= edge_mix(x, y, c);
                }
            }
        }
        fp
    }

    /// True if the two graphs record identical constraints: the same
    /// variable set and the same finite bounds (positions may differ).
    /// Any two bottoms compare equal. This is the structural equality
    /// that fingerprint equality stands for.
    #[must_use]
    pub fn same_shape(&self, other: &ConstraintGraph) -> bool {
        if self.infeasible || other.infeasible {
            return self.infeasible && other.infeasible;
        }
        if self.vars.len() != other.vars.len() {
            return false;
        }
        let mut map = Vec::with_capacity(self.vars.len());
        for v in &self.vars {
            match other.index.get(v) {
                Some(&oi) => map.push(oi),
                None => return false,
            }
        }
        for i in 0..self.n() {
            for j in 0..self.n() {
                if i == j {
                    continue;
                }
                let a = self.at(i, j);
                let b = other.at(map[i], map[j]);
                if a < INF {
                    if a != b {
                        return false;
                    }
                } else if b < INF {
                    return false;
                }
            }
        }
        true
    }

    /// Heap footprint of the bound matrix together with an identity for
    /// its (possibly shared) allocation, so a store of CoW states can
    /// estimate bytes without double-counting shared matrices.
    #[must_use]
    pub fn matrix_id_and_bytes(&self) -> (usize, usize) {
        (
            Arc::as_ptr(&self.m) as usize,
            self.m.len() * std::mem::size_of::<i64>(),
        )
    }

    /// Heap bytes owned uniquely by this graph value (variable list and
    /// index), excluding the possibly-shared matrix.
    #[must_use]
    pub fn side_bytes(&self) -> usize {
        self.vars.capacity() * std::mem::size_of::<VarId>()
            + self.index.capacity() * std::mem::size_of::<(VarId, usize, u64)>()
            + self.dirty.capacity() * std::mem::size_of::<(u32, u32)>()
    }

    /// Grows the matrix stride to hold at least `need` variables — to
    /// about 1.5× the current stride, so repeated additions amortize, but
    /// never past the power of two at or above `need`.
    fn reserve_vars(&mut self, need: usize) {
        if need <= self.cap {
            return;
        }
        let n = self.n();
        let new_cap = need
            .max(self.cap + self.cap / 2)
            .min(need.next_power_of_two())
            .max(8);
        let mut m = vec![INF; new_cap * new_cap];
        for (dst, src) in m
            .chunks_exact_mut(new_cap)
            .zip(self.m.chunks_exact(self.cap))
            .take(n)
        {
            dst[..n].copy_from_slice(&src[..n]);
        }
        self.m = Arc::new(m);
        self.cap = new_cap;
    }

    /// Adds `v` (unconstrained) if missing; returns its index.
    pub fn ensure_var(&mut self, v: impl Into<VarId>) -> usize {
        let v = v.into();
        if let Some(&i) = self.index.get(&v) {
            return i;
        }
        let n = self.n();
        if n == self.cap {
            self.reserve_vars(n + 1);
        } else {
            // Clear the stale row/column left behind by compaction.
            let cap = self.cap;
            let m = self.m_mut();
            for k in 0..n {
                m[n * cap + k] = INF;
                m[k * cap + n] = INF;
            }
        }
        self.set(n, n, 0);
        self.vars.push(v);
        self.index.insert(v, n);
        // An unconstrained variable cannot invalidate closure.
        n
    }

    /// Runs the full O(n³) Floyd–Warshall closure (instrumented).
    fn full_close(&mut self) {
        if self.infeasible {
            return;
        }
        let start = Instant::now();
        let n = self.n();
        for k in 0..n {
            for i in 0..n {
                let ik = self.at(i, k);
                if ik >= INF {
                    continue;
                }
                for j in 0..n {
                    let through = add(ik, self.at(k, j));
                    if through < self.at(i, j) {
                        self.set(i, j, through);
                    }
                }
            }
        }
        for i in 0..n {
            if self.at(i, i) < 0 {
                self.infeasible = true;
                break;
            }
        }
        self.closed = true;
        stats::record_full(n, start.elapsed().as_nanos() as u64);
    }

    /// Propagates the single edge `vars[i] ≤ vars[j] + m[i][j]` through an
    /// otherwise closed matrix: the O(n²) incremental step (instrumented).
    fn propagate_edge(&mut self, i: usize, j: usize) {
        let start = Instant::now();
        let n = self.n();
        let c = self.at(i, j);
        // Paths p -> i -> j -> q through the new edge.
        for p in 0..n {
            let pi = self.at(p, i);
            if pi >= INF {
                continue;
            }
            let via = add(pi, c);
            for q in 0..n {
                let cand = add(via, self.at(j, q));
                if cand < self.at(p, q) {
                    self.set(p, q, cand);
                }
            }
        }
        for p in 0..n {
            if self.at(p, p) < 0 {
                self.infeasible = true;
                break;
            }
        }
        stats::record_incremental(n, start.elapsed().as_nanos() as u64);
    }

    /// Restores closure. A no-op when nothing changed since the last
    /// closure; otherwise drains the dirty edges one incremental O(n²)
    /// step each, or falls back to one full O(n³) pass when the dirty set
    /// is large enough (or the matrix was never closed).
    ///
    /// Draining sequentially is complete: each propagation runs against a
    /// matrix already closed with respect to all previously drained
    /// edges, so every shortest path using several new edges is built up
    /// edge by edge.
    pub fn close(&mut self) {
        if self.infeasible {
            return;
        }
        if !self.closed {
            self.dirty.clear();
            self.full_close();
            return;
        }
        if self.dirty.is_empty() {
            return;
        }
        if self.dirty.len() * 2 >= self.n() {
            self.dirty.clear();
            self.closed = false;
            self.full_close();
            return;
        }
        let dirty = std::mem::take(&mut self.dirty);
        for (i, j) in dirty {
            if self.infeasible {
                break;
            }
            self.propagate_edge(i as usize, j as usize);
        }
    }

    fn ensure_closed(&mut self) {
        self.close();
    }

    /// Asserts `x ≤ y + c`.
    ///
    /// Missing variables are added. The edge is recorded and closure is
    /// deferred to the next query or explicit [`ConstraintGraph::close`];
    /// only a direct contradiction (`y ≤ x + c'` with `c + c' < 0`) is
    /// detected immediately.
    pub fn assert_le(&mut self, x: impl Into<VarId>, y: impl Into<VarId>, c: i64) {
        if self.infeasible {
            return;
        }
        let i = self.ensure_var(x.into());
        let j = self.ensure_var(y.into());
        if i == j {
            if c < 0 {
                self.infeasible = true;
            }
            return;
        }
        if c >= self.at(i, j) {
            return; // No new information.
        }
        self.set(i, j, c);
        if !self.closed {
            return; // A full closure is pending anyway.
        }
        if stats::force_full_closure() {
            // Ablation mode: behave like the paper's unoptimized
            // prototype and re-run the full O(n³) closure immediately.
            self.dirty.clear();
            self.closed = false;
            self.full_close();
            return;
        }
        if add(c, self.at(j, i)) < 0 {
            self.infeasible = true;
            return;
        }
        self.dirty.push((i as u32, j as u32));
    }

    /// Asserts `x = y + c`.
    pub fn assert_eq_offset(&mut self, x: impl Into<VarId>, y: impl Into<VarId>, c: i64) {
        let (x, y) = (x.into(), y.into());
        self.assert_le(x, y, c);
        self.assert_le(y, x, -c);
    }

    /// Asserts `x = c`.
    pub fn assert_eq_const(&mut self, x: impl Into<VarId>, c: i64) {
        self.assert_eq_offset(x.into(), VarId::ZERO, c);
    }

    /// Asserts `x = e` for a linear expression.
    pub fn assert_eq_expr(&mut self, x: impl Into<VarId>, e: &LinExpr) {
        match e.var {
            Some(v) => self.assert_eq_offset(x.into(), v, e.offset),
            None => self.assert_eq_const(x.into(), e.offset),
        }
    }

    /// Asserts `x ≤ e`.
    pub fn assert_le_expr(&mut self, x: impl Into<VarId>, e: &LinExpr) {
        self.assert_le(x.into(), e.var.unwrap_or(VarId::ZERO), e.offset);
    }

    /// Asserts `e ≤ x`.
    pub fn assert_ge_expr(&mut self, x: impl Into<VarId>, e: &LinExpr) {
        self.assert_le(e.var.unwrap_or(VarId::ZERO), x.into(), -e.offset);
    }

    /// The tightest known `c` with `x ≤ y + c`, or `None` if unconstrained
    /// (or either variable is untracked).
    #[must_use = "returns the bound without modifying the graph"]
    pub fn le_bound(&mut self, x: impl Into<VarId>, y: impl Into<VarId>) -> Option<i64> {
        let (x, y) = (x.into(), y.into());
        self.ensure_closed();
        self.bound_between(self.index.get(&x).copied(), self.index.get(&y).copied())
    }

    /// [`ConstraintGraph::le_bound`] on resolved matrix indices (`None`
    /// for an untracked variable) of an already-closed graph.
    fn bound_between(&self, i: Option<usize>, j: Option<usize>) -> Option<i64> {
        if self.infeasible {
            return Some(i64::MIN / 4); // Bottom entails everything.
        }
        let c = self.at(i?, j?);
        (c < INF).then_some(c)
    }

    /// Each expression with the matrix index of its base variable (`Zero`
    /// for a constant), resolved once.
    fn slots<'e>(
        &self,
        es: impl IntoIterator<Item = &'e LinExpr>,
    ) -> Vec<(&'e LinExpr, Option<usize>)> {
        es.into_iter()
            .map(|e| (e, self.index.get(&e.var.unwrap_or(VarId::ZERO)).copied()))
            .collect()
    }

    /// True if the constraints imply `x ≤ y + c`.
    pub fn implies_le(&mut self, x: impl Into<VarId>, y: impl Into<VarId>, c: i64) -> bool {
        match self.le_bound(x.into(), y.into()) {
            Some(b) => b <= c,
            None => false,
        }
    }

    /// `Some(c)` if the constraints imply `x = y + c`. Returns `None` on
    /// bottom (an unreachable state pins nothing down usefully).
    pub fn eq_offset(&mut self, x: impl Into<VarId>, y: impl Into<VarId>) -> Option<i64> {
        let (x, y) = (x.into(), y.into());
        self.ensure_closed();
        if self.infeasible {
            return None;
        }
        let upper = self.le_bound(x, y)?;
        let lower = self.le_bound(y, x)?;
        (upper == -lower).then_some(upper)
    }

    /// The constant value of `x` if the constraints pin it down.
    pub fn const_of(&mut self, x: impl Into<VarId>) -> Option<i64> {
        self.eq_offset(x.into(), VarId::ZERO)
    }

    /// Every expression `y + c` (with `y ≠ x`) that provably equals `x`,
    /// including `Zero + c` for constants. This powers the paper's
    /// multi-expression process-set bounds (Fig 5's `[1,i..1,i]`). A
    /// single scan of `x`'s row/column of the closed matrix — no clones,
    /// no per-pair lookups.
    pub fn equalities_of(&mut self, x: impl Into<VarId>) -> Vec<LinExpr> {
        let x = x.into();
        if self.infeasible || !self.has_var(x) {
            return Vec::new();
        }
        self.ensure_closed();
        if self.infeasible {
            return Vec::new();
        }
        let i = self.index[&x];
        let mut out = Vec::new();
        for j in 0..self.n() {
            if j == i {
                continue;
            }
            let up = self.at(i, j);
            let down = self.at(j, i);
            if up < INF && down < INF && up == -down {
                let y = self.vars[j];
                if y == VarId::ZERO {
                    out.push(LinExpr::constant(up));
                } else {
                    out.push(LinExpr::var_plus(y, up));
                }
            }
        }
        out.sort();
        out
    }

    /// Evaluates a linear expression to a constant if possible.
    pub fn eval_expr(&mut self, e: &LinExpr) -> Option<i64> {
        match e.var {
            None => Some(e.offset),
            Some(v) => self.const_of(v).map(|c| c + e.offset),
        }
    }

    /// Compares two linear expressions: `Some(Ordering)` when the graph
    /// proves a relation, `None` when incomparable. Equal means provably
    /// equal.
    pub fn compare_exprs(&mut self, a: &LinExpr, b: &LinExpr) -> Option<Ordering> {
        self.first_comparison([a], [b])
    }

    /// The first relation the graph proves between an `a` and a `b`
    /// expression, scanning the pairs a-major; `None` when no pair is
    /// comparable. Each pair answers as [`ConstraintGraph::compare_exprs`]
    /// would, but every base variable's matrix index is resolved once,
    /// not four times per pair.
    pub fn first_comparison<'e>(
        &mut self,
        a: impl IntoIterator<Item = &'e LinExpr>,
        b: impl IntoIterator<Item = &'e LinExpr>,
    ) -> Option<Ordering> {
        let (a, b) = (self.slots(a), self.slots(b));
        if a.is_empty() || b.is_empty() {
            return None;
        }
        self.ensure_closed();
        for &(ea, ia) in &a {
            for &(eb, ib) in &b {
                let delta = ea.offset - eb.offset;
                // a - b ≤ hi where av ≤ bv + u gives hi = u + delta;
                // a - b ≥ lo where bv ≤ av + l gives lo = delta - l.
                let hi = self.bound_between(ia, ib).map(|u| u + delta);
                let lo = self.bound_between(ib, ia).map(|l| delta - l);
                let ord = match (hi, lo) {
                    (Some(0), Some(0)) => Some(Ordering::Equal),
                    (Some(hi), _) if hi < 0 => Some(Ordering::Less),
                    (_, Some(lo)) if lo > 0 => Some(Ordering::Greater),
                    _ => None,
                };
                if ord.is_some() {
                    return ord;
                }
            }
        }
        None
    }

    /// True if the graph proves `a ≤ b` (for linear expressions).
    pub fn proves_le(&mut self, a: &LinExpr, b: &LinExpr) -> bool {
        let av = a.var.unwrap_or(VarId::ZERO);
        let bv = b.var.unwrap_or(VarId::ZERO);
        match self.le_bound(av, bv) {
            Some(u) => u + a.offset - b.offset <= 0,
            None => false,
        }
    }

    /// True if the graph proves `a ≤ b` for some pair of an `a` and a `b`
    /// expression. A pair whose two sides are both pinned to constants is
    /// decided by value, which on the closed feasible graph is exactly
    /// what [`ConstraintGraph::proves_le`] answers; any other pair reads
    /// the matrix. Base variables are resolved once, not per pair. On a
    /// bottom graph nothing is pinned and every matrix probe succeeds.
    pub fn any_proves_le<'e>(
        &mut self,
        a: impl IntoIterator<Item = &'e LinExpr>,
        b: impl IntoIterator<Item = &'e LinExpr>,
    ) -> bool {
        let (a, b) = (self.slots(a), self.slots(b));
        if a.iter().chain(&b).any(|(e, _)| e.var.is_some()) {
            self.ensure_closed();
        }
        let zero = self.index.get(&VarId::ZERO).copied();
        let pinned = |&(e, i): &(&LinExpr, Option<usize>)| -> Option<i64> {
            if e.var.is_none() {
                return Some(e.offset);
            }
            let upper = self.bound_between(i, zero)?;
            let lower = self.bound_between(zero, i)?;
            (!self.infeasible && upper == -lower).then(|| upper + e.offset)
        };
        let avals: Vec<Option<i64>> = a.iter().map(pinned).collect();
        let bvals: Vec<Option<i64>> = b.iter().map(pinned).collect();
        for (&(ea, ia), &va) in a.iter().zip(&avals) {
            for (&(eb, ib), &vb) in b.iter().zip(&bvals) {
                let le = match (va, vb) {
                    (Some(x), Some(y)) => x <= y,
                    _ => self
                        .bound_between(ia, ib)
                        .is_some_and(|u| u + ea.offset - eb.offset <= 0),
                };
                if le {
                    return true;
                }
            }
        }
        false
    }

    /// True if the graph proves `a = b`.
    pub fn proves_eq(&mut self, a: &LinExpr, b: &LinExpr) -> bool {
        self.proves_le(a, b) && self.proves_le(b, a)
    }

    /// Removes all constraints mentioning `x` (keeping consequences
    /// routed through it), leaving `x` tracked but unconstrained.
    pub fn havoc(&mut self, x: impl Into<VarId>) {
        let x = x.into();
        if self.infeasible {
            return;
        }
        self.ensure_closed();
        let Some(&i) = self.index.get(&x) else {
            self.ensure_var(x);
            return;
        };
        let n = self.n();
        for k in 0..n {
            self.set(i, k, INF);
            self.set(k, i, INF);
        }
        self.set(i, i, 0);
    }

    /// Assigns `x := e`. Handles the self-referential case `x := x + c`
    /// by translating `x`'s constraints.
    pub fn assign(&mut self, x: impl Into<VarId>, e: &LinExpr) {
        let x = x.into();
        if self.infeasible {
            return;
        }
        if e.var == Some(x) {
            // x := x + c — shift every bound involving x.
            let c = e.offset;
            self.ensure_closed();
            let i = self.ensure_var(x);
            let n = self.n();
            for k in 0..n {
                if k == i {
                    continue;
                }
                let xk = self.at(i, k);
                if xk < INF {
                    self.set(i, k, add(xk, c));
                }
                let kx = self.at(k, i);
                if kx < INF {
                    self.set(k, i, add(kx, -c));
                }
            }
            return;
        }
        self.havoc(x);
        self.assert_eq_expr(x, e);
    }

    /// Assigns `x` a completely unknown value.
    pub fn assign_unknown(&mut self, x: impl Into<VarId>) {
        self.havoc(x.into());
    }

    /// Compacts the matrix in place onto the (ascending) kept indices.
    /// Reads always sit at or beyond the write cursor, so no scratch
    /// matrix is needed; the capacity is retained for reuse.
    fn compact_keep(&mut self, keep: &[usize]) {
        let cap = self.cap;
        let m = self.m_mut();
        for (a, &oa) in keep.iter().enumerate() {
            for (b, &ob) in keep.iter().enumerate() {
                m[a * cap + b] = m[oa * cap + ob];
            }
        }
        self.vars = keep.iter().map(|&k| self.vars[k]).collect();
        self.index.clear();
        for (k, &v) in self.vars.iter().enumerate() {
            self.index.insert(v, k);
        }
    }

    /// Removes `x` entirely (projecting the constraints onto the rest).
    pub fn remove_var(&mut self, x: impl Into<VarId>) {
        let x = x.into();
        if !self.has_var(x) {
            return;
        }
        self.ensure_closed();
        let i = self.index[&x];
        KEEP_SCRATCH.with(|s| {
            let mut keep = s.borrow_mut();
            keep.clear();
            keep.extend((0..self.n()).filter(|&k| k != i));
            self.compact_keep(&keep);
        });
    }

    /// Removes every variable owned by process set `p` in one projection
    /// pass.
    pub fn drop_namespace(&mut self, p: PsetId) {
        if !self.vars.iter().any(|v| v.namespace() == Some(p)) {
            return;
        }
        self.ensure_closed();
        KEEP_SCRATCH.with(|s| {
            let mut keep = s.borrow_mut();
            keep.clear();
            keep.extend((0..self.n()).filter(|&k| self.vars[k].namespace() != Some(p)));
            self.compact_keep(&keep);
        });
    }

    /// Renames every variable of namespace `from` into namespace `to`.
    ///
    /// # Panics
    ///
    /// Panics if `to` already owns a variable with a clashing name.
    pub fn rename_namespace(&mut self, from: PsetId, to: PsetId) {
        self.renumber_namespaces(&[(from, to)]);
    }

    /// Renames namespaces simultaneously — every variable of each `from`
    /// moves to the paired `to` (see [`VarId::renumbered`]) — in one pass:
    /// the bounds stay where they are and only the variable list and the
    /// index are rewritten.
    ///
    /// # Panics
    ///
    /// Panics if two variables end up with the same id.
    pub fn renumber_namespaces(&mut self, map: &[(PsetId, PsetId)]) {
        if map.iter().all(|(from, to)| from == to) {
            return;
        }
        self.index.clear();
        for (k, v) in self.vars.iter_mut().enumerate() {
            *v = v.renumbered(map);
            assert!(
                self.index.insert(*v, k).is_none(),
                "rename collision on {v}"
            );
        }
    }

    /// Duplicates every variable of namespace `src` into namespace `dst`
    /// (which must be empty), copying all internal and external
    /// constraints — the state-copy used when a process set splits.
    pub fn clone_namespace(&mut self, src: PsetId, dst: PsetId) {
        assert!(
            !self.vars.iter().any(|v| v.namespace() == Some(dst)),
            "destination namespace {dst} not empty"
        );
        if self.infeasible {
            return;
        }
        self.ensure_closed();
        let src_idx: Vec<usize> = (0..self.n())
            .filter(|&i| self.vars[i].namespace() == Some(src))
            .collect();
        // Add the copies, growing the matrix at most once.
        self.reserve_vars(self.n() + src_idx.len());
        let mut pairs: Vec<(usize, usize)> = Vec::new(); // (src index, dst index)
        for &si in &src_idx {
            let copy = self.vars[si].renamed(src, dst);
            let di = self.ensure_var(copy);
            pairs.push((si, di));
        }
        // Copy constraints. Internal (dst-dst) pairs mirror the src-src
        // bounds; dst-to-external pairs mirror src-to-external bounds.
        // Crucially, no constraint is added between a copy and its
        // original: after a process-set split the two subsets' variables
        // need not agree pointwise, so equating them would be unsound.
        let n = self.n();
        let mut src_of: Vec<Option<usize>> = vec![None; n];
        for &(si, di) in &pairs {
            src_of[di] = Some(si);
        }
        let is_src: Vec<bool> = (0..n)
            .map(|k| self.vars[k].namespace() == Some(src))
            .collect();
        for &(si, di) in &pairs {
            for k in 0..n {
                if k == di {
                    continue;
                }
                let mirror = match src_of[k] {
                    Some(sk) => sk,                // k is a fellow copy
                    None if is_src[k] => continue, // never relate copy to original
                    None => k,                     // external variable
                };
                let down = self.at(si, mirror);
                if down < self.at(di, k) {
                    self.set(di, k, down);
                }
                let up = self.at(mirror, si);
                if up < self.at(k, di) {
                    self.set(k, di, up);
                }
            }
        }
        // Complete the copy-to-original bounds implied through shared
        // externals (e.g. both pinned to the same constant via Zero):
        // m[si][di] = min over external k of m[si][k] + m[k][di], and
        // symmetrically. This O(n_src · n) pass keeps the matrix closed
        // enough for sound queries without a full O(n³) re-closure per
        // process-set split; any residual un-closure only loses
        // precision, never soundness (INF reads as "no constraint").
        if self.closed {
            for &(si, di) in &pairs {
                let mut down = INF;
                let mut up = INF;
                for k in 0..n {
                    if k == si || k == di {
                        continue;
                    }
                    down = down.min(add(self.at(si, k), self.at(k, di)));
                    up = up.min(add(self.at(di, k), self.at(k, si)));
                }
                if down < self.at(si, di) {
                    self.set(si, di, down);
                }
                if up < self.at(di, si) {
                    self.set(di, si, up);
                }
            }
        }
    }

    /// The graph itself when no closure work is pending, else a closed
    /// copy — so operands that are already closed are borrowed, not
    /// cloned.
    fn closed_view(&self) -> Cow<'_, ConstraintGraph> {
        if self.is_effectively_closed() {
            Cow::Borrowed(self)
        } else {
            let mut g = self.clone();
            g.ensure_closed();
            Cow::Owned(g)
        }
    }

    /// The variables `a` and `b` both track, in `a`'s order, with their
    /// `(a index, b index)` pairs.
    fn common_vars(a: &ConstraintGraph, b: &ConstraintGraph) -> (Vec<VarId>, Vec<(usize, usize)>) {
        let mut vars = Vec::with_capacity(a.n());
        let mut pairs = Vec::with_capacity(a.n());
        for (ai, &v) in a.vars.iter().enumerate() {
            if let Some(&bi) = b.index.get(&v) {
                vars.push(v);
                pairs.push((ai, bi));
            }
        }
        (vars, pairs)
    }

    /// Least upper bound: keeps each bound only at the weaker of the two
    /// values, over the intersection of the variable sets (in `self`'s
    /// order). Operands that are already closed are borrowed, not cloned.
    #[must_use]
    pub fn join(&self, other: &ConstraintGraph) -> ConstraintGraph {
        if self.infeasible {
            return other.clone();
        }
        if other.infeasible {
            return self.clone();
        }
        let (a, b) = (self.closed_view(), other.closed_view());
        let (vars, pairs) = ConstraintGraph::common_vars(&a, &b);
        ConstraintGraph::pointwise_max(&a, &b, vars, &pairs)
    }

    /// The graph over `vars` whose bound between `vars[i]` and `vars[j]`
    /// is the weaker of `a`'s between `pairs[i].0` and `pairs[j].0` and
    /// `b`'s between `pairs[i].1` and `pairs[j].1`. The pointwise max of
    /// two closed DBMs is closed.
    fn pointwise_max(
        a: &ConstraintGraph,
        b: &ConstraintGraph,
        vars: Vec<VarId>,
        pairs: &[(usize, usize)],
    ) -> ConstraintGraph {
        ConstraintGraph::build(vars, |i, row| {
            let (arow, brow) = (a.row(pairs[i].0), b.row(pairs[i].1));
            for (slot, &(aj, bj)) in row.iter_mut().zip(pairs) {
                *slot = arow[aj].max(brow[bj]);
            }
        })
    }

    /// The join of namespaces `a` and `b` into the fresh namespace `m`
    /// (the state-level merge of two process sets): variable `m.x`
    /// exists when both `a.x` and `b.x` do and takes the weaker of their
    /// bounds; every other variable outside `a` and `b` keeps its bounds.
    /// This is the pointwise join of the graph projected onto `a` renamed
    /// to `m` with the graph projected onto `b` renamed to `m`, in the
    /// variable order of the former, built in one pass over the closed
    /// matrix.
    #[must_use]
    pub fn merge_namespaces(&self, a: PsetId, b: PsetId, m: PsetId) -> ConstraintGraph {
        let g = self.closed_view();
        if g.infeasible {
            // Every bottom is the same element; keep the `b` side's
            // variables, as the projected join would.
            let vars = g
                .vars
                .iter()
                .filter(|v| v.namespace() != Some(a))
                .map(|v| v.renamed(b, m))
                .collect();
            let mut out = ConstraintGraph::build(vars, |_, _| {});
            out.infeasible = true;
            return out;
        }
        let mut vars = Vec::with_capacity(g.n());
        let mut pairs = Vec::with_capacity(g.n()); // (a-side index, b-side index)
        for (k, &v) in g.vars.iter().enumerate() {
            match v.namespace() {
                Some(p) if p == a => {
                    if let Some(&kb) = g.index.get(&v.renamed(a, b)) {
                        vars.push(v.renamed(a, m));
                        pairs.push((k, kb));
                    }
                }
                Some(p) if p == b => {}
                _ => {
                    vars.push(v);
                    pairs.push((k, k));
                }
            }
        }
        ConstraintGraph::pointwise_max(&g, &g, vars, &pairs)
    }

    /// Widening with the default threshold ladder
    /// ([`DEFAULT_WIDEN_THRESHOLDS`]).
    #[must_use]
    pub fn widen(&self, newer: &ConstraintGraph) -> ConstraintGraph {
        self.widen_with_thresholds(newer, &DEFAULT_WIDEN_THRESHOLDS)
    }

    /// Widening: keeps a bound only if the newer state did not weaken it.
    /// A weakened bound is snapped up to the smallest *threshold* in the
    /// given ascending set that still accommodates the newer bound
    /// (widening with thresholds — needed to retain loop facts like
    /// `i ≤ np` in Fig 5, whose exit edge derives `i = np`); beyond the
    /// largest threshold the bound is dropped to ∞. A finite threshold
    /// set guarantees a finite ascending chain. The result is
    /// deliberately *not* re-closed (re-closing a widened DBM can defeat
    /// termination).
    #[must_use]
    pub fn widen_with_thresholds(
        &self,
        newer: &ConstraintGraph,
        thresholds: &[i64],
    ) -> ConstraintGraph {
        if self.infeasible {
            return newer.clone();
        }
        if newer.infeasible {
            return self.clone();
        }
        let (a, b) = (self.closed_view(), newer.closed_view());
        let (vars, pairs) = ConstraintGraph::common_vars(&a, &b);
        // Treat as closed: queries read recorded bounds only, which is
        // sound (possibly imprecise) and preserves termination.
        ConstraintGraph::build(vars, |i, row| {
            let (arow, brow) = (a.row(pairs[i].0), b.row(pairs[i].1));
            for (slot, &(aj, bj)) in row.iter_mut().zip(&pairs) {
                let (old, new) = (arow[aj], brow[bj]);
                *slot = if new <= old {
                    old
                } else {
                    thresholds
                        .iter()
                        .copied()
                        .find(|&t| t >= new)
                        .map_or(INF, |t| t.min(INF))
                };
            }
        })
    }

    /// True if `self` entails `other` (every constraint of `other` is
    /// implied by `self`): the `⊑` order of the lattice.
    pub fn entails(&mut self, other: &ConstraintGraph) -> bool {
        if self.infeasible {
            return true;
        }
        if other.infeasible {
            return false;
        }
        self.ensure_closed();
        if self.infeasible {
            return true;
        }
        let b = other.closed_view();
        for (i, &x) in b.vars.iter().enumerate() {
            for (j, &y) in b.vars.iter().enumerate() {
                if i == j {
                    continue;
                }
                let bound = b.at(i, j);
                if bound >= INF {
                    continue;
                }
                // `self` must imply x ≤ y + bound; an untracked or
                // unconstrained pair implies nothing.
                let (Some(&si), Some(&sj)) = (self.index.get(&x), self.index.get(&y)) else {
                    return false;
                };
                if self.at(si, sj) > bound {
                    return false;
                }
            }
        }
        true
    }
}

impl fmt::Debug for ConstraintGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.infeasible {
            return f.write_str("ConstraintGraph(⊥)");
        }
        let n = self.n();
        let mut constraints = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if i != j && self.at(i, j) < INF {
                    constraints.push(format!(
                        "{} <= {}+{}",
                        self.vars[i],
                        self.vars[j],
                        self.at(i, j)
                    ));
                }
            }
        }
        write!(f, "ConstraintGraph{{{}}}", constraints.join(", "))
    }
}

impl fmt::Display for ConstraintGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::NsVar;

    fn v(name: &str) -> NsVar {
        NsVar::pset(PsetId(0), name)
    }

    #[test]
    fn transitivity_through_closure() {
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 2);
        g.assert_le(v("b"), v("c"), 3);
        assert_eq!(g.le_bound(v("a"), v("c")), Some(5));
    }

    #[test]
    fn constants_via_zero() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("x"), 5);
        assert_eq!(g.const_of(v("x")), Some(5));
        g.assert_eq_offset(v("y"), v("x"), 2);
        assert_eq!(g.const_of(v("y")), Some(7));
    }

    #[test]
    fn negative_cycle_is_bottom() {
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), -1);
        g.assert_le(v("b"), v("a"), -1);
        g.close();
        assert!(g.is_bottom());
    }

    #[test]
    fn contradictory_constants_are_bottom() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("x"), 1);
        g.assert_eq_const(v("x"), 2);
        g.close();
        assert!(g.is_bottom());
    }

    #[test]
    fn self_edge_negative_is_bottom() {
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("a"), -1);
        assert!(g.is_bottom());
    }

    #[test]
    fn havoc_keeps_routed_consequences() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_offset(v("a"), v("b"), 0);
        g.assert_eq_offset(v("b"), v("c"), 0);
        g.havoc(v("b"));
        // a = c survives even though it was only known through b.
        assert_eq!(g.eq_offset(v("a"), v("c")), Some(0));
        assert_eq!(g.eq_offset(v("a"), v("b")), None);
    }

    #[test]
    fn assign_self_increment_shifts_bounds() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("i"), 1);
        g.assign(v("i"), &LinExpr::var_plus(v("i"), 1));
        assert_eq!(g.const_of(v("i")), Some(2));
    }

    #[test]
    fn assign_var_links_and_breaks_old() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("x"), 10);
        g.assign(v("y"), &LinExpr::var_plus(v("x"), -1));
        assert_eq!(g.const_of(v("y")), Some(9));
        g.assign(v("x"), &LinExpr::constant(0));
        // y keeps its old value; the link was to x's *old* value.
        assert_eq!(g.const_of(v("y")), Some(9));
    }

    #[test]
    fn assign_self_preserves_relations_to_others() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_offset(v("i"), &NsVar::Np, -3); // i = np - 3
        g.assign(v("i"), &LinExpr::var_plus(v("i"), 1));
        assert_eq!(g.eq_offset(v("i"), &NsVar::Np), Some(-2));
    }

    #[test]
    fn remove_var_projects() {
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 1);
        g.assert_le(v("b"), v("c"), 1);
        g.remove_var(v("b"));
        assert!(!g.has_var(v("b")));
        assert_eq!(g.le_bound(v("a"), v("c")), Some(2));
    }

    #[test]
    fn join_keeps_common_weaker_bounds() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("x"), 1);
        let mut g2 = ConstraintGraph::new();
        g2.assert_eq_const(v("x"), 3);
        let mut j = g1.join(&g2);
        assert_eq!(j.const_of(v("x")), None);
        assert_eq!(j.le_bound(v("x"), &NsVar::Zero), Some(3)); // x <= 3
        assert_eq!(j.le_bound(&NsVar::Zero, v("x")), Some(-1)); // x >= 1
    }

    #[test]
    fn join_drops_one_sided_vars() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("x"), 1);
        let g2 = ConstraintGraph::new();
        let j = g1.join(&g2);
        assert!(!j.has_var(v("x")));
    }

    #[test]
    fn join_with_bottom_is_identity() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("x"), 4);
        let mut j1 = g.join(&ConstraintGraph::bottom());
        let mut j2 = ConstraintGraph::bottom().join(&g);
        assert_eq!(j1.const_of(v("x")), Some(4));
        assert_eq!(j2.const_of(v("x")), Some(4));
    }

    #[test]
    fn widen_drops_growing_bounds_keeps_stable() {
        // i = 1 widened with i = 2 under i <= np-1 in both.
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("i"), 1);
        g1.assert_le(v("i"), &NsVar::Np, -1);
        g1.assert_le(&NsVar::Zero, &NsVar::Np, -2); // np >= 2
        let mut g2 = ConstraintGraph::new();
        g2.assert_eq_const(v("i"), 2);
        g2.assert_le(v("i"), &NsVar::Np, -1);
        g2.assert_le(&NsVar::Zero, &NsVar::Np, -2);
        let mut w = g1.widen(&g2);
        // Upper bound by constant grew 1 -> 2: snapped to the threshold 2
        // (widening with thresholds). Lower bound (i >= 1) held.
        // Relation i <= np - 1 held.
        assert_eq!(w.le_bound(v("i"), &NsVar::Zero), Some(2));
        assert_eq!(w.le_bound(&NsVar::Zero, v("i")), Some(-1));
        assert!(w.implies_le(v("i"), &NsVar::Np, -1));
        // Repeated widening eventually drops the growing bound entirely.
        let mut g3 = ConstraintGraph::new();
        g3.assert_eq_const(v("i"), 100);
        let mut w2 = w.widen(&g3);
        assert_eq!(w2.le_bound(v("i"), &NsVar::Zero), None);
    }

    #[test]
    fn widen_with_custom_thresholds() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_le(v("i"), &NsVar::Zero, 1);
        let mut g2 = ConstraintGraph::new();
        g2.assert_le(v("i"), &NsVar::Zero, 9);
        let mut w = g1.widen_with_thresholds(&g2, &[0, 16, 64]);
        assert_eq!(w.le_bound(v("i"), &NsVar::Zero), Some(16));
        let mut dropped = g1.widen_with_thresholds(&g2, &[0, 4]);
        assert_eq!(dropped.le_bound(v("i"), &NsVar::Zero), None);
    }

    #[test]
    fn entails_is_reflexive_and_detects_strengthening() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("x"), 5);
        let snapshot = g1.clone();
        assert!(g1.entails(&snapshot));
        let mut weaker = ConstraintGraph::new();
        weaker.assert_le(v("x"), &NsVar::Zero, 10);
        assert!(g1.entails(&weaker));
        let mut wk = weaker.clone();
        assert!(!wk.entails(&g1.clone()));
    }

    #[test]
    fn clone_namespace_copies_internal_and_external_constraints() {
        let mut g = ConstraintGraph::new();
        let x0 = NsVar::pset(PsetId(0), "x");
        let id0 = NsVar::id_of(PsetId(0));
        g.assert_eq_offset(&x0, &id0, 3); // x = id + 3
        g.assert_le(&id0, &NsVar::Np, -1); // id <= np - 1
        g.clone_namespace(PsetId(0), PsetId(1));
        let x1 = NsVar::pset(PsetId(1), "x");
        let id1 = NsVar::id_of(PsetId(1));
        assert_eq!(g.eq_offset(&x1, &id1), Some(3));
        assert!(g.implies_le(&id1, &NsVar::Np, -1));
        // The copies are not spuriously equated with the originals.
        assert_eq!(g.eq_offset(&id0, &id1), None);
        // Originals unchanged.
        assert_eq!(g.eq_offset(&x0, &id0), Some(3));
    }

    #[test]
    fn rename_namespace_moves_constraints() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(NsVar::pset(PsetId(2), "k"), 9);
        g.rename_namespace(PsetId(2), PsetId(5));
        assert_eq!(g.const_of(NsVar::pset(PsetId(5), "k")), Some(9));
        assert!(!g.has_var(NsVar::pset(PsetId(2), "k")));
    }

    #[test]
    fn drop_namespace_removes_all_set_vars() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(NsVar::pset(PsetId(1), "a"), 1);
        g.assert_eq_const(NsVar::pset(PsetId(1), "b"), 2);
        g.assert_eq_const(NsVar::pset(PsetId(2), "c"), 3);
        g.drop_namespace(PsetId(1));
        assert!(!g.has_var(NsVar::pset(PsetId(1), "a")));
        assert_eq!(g.const_of(NsVar::pset(PsetId(2), "c")), Some(3));
    }

    #[test]
    fn equalities_of_lists_all_aliases() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("i"), 1);
        g.assert_eq_const(v("one"), 1);
        let eqs = g.equalities_of(v("i"));
        assert!(eqs.contains(&LinExpr::constant(1)));
        assert!(eqs.contains(&LinExpr::of_var(v("one"))));
    }

    #[test]
    fn proves_le_and_eq_on_expressions() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_offset(v("i"), &NsVar::Np, 0); // i = np
        assert!(g.proves_eq(
            &LinExpr::var_plus(v("i"), -1),
            &LinExpr::var_plus(NsVar::Np, -1)
        ));
        assert!(g.proves_le(&LinExpr::var_plus(v("i"), -1), &LinExpr::of_var(NsVar::Np)));
        assert!(!g.proves_le(&LinExpr::var_plus(v("i"), 1), &LinExpr::of_var(NsVar::Np)));
    }

    #[test]
    fn compare_exprs_detects_equal_and_strict() {
        use std::cmp::Ordering;
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("i"), 4);
        assert_eq!(
            g.compare_exprs(&LinExpr::of_var(v("i")), &LinExpr::constant(4)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            g.compare_exprs(&LinExpr::of_var(v("i")), &LinExpr::constant(9)),
            Some(Ordering::Less)
        );
        assert_eq!(
            g.compare_exprs(&LinExpr::of_var(v("i")), &LinExpr::constant(0)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            g.compare_exprs(&LinExpr::of_var(v("q")), &LinExpr::constant(0)),
            None
        );
    }

    #[test]
    fn closure_stats_are_recorded() {
        crate::stats::ClosureStats::reset();
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 1);
        g.close(); // drains the one dirty edge incrementally
        g.closed = false;
        g.close(); // full
        let s = crate::stats::ClosureStats::snapshot();
        assert!(s.full_closures >= 1);
        assert!(s.incremental_closures >= 1);
    }

    #[test]
    fn close_is_noop_when_clean() {
        crate::stats::ClosureStats::reset();
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 1);
        g.close();
        let before = crate::stats::ClosureStats::snapshot();
        g.close();
        g.close();
        let after = crate::stats::ClosureStats::snapshot().since(&before);
        assert_eq!(after.full_closures, 0);
        assert_eq!(after.incremental_closures, 0);
    }

    #[test]
    fn eval_expr_resolves_constants() {
        let mut g = ConstraintGraph::new();
        g.assert_eq_const(v("n"), 6);
        assert_eq!(g.eval_expr(&LinExpr::var_plus(v("n"), -2)), Some(4));
        assert_eq!(g.eval_expr(&LinExpr::constant(3)), Some(3));
        assert_eq!(g.eval_expr(&LinExpr::of_var(v("unknown"))), None);
    }

    #[test]
    fn incremental_matches_full_closure() {
        // Property-style check: building a random-ish chain via
        // assert_le (lazy dirty edges, drained on query) matches
        // rebuilding with a single full closure.
        let edges = [
            ("a", "b", 3),
            ("b", "c", -1),
            ("c", "d", 4),
            ("a", "d", 10),
            ("d", "a", -5),
            ("b", "d", 2),
        ];
        let mut incr = ConstraintGraph::new();
        for (x, y, c) in edges {
            incr.assert_le(v(x), v(y), c);
        }
        let mut full = ConstraintGraph::new();
        full.closed = false;
        for (x, y, c) in edges {
            let i = full.ensure_var(v(x));
            let j = full.ensure_var(v(y));
            let cur = full.at(i, j);
            if c < cur {
                full.set(i, j, c);
            }
        }
        full.close();
        for x in ["a", "b", "c", "d"] {
            for y in ["a", "b", "c", "d"] {
                assert_eq!(
                    incr.le_bound(v(x), v(y)),
                    full.le_bound(v(x), v(y)),
                    "{x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn lazy_drain_matches_full_closure() {
        // A dirty set small relative to n takes the per-edge incremental
        // path; the result must equal a from-scratch full closure even
        // when the drained edges interact.
        let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
        let mut g = ConstraintGraph::new();
        for w in names.windows(2) {
            g.assert_le(v(w[0]), v(w[1]), 1);
        }
        g.close();
        crate::stats::ClosureStats::reset();
        g.assert_le(v("h"), v("a"), 2); // closes a non-negative cycle
        g.assert_le(v("b"), v("g"), -4); // tighter than the chain path
        let mut full = g.clone();
        full.closed = false;
        full.dirty.clear();
        full.close();
        g.close();
        let s = crate::stats::ClosureStats::snapshot();
        assert_eq!(s.incremental_closures, 2, "both edges drained per-edge");
        for x in names {
            for y in names {
                assert_eq!(
                    g.le_bound(v(x), v(y)),
                    full.le_bound(v(x), v(y)),
                    "{x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn large_dirty_set_falls_back_to_full_closure() {
        let mut g = ConstraintGraph::new();
        for (k, name) in ["a", "b", "c"].iter().enumerate() {
            g.assert_le(v(name), &NsVar::Zero, k as i64);
        }
        crate::stats::ClosureStats::reset();
        g.close(); // 3 dirty edges vs n = 4 (2*3 >= 4): full fallback
        let s = crate::stats::ClosureStats::snapshot();
        assert_eq!(s.full_closures, 1);
        assert_eq!(s.incremental_closures, 0);
    }
}

#[cfg(test)]
mod edge_case_tests {
    use super::*;
    use crate::stats;
    use crate::var::NsVar;

    fn v(name: &str) -> NsVar {
        NsVar::pset(PsetId(0), name)
    }

    #[test]
    #[should_panic(expected = "rename collision")]
    fn rename_collision_panics() {
        let mut g = ConstraintGraph::new();
        g.ensure_var(NsVar::pset(PsetId(0), "x"));
        g.ensure_var(NsVar::pset(PsetId(1), "x"));
        g.rename_namespace(PsetId(0), PsetId(1));
    }

    #[test]
    #[should_panic(expected = "not empty")]
    fn clone_into_occupied_namespace_panics() {
        let mut g = ConstraintGraph::new();
        g.ensure_var(NsVar::pset(PsetId(0), "x"));
        g.ensure_var(NsVar::pset(PsetId(1), "y"));
        g.clone_namespace(PsetId(0), PsetId(1));
    }

    #[test]
    fn operations_on_bottom_are_inert() {
        let mut g = ConstraintGraph::bottom();
        g.assert_le(v("a"), v("b"), 1);
        g.assign(v("a"), &LinExpr::constant(5));
        g.havoc(v("a"));
        g.close();
        assert!(g.is_bottom());
        assert_eq!(g.const_of(v("a")), None);
        assert!(g.equalities_of(v("a")).is_empty());
    }

    #[test]
    fn widen_then_rewiden_terminates_at_infinity() {
        // An ever-growing bound must pass through the threshold ladder
        // and reach "no constraint" in finitely many widenings.
        let mut cur = ConstraintGraph::new();
        cur.assert_le(v("x"), &NsVar::Zero, -10);
        let mut steps = 0;
        loop {
            let mut next = ConstraintGraph::new();
            next.assert_le(v("x"), &NsVar::Zero, -10 + steps * 7);
            let w = cur.widen(&next);
            let mut probe = w.clone();
            if probe.le_bound(v("x"), &NsVar::Zero).is_none() {
                break; // Reached top for this bound.
            }
            cur = w;
            steps += 1;
            assert!(steps < 20, "widening did not terminate");
        }
    }

    #[test]
    fn force_full_closure_switch_changes_instrumentation() {
        stats::ClosureStats::reset();
        let mut g = ConstraintGraph::new();
        g.assert_le(v("a"), v("b"), 1);
        g.close();
        let before = stats::ClosureStats::snapshot();
        assert!(before.incremental_closures >= 1);

        stats::set_force_full_closure(true);
        let mut g2 = ConstraintGraph::new();
        g2.assert_le(v("a"), v("b"), 1);
        g2.assert_le(v("b"), v("c"), 1);
        stats::set_force_full_closure(false);
        let after = stats::ClosureStats::snapshot().since(&before);
        assert!(after.full_closures >= 1, "{after:?}");
        // Behaviour is unchanged, only the algorithm differs.
        assert_eq!(g2.le_bound(v("a"), v("c")), Some(2));
    }

    #[test]
    fn join_of_disjoint_carriers_is_unconstrained() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("only_left"), 1);
        let mut g2 = ConstraintGraph::new();
        g2.assert_eq_const(v("only_right"), 2);
        let mut j = g1.join(&g2);
        assert!(!j.has_var(v("only_left")));
        assert!(!j.has_var(v("only_right")));
        assert!(!j.is_bottom());
        assert_eq!(j.le_bound(&NsVar::Zero, &NsVar::Zero), Some(0));
    }

    #[test]
    fn fingerprint_is_order_canonical() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_le(v("a"), v("b"), 2);
        g1.assert_eq_const(v("c"), 7);
        let mut g2 = ConstraintGraph::new();
        g2.assert_eq_const(v("c"), 7);
        g2.assert_le(v("a"), v("b"), 2);
        g1.close();
        g2.close();
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        assert!(g1.same_shape(&g2));
        g2.assert_le(v("a"), v("b"), 1);
        g2.close();
        assert_ne!(g1.fingerprint(), g2.fingerprint());
        assert!(!g1.same_shape(&g2));
    }

    #[test]
    fn fingerprint_values_are_pinned() {
        // Bounds inside and outside the precomputed small-bound table.
        let mut g = ConstraintGraph::new();
        let x = NsVar::pset(PsetId(0), "x");
        let y = NsVar::pset(PsetId(3), "y");
        g.assert_eq_const(&x, 5);
        g.assert_le(&x, &NsVar::Np, -1);
        g.assert_le(&y, &x, 1000);
        g.assert_le(&NsVar::Zero, &y, -300);
        g.close();
        assert_eq!(g.fingerprint(), 0xb74b_4372_3de0_80cf);
    }

    #[test]
    fn all_bottoms_share_one_fingerprint() {
        let mut g1 = ConstraintGraph::new();
        g1.assert_eq_const(v("x"), 1);
        g1.assert_eq_const(v("x"), 2);
        g1.close();
        let mut g2 = ConstraintGraph::new();
        g2.assert_le(v("y"), v("y"), -1);
        assert!(g1.is_bottom() && g2.is_bottom());
        assert_eq!(g1.fingerprint(), g2.fingerprint());
        assert!(g1.same_shape(&g2));
        assert_eq!(g1.fingerprint(), ConstraintGraph::bottom().fingerprint());
    }

    #[test]
    fn clone_shares_the_matrix_until_written() {
        stats::reset_matrix_copies();
        let mut g = ConstraintGraph::new();
        for k in 0..6 {
            g.assert_eq_const(v(&format!("x{k}")), k);
        }
        g.close();
        let mut probe = g.clone();
        assert_eq!(stats::matrix_copies(), 0, "clone must not copy");
        // Read-only queries on a closed graph never materialize.
        assert_eq!(probe.const_of(v("x3")), Some(3));
        assert_eq!(stats::matrix_copies(), 0, "closed queries must not copy");
        // The first write faults in a private copy and leaves the
        // original untouched.
        probe.assert_eq_const(v("x3"), 99);
        probe.close();
        assert!(probe.is_bottom());
        assert!(stats::matrix_copies() >= 1);
        assert_eq!(g.const_of(v("x3")), Some(3));
        assert!(!g.is_bottom());
    }

    /// `g` rebuilt with its non-`Zero` variables in reverse order: the
    /// same constraints in a different matrix layout.
    fn permuted(g: &ConstraintGraph) -> ConstraintGraph {
        let mut order: Vec<usize> = (0..g.n()).collect();
        order[1..].reverse();
        let vars = order.iter().map(|&k| g.vars[k]).collect();
        let mut out = ConstraintGraph::build(vars, |i, row| {
            let src = g.row(order[i]);
            for (slot, &k) in row.iter_mut().zip(&order) {
                *slot = src[k];
            }
        });
        out.infeasible = g.infeasible;
        out
    }

    #[test]
    fn maintained_fingerprint_matches_recompute_over_random_ops() {
        // Property test: drive a graph through a pseudo-random mutation
        // sequence and check after every step that its fingerprint equals
        // that of the same constraints laid out in another variable order.
        let mut rng: u64 = 0x1234_5678_9ABC_DEF0;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let names = ["a", "b", "c", "d", "e"];
        for round in 0..40 {
            let mut g = ConstraintGraph::new();
            let mut cloned_into = 3u32;
            for _ in 0..30 {
                let x = NsVar::pset(PsetId((next() % 2) as u32), names[(next() % 5) as usize]);
                let y = NsVar::pset(PsetId((next() % 2) as u32), names[(next() % 5) as usize]);
                let c = (next() % 13) as i64 - 4;
                match next() % 10 {
                    0..=3 => g.assert_le(&x, &y, c),
                    4 => g.assert_eq_const(&x, c),
                    5 => g.close(),
                    6 => g.havoc(&x),
                    7 => g.remove_var(&x),
                    8 => {
                        // Round-trip through a fresh namespace: a net
                        // structural no-op.
                        let before = g.fingerprint();
                        g.rename_namespace(PsetId(0), PsetId(100 + cloned_into));
                        assert_eq!(g.fingerprint(), permuted(&g).fingerprint());
                        g.rename_namespace(PsetId(100 + cloned_into), PsetId(0));
                        assert_eq!(g.fingerprint(), before);
                    }
                    _ => {
                        g.clone_namespace(PsetId(1), PsetId(cloned_into));
                        cloned_into += 1;
                    }
                }
                let p = permuted(&g);
                assert_eq!(g.fingerprint(), p.fingerprint(), "round {round}: {g:?}");
                assert!(g.same_shape(&p), "round {round}: {g:?}");
            }
            let j = g.join(&ConstraintGraph::new());
            assert_eq!(j.fingerprint(), permuted(&j).fingerprint());
            let w = g.widen(&g.clone());
            assert_eq!(w.fingerprint(), permuted(&w).fingerprint());
        }
    }

    #[test]
    fn capacity_growth_and_compaction_reuse() {
        // Push past several capacity doublings, then remove and re-add:
        // the matrix must stay consistent through in-place compaction.
        let mut g = ConstraintGraph::new();
        for k in 0..20 {
            g.assert_eq_const(v(&format!("x{k}")), k);
        }
        for k in (0..20).step_by(2) {
            g.remove_var(v(&format!("x{k}")));
        }
        for k in (1..20).step_by(2) {
            assert_eq!(g.const_of(v(&format!("x{k}"))), Some(k), "x{k}");
        }
        // Re-added variables land on recycled slots and start fresh.
        g.assert_eq_const(v("x0"), 41);
        assert_eq!(g.const_of(v("x0")), Some(41));
        assert_eq!(g.const_of(v("x7")), Some(7));
    }
}

/// Equivalence of the one-pass namespace operations with the per-entry
/// and per-namespace compositions they replace, over seeded random graphs
/// on two or three namespaces (some of them bottom, some left unclosed).
#[cfg(test)]
mod namespace_op_tests {
    use super::*;
    use crate::var::NsVar;
    use mpl_rng::Rng64;

    const CASES: u64 = 300;

    /// Candidate variables over `namespaces` process sets plus `np`, a
    /// global, and `P7.w`, which no graph ever tracks.
    fn pool(namespaces: u32) -> Vec<VarId> {
        let mut vars = vec![VarId::NP, VarId::from(NsVar::Global("g".into()))];
        for p in 0..namespaces {
            vars.push(VarId::id_of(PsetId(p)));
            for name in ["x", "y"] {
                vars.push(NsVar::pset(PsetId(p), name).into());
            }
        }
        vars
    }

    fn untracked() -> VarId {
        NsVar::pset(PsetId(7), "w").into()
    }

    /// A random graph over part of `pool(namespaces)`. About one in
    /// fifteen is contradictory (bottom once closed) and about a third are
    /// left with closure work pending.
    fn random_graph(rng: &mut Rng64, namespaces: u32) -> ConstraintGraph {
        let vars = pool(namespaces);
        let mut g = ConstraintGraph::new();
        for _ in 0..rng.index(16) {
            let x = *rng.pick(&vars);
            let y = *rng.pick(&vars);
            match rng.index(4) {
                0 => g.assert_eq_const(x, rng.i64_in(-3, 6)),
                1 => g.assert_eq_offset(x, y, rng.i64_in(-2, 2)),
                _ => g.assert_le(x, y, rng.i64_in(-4, 8)),
            }
        }
        if rng.index(15) == 0 {
            let x = *rng.pick(&vars);
            g.assert_le(x, VarId::ZERO, -1);
            g.assert_le(VarId::ZERO, x, 0);
        }
        if rng.index(3) != 0 {
            g.close();
        }
        g
    }

    fn assert_same(got: &ConstraintGraph, want: &ConstraintGraph, what: &str) {
        assert_eq!(got.is_bottom(), want.is_bottom(), "{what}: bottom");
        assert_eq!(got.variables(), want.variables(), "{what}: variable order");
        assert!(got.same_shape(want), "{what}: {got:?} vs {want:?}");
        assert_eq!(got.fingerprint(), want.fingerprint(), "{what}: fingerprint");
    }

    #[test]
    fn merge_namespaces_matches_projected_join() {
        let mut rng = Rng64::seed_from_u64(0x3E26);
        for case in 0..CASES {
            let namespaces = 2 + rng.index(2) as u32;
            let g = random_graph(&mut rng, namespaces);
            let (a, b, m) = if rng.flip() {
                (PsetId(0), PsetId(1), PsetId(9))
            } else {
                (PsetId(1), PsetId(0), PsetId(9))
            };
            let mut a_side = g.clone();
            a_side.drop_namespace(b);
            a_side.rename_namespace(a, m);
            let mut b_side = g.clone();
            b_side.drop_namespace(a);
            b_side.rename_namespace(b, m);
            let mut want = a_side.join(&b_side);
            want.close();
            assert_same(&g.merge_namespaces(a, b, m), &want, &format!("case {case}"));
        }
    }

    #[test]
    fn renumber_namespaces_matches_two_phase_renames() {
        let mut rng = Rng64::seed_from_u64(0x2E2E);
        for case in 0..CASES {
            let namespaces = 2 + rng.index(2) as u32;
            let g = random_graph(&mut rng, namespaces);
            let mut targets: Vec<u32> = (0..namespaces).collect();
            for k in (1..targets.len()).rev() {
                targets.swap(k, rng.index(k + 1));
            }
            let map: Vec<(PsetId, PsetId)> = targets
                .iter()
                .enumerate()
                .map(|(k, &t)| (PsetId(k as u32), PsetId(t)))
                .collect();
            let mut want = g.clone();
            for (k, &(from, _)) in map.iter().enumerate() {
                want.rename_namespace(from, PsetId(1000 + k as u32));
            }
            for (k, &(_, to)) in map.iter().enumerate() {
                want.rename_namespace(PsetId(1000 + k as u32), to);
            }
            let mut got = g.clone();
            got.renumber_namespaces(&map);
            assert_same(&got, &want, &format!("case {case} map {map:?}"));
        }
    }

    /// The pre-builder pointwise combination: grow an empty graph one
    /// common variable at a time, then write each finite entry.
    fn per_entry(
        a: &ConstraintGraph,
        b: &ConstraintGraph,
        f: impl Fn(i64, i64) -> i64,
    ) -> ConstraintGraph {
        let (a, b) = (a.closed_view(), b.closed_view());
        let mut out = ConstraintGraph::new();
        let mut triples = Vec::new();
        for (ai, &v) in a.vars.iter().enumerate() {
            if let Some(&bi) = b.index.get(&v) {
                triples.push((ai, bi, out.ensure_var(v)));
            }
        }
        for &(ai, bi, oi) in &triples {
            for &(aj, bj, oj) in &triples {
                let bound = f(a.at(ai, aj), b.at(bi, bj));
                if oi != oj && bound < INF {
                    out.set(oi, oj, bound);
                }
            }
        }
        out
    }

    #[test]
    fn join_and_widen_match_per_entry_reference() {
        let mut rng = Rng64::seed_from_u64(0x1017);
        for case in 0..CASES {
            let namespaces = 2 + rng.index(2) as u32;
            let (a, b) = (
                random_graph(&mut rng, namespaces),
                random_graph(&mut rng, namespaces),
            );
            if a.is_bottom() || b.is_bottom() {
                continue; // Both return the other operand unchanged.
            }
            let join = per_entry(&a, &b, i64::max);
            assert_same(&a.join(&b), &join, &format!("join case {case}"));
            for thresholds in [&DEFAULT_WIDEN_THRESHOLDS[..], &[0, 16], &[]] {
                let widen = per_entry(&a, &b, |old, new| {
                    if new <= old {
                        old
                    } else {
                        thresholds
                            .iter()
                            .copied()
                            .find(|&t| t >= new)
                            .unwrap_or(INF)
                    }
                });
                let got = a.widen_with_thresholds(&b, thresholds);
                assert_same(&got, &widen, &format!("widen case {case} {thresholds:?}"));
            }
        }
    }

    /// Random alias sets: constants, pool variables and the untracked one.
    fn random_aliases(rng: &mut Rng64, vars: &[VarId]) -> Vec<LinExpr> {
        let mut out: Vec<LinExpr> = (0..rng.index(4))
            .map(|_| match rng.index(5) {
                0 => LinExpr::constant(rng.i64_in(-3, 6)),
                1 => LinExpr::var_plus(untracked(), rng.i64_in(-2, 2)),
                _ => LinExpr::var_plus(*rng.pick(vars), rng.i64_in(-2, 2)),
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// The per-pair comparison loop, through the public per-variable
    /// queries.
    fn pairwise_compare(g: &mut ConstraintGraph, a: &[LinExpr], b: &[LinExpr]) -> Option<Ordering> {
        for x in a {
            for y in b {
                let (xv, yv) = (x.var.unwrap_or(VarId::ZERO), y.var.unwrap_or(VarId::ZERO));
                let delta = x.offset - y.offset;
                let hi = g.le_bound(xv, yv).map(|u| u + delta);
                let lo = g.le_bound(yv, xv).map(|l| delta - l);
                let ord = match (hi, lo) {
                    (Some(0), Some(0)) => Some(Ordering::Equal),
                    (Some(hi), _) if hi < 0 => Some(Ordering::Less),
                    (_, Some(lo)) if lo > 0 => Some(Ordering::Greater),
                    _ => None,
                };
                if ord.is_some() {
                    return ord;
                }
            }
        }
        None
    }

    /// The per-pair `≤` fallback: pinned pairs by value, the rest by
    /// [`ConstraintGraph::proves_le`].
    fn pairwise_le(g: &mut ConstraintGraph, a: &[LinExpr], b: &[LinExpr]) -> bool {
        let avals: Vec<Option<i64>> = a.iter().map(|x| g.eval_expr(x)).collect();
        let bvals: Vec<Option<i64>> = b.iter().map(|y| g.eval_expr(y)).collect();
        for (x, &vx) in a.iter().zip(&avals) {
            for (y, &vy) in b.iter().zip(&bvals) {
                let le = match (vx, vy) {
                    (Some(p), Some(q)) => p <= q,
                    _ => g.proves_le(x, y),
                };
                if le {
                    return true;
                }
            }
        }
        false
    }

    #[test]
    fn batched_alias_comparisons_match_pairwise_loops() {
        let mut rng = Rng64::seed_from_u64(0xA11A5);
        let mut bottoms = 0;
        for case in 0..CASES * 3 {
            let namespaces = 2 + rng.index(2) as u32;
            let g = random_graph(&mut rng, namespaces);
            let vars = pool(namespaces);
            let (a, b) = (
                random_aliases(&mut rng, &vars),
                random_aliases(&mut rng, &vars),
            );
            let (mut want_g, mut got_g) = (g.clone(), g.clone());
            let want = pairwise_compare(&mut want_g, &a, &b);
            assert_eq!(
                got_g.first_comparison(&a, &b),
                want,
                "compare case {case}: {a:?} {b:?} {g:?}"
            );
            // Closure ran exactly when the loop would have run it.
            assert_eq!(
                got_g.is_effectively_closed(),
                want_g.is_effectively_closed()
            );
            let (mut want_g, mut got_g) = (g.clone(), g.clone());
            let want = pairwise_le(&mut want_g, &a, &b);
            assert_eq!(
                got_g.any_proves_le(&a, &b),
                want,
                "le case {case}: {a:?} {b:?} {g:?}"
            );
            assert_eq!(
                got_g.is_effectively_closed(),
                want_g.is_effectively_closed()
            );
            bottoms += usize::from(got_g.is_bottom());
        }
        assert!(bottoms > 0, "no bottom graph was generated");
    }

    #[test]
    fn fingerprint_is_independent_of_insertion_order() {
        let mut rng = Rng64::seed_from_u64(0x0FDE);
        for case in 0..CASES {
            let vars = pool(2 + rng.index(2) as u32);
            let edges: Vec<(VarId, VarId, i64)> = (0..rng.index(12))
                .map(|_| (*rng.pick(&vars), *rng.pick(&vars), rng.i64_in(-4, 8)))
                .collect();
            let mut shuffled = edges.clone();
            for k in (1..shuffled.len()).rev() {
                shuffled.swap(k, rng.index(k + 1));
            }
            let mut first = ConstraintGraph::new();
            let mut second = ConstraintGraph::new();
            // Introduce the variables in opposite orders up front.
            for &v in &vars {
                first.ensure_var(v);
            }
            for &v in vars.iter().rev() {
                second.ensure_var(v);
            }
            for &(x, y, c) in &edges {
                first.assert_le(x, y, c);
            }
            for &(x, y, c) in &shuffled {
                second.assert_le(x, y, c);
            }
            first.close();
            second.close();
            assert_eq!(first.fingerprint(), second.fingerprint(), "case {case}");
            assert!(first.same_shape(&second), "case {case}");
        }
    }
}
