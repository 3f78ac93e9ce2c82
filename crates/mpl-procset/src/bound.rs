//! Range bounds as sets of provably-equal expressions.

use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

use mpl_domains::{ConstraintGraph, LinExpr, PsetId, VarId};

/// One end of a process range: a non-empty set of linear expressions,
/// all equal to the bound's value in the current dataflow state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bound {
    exprs: BTreeSet<LinExpr>,
}

impl Bound {
    /// A bound known by a single expression.
    #[must_use]
    pub fn of(e: LinExpr) -> Bound {
        let mut exprs = BTreeSet::new();
        exprs.insert(e);
        Bound { exprs }
    }

    /// A constant bound.
    #[must_use]
    pub fn constant(c: i64) -> Bound {
        Bound::of(LinExpr::constant(c))
    }

    /// A bound from an arbitrary alias set (empty = vacant).
    #[must_use]
    pub fn from_exprs(exprs: BTreeSet<LinExpr>) -> Bound {
        Bound { exprs }
    }

    /// Adds an alias known to equal this bound.
    pub fn insert(&mut self, e: LinExpr) {
        self.exprs.insert(e);
    }

    /// The expression aliases of this bound.
    #[must_use]
    pub fn exprs(&self) -> &BTreeSet<LinExpr> {
        &self.exprs
    }

    /// True if the alias set is empty — an unrepresentable bound
    /// (produced only by widening two unrelated bounds).
    #[must_use]
    pub fn is_vacant(&self) -> bool {
        self.exprs.is_empty()
    }

    /// A canonical representative (constants first, then smallest).
    ///
    /// # Panics
    ///
    /// Panics if the bound is vacant.
    #[must_use]
    pub fn rep(&self) -> &LinExpr {
        self.exprs
            .iter()
            .find(|e| e.is_constant())
            .or_else(|| self.exprs.iter().next())
            .expect("vacant bound has no representative")
    }

    /// The constant value, if any alias is a bare constant.
    #[must_use]
    pub fn as_constant(&self) -> Option<i64> {
        self.exprs.iter().find_map(LinExpr::as_constant)
    }

    /// Adds to the alias set every expression the constraint graph can
    /// prove equal to this bound: all aliases of each base variable, the
    /// constant value when pinned, and — for constant aliases — offsets
    /// from every pinned-down `id` variable (needed so a wavefront
    /// singleton like `[2..2]` keeps the loop-invariant alias
    /// `P.id` across widening).
    pub fn saturate(&mut self, cg: &mut ConstraintGraph) {
        // The current aliases in order, each flagged once an earlier
        // *full* class scan in this call has emitted it. The closed
        // graph's exact-equality classes are transitive, so scanning such
        // an alias would re-emit exactly the same set — and a saturated
        // bound carries one alias per class member, making the naive pass
        // O(aliases · vars). Skipping keeps it at one scan per distinct
        // equality class.
        let exprs: Vec<LinExpr> = self.exprs.iter().copied().collect();
        let mut scanned = vec![false; exprs.len()];
        let mut found: Vec<LinExpr> = Vec::new();
        for (k, e) in exprs.iter().enumerate() {
            if scanned[k] {
                continue;
            }
            if let Some(base) = e.var {
                for alias in cg.equalities_of(base) {
                    let a = alias.plus(e.offset);
                    match exprs.binary_search(&a) {
                        Ok(at) => scanned[at] = true,
                        Err(_) => found.push(a),
                    }
                }
            } else if cg.variables().iter().any(|v| v.is_rank_id()) {
                // Partial scan (pinned rank ids only) — its results do
                // not justify skipping a later full scan, so they flag
                // nothing. The pinned variables are `Zero`'s equality
                // class: `v = Zero + c` is the alias `v - c`. Rank
                // variables are identified by bit test on the packed id;
                // without one there is nothing to find, and the scan
                // (which closes the graph) is skipped.
                for alias in cg.equalities_of(VarId::ZERO) {
                    if alias.var.is_some_and(VarId::is_rank_id) {
                        found.push(alias.plus(e.offset));
                    }
                }
            }
        }
        self.exprs.extend(found);
    }

    /// The bound shifted by a constant (`b + c`).
    #[must_use]
    pub fn plus(&self, c: i64) -> Bound {
        Bound {
            exprs: self.exprs.iter().map(|e| e.plus(c)).collect(),
        }
    }

    /// Rewrites per-set base variables by the namespace map `map` (see
    /// [`VarId::renumbered`]).
    #[must_use]
    pub fn renumbered(&self, map: &[(PsetId, PsetId)]) -> Bound {
        Bound {
            exprs: self.exprs.iter().map(|e| e.renumbered(map)).collect(),
        }
    }

    /// Widening: keeps only the aliases present in both bounds (the
    /// paper's Fig 5 loop-invariant mechanism). May produce a vacant
    /// bound if the two have nothing in common.
    #[must_use]
    pub fn widen(&self, newer: &Bound) -> Bound {
        Bound {
            exprs: self.exprs.intersection(&newer.exprs).cloned().collect(),
        }
    }

    /// Compares two bounds using the constraint graph; `None` when no
    /// relation is provable from any alias pair.
    pub fn compare(&self, cg: &mut ConstraintGraph, other: &Bound) -> Option<Ordering> {
        // Syntactic fast path: identical alias present in both.
        if self.exprs.intersection(&other.exprs).next().is_some() {
            return Some(Ordering::Equal);
        }
        // Same base variable: compare offsets directly.
        for a in &self.exprs {
            for b in &other.exprs {
                if let Some(d) = a.diff_if_comparable(b) {
                    return Some(d.cmp(&0));
                }
            }
        }
        cg.first_comparison(&self.exprs, &other.exprs)
    }

    /// True if the graph proves `self = other`.
    pub fn provably_eq(&self, cg: &mut ConstraintGraph, other: &Bound) -> bool {
        self.compare(cg, other) == Some(Ordering::Equal)
    }

    /// True if the graph proves `self ≤ other`.
    pub fn provably_le(&self, cg: &mut ConstraintGraph, other: &Bound) -> bool {
        if matches!(
            self.compare(cg, other),
            Some(Ordering::Less | Ordering::Equal)
        ) {
            return true;
        }
        // One-directional fallback over all alias pairs.
        cg.any_proves_le(&self.exprs, &other.exprs)
    }

    /// True if the graph proves `self < other`.
    pub fn provably_lt(&self, cg: &mut ConstraintGraph, other: &Bound) -> bool {
        self.compare(cg, other) == Some(Ordering::Less) || self.plus(1).provably_le(cg, other)
    }

    /// When [`Bound::compare`] is inconclusive, a representative pair of
    /// expressions whose relation would decide it — used by the engine to
    /// case-split an ambiguous match.
    pub fn compare_hint(
        &self,
        cg: &mut ConstraintGraph,
        other: &Bound,
    ) -> Option<(LinExpr, LinExpr)> {
        if self.is_vacant() || other.is_vacant() || self.compare(cg, other).is_some() {
            return None;
        }
        Some((*self.rep(), *other.rep()))
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.exprs.len() == 1 {
            write!(f, "{}", self.rep())
        } else {
            let parts: Vec<String> = self.exprs.iter().map(ToString::to_string).collect();
            write!(f, "{{{}}}", parts.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_domains::NsVar;

    fn var(name: &str) -> NsVar {
        NsVar::pset(PsetId(0), name)
    }

    #[test]
    fn constant_bounds_compare_without_graph_facts() {
        let mut cg = ConstraintGraph::new();
        let a = Bound::constant(3);
        let b = Bound::constant(5);
        assert_eq!(a.compare(&mut cg, &b), Some(Ordering::Less));
        assert!(a.provably_lt(&mut cg, &b));
        assert!(a.provably_le(&mut cg, &b));
        assert!(!b.provably_le(&mut cg, &a));
    }

    #[test]
    fn same_base_compares_by_offset() {
        let mut cg = ConstraintGraph::new();
        let a = Bound::of(LinExpr::var_plus(NsVar::Np, -1));
        let b = Bound::of(LinExpr::of_var(NsVar::Np));
        assert_eq!(a.compare(&mut cg, &b), Some(Ordering::Less));
    }

    #[test]
    fn graph_facts_resolve_cross_variable_comparisons() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 1);
        let a = Bound::of(LinExpr::of_var(var("i")));
        let b = Bound::constant(1);
        assert!(a.provably_eq(&mut cg, &b));
        let c = Bound::constant(4);
        assert!(a.provably_lt(&mut cg, &c));
    }

    #[test]
    fn saturate_collects_aliases() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 1);
        let mut b = Bound::of(LinExpr::of_var(var("i")));
        b.saturate(&mut cg);
        assert!(b.exprs().contains(&LinExpr::constant(1)));
        assert_eq!(b.as_constant(), Some(1));
    }

    #[test]
    fn saturate_shifts_alias_offsets() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 4);
        let mut b = Bound::of(LinExpr::var_plus(var("i"), -1));
        b.saturate(&mut cg);
        assert!(b.exprs().contains(&LinExpr::constant(3)));
    }

    #[test]
    fn widen_keeps_common_aliases() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 1);
        let mut first = Bound::of(LinExpr::of_var(var("i")));
        first.saturate(&mut cg); // {i, 1}
        let mut cg2 = ConstraintGraph::new();
        cg2.assert_eq_const(var("i"), 2);
        let mut second = Bound::of(LinExpr::of_var(var("i")));
        second.saturate(&mut cg2); // {i, 2}
        let w = first.widen(&second);
        assert_eq!(w.exprs().len(), 1);
        assert!(w.exprs().contains(&LinExpr::of_var(var("i"))));
        assert!(!w.is_vacant());
    }

    #[test]
    fn widen_disjoint_is_vacant() {
        let a = Bound::constant(1);
        let b = Bound::constant(2);
        assert!(a.widen(&b).is_vacant());
    }

    #[test]
    fn rep_prefers_constants() {
        let mut cg = ConstraintGraph::new();
        cg.assert_eq_const(var("i"), 7);
        let mut b = Bound::of(LinExpr::of_var(var("i")));
        b.saturate(&mut cg);
        assert_eq!(b.rep(), &LinExpr::constant(7));
    }

    #[test]
    fn plus_shifts_every_alias() {
        let mut b = Bound::constant(1);
        b.exprs.insert(LinExpr::of_var(var("i")));
        let shifted = b.plus(2);
        assert!(shifted.exprs().contains(&LinExpr::constant(3)));
        assert!(shifted.exprs().contains(&LinExpr::var_plus(var("i"), 2)));
    }

    #[test]
    fn renamed_rewrites_namespaced_bases() {
        let b = Bound::of(LinExpr::of_var(var("i")));
        let r = b.renumbered(&[(PsetId(0), PsetId(4))]);
        assert!(r
            .exprs()
            .contains(&LinExpr::of_var(NsVar::pset(PsetId(4), "i"))));
    }

    #[test]
    fn display_single_and_multi() {
        let b = Bound::constant(3);
        assert_eq!(b.to_string(), "3");
        let mut m = Bound::constant(3);
        m.exprs.insert(LinExpr::of_var(var("i")));
        assert_eq!(m.to_string(), "{3,P0.i}");
    }
}
