//! The worklist scheduler: exploration order, budgets, cancellation and
//! widening-delay bookkeeping, extracted from the engine loop.
//!
//! States are keyed by their pCFG location (the `location_key`: the
//! ordered (CFG node, pending?) pairs of their process sets) and explored
//! FIFO — the deterministic order the golden corpus pins byte-for-byte.
//! The scheduler owns the three fixpoint policies of §VI:
//!
//! * **budgets** — the step budget and (via [`Scheduler::tick`]'s polling)
//!   the cooperative deadline;
//! * **delayed widening** — a recurring location is explored exactly for
//!   the first `widen_delay` visits, then widened with thresholds until
//!   it converges;
//! * **admission** — a successor state is queued only if it brings new
//!   information at its location (`same_as` dedup / widening progress).

use std::collections::{HashMap, VecDeque};

use mpl_runtime::CancelToken;

use crate::client::ClientDomain;
use crate::config::AnalysisConfig;
use crate::observer::AnalysisObserver;
use crate::result::TopReason;
use crate::state::AnalysisState;

/// How many worklist steps may pass between two polls of the
/// cancellation token — the bound behind the "engine observes
/// cancellation within a bounded number of steps" guarantee.
pub const CANCEL_CHECK_STEPS: u64 = 8;

/// An interned pCFG location: an index into the scheduler's slot table.
/// Replaces the per-step `Vec<(CfgNodeId, bool)>` allocation of
/// [`AnalysisState::location_key`] — the key is hashed once
/// ([`AnalysisState::location_fingerprint`]) and passed by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocationKey(u32);

impl LocationKey {
    /// The slot index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Best-known state per location, with its cached state fingerprint and
/// the location's visit count.
struct Slot {
    state: AnalysisState,
    fp: u64,
    visits: u32,
}

/// A snapshot of the scheduler's location store, for `--stats` memory
/// reporting.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct StoredStats {
    /// Number of distinct pCFG locations with a stored state.
    pub locations: usize,
    /// Estimated heap bytes of the stored states, counting each
    /// CoW-shared component allocation once.
    pub approx_bytes: usize,
}

/// The engine's worklist with its budget and widening bookkeeping.
pub struct Scheduler {
    work: VecDeque<AnalysisState>,
    /// Best-known state, cached fingerprint and visit count per interned
    /// location.
    stored: Vec<Slot>,
    /// Location fingerprint → slot index.
    loc_index: HashMap<u64, u32>,
    /// Debug-only collision guard: the full location key per slot.
    #[cfg(debug_assertions)]
    loc_keys: Vec<Vec<(mpl_cfg::CfgNodeId, bool)>>,
    steps: u64,
    max_steps: u64,
    widen_delay: u32,
    cancel: Option<CancelToken>,
}

impl Scheduler {
    /// A scheduler configured from the engine knobs (step budget,
    /// widening delay, cancellation token).
    #[must_use]
    pub fn new(config: &AnalysisConfig) -> Scheduler {
        Scheduler {
            work: VecDeque::new(),
            stored: Vec::new(),
            loc_index: HashMap::new(),
            #[cfg(debug_assertions)]
            loc_keys: Vec::new(),
            steps: 0,
            max_steps: config.max_steps,
            widen_delay: config.widen_delay,
            cancel: config.cancel.clone(),
        }
    }

    /// Interns the state's pCFG location, returning a stable by-value
    /// key. `None` if the location has never been stored.
    fn lookup(&self, s: &AnalysisState) -> Option<LocationKey> {
        let key = self
            .loc_index
            .get(&s.location_fingerprint())
            .map(|&i| LocationKey(i));
        #[cfg(debug_assertions)]
        if let Some(k) = key {
            debug_assert_eq!(
                self.loc_keys[k.index()],
                s.location_key(),
                "location fingerprint collision"
            );
        }
        key
    }

    /// Allocates a slot for a location not seen before.
    fn insert_slot(&mut self, s: &AnalysisState, fp: u64) -> LocationKey {
        let idx = u32::try_from(self.stored.len()).expect("location count overflow");
        self.loc_index.insert(s.location_fingerprint(), idx);
        #[cfg(debug_assertions)]
        self.loc_keys.push(s.location_key());
        self.stored.push(Slot {
            state: s.clone(),
            fp,
            visits: 1,
        });
        LocationKey(idx)
    }

    /// Location-store size and estimated memory, each CoW-shared
    /// allocation counted once.
    #[must_use]
    pub fn stored_stats(&self) -> StoredStats {
        let mut seen = std::collections::HashSet::new();
        let mut bytes = 0;
        for slot in &self.stored {
            bytes += slot.state.approx_bytes(&mut seen);
        }
        StoredStats {
            locations: self.stored.len(),
            approx_bytes: bytes,
        }
    }

    /// Seeds the worklist with the initial state (counted as the first
    /// visit of its location).
    pub fn seed(&mut self, init: AnalysisState) {
        let fp = init.fingerprint();
        self.insert_slot(&init, fp);
        self.work.push_back(init);
    }

    /// Worklist steps taken so far (1-based on the first [`Self::tick`]).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Pops the next state to explore.
    ///
    /// Returns `None` when the worklist is exhausted (fixpoint), and
    /// `Some(Err(reason))` when a budget ran out: the step budget, or —
    /// polled every [`CANCEL_CHECK_STEPS`] steps, starting at step 1 so a
    /// pre-cancelled token is observed before any real work — the
    /// cooperative deadline.
    pub fn tick(&mut self) -> Option<Result<AnalysisState, TopReason>> {
        let st = self.work.pop_front()?;
        self.steps += 1;
        if self.steps > self.max_steps {
            return Some(Err(TopReason::StepBudget));
        }
        if self.steps % CANCEL_CHECK_STEPS == 1 {
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return Some(Err(TopReason::Deadline));
                }
            }
        }
        Some(Ok(st))
    }

    /// Offers a successor state for exploration.
    ///
    /// The first `widen_delay` visits of a location are explored exactly
    /// (dropped only if identical to the stored state); later visits are
    /// widened against the stored state via the client's
    /// [`ClientDomain::widen`] until convergence. Returns
    /// `Some(TopReason::AbstractionLoss)` when widening relaxed a
    /// process-set bound to ±∞.
    ///
    /// Dedup compares fingerprints first: the candidate's (the offered
    /// state before widening starts, the widened state after) against
    /// the one cached with the stored state, and only a mismatch falls
    /// back to the full [`AnalysisState::same_as_slow`] walk. Each
    /// candidate's fingerprint is computed at most once — one O(n²) pass
    /// over its constraint graph
    /// ([`mpl_domains::ConstraintGraph::fingerprint`]) plus a
    /// hash of the other components — and the stored one is never
    /// recomputed.
    pub fn admit<O: AnalysisObserver>(
        &mut self,
        s: AnalysisState,
        domain: &dyn ClientDomain,
        thresholds: &[i64],
        observer: &mut O,
    ) -> Option<TopReason> {
        let Some(key) = self.lookup(&s) else {
            let s_fp = s.fingerprint();
            self.insert_slot(&s, s_fp);
            self.work.push_back(s);
            return None;
        };
        let slot = &self.stored[key.index()];
        let visits = slot.visits + 1;
        if visits <= self.widen_delay {
            // Delayed widening: explore the state exactly (bounded
            // concrete chains finish precisely), but stop if nothing
            // changed.
            let s_fp = s.fingerprint();
            if s_fp == slot.fp {
                debug_assert!(
                    s.structurally_eq(&slot.state),
                    "state fingerprint collision at admission"
                );
                return None;
            }
            if s.same_as_slow(&slot.state) {
                return None;
            }
            let slot = &mut self.stored[key.index()];
            slot.state = s.clone();
            slot.fp = s_fp;
            slot.visits = visits;
            self.work.push_back(s);
            return None;
        }
        let widened = domain.widen(&slot.state, &s, thresholds);
        let w_fp = widened.fingerprint();
        if w_fp == slot.fp {
            debug_assert!(
                widened.structurally_eq(&slot.state),
                "state fingerprint collision at widening"
            );
            return None; // Converged at this location.
        }
        if widened.same_as_slow(&slot.state) {
            return None; // Converged at this location.
        }
        if widened.any_vacant_range() {
            return Some(TopReason::AbstractionLoss);
        }
        observer.on_widen(visits, &widened);
        let slot = &mut self.stored[key.index()];
        slot.state = widened.clone();
        slot.fp = w_fp;
        slot.visits = visits;
        self.work.push_back(widened);
        None
    }
}

#[cfg(test)]
mod widen_delay_tests {
    use crate::client::Client;
    use crate::config::AnalysisConfig;
    use crate::engine::analyze;
    use crate::result::Verdict;
    use mpl_lang::corpus;

    #[test]
    fn immediate_widening_loses_concrete_chains() {
        // The delayed-widening knob: with no delay, the 4-block stencil
        // chain on a 4x4 grid is destructively merged; with the default
        // delay it completes exactly.
        let prog = corpus::stencil_2d_vertical(corpus::GridDims::Concrete { nrows: 4, ncols: 4 });
        let eager = AnalysisConfig {
            client: Client::Simple,
            widen_delay: 0,
            ..AnalysisConfig::default()
        };
        let result = analyze(&prog.program, &eager);
        assert!(
            matches!(result.verdict, Verdict::Top { .. }),
            "eager widening should lose the chain: {:?}",
            result.verdict
        );
        let default = AnalysisConfig {
            client: Client::Simple,
            ..AnalysisConfig::default()
        };
        assert!(analyze(&prog.program, &default).is_exact());
    }

    #[test]
    fn symbolic_loops_converge_under_any_delay() {
        for delay in [0u32, 2, 6, 12] {
            let config = AnalysisConfig {
                client: Client::Simple,
                widen_delay: delay,
                ..AnalysisConfig::default()
            };
            let result = analyze(&corpus::exchange_with_root().program, &config);
            assert!(result.is_exact(), "delay {delay}: {:?}", result.verdict);
        }
    }
}

#[cfg(test)]
mod cancel_tests {
    use super::CANCEL_CHECK_STEPS;
    use crate::config::AnalysisConfig;
    use crate::engine::analyze;
    use crate::result::{AnalysisResult, TopReason, Verdict};
    use mpl_lang::corpus;

    #[test]
    fn pre_cancelled_token_yields_deadline_top_within_bounded_steps() {
        let prog = corpus::exchange_with_root();
        let token = mpl_runtime::CancelToken::new();
        token.cancel();
        let config = AnalysisConfig::builder()
            .cancel_token(token)
            .build()
            .expect("valid config");
        let result = analyze(&prog.program, &config);
        assert!(
            matches!(
                result.verdict,
                Verdict::Top {
                    reason: TopReason::Deadline
                }
            ),
            "{:?}",
            result.verdict
        );
        assert!(
            result.steps <= CANCEL_CHECK_STEPS,
            "cancellation observed after {} steps (bound {CANCEL_CHECK_STEPS})",
            result.steps
        );
        // Sound ⊤: nothing is claimed about the program.
        assert!(result.matches.is_empty());
        assert!(result.leaks.is_empty());
    }

    #[test]
    fn uncancelled_token_does_not_perturb_the_analysis() {
        let prog = corpus::exchange_with_root();
        let plain = analyze(&prog.program, &AnalysisConfig::default());
        let config = AnalysisConfig::builder()
            .cancel_token(mpl_runtime::CancelToken::new())
            .build()
            .expect("valid config");
        let tokened = analyze(&prog.program, &config);
        assert_eq!(plain.verdict, tokened.verdict);
        assert_eq!(plain.matches, tokened.matches);
        assert_eq!(plain.steps, tokened.steps);
    }

    #[test]
    fn deadline_reason_has_stable_code_and_message() {
        assert_eq!(TopReason::Deadline.code(), "deadline");
        assert_eq!(
            TopReason::Deadline.to_string(),
            "analysis deadline exceeded"
        );
        let bare = AnalysisResult::top(TopReason::Deadline);
        assert!(!bare.is_exact());
        assert_eq!(bare.steps, 0);
    }

    #[test]
    fn step_budget_yields_top() {
        let prog = corpus::exchange_with_root();
        let config = AnalysisConfig {
            max_steps: 3,
            ..AnalysisConfig::default()
        };
        let result = analyze(&prog.program, &config);
        assert!(matches!(result.verdict, Verdict::Top { .. }));
    }
}
