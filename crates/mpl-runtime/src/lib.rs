//! # mpl-runtime — deterministic parallel batch execution
//!
//! A small, zero-external-dependency work-stealing runtime for fanning a
//! *fixed, ordered* list of independent jobs across `N` worker threads.
//! It exists so the analysis engine can process whole program corpora in
//! parallel (the batch shape static MPI analyzers are deployed in) while
//! keeping the offline-build constraint: std threads plus an in-tree
//! deque, no crossbeam.
//!
//! Design points:
//!
//! * **Determinism by construction.** Each job carries its submission
//!   index and writes its result into a dedicated slot; the returned
//!   vector is always in submission order, for any worker count
//!   (including 1). Scheduling — which worker runs which job, and when —
//!   is free to vary; the *output* cannot.
//! * **Work stealing.** Jobs are dealt round-robin onto per-worker
//!   deques. A worker drains its own deque LIFO (cache-warm), then
//!   steals FIFO from its neighbours, so one heavyweight job does not
//!   strand the rest of its queue.
//! * **No job spawns jobs.** The job list is static, so a worker may
//!   exit as soon as every deque is empty — no termination protocol
//!   beyond that.
//! * **Fault isolation.** [`Pool::run_ordered_isolated`] wraps each job
//!   in `catch_unwind`: a panicking job becomes a structured
//!   [`JobFailure`] in its own result slot and the rest of the fleet
//!   completes. Cooperative [`CancelToken`]s (flag + optional deadline)
//!   let long-running jobs be asked to stop soundly.
//!
//! ```
//! let squares = mpl_runtime::run_ordered(4, (0u64..32).collect(), |i, x| {
//!     assert_eq!(i as u64, x);
//!     x * x
//! });
//! assert_eq!(squares[7], 49);
//! ```

pub mod cancel;
pub mod deque;
pub mod gate;
pub mod pool;

pub use cancel::CancelToken;
pub use deque::StealDeque;
pub use gate::{AdmissionGate, ClientQuotas, Permit, QuotaPolicy};
pub use pool::{panic_message, run_ordered, JobFailure, Pool, PoolStats};
