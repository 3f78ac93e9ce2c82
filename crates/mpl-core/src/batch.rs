//! Parallel batch analysis: fan a corpus of independent analysis jobs
//! across a worker pool and merge the results deterministically — and
//! *fault-tolerantly*: one bad job degrades that job's record, never the
//! fleet.
//!
//! [`RequestBatch`] is the one batch API: each job is an
//! [`AnalysisRequest`] analyzed by [`crate::engine::analyze`] on whichever
//! worker picks it up. Jobs never interact — the engine is a pure
//! function of its inputs apart from two pieces of thread-local state,
//! both of which this module brings under control:
//!
//! * the **variable interner** ([`mpl_domains::VarTable`]): name indices
//!   (and hence packed `VarId`s) depend on the order names were first
//!   interned on the thread, so a worker that has already analyzed other
//!   programs carries their history. [`RequestBatch::run`] resets the
//!   calling thread's table before every attempt of every job, so each
//!   analysis starts from the identical fresh-table state no matter which
//!   worker runs it (and retries stay deterministic);
//! * the **closure counters** ([`mpl_domains::ClosureStats`]): the engine
//!   already reports per-run deltas in [`AnalysisResult::closure_stats`],
//!   which this module sums field-wise into the fleet total.
//!
//! # Fault tolerance
//!
//! The paper's framework *fails soundly*: when a pattern exceeds the
//! abstraction it returns ⊤, never a wrong answer (§VI). The batch layer
//! extends that discipline from one analysis to a fleet of them:
//!
//! * **panic isolation** — every job runs under
//!   [`mpl_runtime::Pool::run_ordered_isolated`]; a panicking job becomes
//!   a [`JobOutcome::Panicked`] record (payload text plus the worker id in
//!   [`JobRecord::panic_worker`]) while the rest of the batch completes;
//! * **cooperative deadlines** — a fleet-wide [`RequestBatch::timeout`]
//!   (overridable per request via [`AnalysisRequest::timeout`]) hands
//!   each attempt a fresh [`CancelToken`] with that deadline; the engine
//!   polls it in its worklist loop and gives up with a sound ⊤
//!   ([`TopReason::Deadline`]). Because any partial progress at expiry is
//!   wall-clock-dependent, a [`JobOutcome::TimedOut`] record carries the
//!   *normalized* bare ⊤ ([`AnalysisResult::top`]) — zero matches, zero
//!   steps — so timed-out records are byte-identical for any worker count;
//! * **retry with degradation** — with [`RequestBatch::retries`]` > 0`,
//!   a job that ⊤s on a resource budget ([`TopReason::StepBudget`] /
//!   [`TopReason::PsetBudget`]) or times out is re-run under an
//!   escalating coarsening ladder (earlier widening, fewer thresholds,
//!   smaller step budget). A retry that produces an answer yields
//!   [`JobOutcome::Degraded`]; if every attempt exhausts its budget the
//!   attempt-1 result (under the *requested* config) is reported.
//!
//! Results are collected by *submission index*, not completion order
//! (see [`mpl_runtime::Pool`]), so [`BatchResponse::responses`] is
//! byte-identical for any worker count. Only [`JobRecord::wall_nanos`],
//! [`BatchSummary::wall_nanos`] and [`JobRecord::panic_worker`] vary
//! between runs; callers that need reproducible output (golden tests,
//! corpus diffs) must exclude them.

use std::fmt;
use std::time::{Duration, Instant};

use mpl_domains::ClosureStats;
use mpl_runtime::CancelToken;

use crate::client::Client;
use crate::config::AnalysisConfig;
use crate::engine::analyze;
use crate::request::{AnalysisRequest, AnalysisResponse};
use crate::result::{AnalysisResult, TopReason, Verdict};

/// A deterministic fault injected into a batch job — the test hook for
/// the fault-tolerance machinery. Injected via
/// [`crate::AnalysisRequestBuilder::fault`]
/// or the magic corpus directive `// mpl:fault=<kind>` on its own line of
/// an `.mpl` source file (see [`Fault::from_directive`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum Fault {
    /// Panic on every attempt (directive `panic`). Exercises panic
    /// isolation: the job must become a [`JobOutcome::Panicked`] record.
    Panic,
    /// Run forever — poll the cancel token until the deadline fires
    /// (directive `spin`). Exercises the cooperative-deadline path end
    /// to end; a spin job without a configured timeout panics
    /// (deterministically) rather than hanging the fleet forever.
    Spin,
    /// Report a step-budget ⊤ on the first attempt and analyze normally
    /// on retries (directive `top-once`). Exercises the retry ladder
    /// deterministically.
    TopOnce,
}

impl Fault {
    /// Scans MPL source text for a `// mpl:fault=<kind>` directive line
    /// (`panic`, `spin`, or `top-once`). The directive is an ordinary
    /// line comment to the language, so faulted programs still parse.
    #[must_use]
    pub fn from_directive(source: &str) -> Option<Fault> {
        source.lines().find_map(
            |line| match line.trim().strip_prefix("// mpl:fault=")?.trim() {
                "panic" => Some(Fault::Panic),
                "spin" => Some(Fault::Spin),
                "top-once" => Some(Fault::TopOnce),
                _ => None,
            },
        )
    }
}

/// How one batch job ended, as a typed taxonomy mirroring
/// [`TopReason`]'s style: [`Self::code`] is the stable kebab-case tag
/// machine output uses.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobOutcome {
    /// The analysis ran to its natural end under the requested
    /// configuration (any verdict — ⊤ on a budget counts as completed
    /// when retries are off or exhausted).
    Completed,
    /// A budget-⊤ or timed-out job produced this answer on a retry under
    /// a coarsened configuration.
    Degraded {
        /// Total attempts made (≥ 2).
        attempts: u32,
    },
    /// Every attempt hit the cooperative deadline; the record carries the
    /// normalized bare ⊤.
    TimedOut,
    /// The job panicked; the fleet completed without it.
    Panicked {
        /// The panic payload, rendered to text.
        message: String,
    },
    /// The job could not even be constructed (e.g. its source failed to
    /// parse); queued via [`RequestBatch::push_error`].
    Error {
        /// Why the job never ran.
        message: String,
    },
}

impl JobOutcome {
    /// A stable, machine-readable outcome code (kebab-case, mirroring
    /// [`TopReason::code`]; used by the corpus JSON output).
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            JobOutcome::Completed => "completed",
            JobOutcome::Degraded { .. } => "degraded",
            JobOutcome::TimedOut => "timed-out",
            JobOutcome::Panicked { .. } => "panicked",
            JobOutcome::Error { .. } => "error",
        }
    }

    /// True for the two success shapes ([`Self::Completed`] /
    /// [`Self::Degraded`]) — the ones that carry a result produced by a
    /// finished analysis run.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        matches!(self, JobOutcome::Completed | JobOutcome::Degraded { .. })
    }

    /// The failure detail for [`Self::Panicked`] / [`Self::Error`]
    /// records, if any.
    #[must_use]
    pub fn detail(&self) -> Option<&str> {
        match self {
            JobOutcome::Panicked { message } | JobOutcome::Error { message } => Some(message),
            _ => None,
        }
    }
}

impl fmt::Display for JobOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobOutcome::Completed => f.write_str("completed"),
            JobOutcome::Degraded { attempts } => {
                write!(f, "degraded after {attempts} attempts")
            }
            JobOutcome::TimedOut => f.write_str("timed out"),
            JobOutcome::Panicked { message } => write!(f, "panicked: {message}"),
            JobOutcome::Error { message } => write!(f, "error: {message}"),
        }
    }
}

/// The outcome of one batch job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// The job's display name.
    pub name: String,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// The analysis result. `None` exactly when the job produced no
    /// analysis at all ([`JobOutcome::Panicked`] / [`JobOutcome::Error`]);
    /// a timed-out job carries the normalized bare ⊤.
    pub result: Option<AnalysisResult>,
    /// Wall-clock time for this job in nanoseconds, summed over retries.
    /// **Not deterministic** — excluded from reproducible output.
    pub wall_nanos: u64,
    /// For panicked records: the pool worker the job ran on.
    /// Scheduling-dependent, hence **not deterministic** — excluded from
    /// reproducible output.
    pub panic_worker: Option<usize>,
}

/// Aggregated statistics over a whole batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchSummary {
    /// Total number of jobs run (including panicked and error records).
    pub programs: usize,
    /// Jobs whose verdict was [`Verdict::Exact`].
    pub exact: usize,
    /// Jobs whose verdict was [`Verdict::Deadlock`].
    pub deadlock: usize,
    /// Jobs whose verdict was [`Verdict::Top`].
    pub top: usize,
    /// Jobs that ended [`JobOutcome::Completed`].
    pub completed: usize,
    /// Jobs that ended [`JobOutcome::Degraded`].
    pub degraded: usize,
    /// Jobs that ended [`JobOutcome::TimedOut`].
    pub timed_out: usize,
    /// Jobs that ended [`JobOutcome::Panicked`].
    pub panicked: usize,
    /// Jobs that ended [`JobOutcome::Error`] (never ran at all).
    pub errors: usize,
    /// Total message leaks found across all jobs.
    pub leaks: usize,
    /// Total send/recv matches established across all jobs.
    pub matches: usize,
    /// Total engine steps across all jobs.
    pub steps: u64,
    /// Sum of per-job wall times in nanoseconds (CPU work, not batch
    /// wall time). **Not deterministic.**
    pub wall_nanos: u64,
    /// Field-wise merge of every job's closure counters.
    pub closure: ClosureStats,
}

impl BatchSummary {
    /// Folds one record into the summary.
    fn absorb(&mut self, record: &JobRecord) {
        self.programs += 1;
        match &record.outcome {
            JobOutcome::Completed => self.completed += 1,
            JobOutcome::Degraded { .. } => self.degraded += 1,
            JobOutcome::TimedOut => self.timed_out += 1,
            JobOutcome::Panicked { .. } => self.panicked += 1,
            JobOutcome::Error { .. } => self.errors += 1,
        }
        if let Some(result) = &record.result {
            match &result.verdict {
                Verdict::Exact => self.exact += 1,
                Verdict::Deadlock { .. } => self.deadlock += 1,
                Verdict::Top { .. } => self.top += 1,
            }
            self.leaks += result.leaks.len();
            self.matches += result.matches.len();
            self.steps += result.steps;
            self.closure.merge(&result.closure_stats);
        }
        self.wall_nanos += record.wall_nanos;
    }

    /// Jobs that did not produce a finished analysis: timed out,
    /// panicked, or failed to load.
    #[must_use]
    pub fn failures(&self) -> usize {
        self.timed_out + self.panicked + self.errors
    }
}

/// A queued unit: either a runnable request or a pre-failed record (e.g.
/// a corpus file that did not parse) that flows through in order.
#[derive(Debug)]
enum JobInput {
    Request(Box<AnalysisRequest>),
    Error {
        name: String,
        message: String,
        client: Client,
    },
}

/// A batch of [`AnalysisRequest`]s run across a worker pool, one
/// [`AnalysisResponse`] per request in submission order.
///
/// Deadlines and retries are fleet-level here ([`Self::timeout`] /
/// [`Self::retries`]); a request's own `timeout` still overrides the
/// fleet deadline per job, but per-request `retries` are ignored in batch
/// mode (the fleet ladder applies uniformly so the report stays
/// deterministic).
///
/// ```
/// use mpl_core::{AnalysisRequest, RequestBatch};
/// use mpl_lang::corpus;
///
/// let mut batch = RequestBatch::new().workers(4);
/// for prog in corpus::all() {
///     let request = AnalysisRequest::builder()
///         .name(prog.name)
///         .program(prog.program)
///         .build()
///         .expect("valid request");
///     batch.push(request);
/// }
/// let done = batch.run();
/// assert_eq!(done.summary.programs, corpus::all().len());
/// assert_eq!(done.summary.completed, corpus::all().len());
/// ```
#[derive(Debug)]
pub struct RequestBatch {
    jobs: Vec<JobInput>,
    workers: usize,
    timeout: Option<Duration>,
    retries: u32,
}

impl Default for RequestBatch {
    fn default() -> RequestBatch {
        RequestBatch::new()
    }
}

impl RequestBatch {
    /// An empty batch that will run inline (one worker), with no
    /// deadline and no retries.
    #[must_use]
    pub fn new() -> RequestBatch {
        RequestBatch {
            jobs: Vec::new(),
            workers: 1,
            timeout: None,
            retries: 0,
        }
    }

    /// Sets the worker count (clamped to at least 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> RequestBatch {
        self.workers = workers.max(1);
        self
    }

    /// Sets the fleet-wide per-job deadline. Each attempt of each job
    /// gets a fresh [`CancelToken`] with this deadline; a request's own
    /// [`AnalysisRequest::timeout`] overrides it.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> RequestBatch {
        self.timeout = Some(timeout);
        self
    }

    /// Sets how many degraded retries a budget-⊤ or timed-out job gets
    /// (0, the default, disables the ladder).
    #[must_use]
    pub fn retries(mut self, retries: u32) -> RequestBatch {
        self.retries = retries;
        self
    }

    /// Appends a request. Requests run (logically) in insertion order
    /// and their responses appear in the same order.
    pub fn push(&mut self, request: AnalysisRequest) {
        self.jobs.push(JobInput::Request(Box::new(request)));
    }

    /// Appends a pre-failed record — a request that could not even be
    /// built (unparseable source, bad knobs). It occupies its submission
    /// slot as a [`JobOutcome::Error`] response rendered under `client`
    /// instead of aborting the batch.
    pub fn push_error(
        &mut self,
        name: impl Into<String>,
        message: impl Into<String>,
        client: Client,
    ) {
        self.jobs.push(JobInput::Error {
            name: name.into(),
            message: message.into(),
            client,
        });
    }

    /// Number of queued requests (including pre-failed records).
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if no requests are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs every request across the worker pool and merges the results.
    ///
    /// Deterministic: apart from the wall-time and worker-id fields, the
    /// response is identical for any worker count. No panic escapes this
    /// call — a panicking job becomes its own [`JobOutcome::Panicked`]
    /// record.
    #[must_use]
    pub fn run(self) -> BatchResponse {
        let workers = self.workers;
        let fleet_timeout = self.timeout;
        let retries = self.retries;

        // Pre-failed records keep their submission slots; runnable
        // requests go to the pool tagged with their original index.
        // Names and clients survive outside the pool so a panicked job
        // (whose closure state is lost) can still be named and rendered.
        let mut slots: Vec<Option<JobRecord>> = Vec::with_capacity(self.jobs.len());
        let mut clients = Vec::with_capacity(self.jobs.len());
        let mut names = Vec::new();
        let mut runnable = Vec::new();
        for (index, input) in self.jobs.into_iter().enumerate() {
            match input {
                JobInput::Request(request) => {
                    clients.push(request.config.client);
                    names.push((index, request.name.clone().unwrap_or_default()));
                    runnable.push((index, request));
                    slots.push(None);
                }
                JobInput::Error {
                    name,
                    message,
                    client,
                } => {
                    clients.push(client);
                    slots.push(Some(JobRecord {
                        name,
                        outcome: JobOutcome::Error { message },
                        result: None,
                        wall_nanos: 0,
                        panic_worker: None,
                    }));
                }
            }
        }

        let pool = mpl_runtime::Pool::new(workers);
        let (results, _stats) = pool.run_ordered_isolated(runnable, |_, (index, request)| {
            let start = Instant::now();
            let (outcome, result) = run_job(&request, fleet_timeout, retries);
            (
                index,
                JobRecord {
                    name: request.name.unwrap_or_default(),
                    outcome,
                    result,
                    wall_nanos: start.elapsed().as_nanos() as u64,
                    panic_worker: None,
                },
            )
        });
        for (slot, outcome) in results.into_iter().enumerate() {
            match outcome {
                Ok((index, record)) => slots[index] = Some(record),
                Err(failure) => {
                    let (index, name) = &names[slot];
                    slots[*index] = Some(JobRecord {
                        name: name.clone(),
                        outcome: JobOutcome::Panicked {
                            message: failure.message,
                        },
                        result: None,
                        wall_nanos: 0,
                        panic_worker: Some(failure.worker),
                    });
                }
            }
        }

        let mut summary = BatchSummary::default();
        let responses = slots
            .into_iter()
            .zip(clients)
            .map(|(slot, client)| {
                let record = slot.expect("every job slot filled exactly once");
                summary.absorb(&record);
                AnalysisResponse::from_record(record, client)
            })
            .collect();
        BatchResponse {
            responses,
            summary,
            workers,
        }
    }
}

/// A completed [`RequestBatch`].
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BatchResponse {
    /// One response per request, in submission order.
    pub responses: Vec<AnalysisResponse>,
    /// Aggregated statistics.
    pub summary: BatchSummary,
    /// Number of workers the batch ran with.
    pub workers: usize,
}

/// The degradation ladder: attempt 1 is the requested configuration;
/// every later attempt widens sooner (halved delay), snaps through half
/// as many thresholds, and burns a quarter of the step budget — so a job
/// that timed out converges (or fails fast with a sound budget-⊤)
/// instead of timing out again. A pure function of `(config, attempt)`,
/// so retries are deterministic.
fn degrade(config: &AnalysisConfig, attempt: u32) -> AnalysisConfig {
    let mut coarse = config.clone();
    if attempt <= 1 {
        return coarse;
    }
    let level = (attempt - 1).min(31);
    coarse.widen_delay >>= level;
    let keep = coarse.widen_thresholds.len() >> level;
    coarse.widen_thresholds.truncate(keep);
    coarse.max_steps = (coarse.max_steps >> (2 * u64::from(level)).min(63)).max(1_000);
    coarse
}

/// How a finished attempt steers the retry loop.
enum AttemptClass {
    /// The deadline fired: retry (degraded) or report `TimedOut`.
    Deadline,
    /// A resource-budget ⊤: retry (degraded) or keep the attempt-1 answer.
    Budget,
    /// A definitive answer (exact, deadlock, or a non-budget ⊤).
    Final,
}

fn classify(result: &AnalysisResult) -> AttemptClass {
    match &result.verdict {
        Verdict::Top {
            reason: TopReason::Deadline,
        } => AttemptClass::Deadline,
        Verdict::Top {
            reason: TopReason::StepBudget | TopReason::PsetBudget { .. },
        } => AttemptClass::Budget,
        _ => AttemptClass::Final,
    }
}

/// Runs one request through the attempt ladder: its own timeout (else
/// `fleet_timeout`) bounds each attempt, and `retries` degraded retries
/// follow a budget-⊤ or deadline. Panics (including injected
/// [`Fault::Panic`]) unwind out of here and are caught by the pool's
/// isolation layer — or, for single-request execution, by the
/// `catch_unwind` in [`AnalysisRequest::execute`].
pub(crate) fn run_job(
    request: &AnalysisRequest,
    fleet_timeout: Option<Duration>,
    retries: u32,
) -> (JobOutcome, Option<AnalysisResult>) {
    let name = request.name.as_deref().unwrap_or_default();
    let timeout = request.timeout.or(fleet_timeout);
    let max_attempts = retries.saturating_add(1);
    // The attempt-1 budget-⊤ result, kept so exhausted retries still
    // report the answer produced under the *requested* configuration.
    let mut requested_top: Option<AnalysisResult> = None;
    for attempt in 1..=max_attempts {
        // Fresh interner per attempt: VarId assignment must not depend
        // on prior attempts or on which jobs this worker ran before.
        mpl_domains::reset_table();
        let token = timeout.map(CancelToken::with_deadline);
        let result = match request.fault {
            Some(Fault::Panic) => {
                panic!("injected fault: job `{name}` panics by directive")
            }
            Some(Fault::Spin) => {
                let Some(token) = &token else {
                    // Spinning with no deadline would hang the worker
                    // forever; fail deterministically instead.
                    panic!("injected fault: job `{name}` spins but no timeout is configured");
                };
                // Sleep-poll rather than busy-wait: the fault models a
                // job that never finishes, and must not starve the
                // fleet's real jobs of CPU on small machines.
                while !token.is_cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                AnalysisResult::top(TopReason::Deadline)
            }
            Some(Fault::TopOnce) if attempt == 1 => AnalysisResult::top(TopReason::StepBudget),
            _ => {
                let mut config = degrade(&request.config, attempt);
                config.cancel = token;
                analyze(&request.program, &config)
            }
        };
        match classify(&result) {
            AttemptClass::Deadline => {
                if attempt >= max_attempts {
                    // Normalized bare ⊤: partial progress at expiry is
                    // wall-clock-dependent and must not leak into
                    // deterministic output.
                    return (
                        JobOutcome::TimedOut,
                        Some(AnalysisResult::top(TopReason::Deadline)),
                    );
                }
            }
            AttemptClass::Budget => {
                if attempt >= max_attempts {
                    return match requested_top {
                        // Prefer the budget-⊤ computed under the
                        // requested config over a coarsened one.
                        Some(original) => (JobOutcome::Completed, Some(original)),
                        None if attempt == 1 => (JobOutcome::Completed, Some(result)),
                        // Attempt 1 timed out; this coarsened budget-⊤
                        // is still the best sound answer available.
                        None => (JobOutcome::Degraded { attempts: attempt }, Some(result)),
                    };
                }
                if attempt == 1 {
                    requested_top = Some(result);
                }
            }
            AttemptClass::Final => {
                let outcome = if attempt == 1 {
                    JobOutcome::Completed
                } else {
                    JobOutcome::Degraded { attempts: attempt }
                };
                return (outcome, Some(result));
            }
        }
    }
    unreachable!("the attempt loop returns on its final attempt")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpl_lang::ast::Program;
    use mpl_lang::corpus;

    /// A default-config request for `program`, optionally faulted.
    fn request(name: &str, program: Program, fault: Option<Fault>) -> AnalysisRequest {
        let mut builder = AnalysisRequest::builder().name(name).program(program);
        if let Some(fault) = fault {
            builder = builder.fault(fault);
        }
        builder.build().expect("valid request")
    }

    fn corpus_batch(workers: usize) -> BatchResponse {
        let mut batch = RequestBatch::new().workers(workers);
        for prog in corpus::all() {
            batch.push(request(prog.name, prog.program, None));
        }
        batch.run()
    }

    fn name(r: &AnalysisResponse) -> &str {
        r.name.as_deref().unwrap_or_default()
    }

    /// Strips the non-deterministic fields for comparison.
    fn fingerprint(report: &BatchResponse) -> Vec<String> {
        report
            .responses
            .iter()
            .map(|r| match &r.result {
                Some(res) => format!(
                    "{} [{}] {:?} matches={:?} leaks={:?} steps={} closure=({},{},{},{})",
                    name(r),
                    r.outcome.code(),
                    res.verdict,
                    res.matches,
                    res.leaks,
                    res.steps,
                    res.closure_stats.full_closures,
                    res.closure_stats.full_closure_vars,
                    res.closure_stats.incremental_closures,
                    res.closure_stats.incremental_closure_vars,
                ),
                None => format!("{} [{}] {:?}", name(r), r.outcome.code(), r.outcome),
            })
            .collect()
    }

    #[test]
    fn records_preserve_submission_order() {
        let report = corpus_batch(4);
        let names: Vec<&str> = report.responses.iter().map(name).collect();
        let expected: Vec<&str> = corpus::all().iter().map(|p| p.name).collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn parallel_matches_sequential() {
        let seq = fingerprint(&corpus_batch(1));
        for workers in [2, 4, 8] {
            let par = fingerprint(&corpus_batch(workers));
            assert_eq!(seq, par, "corpus results diverged at {workers} workers");
        }
    }

    #[test]
    fn summary_counts_are_consistent() {
        let report = corpus_batch(3);
        let s = report.summary;
        assert_eq!(s.programs, corpus::all().len());
        assert_eq!(s.programs, s.exact + s.deadlock + s.top);
        assert_eq!(s.programs, s.completed, "fault-free corpus completes");
        assert_eq!(s.failures(), 0);
        let results = || report.responses.iter().filter_map(|r| r.result.as_ref());
        assert_eq!(
            s.matches,
            results().map(|res| res.matches.len()).sum::<usize>()
        );
        assert_eq!(s.steps, results().map(|res| res.steps).sum::<u64>());
        assert!(s.exact > 0, "corpus should contain exact programs");
        assert!(s.closure.full_closures > 0 || s.closure.incremental_closures > 0);
    }

    #[test]
    fn empty_batch_yields_empty_report() {
        let report = RequestBatch::new().workers(8).run();
        assert!(report.responses.is_empty());
        assert_eq!(report.summary, BatchSummary::default());
        assert_eq!(report.workers, 8);
    }

    #[test]
    fn panicking_job_is_isolated_and_named() {
        let good = corpus::fig2_exchange().program;
        for workers in [1usize, 4] {
            let mut batch = RequestBatch::new().workers(workers);
            batch.push(request("before", good.clone(), None));
            batch.push(request("poison", good.clone(), Some(Fault::Panic)));
            batch.push(request("after", good.clone(), None));
            let report = batch.run();
            let names: Vec<&str> = report.responses.iter().map(name).collect();
            assert_eq!(names, ["before", "poison", "after"]);
            let poison = &report.responses[1];
            assert!(matches!(poison.outcome, JobOutcome::Panicked { .. }));
            assert!(
                poison.outcome.detail().unwrap().contains("injected fault"),
                "{:?}",
                poison.outcome
            );
            assert!(poison.result.is_none());
            assert!(report.responses[0].outcome.is_ok());
            assert!(report.responses[2].outcome.is_ok());
            assert_eq!(report.summary.panicked, 1);
            assert_eq!(report.summary.completed, 2);
        }
    }

    #[test]
    fn spinning_job_times_out_with_normalized_top() {
        let fingerprint_at = |workers: usize| {
            let mut batch = RequestBatch::new()
                .workers(workers)
                .timeout(Duration::from_millis(50));
            let good = corpus::fig2_exchange().program;
            batch.push(request("good", good.clone(), None));
            batch.push(request("spinner", good, Some(Fault::Spin)));
            let report = batch.run();
            let spinner = &report.responses[1];
            assert_eq!(spinner.outcome, JobOutcome::TimedOut);
            let result = spinner.result.as_ref().unwrap();
            assert!(matches!(
                result.verdict,
                Verdict::Top {
                    reason: TopReason::Deadline
                }
            ));
            assert_eq!(result.steps, 0, "normalized ⊤ reports no progress");
            assert_eq!(report.summary.timed_out, 1);
            fingerprint(&report)
        };
        assert_eq!(fingerprint_at(1), fingerprint_at(8));
    }

    #[test]
    fn spin_without_timeout_panics_deterministically() {
        let good = corpus::fig2_exchange().program;
        let mut batch = RequestBatch::new();
        batch.push(request("spinner", good, Some(Fault::Spin)));
        let report = batch.run();
        let rec = &report.responses[0];
        assert!(matches!(rec.outcome, JobOutcome::Panicked { .. }));
        assert!(rec
            .outcome
            .detail()
            .unwrap()
            .contains("no timeout is configured"));
    }

    #[test]
    fn top_once_fault_degrades_with_retry_and_completes_without() {
        let good = corpus::fig2_exchange().program;
        // Without retries: the injected budget-⊤ is the final answer.
        let mut batch = RequestBatch::new();
        batch.push(request("flaky", good.clone(), Some(Fault::TopOnce)));
        let report = batch.run();
        assert_eq!(report.responses[0].outcome, JobOutcome::Completed);
        assert!(matches!(
            report.responses[0].result.as_ref().unwrap().verdict,
            Verdict::Top {
                reason: TopReason::StepBudget
            }
        ));
        // With one retry: attempt 2 analyzes for real and recovers.
        let mut batch = RequestBatch::new().retries(1);
        batch.push(request("flaky", good, Some(Fault::TopOnce)));
        let report = batch.run();
        assert_eq!(
            report.responses[0].outcome,
            JobOutcome::Degraded { attempts: 2 }
        );
        let result = report.responses[0].result.as_ref().unwrap();
        assert!(result.is_exact(), "{:?}", result.verdict);
        assert_eq!(report.summary.degraded, 1);
    }

    #[test]
    fn retry_ladder_is_deterministic_across_worker_counts() {
        let build = |workers: usize| {
            let mut batch = RequestBatch::new().workers(workers).retries(2);
            for prog in corpus::all() {
                batch.push(request(prog.name, prog.program, None));
            }
            let flaky = corpus::fig2_exchange().program;
            batch.push(request("flaky", flaky, Some(Fault::TopOnce)));
            batch.run()
        };
        let seq = fingerprint(&build(1));
        for workers in [4, 8] {
            assert_eq!(seq, fingerprint(&build(workers)), "diverged at {workers}");
        }
    }

    #[test]
    fn exhausted_retries_report_the_requested_config_answer() {
        // A pset-budget ⊤ that no coarsening fixes: the record must carry
        // the attempt-1 result (budget ⊤ under max_psets=1), outcome
        // Completed, not Degraded.
        let cramped = AnalysisRequest::builder()
            .name("cramped")
            .program(corpus::nearest_neighbor_shift().program)
            .max_psets(1)
            .build()
            .expect("valid request");
        let mut batch = RequestBatch::new().retries(2);
        batch.push(cramped);
        let report = batch.run();
        let rec = &report.responses[0];
        assert_eq!(rec.outcome, JobOutcome::Completed);
        assert!(matches!(
            rec.result.as_ref().unwrap().verdict,
            Verdict::Top {
                reason: TopReason::PsetBudget { max: 1 }
            }
        ));
    }

    #[test]
    fn error_records_flow_through_in_order() {
        let good = corpus::fig2_exchange().program;
        let mut batch = RequestBatch::new().workers(4);
        batch.push(request("first", good.clone(), None));
        batch.push_error(
            "broken",
            "parse error at line 3: expected expression",
            Client::default(),
        );
        batch.push(request("last", good, None));
        assert_eq!(batch.len(), 3);
        let report = batch.run();
        let names: Vec<&str> = report.responses.iter().map(name).collect();
        assert_eq!(names, ["first", "broken", "last"]);
        assert!(matches!(
            report.responses[1].outcome,
            JobOutcome::Error { .. }
        ));
        assert!(report.responses[1].result.is_none());
        assert_eq!(report.summary.errors, 1);
        assert_eq!(report.summary.programs, 3);
        assert_eq!(report.summary.failures(), 1);
    }

    #[test]
    fn fault_directives_parse_from_source_comments() {
        assert_eq!(
            Fault::from_directive("x := 1;\n// mpl:fault=panic\n"),
            Some(Fault::Panic)
        );
        assert_eq!(
            Fault::from_directive("  // mpl:fault=spin\nx := 1;\n"),
            Some(Fault::Spin)
        );
        assert_eq!(
            Fault::from_directive("// mpl:fault=top-once\n"),
            Some(Fault::TopOnce)
        );
        assert_eq!(Fault::from_directive("// mpl:fault=unknown\n"), None);
        assert_eq!(Fault::from_directive("x := 1;\n"), None);
    }

    #[test]
    fn degradation_ladder_is_monotone_and_saturating() {
        let base = AnalysisConfig::default();
        let a1 = degrade(&base, 1);
        assert_eq!(a1.widen_delay, base.widen_delay);
        assert_eq!(a1.max_steps, base.max_steps);
        let a2 = degrade(&base, 2);
        assert!(a2.widen_delay <= a1.widen_delay);
        assert!(a2.widen_thresholds.len() <= a1.widen_thresholds.len());
        assert!(a2.max_steps <= a1.max_steps);
        // Deep attempts saturate instead of overflowing.
        let deep = degrade(&base, 40);
        assert_eq!(deep.widen_delay, 0);
        assert!(deep.widen_thresholds.is_empty());
        assert_eq!(deep.max_steps, 1_000);
    }

    #[test]
    fn outcome_codes_are_stable_kebab_case() {
        assert_eq!(JobOutcome::Completed.code(), "completed");
        assert_eq!(JobOutcome::Degraded { attempts: 2 }.code(), "degraded");
        assert_eq!(JobOutcome::TimedOut.code(), "timed-out");
        let panicked = JobOutcome::Panicked {
            message: "boom".to_owned(),
        };
        assert_eq!(panicked.code(), "panicked");
        assert_eq!(panicked.to_string(), "panicked: boom");
        let error = JobOutcome::Error {
            message: "bad file".to_owned(),
        };
        assert_eq!(error.code(), "error");
        assert!(!error.is_ok());
        assert!(JobOutcome::Completed.is_ok());
    }
}
