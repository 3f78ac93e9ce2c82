//! The unified request/response API: every way of asking this workspace
//! for an analysis — `mpl analyze`, `mpl analyze-corpus`, the `mpl
//! serve` daemon — builds an [`AnalysisRequest`] and renders an
//! [`AnalysisResponse`].
//!
//! The point of funneling all entry points through one pair of types is
//! **byte-identity**: a response must render to the same bytes whether
//! it was computed cold by `mpl analyze --json`, computed cold by the
//! daemon, or replayed from the daemon's result cache. That is what
//! makes the cache testable (diff the bytes) and what makes cached
//! answers trustworthy (there is no "cached rendering" that can drift
//! from the real one). Consequences:
//!
//! * response bodies carry no request ids, no cache status, and no
//!   timestamps; timing fields are opt-in (`timing`) and explicitly
//!   nondeterministic, so cacheable paths never request them;
//! * the `name` field is optional and omitted when absent, so an
//!   anonymous daemon request renders exactly like `mpl analyze --json`;
//! * every record starts with the protocol version field `"v"`
//!   ([`PROTOCOL_VERSION`]) and uses the stable kebab-case codes from
//!   [`Verdict::code`], [`TopReason::code`](crate::result::TopReason::code)
//!   and [`JobOutcome::code`].
//!
//! Requests are also the **cache identity**: [`AnalysisRequest::fingerprint`]
//! hashes [`AnalysisRequest::cache_check`] — the full configuration
//! signature plus the *normalized* program (rendered from its AST, so
//! formatting differences cannot cause spurious misses) — with
//! [`mpl_domains::splitmix64`]. The check string itself is stored next
//! to every cache entry; see [`crate::cache`] for why a 64-bit key alone
//! is never trusted.
//!
//! Construction is builder-only ([`AnalysisRequest::builder`]) and
//! validating: malformed inputs become typed [`RequestError`]s
//! (mirroring [`ConfigError`]) instead of panics or silently-defaulted
//! knobs.

use std::fmt;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mpl_lang::ast::Program;
use mpl_lang::parse_program;

use crate::batch::{run_job, BatchSummary, Fault, JobOutcome, JobRecord};
use crate::client::Client;
use crate::config::{AnalysisConfig, AnalysisConfigBuilder, ConfigError};
use crate::json::json_escape;
use crate::result::{AnalysisResult, Verdict};

/// Version of the JSON wire format. Stamped as `"v"` on every record
/// (program lines, summaries, and all daemon responses) so clients can
/// detect incompatible servers instead of misparsing them.
pub const PROTOCOL_VERSION: i64 = 1;

/// A rejected [`AnalysisRequestBuilder`] input — the request-level
/// analogue of [`ConfigError`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RequestError {
    /// Neither a program AST nor source text was supplied.
    MissingProgram,
    /// The supplied source text failed to parse.
    Parse {
        /// The parser's error message.
        message: String,
    },
    /// The client tag named no known client analysis (see
    /// [`Client::from_tag`]).
    UnknownClient {
        /// The unrecognized tag.
        tag: String,
    },
    /// The configuration knobs failed validation.
    Config(ConfigError),
}

impl fmt::Display for RequestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RequestError::MissingProgram => f.write_str("no program or source given"),
            RequestError::Parse { message } => write!(f, "{message}"),
            RequestError::UnknownClient { tag } => write!(f, "unknown client `{tag}`"),
            RequestError::Config(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for RequestError {}

impl From<ConfigError> for RequestError {
    fn from(e: ConfigError) -> RequestError {
        RequestError::Config(e)
    }
}

impl RequestError {
    /// A stable kebab-case code for the wire protocol's `error` records.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            RequestError::MissingProgram => "missing-program",
            RequestError::Parse { .. } => "parse-error",
            RequestError::UnknownClient { .. } => "unknown-client",
            RequestError::Config(_) => "bad-config",
        }
    }
}

/// One validated analysis request: a program, the configuration to run
/// it under, and the execution policy (deadline, retry ladder, injected
/// fault). Construct via [`AnalysisRequest::builder`]; the struct is
/// `#[non_exhaustive]` so fields stay readable while construction is
/// reserved to the validating builder.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AnalysisRequest {
    /// Optional display name. Part of the cache identity because it is
    /// rendered into the response (and into injected-fault panic
    /// messages).
    pub name: Option<String>,
    /// The program to analyze.
    pub program: Program,
    /// Validated engine configuration.
    pub config: AnalysisConfig,
    /// Cooperative deadline for each attempt.
    pub timeout: Option<Duration>,
    /// Degraded retries after a budget-⊤ or deadline (the batch layer's
    /// ladder; see [`crate::batch`]).
    pub retries: u32,
    /// Deterministic fault injection (tests and smoke runs only).
    pub fault: Option<Fault>,
}

impl AnalysisRequest {
    /// A builder with nothing set: defaults come from
    /// [`AnalysisConfig::default`] at [`AnalysisRequestBuilder::build`]
    /// time.
    #[must_use]
    pub fn builder() -> AnalysisRequestBuilder {
        AnalysisRequestBuilder::default()
    }

    /// The canonical program text: the AST rendered back to source, so
    /// two differently-formatted inputs of the same program normalize to
    /// the same string (and hence the same cache identity).
    #[must_use]
    pub fn normalized_program(&self) -> String {
        self.program.to_string()
    }

    /// The full cache identity as a string: every knob that can change
    /// the rendered response, followed by the normalized program. Two
    /// requests with equal check strings produce byte-identical
    /// responses; the cache stores this string next to each entry and
    /// verifies it on every hit (collision safety — see
    /// [`crate::cache::ResultCache::lookup`]).
    #[must_use]
    pub fn cache_check(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        let _ = write!(
            out,
            "name={};client={};min_np={};max_steps={};max_psets={};pending={};\
             widen_delay={};thresholds=",
            self.name.as_deref().unwrap_or(""),
            c.client.tag(),
            c.min_np,
            c.max_steps,
            c.max_psets,
            c.allow_pending_sends,
            c.widen_delay,
        );
        for (i, t) in c.widen_thresholds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{t}");
        }
        let _ = write!(
            out,
            ";trace={};timeout_nanos={};retries={};fault={}\n{}",
            c.trace,
            self.timeout.map_or(0, |t| t.as_nanos()),
            self.retries,
            match self.fault {
                None => "none",
                Some(Fault::Panic) => "panic",
                Some(Fault::Spin) => "spin",
                Some(Fault::TopOnce) => "top-once",
                // `Fault` is non_exhaustive-in-spirit; an unknown future
                // variant must not silently alias `none`.
                #[allow(unreachable_patterns)]
                Some(_) => "other",
            },
            self.normalized_program(),
        );
        out
    }

    /// 64-bit content hash of [`Self::cache_check`], chained through
    /// [`mpl_domains::splitmix64`] — the same mixing function behind the
    /// engine's structural state fingerprints. Used as the cache key;
    /// never trusted without the check string.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        let check = self.cache_check();
        let mut h = 0x9E37_79B9_7F4A_7C15u64;
        for chunk in check.as_bytes().chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            h = mpl_domains::splitmix64(h ^ u64::from_le_bytes(buf));
        }
        mpl_domains::splitmix64(h ^ check.len() as u64)
    }

    /// Executes the request on the calling thread with the full batch
    /// discipline — fresh interner per attempt, cooperative deadline,
    /// retry ladder — and panic isolation: an unwinding analysis becomes
    /// a [`JobOutcome::Panicked`] response, exactly as it would in a
    /// [`crate::RequestBatch`] fleet.
    #[must_use]
    pub fn execute(&self) -> AnalysisResponse {
        let start = Instant::now();
        let caught = catch_unwind(AssertUnwindSafe(|| run_job(self, None, self.retries)));
        let wall_nanos = start.elapsed().as_nanos() as u64;
        let (outcome, result) = match caught {
            Ok((outcome, result)) => (outcome, result),
            Err(payload) => (
                JobOutcome::Panicked {
                    message: mpl_runtime::panic_message(payload.as_ref()),
                },
                None,
            ),
        };
        AnalysisResponse {
            name: self.name.clone(),
            client: self.config.client,
            outcome,
            result,
            wall_nanos,
            panic_worker: None,
        }
    }
}

/// Validating builder for [`AnalysisRequest`].
///
/// ```
/// use mpl_core::{AnalysisRequest, Client};
///
/// let request = AnalysisRequest::builder()
///     .source("x := 1;")
///     .client(Client::Simple)
///     .min_np(8)
///     .build()
///     .expect("valid request");
/// assert_eq!(request.config.min_np, 8);
/// assert!(AnalysisRequest::builder().build().is_err()); // no program
/// ```
#[derive(Debug, Clone, Default)]
pub struct AnalysisRequestBuilder {
    name: Option<String>,
    source: Option<String>,
    program: Option<Program>,
    base: Option<AnalysisConfig>,
    client: Option<Client>,
    client_tag: Option<String>,
    min_np: Option<i64>,
    max_steps: Option<u64>,
    max_psets: Option<usize>,
    widen_delay: Option<u32>,
    timeout: Option<Duration>,
    retries: u32,
    fault: Option<Fault>,
    honor_fault_directive: bool,
}

impl AnalysisRequestBuilder {
    /// Sets the display name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets the program as source text (parsed — and its fault
    /// directives scanned, when enabled — at build time).
    #[must_use]
    pub fn source(mut self, source: impl Into<String>) -> Self {
        self.source = Some(source.into());
        self
    }

    /// Sets the program as an already-parsed AST (wins over
    /// [`Self::source`]).
    #[must_use]
    pub fn program(mut self, program: Program) -> Self {
        self.program = Some(program);
        self
    }

    /// Seeds the configuration from an existing [`AnalysisConfig`]
    /// instead of the defaults (the daemon's server-side defaults, for
    /// example). Per-knob setters below still override it.
    #[must_use]
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.base = Some(config);
        self
    }

    /// Sets the client analysis.
    #[must_use]
    pub fn client(mut self, client: Client) -> Self {
        self.client = Some(client);
        self
    }

    /// Sets the client analysis by its wire tag (`simple` /
    /// `cartesian`), validated at build time.
    #[must_use]
    pub fn client_tag(mut self, tag: impl Into<String>) -> Self {
        self.client_tag = Some(tag.into());
        self
    }

    /// Sets the assumed lower bound on `np`.
    #[must_use]
    pub fn min_np(mut self, min_np: i64) -> Self {
        self.min_np = Some(min_np);
        self
    }

    /// Sets the engine step budget.
    #[must_use]
    pub fn max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = Some(max_steps);
        self
    }

    /// Sets the pCFG node-width budget.
    #[must_use]
    pub fn max_psets(mut self, max_psets: usize) -> Self {
        self.max_psets = Some(max_psets);
        self
    }

    /// Sets the widening delay.
    #[must_use]
    pub fn widen_delay(mut self, widen_delay: u32) -> Self {
        self.widen_delay = Some(widen_delay);
        self
    }

    /// Sets the cooperative per-attempt deadline.
    #[must_use]
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Clears any previously-set deadline (the wire protocol's
    /// `timeout_ms: 0` — "no deadline", overriding a server default).
    #[must_use]
    pub fn no_timeout(mut self) -> Self {
        self.timeout = None;
        self
    }

    /// Sets the degraded-retry count.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Injects a deterministic fault.
    #[must_use]
    pub fn fault(mut self, fault: Fault) -> Self {
        self.fault = Some(fault);
        self
    }

    /// When enabled, `// mpl:fault=<kind>` directives in the source text
    /// are honored (the corpus-directory and daemon behaviour; off by
    /// default so `mpl analyze` runs what it is given).
    #[must_use]
    pub fn honor_fault_directive(mut self, honor: bool) -> Self {
        self.honor_fault_directive = honor;
        self
    }

    /// Validates and produces the request.
    ///
    /// # Errors
    ///
    /// [`RequestError::MissingProgram`] when neither program nor source
    /// was given, [`RequestError::Parse`] on bad source,
    /// [`RequestError::UnknownClient`] on a bad client tag, and
    /// [`RequestError::Config`] when the knob combination fails
    /// [`AnalysisConfigBuilder::build`].
    pub fn build(self) -> Result<AnalysisRequest, RequestError> {
        let program = match (self.program, &self.source) {
            (Some(program), _) => program,
            (None, Some(source)) => parse_program(source).map_err(|e| RequestError::Parse {
                message: e.to_string(),
            })?,
            (None, None) => return Err(RequestError::MissingProgram),
        };
        let client = match (self.client, self.client_tag) {
            (Some(client), _) => Some(client),
            (None, Some(tag)) => {
                Some(Client::from_tag(&tag).ok_or(RequestError::UnknownClient { tag })?)
            }
            (None, None) => None,
        };
        let mut cb = AnalysisConfigBuilder::from_config(self.base.unwrap_or_default());
        if let Some(client) = client {
            cb = cb.client(client);
        }
        if let Some(min_np) = self.min_np {
            cb = cb.min_np(min_np);
        }
        if let Some(max_steps) = self.max_steps {
            cb = cb.max_steps(max_steps);
        }
        if let Some(max_psets) = self.max_psets {
            cb = cb.max_psets(max_psets);
        }
        if let Some(widen_delay) = self.widen_delay {
            cb = cb.widen_delay(widen_delay);
        }
        let config = cb.build()?;
        let fault = self.fault.or_else(|| {
            if self.honor_fault_directive {
                self.source.as_deref().and_then(Fault::from_directive)
            } else {
                None
            }
        });
        Ok(AnalysisRequest {
            name: self.name,
            program,
            config,
            timeout: self.timeout,
            retries: self.retries,
            fault,
        })
    }
}

/// The answer to one [`AnalysisRequest`], renderable to the stable wire
/// format. `#[non_exhaustive]` for the same reason as the request.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct AnalysisResponse {
    /// The request's display name, echoed back (omitted from rendered
    /// output when absent).
    pub name: Option<String>,
    /// The client analysis that ran.
    pub client: Client,
    /// How the job ended.
    pub outcome: JobOutcome,
    /// The analysis result; `None` exactly when no analysis ran
    /// (panicked / error records).
    pub result: Option<AnalysisResult>,
    /// Wall-clock nanoseconds. **Not deterministic** — rendered only
    /// with `timing`.
    pub wall_nanos: u64,
    /// Pool worker id for fleet-panicked records. **Not deterministic.**
    pub panic_worker: Option<usize>,
}

/// Renders a verdict as its stable tag plus the optional ⊤-cause code.
fn verdict_tag(verdict: &Verdict) -> (&'static str, Option<&'static str>) {
    match verdict {
        Verdict::Top { reason } => (verdict.code(), Some(reason.code())),
        other => (other.code(), None),
    }
}

/// Compact `send->recv` topology listing (deterministic: the match set
/// is ordered).
fn topology_list(result: &AnalysisResult) -> Vec<String> {
    result
        .matches
        .iter()
        .map(|(s, r)| format!("{s}->{r}"))
        .collect()
}

impl AnalysisResponse {
    /// Wraps a batch [`JobRecord`] (which does not know its client) into
    /// a response. An empty record name maps to `None`.
    #[must_use]
    pub fn from_record(record: JobRecord, client: Client) -> AnalysisResponse {
        AnalysisResponse {
            name: (!record.name.is_empty()).then_some(record.name),
            client,
            outcome: record.outcome,
            result: record.result,
            wall_nanos: record.wall_nanos,
            panic_worker: record.panic_worker,
        }
    }

    /// The canonical JSON record for this response — one line, stable
    /// key order, versioned. This is *the* wire format: `mpl analyze
    /// --json`, the corpus NDJSON and the daemon all emit exactly these
    /// bytes, which is what lets the result cache store rendered bodies.
    /// `timing` appends the nondeterministic fields and must stay off on
    /// cacheable paths.
    #[must_use]
    pub fn json_line(&self, timing: bool) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"v\":{PROTOCOL_VERSION},\"type\":\"program\"");
        if let Some(name) = &self.name {
            let _ = write!(out, ",\"name\":\"{}\"", json_escape(name));
        }
        let _ = write!(out, ",\"client\":\"{}\"", self.client.tag());
        match &self.result {
            Some(result) => {
                let (tag, reason) = verdict_tag(&result.verdict);
                let _ = write!(out, ",\"verdict\":\"{tag}\",\"reason\":");
                match reason {
                    Some(code) => {
                        let _ = write!(out, "\"{code}\"");
                    }
                    None => out.push_str("null"),
                }
            }
            None => out.push_str(",\"verdict\":null,\"reason\":null"),
        }
        let _ = write!(out, ",\"outcome\":\"{}\"", self.outcome.code());
        if let JobOutcome::Degraded { attempts } = self.outcome {
            let _ = write!(out, ",\"attempts\":{attempts}");
        }
        if let Some(detail) = self.outcome.detail() {
            let _ = write!(out, ",\"detail\":\"{}\"", json_escape(detail));
        }
        let (matches, leaks, steps) = self
            .result
            .as_ref()
            .map_or((0, 0, 0), |r| (r.matches.len(), r.leaks.len(), r.steps));
        let topo = self.result.as_ref().map_or_else(String::new, |r| {
            topology_list(r)
                .iter()
                .map(|p| format!("\"{}\"", json_escape(p)))
                .collect::<Vec<_>>()
                .join(",")
        });
        let _ = write!(
            out,
            ",\"matches\":{matches},\"leaks\":{leaks},\"steps\":{steps},\"topology\":[{topo}]"
        );
        if timing {
            let _ = write!(out, ",\"wall_nanos\":{}", self.wall_nanos);
            if let Some(worker) = self.panic_worker {
                let _ = write!(out, ",\"worker\":{worker}");
            }
        }
        out.push('}');
        out
    }

    /// The human-readable corpus line for this response (the
    /// `analyze-corpus` text format; unnamed responses render as
    /// `(unnamed)`).
    #[must_use]
    pub fn text_line(&self, timing: bool) -> String {
        let mut out = String::new();
        let _ = write!(out, "{}:", self.name.as_deref().unwrap_or("(unnamed)"));
        match &self.result {
            Some(result) => {
                let (tag, reason) = verdict_tag(&result.verdict);
                let _ = write!(out, " verdict={tag}");
                if let Some(code) = reason {
                    let _ = write!(out, " reason={code}");
                }
                if !matches!(self.outcome, JobOutcome::Completed) {
                    let _ = write!(out, " outcome={}", self.outcome.code());
                    if let JobOutcome::Degraded { attempts } = self.outcome {
                        let _ = write!(out, " attempts={attempts}");
                    }
                }
                let _ = write!(
                    out,
                    " matches={} leaks={} steps={}",
                    result.matches.len(),
                    result.leaks.len(),
                    result.steps
                );
                let topo = topology_list(result);
                if !topo.is_empty() {
                    let _ = write!(out, " topology={}", topo.join(","));
                }
            }
            None => {
                let _ = write!(out, " outcome={}", self.outcome.code());
                if let Some(detail) = self.outcome.detail() {
                    let _ = write!(out, " detail=\"{detail}\"");
                }
            }
        }
        if timing {
            let _ = write!(out, " wall_ms={:.3}", self.wall_nanos as f64 / 1e6);
            if let Some(worker) = self.panic_worker {
                let _ = write!(out, " worker={worker}");
            }
        }
        out
    }
}

/// The versioned JSON summary record for a batch (the last line of the
/// corpus NDJSON output).
#[must_use]
pub fn summary_json_line(summary: &BatchSummary, workers: usize, timing: bool) -> String {
    let s = summary;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"v\":{PROTOCOL_VERSION},\"type\":\"summary\",\"programs\":{},\"exact\":{},\
         \"deadlock\":{},\"top\":{},\"completed\":{},\"degraded\":{},\"timed_out\":{},\
         \"panicked\":{},\"errors\":{},\"matches\":{},\"leaks\":{},\"steps\":{},\
         \"full_closures\":{},\"incremental_closures\":{}",
        s.programs,
        s.exact,
        s.deadlock,
        s.top,
        s.completed,
        s.degraded,
        s.timed_out,
        s.panicked,
        s.errors,
        s.matches,
        s.leaks,
        s.steps,
        s.closure.full_closures,
        s.closure.incremental_closures
    );
    if timing {
        let _ = write!(
            out,
            ",\"cpu_nanos\":{},\"workers\":{}",
            s.wall_nanos, workers
        );
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RequestBatch;
    use mpl_lang::corpus;

    fn fig2_request() -> AnalysisRequest {
        AnalysisRequest::builder()
            .source(corpus::fig2_exchange().source)
            .client(Client::Simple)
            .build()
            .expect("valid request")
    }

    #[test]
    fn builder_validates_inputs() {
        assert_eq!(
            AnalysisRequest::builder().build().unwrap_err(),
            RequestError::MissingProgram
        );
        assert!(matches!(
            AnalysisRequest::builder().source("x := ;").build(),
            Err(RequestError::Parse { .. })
        ));
        assert!(matches!(
            AnalysisRequest::builder()
                .source("x := 1;")
                .client_tag("quantum")
                .build(),
            Err(RequestError::UnknownClient { tag }) if tag == "quantum"
        ));
        assert!(matches!(
            AnalysisRequest::builder()
                .source("x := 1;")
                .max_steps(0)
                .build(),
            Err(RequestError::Config(ConfigError::ZeroStepBudget))
        ));
    }

    #[test]
    fn fingerprint_ignores_formatting_but_not_config() {
        let a = AnalysisRequest::builder()
            .source("x := 1;\nsend x -> 0;")
            .build()
            .unwrap();
        let b = AnalysisRequest::builder()
            .source("x := 1;   send x -> 0;")
            .build()
            .unwrap();
        assert_eq!(a.normalized_program(), b.normalized_program());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.cache_check(), b.cache_check());

        let c = AnalysisRequest::builder()
            .source("x := 1;\nsend x -> 0;")
            .min_np(9)
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
        let named = AnalysisRequest::builder()
            .source("x := 1;\nsend x -> 0;")
            .name("n")
            .build()
            .unwrap();
        assert_ne!(a.fingerprint(), named.fingerprint());
    }

    #[test]
    fn execute_matches_batch_rendering() {
        // One request through the single-shot path and through a fleet
        // must render byte-identical JSON (the cache/daemon invariant).
        let solo = fig2_request().execute().json_line(false);
        let mut batch = RequestBatch::new().workers(4);
        batch.push(fig2_request());
        let fleet = batch.run();
        assert_eq!(solo, fleet.responses[0].json_line(false));
        assert!(solo.starts_with("{\"v\":1,\"type\":\"program\","), "{solo}");
        assert!(solo.contains("\"verdict\":\"exact\""), "{solo}");
        assert!(!solo.contains("\"name\""), "anonymous request: {solo}");
    }

    #[test]
    fn named_request_renders_name_field() {
        let request = AnalysisRequest::builder()
            .source(corpus::fig2_exchange().source)
            .client(Client::Simple)
            .name("fig2")
            .build()
            .unwrap();
        let line = request.execute().json_line(false);
        assert!(line.contains("\"name\":\"fig2\""), "{line}");
    }

    #[test]
    fn execute_isolates_panics() {
        let request = AnalysisRequest::builder()
            .source("// mpl:fault=panic\nx := 1;")
            .honor_fault_directive(true)
            .build()
            .unwrap();
        assert_eq!(request.fault, Some(Fault::Panic));
        let response = request.execute();
        assert!(matches!(response.outcome, JobOutcome::Panicked { .. }));
        let line = response.json_line(false);
        assert!(line.contains("\"outcome\":\"panicked\""), "{line}");
        assert!(line.contains("\"verdict\":null"), "{line}");
        assert!(line.contains("\"detail\":\"injected fault"), "{line}");
    }

    #[test]
    fn fault_directive_requires_opt_in() {
        let request = AnalysisRequest::builder()
            .source("// mpl:fault=panic\nx := 1;")
            .build()
            .unwrap();
        assert_eq!(request.fault, None);
    }

    #[test]
    fn timeout_is_honored() {
        let request = AnalysisRequest::builder()
            .source("// mpl:fault=spin\nx := 1;")
            .honor_fault_directive(true)
            .timeout(Duration::from_millis(50))
            .build()
            .unwrap();
        let response = request.execute();
        assert_eq!(response.outcome, JobOutcome::TimedOut);
        let line = response.json_line(false);
        assert!(
            line.contains("\"verdict\":\"top\",\"reason\":\"deadline\""),
            "{line}"
        );
    }

    #[test]
    fn summary_line_is_versioned() {
        let mut batch = RequestBatch::new();
        batch.push(fig2_request());
        let done = batch.run();
        let line = summary_json_line(&done.summary, done.workers, false);
        assert!(line.starts_with("{\"v\":1,\"type\":\"summary\","), "{line}");
        assert!(!line.contains("cpu_nanos"), "{line}");
        let timed = summary_json_line(&done.summary, done.workers, true);
        assert!(timed.contains("\"workers\":1"), "{timed}");
    }
}
