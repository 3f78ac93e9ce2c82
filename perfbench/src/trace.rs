//! The traced run (`--trace 1`): the workload's inputs replayed
//! in-process through each crate's public functions, with a span around
//! every layer call. Spans stay in memory and are written out when the
//! run ends; the per-layer metrics are derived from them and from the
//! counters the crates expose (`StatsObserver`/`EngineProfile`,
//! `AnalysisResult::closure_stats`, `mpl_domains::stats::matrix_copies`,
//! `CacheStats`, `JournalStats` and the daemon's `stats` op).
//!
//! The replay runs three times: traced, untraced, traced. The untraced
//! pass gives the tracing overhead; the two traced passes must agree on
//! every deterministic count (the repeat-exact check).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use mpl_cfg::Cfg;
use mpl_core::{
    analyze_cfg_with, AnalysisConfig, AnalysisRequest, AnalysisResponse, AnalysisResult,
    AnalysisService, CacheJournal, JobOutcome, JobRecord, NoopObserver, RequestBatch, ResultCache,
    ServiceConfig, StatsObserver,
};
use mpl_lang::parse_program;

use crate::gen::{self, Arrival, Input};
use crate::proc::{self, Conn, Daemon};
use crate::report::{Checker, Report};
use crate::{serve, stats, Ctx};

/// Requests of the serve stream the in-process replay covers.
const SERVE_REPLAY: usize = 4000;

/// `ping` round trips timed on the live daemon.
const PINGS: usize = 200;

/// Journal appends between compactions, as `mpl serve` defaults.
const COMPACT_EVERY: u64 = 1024;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// The request (replayed input) the span belongs to.
    pub req: usize,
}

/// In-memory span recorder; when off, `begin`/`end` do nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: usize) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        if self.on {
            self.spans[id].end = self.origin.elapsed();
        }
    }

    /// Durations of every span named `name`.
    #[must_use]
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Self time per layer (the span name up to its first `.`): each
    /// span's duration minus the part its child spans cover.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, Duration> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end - s.start;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_default() += (s.end - s.start).saturating_sub(covered);
        }
        out
    }

    /// Writes the spans as tab-separated rows.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("id\tparent\treq\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.req,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The deterministic counts of one replay, which two traced passes must
/// reproduce exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub cfg_nodes: u64,
    pub steps: u64,
    pub widenings: u64,
    pub full_closures: u64,
    pub full_closure_vars: u64,
    pub incr_closures: u64,
    pub incr_closure_vars: u64,
    pub matrix_copies: u64,
    pub stored_locations: u64,
    pub stored_bytes: u64,
    pub cache_lookups: u64,
    pub cache_hits: u64,
    pub cache_evictions: u64,
    pub journal_appends: u64,
    pub compactions: u64,
}

impl Counts {
    #[must_use]
    pub fn entries(&self) -> [(&'static str, u64); 15] {
        [
            ("cfg.nodes", self.cfg_nodes),
            ("engine.steps", self.steps),
            ("engine.widenings", self.widenings),
            ("domains.full_closures", self.full_closures),
            ("domains.full_closure_vars", self.full_closure_vars),
            ("domains.incr_closures", self.incr_closures),
            ("domains.incr_closure_vars", self.incr_closure_vars),
            ("domains.matrix_copies", self.matrix_copies),
            ("engine.stored_locations", self.stored_locations),
            ("engine.stored_bytes", self.stored_bytes),
            ("cache.lookups", self.cache_lookups),
            ("cache.hits", self.cache_hits),
            ("cache.evictions", self.cache_evictions),
            ("persist.appends", self.journal_appends),
            ("persist.compactions", self.compactions),
        ]
    }
}

/// Engine phase times summed over a replay.
#[derive(Debug, Clone, Copy, Default)]
struct Phases {
    transfer: Duration,
    matching: Duration,
    join_widen: Duration,
    admission: Duration,
    total: Duration,
    closure: Duration,
}

/// One replay pass.
struct Pass {
    tracer: Tracer,
    counts: Counts,
    phases: Phases,
    /// The rendered answer per replayed input.
    answers: Vec<String>,
    wall: Duration,
    journal_bytes: u64,
    replay: Duration,
}

impl Pass {
    fn new(traced: bool) -> Pass {
        Pass {
            tracer: Tracer::new(traced),
            counts: Counts::default(),
            phases: Phases::default(),
            answers: Vec::new(),
            wall: Duration::ZERO,
            journal_bytes: 0,
            replay: Duration::ZERO,
        }
    }

    /// `Cfg::build` → `analyze_cfg_with` → `AnalysisResponse::json_line`
    /// for one parsed program, under a `StatsObserver` when traced.
    fn analyze(
        &mut self,
        program: &mpl_lang::ast::Program,
        config: &AnalysisConfig,
        root: Option<usize>,
        req: usize,
    ) -> String {
        let t = &mut self.tracer;
        let s = t.begin("cfg.build", root, req);
        let cfg = Cfg::build(program);
        t.end(s);
        self.counts.cfg_nodes += cfg.node_count() as u64;
        // A fresh interner per analysis, as every request path does.
        mpl_domains::reset_table();
        mpl_domains::stats::reset_matrix_copies();
        let s = t.begin("engine.analyze", root, req);
        let result = if t.on {
            let mut obs = StatsObserver::new();
            let result = analyze_cfg_with(&cfg, config, &mut obs);
            self.counts.steps += obs.stats().steps;
            self.counts.widenings += obs.stats().widenings;
            if let Some(p) = obs.profile() {
                self.phases.transfer += p.transfer;
                self.phases.matching += p.matching;
                self.phases.join_widen += p.join_widen;
                self.phases.admission += p.admission;
                self.phases.total += p.total;
                self.counts.stored_locations += p.stored.locations as u64;
                self.counts.stored_bytes += p.stored.approx_bytes as u64;
            }
            result
        } else {
            analyze_cfg_with(&cfg, config, &mut NoopObserver)
        };
        t.end(s);
        self.record_closures(&result);
        let s = self.tracer.begin("request.render", root, req);
        let line = render(result, config);
        self.tracer.end(s);
        line
    }

    fn record_closures(&mut self, result: &AnalysisResult) {
        let c = &result.closure_stats;
        self.counts.full_closures += c.full_closures;
        self.counts.full_closure_vars += c.full_closure_vars;
        self.counts.incr_closures += c.incremental_closures;
        self.counts.incr_closure_vars += c.incremental_closure_vars;
        self.counts.matrix_copies += mpl_domains::stats::matrix_copies();
        self.phases.closure += c.closure_time();
    }

    /// The CLI path: parse, build, analyze and render each input.
    fn replay_programs(&mut self, inputs: &[Input]) -> Result<(), String> {
        let config = AnalysisConfig::default();
        let start = Instant::now();
        for (req, input) in inputs.iter().enumerate() {
            let root = self.tracer.begin("replay.program", None, req);
            let s = self.tracer.begin("lang.parse", Some(root), req);
            let program = parse_program(&input.source).map_err(|e| format!("{}: {e}", input.name));
            self.tracer.end(s);
            let line = self.analyze(&program?, &config, Some(root), req);
            self.tracer.end(root);
            self.answers.push(line);
        }
        self.wall = start.elapsed();
        Ok(())
    }

    /// The daemon path for each request line: JSON parse, request build,
    /// normalize, fingerprint, cache lookup and, on a miss, the engine,
    /// render, journal append, cache insert and periodic compaction.
    fn replay_serve(&mut self, lines: &[&str], journal_dir: &Path) -> Result<(), String> {
        let _ = std::fs::remove_dir_all(journal_dir);
        let mut cache = ResultCache::new(gen::SERVE_CACHE);
        let (mut journal, _) =
            CacheJournal::open(journal_dir).map_err(|e| format!("journal: {e}"))?;
        let mut since_compact = 0;
        let start = Instant::now();
        for (req, line) in lines.iter().enumerate() {
            let root = self.tracer.begin("replay.request", None, req);
            let t = &mut self.tracer;
            let s = t.begin("json.parse", Some(root), req);
            let value = mpl_core::parse_json(line).map_err(|e| format!("json: {e}"))?;
            t.end(s);
            let source = value
                .get("program")
                .and_then(mpl_core::JsonValue::as_str)
                .ok_or("request without a program")?;
            let s = t.begin("lang.parse", Some(root), req);
            let program = parse_program(source).map_err(|e| format!("parse: {e}"))?;
            t.end(s);
            let s = t.begin("request.build", Some(root), req);
            let request = AnalysisRequest::builder()
                .program(program)
                .build()
                .map_err(|e| e.to_string())?;
            t.end(s);
            let s = t.begin("request.normalize", Some(root), req);
            black_box(request.normalized_program());
            t.end(s);
            let s = t.begin("request.fingerprint", Some(root), req);
            let key = request.fingerprint();
            let check = request.cache_check();
            t.end(s);
            let s = t.begin("cache.lookup", Some(root), req);
            let hit = cache.lookup(key, &check);
            t.end(s);
            let body = match hit {
                Some(body) => body,
                None => {
                    let body = self.analyze(&request.program, &request.config, Some(root), req);
                    let t = &mut self.tracer;
                    let s = t.begin("persist.append", Some(root), req);
                    journal
                        .append(key, &check, &body)
                        .map_err(|e| format!("append: {e}"))?;
                    t.end(s);
                    let s = t.begin("cache.insert", Some(root), req);
                    cache.insert(key, check, body.clone());
                    t.end(s);
                    since_compact += 1;
                    if since_compact >= COMPACT_EVERY {
                        let s = t.begin("persist.compact", Some(root), req);
                        journal
                            .compact(cache.iter_lru())
                            .map_err(|e| format!("compact: {e}"))?;
                        t.end(s);
                        since_compact = 0;
                    }
                    body
                }
            };
            self.tracer.end(root);
            self.answers.push(body);
        }
        self.wall = start.elapsed();
        let c = cache.stats();
        self.counts.cache_lookups = c.hits + c.misses;
        self.counts.cache_hits = c.hits;
        self.counts.cache_evictions = c.evictions;
        self.counts.journal_appends = journal.stats().appends;
        self.counts.compactions = journal.stats().compactions;
        self.journal_bytes = std::fs::metadata(journal.path()).map_or(0, |m| m.len());
        drop(journal);
        let start = Instant::now();
        let (_, replayed) = CacheJournal::open(journal_dir).map_err(|e| format!("replay: {e}"))?;
        self.replay = start.elapsed();
        if replayed.entries.is_empty() {
            return Err("the journal replayed no entries".to_owned());
        }
        Ok(())
    }
}

/// The response an analysis result renders to, as `mpl analyze --json`
/// prints it.
fn render(result: AnalysisResult, config: &AnalysisConfig) -> String {
    let record = JobRecord {
        name: String::new(),
        outcome: JobOutcome::Completed,
        result: Some(result),
        wall_nanos: 0,
        panic_worker: None,
    };
    AnalysisResponse::from_record(record, config.client).json_line(false)
}

fn us(d: &[Duration]) -> f64 {
    let v: Vec<f64> = d.iter().map(|d| d.as_secs_f64() * 1e6).collect();
    stats::median(&v)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `runtime.busy_share` of a `RequestBatch` over `inputs` at `workers`:
/// Σ per-job analysis time ÷ (wall × workers). Also judges its answers.
fn batch_busy_share(
    inputs: &[Input],
    workers: usize,
    checker: &mut Checker,
    rep: &mut Report,
) -> Result<f64, String> {
    let mut batch = RequestBatch::new().workers(workers);
    for input in inputs {
        let request = AnalysisRequest::builder()
            .name(input.name.clone())
            .source(input.source.clone())
            .build()
            .map_err(|e| e.to_string())?;
        batch.push(request);
    }
    let start = Instant::now();
    let done = batch.run();
    let wall = start.elapsed();
    let busy: u64 = done.responses.iter().map(|r| r.wall_nanos).sum();
    for (i, r) in done.responses.iter().enumerate() {
        let verdict = checker.check(i, &r.json_line(false));
        rep.attempt(
            &format!("batch answer of {}", inputs[i].name),
            &verdict,
            &inputs[i].source,
        );
    }
    Ok(busy as f64 / (wall.as_nanos() as f64 * done.workers as f64))
}

/// What the live daemon contributes in a traced serve run.
struct Live {
    ping_us: f64,
    coalesced: f64,
}

/// Times `ping` round trips on a live daemon, then runs a short open
/// loop at the nominal rate and reads its `coalesced` counter.
fn live_daemon(ctx: &Ctx, prep: &serve::Prepared, rep: &mut Report) -> Result<Live, String> {
    let socket = ctx.work.join("trace.sock");
    let daemon = Daemon::spawn(&ctx.mpl, &socket, &ctx.work.join("trace-live-cache"))?;
    let mut conn = Conn::connect(&socket)?;
    let mut rtt = Vec::with_capacity(PINGS);
    for _ in 0..PINGS {
        let start = Instant::now();
        let pong = conn.round_trip("{\"op\":\"ping\"}")?;
        rtt.push(start.elapsed());
        if !pong.contains("pong") {
            return Err(format!("ping answered {pong}"));
        }
    }
    drop(conn);
    let arrivals = gen::arrivals(
        ctx.seed,
        1,
        serve::NOMINAL_RPS,
        Duration::from_secs(2),
        &prep.zipf,
    );
    let (result, _) = serve::phase(serve::connect(&socket, ctx.nproc)?, &arrivals, prep, rep);
    println!("live nominal {}", result.row());
    let record = daemon.request("{\"op\":\"stats\"}")?;
    println!("live daemon stats: {record}");
    daemon.shutdown()?;
    Ok(Live {
        ping_us: us(&rtt),
        coalesced: serve::stat(&record, "coalesced"),
    })
}

/// Replays the workload three times: traced, untraced, traced.
fn replay(
    workload: &str,
    ctx: &Ctx,
    inputs: &[Input],
    lines: &[&str],
) -> Result<[Pass; 3], String> {
    let mut passes = [Pass::new(true), Pass::new(false), Pass::new(true)];
    for (k, pass) in passes.iter_mut().enumerate() {
        if workload == "serve" {
            pass.replay_serve(lines, &ctx.work.join(format!("trace-journal-{k}")))?;
        } else {
            pass.replay_programs(inputs)?;
        }
    }
    Ok(passes)
}

/// # Errors
///
/// The replay or the live daemon fails.
pub fn run(ctx: &Ctx, workload: &str, rep: &mut Report) -> Result<(), String> {
    let mut live = None;
    let mut busy_share = 0.0;
    let (inputs, passes, service_self_us) = match workload {
        "serve" => {
            let prep = serve::prepare(ctx, rep)?;
            // The latency phase's request stream, continued.
            let arrivals = gen::arrivals(
                ctx.seed,
                1,
                serve::NOMINAL_RPS,
                Duration::from_secs_f64(SERVE_REPLAY as f64 / serve::NOMINAL_RPS),
                &prep.zipf,
            );
            let lines: Vec<&str> = arrivals
                .iter()
                .map(|a| prep.lines[a.program].as_str())
                .collect();
            let passes = replay(workload, ctx, &prep.inputs, &lines)?;
            for (a, body) in arrivals.iter().zip(&passes[0].answers) {
                let verdict = if *body == prep.cold[a.program] {
                    Ok(())
                } else {
                    Err(format!(
                        "replayed answer {body} differs from the cold answer"
                    ))
                };
                rep.attempt("replayed request", &verdict, &prep.inputs[a.program].source);
            }
            let self_us = service_self_us(ctx, &arrivals, &lines, &prep, &passes[0], rep)?;
            live = Some(live_daemon(ctx, &prep, rep)?);
            (prep.inputs, passes, self_us)
        }
        _ => {
            let inputs = if workload == "wide" {
                vec![gen::wide()]
            } else {
                gen::corpus_inputs(ctx.seed)
            };
            let mut checker = Checker::new(&inputs);
            let passes = replay(workload, ctx, &inputs, &[])?;
            for (i, answer) in passes[0].answers.iter().enumerate() {
                let verdict = checker.check(i, answer);
                rep.attempt(
                    &format!("replayed {}", inputs[i].name),
                    &verdict,
                    &inputs[i].source,
                );
            }
            busy_share = batch_busy_share(&inputs, ctx.nproc, &mut checker, rep)?;
            (inputs, passes, 0.0)
        }
    };
    println!(
        "replayed {} inputs ({} distinct)",
        passes[0].answers.len(),
        inputs.len()
    );

    let [a, untraced, b] = &passes;
    repeat_exact(&a.counts, &b.counts, rep);
    let spans = proc::target_dir()
        .join("perfbench-spans")
        .join(format!("{workload}-seed{}.tsv", ctx.seed));
    a.tracer.write(&spans)?;
    println!(
        "spans: {} written to {}",
        a.tracer.spans.len(),
        spans.display()
    );

    emit(
        rep,
        a,
        untraced,
        b,
        busy_share,
        service_self_us,
        live.as_ref(),
    );
    Ok(())
}

/// `service.self_us`: per request, `AnalysisService::handle_line` on a
/// fresh service minus the same request's layered replay (without its
/// extra normalize span); the median over requests.
fn service_self_us(
    ctx: &Ctx,
    arrivals: &[Arrival],
    lines: &[&str],
    prep: &serve::Prepared,
    layered: &Pass,
    rep: &mut Report,
) -> Result<f64, String> {
    let service = AnalysisService::open(ServiceConfig {
        cache_dir: Some(ctx.work.join("trace-service-cache")),
        ..ServiceConfig::default()
    })?;
    let mut layered_ns = vec![0i128; lines.len()];
    for s in &layered.tracer.spans {
        let d = (s.end - s.start).as_nanos() as i128;
        match s.name {
            "replay.request" => layered_ns[s.req] += d,
            "request.normalize" => layered_ns[s.req] -= d,
            _ => {}
        }
    }
    let mut self_us = Vec::with_capacity(lines.len());
    for (i, line) in lines.iter().enumerate() {
        let start = Instant::now();
        let reply = service.handle_line(line);
        let took = start.elapsed().as_nanos() as i128;
        self_us.push((took - layered_ns[i]) as f64 / 1e3);
        let program = arrivals[i].program;
        let verdict = if reply.line() == prep.cold[program] {
            Ok(())
        } else {
            Err(format!(
                "handle_line reply {} differs from the cold answer",
                reply.line()
            ))
        };
        rep.attempt("service request", &verdict, &prep.inputs[program].source);
    }
    Ok(stats::median(&self_us))
}

/// Compares the deterministic counts of the two traced passes, naming
/// any that differ.
fn repeat_exact(a: &Counts, b: &Counts, rep: &mut Report) {
    let mut differ = Vec::new();
    for ((name, x), (_, y)) in a.entries().into_iter().zip(b.entries()) {
        println!("count {name:<26} {x:>12} {y:>12}");
        if x != y {
            differ.push(format!("{name} ({x} vs {y})"));
        }
    }
    if differ.is_empty() {
        println!("repeat-exact: ok, both traced passes give identical counts");
    } else {
        println!("repeat-exact: FAILED, counts differ: {}", differ.join(", "));
        rep.consistent = false;
    }
}

/// Prints every per-layer metric.
fn emit(
    rep: &mut Report,
    a: &Pass,
    untraced: &Pass,
    b: &Pass,
    busy_share: f64,
    service_self_us: f64,
    live: Option<&Live>,
) {
    let t = &a.tracer;
    let c = &a.counts;
    let p = &a.phases;
    let n = |x: u64| x as f64;
    rep.metric("lang.parse_us", us(&t.durations("lang.parse")), "us");
    rep.metric("cfg.build_us", us(&t.durations("cfg.build")), "us");
    rep.metric("cfg.nodes", n(c.cfg_nodes), "count");
    rep.metric("engine.steps", n(c.steps), "count");
    rep.metric("engine.widenings", n(c.widenings), "count");
    rep.metric("engine.transfer_ms", ms(p.transfer), "ms");
    rep.metric("engine.match_ms", ms(p.matching), "ms");
    rep.metric("engine.join_widen_ms", ms(p.join_widen), "ms");
    rep.metric("engine.admission_ms", ms(p.admission), "ms");
    rep.metric("engine.stored_locations", n(c.stored_locations), "count");
    rep.metric("engine.stored_bytes", n(c.stored_bytes), "bytes");
    rep.metric("domains.full_closures", n(c.full_closures), "count");
    rep.metric("domains.full_closure_vars", n(c.full_closure_vars), "count");
    rep.metric("domains.incr_closures", n(c.incr_closures), "count");
    rep.metric("domains.incr_closure_vars", n(c.incr_closure_vars), "count");
    rep.metric("domains.closure_ms", ms(p.closure), "ms");
    let share = if p.total.is_zero() {
        0.0
    } else {
        p.closure.as_secs_f64() / p.total.as_secs_f64()
    };
    rep.metric("domains.closure_share", share, "ratio");
    rep.metric("domains.matrix_copies", n(c.matrix_copies), "count");
    rep.metric("json.parse_us", us(&t.durations("json.parse")), "us");
    rep.metric(
        "request.normalize_us",
        us(&t.durations("request.normalize")),
        "us",
    );
    rep.metric(
        "request.fingerprint_us",
        us(&t.durations("request.fingerprint")),
        "us",
    );
    rep.metric(
        "request.render_us",
        us(&t.durations("request.render")),
        "us",
    );
    rep.metric("cache.lookup_us", us(&t.durations("cache.lookup")), "us");
    let hit_ratio = if c.cache_lookups == 0 {
        0.0
    } else {
        c.cache_hits as f64 / c.cache_lookups as f64
    };
    rep.metric("cache.hit_ratio", hit_ratio, "ratio");
    rep.metric("cache.evictions", n(c.cache_evictions), "count");
    rep.metric("service.self_us", service_self_us, "us");
    rep.metric(
        "service.coalesced",
        live.map_or(0.0, |l| l.coalesced),
        "count",
    );
    rep.metric(
        "persist.append_us",
        us(&t.durations("persist.append")),
        "us",
    );
    rep.metric("persist.compactions", n(c.compactions), "count");
    rep.metric("persist.journal_bytes", n(a.journal_bytes), "bytes");
    rep.metric("persist.replay_ms", ms(a.replay), "ms");
    rep.metric("runtime.busy_share", busy_share, "ratio");
    rep.metric("transport.ping_us", live.map_or(0.0, |l| l.ping_us), "us");

    // Layer self times; closure time moves from the engine span to the
    // domains layer it belongs to.
    let mut own = t.self_times();
    let engine = own.get("engine").copied().unwrap_or_default();
    own.insert("engine", engine.saturating_sub(p.closure));
    own.insert("domains", p.closure);
    for layer in [
        "lang", "cfg", "engine", "domains", "json", "request", "cache", "persist",
    ] {
        let name = format!("{layer}.self_ms");
        rep.metric(&name, ms(own.get(layer).copied().unwrap_or_default()), "ms");
    }
    let traced = (a.wall + b.wall) / 2;
    let overhead = traced.as_secs_f64() - untraced.wall.as_secs_f64();
    println!(
        "replay wall: traced {:.3?} / {:.3?}, untraced {:.3?}",
        a.wall, b.wall, untraced.wall
    );
    rep.metric("trace.overhead_ms", overhead * 1e3, "ms");
    rep.metric(
        "trace.overhead_share",
        overhead / untraced.wall.as_secs_f64(),
        "ratio",
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let root = t.begin("replay.program", None, 0);
        let child = t.begin("lang.parse", Some(root), 0);
        std::thread::sleep(Duration::from_millis(5));
        t.end(child);
        t.end(root);
        let own = t.self_times();
        assert!(own["lang"] >= Duration::from_millis(5));
        assert!(own["replay"] < own["lang"]);
    }

    #[test]
    fn two_traced_replays_give_identical_counts() {
        let inputs = gen::corpus_inputs(2);
        let mut first = Pass::new(true);
        first.replay_programs(&inputs).expect("replay");
        let mut second = Pass::new(true);
        second.replay_programs(&inputs).expect("replay");
        assert_eq!(first.counts, second.counts);
        assert!(first.counts.steps > 0 && first.counts.incr_closures > 0);
        assert_eq!(first.answers, second.answers);
    }
}
