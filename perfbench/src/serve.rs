//! `serve`: one `mpl serve` daemon at its default `--cache 128` receives
//! `analyze` requests over `nproc` connections, in an open loop at a
//! nominal rate for its latency and in saturating bursts for the highest
//! rate it completes requests at. Programs are drawn with Zipf-like
//! popularity from a working set four times the cache capacity, so most
//! requests hit and the rest run the engine, evict an entry and append to
//! the journal. The editor/daemon user, and the only workload that
//! exercises json, cache, persist and transport.

use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::gen::{self, Arrival, Input, Zipf};
use crate::proc::{self, Conn, Daemon};
use crate::report::{Checker, Report};
use crate::{load, stats, Ctx};

/// Offered rate of the latency phase, requests per second.
pub const NOMINAL_RPS: f64 = 100.0;

/// Requests of the warm-up pass that leaves the journal behind.
const WARMUP_REQUESTS: usize = 2 * gen::SERVE_WORKING_SET;

/// Daemon start-ups timed for `setup_s`, besides the measured daemon's.
const SETUP_SAMPLES: usize = 20;

/// Share of the run the latency phase gets; saturating bursts get the
/// rest.
const LATENCY_SHARE: f64 = 0.5;

/// The run alternates this many latency slices with as many bursts, so
/// that both sample the machine across the whole run.
const SLICES: usize = 10;

/// The smallest burst, whatever the warm-up's rate.
const MIN_BURST: usize = 100;

/// The working set with everything needed to judge replies.
pub struct Prepared {
    pub inputs: Vec<Input>,
    /// The request line for each program.
    pub lines: Vec<String>,
    /// Each program's cold `mpl analyze --json` answer, the reference
    /// every reply must equal byte for byte.
    pub cold: Vec<String>,
    pub zipf: Zipf,
}

/// Generates the working set and its cold answers (untimed), judging
/// each cold answer with the oracle.
///
/// # Errors
///
/// A cold run cannot be started.
pub fn prepare(ctx: &Ctx, rep: &mut Report) -> Result<Prepared, String> {
    let inputs = gen::serve_working_set(ctx.seed);
    let dir = ctx.work.join("working-set");
    let files: Vec<PathBuf> = inputs
        .iter()
        .map(|input| ctx.write(&dir, input))
        .collect::<Result<_, _>>()?;
    let mut cold = vec![String::new(); inputs.len()];
    let mut codes = vec![None; inputs.len()];
    std::thread::scope(|scope| -> Result<(), String> {
        let handles: Vec<_> = (0..ctx.nproc)
            .map(|t| {
                let files = &files;
                scope.spawn(move || -> Result<Vec<(usize, proc::Finished)>, String> {
                    (t..files.len())
                        .step_by(ctx.nproc)
                        .map(|i| {
                            let args =
                                ["analyze".as_ref(), files[i].as_os_str(), "--json".as_ref()];
                            Ok((i, proc::run(&mut ctx.mpl(&args))?))
                        })
                        .collect()
                })
            })
            .collect();
        for handle in handles {
            for (i, done) in handle.join().expect("cold-answer thread")? {
                codes[i] = done.code;
                cold[i] = done.stdout.trim_end_matches('\n').to_owned();
            }
        }
        Ok(())
    })?;
    let mut checker = Checker::new(&inputs);
    for (i, input) in inputs.iter().enumerate() {
        let verdict = match codes[i] {
            Some(0 | 1) => checker.check(i, &cold[i]),
            other => Err(format!("cold mpl analyze exited {other:?}")),
        };
        rep.attempt(
            &format!("cold answer of {}", input.name),
            &verdict,
            &input.source,
        );
    }
    Ok(Prepared {
        lines: inputs.iter().map(gen::request_line).collect(),
        zipf: Zipf::new(inputs.len()),
        inputs,
        cold,
    })
}

/// What one open-loop phase measured.
#[derive(Default)]
pub struct Phase {
    /// Per request, in due order.
    pub latency_ms: Vec<f64>,
    pub lateness_ms: Vec<f64>,
    pub failures: usize,
    /// From the last due time to the last reply.
    pub drain: Duration,
}

impl Phase {
    /// Adds the requests of `other`, a later phase.
    fn absorb(&mut self, other: Phase) {
        self.latency_ms.extend(other.latency_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.failures += other.failures;
        self.drain = self.drain.max(other.drain);
    }

    /// Requests per second a burst (every request due at once)
    /// completed: all its requests over the time to the last reply.
    #[must_use]
    pub fn burst_rate(&self) -> f64 {
        let wall_ms = self.latency_ms.iter().copied().fold(0.0, f64::max);
        self.latency_ms.len() as f64 * 1e3 / wall_ms
    }

    /// One printed row.
    #[must_use]
    pub fn row(&self) -> String {
        let tail = stats::tail(&self.latency_ms);
        format!(
            "requests={} p50_ms={:.3} tail_ms={:.3} (rank {}) drain_ms={:.1} \
             lateness_p50_ms={:.3} lateness_max_ms={:.3} failed={}",
            self.latency_ms.len(),
            stats::median(&self.latency_ms),
            tail.map_or(f64::NAN, |t| t.value),
            tail.map_or_else(|| "-".to_owned(), |t| format!("{}/{}", t.rank, t.count)),
            self.drain.as_secs_f64() * 1e3,
            stats::median(&self.lateness_ms),
            self.lateness_ms.iter().copied().fold(0.0, f64::max),
            self.failures,
        )
    }
}

/// Runs one open-loop phase and checks every reply against the cold
/// answer of its program.
pub fn phase(
    conns: Vec<Conn>,
    arrivals: &[Arrival],
    prep: &Prepared,
    rep: &mut Report,
) -> (Phase, Vec<Conn>) {
    let due: Vec<Duration> = arrivals.iter().map(|a| a.due).collect();
    let lines: Vec<&str> = arrivals
        .iter()
        .map(|a| prep.lines[a.program].as_str())
        .collect();
    let (sent, conns) = load::run(conns, &due, &lines);
    let mut out = Phase {
        latency_ms: Vec::with_capacity(sent.len()),
        lateness_ms: Vec::with_capacity(sent.len()),
        failures: 0,
        drain: Duration::ZERO,
    };
    let last_due = due.last().copied().unwrap_or_default();
    for s in &sent {
        let program = arrivals[s.index].program;
        let verdict = match &s.reply {
            Ok(reply) if *reply == prep.cold[program] => Ok(()),
            Ok(reply) => Err(format!(
                "reply differs from the cold answer {}: {reply}",
                prep.cold[program]
            )),
            Err(e) => Err(e.clone()),
        };
        if verdict.is_err() {
            out.failures += 1;
        }
        rep.attempt("serve request", &verdict, &prep.inputs[program].source);
        out.latency_ms.push(s.latency.as_secs_f64() * 1e3);
        out.lateness_ms.push(s.lateness.as_secs_f64() * 1e3);
        out.drain = out
            .drain
            .max((due[s.index] + s.latency).saturating_sub(last_due));
    }
    (out, conns)
}

/// Opens `n` connections.
///
/// # Errors
///
/// Any connection fails.
pub fn connect(socket: &Path, n: usize) -> Result<Vec<Conn>, String> {
    (0..n).map(|_| Conn::connect(socket)).collect()
}

/// Reads one integer field of a stats record.
#[must_use]
pub fn stat(record: &str, key: &str) -> f64 {
    mpl_core::parse_json(record)
        .ok()
        .and_then(|v| v.get(key).and_then(mpl_core::JsonValue::as_i64))
        .map_or(0.0, |n| n as f64)
}

/// `n` requests of stream `stream`, all due at once.
fn burst(ctx: &Ctx, stream: u64, n: usize, zipf: &Zipf) -> Vec<Arrival> {
    gen::arrivals(ctx.seed, stream, n as f64, Duration::from_secs(1), zipf)
        .into_iter()
        .map(|a| Arrival {
            due: Duration::ZERO,
            program: a.program,
        })
        .collect()
}

/// Runs one phase on `conns`, reconnecting afterwards if a connection
/// failed.
fn run_phase(
    ctx: &Ctx,
    socket: &Path,
    conns: &mut Vec<Conn>,
    arrivals: &[Arrival],
    prep: &Prepared,
    rep: &mut Report,
) -> Result<Phase, String> {
    let (result, back) = phase(std::mem::take(conns), arrivals, prep, rep);
    *conns = back;
    if conns.len() < ctx.nproc {
        let missing = ctx.nproc - conns.len();
        conns.extend(connect(socket, missing)?);
    }
    Ok(result)
}

/// # Errors
///
/// The daemon cannot be started, reached or shut down cleanly.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let prep = prepare(ctx, rep)?;
    let socket = ctx.work.join("serve.sock");
    let cache_dir = ctx.work.join("cache");

    // Warm-up: a burst that fills the cache and leaves a journal behind.
    // Its rate sizes the measured bursts.
    let daemon = Daemon::spawn(&ctx.mpl, &socket, &cache_dir)?;
    let warm = burst(ctx, 0, WARMUP_REQUESTS, &prep.zipf);
    let (result, _) = phase(connect(&socket, ctx.nproc)?, &warm, &prep, rep);
    println!("warm-up {}", result.row());
    let warm_rate = result.burst_rate();
    daemon.shutdown()?;

    let mut setup = Vec::new();
    for _ in 0..SETUP_SAMPLES {
        let daemon = Daemon::spawn(&ctx.mpl, &socket, &cache_dir)?;
        setup.push(daemon.ready_after.as_secs_f64());
        daemon.shutdown()?;
    }
    let daemon = Daemon::spawn(&ctx.mpl, &socket, &cache_dir)?;
    setup.push(daemon.ready_after.as_secs_f64());
    println!("setup samples (s): {setup:?}");

    // The latency phase at the nominal rate and the saturating bursts
    // alternate in slices. The tail and the highest rate are medians
    // over the slices: one host stall then moves one slice's reading,
    // not the run's.
    let arrivals = gen::arrivals(
        ctx.seed,
        1,
        NOMINAL_RPS,
        ctx.seconds.mul_f64(LATENCY_SHARE),
        &prep.zipf,
    );
    let burst_len = ctx.seconds.mul_f64(1.0 - LATENCY_SHARE) / SLICES as u32;
    let burst_n = ((warm_rate * burst_len.as_secs_f64()) as usize).max(MIN_BURST);
    let mut conns = connect(&socket, ctx.nproc)?;
    let mut nominal = Phase::default();
    let mut tails = Vec::with_capacity(SLICES);
    let mut rates = Vec::with_capacity(SLICES);
    for (k, slice) in arrivals
        .chunks(arrivals.len().div_ceil(SLICES).max(1))
        .enumerate()
    {
        let rebased: Vec<Arrival> = slice
            .iter()
            .map(|a| Arrival {
                due: a.due - slice[0].due,
                program: a.program,
            })
            .collect();
        let result = run_phase(ctx, &socket, &mut conns, &rebased, &prep, rep)?;
        println!("slice {k} rate_rps={NOMINAL_RPS} {}", result.row());
        tails.push(stats::tail(&result.latency_ms).map_or_else(
            || result.latency_ms.iter().copied().fold(0.0, f64::max),
            |t| t.value,
        ));
        nominal.absorb(result);
        let stream = 2 + k as u64;
        let requests = burst(ctx, stream, burst_n, &prep.zipf);
        let result = run_phase(ctx, &socket, &mut conns, &requests, &prep, rep)?;
        let rate = if result.failures == 0 {
            result.burst_rate()
        } else {
            0.0
        };
        println!("burst stream={stream} rate_rps={rate:.1} {}", result.row());
        rates.push(rate);
    }
    drop(conns);
    println!("nominal rate_rps={NOMINAL_RPS} {}", nominal.row());
    let max_rate = stats::median(&rates);

    let record = daemon.request("{\"op\":\"stats\"}")?;
    println!("daemon stats: {record}");
    let rss_kib = daemon.peak_rss_kib()?;
    daemon.shutdown()?;

    let mut distinct: Vec<usize> = arrivals.iter().map(|a| a.program).collect();
    distinct.sort_unstable();
    distinct.dedup();
    let decided = distinct
        .iter()
        .filter(|&&p| crate::oracle::parse_answer(&prep.cold[p]).is_ok_and(|a| a.decided()))
        .count();
    println!(
        "cache: hits={} misses={} evictions={} coalesced={} journal_appends={} compactions={}",
        stat(&record, "hits"),
        stat(&record, "misses"),
        stat(&record, "evictions"),
        stat(&record, "coalesced"),
        stat(&record, "journal_appends"),
        stat(&record, "compactions"),
    );
    rep.metric("setup_s", stats::median(&setup), "s");
    rep.metric("latency_ms_p50", stats::median(&nominal.latency_ms), "ms");
    rep.metric("latency_ms_tail", stats::median(&tails), "ms");
    rep.metric("programs_per_s", max_rate, "1/s");
    rep.metric("max_rate_rps", max_rate, "req/s");
    rep.metric(
        "decided_share",
        decided as f64 / distinct.len() as f64,
        "ratio",
    );
    rep.metric("peak_rss_mb", rss_kib as f64 / 1024.0, "MiB");
    Ok(())
}
