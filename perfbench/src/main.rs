//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload wide|corpus|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. It builds the release `mpl` binary,
//! generates the workload's inputs from the seed, drives `mpl` as a
//! subprocess (or, with `--trace 1`, replays the same inputs in-process
//! through each crate's public functions with spans around every layer
//! call), checks every answer against the `mpl-sim` oracle, and ends with
//! one JSON line: `{"correct", "attempted", "failed", "metrics"}`.
//! Everything it writes lives under the cargo target directory.

mod corpus;
mod gen;
mod load;
mod oracle;
mod proc;
mod report;
mod serve;
mod stats;
mod trace;
mod wide;

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

use report::Report;

/// Samples of each set-up time; the median is reported.
const SETUP_SAMPLES: usize = 101;

/// A run never measures past this, even when short of tail samples.
const HARD_CAP: Duration = Duration::from_secs(120);

/// What every workload needs.
pub struct Ctx {
    pub mpl: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: Duration,
    pub nproc: usize,
}

impl Ctx {
    /// Writes `input` as `DIR/NAME.mpl`.
    ///
    /// # Errors
    ///
    /// Any I/O failure.
    pub fn write(&self, dir: &Path, input: &gen::Input) -> Result<PathBuf, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("{}.mpl", input.name));
        std::fs::write(&path, &input.source).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }

    /// `mpl ARGS` as a command.
    #[must_use]
    pub fn mpl(&self, args: &[&std::ffi::OsStr]) -> Command {
        let mut cmd = Command::new(&self.mpl);
        cmd.args(args);
        cmd
    }

    /// Set-up time of a one-shot command: the median wall time of
    /// [`SETUP_SAMPLES`] cold runs of `args` on a one-statement program,
    /// so that it holds process start-up, argument parsing, file reading
    /// and engine set-up but no analysis work.
    ///
    /// # Errors
    ///
    /// A run fails.
    pub fn setup_time(&self, args: &[&std::ffi::OsStr]) -> Result<f64, String> {
        let mut samples = Vec::new();
        for _ in 0..SETUP_SAMPLES {
            let done = proc::run(&mut self.mpl(args))?;
            if done.code != Some(0) {
                return Err(format!("set-up run exited {:?}", done.code));
            }
            samples.push(done.wall.as_secs_f64());
        }
        println!("setup samples (s): {samples:?}");
        Ok(stats::median(&samples))
    }

    /// True while a timed loop with `samples` so far should go on: for
    /// `--seconds`, then on until there are enough samples for the tail
    /// to sit at or above the median, or the hard cap is reached.
    #[must_use]
    pub fn keep_going(&self, start: Instant, samples: usize) -> bool {
        let elapsed = start.elapsed();
        elapsed < self.seconds || (samples <= 2 * stats::TAIL_BEYOND && elapsed < HARD_CAP)
    }
}

/// Reports `latency_ms_p50` and `latency_ms_tail` of `samples_ms`.
pub fn latency_metrics(rep: &mut Report, samples_ms: &[f64]) {
    rep.metric("latency_ms_p50", stats::median(samples_ms), "ms");
    let tail = stats::tail(samples_ms).unwrap_or(stats::Tail {
        value: samples_ms.iter().copied().fold(0.0, f64::max),
        rank: samples_ms.len(),
        count: samples_ms.len(),
    });
    println!(
        "tail: rank {} of {} samples (p{:.1}), {} beyond it",
        tail.rank,
        tail.count,
        tail.percentile(),
        tail.count - tail.rank
    );
    rep.metric("latency_ms_tail", tail.value, "ms");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = raw.next() {
            let value = raw.next().ok_or(format!("`{flag}` needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("bad `{flag}` value `{value}`"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => trace = Some(number()? == 1),
                other => return Err(format!("unknown flag `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !["wide", "corpus", "serve"].contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (wide, corpus or serve)"
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(10).max(1),
            trace: trace.unwrap_or(false),
        })
    }
}

/// The checkout's commit, read from `.git` without leaving the checkout.
fn git_rev() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map(|rev| rev.trim().to_owned())
            .unwrap_or_else(|_| format!("unknown ({reference} not loose)")),
        None if !head.is_empty() => head.to_owned(),
        None => "unknown (not a git checkout)".to_owned(),
    }
}

/// Removes the run's scratch directory on every exit path.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let mpl = proc::build_mpl()?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let work = proc::target_dir().join(format!("perfbench-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let guard = WorkDir(work.clone());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rev={} \
         profile={profile} mpl={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev(),
        mpl.display()
    );
    let ctx = Ctx {
        mpl,
        work,
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        nproc,
    };
    let mut rep = Report::new();
    match (args.workload.as_str(), args.trace) {
        ("wide", false) => wide::run(&ctx, &mut rep)?,
        ("corpus", false) => corpus::run(&ctx, &mut rep)?,
        ("serve", false) => serve::run(&ctx, &mut rep)?,
        (workload, true) => trace::run(&ctx, workload, &mut rep)?,
        _ => unreachable!("workload names are validated"),
    }
    drop(guard);
    // Children's `wait4` peaks include this process's size at spawn time.
    println!(
        "perfbench's own peak RSS: {:.1} MiB",
        proc::vm_hwm_kib("self")? as f64 / 1024.0
    );
    Ok(rep)
}

fn main() {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(rep) => println!("{}", rep.finish()),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
