//! `corpus`: the built-in corpus plus seeded generated programs, written
//! to a directory and analyzed in repeated passes of
//! `mpl analyze-corpus --dir D --jobs NPROC --json --timeout-ms T` — the
//! CI user running many small analyses, where parse, CFG build,
//! per-analysis set-up and the batch pool are a large share of the time.

use std::collections::HashMap;
use std::ffi::OsStr;
use std::path::Path;
use std::time::Instant;

use crate::report::{Checker, Report};
use crate::{gen, latency_metrics, proc, stats, wide, Ctx};

/// The per-program deadline: far above the slowest program, so no
/// analysis times out and the decided share is deterministic.
pub const TIMEOUT_MS: &str = "60000";

/// Checks one pass's output: one answer per program plus a summary.
/// Returns the answers by program index.
fn check_pass(
    done: &proc::Finished,
    inputs: &[gen::Input],
    by_name: &HashMap<&str, usize>,
    checker: &mut Checker,
    rep: &mut Report,
) -> Vec<Option<String>> {
    let mut answers: Vec<Option<String>> = vec![None; inputs.len()];
    for line in done.stdout.lines() {
        let Ok(answer) = crate::oracle::parse_answer(line) else {
            continue;
        };
        if let Some(&i) = answer.name.as_deref().and_then(|n| by_name.get(n)) {
            answers[i] = Some(line.to_owned());
        }
    }
    for (i, input) in inputs.iter().enumerate() {
        // Exit 1 flags a job that produced no analysis; its own record
        // says which, and the oracle refutes that record.
        let verdict = match (&answers[i], done.code) {
            (Some(line), Some(0 | 1)) => checker.check(i, line),
            (_, code) => Err(format!("no answer (analyze-corpus exited {code:?})")),
        };
        rep.attempt(&input.name, &verdict, &input.source);
    }
    answers
}

fn pass_args<'a>(dir: &'a Path, jobs: &'a str) -> [&'a OsStr; 8] {
    [
        "analyze-corpus".as_ref(),
        "--dir".as_ref(),
        dir.as_os_str(),
        "--jobs".as_ref(),
        jobs.as_ref(),
        "--json".as_ref(),
        "--timeout-ms".as_ref(),
        TIMEOUT_MS.as_ref(),
    ]
}

/// # Errors
///
/// Set-up fails; refuted answers are counted, not errors.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let inputs = gen::corpus_inputs(ctx.seed);
    let dir = ctx.work.join("corpus");
    for input in &inputs {
        ctx.write(&dir, input)?;
    }
    let trivial_dir = ctx.work.join("trivial");
    ctx.write(&trivial_dir, &wide::trivial_input())?;
    let by_name: HashMap<&str, usize> = inputs
        .iter()
        .enumerate()
        .map(|(i, p)| (p.name.as_str(), i))
        .collect();
    let mut checker = Checker::new(&inputs);
    let jobs = ctx.nproc.to_string();

    let setup = ctx.setup_time(&pass_args(&trivial_dir, &jobs))?;

    let mut pass_ms = Vec::new();
    let mut rss_kib = Vec::new();
    let mut first: Option<Vec<Option<String>>> = None;
    let start = Instant::now();
    while ctx.keep_going(start, pass_ms.len()) {
        let done = proc::run(&mut ctx.mpl(&pass_args(&dir, &jobs)))?;
        pass_ms.push(done.wall.as_secs_f64() * 1e3);
        rss_kib.push(done.peak_rss_kib as f64);
        let answers = check_pass(&done, &inputs, &by_name, &mut checker, rep);
        first.get_or_insert(answers);
    }
    println!(
        "passes: {} of {} programs in {:.2?}",
        pass_ms.len(),
        inputs.len(),
        start.elapsed()
    );

    let answers = first.unwrap_or_default();
    let decided = answers
        .iter()
        .flatten()
        .filter_map(|line| crate::oracle::parse_answer(line).ok())
        .filter(crate::oracle::Answer::decided)
        .count();
    let p50 = stats::median(&pass_ms);
    rep.metric("setup_s", setup, "s");
    latency_metrics(rep, &pass_ms);
    rep.metric("programs_per_s", inputs.len() as f64 * 1e3 / p50, "1/s");
    rep.metric("max_rate_rps", 1e3 / p50, "req/s");
    rep.metric(
        "decided_share",
        decided as f64 / inputs.len() as f64,
        "ratio",
    );
    rep.metric("peak_rss_mb", stats::median(&rss_kib) / 1024.0, "MiB");
    Ok(())
}
