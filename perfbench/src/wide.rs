//! `wide`: `exchange_with_root_wide(96)` analyzed over and over by
//! one-shot `mpl analyze --json` processes, one at a time (a closed loop
//! of one client). Closure, `apply_match` and join/widen do almost all
//! the work; parser, cache, journal and transport almost none.

use std::collections::HashMap;
use std::time::Instant;

use crate::report::{Checker, Report};
use crate::{gen, latency_metrics, proc, stats, Ctx};

/// Checks one `mpl analyze --json` run: exit 0 (exact) or 1 (not
/// exact), one answer line, judged by the oracle.
pub fn check_analyze(
    done: &proc::Finished,
    checker: &mut Checker,
    index: usize,
) -> Result<(), String> {
    match done.code {
        Some(0 | 1) => {}
        other => return Err(format!("mpl analyze exited {other:?}")),
    }
    let line = done.stdout.trim_end_matches('\n');
    if line.contains('\n') {
        return Err(format!("more than one output line: {line}"));
    }
    checker.check(index, line)
}

/// # Errors
///
/// Set-up fails; refuted answers are counted, not errors.
pub fn run(ctx: &Ctx, rep: &mut Report) -> Result<(), String> {
    let input = gen::wide();
    let file = ctx.write(&ctx.work, &input)?;
    let trivial = ctx.write(&ctx.work.join("trivial"), &trivial_input())?;
    let mut checker = Checker::new(std::slice::from_ref(&input));

    let setup = ctx.setup_time(&["analyze".as_ref(), trivial.as_os_str(), "--json".as_ref()])?;

    let mut latency_ms = Vec::new();
    let mut rss_kib = Vec::new();
    let mut answers: HashMap<String, usize> = HashMap::new();
    let start = Instant::now();
    while ctx.keep_going(start, latency_ms.len()) {
        let done =
            proc::run(&mut ctx.mpl(&["analyze".as_ref(), file.as_os_str(), "--json".as_ref()]))?;
        let verdict = check_analyze(&done, &mut checker, 0);
        rep.attempt("wide96 analysis", &verdict, &input.source);
        latency_ms.push(done.wall.as_secs_f64() * 1e3);
        rss_kib.push(done.peak_rss_kib as f64);
        *answers.entry(done.stdout).or_default() += 1;
    }
    println!("analyses: {} in {:.2?}", latency_ms.len(), start.elapsed());
    for (answer, n) in &answers {
        print!("answer x{n}: {answer}");
    }

    let decided = answers
        .keys()
        .filter_map(|a| crate::oracle::parse_answer(a.trim_end()).ok())
        .all(|a| a.decided());
    let p50 = stats::median(&latency_ms);
    rep.metric("setup_s", setup, "s");
    latency_metrics(rep, &latency_ms);
    rep.metric("programs_per_s", 1e3 / p50, "1/s");
    rep.metric("max_rate_rps", 1e3 / p50, "req/s");
    rep.metric("decided_share", if decided { 1.0 } else { 0.0 }, "ratio");
    rep.metric("peak_rss_mb", stats::median(&rss_kib) / 1024.0, "MiB");
    Ok(())
}

/// The one-statement program set-up time is measured on.
#[must_use]
pub fn trivial_input() -> gen::Input {
    gen::Input {
        name: "trivial".to_owned(),
        source: "x := 1;\n".to_owned(),
        hint: None,
        sims: Vec::new(),
    }
}
