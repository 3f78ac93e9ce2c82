//! The answer oracle. Expectations come from the independent `mpl-sim`
//! interpreter and the corpus's hand-written pattern hints, computed
//! once per distinct program and never timed; the analyzer's own output
//! is never the reference.

use std::collections::BTreeSet;

use mpl_core::parse_json;
use mpl_lang::corpus::PatternHint;
use mpl_sim::{RunStatus, SimConfig, Simulator};

use crate::gen::Input;

/// What one simulator run observed.
#[derive(Debug, Clone)]
pub struct Observed {
    pub np: u64,
    pub deadlocked: bool,
    /// Undelivered messages at the end of the run.
    pub leaked: bool,
    /// `(send site, recv site)` pairs of every delivered message.
    pub pairs: BTreeSet<(u32, u32)>,
}

/// Ground truth for one program.
#[derive(Debug, Clone)]
pub struct Expectation {
    pub runs: Vec<Observed>,
    pub hint: Option<PatternHint>,
}

/// Simulates `input` at each of its process counts.
///
/// # Errors
///
/// The input fails to parse or a simulator run aborts: the input itself
/// is broken, which the caller reports as a failed operation.
pub fn expect(input: &Input) -> Result<Expectation, String> {
    let program = mpl_lang::parse_program(&input.source).map_err(|e| format!("parse: {e}"))?;
    let mut runs = Vec::new();
    for sim in &input.sims {
        let config = SimConfig {
            initial_vars: sim.vars.iter().cloned().collect(),
            ..SimConfig::default()
        };
        let out = Simulator::new(&program, sim.np)
            .with_config(config)
            .run()
            .map_err(|e| format!("simulator at np={}: {e}", sim.np))?;
        runs.push(Observed {
            np: sim.np,
            deadlocked: matches!(out.status, RunStatus::Deadlock { .. }),
            leaked: !out.leaks.is_empty(),
            pairs: out
                .topology
                .site_pairs()
                .into_iter()
                .map(|(s, r)| (s.0, r.0))
                .collect(),
        });
    }
    Ok(Expectation {
        runs,
        hint: input.hint,
    })
}

/// The fields of an answer record the oracle judges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    pub name: Option<String>,
    pub verdict: String,
    pub outcome: String,
    pub leaks: i64,
    pub topology: BTreeSet<(u32, u32)>,
}

impl Answer {
    /// An `exact` or `deadlock` verdict; ⊤ is sound but undecided.
    #[must_use]
    pub fn decided(&self) -> bool {
        self.verdict == "exact" || self.verdict == "deadlock"
    }
}

fn site(s: &str) -> Option<u32> {
    s.strip_prefix('n')?.parse().ok()
}

/// Parses one `{"type":"program",...}` answer line.
///
/// # Errors
///
/// The line is not a well-formed program record.
pub fn parse_answer(line: &str) -> Result<Answer, String> {
    let v = parse_json(line).map_err(|e| format!("unparseable answer ({e})"))?;
    if v.get("type").and_then(|t| t.as_str()) != Some("program") {
        return Err("not a program record".to_owned());
    }
    let text = |key: &str| v.get(key).and_then(|x| x.as_str()).map(str::to_owned);
    let topology = match v.get("topology") {
        Some(mpl_core::JsonValue::Array(items)) => items
            .iter()
            .map(|item| {
                let (s, r) = item.as_str().and_then(|p| p.split_once("->"))?;
                Some((site(s)?, site(r)?))
            })
            .collect::<Option<BTreeSet<_>>>()
            .ok_or("malformed topology entry")?,
        _ => return Err("missing topology".to_owned()),
    };
    Ok(Answer {
        name: text("name"),
        // A verdict of null (no analysis ran) reads as "none".
        verdict: text("verdict").unwrap_or_else(|| "none".to_owned()),
        outcome: text("outcome").ok_or("missing outcome")?,
        leaks: v
            .get("leaks")
            .and_then(|x| x.as_i64())
            .ok_or("missing leaks")?,
        topology,
    })
}

/// Judges `answer` against the ground truth.
///
/// * ⊤ never fails.
/// * `exact` must cover every site pair the simulator records at every
///   tested `np`, never deadlock there, and report no leak on a
///   leak-free program.
/// * `deadlock` must deadlock in the simulator at some tested `np`.
/// * A reported leak must leave an undelivered message there.
/// * A built-in program must agree with its pattern hint's class.
///
/// # Errors
///
/// Why the answer is refuted.
pub fn judge(answer: &Answer, exp: &Expectation) -> Result<(), String> {
    if answer.outcome != "completed" {
        return Err(format!("outcome `{}`", answer.outcome));
    }
    let leaks_anywhere = exp.runs.iter().any(|r| r.leaked);
    if answer.leaks > 0 && !leaks_anywhere {
        return Err("reports a leak but every simulated message was delivered".to_owned());
    }
    match answer.verdict.as_str() {
        "top" => return Ok(()),
        "exact" => {
            for run in &exp.runs {
                if run.deadlocked {
                    return Err(format!(
                        "exact, but the simulator deadlocks at np={}",
                        run.np
                    ));
                }
                if let Some(missing) = run.pairs.difference(&answer.topology).next() {
                    return Err(format!(
                        "exact topology misses n{}->n{} seen at np={}",
                        missing.0, missing.1, run.np
                    ));
                }
            }
            if answer.leaks == 0 && leaks_anywhere {
                return Err(
                    "exact with no leak, but the simulator leaves a message undelivered".to_owned(),
                );
            }
        }
        "deadlock" => {
            if !exp.runs.iter().any(|r| r.deadlocked) {
                return Err("deadlock, but every simulated run completes".to_owned());
            }
        }
        other => return Err(format!("verdict `{other}`")),
    }
    match exp.hint {
        Some(PatternHint::Deadlock) if answer.verdict == "exact" => {
            Err("exact on a program hinted to deadlock".to_owned())
        }
        Some(PatternHint::MessageLeak) if answer.leaks == 0 => {
            Err("no leak on a program hinted to leak".to_owned())
        }
        Some(PatternHint::Deadlock | PatternHint::MessageLeak | PatternHint::ExpectTop) | None => {
            Ok(())
        }
        Some(_) if answer.verdict == "deadlock" || answer.leaks > 0 => Err(format!(
            "{} with {} leak(s) on a program hinted as a clean pattern",
            answer.verdict, answer.leaks
        )),
        Some(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use mpl_core::{AnalysisRequest, JobOutcome};

    /// The analyzer's own answer for `input`, as `mpl analyze --json`
    /// renders it.
    fn cold(input: &Input) -> String {
        let response = AnalysisRequest::builder()
            .source(input.source.clone())
            .build()
            .expect("valid request")
            .execute();
        assert_eq!(response.outcome, JobOutcome::Completed);
        response.json_line(false)
    }

    fn builtin(name: &str) -> Input {
        gen::corpus_inputs(1)
            .into_iter()
            .find(|i| i.name.ends_with(name))
            .expect("built-in program")
    }

    fn verdict_of(input: &Input) -> (Answer, Expectation) {
        let answer = parse_answer(&cold(input)).expect("answer parses");
        let exp = expect(input).unwrap_or_else(|e| panic!("{}: {e}\n{}", input.name, input.source));
        (answer, exp)
    }

    #[test]
    fn current_answers_pass() {
        for input in gen::corpus_inputs(5) {
            let (answer, exp) = verdict_of(&input);
            judge(&answer, &exp).unwrap_or_else(|e| panic!("{}: {e}", input.name));
        }
    }

    #[test]
    fn rejects_a_dropped_topology_edge() {
        let (mut answer, exp) = verdict_of(&builtin("exchange_with_root"));
        assert_eq!(answer.verdict, "exact");
        let first = *answer.topology.iter().next().expect("has edges");
        answer.topology.remove(&first);
        assert!(judge(&answer, &exp).unwrap_err().contains("misses"));
    }

    #[test]
    fn rejects_an_exact_to_deadlock_flip() {
        let (mut answer, exp) = verdict_of(&builtin("fig2_exchange"));
        assert_eq!(answer.verdict, "exact");
        answer.verdict = "deadlock".to_owned();
        assert!(judge(&answer, &exp).is_err());
    }

    #[test]
    fn rejects_an_unsupported_deadlock_or_leak_and_a_hint_mismatch() {
        let (mut answer, exp) = verdict_of(&builtin("deadlock_pair"));
        assert_eq!(answer.verdict, "deadlock");
        judge(&answer, &exp).expect("true deadlock passes");
        answer.verdict = "exact".to_owned();
        answer.topology.clear();
        assert!(judge(&answer, &exp).is_err());

        let (mut answer, exp) = verdict_of(&builtin("gather_to_root"));
        answer.leaks = 1;
        assert!(judge(&answer, &exp).unwrap_err().contains("leak"));
    }

    #[test]
    fn top_never_fails() {
        let (mut answer, exp) = verdict_of(&builtin("fig2_exchange"));
        answer.verdict = "top".to_owned();
        answer.topology.clear();
        judge(&answer, &exp).expect("top is sound");
    }
}
