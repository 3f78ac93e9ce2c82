//! The run's result: named metrics with units, checked operations, and
//! the one-line JSON record the benchmark ends with.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::oracle::{self, Expectation};

#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// False once any internal check (such as repeat-exactness) fails.
    pub consistent: bool,
}

impl Report {
    #[must_use]
    pub fn new() -> Report {
        Report {
            consistent: true,
            ..Report::default()
        }
    }

    /// Records and prints one metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        println!("metric {name:<26} {value:>16.4} {unit}");
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Counts one checked operation, printing a failure with its input.
    pub fn attempt(&mut self, what: &str, outcome: &Result<(), String>, input: &str) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            // The first failures are listed in full; later ones only count.
            if self.failed <= 20 {
                println!("FAILED {what}: {why}\n--- input ---\n{input}--- end ---");
            }
        }
    }

    /// Prints the failure share and returns the final JSON record.
    #[must_use]
    pub fn finish(&self) -> String {
        let share = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        println!(
            "failed_share {share} ratio ({} of {} operations)",
            self.failed, self.attempted
        );
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.consistent && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

/// Judges answer lines against per-program expectations, once per
/// distinct (program, answer) pair: repeated identical answers reuse the
/// verdict, so checking stays cheap and outside every timed span.
pub struct Checker {
    expectations: Vec<Result<Expectation, String>>,
    judged: HashMap<(usize, String), Result<(), String>>,
}

impl Checker {
    #[must_use]
    pub fn new(inputs: &[crate::gen::Input]) -> Checker {
        Checker {
            expectations: inputs.iter().map(oracle::expect).collect(),
            judged: HashMap::new(),
        }
    }

    /// The verdict on `line` as program `index`'s answer.
    pub fn check(&mut self, index: usize, line: &str) -> Result<(), String> {
        if let Some(done) = self.judged.get(&(index, line.to_owned())) {
            return done.clone();
        }
        let verdict = match &self.expectations[index] {
            Err(e) => Err(format!("input cannot be simulated: {e}")),
            Ok(exp) => oracle::parse_answer(line)
                .and_then(|answer| oracle::judge(&answer, exp))
                .map_err(|why| format!("{why}; answer {line}")),
        };
        self.judged
            .insert((index, line.to_owned()), verdict.clone());
        verdict
    }
}
