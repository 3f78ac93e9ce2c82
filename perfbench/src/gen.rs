//! Seeded input generator. Everything the program under test sees — the
//! `.mpl` files, the serve request lines and their due times — is
//! derived here from the benchmark's `--seed` with [`Rng64`]; the same
//! seed always yields byte-identical inputs.

use std::time::Duration;

use mpl_core::json_escape;
use mpl_lang::corpus::{self, GridDims, PatternHint};
use mpl_rng::Rng64;

/// The smallest process count every check runs at: the default
/// `AnalysisConfig::min_np`, which every workload analyzes under.
pub const MIN_NP: u64 = 4;

/// Result-cache capacity of `mpl serve` at its default `--cache`.
pub const SERVE_CACHE: usize = 128;

/// Serve working-set size: about four times the cache capacity, so the
/// cache holds the popular head and the tail keeps missing.
pub const SERVE_WORKING_SET: usize = 4 * SERVE_CACHE;

/// Zipf exponent of serve program popularity.
const ZIPF_S: f64 = 1.0;

/// One simulator run the oracle makes: a process count and the initial
/// bindings of a program's symbolic parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRun {
    pub np: u64,
    pub vars: Vec<(String, i64)>,
}

/// One generated program with what the oracle needs to judge answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Unique name; the file stem for `analyze-corpus`.
    pub name: String,
    pub source: String,
    /// The hand-written pattern class of a built-in corpus program.
    pub hint: Option<PatternHint>,
    /// The simulator runs that ground-truth this program.
    pub sims: Vec<SimRun>,
}

/// Even process counts: `pairwise_exchange` pairs ranks and has no
/// meaning at an odd `np`.
fn plain_sims() -> Vec<SimRun> {
    [MIN_NP, MIN_NP + 2, MIN_NP + 4]
        .into_iter()
        .map(|np| SimRun {
            np,
            vars: Vec::new(),
        })
        .collect()
}

fn grid_sim(nrows: i64, ncols: i64) -> SimRun {
    SimRun {
        np: u64::try_from(nrows * ncols).expect("grid sizes are positive"),
        vars: vec![("nrows".to_owned(), nrows), ("ncols".to_owned(), ncols)],
    }
}

/// Simulator runs for a built-in program. Symbolic grid programs
/// (`assume np = nrows * ncols` with no concrete dimensions) get grids
/// of the shape their `assume` facts require; concrete grids run at
/// their one valid `np`; everything else at several `np ≥ MIN_NP`.
fn sims_for(source: &str) -> Vec<SimRun> {
    if !source.contains("assume np = nrows * ncols") {
        return plain_sims();
    }
    let dims = |name: &str| -> Option<i64> {
        let prefix = format!("{name} := ");
        let line = source.lines().find(|l| l.starts_with(&prefix))?;
        line[prefix.len()..].trim_end_matches(';').parse().ok()
    };
    if let (Some(nrows), Some(ncols)) = (dims("nrows"), dims("ncols")) {
        return vec![SimRun {
            np: u64::try_from(nrows * ncols).expect("grid sizes are positive"),
            vars: Vec::new(),
        }];
    }
    if source.contains("assume ncols = nrows;") {
        vec![grid_sim(2, 2), grid_sim(3, 3)]
    } else if source.contains("assume ncols = 2 * nrows;") {
        vec![grid_sim(2, 4), grid_sim(3, 6)]
    } else {
        vec![grid_sim(2, 2), grid_sim(2, 3), grid_sim(3, 3)]
    }
}

fn from_corpus(name: String, prog: corpus::CorpusProgram) -> Input {
    Input {
        name,
        sims: sims_for(&prog.source),
        source: prog.source,
        hint: Some(prog.hint),
    }
}

/// The `wide` input: `exchange_with_root_wide(96)`.
#[must_use]
pub fn wide() -> Input {
    from_corpus("wide96".to_owned(), corpus::exchange_with_root_wide(96))
}

/// An operand: a literal, `id`, `np` or an earlier local.
fn operand(rng: &mut Rng64, vars: &[String]) -> String {
    match rng.index(4) {
        0 => {
            let c = rng.i64_in(-20, 21);
            if c < 0 {
                format!("({c})")
            } else {
                c.to_string()
            }
        }
        1 => "id".to_owned(),
        2 => "np".to_owned(),
        _ => rng.pick(vars).clone(),
    }
}

/// A right-hand side whose magnitude at most triples per assignment, so
/// a 32-local chain stays far inside `i64` for any process count the
/// oracle simulates.
fn rhs(rng: &mut Rng64, vars: &[String]) -> String {
    match rng.index(4) {
        0 => operand(rng, vars),
        1 => format!("{} + {}", operand(rng, vars), operand(rng, vars)),
        2 => format!("{} - {}", operand(rng, vars), operand(rng, vars)),
        _ => format!("{} * {}", rng.i64_in(2, 4), operand(rng, vars)),
    }
}

/// `seed := tag;` followed by `locals` chained assignments.
fn prologue(rng: &mut Rng64, tag: usize, locals: usize) -> (String, Vec<String>) {
    let mut src = format!("seed := {tag};\n");
    let mut vars = vec!["seed".to_owned()];
    for i in 0..locals {
        let e = rhs(rng, &vars);
        src.push_str(&format!("v{i} := {e};\n"));
        vars.push(format!("v{i}"));
    }
    (src, vars)
}

/// The skeleton families of the randomized soundness tests.
pub const FAMILIES: [&str; 4] = ["broadcast", "gather", "exchange", "pair"];

fn skeleton(family: usize, payload: &str) -> String {
    match family {
        0 => format!(
            "if id = 0 then\n  for i = 1 to np - 1 do\n    send {payload} -> i;\n  end\n\
             else\n  recv y <- 0;\n  print y;\nend\n"
        ),
        1 => format!(
            "if id = 0 then\n  for i = 1 to np - 1 do\n    recv y <- i;\n    print y;\n  end\n\
             else\n  send {payload} -> 0;\nend\n"
        ),
        2 => format!(
            "if id = 0 then\n  for i = 1 to np - 1 do\n    send {payload} -> i;\n    recv y <- i;\n  end\n\
             else\n  recv y <- 0;\n  send {payload} -> 0;\nend\n"
        ),
        _ => format!(
            "if id = 0 then\n  send {payload} -> 1;\nelse\n  if id = 1 then\n    recv y <- 0;\n    print y;\n  end\nend\n"
        ),
    }
}

/// One skeleton program of `family` wrapped around a prologue of
/// `locals` chained locals; `tag` makes every generated source distinct.
fn skeleton_program(rng: &mut Rng64, tag: usize, family: usize, locals: usize) -> Input {
    let (pro, vars) = prologue(rng, tag, locals);
    let payload = rng.pick(&vars).clone();
    Input {
        name: format!("g{tag:03}_{}{locals}", FAMILIES[family]),
        source: format!("{pro}{}", skeleton(family, &payload)),
        hint: None,
        sims: plain_sims(),
    }
}

/// Largest prologue of a generated corpus program.
pub const CORPUS_MAX_LOCALS: usize = 32;

/// The `corpus` inputs: the built-in corpus; one skeleton program for
/// each prologue size from 0 to [`CORPUS_MAX_LOCALS`] locals, the families
/// taking turns; and the concrete-dimension grid programs of every shape
/// at 2 and 3 rows and columns. Sizes, families and grids are fixed, so
/// the seed varies what the programs compute (expressions and payloads)
/// but hardly how much work they take.
#[must_use]
pub fn corpus_inputs(seed: u64) -> Vec<Input> {
    let mut inputs: Vec<Input> = corpus::all()
        .into_iter()
        .enumerate()
        .map(|(i, p)| from_corpus(format!("b{i:02}_{}", p.name), p))
        .collect();
    let mut rng = Rng64::seed_from_u64(seed ^ 0xC0_4B05);
    for locals in 0..=CORPUS_MAX_LOCALS {
        let family = locals % FAMILIES.len();
        inputs.push(skeleton_program(&mut rng, locals, family, locals));
    }
    let grids = (0..4)
        .flat_map(|shape| [(2, 2), (2, 3), (3, 2), (3, 3)].map(|(n, m)| (shape, n, m)))
        .filter(|&(shape, n, m)| shape >= 2 || n == m);
    for (k, (shape, n, m)) in grids.enumerate() {
        let (label, prog) = match shape {
            0 => (
                "transpose_square",
                corpus::nas_cg_transpose_square(GridDims::Concrete { nrows: n, ncols: n }),
            ),
            1 => (
                "transpose_rect",
                corpus::nas_cg_transpose_rect(GridDims::Concrete {
                    nrows: n,
                    ncols: 2 * n,
                }),
            ),
            2 => (
                "stencil_vertical",
                corpus::stencil_2d_vertical(GridDims::Concrete { nrows: n, ncols: m }),
            ),
            _ => (
                "stencil_full",
                corpus::stencil_2d_full(GridDims::Concrete { nrows: n, ncols: m }),
            ),
        };
        inputs.push(from_corpus(format!("h{k:02}_{label}{n}x{m}"), prog));
    }
    inputs
}

/// Largest prologue of a serve working-set program.
pub const SERVE_MAX_LOCALS: usize = 8;

/// The serve working set: small skeleton programs, listed from most to
/// least popular. Popularity rank `k` has `k mod 9` locals (at most
/// [`SERVE_MAX_LOCALS`]) and family `(k / 9) mod 4`, so every popularity
/// band holds the same mix of sizes and families; the seed picks the
/// expressions and payloads.
#[must_use]
pub fn serve_working_set(seed: u64) -> Vec<Input> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5E_4E);
    let sizes = SERVE_MAX_LOCALS + 1;
    (0..SERVE_WORKING_SET)
        .map(|tag| skeleton_program(&mut rng, tag, (tag / sizes) % FAMILIES.len(), tag % sizes))
        .collect()
}

/// The `analyze` request line `mpl serve` receives for `input`. It names
/// no knob, so the reply must equal the cold `mpl analyze --json` answer.
#[must_use]
pub fn request_line(input: &Input) -> String {
    format!(
        "{{\"op\":\"analyze\",\"program\":\"{}\"}}",
        json_escape(&input.source)
    )
}

fn unit(rng: &mut Rng64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Draws working-set indices with Zipf-like popularity: index `i` has
/// weight `1 / (i + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    #[must_use]
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng64) -> usize {
        let u = unit(rng);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One open-loop request: when it is due (from the phase start) and
/// which working-set program it asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub due: Duration,
    pub program: usize,
}

/// A seeded open-loop phase: requests evenly spaced at `rate` per
/// second for `length`, each drawing a program from `zipf`. Even spacing
/// keeps arrival bursts out of the tail, so the tail measures the server.
/// `stream` separates the phases of one run.
#[must_use]
pub fn arrivals(seed: u64, stream: u64, rate: f64, length: Duration, zipf: &Zipf) -> Vec<Arrival> {
    let mut rng = Rng64::seed_from_u64(seed ^ 0xA2_21 ^ stream.wrapping_mul(0x9E37_79B9));
    let count = (length.as_secs_f64() * rate).floor() as usize;
    (0..count)
        .map(|k| Arrival {
            due: Duration::from_secs_f64(k as f64 / rate),
            program: zipf.draw(&mut rng),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_inputs() {
        assert_eq!(corpus_inputs(7), corpus_inputs(7));
        assert_eq!(serve_working_set(7), serve_working_set(7));
        let zipf = Zipf::new(SERVE_WORKING_SET);
        let a = arrivals(7, 1, 300.0, Duration::from_secs(2), &zipf);
        assert_eq!(a, arrivals(7, 1, 300.0, Duration::from_secs(2), &zipf));
        assert_ne!(a, arrivals(8, 1, 300.0, Duration::from_secs(2), &zipf));
        assert_ne!(a, arrivals(7, 2, 300.0, Duration::from_secs(2), &zipf));
        assert_ne!(corpus_inputs(7), corpus_inputs(8));
        assert_ne!(serve_working_set(7), serve_working_set(8));
    }

    #[test]
    fn generated_programs_parse_and_are_distinct() {
        for inputs in [corpus_inputs(3), serve_working_set(3)] {
            for input in &inputs {
                mpl_lang::parse_program(&input.source)
                    .unwrap_or_else(|e| panic!("{}: {e}\n{}", input.name, input.source));
            }
            let mut sources: Vec<&str> = inputs.iter().map(|i| i.source.as_str()).collect();
            let total = sources.len();
            sources.sort_unstable();
            sources.dedup();
            assert_eq!(sources.len(), total);
        }
    }

    #[test]
    fn zipf_favours_the_head() {
        let zipf = Zipf::new(SERVE_WORKING_SET);
        let mut rng = Rng64::seed_from_u64(1);
        let draws: Vec<usize> = (0..10_000).map(|_| zipf.draw(&mut rng)).collect();
        let head = draws.iter().filter(|&&i| i < SERVE_CACHE).count();
        assert!(draws.iter().all(|&i| i < SERVE_WORKING_SET));
        assert!(head > 7_000, "head share {head}");
    }
}
