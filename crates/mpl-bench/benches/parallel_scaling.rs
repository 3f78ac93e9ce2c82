//! E15: parallel batch-analysis scaling — wall time for the full corpus
//! batch as the `mpl-runtime` worker count grows (jobs = 1, 2, 4, 8).
//!
//! On a multi-core host the batch should approach linear speedup (the
//! jobs are independent); on a single-core container the times stay flat
//! and only measure the (small) pool overhead. Either way the *results*
//! are identical at every worker count — asserted here after measuring.

use mpl_bench::harness::Group;
use mpl_core::{AnalysisRequest, Client, RequestBatch};
use mpl_lang::corpus;
use std::hint::black_box;

/// The corpus plus a few scaled workloads so the batch has enough work
/// to amortize thread startup.
fn jobs() -> Vec<AnalysisRequest> {
    let mut out = Vec::new();
    for prog in corpus::all() {
        out.push(
            AnalysisRequest::builder()
                .name(prog.name)
                .program(prog.program)
                .build()
                .expect("valid request"),
        );
    }
    for k in [8usize, 16, 24] {
        let prog = corpus::repeated_exchanges(k);
        out.push(
            AnalysisRequest::builder()
                .name(format!("repeated_exchanges_{k}"))
                .program(prog.program)
                .client(Client::Simple)
                .build()
                .expect("valid request"),
        );
    }
    out
}

fn batch(workers: usize) -> RequestBatch {
    let mut batch = RequestBatch::new().workers(workers);
    for job in jobs() {
        batch.push(job);
    }
    batch
}

fn run_batch(workers: usize) -> usize {
    batch(workers).run().summary.programs
}

fn main() {
    let group = Group::new("parallel_batch_scaling");
    for workers in [1usize, 2, 4, 8] {
        group.bench(&format!("corpus_jobs_{workers}"), || {
            black_box(run_batch(workers))
        });
    }
    drop(group);

    // Sanity: the batch is result-deterministic at every worker count.
    let render = |workers: usize| {
        batch(workers)
            .run()
            .responses
            .iter()
            .map(|r| {
                let result = r.result.as_ref().expect("fault-free corpus completes");
                format!(
                    "{} {:?} {:?} {}",
                    r.name.as_deref().unwrap_or_default(),
                    result.verdict,
                    result.matches,
                    result.steps
                )
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    let seq = render(1);
    for workers in [2usize, 4, 8] {
        assert_eq!(
            seq,
            render(workers),
            "results diverged at {workers} workers"
        );
    }
    println!("\ndeterminism: corpus results identical for 1/2/4/8 workers");
}
