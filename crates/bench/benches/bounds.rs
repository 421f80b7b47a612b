//! Pooled-SRPT bound scaling benchmark: times `pooled_srpt_bound`, best
//! of 5, on 10k- and 50k-job Poisson instances on the 1024-leaf
//! `fat-tree:16,8,8`, both generated in this run.
//!
//! The bound keeps released, unfinished jobs in a heap, so five times
//! the jobs should cost a little over five times the time; a per-step
//! scan of every job costs about 25 times. The gate is that same-run
//! ratio, `t(50k) / t(10k) < 12`: host speed cancels out of it, so no
//! absolute floor is needed.

use bct_core::Instance;
use bct_lp::bounds::pooled_srpt_bound;
use bct_workloads::jobs::{SizeDist, WorkloadSpec};
use bct_workloads::topo;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timed calls per size; the fastest counts.
const REPS: usize = 5;

/// Largest accepted `t(50k) / t(10k)`.
const MAX_RATIO: f64 = 12.0;

/// Best-of-`REPS` wall time of one `pooled_srpt_bound` call, and the
/// bound itself.
fn best_time(inst: &Instance) -> (Duration, f64) {
    let mut best = Duration::MAX;
    let mut bound = 0.0;
    for _ in 0..REPS {
        let start = Instant::now();
        bound = black_box(pooled_srpt_bound(black_box(inst), 1.0));
        best = best.min(start.elapsed());
    }
    (best, bound)
}

fn pooled_srpt_scaling(c: &mut Criterion) {
    let tree = topo::fat_tree(16, 8, 8);
    let sizes = SizeDist::PowerOfBase { base: 2.0, max_k: 4 };
    let mut times = Vec::new();
    let mut g = c.benchmark_group("pooled_srpt_bound");
    // One "iteration" reported per size: the best-of-REPS call time.
    g.sample_size(1);
    for n in [10_000, 50_000] {
        let inst = WorkloadSpec::poisson_identical(n, 0.95, sizes, &tree)
            .instance(&tree, 17)
            .expect("valid instance");
        let (t, bound) = best_time(&inst);
        assert!(bound.is_finite() && bound > 0.0, "bound {bound} at {n} jobs");
        g.bench_function(format!("fat-tree-16-8-8/{n}-jobs/best-of-{REPS}"), |b| {
            b.iter_custom(|_| t)
        });
        times.push(t);
    }
    g.finish();
    let ratio = times[1].as_secs_f64() / times[0].as_secs_f64();
    println!("pooled_srpt_bound/ratio(50k/10k): {ratio:.1} (gate < {MAX_RATIO})");
    assert!(
        ratio < MAX_RATIO,
        "pooled_srpt_bound must scale near n log n: t(50k)/t(10k) = {ratio:.1}, gate < {MAX_RATIO}"
    );
}

criterion_group!(benches, pooled_srpt_scaling);
criterion_main!(benches);
