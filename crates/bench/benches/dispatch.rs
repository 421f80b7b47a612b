//! Greedy dispatch-scoring benchmark: aggregate-backed `O(log |Q|)`
//! queue queries vs the naive `O(|Q|)` scan oracle.
//!
//! One driving simulation per variant (round-robin assignment, SJF
//! nodes, 50k jobs on a 1024-leaf fat tree) provides live queue states;
//! at sampled arrivals a probe times full greedy assignments two ways:
//! a per-leaf loop — score every leaf through `GreedyIdentical::score`,
//! take the argmin — and `GreedyIdentical::assign`, the dispatch the
//! sweep runs, which scores once per run of leaves sharing an entry
//! node and a path length (16 here) instead of once per leaf. Both must
//! pick the same leaf. Both variants run the *same* scoring code: the
//! "aggregate" run keys the engine's queue aggregates like the policy
//! (fast path taken), the "naive" run mis-keys them (class-rounded
//! engine vs raw-size policy), so every query falls back to the scan
//! oracle. Only the time inside the scoring calls is measured.
//!
//! The probe times the least-volume baseline the same two ways: a
//! per-leaf loop that scans the entry queue and the leaf queue of every
//! leaf and adds its path work, against `LeastVolume::assign`, which
//! scans each entry queue once per run. Both must pick the same leaf;
//! least-volume reads no aggregates, so it is reported from the
//! aggregate run only.

use bct_core::{ClassRounding, Instance, JobId, NodeId, SpeedProfile};
use bct_policies::{LeastVolume, Sjf};
use bct_sched::GreedyIdentical;
use bct_sim::policy::Probe;
use bct_sim::{AssignmentPolicy, SimConfig, SimView, Simulation};
use bct_workloads::jobs::{SizeDist, WorkloadSpec};
use bct_workloads::topo;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cheap deterministic driving assignment: cycle over the leaves.
struct RoundRobin {
    leaves: Vec<NodeId>,
    next: usize,
}

impl AssignmentPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }
    fn assign(&mut self, _view: &SimView<'_>, _job: JobId) -> NodeId {
        let v = self.leaves[self.next];
        self.next = (self.next + 1) % self.leaves.len();
        v
    }
}

/// Times `reps` full greedy assignments each way at every
/// `sample_every`-th arrival (skipping the cold start), accumulating
/// only scoring time.
struct ScoringTimer {
    policy: GreedyIdentical,
    sample_every: usize,
    reps: u64,
    /// Time in the per-leaf `score` loops.
    elapsed: Duration,
    /// Time in `assign`.
    assign_elapsed: Duration,
    /// Time in the per-leaf least-volume loops.
    lv_elapsed: Duration,
    /// Time in `LeastVolume::assign`.
    lv_assign_elapsed: Duration,
    assignments: u64,
    sink: f64,
}

impl Probe for ScoringTimer {
    fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
        let id = job.as_usize();
        if id == 0 || id % self.sample_every != 0 {
            return;
        }
        let leaves = view.instance().tree().leaves();
        let mut best_leaf = leaves[0];
        let start = Instant::now();
        for _ in 0..self.reps {
            let mut best = f64::INFINITY;
            for &v in leaves {
                let s = self.policy.score(view, job, v);
                if s < best {
                    best = s;
                    best_leaf = v;
                }
            }
            self.sink += best;
        }
        self.elapsed += start.elapsed();
        let mut chosen = best_leaf;
        let start = Instant::now();
        for _ in 0..self.reps {
            chosen = black_box(self.policy.assign(view, job));
        }
        self.assign_elapsed += start.elapsed();
        assert_eq!(chosen, best_leaf, "assign and the per-leaf argmin disagree on {job}");

        let queued = |v: NodeId| -> f64 { view.q(v).map(|i| view.remaining_at(i, v)).sum() };
        let start = Instant::now();
        for _ in 0..self.reps {
            let mut best = f64::INFINITY;
            for &v in leaves {
                let s = queued(view.entry_node(job, v)) + queued(v) + view.eta_via(job, v);
                if s < best {
                    best = s;
                    best_leaf = v;
                }
            }
            black_box(best);
        }
        self.lv_elapsed += start.elapsed();
        let start = Instant::now();
        for _ in 0..self.reps {
            chosen = black_box(LeastVolume.assign(view, job));
        }
        self.lv_assign_elapsed += start.elapsed();
        assert_eq!(chosen, best_leaf, "least-volume and its per-leaf argmin disagree on {job}");
        self.assignments += self.reps;
    }
}

/// Run the driving simulation and return the probe, holding the timings
/// and the checksum. `fast` keys the engine aggregates to match the
/// scoring policy; otherwise they are deliberately mis-keyed so every
/// query takes the scan fallback.
fn measure(inst: &Instance, reps: u64, fast: bool) -> ScoringTimer {
    let mut cfg = SimConfig::with_speeds(SpeedProfile::unit());
    if !fast {
        cfg.dispatch_rounding = Some(ClassRounding::new(0.5));
    }
    let mut probe = ScoringTimer {
        policy: GreedyIdentical::new(0.5),
        sample_every: inst.n() / 10,
        reps,
        elapsed: Duration::ZERO,
        assign_elapsed: Duration::ZERO,
        lv_elapsed: Duration::ZERO,
        lv_assign_elapsed: Duration::ZERO,
        assignments: 0,
        sink: 0.0,
    };
    let mut asg = RoundRobin {
        leaves: inst.tree().leaves().to_vec(),
        next: 0,
    };
    Simulation::run(inst, &Sjf::new(), &mut asg, &mut probe, &cfg).unwrap();
    assert!(probe.assignments > 0, "probe never sampled an arrival");
    probe
}

fn dispatch_scoring(c: &mut Criterion) {
    let tree = topo::fat_tree(16, 8, 8);
    assert!(tree.num_leaves() >= 1000, "bench needs a wide tree");
    // Overdriven load (ρ = 2 at the root-adjacent layer): the entry
    // queues build into the hundreds over the run, which is the regime
    // the per-node aggregates exist for. At ρ < 1 queues stay O(1) and
    // a scan is nearly free.
    let inst = WorkloadSpec::poisson_identical(
        50_000,
        2.0,
        SizeDist::PowerOfBase { base: 2.0, max_k: 4 },
        &tree,
    )
    .instance(&tree, 17)
    .expect("valid instance");

    let reps = 5;
    let fast = measure(&inst, reps, true);
    let slow = measure(&inst, reps, false);
    assert_eq!(fast.assignments, slow.assignments);
    // Same scores up to summation order; a checksum divergence means the
    // two paths scored different queues.
    assert!(
        (fast.sink - slow.sink).abs() <= 1e-6 * (1.0 + slow.sink.abs()),
        "checksum diverged: {} vs {}",
        fast.sink,
        slow.sink
    );

    let mut g = c.benchmark_group("dispatch_scoring");
    g.sample_size(fast.assignments as usize);
    for (name, t) in [
        ("greedy-assign/aggregate", fast.elapsed),
        ("greedy-assign/naive", slow.elapsed),
        ("greedy-assign/aggregate/assign", fast.assign_elapsed),
        ("greedy-assign/naive/assign", slow.assign_elapsed),
        ("least-volume/per-leaf", fast.lv_elapsed),
        ("least-volume/assign", fast.lv_assign_elapsed),
    ] {
        g.bench_function(format!("{name}/1024-leaves-50k-jobs"), |b| b.iter_custom(|_| t));
    }
    g.finish();

    let per_call_us = |t: Duration| t.as_secs_f64() * 1e6 / fast.assignments as f64;
    for (name, loop_t, assign_t) in [
        ("aggregate", fast.elapsed, fast.assign_elapsed),
        ("naive", slow.elapsed, slow.assign_elapsed),
        ("least-volume", fast.lv_elapsed, fast.lv_assign_elapsed),
    ] {
        println!(
            "dispatch_scoring/{name}: per-leaf score loop {:.1} us, assign {:.1} us per assignment \
             ({:.1}x)",
            per_call_us(loop_t),
            per_call_us(assign_t),
            loop_t.as_secs_f64() / assign_t.as_secs_f64()
        );
    }
    let speedup = slow.elapsed.as_secs_f64() / fast.elapsed.as_secs_f64();
    println!("dispatch_scoring/speedup(naive/aggregate): {speedup:.1}x");
    assert!(
        speedup >= 5.0,
        "aggregate scoring must be >=5x faster than the scan oracle, got {speedup:.1}x"
    );
}

criterion_group!(benches, dispatch_scoring);
criterion_main!(benches);
