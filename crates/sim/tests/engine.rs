//! Engine semantics tests: timing, preemption, store-and-forward,
//! exact objective accounting, and cross-checks against the naive
//! reference simulator.

use bct_core::{Instance, Job, JobId, NodeId, SpeedProfile, Tree};
use bct_core::tree::TreeBuilder;
use bct_sim::policy::NoProbe;
use bct_sim::{invariants, AssignmentPolicy, KeyCtx, NodePolicy, PolicyKey, SimConfig, SimView, Simulation};
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

mod reference;
use reference::run_reference;

/// SJF on original size, ties by release then id — the paper's node rule.
struct Sjf;

impl NodePolicy for Sjf {
    fn name(&self) -> &'static str {
        "sjf"
    }
    fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
        let p = ctx.instance.p(ctx.job, ctx.node);
        let r = ctx.instance.job(ctx.job).release;
        PolicyKey::new(p, r, ctx.job.0)
    }
}

/// Dispatch job i to `leaves[i]`.
struct Fixed(Vec<NodeId>);

impl AssignmentPolicy for Fixed {
    fn name(&self) -> &'static str {
        "fixed"
    }
    fn assign(&mut self, _view: &SimView<'_>, job: JobId) -> NodeId {
        self.0[job.as_usize()]
    }
}

/// root -> r(1) -> m(2) -> leaf(3); a single chain with one machine.
fn chain_tree(routers: usize) -> Tree {
    let mut b = TreeBuilder::new();
    let r = b.add_child(NodeId::ROOT);
    let chain = b.add_chain(r, routers.saturating_sub(1));
    let last = chain.last().copied().unwrap_or(r);
    b.add_child(last);
    b.build().unwrap()
}

/// root with two subtrees, three leaves total.
fn branching_tree() -> Tree {
    let mut b = TreeBuilder::new();
    let r1 = b.add_child(NodeId::ROOT);
    let r2 = b.add_child(NodeId::ROOT);
    let a = b.add_child(r1);
    b.add_child(a); // leaf 4
    b.add_child(a); // leaf 5
    let c = b.add_child(r2);
    b.add_child(c); // leaf 7
    b.build().unwrap()
}

fn run(
    inst: &Instance,
    leaves: Vec<NodeId>,
    speeds: SpeedProfile,
) -> bct_sim::SimOutcome {
    let cfg = SimConfig::with_speeds(speeds).traced();
    Simulation::run(inst, &Sjf, &mut Fixed(leaves), &mut NoProbe, &cfg).unwrap()
}

#[test]
fn single_job_timing_on_a_chain() {
    // 2 routers + leaf, p = 3: hops finish at 3, 6, 9.
    let t = chain_tree(2);
    let leaf = t.leaves()[0];
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 3.0)]).unwrap();
    let out = run(&inst, vec![leaf], SpeedProfile::unit());
    assert_eq!(out.completions[0], Some(9.0));
    assert_eq!(out.hop_finishes[0], vec![3.0, 6.0, 9.0]);
    assert_eq!(out.unfinished, 0);
}

#[test]
fn single_job_fractional_flow_closed_form() {
    // d nodes of size p at unit speed: fractional flow = (d-1)p + p/2.
    let t = chain_tree(2);
    let leaf = t.leaves()[0];
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 4.0)]).unwrap();
    let out = run(&inst, vec![leaf], SpeedProfile::unit());
    assert!((out.fractional_flow - (2.0 * 4.0 + 2.0)).abs() < 1e-9);
    assert!((out.count_integral - 12.0).abs() < 1e-9);
}

#[test]
fn speed_scales_completion_times() {
    let t = chain_tree(1);
    let leaf = t.leaves()[0];
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 6.0)]).unwrap();
    let out = run(&inst, vec![leaf], SpeedProfile::Uniform(2.0));
    // two hops at speed 2: 3 + 3.
    assert_eq!(out.completions[0], Some(6.0));
}

#[test]
fn layered_speeds_apply_per_depth() {
    let t = chain_tree(2); // r at depth 1, m at depth 2, leaf at depth 3
    let leaf = t.leaves()[0];
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 6.0)]).unwrap();
    let speeds = SpeedProfile::Layered {
        root_adjacent: 1.0,
        deeper: 3.0,
    };
    let out = run(&inst, vec![leaf], speeds);
    // 6/1 + 6/3 + 6/3 = 10.
    assert_eq!(out.completions[0], Some(10.0));
}

#[test]
fn sjf_preempts_longer_job() {
    // Long job arrives first, short job preempts it on the first router.
    let t = chain_tree(1);
    let leaf = t.leaves()[0];
    let inst = Instance::new(
        t,
        vec![
            Job::identical(0u32, 0.0, 10.0),
            Job::identical(1u32, 1.0, 2.0),
        ],
    )
    .unwrap();
    let out = run(&inst, vec![leaf, leaf], SpeedProfile::unit());
    // Short: router 1->3, leaf 3->5 => C=5.
    assert_eq!(out.completions[1], Some(5.0));
    // Long: router work 0..1 then 3..12 (9 more), leaf 12..22.
    assert_eq!(out.completions[0], Some(22.0));
    // Trace must record the preemption.
    let tr = out.trace.as_ref().unwrap();
    assert!(tr
        .events
        .iter()
        .any(|e| e.kind == bct_sim::TraceKind::Preempt && e.job == JobId(0)));
}

#[test]
fn store_and_forward_blocks_next_hop() {
    // Two equal jobs to the same leaf: the second cannot start at the
    // second node before it finishes the first node.
    let t = chain_tree(1);
    let leaf = t.leaves()[0];
    let inst = Instance::new(
        t,
        vec![
            Job::identical(0u32, 0.0, 4.0),
            Job::identical(1u32, 0.5, 4.0),
        ],
    )
    .unwrap();
    let out = run(&inst, vec![leaf, leaf], SpeedProfile::unit());
    // J0: router 0..4, leaf 4..8. J1: router 4..8, leaf 8..12.
    assert_eq!(out.hop_finishes[0], vec![4.0, 8.0]);
    assert_eq!(out.hop_finishes[1], vec![8.0, 12.0]);
}

#[test]
fn unrelated_leaf_sizes_apply_at_leaves_only() {
    let t = branching_tree();
    // leaves: v4, v5, v7 (indices 0,1,2)
    let inst = Instance::new(
        t.clone(),
        vec![Job::unrelated(0u32, 0.0, 2.0, vec![100.0, 1.0, 50.0])],
    )
    .unwrap();
    let out = run(&inst, vec![NodeId(5)], SpeedProfile::unit());
    // path r1(2) + a(2) + leaf5(1) = 5.
    assert_eq!(out.completions[0], Some(5.0));
}

#[test]
fn parallel_subtrees_do_not_interfere() {
    let t = branching_tree();
    let inst = Instance::new(
        t,
        vec![
            Job::identical(0u32, 0.0, 5.0),
            Job::identical(1u32, 0.0, 5.0),
        ],
    )
    .unwrap();
    // One job per root-adjacent subtree: both finish as if alone.
    let out = run(&inst, vec![NodeId(4), NodeId(7)], SpeedProfile::unit());
    assert_eq!(out.completions[0], Some(15.0));
    assert_eq!(out.completions[1], Some(15.0));
}

#[test]
fn horizon_stops_early_and_counts_unfinished() {
    let t = chain_tree(1);
    let leaf = t.leaves()[0];
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 10.0)]).unwrap();
    let mut cfg = SimConfig::unit();
    cfg.horizon = Some(5.0);
    let out = Simulation::run(&inst, &Sjf, &mut Fixed(vec![leaf]), &mut NoProbe, &cfg).unwrap();
    assert_eq!(out.unfinished, 1);
    assert_eq!(out.completions[0], None);
    assert!((out.makespan - 5.0).abs() < 1e-9);
    // count integral: 1 unfinished job for 5 time units.
    assert!((out.count_integral - 5.0).abs() < 1e-9);
}

#[test]
fn busy_times_sum_to_work_done() {
    let t = chain_tree(1);
    let leaf = t.leaves()[0];
    let inst = Instance::new(
        t,
        vec![
            Job::identical(0u32, 0.0, 3.0),
            Job::identical(1u32, 0.0, 5.0),
        ],
    )
    .unwrap();
    let out = run(&inst, vec![leaf, leaf], SpeedProfile::unit());
    // total work = 2 hops * (3+5) = 16 at unit speed.
    let busy: f64 = out.node_busy.iter().sum();
    assert!((busy - 16.0).abs() < 1e-9);
}

#[test]
fn trace_passes_invariant_checker() {
    let t = branching_tree();
    let inst = Instance::new(
        t,
        vec![
            Job::identical(0u32, 0.0, 4.0),
            Job::identical(1u32, 0.5, 1.0),
            Job::identical(2u32, 1.0, 2.0),
            Job::identical(3u32, 1.5, 8.0),
        ],
    )
    .unwrap();
    let out = run(
        &inst,
        vec![NodeId(4), NodeId(4), NodeId(5), NodeId(7)],
        SpeedProfile::Uniform(1.5),
    );
    let violations = invariants::check(
        &inst,
        &SpeedProfile::Uniform(1.5),
        out.trace.as_ref().unwrap(),
    );
    assert!(violations.is_empty(), "violations: {violations:?}");
}

#[test]
fn total_flow_equals_count_integral() {
    let t = branching_tree();
    let inst = Instance::new(
        t,
        vec![
            Job::identical(0u32, 0.0, 4.0),
            Job::identical(1u32, 2.0, 1.0),
            Job::identical(2u32, 3.0, 2.0),
        ],
    )
    .unwrap();
    let out = run(
        &inst,
        vec![NodeId(4), NodeId(5), NodeId(7)],
        SpeedProfile::unit(),
    );
    let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
    assert!((out.total_flow(&releases) - out.count_integral).abs() < 1e-6);
}

// ---------------- randomized cross-check vs the reference ----------------

/// Random small instance. Every fourth seed is a line network — root,
/// a chain of 1-5 routers, one machine: the hard case of the
/// line-network lower bounds, where every job queues at every hop.
/// The other seeds draw a random small tree.
fn random_instance(seed: u64, unrelated: bool) -> (Instance, Vec<NodeId>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = TreeBuilder::new();
    if seed % 4 == 0 {
        let chain = b.add_chain(NodeId::ROOT, rng.gen_range(1..=5));
        b.add_child(*chain.last().unwrap());
    } else {
        // Random small tree: 2-3 root children, each a random subtree.
        let mut interior = Vec::new();
        for _ in 0..rng.gen_range(2..=3) {
            let r = b.add_child(NodeId::ROOT);
            interior.push(r);
            for _ in 0..rng.gen_range(1..=3) {
                let parent = interior[rng.gen_range(0..interior.len())];
                interior.push(b.add_child(parent));
            }
        }
        // Every interior node gets at least one machine below it.
        let snapshot = interior.clone();
        for v in snapshot {
            b.add_child(v);
        }
    }
    let t = b.build().unwrap();
    let n_leaves = t.num_leaves();
    let n = rng.gen_range(3..=12);
    let mut release = 0.0;
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            release += rng.gen_range(0.0..4.0);
            let size = [1.0, 2.0, 4.0, 8.0][rng.gen_range(0..4)];
            if unrelated {
                let sizes: Vec<f64> = (0..n_leaves)
                    .map(|_| [1.0, 3.0, 9.0][rng.gen_range(0..3)])
                    .collect();
                Job::unrelated(i as u32, release, size, sizes)
            } else {
                Job::identical(i as u32, release, size)
            }
        })
        .collect();
    let leaves: Vec<NodeId> = (0..n)
        .map(|_| t.leaves()[rng.gen_range(0..n_leaves)])
        .collect();
    (Instance::new(t, jobs).unwrap(), leaves)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_reference(seed in 0u64..5000, unrelated in any::<bool>(), speed in 1u32..4) {
        let (inst, leaves) = random_instance(seed, unrelated);
        let speeds = SpeedProfile::Uniform(speed as f64);
        let fast = run(&inst, leaves.clone(), speeds.clone());
        let slow = run_reference(&inst, &Sjf, &leaves, &speeds);
        for j in 0..inst.n() {
            let cf = fast.completions[j].expect("fast finished");
            let cs = slow.completions[j];
            prop_assert!((cf - cs).abs() < 1e-5, "job {j}: fast {cf} vs ref {cs}");
            let (hf, hs) = (fast.hop_finishes.row(j), &slow.hop_finishes[j]);
            prop_assert_eq!(hf.len(), hs.len(), "job {}: hop count", j);
            for (h, (a, b)) in hf.iter().zip(hs).enumerate() {
                prop_assert!((a - b).abs() < 1e-5, "job {j} hop {h}: fast {a} vs ref {b}");
            }
        }
        prop_assert!((fast.fractional_flow - slow.fractional_flow).abs() < 1e-4,
            "fractional: fast {} vs ref {}", fast.fractional_flow, slow.fractional_flow);
        prop_assert!((fast.count_integral - slow.count_integral).abs() < 1e-4);
    }

    #[test]
    fn engine_traces_are_always_feasible(seed in 0u64..5000, unrelated in any::<bool>()) {
        let (inst, leaves) = random_instance(seed, unrelated);
        let speeds = SpeedProfile::Layered { root_adjacent: 1.0, deeper: 2.0 };
        let out = run(&inst, leaves, speeds.clone());
        let violations = invariants::check(&inst, &speeds, out.trace.as_ref().unwrap());
        prop_assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn flow_time_lower_bounded_by_path_work(seed in 0u64..5000) {
        // F_j ≥ η_{j,leaf}/max_speed for every job.
        let (inst, leaves) = random_instance(seed, false);
        let out = run(&inst, leaves.clone(), SpeedProfile::Uniform(2.0));
        for j in 0..inst.n() {
            let jid = JobId(j as u32);
            let f = out.completions[j].unwrap() - inst.job(jid).release;
            let bound = inst.eta(jid, leaves[j]) / 2.0;
            prop_assert!(f >= bound - 1e-6, "job {j}: flow {f} < bound {bound}");
        }
    }
}

// ---------------- error paths and config behavior ----------------

struct BadAssigner;

impl AssignmentPolicy for BadAssigner {
    fn name(&self) -> &'static str {
        "bad"
    }
    fn assign(&mut self, _view: &SimView<'_>, _job: JobId) -> NodeId {
        NodeId(1) // a router, never a leaf
    }
}

#[test]
fn assignment_to_non_leaf_is_an_error() {
    let t = chain_tree(1);
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 1.0)]).unwrap();
    let err = Simulation::run(
        &inst,
        &Sjf,
        &mut BadAssigner,
        &mut NoProbe,
        &SimConfig::unit(),
    )
    .unwrap_err();
    assert!(matches!(
        err,
        bct_sim::engine::SimError::AssignmentNotALeaf { node: NodeId(1), .. }
    ));
    assert!(err.to_string().contains("non-leaf"));
}

#[test]
fn event_budget_guard_trips() {
    let t = chain_tree(2);
    let leaf = t.leaves()[0];
    let inst = Instance::new(
        t,
        (0..20).map(|i| Job::identical(i as u32, i as f64 * 0.1, 1.0)).collect(),
    )
    .unwrap();
    let mut cfg = SimConfig::unit();
    cfg.max_events = 5;
    let err = Simulation::run(
        &inst,
        &Sjf,
        &mut Fixed(vec![leaf; 20]),
        &mut NoProbe,
        &cfg,
    )
    .unwrap_err();
    assert!(matches!(err, bct_sim::engine::SimError::EventBudgetExceeded(5)));
}

#[test]
fn bad_speed_profile_is_an_error() {
    let t = chain_tree(1);
    let leaf = t.leaves()[0];
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 1.0)]).unwrap();
    let err = Simulation::run(
        &inst,
        &Sjf,
        &mut Fixed(vec![leaf]),
        &mut NoProbe,
        &SimConfig::with_speeds(SpeedProfile::Uniform(0.0)),
    )
    .unwrap_err();
    assert!(matches!(err, bct_sim::engine::SimError::BadSpeeds(_)));
}

#[test]
fn trace_is_absent_unless_requested() {
    let t = chain_tree(1);
    let leaf = t.leaves()[0];
    let inst = Instance::new(t, vec![Job::identical(0u32, 0.0, 1.0)]).unwrap();
    let out = Simulation::run(
        &inst,
        &Sjf,
        &mut Fixed(vec![leaf]),
        &mut NoProbe,
        &SimConfig::unit(),
    )
    .unwrap();
    assert!(out.trace.is_none());
}

#[test]
fn zero_jobs_is_a_clean_noop() {
    let t = chain_tree(1);
    let inst = Instance::new(t, vec![]).unwrap();
    let out = Simulation::run(
        &inst,
        &Sjf,
        &mut Fixed(vec![]),
        &mut NoProbe,
        &SimConfig::unit(),
    )
    .unwrap();
    assert_eq!(out.events, 0);
    assert_eq!(out.unfinished, 0);
    assert_eq!(out.makespan, 0.0);
    assert_eq!(out.fractional_flow, 0.0);
}

// ---------------- arbitrary-origin extension ----------------

#[test]
fn origin_job_routes_through_the_lca() {
    // branching_tree(): root -> r1 -> a -> {v4, v5}; root -> r2 -> c -> v7.
    // A job originating at v4 assigned to v5 goes a(3) -> v5: 2 hops.
    let t = branching_tree();
    let inst = Instance::new(
        t,
        vec![Job::identical(0u32, 0.0, 3.0).with_origin(NodeId(4))],
    )
    .unwrap();
    let out = run(&inst, vec![NodeId(5)], SpeedProfile::unit());
    assert_eq!(out.hop_finishes[0], vec![3.0, 6.0]);
    assert_eq!(out.completions[0], Some(6.0));
}

#[test]
fn origin_job_crossing_branches_pays_the_full_walk() {
    // v4 -> v7: a(3), r1(1), r2(2), c(6), v7 — 5 hops (root excluded).
    let t = branching_tree();
    let inst = Instance::new(
        t,
        vec![Job::identical(0u32, 0.0, 2.0).with_origin(NodeId(4))],
    )
    .unwrap();
    let out = run(&inst, vec![NodeId(7)], SpeedProfile::unit());
    assert_eq!(out.completions[0], Some(10.0));
    assert_eq!(out.hop_finishes[0].len(), 5);
}

#[test]
fn origin_at_destination_needs_only_leaf_processing() {
    let t = branching_tree();
    let inst = Instance::new(
        t,
        vec![Job::identical(0u32, 1.0, 4.0).with_origin(NodeId(4))],
    )
    .unwrap();
    let out = run(&inst, vec![NodeId(4)], SpeedProfile::unit());
    assert_eq!(out.completions[0], Some(5.0));
    assert_eq!(out.hop_finishes[0], vec![5.0]);
}

#[test]
fn origin_jobs_contend_with_root_jobs_on_shared_nodes() {
    // A root job and an origin job both need a(3); SJF orders by size.
    let t = branching_tree();
    let inst = Instance::new(
        t,
        vec![
            Job::identical(0u32, 0.0, 4.0),                        // root -> v5
            Job::identical(1u32, 0.1, 1.0).with_origin(NodeId(4)), // v4 -> v5
        ],
    )
    .unwrap();
    let out = run(&inst, vec![NodeId(5), NodeId(5)], SpeedProfile::unit());
    // J1 (size 1) wins node a(3) and leaf v5 whenever both wait.
    assert!(out.completions[1].unwrap() < out.completions[0].unwrap());
    let violations = invariants::check(
        &inst,
        &SpeedProfile::unit(),
        out.trace.as_ref().unwrap(),
    );
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn origin_runs_match_reference_engine() {
    let t = branching_tree();
    let inst = Instance::new(
        t,
        vec![
            Job::identical(0u32, 0.0, 2.0),
            Job::identical(1u32, 0.5, 3.0).with_origin(NodeId(4)),
            Job::identical(2u32, 1.0, 1.0).with_origin(NodeId(7)),
        ],
    )
    .unwrap();
    let leaves = vec![NodeId(4), NodeId(7), NodeId(5)];
    let speeds = SpeedProfile::Uniform(1.5);
    let fast = run(&inst, leaves.clone(), speeds.clone());
    let slow = run_reference(&inst, &Sjf, &leaves, &speeds);
    for j in 0..inst.n() {
        assert!((fast.completions[j].unwrap() - slow.completions[j]).abs() < 1e-6);
    }
}
