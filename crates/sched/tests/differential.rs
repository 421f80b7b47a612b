//! Differential tests: the aggregate-backed `O(log)` dispatch scoring
//! must agree with the scan oracle (`bct_policies::prio::naive`).
//!
//! The exact-equality suites draw every quantity from dyadic rationals
//! — power-of-two sizes, quarter-integer releases, unit speeds — so all
//! float sums are exact in any association order and the two paths must
//! match *bit for bit*, including the greedy `argmin` leaf choice. A
//! separate tolerance suite uses arbitrary sizes, where the two
//! summation orders may differ in the last bits.
//!
//! Every suite also checks the dispatching rules themselves: the greedy
//! rules and least-volume walk the leaves in runs sharing an entry node
//! and a path length (`SimView::leaf_runs`), score a run once where
//! their score allows it, and must pick exactly the leaf a
//! one-leaf-at-a-time argmin over the same score picks. Beyond the
//! random trees, whose runs are mostly a single leaf, the suites cover
//! generator topologies with long runs and mixed-depth entry subtrees,
//! and jobs with leaf origins.

use bct_core::tree::TreeBuilder;
use bct_core::{ClassRounding, Instance, Job, JobId, NodeId, SpeedProfile, Tree};
use bct_policies::prio::{self, naive};
use bct_policies::{LeastVolume, Sjf};
use bct_sched::cost::{distance_term, f_prime_term, f_term};
use bct_sched::{GreedyIdentical, GreedyUnrelated};
use bct_sim::policy::Probe;
use bct_sim::{AssignmentPolicy, SimConfig, SimView, Simulation};
use bct_workloads::jobs::with_random_leaf_origins;
use bct_workloads::topo;
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Random tree: 2–3 root children, random interior growth, a machine
/// under every interior node. Leaves are numbered in interior-node
/// order, which interleaves the subtrees of different root children, so
/// consecutive leaves often change entry node.
fn random_tree(rng: &mut ChaCha8Rng) -> Tree {
    let mut b = TreeBuilder::new();
    let mut interior = Vec::new();
    for _ in 0..rng.gen_range(2..=3) {
        let r = b.add_child(NodeId::ROOT);
        interior.push(r);
        for _ in 0..rng.gen_range(1..=4) {
            let parent = interior[rng.gen_range(0..interior.len())];
            interior.push(b.add_child(parent));
        }
    }
    let snapshot = interior.clone();
    for v in snapshot {
        b.add_child(v);
    }
    b.build().unwrap()
}

/// Random instance with dyadic data when `dyadic` is set (exact float
/// sums), arbitrary sizes otherwise.
fn random_instance(seed: u64, unrelated: bool, dyadic: bool) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let t = random_tree(&mut rng);
    let n = rng.gen_range(8..=30);
    random_jobs_on(t, &mut rng, n, unrelated, dyadic)
}

/// A generator topology. The fat tree and the k-ary tree number each
/// entry subtree contiguously with equal-depth leaves, so each entry
/// node is one long run of leaves; the caterpillar and the broomstick
/// hang leaves at several depths below one entry node, so an entry
/// node spans several runs.
fn generator_tree(shape: u8) -> Tree {
    match shape {
        0 => topo::fat_tree(3, 2, 3),
        1 => topo::kary(3, 2),
        2 => topo::caterpillar(3, 3),
        _ => topo::broomstick(2, 3, 2),
    }
}

/// Dyadic instance on [`generator_tree`], with enough jobs that entry
/// and leaf queues fill (every queued job counts in its leaf's queue
/// while it waits upstream).
fn generator_instance(seed: u64, shape: u8, unrelated: bool) -> Instance {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rng.gen_range(30..=60);
    random_jobs_on(generator_tree(shape), &mut rng, n, unrelated, true)
}

/// `n` random jobs on `t`, drawn from `rng`.
fn random_jobs_on(
    t: Tree,
    rng: &mut ChaCha8Rng,
    n: usize,
    unrelated: bool,
    dyadic: bool,
) -> Instance {
    let n_leaves = t.num_leaves();
    let mut release = 0.0;
    let size = |rng: &mut ChaCha8Rng| -> f64 {
        if dyadic {
            [0.5, 1.0, 2.0, 4.0, 8.0][rng.gen_range(0..5)]
        } else {
            rng.gen_range(0.1..10.0)
        }
    };
    let jobs: Vec<Job> = (0..n)
        .map(|i| {
            release += if dyadic {
                0.25 * rng.gen_range(0..8) as f64
            } else {
                rng.gen_range(0.0..2.0)
            };
            let s = size(rng);
            if unrelated {
                let sizes: Vec<f64> = (0..n_leaves).map(|_| size(rng)).collect();
                Job::unrelated(i as u32, release, s, sizes)
            } else {
                Job::identical(i as u32, release, s)
            }
        })
        .collect();
    Instance::new(t, jobs).unwrap()
}

/// First-strict-minimum argmin over the leaves — the same tie-breaking
/// as the greedy rules' internal `argmin_leaf`.
fn argmin_leaf(leaves: &[NodeId], mut score: impl FnMut(NodeId) -> f64) -> NodeId {
    let mut best = leaves[0];
    let mut best_score = f64::INFINITY;
    for &v in leaves {
        let s = score(v);
        if s < best_score {
            best_score = s;
            best = v;
        }
    }
    best
}

/// At every arrival and hop completion, compare the dispatching helpers
/// (aggregate fast path when the engine's rounding matches) against the
/// scan oracle for the triggering job at every leaf.
struct DiffProbe {
    rounding: Option<ClassRounding>,
    exact: bool,
    checks: usize,
}

impl DiffProbe {
    fn close(&self, a: f64, b: f64) -> bool {
        if self.exact {
            a == b
        } else {
            (a - b).abs() <= 1e-9 * (1.0 + b.abs())
        }
    }

    fn check(&mut self, view: &SimView<'_>, j: JobId) {
        let inst = view.instance();
        let r = self.rounding.as_ref();
        for &leaf in inst.tree().leaves() {
            let entry = inst.entry_node(j, leaf);
            for v in [entry, leaf] {
                let (fv, nv) = (
                    prio::s_volume_excl(view, r, v, j),
                    naive::s_volume_excl(view, r, v, j),
                );
                assert!(self.close(fv, nv), "s_volume at {v}: {fv} vs {nv}");
                assert_eq!(
                    prio::count_larger(view, r, v, j),
                    naive::count_larger(view, r, v, j),
                    "count_larger at {v}"
                );
                let (ff, nf) = (
                    prio::frac_count_larger(view, r, v, j),
                    naive::frac_count_larger(view, r, v, j),
                );
                assert!(self.close(ff, nf), "frac_larger at {v}: {ff} vs {nf}");
            }
            // The composed cost terms, against oracles assembled purely
            // from naive queries (mirroring cost.rs's formulas).
            let p_r = inst.p(j, entry);
            let naive_f = naive::s_volume_excl(view, r, entry, j)
                + p_r
                + p_r * naive::count_larger(view, r, entry, j) as f64;
            let fast_f = f_term(view, r, j, leaf);
            assert!(self.close(fast_f, naive_f), "F: {fast_f} vs {naive_f}");
            let p_v = inst.p(j, leaf);
            let naive_fp = naive::s_volume_excl(view, r, leaf, j)
                + p_v
                + p_v * naive::frac_count_larger(view, r, leaf, j);
            let fast_fp = f_prime_term(view, r, j, leaf);
            assert!(self.close(fast_fp, naive_fp), "F': {fast_fp} vs {naive_fp}");
            self.checks += 1;
        }
        // In the exact regime the argmin choices must coincide too.
        if self.exact {
            let leaves = inst.tree().leaves();
            let fast_best = argmin_leaf(leaves, |v| f_term(view, r, j, v));
            let naive_best = argmin_leaf(leaves, |v| {
                let entry = inst.entry_node(j, v);
                let p_r = inst.p(j, entry);
                naive::s_volume_excl(view, r, entry, j)
                    + p_r
                    + p_r * naive::count_larger(view, r, entry, j) as f64
            });
            assert_eq!(fast_best, naive_best, "best leaf diverged for {j}");
        }
        self.check_rules(view, j);
    }

    /// The memoised rules against a first-strict-minimum argmin over
    /// per-leaf scores built from the cost terms and least-volume's scan
    /// formula. Both sides run the same float operations per leaf, so
    /// the leaves must match exactly in every suite.
    fn check_rules(&self, view: &SimView<'_>, j: JobId) {
        let r = self.rounding.as_ref();
        let eps = r.map_or(0.5, ClassRounding::epsilon);
        let (mut identical, mut unrelated) = match r {
            Some(_) => (GreedyIdentical::with_classes(eps), GreedyUnrelated::with_classes(eps)),
            None => (GreedyIdentical::new(eps), GreedyUnrelated::new(eps)),
        };
        let leaves = view.tree().leaves();
        let size = view.instance().job(j).size;
        let dist = |v: NodeId| distance_term(eps, size, view.path_for(j, v).len() as u32);
        let want = argmin_leaf(leaves, |v| f_term(view, r, j, v) + dist(v));
        assert_eq!(identical.assign(view, j), want, "greedy-identical diverged for {j}");
        let want = argmin_leaf(leaves, |v| {
            f_term(view, r, j, v) + f_prime_term(view, r, j, v) + dist(v)
        });
        assert_eq!(unrelated.assign(view, j), want, "greedy-unrelated diverged for {j}");
        let queued = |v: NodeId| -> f64 { view.q(v).map(|i| view.remaining_at(i, v)).sum() };
        let want = argmin_leaf(leaves, |v| {
            queued(view.entry_node(j, v)) + queued(v) + view.eta_via(j, v)
        });
        assert_eq!(LeastVolume.assign(view, j), want, "least-volume diverged for {j}");
    }
}

impl Probe for DiffProbe {
    fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
        self.check(view, job);
    }
    fn on_hop_complete(&mut self, view: &SimView<'_>, job: JobId, _node: NodeId) {
        self.check(view, job);
    }
}

/// Greedy assignment that re-queries through the dispatching helpers —
/// drives the run into the same states both paths score.
struct GreedyByF(Option<ClassRounding>);

impl AssignmentPolicy for GreedyByF {
    fn name(&self) -> &'static str {
        "greedy-by-f"
    }
    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        let r = self.0.as_ref().cloned();
        argmin_leaf(view.instance().tree().leaves(), |v| {
            f_term(view, r.as_ref(), job, v) + f_prime_term(view, r.as_ref(), job, v)
        })
    }
}

/// Run `inst` under greedy dispatch with the engine's aggregates keyed
/// by `engine_rounding`, checking every query against the oracle with
/// `query_rounding`. Returns the number of per-leaf check sites.
fn run_diff(
    inst: &Instance,
    engine_rounding: Option<ClassRounding>,
    query_rounding: Option<ClassRounding>,
    exact: bool,
) -> usize {
    let mut cfg = SimConfig::with_speeds(SpeedProfile::unit());
    cfg.dispatch_rounding = engine_rounding;
    let mut probe = DiffProbe {
        rounding: query_rounding.clone(),
        exact,
        checks: 0,
    };
    Simulation::run(
        inst,
        &Sjf::new(),
        &mut GreedyByF(query_rounding),
        &mut probe,
        &cfg,
    )
    .unwrap();
    probe.checks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dyadic data, matching rounding config: the aggregate fast path
    /// must agree with the scan oracle bit for bit.
    #[test]
    fn exact_agreement_on_dyadic_instances(
        seed in 0u64..5000,
        unrelated in any::<bool>(),
        classes in any::<bool>(),
    ) {
        let inst = random_instance(seed, unrelated, true);
        let r = classes.then(|| ClassRounding::new(1.0));
        let checks = run_diff(&inst, r.clone(), r, true);
        prop_assert!(checks > 0, "probe never fired");
    }

    /// Mismatched rounding config: the helpers must fall back to the
    /// scan (trivially equal — this pins the fallback, and that the
    /// aggregate bookkeeping never corrupts a run it isn't queried on).
    #[test]
    fn mismatched_rounding_falls_back_to_scan(
        seed in 0u64..5000,
        engine_classes in any::<bool>(),
    ) {
        let inst = random_instance(seed, false, true);
        let engine = engine_classes.then(|| ClassRounding::new(1.0));
        let query = if engine_classes { None } else { Some(ClassRounding::new(1.0)) };
        let checks = run_diff(&inst, engine, query, true);
        prop_assert!(checks > 0);
    }

    /// Arbitrary floats: agreement within summation-order tolerance.
    #[test]
    fn tolerant_agreement_on_arbitrary_instances(
        seed in 0u64..5000,
        unrelated in any::<bool>(),
        classes in any::<bool>(),
    ) {
        let inst = random_instance(seed, unrelated, false);
        let r = classes.then(|| ClassRounding::new(0.5));
        let checks = run_diff(&inst, r.clone(), r, false);
        prop_assert!(checks > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Generator topologies, where leaf runs are long (fat tree, k-ary)
    /// or one entry node spans runs of several depths (caterpillar,
    /// broomstick), under enough load that leaf queues fill: the rules
    /// that score per run must pick exactly the per-leaf argmin.
    #[test]
    fn exact_agreement_on_generator_topologies(
        seed in 0u64..5000,
        shape in 0u8..4,
        unrelated in any::<bool>(),
        classes in any::<bool>(),
    ) {
        let inst = generator_instance(seed, shape, unrelated);
        let r = classes.then(|| ClassRounding::new(1.0));
        let checks = run_diff(&inst, r.clone(), r, true);
        prop_assert!(checks > 0, "probe never fired");
    }

    /// Jobs that originate at leaves: their paths, entry nodes and leaf
    /// runs come from the instance's per-origin rows, not the tree's.
    #[test]
    fn exact_agreement_with_origin_jobs(
        seed in 0u64..5000,
        shape in 0u8..5,
        unrelated in any::<bool>(),
        classes in any::<bool>(),
    ) {
        let base = match shape {
            4 => random_instance(seed, unrelated, true),
            _ => generator_instance(seed, shape, unrelated),
        };
        let inst = with_random_leaf_origins(&base, 0.5, seed);
        let r = classes.then(|| ClassRounding::new(1.0));
        let checks = run_diff(&inst, r.clone(), r, true);
        prop_assert!(checks > 0, "probe never fired");
    }
}

/// The engine must produce identical schedules whether or not it
/// maintains aggregates under any rounding — the aggregate structure is
/// read-only bookkeeping as far as scheduling is concerned.
#[test]
fn aggregates_never_change_the_schedule() {
    for seed in 0..20u64 {
        let inst = random_instance(seed, seed % 2 == 0, false);
        let mut outs = Vec::new();
        for rounding in [None, Some(ClassRounding::new(1.0))] {
            let mut cfg = SimConfig::with_speeds(SpeedProfile::unit());
            cfg.dispatch_rounding = rounding;
            // Fixed queries (raw sizes) so the dispatch decisions are
            // identical; only the engine-side bookkeeping differs.
            let out = Simulation::run(
                &inst,
                &Sjf::new(),
                &mut GreedyByF(None),
                &mut bct_sim::policy::NoProbe,
                &cfg,
            )
            .unwrap();
            outs.push((out.assignments, out.completions));
        }
        assert_eq!(outs[0], outs[1], "seed {seed}");
    }
}
