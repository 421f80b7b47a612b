//! Workspace-level property tests: randomized cross-checks that span
//! crates (generators → paper algorithm → engine → reference engine →
//! invariant checker → packet engine).

use bandwidth_tree_scheduling::core::{Instance, SpeedProfile};
use bandwidth_tree_scheduling::policies::{FixedAssignment, Sjf};
use bandwidth_tree_scheduling::sched::GreedyIdentical;
use bandwidth_tree_scheduling::sim::packet::run_packetized;
use bandwidth_tree_scheduling::sim::policy::NoProbe;
use bandwidth_tree_scheduling::sim::{invariants, SimConfig, Simulation};
use bandwidth_tree_scheduling::workloads::jobs::{ArrivalProcess, SizeDist, WorkloadSpec};
use bandwidth_tree_scheduling::workloads::topo;
use proptest::prelude::*;
use rand::SeedableRng;

#[path = "../crates/sim/tests/reference/mod.rs"]
mod reference;
use reference::run_reference;

fn random_instance(seed: u64, n: usize) -> Instance {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let tree = topo::random_tree(&mut rng, 6, 5);
    WorkloadSpec {
        n,
        arrivals: ArrivalProcess::Poisson { rate: 1.5 },
        sizes: SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
        unrelated: None,
    }
    .instance(&tree, seed)
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The paper algorithm's schedule, replayed on the naive reference
    /// engine with the same assignments, yields identical completions,
    /// hop finishes and objective integrals.
    #[test]
    fn greedy_schedule_matches_reference_engine(seed in 0u64..3000) {
        let inst = random_instance(seed, 15);
        let speeds = SpeedProfile::Uniform(1.5);
        let mut greedy = GreedyIdentical::new(0.5);
        let out = Simulation::run(
            &inst, &Sjf::new(), &mut greedy, &mut NoProbe,
            &SimConfig::with_speeds(speeds.clone()),
        ).unwrap();
        let assignments: Vec<_> = out.assignments.iter().map(|a| a.unwrap()).collect();
        let slow = run_reference(&inst, &Sjf::new(), &assignments, &speeds);
        for j in 0..inst.n() {
            let cf = out.completions[j].unwrap();
            prop_assert!((cf - slow.completions[j]).abs() < 1e-5,
                "job {j}: {cf} vs {}", slow.completions[j]);
            let (hf, hs) = (out.hop_finishes.row(j), &slow.hop_finishes[j]);
            prop_assert_eq!(hf.len(), hs.len(), "job {}: hop count", j);
            for (h, (a, b)) in hf.iter().zip(hs).enumerate() {
                prop_assert!((a - b).abs() < 1e-5, "job {j} hop {h}: {a} vs {b}");
            }
        }
        prop_assert!((out.fractional_flow - slow.fractional_flow).abs() < 1e-4,
            "fractional: {} vs {}", out.fractional_flow, slow.fractional_flow);
        prop_assert!((out.count_integral - slow.count_integral).abs() < 1e-4);
    }

    /// Traces of the paper algorithm always satisfy the model invariants.
    #[test]
    fn greedy_traces_are_feasible(seed in 0u64..3000) {
        let inst = random_instance(seed, 20);
        let speeds = SpeedProfile::Layered { root_adjacent: 1.2, deeper: 1.8 };
        let mut greedy = GreedyIdentical::new(0.5);
        let out = Simulation::run(
            &inst, &Sjf::new(), &mut greedy, &mut NoProbe,
            &SimConfig::with_speeds(speeds.clone()).traced(),
        ).unwrap();
        let v = invariants::check(&inst, &speeds, out.trace.as_ref().unwrap());
        prop_assert!(v.is_empty(), "{v:?}");
    }

    /// Whole-job packets make the packet engine agree with the main
    /// engine (same assignments, same completions).
    #[test]
    fn packet_engine_degenerates_to_store_and_forward(seed in 0u64..3000) {
        let inst = random_instance(seed, 12);
        let speeds = SpeedProfile::Uniform(1.0);
        let mut greedy = GreedyIdentical::new(0.5);
        let out = Simulation::run(
            &inst, &Sjf::new(), &mut greedy, &mut NoProbe,
            &SimConfig::with_speeds(speeds.clone()),
        ).unwrap();
        let assignments: Vec<_> = out.assignments.iter().map(|a| a.unwrap()).collect();
        // packet_size larger than any job -> one packet per job.
        let pkt = run_packetized(&inst, &assignments, &speeds, 1e9);
        for j in 0..inst.n() {
            let cf = out.completions[j].unwrap();
            prop_assert!((cf - pkt.completions[j]).abs() < 1e-5,
                "job {j}: engine {cf} vs packet {}", pkt.completions[j]);
        }
    }

    /// Packetization never increases a lone branch's makespan and total
    /// flow never goes negative-weird: flows are finite, ≥ min path work.
    #[test]
    fn packet_flows_are_sane(seed in 0u64..3000, k in 1u32..8) {
        let inst = random_instance(seed, 10);
        let speeds = SpeedProfile::Uniform(1.0);
        let mut greedy = GreedyIdentical::new(0.5);
        let out = Simulation::run(
            &inst, &Sjf::new(), &mut greedy, &mut NoProbe,
            &SimConfig::with_speeds(speeds.clone()),
        ).unwrap();
        let assignments: Vec<_> = out.assignments.iter().map(|a| a.unwrap()).collect();
        let pkt = run_packetized(&inst, &assignments, &speeds, k as f64);
        for (j, &leaf) in assignments.iter().enumerate() {
            let flow = pkt.completions[j] - inst.jobs()[j].release;
            // Lower bound: leaf processing plus at least one traversal of
            // the entry node (pipelining can hide the rest).
            let min_work = inst.p(bandwidth_tree_scheduling::core::JobId(j as u32), leaf);
            prop_assert!(flow >= min_work - 1e-6, "job {j}: flow {flow} < leaf work {min_work}");
            prop_assert!(flow.is_finite());
        }
    }

    /// Replaying recorded assignments reproduces the exact outcome
    /// (determinism across runs).
    #[test]
    fn runs_are_deterministic(seed in 0u64..3000) {
        let inst = random_instance(seed, 15);
        let speeds = SpeedProfile::Uniform(1.5);
        let mut g1 = GreedyIdentical::new(0.5);
        let out1 = Simulation::run(&inst, &Sjf::new(), &mut g1, &mut NoProbe,
            &SimConfig::with_speeds(speeds.clone())).unwrap();
        let assignments: Vec<_> = out1.assignments.iter().map(|a| a.unwrap()).collect();
        let mut fixed = FixedAssignment(assignments);
        let out2 = Simulation::run(&inst, &Sjf::new(), &mut fixed, &mut NoProbe,
            &SimConfig::with_speeds(speeds)).unwrap();
        for j in 0..inst.n() {
            prop_assert_eq!(out1.completions[j], out2.completions[j]);
        }
        prop_assert!((out1.fractional_flow - out2.fractional_flow).abs() < 1e-9);
    }
}
