//! Ablation experiments for the design choices called out in
//! `DESIGN.md` §7: E13 (the distance term of the assignment rule),
//! E14 (class rounding), E15 (the router scheduling policy).

use super::Scale;
use crate::runner::{AssignKind, NodePolicyKind, PolicyCombo};
use crate::stats;
use crate::table::{num, Table};
use bct_core::SpeedProfile;
use bct_workloads::jobs::SizeDist;
use bct_workloads::jobs::WorkloadSpec;
use bct_workloads::topo;

/// **E13 — the `(6/ε²)·d_v·p_j` distance term.** With the term removed,
/// the rule sees only queue volumes; on trees with heterogeneous leaf
/// depths it then sends jobs down needlessly long paths whenever queues
/// tie — the exact failure mode the term exists to prevent.
pub fn e13_distance_term(scale: Scale) -> Table {
    let mut table = Table::new(
        "E13 — ablation: greedy with vs without the distance term",
        &["topology", "load ρ", "mean flow (with)", "mean flow (without)", "without/with"],
    );
    // A lopsided tree: one shallow branch, one deep branch.
    let lopsided = || {
        let mut b = bct_core::tree::TreeBuilder::new();
        let r1 = b.add_child(bct_core::NodeId::ROOT);
        let r2 = b.add_child(bct_core::NodeId::ROOT);
        b.add_child(r1); // shallow machine, depth 2
        b.add_child(r1);
        let chain = b.add_chain(r2, 4);
        b.add_child(chain[3]); // deep machine, depth 6
        b.add_child(chain[3]);
        b.build().unwrap()
    };
    for &rho in &[0.3f64, 0.7] {
        let pairs: Vec<(f64, f64)> = (0..scale.seeds)
            .map(|seed| {
                let tree = lopsided();
                let inst = WorkloadSpec::poisson_identical(
                    scale.n_jobs / 2,
                    rho,
                    SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
                    &tree,
                )
                .instance(&tree, 1300 + seed)
                .unwrap();
                let speeds = SpeedProfile::Uniform(1.5);
                let with = PolicyCombo {
                    node: NodePolicyKind::Sjf,
                    assign: AssignKind::GreedyIdentical(0.5),
                }
                .total_flow(&inst, &speeds);
                let without = PolicyCombo {
                    node: NodePolicyKind::Sjf,
                    assign: AssignKind::GreedyNoDistance(0.5),
                }
                .total_flow(&inst, &speeds);
                (with / inst.n() as f64, without / inst.n() as f64)
            })
            .collect();
        let withs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let withouts: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        table.push_row(vec![
            "lopsided (d=2 vs d=6)".into(),
            num(rho),
            num(stats::mean(&withs)),
            num(stats::mean(&withouts)),
            num(stats::mean(&withouts) / stats::mean(&withs)),
        ]);
    }
    table.with_note(
        "Removing the distance term makes the rule depth-blind; at light load \
         (where queues carry no signal) it wastes the full extra path delay.",
    )
}

/// **E14 — `(1+ε)^k` class rounding.** The paper assumes sizes on the
/// class grid (cost: one `(1+ε)` speed factor). Measured: SJF on raw
/// sizes vs SJF on classes, on workloads with continuously distributed
/// sizes.
pub fn e14_class_rounding(scale: Scale) -> Table {
    let mut table = Table::new(
        "E14 — ablation: SJF on raw sizes vs (1+ε)^k classes",
        &["ε", "mean flow (raw)", "mean flow (classes)", "classes/raw"],
    );
    for &eps in &[0.25f64, 0.5, 1.0] {
        let pairs: Vec<(f64, f64)> = (0..scale.seeds)
            .map(|seed| {
                let tree = topo::fat_tree(2, 2, 2);
                let inst = WorkloadSpec::poisson_identical(
                    scale.n_jobs,
                    0.8,
                    SizeDist::Pareto { alpha: 1.8, min: 1.0 },
                    &tree,
                )
                .instance(&tree, 1400 + seed)
                .unwrap();
                let speeds = SpeedProfile::Uniform(1.5);
                let raw = PolicyCombo {
                    node: NodePolicyKind::Sjf,
                    assign: AssignKind::GreedyIdentical(eps),
                }
                .total_flow(&inst, &speeds);
                let classes = PolicyCombo {
                    node: NodePolicyKind::SjfClasses(eps),
                    assign: AssignKind::GreedyIdentical(eps),
                }
                .total_flow(&inst, &speeds);
                (raw / inst.n() as f64, classes / inst.n() as f64)
            })
            .collect();
        let raws: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let cls: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        table.push_row(vec![
            num(eps),
            num(stats::mean(&raws)),
            num(stats::mean(&cls)),
            num(stats::mean(&cls) / stats::mean(&raws)),
        ]);
    }
    table.with_note(
        "The rounding assumption is essentially free in practice: within-class \
         age tie-breaking costs at most the (1+ε) factor the paper charges.",
    )
}

/// **E15 — router policy.** The paper argues plain SJF on every node
/// suffices; this ablation swaps the router policy while keeping the
/// greedy assignment fixed.
pub fn e15_router_policy(scale: Scale) -> Table {
    let mut table = Table::new(
        "E15 — ablation: router policy under the paper's assignment rule",
        &["router policy", "mean flow", "max flow", "vs sjf"],
    );
    let cells: Vec<(&str, NodePolicyKind)> = vec![
        ("sjf", NodePolicyKind::Sjf),
        ("srpt", NodePolicyKind::Srpt),
        ("fifo", NodePolicyKind::Fifo),
        ("ljf", NodePolicyKind::Ljf),
    ];
    let results: Vec<(&str, f64, f64)> = cells
        .iter()
        .map(|&(label, node)| {
            let mut means = Vec::new();
            let mut maxes = Vec::new();
            for seed in 0..scale.seeds {
                let tree = topo::fat_tree(2, 2, 2);
                let inst = WorkloadSpec::poisson_identical(
                    scale.n_jobs,
                    0.85,
                    SizeDist::Bimodal { small: 1.0, large: 16.0, p_large: 0.12 },
                    &tree,
                )
                .instance(&tree, 1500 + seed)
                .unwrap();
                let combo = PolicyCombo {
                    node,
                    assign: AssignKind::GreedyIdentical(0.5),
                };
                let out = combo.run(&inst, &SpeedProfile::Uniform(1.25)).unwrap();
                let releases: Vec<f64> = inst.jobs().iter().map(|j| j.release).collect();
                means.push(out.total_flow(&releases) / inst.n() as f64);
                maxes.push(out.max_flow(&releases));
            }
            (label, stats::mean(&means), stats::mean(&maxes))
        })
        .collect();
    let sjf_mean = results.iter().find(|r| r.0 == "sjf").unwrap().1;
    for (label, mean, max) in results {
        table.push_row(vec![
            label.into(),
            num(mean),
            num(max),
            num(mean / sjf_mean),
        ]);
    }
    table.with_note(
        "SJF and SRPT should be near-identical (remaining ≈ original size on \
         routers); FIFO pays the convoy effect on total flow but can look \
         better on max flow; LJF is the adversarial floor.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_distance_term_matters_at_light_load() {
        let t = e13_distance_term(Scale::quick());
        let light: f64 = t.rows[0][4].parse().unwrap();
        assert!(
            light >= 1.0 - 1e-6,
            "removing the term must not help at light load: {light}"
        );
    }

    #[test]
    fn e14_class_rounding_is_cheap() {
        let t = e14_class_rounding(Scale::quick());
        for row in &t.rows {
            let ratio: f64 = row[3].parse().unwrap();
            assert!(
                (0.5..2.0).contains(&ratio),
                "class rounding should be a small perturbation: {row:?}"
            );
        }
    }

    #[test]
    fn e15_sjf_beats_ljf() {
        let t = e15_router_policy(Scale::quick());
        let ljf: f64 = t
            .rows
            .iter()
            .find(|r| r[0] == "ljf")
            .unwrap()[3]
            .parse()
            .unwrap();
        assert!(ljf >= 1.0, "LJF must not beat SJF on mean flow: {ljf}");
    }
}
