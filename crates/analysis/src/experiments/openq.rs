//! E16 — a probe at the paper's open questions (§4): what happens to
//! **maximum flow time** and the **ℓ₂ norm** of flow times under the
//! total-flow-optimized policies?
//!
//! The conclusion notes that maximum flow time becomes hard even on
//! trees (Antoniadis et al. proved hardness for tree networks), and
//! asks about `ℓ_k` norms. This experiment measures how the paper's
//! SJF-based machinery trades those objectives off against FIFO —
//! which is optimal for max flow on a single queue — on line networks
//! and fat-trees.

use super::Scale;
use crate::runner::{AssignKind, NodePolicyKind, PolicyCombo};
use crate::stats;
use crate::table::{num, Table};
use bct_core::SpeedProfile;
use bct_workloads::jobs::SizeDist;
use bct_workloads::jobs::WorkloadSpec;
use bct_workloads::topo;

/// A named fixed topology.
type NamedTopology = (&'static str, fn() -> bct_core::Tree);

/// **E16 — objectives beyond total flow.** Mean / max / ℓ₂ flow for
/// SJF vs FIFO routing, on a line network and a fat-tree.
pub fn e16_objective_tradeoffs(scale: Scale) -> Table {
    let mut table = Table::new(
        "E16 — open-question probe: total vs max vs ℓ₂ flow time by node policy",
        &["topology", "policy", "mean flow", "max flow", "ℓ₂ flow"],
    );
    let topologies: [NamedTopology; 2] = [
        ("line(5)", || topo::line(5)),
        ("fat-tree(2,2,2)", || topo::fat_tree(2, 2, 2)),
    ];
    for (tlabel, mk) in topologies {
        let cells: Vec<(&str, NodePolicyKind)> = vec![
            ("sjf", NodePolicyKind::Sjf),
            ("fifo", NodePolicyKind::Fifo),
            ("srpt", NodePolicyKind::Srpt),
        ];
        let rows: Vec<Vec<String>> = cells
            .iter()
            .map(|&(plabel, node)| {
                let mut means = Vec::new();
                let mut maxes = Vec::new();
                let mut l2s = Vec::new();
                for seed in 0..scale.seeds {
                    let tree = mk();
                    let inst = WorkloadSpec::poisson_identical(
                        scale.n_jobs / 2,
                        0.8,
                        SizeDist::Bimodal { small: 1.0, large: 16.0, p_large: 0.1 },
                        &tree,
                    )
                    .instance(&tree, 1600 + seed)
                    .unwrap();
                    let combo = PolicyCombo {
                        node,
                        assign: AssignKind::GreedyIdentical(0.5),
                    };
                    let out = combo.run(&inst, &SpeedProfile::Uniform(1.25)).unwrap();
                    let releases: Vec<f64> =
                        inst.jobs().iter().map(|j| j.release).collect();
                    means.push(out.total_flow(&releases) / inst.n() as f64);
                    maxes.push(out.max_flow(&releases));
                    l2s.push(out.lk_norm_flow(&releases, 2.0));
                }
                vec![
                    tlabel.to_string(),
                    plabel.to_string(),
                    num(stats::mean(&means)),
                    num(stats::mean(&maxes)),
                    num(stats::mean(&l2s)),
                ]
            })
            .collect();
        for row in rows {
            table.push_row(row);
        }
    }
    table.with_note(
        "The paper optimizes total flow; its conclusion asks about max flow and \
         ℓ_k norms. Expected: SJF wins mean and ℓ₂ decisively but FIFO can win \
         max flow (no job is ever starved) — evidence for why max-flow on trees \
         needed a different algorithm in ref [5] and remains open here.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_sjf_wins_mean_flow() {
        let t = e16_objective_tradeoffs(Scale::quick());
        // Per topology, SJF's mean flow ≤ FIFO's.
        for topo_label in ["line(5)", "fat-tree(2,2,2)"] {
            let get = |policy: &str| -> f64 {
                t.rows
                    .iter()
                    .find(|r| r[0] == topo_label && r[1] == policy)
                    .unwrap()[2]
                    .parse()
                    .unwrap()
            };
            assert!(
                get("sjf") <= get("fifo") * 1.02,
                "{topo_label}: SJF must win mean flow"
            );
        }
    }
}
