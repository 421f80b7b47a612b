//! E17 — the arbitrary-origin extension (§4 future work).
//!
//! The paper's conclusion asks "what can be shown if jobs arrive at
//! arbitrary nodes in the network?" — the data-locality question. This
//! experiment runs the machinery on workloads where a fraction of jobs
//! originates at random leaves (data already resident somewhere in the
//! cluster) instead of at the root, and measures how origin-aware
//! assignment exploits locality.

use super::Scale;
use crate::runner::{AssignKind, NodePolicyKind, PolicyCombo};
use crate::stats;
use crate::table::{num, Table};
use bct_core::SpeedProfile;
use bct_workloads::jobs::{with_random_leaf_origins, SizeDist, WorkloadSpec};
use bct_workloads::topo;

/// **E17 — arbitrary origins.** Mean flow time as the fraction of
/// leaf-origin jobs grows, for locality-aware policies (greedy,
/// min-η) vs locality-blind ones (random).
pub fn e17_arbitrary_origins(scale: Scale) -> Table {
    let mut table = Table::new(
        "E17 — future-work probe: jobs originating at arbitrary leaves",
        &["origin fraction", "greedy", "min-eta", "least-volume", "random"],
    );
    let combos = [
        ("greedy", AssignKind::GreedyIdentical(0.5)),
        ("min-eta", AssignKind::MinEta),
        ("least-volume", AssignKind::LeastVolume),
        ("random", AssignKind::Random(3)),
    ];
    for &fraction in &[0.0f64, 0.5, 1.0] {
        let row_vals: Vec<f64> = combos
            .iter()
            .map(|&(_, assign)| {
                let flows: Vec<f64> = (0..scale.seeds)
                    .map(|seed| {
                        let tree = topo::fat_tree(2, 2, 2);
                        let base = WorkloadSpec::poisson_identical(
                            scale.n_jobs / 2,
                            0.7,
                            SizeDist::PowerOfBase { base: 2.0, max_k: 3 },
                            &tree,
                        )
                        .instance(&tree, 1700 + seed)
                        .unwrap();
                        let inst = with_random_leaf_origins(&base, fraction, 1800 + seed);
                        let combo = PolicyCombo {
                            node: NodePolicyKind::Sjf,
                            assign,
                        };
                        combo.total_flow(&inst, &SpeedProfile::Uniform(1.25))
                            / inst.n() as f64
                    })
                    .collect();
                stats::mean(&flows)
            })
            .collect();
        let mut row = vec![num(fraction)];
        row.extend(row_vals.iter().map(|&v| num(v)));
        table.push_row(row);
    }
    table.with_note(
        "Leaf-origin jobs can be processed where their data lives (path of \
         length 1) if the assignment rule notices. min-η exploits locality \
         perfectly at light load; the greedy inherits it through the \
         origin-aware distance term; random pays the full cross-tree walk. \
         The paper leaves the competitive analysis of this setting open — \
         these are empirical baselines for it.",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e17_locality_helps_locality_aware_policies() {
        let t = e17_arbitrary_origins(Scale::quick());
        // greedy at fraction 1.0 must beat greedy at fraction 0.0
        // (data locality can only help an origin-aware rule).
        let g0: f64 = t.rows[0][1].parse().unwrap();
        let g1: f64 = t.rows[2][1].parse().unwrap();
        assert!(g1 <= g0 * 1.05, "locality should help greedy: {g0} -> {g1}");
        // And at full locality, greedy must beat random clearly.
        let r1: f64 = t.rows[2][4].parse().unwrap();
        assert!(g1 < r1, "greedy {g1} must beat random {r1} at full locality");
    }
}
