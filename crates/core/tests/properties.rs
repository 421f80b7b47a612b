//! Property tests for the core tree algebra: random parent arrays give
//! valid trees whose derived structure obeys the model's laws.

use bct_core::tree::{Tree, TreeBuilder};
use bct_core::{Broomstick, ClassRounding, Instance, Job, JobId, NodeId, TreeMutation};
use proptest::prelude::*;

/// Jobs with arbitrary sizes on `t`: `mode` 0 identical, 1 unrelated, 2
/// identical with an origin on every other job, 3 unrelated with
/// origins. `picks` choose the origins.
fn eta_jobs(t: &Tree, mode: u8, sizes: &[f64], picks: &[u32]) -> Vec<Job> {
    let leaves = t.num_leaves();
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| {
            let job = if mode % 2 == 1 {
                let leaf_sizes = (0..leaves)
                    .map(|k| sizes[(i + k) % sizes.len()] * (1.0 + 0.37 * k as f64))
                    .collect();
                Job::unrelated(i as u32, i as f64, size, leaf_sizes)
            } else {
                Job::identical(i as u32, i as f64, size)
            };
            if mode >= 2 && i % 2 == 0 {
                let origin = 1 + picks[i % picks.len()] as usize % (t.len() - 1);
                job.with_origin(NodeId(origin as u32))
            } else {
                job
            }
        })
        .collect()
}

/// `min_eta` as a scan of every leaf's path.
fn min_eta_scan(inst: &Instance, j: JobId) -> f64 {
    inst.tree()
        .leaves()
        .iter()
        .map(|&v| inst.eta_via(j, v))
        .fold(f64::INFINITY, f64::min)
}

/// Strategy: a random valid tree described by its builder moves.
/// `shape[i] ∈ [0, i]` attaches node `i+1` under node `shape[i] % made`,
/// then every childless root-adjacent node gets a machine.
fn tree_strategy(max_nodes: usize) -> impl Strategy<Value = Tree> {
    prop::collection::vec(any::<u32>(), 2..max_nodes).prop_map(|shape| {
        let mut b = TreeBuilder::new();
        let mut nodes = vec![NodeId::ROOT];
        for pick in &shape {
            let parent = nodes[(*pick as usize) % nodes.len()];
            nodes.push(b.add_child(parent));
        }
        // Guarantee every root-adjacent node has a child so no leaf is
        // adjacent to the root.
        let mut child_count = vec![0usize; nodes.len() + 8];
        let mut parents = vec![None::<NodeId>; nodes.len()];
        {
            // Recompute what we built: nodes[k] (k≥1) was attached to
            // nodes[(shape[k-1]) % k].
            for (k, pick) in shape.iter().enumerate() {
                let parent = nodes[(*pick as usize) % (k + 1)];
                parents[k + 1] = Some(parent);
                child_count[parent.as_usize()] += 1;
            }
        }
        for (i, p) in parents.iter().enumerate() {
            if *p == Some(NodeId::ROOT) && child_count[i] == 0 {
                b.add_child(nodes[i]);
            }
        }
        b.build().expect("construction is always valid")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn structural_laws(t in tree_strategy(24)) {
        // Every non-root node's R(v) is root-adjacent and an ancestor.
        for v in t.non_root_nodes() {
            let r = t.r_node(v);
            prop_assert_eq!(t.depth(r), 1);
            prop_assert!(t.is_ancestor_or_self(r, v));
            prop_assert_eq!(t.d_v(v), t.depth(v));
        }
        // Leaves partition: every node is leaf xor router xor root.
        for v in t.nodes() {
            let classes = [v == t.root(), t.is_leaf(v), t.is_router(v)];
            prop_assert_eq!(classes.iter().filter(|&&c| c).count(), 1);
        }
        // Leaf depth ≥ 2 (model constraint).
        for &leaf in t.leaves() {
            prop_assert!(t.depth(leaf) >= 2);
        }
        // leaves_under(root children) partitions the leaf set.
        let mut collected: Vec<NodeId> = t
            .root_adjacent()
            .iter()
            .flat_map(|&r| t.leaves_under(r))
            .collect();
        collected.sort_unstable();
        prop_assert_eq!(collected, t.leaves().to_vec());
    }

    #[test]
    fn path_laws(t in tree_strategy(24)) {
        for &leaf in t.leaves() {
            let path = t.path_from_root(leaf);
            // Starts root-adjacent, ends at the leaf, consecutive
            // entries are parent→child, no root inside.
            prop_assert_eq!(t.depth(path[0]), 1);
            prop_assert_eq!(*path.last().unwrap(), leaf);
            for w in path.windows(2) {
                prop_assert_eq!(t.parent(w[1]), Some(w[0]));
            }
            prop_assert!(!path.contains(&NodeId::ROOT));
            prop_assert_eq!(path.len(), t.d_v(leaf) as usize);
        }
    }

    #[test]
    fn lca_laws(t in tree_strategy(20)) {
        let nodes: Vec<NodeId> = t.nodes().collect();
        for &a in &nodes {
            for &b in &nodes {
                let l = t.lca(a, b);
                prop_assert!(t.is_ancestor_or_self(l, a));
                prop_assert!(t.is_ancestor_or_self(l, b));
                // Deepest common ancestor: its children are not common
                // ancestors of both.
                for &c in t.children(l) {
                    prop_assert!(
                        !(t.is_ancestor_or_self(c, a) && t.is_ancestor_or_self(c, b))
                    );
                }
                prop_assert_eq!(l, t.lca(b, a));
            }
        }
    }

    #[test]
    fn path_between_laws(t in tree_strategy(20)) {
        let leaves = t.leaves().to_vec();
        for &origin in &leaves {
            for &dest in &leaves {
                let path = t.path_between(origin, dest);
                prop_assert!(!path.is_empty());
                prop_assert_eq!(*path.last().unwrap(), dest);
                prop_assert!(!path.contains(&NodeId::ROOT));
                if origin != dest {
                    prop_assert!(!path.contains(&origin));
                    // Consecutive nodes adjacent in the tree.
                    let full: Vec<NodeId> =
                        std::iter::once(origin).chain(path.iter().copied()).collect();
                    for w in full.windows(2) {
                        let adjacent = t.parent(w[0]) == Some(w[1])
                            || t.parent(w[1]) == Some(w[0])
                            || (t.parent(w[0]) == Some(NodeId::ROOT)
                                && t.parent(w[1]) == Some(NodeId::ROOT));
                        prop_assert!(adjacent, "{:?} then {:?}", w[0], w[1]);
                    }
                }
            }
        }
    }

    #[test]
    fn broomstick_laws(t in tree_strategy(24)) {
        let bs = Broomstick::reduce(&t);
        prop_assert!(bs.tree().is_broomstick());
        prop_assert_eq!(bs.tree().num_leaves(), t.num_leaves());
        prop_assert_eq!(bs.handles().len(), t.root_adjacent().len());
        for &leaf in t.leaves() {
            let prime = bs.prime_leaf_of(&t, leaf);
            prop_assert_eq!(bs.tree().depth(prime), t.depth(leaf) + 2);
            prop_assert_eq!(bs.orig_leaf_of(prime), leaf);
        }
        // Serialization of the reduced tree roundtrips.
        let json = serde_json::to_string(bs.tree()).unwrap();
        let back: Tree = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, bs.tree());
    }

    #[test]
    fn mutation_walks_match_from_scratch_rebuild(
        start in tree_strategy(16),
        steps in prop::collection::vec(any::<u64>(), 1..40),
    ) {
        // Random walk over all four mutation kinds: after every applied
        // batch the incrementally maintained per-leaf tables must be
        // bit-equal to a from-scratch rebuild of the same semantic tree
        // (the differential oracle of the dynamic-topology layer).
        let mut t = start;
        let mut applied = 0u32;
        for step in steps {
            // One u64 encodes the whole step: kind, target pick, factor pick.
            let (kind, a, b) = (step % 4, (step >> 8) as usize, (step >> 24) as usize);
            let m = match kind {
                0 => {
                    let routers: Vec<NodeId> = t.nodes().filter(|&v| t.is_router(v)).collect();
                    if routers.is_empty() {
                        continue;
                    }
                    TreeMutation::AddLeaf { parent: routers[a % routers.len()] }
                }
                1 => {
                    let ls = t.leaves();
                    TreeMutation::RemoveLeaf { leaf: ls[a % ls.len()] }
                }
                2 => {
                    let live: Vec<NodeId> =
                        t.nodes().filter(|&v| v != NodeId::ROOT && t.is_alive(v)).collect();
                    TreeMutation::SetSpeed {
                        node: live[a % live.len()],
                        factor: [0.5, 0.75, 1.5, 2.0][b % 4],
                    }
                }
                _ => {
                    let live: Vec<NodeId> =
                        t.nodes().filter(|&v| v != NodeId::ROOT && t.is_alive(v)).collect();
                    TreeMutation::FailNode { node: live[a % live.len()] }
                }
            };
            t.queue_mutation(m);
            // Invalid picks (e.g. a removal that would promote a
            // root-adjacent router) are legal to reject; the tree must
            // stay untouched either way, which the next comparison
            // against the rebuild also verifies.
            if t.apply_mutations().is_err() {
                continue;
            }
            applied += 1;
            let fresh = t.rebuilt();
            prop_assert_eq!(t.leaves(), fresh.leaves());
            for &l in t.leaves() {
                prop_assert_eq!(t.leaf_path(l), fresh.leaf_path(l), "path of {}", l);
                prop_assert_eq!(t.leaf_hops(l), fresh.leaf_hops(l), "hops of {}", l);
                prop_assert_eq!(t.leaf_index(l), fresh.leaf_index(l), "index of {}", l);
            }
            prop_assert_eq!(
                t.leaf_runs().collect::<Vec<_>>(),
                fresh.leaf_runs().collect::<Vec<_>>(),
                "leaf runs"
            );
            for v in t.nodes().filter(|&v| t.is_alive(v)) {
                prop_assert_eq!(t.depth(v), fresh.depth(v));
                prop_assert_eq!(t.r_node(v), fresh.r_node(v));
                prop_assert_eq!(t.children(v), fresh.children(v));
                prop_assert_eq!(t.speed_factor(v), fresh.speed_factor(v));
            }
        }
        if applied > 0 {
            prop_assert!(t.epoch() > 0, "applied batches must bump the epoch");
            // Mutated trees keep their serde roundtrip.
            let json = serde_json::to_string(&t).unwrap();
            let back: Tree = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, t);
        }
    }

    /// The path-work bound's closed form (`size` summed over the
    /// shallowest leaf's depth, for root-origin identical jobs) is bit-equal
    /// to the per-leaf `eta_via` scan, on random trees and on their
    /// broomsticks, both with unequal leaf depths, for every job kind.
    #[test]
    fn min_eta_closed_form_equals_the_per_leaf_scan(
        t in tree_strategy(24),
        mode in 0u8..4,
        sizes in prop::collection::vec(0.001f64..1e3, 1..12),
        picks in prop::collection::vec(any::<u32>(), 12),
    ) {
        for tree in [t.clone(), Broomstick::reduce(&t).tree().clone()] {
            let jobs = eta_jobs(&tree, mode, &sizes, &picks);
            let inst = Instance::new(tree, jobs).expect("valid instance");
            let scans: Vec<f64> =
                (0..inst.n() as u32).map(|j| min_eta_scan(&inst, JobId(j))).collect();
            for (j, &scan) in scans.iter().enumerate() {
                prop_assert_eq!(inst.min_eta(JobId(j as u32)).to_bits(), scan.to_bits(), "job {}", j);
            }
            let total: f64 = scans.iter().sum();
            prop_assert_eq!(inst.trivial_flow_lower_bound().to_bits(), total.to_bits());
        }
    }

    #[test]
    fn class_rounding_laws(p in 0.001f64..1e6, eps in 0.01f64..4.0) {
        let c = ClassRounding::new(eps);
        let r = c.round_up(p);
        prop_assert!(r >= p * (1.0 - 1e-9));
        prop_assert!(r <= p * (1.0 + eps) * (1.0 + 1e-9));
        prop_assert!(c.on_grid(r));
        prop_assert_eq!(c.class_of(r), c.class_of(p));
    }
}
