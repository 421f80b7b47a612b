//! Queued topology mutations with **incremental** cached-table
//! maintenance.
//!
//! A [`Tree`](crate::Tree) starts life static; this module makes it
//! epoch-mutable. Callers queue [`TreeMutation`]s
//! ([`Tree::queue_add_leaf`] and friends) and then call
//! [`Tree::apply_mutations`], which applies the batch in queue order,
//! bumps the epoch once, and returns an [`AppliedMutations`] receipt.
//!
//! The design invariants:
//!
//! * **Tombstoning, never renumbering.** Removing or failing a node
//!   sets `alive[v] = false` and prunes it from its parent's child
//!   list; the id slot is kept forever. Every id-indexed side table in
//!   the stack (sim node state, speed tables, aggregates) stays valid
//!   across epochs.
//! * **Touched leaves only.** The per-leaf path and hop arenas are
//!   append-only between full rebuilds: a new or promoted leaf appends
//!   its span at the arena tail; a removed leaf's span becomes a dead
//!   hole. Untouched leaves' spans — and hence their `leaf_path` /
//!   `leaf_hops` slices — are never recomputed or moved. Depths and
//!   `R(v)` of live nodes never change (adds only append below
//!   existing routers; removals only tombstone), so an appended span is
//!   exactly what a from-scratch build would produce. The leaf runs
//!   ([`Tree::leaf_runs`]) are recomputed from the leaf list whenever a
//!   leaf enters or leaves it, in the same `O(|L|)` pass as the dense
//!   leaf indices.
//! * **Differential oracle.** [`Tree::rebuilt`] reconstructs the same
//!   semantic tree through the full [`Tree::from_parts`] build; tests
//!   assert the incremental tables are bit-identical per live leaf.
//!
//! Mutation application may allocate (arena growth, child-list edits);
//! the zero-allocation contract covers the steady state *between*
//! mutations, not the mutations themselves.
//!
//! # Failure semantics
//!
//! Validation happens per mutation as the batch is applied, and the
//! first invalid mutation aborts the batch with an error. Mutations
//! before it have already been applied — the tree is still structurally
//! valid (every applied mutation preserved the model invariants), but
//! the batch is only partially done and the remainder of the queue is
//! dropped. Callers that need all-or-nothing semantics should apply
//! mutations in singleton batches or validate against a clone.

use crate::error::CoreError;
use crate::ids::NodeId;
use crate::tree::Tree;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};

/// One queued change to the tree topology.
///
/// Serializes as an `op`-tagged map (`{"op": "add_leaf", "parent": 3}`)
/// so churn schedules in sweep specs read naturally.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TreeMutation {
    /// Attach a brand-new machine under router `parent`. The new node
    /// gets the next id (`tree.len()` at apply time). Adding under a
    /// leaf is rejected — it would silently demote a machine to a
    /// router — as is adding under the root (the model forbids
    /// root-adjacent machines).
    AddLeaf {
        /// The router that receives the new machine.
        parent: NodeId,
    },
    /// Tombstone the machine `leaf`. If its parent router is left
    /// childless, the parent is *promoted* to a machine (depth
    /// permitting).
    RemoveLeaf {
        /// The machine to remove.
        leaf: NodeId,
    },
    /// Set the multiplicative speed factor of a live non-root node.
    SetSpeed {
        /// The node whose factor changes.
        node: NodeId,
        /// New factor; must be positive and finite.
        factor: f64,
    },
    /// Tombstone `node` and its entire subtree — a crash-failure of a
    /// router or machine. The parent is promoted to a machine if left
    /// childless (depth permitting).
    FailNode {
        /// The root of the failing subtree.
        node: NodeId,
    },
}

impl TreeMutation {
    /// The node this mutation targets (for diagnostics).
    pub fn target(&self) -> NodeId {
        match *self {
            TreeMutation::AddLeaf { parent } => parent,
            TreeMutation::RemoveLeaf { leaf } => leaf,
            TreeMutation::SetSpeed { node, .. } => node,
            TreeMutation::FailNode { node } => node,
        }
    }
}

/// Receipt of one [`Tree::apply_mutations`] batch: everything a
/// consumer with id-indexed side state (the simulator, aggregates)
/// needs in order to resize and repair itself.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AppliedMutations {
    /// The tree's epoch after the batch.
    pub epoch: u64,
    /// Newly created machine ids, in creation order (strictly
    /// increasing — new ids are always handed out at the tail).
    pub added: Vec<NodeId>,
    /// All tombstoned nodes (machines and routers), in increasing id
    /// order.
    pub removed: Vec<NodeId>,
    /// Routers promoted to machines because their last child vanished,
    /// in promotion order.
    pub promoted: Vec<NodeId>,
    /// `(node, new_factor)` per applied `SetSpeed`, in queue order.
    pub speed_changes: Vec<(NodeId, f64)>,
}

impl AppliedMutations {
    /// True if the batch changed nothing (it was empty).
    pub fn is_empty(&self) -> bool {
        self.added.is_empty()
            && self.removed.is_empty()
            && self.promoted.is_empty()
            && self.speed_changes.is_empty()
    }
}

fn invalid(node: NodeId, reason: &'static str) -> CoreError {
    CoreError::InvalidMutation { node, reason }
}

fn node_value(v: NodeId) -> Value {
    Value::Int(i64::from(v.0))
}

impl Serialize for TreeMutation {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut entries: Vec<(String, Value)> = Vec::with_capacity(3);
        match *self {
            TreeMutation::AddLeaf { parent } => {
                entries.push(("op".to_string(), Value::Str("add_leaf".to_string())));
                entries.push(("parent".to_string(), node_value(parent)));
            }
            TreeMutation::RemoveLeaf { leaf } => {
                entries.push(("op".to_string(), Value::Str("remove_leaf".to_string())));
                entries.push(("leaf".to_string(), node_value(leaf)));
            }
            TreeMutation::SetSpeed { node, factor } => {
                entries.push(("op".to_string(), Value::Str("set_speed".to_string())));
                entries.push(("node".to_string(), node_value(node)));
                entries.push(("factor".to_string(), Value::Float(factor)));
            }
            TreeMutation::FailNode { node } => {
                entries.push(("op".to_string(), Value::Str("fail_node".to_string())));
                entries.push(("node".to_string(), node_value(node)));
            }
        }
        serializer.serialize_value(Value::Map(entries))
    }
}

impl<'de> Deserialize<'de> for TreeMutation {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<TreeMutation, D::Error> {
        let value = deserializer.deserialize_value()?;
        let op: String = serde::de::req_field(&value, "op").map_err(D::Error::custom)?;
        let m = match op.as_str() {
            "add_leaf" => TreeMutation::AddLeaf {
                parent: serde::de::req_field(&value, "parent").map_err(D::Error::custom)?,
            },
            "remove_leaf" => TreeMutation::RemoveLeaf {
                leaf: serde::de::req_field(&value, "leaf").map_err(D::Error::custom)?,
            },
            "set_speed" => TreeMutation::SetSpeed {
                node: serde::de::req_field(&value, "node").map_err(D::Error::custom)?,
                factor: serde::de::req_field(&value, "factor").map_err(D::Error::custom)?,
            },
            "fail_node" => TreeMutation::FailNode {
                node: serde::de::req_field(&value, "node").map_err(D::Error::custom)?,
            },
            other => {
                return Err(D::Error::custom(format!("unknown mutation op `{other}`")));
            }
        };
        Ok(m)
    }
}

impl Tree {
    /// Queue a [`TreeMutation::AddLeaf`]; applied by
    /// [`Tree::apply_mutations`].
    pub fn queue_add_leaf(&mut self, parent: NodeId) {
        self.pending.push(TreeMutation::AddLeaf { parent });
    }

    /// Queue a [`TreeMutation::RemoveLeaf`].
    pub fn queue_remove_leaf(&mut self, leaf: NodeId) {
        self.pending.push(TreeMutation::RemoveLeaf { leaf });
    }

    /// Queue a [`TreeMutation::SetSpeed`].
    pub fn queue_set_speed(&mut self, node: NodeId, factor: f64) {
        self.pending.push(TreeMutation::SetSpeed { node, factor });
    }

    /// Queue a [`TreeMutation::FailNode`].
    pub fn queue_fail_node(&mut self, node: NodeId) {
        self.pending.push(TreeMutation::FailNode { node });
    }

    /// Queue an arbitrary mutation value (e.g. one deserialized from a
    /// sweep spec's churn schedule).
    pub fn queue_mutation(&mut self, m: TreeMutation) {
        self.pending.push(m);
    }

    /// Apply all queued mutations in queue order, incrementally
    /// repairing the cached per-leaf tables (touched leaves only; see
    /// the module docs for the invariants and for failure semantics).
    ///
    /// An empty queue is a no-op that does **not** bump the epoch. A
    /// non-empty batch bumps the epoch exactly once, on success.
    pub fn apply_mutations(&mut self) -> Result<AppliedMutations, CoreError> {
        let mut out = AppliedMutations { epoch: self.epoch, ..AppliedMutations::default() };
        if self.pending.is_empty() {
            return Ok(out);
        }
        let batch = std::mem::take(&mut self.pending);
        for m in batch {
            self.apply_one(m, &mut out)?;
        }
        out.removed.sort_unstable();
        self.epoch += 1;
        out.epoch = self.epoch;
        Ok(out)
    }

    fn apply_one(&mut self, m: TreeMutation, out: &mut AppliedMutations) -> Result<(), CoreError> {
        match m {
            TreeMutation::AddLeaf { parent } => {
                let p = parent;
                if p.as_usize() >= self.len() || !self.alive[p.as_usize()] {
                    return Err(invalid(p, "parent does not exist or is tombstoned"));
                }
                if p == NodeId::ROOT {
                    return Err(invalid(p, "machines may not be adjacent to the root"));
                }
                if self.children[p.as_usize()].is_empty() {
                    return Err(invalid(p, "parent is a machine; adding under it would demote it"));
                }
                let v = NodeId(self.len() as u32);
                self.parent.push(Some(p));
                // bct-lint: allow(a2) -- growing the tree must allocate; mutations are rare control events, not `Service::apply`'s steady state
                self.children.push(Vec::new());
                self.depth.push(self.depth[p.as_usize()] + 1);
                self.r_node.push(self.r_node[p.as_usize()]);
                self.leaf_index.push(None);
                self.alive.push(true);
                self.speed_factor.push(1.0);
                self.children[p.as_usize()].push(v);
                self.register_leaf(v);
                out.added.push(v);
            }
            TreeMutation::RemoveLeaf { leaf } => {
                let l = leaf;
                if l.as_usize() >= self.len() || !self.is_leaf(l) {
                    return Err(invalid(l, "not a live machine"));
                }
                if self.leaves.len() == 1 {
                    return Err(invalid(l, "removing the last machine"));
                }
                // bct-lint: allow(p1) -- structural invariant: is_leaf(l) implies depth >= 2, so a parent exists
                let p = self.parent[l.as_usize()].expect("leaves are below the root");
                let p_emptied = self.children[p.as_usize()] == [l];
                if p_emptied && self.depth[p.as_usize()] < 2 {
                    return Err(invalid(l, "removal would leave a machine adjacent to the root"));
                }
                self.alive[l.as_usize()] = false;
                self.children[p.as_usize()].retain(|&c| c != l);
                self.unregister_leaf(l);
                if p_emptied {
                    self.register_leaf(p);
                    out.promoted.push(p);
                }
                out.removed.push(l);
            }
            TreeMutation::SetSpeed { node, factor } => {
                let v = node;
                if v.as_usize() >= self.len() || !self.alive[v.as_usize()] {
                    return Err(invalid(v, "node does not exist or is tombstoned"));
                }
                if v == NodeId::ROOT {
                    return Err(invalid(v, "the root has no processing speed"));
                }
                if !(factor > 0.0 && factor.is_finite()) {
                    return Err(CoreError::NonPositiveSpeed(v));
                }
                self.speed_factor[v.as_usize()] = factor;
                out.speed_changes.push((v, factor));
            }
            TreeMutation::FailNode { node } => {
                let v = node;
                if v == NodeId::ROOT {
                    return Err(invalid(v, "cannot fail the root"));
                }
                if v.as_usize() >= self.len() || !self.alive[v.as_usize()] {
                    return Err(invalid(v, "node does not exist or is tombstoned"));
                }
                // The whole live subtree goes down with v.
                let doomed = self.subtree(v);
                let doomed_leaves =
                    doomed.iter().filter(|&&u| self.leaf_index[u.as_usize()].is_some()).count();
                // bct-lint: allow(p1) -- the root was rejected above, so v has a parent
                let p = self.parent[v.as_usize()].expect("non-root");
                let p_emptied = self.children[p.as_usize()] == [v];
                if p_emptied && p == NodeId::ROOT {
                    return Err(invalid(v, "failing the root's only subtree"));
                }
                if p_emptied && self.depth[p.as_usize()] < 2 {
                    return Err(invalid(v, "failure would leave a machine adjacent to the root"));
                }
                let survivors =
                    self.leaves.len() - doomed_leaves + usize::from(p_emptied && p != NodeId::ROOT);
                if survivors == 0 {
                    return Err(invalid(v, "failure would remove the last machine"));
                }
                for &u in &doomed {
                    self.alive[u.as_usize()] = false;
                }
                self.children[p.as_usize()].retain(|&c| c != v);
                for u in doomed {
                    // Dead routers' child lists go stale either way;
                    // clearing them keeps `children()` meaning "live
                    // children of a live node" everywhere.
                    self.children[u.as_usize()].clear();
                    if self.leaf_index[u.as_usize()].is_some() {
                        self.unregister_leaf(u);
                    }
                    out.removed.push(u);
                }
                if p_emptied && p != NodeId::ROOT {
                    self.register_leaf(p);
                    out.promoted.push(p);
                }
            }
        }
        Ok(())
    }

    /// Append `l`'s root→leaf path (and its node-sorted hop index) at
    /// the tail of both arenas, returning the shared span. The two
    /// arenas always have equal lengths — spans index both.
    fn append_leaf_span(&mut self, l: NodeId) -> (u32, u32) {
        let start = self.leaf_path_arena.len();
        let d = self.depth[l.as_usize()] as usize;
        self.leaf_path_arena.resize(start + d, NodeId::ROOT);
        let mut cur = l;
        for slot in self.leaf_path_arena[start..].iter_mut().rev() {
            *slot = cur;
            // bct-lint: allow(p1) -- the loop walks exactly depth(l) steps, never past a root child
            cur = self.parent[cur.as_usize()].expect("leaf path stays below the root");
        }
        debug_assert_eq!(self.leaf_hops_arena.len(), start, "arenas must stay in lockstep");
        let span = &self.leaf_path_arena[start..];
        self.leaf_hops_arena.extend(span.iter().enumerate().map(|(h, &v)| (v, h as u32)));
        self.leaf_hops_arena[start..].sort_unstable_by_key(|&(v, _)| v);
        (start as u32, d as u32)
    }

    /// Enter `l` (a node that just became a machine) into the leaf set,
    /// keeping `leaves` in id order and the dense indices consistent.
    fn register_leaf(&mut self, l: NodeId) {
        debug_assert!(self.is_leaf(l));
        debug_assert!(self.leaf_index[l.as_usize()].is_none());
        let span = self.append_leaf_span(l);
        let idx = self.leaves.partition_point(|&x| x < l);
        self.leaves.insert(idx, l);
        self.leaf_span.insert(idx, span);
        for i in idx..self.leaves.len() {
            let v = self.leaves[i];
            self.leaf_index[v.as_usize()] = Some(i as u32);
        }
        self.refresh_leaf_runs();
    }

    /// Drop `l` from the leaf set; its arena spans become dead holes.
    fn unregister_leaf(&mut self, l: NodeId) {
        // bct-lint: allow(p1) -- callers only unregister nodes they just verified are registered leaves
        let idx = self.leaf_index[l.as_usize()].take().expect("registered leaf") as usize;
        self.leaves.remove(idx);
        self.leaf_span.remove(idx);
        for i in idx..self.leaves.len() {
            let v = self.leaves[i];
            self.leaf_index[v.as_usize()] = Some(i as u32);
        }
        self.refresh_leaf_runs();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::TreeBuilder;

    /// root -> {r1, r2}; r1 -> {a, b}; a -> {6, 7}; b -> {8}; r2 -> c -> {9}.
    fn figure1() -> Tree {
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let r2 = b.add_child(NodeId::ROOT);
        let a = b.add_child(r1);
        let bb = b.add_child(r1);
        let c = b.add_child(r2);
        b.add_child(a);
        b.add_child(a);
        b.add_child(bb);
        b.add_child(c);
        b.build().unwrap()
    }

    /// Assert the incrementally maintained tables match a from-scratch
    /// rebuild, per live leaf and per live node.
    fn assert_tables_match_rebuild(t: &Tree) {
        let fresh = t.rebuilt();
        assert_eq!(t, &fresh, "semantic shape must round-trip");
        assert_eq!(t.leaves(), fresh.leaves(), "leaf sets must agree");
        for &l in t.leaves() {
            assert_eq!(t.leaf_path(l), fresh.leaf_path(l), "path of {l}");
            assert_eq!(t.leaf_hops(l), fresh.leaf_hops(l), "hops of {l}");
            assert_eq!(t.leaf_index(l), fresh.leaf_index(l), "index of {l}");
        }
        assert_eq!(
            t.leaf_runs().collect::<Vec<_>>(),
            fresh.leaf_runs().collect::<Vec<_>>(),
            "leaf runs must agree"
        );
        for v in t.nodes().filter(|&v| t.is_alive(v)) {
            assert_eq!(t.depth(v), fresh.depth(v), "depth of {v}");
            assert_eq!(t.r_node(v), fresh.r_node(v), "R({v})");
            assert_eq!(t.children(v), fresh.children(v), "children of {v}");
        }
    }

    #[test]
    fn empty_batch_keeps_epoch() {
        let mut t = figure1();
        let applied = t.apply_mutations().unwrap();
        assert!(applied.is_empty());
        assert_eq!(t.epoch(), 0);
    }

    #[test]
    fn add_leaf_appends_id_and_path() {
        let mut t = figure1();
        t.queue_add_leaf(NodeId(3));
        let applied = t.apply_mutations().unwrap();
        assert_eq!(applied.added, vec![NodeId(10)]);
        assert_eq!(t.epoch(), 1);
        assert_eq!(t.len(), 11);
        assert!(t.is_leaf(NodeId(10)));
        assert_eq!(t.leaves(), &[NodeId(6), NodeId(7), NodeId(8), NodeId(9), NodeId(10)]);
        assert_eq!(t.leaf_path(NodeId(10)), &[NodeId(1), NodeId(3), NodeId(10)]);
        // Untouched leaves keep their exact slices.
        assert_eq!(t.leaf_path(NodeId(6)), &[NodeId(1), NodeId(3), NodeId(6)]);
        assert_tables_match_rebuild(&t);
    }

    #[test]
    fn add_leaf_rejects_root_leaf_and_dead_parents() {
        let mut t = figure1();
        t.queue_add_leaf(NodeId::ROOT);
        assert!(matches!(t.apply_mutations(), Err(CoreError::InvalidMutation { .. })));
        t.queue_add_leaf(NodeId(6)); // a machine
        assert!(matches!(t.apply_mutations(), Err(CoreError::InvalidMutation { .. })));
        t.queue_add_leaf(NodeId(99));
        assert!(matches!(t.apply_mutations(), Err(CoreError::InvalidMutation { .. })));
    }

    #[test]
    fn remove_leaf_tombstones_and_reindexes() {
        let mut t = figure1();
        t.queue_remove_leaf(NodeId(7));
        let applied = t.apply_mutations().unwrap();
        assert_eq!(applied.removed, vec![NodeId(7)]);
        assert!(applied.promoted.is_empty(), "a(3) still has machine 6");
        assert!(!t.is_alive(NodeId(7)));
        assert!(!t.is_leaf(NodeId(7)));
        assert_eq!(t.leaves(), &[NodeId(6), NodeId(8), NodeId(9)]);
        assert_eq!(t.leaf_index(NodeId(8)), Some(1));
        assert_eq!(t.len(), 10, "ids are never renumbered");
        assert_tables_match_rebuild(&t);
    }

    #[test]
    fn remove_last_child_promotes_parent() {
        let mut t = figure1();
        // b(4) has only machine 8; removing it promotes b to a machine.
        t.queue_remove_leaf(NodeId(8));
        let applied = t.apply_mutations().unwrap();
        assert_eq!(applied.promoted, vec![NodeId(4)]);
        assert!(t.is_leaf(NodeId(4)));
        assert_eq!(t.leaves(), &[NodeId(4), NodeId(6), NodeId(7), NodeId(9)]);
        assert_eq!(t.leaf_path(NodeId(4)), &[NodeId(1), NodeId(4)]);
        assert_tables_match_rebuild(&t);
    }

    #[test]
    fn remove_refuses_root_adjacent_promotion() {
        // root -> r -> leaf: removing the leaf would promote r to a
        // root-adjacent machine.
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        b.add_child(r);
        let r2 = b.add_child(NodeId::ROOT);
        b.add_child(r2);
        let mut t = b.build().unwrap();
        t.queue_remove_leaf(NodeId(2));
        assert!(matches!(t.apply_mutations(), Err(CoreError::InvalidMutation { .. })));
    }

    #[test]
    fn remove_refuses_last_machine() {
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        b.add_child(r);
        let mut t = b.build().unwrap();
        t.queue_remove_leaf(NodeId(2));
        assert!(matches!(t.apply_mutations(), Err(CoreError::InvalidMutation { .. })));
    }

    #[test]
    fn set_speed_updates_factor() {
        let mut t = figure1();
        t.queue_set_speed(NodeId(6), 2.0);
        t.queue_set_speed(NodeId(1), 0.5);
        let applied = t.apply_mutations().unwrap();
        assert_eq!(applied.speed_changes, vec![(NodeId(6), 2.0), (NodeId(1), 0.5)]);
        assert_eq!(t.speed_factor(NodeId(6)), 2.0);
        assert_eq!(t.speed_factor(NodeId(1)), 0.5);
        assert_tables_match_rebuild(&t);
    }

    #[test]
    fn set_speed_rejects_bad_targets() {
        let mut t = figure1();
        t.queue_set_speed(NodeId::ROOT, 2.0);
        assert!(matches!(t.apply_mutations(), Err(CoreError::InvalidMutation { .. })));
        t.queue_set_speed(NodeId(6), 0.0);
        assert!(matches!(t.apply_mutations(), Err(CoreError::NonPositiveSpeed(_))));
        t.queue_set_speed(NodeId(6), f64::NAN);
        assert!(matches!(t.apply_mutations(), Err(CoreError::NonPositiveSpeed(_))));
    }

    #[test]
    fn fail_node_tombstones_subtree() {
        let mut t = figure1();
        // Fail a(3): machines 6 and 7 go down with it.
        t.queue_fail_node(NodeId(3));
        let applied = t.apply_mutations().unwrap();
        assert_eq!(applied.removed, vec![NodeId(3), NodeId(6), NodeId(7)]);
        assert!(applied.promoted.is_empty(), "r1 still has b(4)");
        assert!(!t.is_alive(NodeId(3)));
        assert!(!t.is_alive(NodeId(6)));
        assert_eq!(t.leaves(), &[NodeId(8), NodeId(9)]);
        assert_tables_match_rebuild(&t);
    }

    #[test]
    fn fail_node_promotes_emptied_parent() {
        let mut t = figure1();
        // Fail c(5): r2(2) is root-adjacent, so promotion is illegal.
        t.queue_fail_node(NodeId(5));
        assert!(matches!(t.apply_mutations(), Err(CoreError::InvalidMutation { .. })));

        // Fail a(3) then b(4): r1 at depth 1 would become a machine —
        // also illegal. But failing machine 8 promotes b(4) at depth 2.
        let mut t = figure1();
        t.queue_fail_node(NodeId(8));
        let applied = t.apply_mutations().unwrap();
        assert_eq!(applied.promoted, vec![NodeId(4)]);
        assert!(t.is_leaf(NodeId(4)));
        assert_tables_match_rebuild(&t);
    }

    #[test]
    fn fail_refuses_root_and_whole_tree() {
        let mut t = figure1();
        t.queue_fail_node(NodeId::ROOT);
        assert!(matches!(t.apply_mutations(), Err(CoreError::InvalidMutation { .. })));
        // Failing both root subtrees one at a time: the second must fail
        // once it would take out the last machines.
        let mut t = figure1();
        t.queue_fail_node(NodeId(1));
        t.apply_mutations().unwrap();
        t.queue_fail_node(NodeId(2));
        assert!(matches!(t.apply_mutations(), Err(CoreError::InvalidMutation { .. })));
    }

    #[test]
    fn mixed_batch_applies_in_order_with_one_epoch_bump() {
        let mut t = figure1();
        t.queue_add_leaf(NodeId(5));
        t.queue_remove_leaf(NodeId(9));
        t.queue_set_speed(NodeId(10), 1.5);
        let applied = t.apply_mutations().unwrap();
        assert_eq!(t.epoch(), 1);
        assert_eq!(applied.epoch, 1);
        assert_eq!(applied.added, vec![NodeId(10)]);
        assert_eq!(applied.removed, vec![NodeId(9)]);
        assert_eq!(applied.speed_changes, vec![(NodeId(10), 1.5)]);
        assert_eq!(t.leaves(), &[NodeId(6), NodeId(7), NodeId(8), NodeId(10)]);
        assert_tables_match_rebuild(&t);
    }

    #[test]
    fn readding_below_promoted_machine_is_rejected() {
        let mut t = figure1();
        t.queue_remove_leaf(NodeId(8)); // promotes b(4)
        t.apply_mutations().unwrap();
        t.queue_add_leaf(NodeId(4));
        assert!(matches!(t.apply_mutations(), Err(CoreError::InvalidMutation { .. })));
    }

    #[test]
    fn serde_roundtrips_mutated_trees() {
        let mut t = figure1();
        t.queue_remove_leaf(NodeId(7));
        t.queue_set_speed(NodeId(6), 2.0);
        t.apply_mutations().unwrap();
        let s = serde_json::to_string(&t).unwrap();
        assert!(s.starts_with("{"), "mutated tree uses the map format: {s}");
        let back: Tree = serde_json::from_str(&s).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.leaves(), t.leaves());
        assert_eq!(back.speed_factor(NodeId(6)), 2.0);
    }

    #[test]
    fn mutation_serde_is_tagged() {
        let m = TreeMutation::AddLeaf { parent: NodeId(3) };
        let s = serde_json::to_string(&m).unwrap();
        assert_eq!(s, r#"{"op":"add_leaf","parent":3}"#);
        let back: TreeMutation = serde_json::from_str(&s).unwrap();
        assert_eq!(back, m);
        let m: TreeMutation =
            serde_json::from_str(r#"{"op":"set_speed","node":2,"factor":0.5}"#).unwrap();
        assert_eq!(m, TreeMutation::SetSpeed { node: NodeId(2), factor: 0.5 });
    }

    #[test]
    fn long_random_walk_matches_rebuild() {
        // A deterministic splitmix-driven walk over all four mutation
        // kinds; after every batch the incremental tables must match a
        // from-scratch rebuild.
        let mut t = figure1();
        let mut z = 0x9E37_79B9_7F4A_7C15u64;
        let step = |s: &mut u64| {
            *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut x = *s;
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^ (x >> 31)
        };
        let mut applied_count = 0;
        for _ in 0..200 {
            let r = step(&mut z);
            let ok = match r % 4 {
                0 => {
                    // Add under a random live router.
                    let routers: Vec<NodeId> =
                        t.nodes().filter(|&v| t.is_router(v)).collect();
                    let p = routers[(r >> 8) as usize % routers.len()];
                    t.queue_add_leaf(p);
                    true
                }
                1 => {
                    let ls = t.leaves();
                    let l = ls[(r >> 8) as usize % ls.len()];
                    t.queue_remove_leaf(l);
                    t.apply_mutations().is_ok() && {
                        applied_count += 1;
                        assert_tables_match_rebuild(&t);
                        false
                    }
                }
                2 => {
                    let v = NodeId(1 + ((r >> 8) as u32 % (t.len() as u32 - 1)));
                    if t.is_alive(v) {
                        t.queue_set_speed(v, [0.5, 1.5, 2.0][(r >> 16) as usize % 3]);
                        true
                    } else {
                        false
                    }
                }
                _ => {
                    let v = NodeId(1 + ((r >> 8) as u32 % (t.len() as u32 - 1)));
                    if t.is_alive(v) {
                        t.queue_fail_node(v);
                        t.apply_mutations().is_ok() && {
                            applied_count += 1;
                            assert_tables_match_rebuild(&t);
                            false
                        }
                    } else {
                        false
                    }
                }
            };
            if ok && t.apply_mutations().is_ok() {
                applied_count += 1;
                assert_tables_match_rebuild(&t);
            }
        }
        assert!(applied_count > 50, "walk must actually mutate ({applied_count} batches)");
        assert!(t.epoch() > 0);
    }
}
