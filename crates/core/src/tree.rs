//! Rooted tree topology with the paper's standard accessors.
//!
//! Conventions (following §2 of the paper):
//!
//! * Node `0` is the **root** — the job distribution center. The root
//!   never processes jobs.
//! * Interior (non-root, non-leaf) nodes are **routers**; leaves are
//!   **machines**. No leaf may be adjacent to the root.
//! * `R(v)` is the root-adjacent ancestor of a non-root node `v`; the
//!   set of root-adjacent nodes is written `R` (here:
//!   [`Tree::root_adjacent`]).
//! * `L(v)` is the set of leaves in the subtree rooted at `v`
//!   ([`Tree::leaves_under`]).
//! * `d_v` is the number of nodes on the path from `v` up to `R(v)`,
//!   inclusive of both — which equals `depth(v)` with the root at depth
//!   0 ([`Tree::d_v`]).
//!
//! Node ids are required to be *topological*: every node's parent has a
//! smaller id. All generators in `bct-workloads` respect this, and
//! [`TreeBuilder`] enforces it by construction.

use crate::error::CoreError;
use crate::ids::NodeId;
use crate::mutate::TreeMutation;
use serde::de::Error as _;
use serde::ser::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};

/// An epoch-mutable rooted tree, validated against the paper's model.
///
/// A freshly built tree is static; [`Tree::queue_add_leaf`] and friends
/// queue [`TreeMutation`]s that [`Tree::apply_mutations`] applies in
/// order, bumping the epoch and updating the cached per-leaf tables
/// **incrementally** (touched leaves only — see `mutate.rs`). Removed
/// nodes are tombstoned (`alive[v] = false`), never renumbered, so node
/// ids stay stable across epochs and every id-indexed side table keeps
/// working.
///
/// Serialization round-trips through the *parent array only* while the
/// tree is untouched (epoch 0 shape); a mutated tree serializes as a
/// `{parents, alive, speed}` map. All derived structure (children
/// lists, depths, `R(v)`, leaf indices, path arenas) is rebuilt and
/// re-validated on deserialize, so hand-edited or corrupted input
/// cannot produce an inconsistent tree. Equality compares the semantic
/// shape (parents, liveness, speed factors) — not epochs, pending
/// queues, or arena layout, which are representation details.
#[derive(Debug)]
pub struct Tree {
    pub(crate) parent: Vec<Option<NodeId>>,
    pub(crate) children: Vec<Vec<NodeId>>,
    pub(crate) depth: Vec<u32>,
    pub(crate) r_node: Vec<NodeId>,
    pub(crate) leaves: Vec<NodeId>,
    pub(crate) leaf_index: Vec<Option<u32>>,
    /// Exclusive end indices into `leaves` of the leaf runs (see
    /// [`Tree::leaf_runs`]); the last entry is `leaves.len()`.
    pub(crate) leaf_run_ends: Vec<u32>,
    /// Root→leaf paths for every leaf; leaf `i`'s path is the
    /// `leaf_span[i]` slice of this arena. Spans are contiguous after a
    /// full build; incremental mutations append new spans at the end and
    /// leave removed leaves' spans as dead holes (ids are stable, arenas
    /// are append-only between full rebuilds). Only leaves are cached
    /// (Σ depths, not Σ over all nodes), so deep line topologies don't
    /// blow the memory up quadratically.
    pub(crate) leaf_path_arena: Vec<NodeId>,
    /// `(offset, len)` into both arenas, parallel to `leaves`.
    pub(crate) leaf_span: Vec<(u32, u32)>,
    /// Per-leaf dispatch table: the same spans as `leaf_path_arena`, but
    /// each span holds `(node, hop)` pairs sorted by node id, so the
    /// simulator can binary-search "which hop is node v on this path?"
    /// without building and sorting a per-job index.
    pub(crate) leaf_hops_arena: Vec<(NodeId, u32)>,
    /// Liveness per node id; tombstoned nodes keep their slot forever.
    pub(crate) alive: Vec<bool>,
    /// Multiplicative per-node speed factor (1.0 = unchanged), applied
    /// on top of whatever [`crate::SpeedProfile`] is materialized.
    pub(crate) speed_factor: Vec<f64>,
    /// Mutations queued but not yet applied.
    pub(crate) pending: Vec<TreeMutation>,
    /// Bumped once per non-empty [`Tree::apply_mutations`] batch.
    pub(crate) epoch: u64,
}

impl Clone for Tree {
    fn clone(&self) -> Tree {
        Tree {
            parent: self.parent.clone(),
            children: self.children.clone(),
            depth: self.depth.clone(),
            r_node: self.r_node.clone(),
            leaves: self.leaves.clone(),
            leaf_index: self.leaf_index.clone(),
            leaf_run_ends: self.leaf_run_ends.clone(),
            leaf_path_arena: self.leaf_path_arena.clone(),
            leaf_span: self.leaf_span.clone(),
            leaf_hops_arena: self.leaf_hops_arena.clone(),
            alive: self.alive.clone(),
            speed_factor: self.speed_factor.clone(),
            pending: self.pending.clone(),
            epoch: self.epoch,
        }
    }

    /// Field-wise `clone_from` so a pooled tree (e.g. the simulator's
    /// dynamic-topology scratch copy) reuses every vector's capacity
    /// instead of reallocating per run.
    fn clone_from(&mut self, source: &Tree) {
        self.parent.clone_from(&source.parent);
        self.children.clone_from(&source.children);
        self.depth.clone_from(&source.depth);
        self.r_node.clone_from(&source.r_node);
        self.leaves.clone_from(&source.leaves);
        self.leaf_index.clone_from(&source.leaf_index);
        self.leaf_run_ends.clone_from(&source.leaf_run_ends);
        self.leaf_path_arena.clone_from(&source.leaf_path_arena);
        self.leaf_span.clone_from(&source.leaf_span);
        self.leaf_hops_arena.clone_from(&source.leaf_hops_arena);
        self.alive.clone_from(&source.alive);
        self.speed_factor.clone_from(&source.speed_factor);
        self.pending.clone_from(&source.pending);
        self.epoch = source.epoch;
    }
}

impl PartialEq for Tree {
    /// Semantic shape equality: same parents, same liveness, same speed
    /// factors. Epoch counters, pending queues, and arena layout (which
    /// differs between an incrementally mutated tree and its from-scratch
    /// rebuild) are representation details and do not participate.
    fn eq(&self, other: &Tree) -> bool {
        self.parent == other.parent
            && self.alive == other.alive
            && self.speed_factor == other.speed_factor
    }
}

/// Iterator over leaf runs: consecutive slices of a leaf list, each a
/// maximal stretch whose leaves share a dispatch key (entry node and
/// path length). Yielded by [`Tree::leaf_runs`] for root-origin paths
/// and by [`crate::Instance::leaf_runs`] for a job's own paths.
#[derive(Clone, Debug)]
pub struct LeafRuns<'a> {
    leaves: &'a [NodeId],
    ends: std::slice::Iter<'a, u32>,
    start: usize,
}

impl<'a> LeafRuns<'a> {
    /// Runs of `leaves` ending (exclusively) at each of `ends`.
    pub(crate) fn new(leaves: &'a [NodeId], ends: &'a [u32]) -> LeafRuns<'a> {
        LeafRuns { leaves, ends: ends.iter(), start: 0 }
    }
}

impl<'a> Iterator for LeafRuns<'a> {
    type Item = &'a [NodeId];

    #[inline]
    fn next(&mut self) -> Option<&'a [NodeId]> {
        let end = *self.ends.next()? as usize;
        let run = &self.leaves[self.start..end];
        self.start = end;
        Some(run)
    }
}

/// Append the run boundaries of a leaf list to `out`: one exclusive end
/// index wherever the key of the next leaf differs, and one at the end.
pub(crate) fn push_run_ends(out: &mut Vec<u32>, keys: impl Iterator<Item = (NodeId, u32)>) {
    let mut prev = None;
    let mut n = 0u32;
    for key in keys {
        if prev.is_some_and(|p| p != key) {
            out.push(n);
        }
        prev = Some(key);
        n += 1;
    }
    if n > 0 {
        out.push(n);
    }
}

/// Incremental builder for [`Tree`]; ids are handed out in topological
/// order so the resulting tree always satisfies the id invariant.
///
/// ```
/// use bct_core::tree::TreeBuilder;
/// use bct_core::NodeId;
///
/// // root -> router -> {machine, machine}
/// let mut b = TreeBuilder::new();
/// let r = b.add_child(NodeId::ROOT);
/// b.add_child(r);
/// b.add_child(r);
/// let tree = b.build().unwrap();
/// assert_eq!(tree.num_leaves(), 2);
/// assert_eq!(tree.d_v(tree.leaves()[0]), 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct TreeBuilder {
    parent: Vec<Option<NodeId>>,
}

impl TreeBuilder {
    /// Start a new tree containing only the root (id 0).
    pub fn new() -> Self {
        TreeBuilder {
            parent: vec![None],
        }
    }

    /// Add a node whose parent is `parent`; returns the new node's id.
    ///
    /// # Panics
    /// Panics if `parent` has not been added yet.
    pub fn add_child(&mut self, parent: NodeId) -> NodeId {
        assert!(
            parent.as_usize() < self.parent.len(),
            "parent {parent} does not exist yet"
        );
        let id = NodeId(self.parent.len() as u32);
        self.parent.push(Some(parent));
        id
    }

    /// Add a chain of `len` nodes below `parent`; returns the ids in
    /// order from shallowest to deepest.
    pub fn add_chain(&mut self, parent: NodeId, len: usize) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(len);
        let mut cur = parent;
        for _ in 0..len {
            cur = self.add_child(cur);
            ids.push(cur);
        }
        ids
    }

    /// Number of nodes added so far (including the root).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if only the root exists.
    pub fn is_empty(&self) -> bool {
        self.parent.len() <= 1
    }

    /// Validate and freeze into a [`Tree`].
    pub fn build(self) -> Result<Tree, CoreError> {
        Tree::from_parents(self.parent)
    }
}

impl Tree {
    /// Build a tree from a parent array (`parent[0]` must be `None`).
    ///
    /// Validates the model's structural requirements: at least one
    /// router and one machine, topological ids, and no leaf adjacent to
    /// the root.
    pub fn from_parents(parent: Vec<Option<NodeId>>) -> Result<Tree, CoreError> {
        let m = parent.len();
        Tree::from_parts(parent, vec![true; m], vec![1.0; m])
    }

    /// Build a tree from its full semantic state: the parent array, the
    /// per-node liveness mask, and the per-node speed factors. This is
    /// the from-scratch path that [`Tree::rebuilt`] (the differential
    /// oracle for incremental mutation) and the tombstone-aware
    /// deserializer go through; [`Tree::from_parents`] is the all-alive,
    /// unit-factor special case.
    pub fn from_parts(
        parent: Vec<Option<NodeId>>,
        alive: Vec<bool>,
        speed_factor: Vec<f64>,
    ) -> Result<Tree, CoreError> {
        let m = parent.len();
        if m < 3 {
            // Need at least root + router + machine.
            return Err(CoreError::EmptyTree);
        }
        if alive.len() != m || speed_factor.len() != m {
            return Err(CoreError::SpeedArity {
                got: alive.len().min(speed_factor.len()),
                want: m,
            });
        }
        if !alive[0] {
            return Err(CoreError::NotTopologicallyOrdered(NodeId::ROOT));
        }
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); m];
        for (i, p) in parent.iter().enumerate() {
            let v = NodeId(i as u32);
            match (i, p) {
                (0, None) => {}
                (0, Some(_)) | (_, None) => return Err(CoreError::NotTopologicallyOrdered(v)),
                (_, Some(p)) => {
                    if p.as_usize() >= m {
                        return Err(CoreError::DanglingParent { node: v, parent: *p });
                    }
                    if p.as_usize() >= i {
                        return Err(CoreError::NotTopologicallyOrdered(v));
                    }
                    if alive[i] {
                        // A live node under a tombstoned parent cannot be
                        // reached from the root.
                        if !alive[p.as_usize()] {
                            return Err(CoreError::DanglingParent { node: v, parent: *p });
                        }
                        children[p.as_usize()].push(v);
                    }
                }
            }
        }
        if children[0].is_empty() {
            return Err(CoreError::EmptyTree);
        }
        for i in 0..m {
            if alive[i] {
                let s = speed_factor[i];
                if !(s > 0.0 && s.is_finite()) {
                    return Err(CoreError::NonPositiveSpeed(NodeId(i as u32)));
                }
            }
        }
        // Depth and R(v) in one topological pass. Dead slots get values
        // too (their parent chain is still well-formed); only live
        // nodes' entries are meaningful.
        let mut depth = vec![0u32; m];
        let mut r_node = vec![NodeId::ROOT; m];
        for i in 1..m {
            let p = parent[i].expect("validated above");
            depth[i] = depth[p.as_usize()] + 1;
            r_node[i] = if depth[i] == 1 {
                NodeId(i as u32)
            } else {
                r_node[p.as_usize()]
            };
        }
        let mut leaves = Vec::new();
        let mut leaf_index = vec![None; m];
        for i in 1..m {
            if alive[i] && children[i].is_empty() {
                let v = NodeId(i as u32);
                if depth[i] < 2 {
                    return Err(CoreError::LeafAdjacentToRoot(v));
                }
                leaf_index[i] = Some(leaves.len() as u32);
                leaves.push(v);
            }
        }
        if leaves.is_empty() {
            return Err(CoreError::EmptyTree);
        }
        // Cache every leaf's root→leaf path in one contiguous arena so
        // the hot dispatch loop can borrow paths without allocating.
        let mut leaf_path_arena = Vec::with_capacity(
            leaves.iter().map(|&l| depth[l.as_usize()] as usize).sum(),
        );
        let mut leaf_span = Vec::with_capacity(leaves.len());
        for &l in &leaves {
            let start = leaf_path_arena.len();
            leaf_path_arena.resize(start + depth[l.as_usize()] as usize, NodeId::ROOT);
            let mut cur = l;
            for slot in leaf_path_arena[start..].iter_mut().rev() {
                *slot = cur;
                cur = parent[cur.as_usize()].expect("leaf path stays below the root");
            }
            leaf_span.push((start as u32, (leaf_path_arena.len() - start) as u32));
        }
        let mut leaf_hops_arena = Vec::with_capacity(leaf_path_arena.len());
        for &(off, len) in &leaf_span {
            let span = &leaf_path_arena[off as usize..(off + len) as usize];
            let start = leaf_hops_arena.len();
            leaf_hops_arena.extend(span.iter().enumerate().map(|(h, &v)| (v, h as u32)));
            leaf_hops_arena[start..].sort_unstable_by_key(|&(v, _)| v);
        }
        let mut tree = Tree {
            parent,
            children,
            depth,
            r_node,
            leaves,
            leaf_index,
            leaf_run_ends: Vec::new(),
            leaf_path_arena,
            leaf_span,
            leaf_hops_arena,
            alive,
            speed_factor,
            pending: Vec::new(),
            epoch: 0,
        };
        tree.refresh_leaf_runs();
        Ok(tree)
    }

    /// A from-scratch rebuild of this tree's current semantic state —
    /// the differential oracle for the incremental table maintenance in
    /// [`Tree::apply_mutations`]. The result has the same parents,
    /// liveness, and speed factors (so `==` holds) with every cached
    /// table recomputed from nothing; epoch restarts at 0 and the
    /// pending queue is empty.
    ///
    /// # Panics
    /// Panics if the tree's invariants are broken (possible only after
    /// an `apply_mutations` error left it partially mutated).
    pub fn rebuilt(&self) -> Tree {
        Tree::from_parts(
            self.parent.clone(),
            self.alive.clone(),
            self.speed_factor.clone(),
        )
        .expect("a validated tree rebuilds cleanly")
    }

    /// Total number of nodes `m`, including the root.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Never true: a valid tree has at least three nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The root node (always id 0).
    #[inline]
    pub fn root(&self) -> NodeId {
        NodeId::ROOT
    }

    /// Parent of `v`, or `None` for the root.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        self.parent[v.as_usize()]
    }

    /// Children `c(v)` of node `v`.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v.as_usize()]
    }

    /// Depth of `v` (root at depth 0).
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v.as_usize()]
    }

    /// `d_v`: the number of nodes on the path from `v` to `R(v)`,
    /// inclusive of both endpoints. Equals `depth(v)`.
    #[inline]
    pub fn d_v(&self, v: NodeId) -> u32 {
        self.depth[v.as_usize()]
    }

    /// `R(v)`: the root-adjacent ancestor of `v` (for `v` ≠ root).
    /// Returns the root itself for the root, by convention.
    #[inline]
    pub fn r_node(&self, v: NodeId) -> NodeId {
        self.r_node[v.as_usize()]
    }

    /// True if `v` is a live leaf (machine). Tombstoned nodes are
    /// neither leaves nor routers.
    #[inline]
    pub fn is_leaf(&self, v: NodeId) -> bool {
        v != NodeId::ROOT && self.alive[v.as_usize()] && self.children[v.as_usize()].is_empty()
    }

    /// True if `v` is a live router (non-root interior node).
    #[inline]
    pub fn is_router(&self, v: NodeId) -> bool {
        v != NodeId::ROOT && self.alive[v.as_usize()] && !self.children[v.as_usize()].is_empty()
    }

    /// True if `v` has not been tombstoned by a remove/fail mutation.
    #[inline]
    pub fn is_alive(&self, v: NodeId) -> bool {
        self.alive[v.as_usize()]
    }

    /// Multiplicative speed factor of `v` (1.0 unless a `SetSpeed`
    /// mutation changed it). Applied on top of the materialized
    /// [`crate::SpeedProfile`].
    #[inline]
    pub fn speed_factor(&self, v: NodeId) -> f64 {
        self.speed_factor[v.as_usize()]
    }

    /// The current topology epoch: 0 for a fresh build, bumped once per
    /// non-empty [`Tree::apply_mutations`] batch.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Deterministic digest of the tree's *semantic* structure: epoch,
    /// per-node parent/liveness/speed-factor, and the live leaf set.
    /// Cached-arena layout (span offsets, dead holes) is deliberately
    /// excluded, so an incrementally mutated tree and its from-scratch
    /// rebuild digest equal — this is the topology component of the
    /// serve layer's per-epoch state hash.
    // bct-lint: no_alloc
    pub fn structure_digest(&self) -> u64 {
        let mut h = crate::digest::Fnv64::new();
        h.write_u64(self.epoch);
        h.write_usize(self.parent.len());
        for v in 0..self.parent.len() {
            h.write_u32(self.parent[v].map_or(u32::MAX, |p| p.0));
            h.write_bool(self.alive[v]);
            h.write_f64(self.speed_factor[v]);
        }
        h.write_usize(self.leaves.len());
        for &l in &self.leaves {
            h.write_u32(l.0);
        }
        h.finish()
    }

    /// Mutations queued but not yet applied, in queue order.
    #[inline]
    pub fn pending_mutations(&self) -> &[TreeMutation] {
        &self.pending
    }

    /// The leaf set `L`, in id order.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves
    }

    /// The leaves in runs: maximal stretches of consecutive leaves of
    /// [`Tree::leaves`] (id order) that share an entry node `R(v)` and a
    /// path length `d_v`. Together the runs are exactly `leaves()`, in
    /// order. A dispatch score that depends on the leaf only through
    /// `R(v)` and `d_v` is the same for every leaf of a run, so a rule
    /// can score a run once instead of once per leaf. Trees that number
    /// each entry subtree contiguously with equal-depth leaves have one
    /// run per entry node: 16 on `fat_tree(16, 8, 8)`'s 1024 leaves.
    /// Built with the tree and repaired by [`Tree::apply_mutations`].
    #[inline]
    pub fn leaf_runs(&self) -> LeafRuns<'_> {
        LeafRuns::new(&self.leaves, &self.leaf_run_ends)
    }

    /// Compute the leaf runs from the leaf list (at build time and after
    /// the leaf set changed).
    pub(crate) fn refresh_leaf_runs(&mut self) {
        self.leaf_run_ends.clear();
        push_run_ends(
            &mut self.leaf_run_ends,
            self.leaves.iter().map(|&l| (self.r_node[l.as_usize()], self.depth[l.as_usize()])),
        );
    }

    /// Number of leaves.
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }

    /// Dense index of a leaf in [`Tree::leaves`], used to index
    /// leaf-size tables in the unrelated setting. Ids past the end
    /// (e.g. nodes another tree's mutation added) answer `None`.
    #[inline]
    pub fn leaf_index(&self, v: NodeId) -> Option<usize> {
        self.leaf_index.get(v.as_usize()).copied().flatten().map(|i| i as usize)
    }

    /// The root-adjacent set `R` (children of the root).
    #[inline]
    pub fn root_adjacent(&self) -> &[NodeId] {
        &self.children[0]
    }

    /// All node ids in increasing (topological) order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// All non-root node ids in topological order.
    pub fn non_root_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (1..self.len() as u32).map(NodeId)
    }

    /// The path from `R(v)` down to `v`, inclusive — exactly the nodes a
    /// job assigned past `v` is processed on up to `v`. Empty for the
    /// root.
    pub fn path_from_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = Vec::new();
        self.path_from_root_into(v, &mut path);
        path
    }

    /// [`Tree::path_from_root`] into a caller-owned buffer (cleared
    /// first) — the zero-alloc variant for warm-path callers whose
    /// buffer has been sized by a previous call.
    pub fn path_from_root_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        if v == NodeId::ROOT {
            return;
        }
        out.reserve(self.depth(v) as usize);
        let mut cur = v;
        loop {
            out.push(cur);
            match self.parent(cur) {
                Some(p) if p != NodeId::ROOT => cur = p,
                _ => break,
            }
        }
        out.reverse();
    }

    /// Cached [`Tree::path_from_root`] for a leaf, borrowed from the
    /// tree (no allocation). This is the hot-path accessor the
    /// dispatcher uses when scoring every leaf per job.
    ///
    /// # Panics
    /// Panics if `leaf` is not a leaf.
    #[inline]
    pub fn leaf_path(&self, leaf: NodeId) -> &[NodeId] {
        let i = self
            .leaf_index[leaf.as_usize()]
            // bct-lint: allow(p2) -- documented `# Panics` precondition; dispatch only passes leaves
            .unwrap_or_else(|| panic!("leaf_path({leaf}): not a leaf"))
            as usize;
        let (off, len) = self.leaf_span[i];
        &self.leaf_path_arena[off as usize..(off + len) as usize]
    }

    /// The node-sorted `(node, hop)` index of a leaf's cached root→leaf
    /// path: same span as [`Tree::leaf_path`], but ordered by node id so
    /// "is `v` on the path, and at which hop?" is a binary search over a
    /// borrowed slice instead of a per-job allocation.
    ///
    /// # Panics
    /// Panics if `leaf` is not a leaf.
    #[inline]
    pub fn leaf_hops(&self, leaf: NodeId) -> &[(NodeId, u32)] {
        let i = self
            .leaf_index[leaf.as_usize()]
            // bct-lint: allow(p2) -- documented `# Panics` precondition; dispatch only passes leaves
            .unwrap_or_else(|| panic!("leaf_hops({leaf}): not a leaf"))
            as usize;
        let (off, len) = self.leaf_span[i];
        &self.leaf_hops_arena[off as usize..(off + len) as usize]
    }

    /// Lowest common ancestor of `a` and `b`.
    pub fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let (mut a, mut b) = (a, b);
        while self.depth(a) > self.depth(b) {
            a = self.parent(a).expect("deeper node has a parent"); // bct-lint: allow(p2) -- depth > 0 implies a parent
        }
        while self.depth(b) > self.depth(a) {
            b = self.parent(b).expect("deeper node has a parent"); // bct-lint: allow(p2) -- depth > 0 implies a parent
        }
        while a != b {
            a = self.parent(a).expect("non-root"); // bct-lint: allow(p2) -- unequal nodes at equal depth are below the root
            b = self.parent(b).expect("non-root");
        }
        a
    }

    /// The processing path of a job that *originates* at `origin` and is
    /// assigned to `leaf`: every node on the tree walk origin → LCA →
    /// leaf, **excluding the origin itself and the root** (neither
    /// processes the job), in traversal order. When `origin == leaf`
    /// the job still needs its leaf processing, so the path is `[leaf]`.
    ///
    /// With `origin = root` this coincides with [`Tree::path_from_root`]
    /// — the paper's base model.
    pub fn path_between(&self, origin: NodeId, leaf: NodeId) -> Vec<NodeId> {
        if origin == leaf {
            return vec![leaf];
        }
        let l = self.lca(origin, leaf);
        let mut up = Vec::new();
        let mut cur = origin;
        while cur != l {
            cur = self.parent(cur).expect("walking up to the LCA"); // bct-lint: allow(p2) -- the LCA is an ancestor of `origin`
            up.push(cur);
        }
        let mut down = Vec::new();
        let mut cur = leaf;
        while cur != l {
            down.push(cur);
            cur = self.parent(cur).expect("walking up from the leaf"); // bct-lint: allow(p2) -- the LCA is an ancestor of `leaf`
        }
        down.reverse();
        up.extend(down);
        up.retain(|&v| v != NodeId::ROOT);
        up
    }

    /// True if `a` is an ancestor of `b` (or equal to it).
    pub fn is_ancestor_or_self(&self, a: NodeId, b: NodeId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.parent(cur) {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// `L(v)`: leaves in the subtree rooted at `v`, in id order.
    pub fn leaves_under(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        self.leaves_under_into(v, &mut out, &mut scratch);
        out
    }

    /// [`Tree::leaves_under`] into caller-owned buffers (both cleared
    /// first; `scratch` is the DFS stack). Zero-alloc once the buffers
    /// have grown to fit — the variant the simulator's drain path uses.
    pub fn leaves_under_into(&self, v: NodeId, out: &mut Vec<NodeId>, scratch: &mut Vec<NodeId>) {
        out.clear();
        scratch.clear();
        scratch.push(v);
        while let Some(u) = scratch.pop() {
            if self.is_leaf(u) {
                out.push(u);
            } else {
                scratch.extend(self.children(u).iter().copied());
            }
        }
        out.sort_unstable();
    }

    /// All nodes of the subtree rooted at `v`, in level (BFS) order.
    /// Only live nodes appear (tombstoned children are pruned from
    /// `children`).
    pub fn subtree(&self, v: NodeId) -> Vec<NodeId> {
        // bct-lint: allow(a2) -- reached from `Service::apply` only via tree mutations, rare control events outside the steady-state submit path
        let mut out = Vec::new();
        self.subtree_into(v, &mut out);
        out
    }

    /// [`Tree::subtree`] into a caller-owned buffer (cleared first).
    /// `out` doubles as the BFS worklist, so no scratch buffer is
    /// needed and a grown buffer makes repeat calls allocation-free.
    pub fn subtree_into(&self, v: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        out.push(v);
        let mut next = 0;
        while next < out.len() {
            let u = out[next];
            next += 1;
            out.extend(self.children[u.as_usize()].iter().copied());
        }
    }

    /// Length (in edges) of the longest downward path from `v` to a leaf
    /// of its subtree.
    pub fn height_below(&self, v: NodeId) -> u32 {
        self.children(v)
            .iter()
            .map(|&c| 1 + self.height_below(c))
            .max()
            .unwrap_or(0)
    }

    /// Maximum leaf depth in the whole tree.
    pub fn max_leaf_depth(&self) -> u32 {
        self.leaves.iter().map(|&v| self.depth(v)).max().unwrap_or(0)
    }

    /// True if this tree is a **broomstick**: below every root-adjacent
    /// node there is a single path ("handle") of routers, and every
    /// other node hangs off the handle as a leaf.
    pub fn is_broomstick(&self) -> bool {
        for &r in self.root_adjacent() {
            let mut cur = r;
            loop {
                let router_children: Vec<NodeId> = self
                    .children(cur)
                    .iter()
                    .copied()
                    .filter(|&c| !self.is_leaf(c))
                    .collect();
                match router_children.len() {
                    0 => break,
                    1 => cur = router_children[0],
                    _ => return false,
                }
            }
        }
        true
    }

    /// The unique non-leaf child of `v`, if exactly one exists — the
    /// next handle node in a broomstick.
    pub fn handle_child(&self, v: NodeId) -> Option<NodeId> {
        let mut it = self.children(v).iter().copied().filter(|&c| !self.is_leaf(c));
        let first = it.next()?;
        if it.next().is_some() {
            None
        } else {
            Some(first)
        }
    }
}

impl Serialize for Tree {
    /// A never-mutated tree serializes as the bare parent array — the
    /// original compact format, byte-for-byte (golden files stay
    /// stable). A tree with tombstones or non-unit speed factors needs
    /// the full `{parents, alive, speed}` map.
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let touched = self.alive.iter().any(|&a| !a)
            // bct-lint: allow(d3) -- exact sentinel: factors start at literal 1.0 and only change via SetSpeed, so bitwise != detects "ever touched" precisely
            || self.speed_factor.iter().any(|&s| s != 1.0);
        if !touched {
            return self.parent.serialize(serializer);
        }
        let map = Value::Map(vec![
            (
                "parents".to_string(),
                serde::to_value(&self.parent).map_err(S::Error::custom)?,
            ),
            (
                "alive".to_string(),
                serde::to_value(&self.alive).map_err(S::Error::custom)?,
            ),
            (
                "speed".to_string(),
                serde::to_value(&self.speed_factor).map_err(S::Error::custom)?,
            ),
        ]);
        serializer.serialize_value(map)
    }
}

impl<'de> Deserialize<'de> for Tree {
    /// Accepts both wire shapes: the compact parent array and the full
    /// `{parents, alive, speed}` map a mutated tree serializes as. All
    /// derived structure is rebuilt and re-validated either way.
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Tree, D::Error> {
        let value = deserializer.deserialize_value()?;
        let built = if matches!(value, Value::Map(_)) {
            let parents = serde::de::req_field(&value, "parents").map_err(D::Error::custom)?;
            let alive = serde::de::req_field(&value, "alive").map_err(D::Error::custom)?;
            let speed = serde::de::req_field(&value, "speed").map_err(D::Error::custom)?;
            Tree::from_parts(parents, alive, speed)
        } else {
            let parents = serde::from_value(value).map_err(D::Error::custom)?;
            Tree::from_parents(parents)
        };
        built.map_err(|e| D::Error::custom(format!("invalid tree: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure-1 style tree used across the test suite:
    ///
    /// ```text
    ///            root(0)
    ///           /       \
    ///         r1(1)     r2(2)
    ///        /    \        \
    ///      a(3)   b(4)     c(5)
    ///     /   \     |        \
    ///   L(6) L(7) L(8)      L(9)
    /// ```
    pub(crate) fn figure1_tree() -> Tree {
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

    #[test]
    fn structure_digest_tracks_semantic_changes_only() {
        let t = figure1_tree();
        let d0 = t.structure_digest();
        assert_eq!(d0, figure1_tree().structure_digest(), "digest is deterministic");

        let mut m = figure1_tree();
        m.queue_remove_leaf(NodeId(7));
        m.apply_mutations().unwrap();
        assert_ne!(m.structure_digest(), d0, "mutations change the digest");
        // An incrementally mutated tree and its from-scratch rebuild
        // share the digest (arena layout is excluded) except for the
        // epoch counter, which rebuilt() resets.
        let rebuilt = m.rebuilt();
        let mut back = figure1_tree();
        back.queue_remove_leaf(NodeId(7));
        back.apply_mutations().unwrap();
        assert_eq!(m.structure_digest(), back.structure_digest());
        assert_eq!(rebuilt.epoch(), 0);

        let mut s = figure1_tree();
        s.queue_set_speed(NodeId(6), 2.0);
        s.apply_mutations().unwrap();
        assert_ne!(s.structure_digest(), d0, "speed factors are folded in");
    }

    #[test]
    fn builder_assigns_dense_topological_ids() {
        let t = figure1_tree();
        assert_eq!(t.len(), 10);
        for v in t.non_root_nodes() {
            let p = t.parent(v).unwrap();
            assert!(p < v, "ids must be topological");
        }
    }

    #[test]
    fn rejects_trivial_trees() {
        assert_eq!(Tree::from_parents(vec![None]), Err(CoreError::EmptyTree));
        assert_eq!(
            Tree::from_parents(vec![None, Some(NodeId(0))]),
            Err(CoreError::EmptyTree)
        );
    }

    #[test]
    fn rejects_leaf_adjacent_to_root() {
        // root -> r -> leaf is fine; root -> leaf is not.
        let r = Tree::from_parents(vec![None, Some(NodeId(0)), Some(NodeId(0)), Some(NodeId(1))]);
        assert_eq!(r, Err(CoreError::LeafAdjacentToRoot(NodeId(2))));
    }

    #[test]
    fn rejects_forward_parent_references() {
        let r = Tree::from_parents(vec![None, Some(NodeId(2)), Some(NodeId(0)), Some(NodeId(2))]);
        assert_eq!(r, Err(CoreError::NotTopologicallyOrdered(NodeId(1))));
    }

    #[test]
    fn rejects_dangling_parent() {
        let r = Tree::from_parents(vec![None, Some(NodeId(9)), Some(NodeId(1))]);
        assert!(matches!(r, Err(CoreError::DanglingParent { .. })));
    }

    #[test]
    fn depth_and_d_v() {
        let t = figure1_tree();
        assert_eq!(t.depth(NodeId(0)), 0);
        assert_eq!(t.depth(NodeId(1)), 1);
        assert_eq!(t.depth(NodeId(3)), 2);
        assert_eq!(t.depth(NodeId(6)), 3);
        assert_eq!(t.d_v(NodeId(6)), 3); // v6, a(3), r1(1)
    }

    #[test]
    fn r_node_is_root_adjacent_ancestor() {
        let t = figure1_tree();
        assert_eq!(t.r_node(NodeId(6)), NodeId(1));
        assert_eq!(t.r_node(NodeId(8)), NodeId(1));
        assert_eq!(t.r_node(NodeId(9)), NodeId(2));
        assert_eq!(t.r_node(NodeId(1)), NodeId(1));
    }

    #[test]
    fn leaves_and_classification() {
        let t = figure1_tree();
        assert_eq!(t.leaves(), &[NodeId(6), NodeId(7), NodeId(8), NodeId(9)]);
        assert!(t.is_leaf(NodeId(6)));
        assert!(!t.is_leaf(NodeId(3)));
        assert!(t.is_router(NodeId(3)));
        assert!(!t.is_router(NodeId(0)));
        assert!(!t.is_router(NodeId(9)));
        assert_eq!(t.leaf_index(NodeId(8)), Some(2));
        assert_eq!(t.leaf_index(NodeId(3)), None);
    }

    #[test]
    fn root_adjacent_set() {
        let t = figure1_tree();
        assert_eq!(t.root_adjacent(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn path_from_root_excludes_root() {
        let t = figure1_tree();
        assert_eq!(
            t.path_from_root(NodeId(6)),
            vec![NodeId(1), NodeId(3), NodeId(6)]
        );
        assert_eq!(t.path_from_root(NodeId(1)), vec![NodeId(1)]);
        assert!(t.path_from_root(NodeId::ROOT).is_empty());
    }

    #[test]
    fn leaf_path_matches_path_from_root() {
        let t = figure1_tree();
        for &l in t.leaves() {
            assert_eq!(t.leaf_path(l), t.path_from_root(l));
        }
        assert_eq!(t.leaf_path(NodeId(6)), &[NodeId(1), NodeId(3), NodeId(6)]);
    }

    #[test]
    #[should_panic(expected = "not a leaf")]
    fn leaf_path_rejects_routers() {
        figure1_tree().leaf_path(NodeId(1));
    }

    #[test]
    fn leaf_hops_is_node_sorted_path_index() {
        let t = figure1_tree();
        for &l in t.leaves() {
            let path = t.leaf_path(l);
            let hops = t.leaf_hops(l);
            assert_eq!(hops.len(), path.len());
            assert!(hops.windows(2).all(|w| w[0].0 < w[1].0));
            for &(v, h) in hops {
                assert_eq!(path[h as usize], v);
            }
        }
    }

    #[test]
    fn leaves_under_subtrees() {
        let t = figure1_tree();
        assert_eq!(
            t.leaves_under(NodeId(1)),
            vec![NodeId(6), NodeId(7), NodeId(8)]
        );
        assert_eq!(t.leaves_under(NodeId(2)), vec![NodeId(9)]);
        assert_eq!(t.leaves_under(NodeId(6)), vec![NodeId(6)]);
    }

    #[test]
    fn subtree_preorder_contains_all() {
        let t = figure1_tree();
        let mut s = t.subtree(NodeId(1));
        s.sort_unstable();
        assert_eq!(
            s,
            vec![NodeId(1), NodeId(3), NodeId(4), NodeId(6), NodeId(7), NodeId(8)]
        );
    }

    #[test]
    fn heights() {
        let t = figure1_tree();
        assert_eq!(t.height_below(NodeId(1)), 2);
        assert_eq!(t.height_below(NodeId(2)), 2);
        assert_eq!(t.height_below(NodeId(6)), 0);
        assert_eq!(t.max_leaf_depth(), 3);
    }

    #[test]
    fn lca_queries() {
        let t = figure1_tree();
        assert_eq!(t.lca(NodeId(6), NodeId(7)), NodeId(3));
        assert_eq!(t.lca(NodeId(6), NodeId(8)), NodeId(1));
        assert_eq!(t.lca(NodeId(6), NodeId(9)), NodeId(0));
        assert_eq!(t.lca(NodeId(3), NodeId(6)), NodeId(3));
        assert_eq!(t.lca(NodeId(5), NodeId(5)), NodeId(5));
    }

    #[test]
    fn path_between_matches_root_path_for_root_origin() {
        let t = figure1_tree();
        for &leaf in t.leaves() {
            assert_eq!(t.path_between(NodeId::ROOT, leaf), t.path_from_root(leaf));
        }
    }

    #[test]
    fn path_between_walks_through_the_lca() {
        let t = figure1_tree();
        // v6 (under a(3)) to v8 (under b(4)): up to a then r1, down b, v8.
        assert_eq!(
            t.path_between(NodeId(6), NodeId(8)),
            vec![NodeId(3), NodeId(1), NodeId(4), NodeId(8)]
        );
        // v6 to v9 crosses the root, which is excluded from processing.
        assert_eq!(
            t.path_between(NodeId(6), NodeId(9)),
            vec![NodeId(3), NodeId(1), NodeId(2), NodeId(5), NodeId(9)]
        );
        // Sibling leaves share their parent.
        assert_eq!(t.path_between(NodeId(6), NodeId(7)), vec![NodeId(3), NodeId(7)]);
    }

    #[test]
    fn path_between_origin_is_destination() {
        let t = figure1_tree();
        assert_eq!(t.path_between(NodeId(6), NodeId(6)), vec![NodeId(6)]);
    }

    #[test]
    fn ancestor_queries() {
        let t = figure1_tree();
        assert!(t.is_ancestor_or_self(NodeId(1), NodeId(6)));
        assert!(t.is_ancestor_or_self(NodeId(6), NodeId(6)));
        assert!(!t.is_ancestor_or_self(NodeId(2), NodeId(6)));
        assert!(t.is_ancestor_or_self(NodeId::ROOT, NodeId(9)));
    }

    #[test]
    fn broomstick_detection() {
        let t = figure1_tree();
        assert!(!t.is_broomstick(), "figure-1 tree branches at r1");

        // root -> r -> h1 -> h2, leaves off h1 and h2.
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        let h1 = b.add_child(r);
        let h2 = b.add_child(h1);
        b.add_child(h1);
        b.add_child(h2);
        b.add_child(h2);
        let t = b.build().unwrap();
        assert!(t.is_broomstick());
        assert_eq!(t.handle_child(r), Some(h1));
        assert_eq!(t.handle_child(h1), Some(h2));
        assert_eq!(t.handle_child(h2), None);
    }

    #[test]
    fn add_chain_builds_a_path() {
        let mut b = TreeBuilder::new();
        let r = b.add_child(NodeId::ROOT);
        let chain = b.add_chain(r, 3);
        b.add_child(*chain.last().unwrap());
        let t = b.build().unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(t.depth(chain[2]), 4);
        assert!(t.is_broomstick());
    }

    #[test]
    fn serde_roundtrip() {
        let t = figure1_tree();
        let s = serde_json::to_string(&t).unwrap();
        let back: Tree = serde_json::from_str(&s).unwrap();
        assert_eq!(t, back);
        // Format is just the parent array.
        assert!(s.starts_with("[null,"), "compact parent-array format: {s}");
    }

    #[test]
    fn deserialize_rejects_invalid_trees() {
        // Leaf adjacent to the root.
        let bad = "[null, 0, 0, 1]";
        let r: Result<Tree, _> = serde_json::from_str(bad);
        assert!(r.is_err());
        assert!(r.unwrap_err().to_string().contains("invalid tree"));
        // Forward reference.
        let bad = "[null, 2, 0, 2]";
        assert!(serde_json::from_str::<Tree>(bad).is_err());
    }
}
