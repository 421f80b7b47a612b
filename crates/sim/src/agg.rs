//! Per-node priority-indexed queue aggregates.
//!
//! Every node `v` keeps its live queue `Q_v(t)` indexed by SJF priority
//! (effective size, release, id). Each entry stores the job's remaining
//! work at `v` and its *fractional* remainder `rem/p`, and range sums
//! `(count, Σrem, Σrem/p)` are maintained so the §3.4 assignment-cost
//! terms reduce to two sub-linear prefix queries per node instead of an
//! `O(|Q_v|)` scan per candidate leaf:
//!
//! * `S`-volume: sum of `rem` over keys strictly before the job's key;
//! * larger-count / larger-fraction: the suffix at `eff > p_j`.
//!
//! [`AggStore`] keeps, per node, three parallel sorted arrays plus
//! fixed-width block summaries ([`BLOCK`] entries per block).
//! Inserts/removals are a binary search plus a memmove and a suffix of
//! block recomputations; point updates recompute one block; queries
//! sum whole-block summaries plus a partial block of entries, always
//! left to right. Block boundaries — and therefore the float summation
//! order — are a function of the *current* contents only, never of
//! operation history. The order-statistic treap it replaced survives
//! only as the test oracle of this module's unit tests.
//!
//! Stored remainders are *as of the node's last materialization*; the
//! one continuously-draining job per node (its `current`) is corrected
//! at query time by [`crate::state::SimState`], which knows its live
//! remainder. The store is pooled in [`crate::SimScratch`], so
//! per-node queues cost no allocations after warm-up.

use bct_core::Time;
use std::cmp::Ordering;

/// SJF priority key of a queued job at a node, ascending = served
/// earlier: effective size (class index when rounding is configured,
/// raw `p_{j,v}` otherwise), then release time, then job id. All
/// components are finite, so the ordering is total.
#[derive(Clone, Copy, Debug)]
pub struct QueueKey {
    /// Effective size of the job at the node.
    pub eff: f64,
    /// Release time (tie-break).
    pub release: Time,
    /// Job id (final tie-break; makes keys unique).
    pub id: u32,
}

impl Ord for QueueKey {
    /// Total order matching `prio::sjf_precedes_or_eq`.
    #[inline]
    fn cmp(&self, other: &QueueKey) -> Ordering {
        self.eff
            .total_cmp(&other.eff)
            .then_with(|| self.release.total_cmp(&other.release))
            .then_with(|| self.id.cmp(&other.id))
    }
}

impl PartialOrd for QueueKey {
    #[inline]
    fn partial_cmp(&self, other: &QueueKey) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for QueueKey {
    #[inline]
    fn eq(&self, other: &QueueKey) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for QueueKey {}

/// Running sums over a key range.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AggSums {
    /// Number of queued jobs.
    pub cnt: u32,
    /// `Σ rem` (remaining work at the node, as last materialized).
    pub sum_rem: f64,
    /// `Σ rem / p` (fractional remainders).
    pub sum_frac: f64,
}

impl AggSums {
    #[inline]
    fn add(&mut self, other: AggSums) {
        self.cnt += other.cnt;
        self.sum_rem += other.sum_rem;
        self.sum_frac += other.sum_frac;
    }

    /// Fold one `(rem, p)` entry into the sums.
    #[inline]
    fn add_raw(&mut self, rem: f64, p: f64) {
        self.cnt += 1;
        self.sum_rem += rem;
        self.sum_frac += rem / p;
    }
}

/// Entries per summary block. Small enough that a partial-block scan
/// is a handful of cache-resident adds, large enough that whole-queue
/// queries touch `|Q|/16` summaries.
const BLOCK: usize = 16;

/// One node's queue: parallel arrays sorted by [`QueueKey`], plus one
/// [`AggSums`] per fixed-width block of entries.
#[derive(Debug, Default)]
struct FlatNode {
    keys: Vec<QueueKey>,
    rem: Vec<f64>,
    p: Vec<f64>,
    sums: Vec<AggSums>,
}

impl FlatNode {
    fn clear(&mut self) {
        self.keys.clear();
        self.rem.clear();
        self.p.clear();
        self.sums.clear();
    }

    /// Index of `key`, or where it would insert.
    #[inline]
    fn find(&self, key: &QueueKey) -> Result<usize, usize> {
        self.keys.binary_search_by(|k| k.cmp(key))
    }

    /// Pre-size for `per_queue` simultaneous entries.
    fn reserve(&mut self, per_queue: usize) {
        self.keys.reserve(per_queue.saturating_sub(self.keys.len()));
        self.rem.reserve(per_queue.saturating_sub(self.rem.len()));
        self.p.reserve(per_queue.saturating_sub(self.p.len()));
        let blocks = per_queue.div_ceil(BLOCK);
        self.sums.reserve(blocks.saturating_sub(self.sums.len()));
    }

    /// Recompute the summary of block `b` from its entries, summing
    /// left to right — the canonical order every query also uses.
    // bct-lint: no_alloc
    fn rebuild_block(&mut self, b: usize) {
        let lo = b * BLOCK;
        let hi = (lo + BLOCK).min(self.keys.len());
        let mut s = AggSums::default();
        for i in lo..hi {
            s.add_raw(self.rem[i], self.p[i]);
        }
        self.sums[b] = s;
    }

    /// Resize the summary vector and recompute blocks `b0..` — every
    /// block whose entry window shifted under an insert/remove at an
    /// index inside block `b0`.
    fn rebuild_from(&mut self, b0: usize) {
        let nblocks = self.keys.len().div_ceil(BLOCK);
        self.sums.resize(nblocks, AggSums::default());
        for b in b0..nblocks {
            self.rebuild_block(b);
        }
    }
}

/// The engine's per-node queue aggregates: one [`FlatNode`] per tree
/// node.
#[derive(Debug, Default)]
pub(crate) struct AggStore {
    nodes: Vec<FlatNode>,
}

impl AggStore {
    /// Fresh aggregates over `num_nodes` queues (test convenience).
    #[cfg(test)]
    pub fn new(num_nodes: usize) -> AggStore {
        let mut agg = AggStore::default();
        agg.reset(num_nodes);
        agg
    }

    /// Clear all queues, keeping every buffer's capacity. Nodes beyond
    /// `num_nodes` from an earlier larger reset are kept (cleared) so
    /// their capacities survive alternating topologies.
    pub fn reset(&mut self, num_nodes: usize) {
        for n in &mut self.nodes {
            n.clear();
        }
        self.grow_nodes(num_nodes);
    }

    /// Extend to `num_nodes` queues without disturbing existing
    /// entries — called when a topology mutation adds nodes mid-run.
    /// Any allocation lands at the mutation event, never in the steady
    /// state between mutations.
    pub fn grow_nodes(&mut self, num_nodes: usize) {
        if self.nodes.len() < num_nodes {
            self.nodes.resize_with(num_nodes, FlatNode::default);
        }
    }

    /// Pre-size every queue for `per_queue` simultaneous entries — the
    /// worst-case occupancy of a single `Q_v` (all unfinished jobs).
    pub fn reserve(&mut self, per_queue: usize) {
        for n in &mut self.nodes {
            n.reserve(per_queue);
        }
    }

    /// Insert a job entering `Q_v` with full requirement `p` remaining.
    pub fn insert(&mut self, v: usize, key: QueueKey, p: f64) {
        let n = &mut self.nodes[v];
        let idx = match n.find(&key) {
            Err(i) => i,
            Ok(_) => {
                debug_assert!(false, "duplicate queue key (job ids are unique)");
                return;
            }
        };
        n.keys.insert(idx, key);
        n.rem.insert(idx, p);
        n.p.insert(idx, p);
        n.rebuild_from(idx / BLOCK);
    }

    /// Remove the entry with exactly `key` from `Q_v`.
    pub fn remove(&mut self, v: usize, key: &QueueKey) {
        let n = &mut self.nodes[v];
        let Ok(idx) = n.find(key) else {
            // bct-lint: allow(p1) -- an absent key is an engine bug; harness catch_unwind fault-isolates
            panic!("removing a job that is not in the queue");
        };
        n.keys.remove(idx);
        n.rem.remove(idx);
        n.p.remove(idx);
        n.rebuild_from(idx / BLOCK);
    }

    /// Update the stored remainder of the entry with `key` in `Q_v`.
    /// Only that entry's block summary is recomputed.
    // bct-lint: no_alloc
    pub fn set_rem(&mut self, v: usize, key: &QueueKey, rem: f64) {
        let n = &mut self.nodes[v];
        let Ok(idx) = n.find(key) else {
            // bct-lint: allow(p1) -- an absent key is an engine bug; harness catch_unwind fault-isolates
            panic!("updating a job that is not in the queue");
        };
        n.rem[idx] = rem;
        n.rebuild_block(idx / BLOCK);
    }

    /// Aggregates over all of `Q_v`: the block summaries left to right.
    // bct-lint: no_alloc
    pub fn totals(&self, v: usize) -> AggSums {
        let n = &self.nodes[v];
        let mut acc = AggSums::default();
        for s in &n.sums {
            acc.add(*s);
        }
        acc
    }

    /// Aggregates over entries with key strictly before `key`: whole
    /// blocks first, then the partial block entry by entry — all left
    /// to right.
    // bct-lint: no_alloc
    pub fn before(&self, v: usize, key: &QueueKey) -> AggSums {
        let n = &self.nodes[v];
        let idx = n.keys.partition_point(|k| k.cmp(key) == Ordering::Less);
        let full = idx / BLOCK;
        let mut acc = AggSums::default();
        for b in 0..full {
            acc.add(n.sums[b]);
        }
        for i in full * BLOCK..idx {
            acc.add_raw(n.rem[i], n.p[i]);
        }
        acc
    }

    /// Aggregates over entries with effective size strictly greater
    /// than `eff` (any release / id) — a key-order suffix. Summed
    /// directly (leading partial block entry by entry, then whole
    /// blocks), never as `totals − prefix`, so no cancellation error
    /// sneaks in.
    // bct-lint: no_alloc
    pub fn above_eff(&self, v: usize, eff: f64) -> AggSums {
        let n = &self.nodes[v];
        let len = n.keys.len();
        let start = n.keys.partition_point(|k| k.eff <= eff);
        let first_full = start.div_ceil(BLOCK);
        let mut acc = AggSums::default();
        for i in start..(first_full * BLOCK).min(len) {
            acc.add_raw(n.rem[i], n.p[i]);
        }
        for b in first_full..n.sums.len() {
            acc.add(n.sums[b]);
        }
        acc
    }
}

/// The order-statistic treap (arena, `u32` links, free list,
/// deterministic xorshift priorities) the flat store replaced, kept as
/// the oracle the store's tests compare against. It sums in tree order,
/// so it agrees with the store bit for bit only on dyadic sizes.
#[cfg(test)]
mod treap {
    use super::{AggSums, QueueKey};
    use std::cmp::Ordering;

    /// Sentinel for "no child" / "empty tree".
    const NIL: u32 = u32::MAX;

    #[derive(Clone, Debug)]
    pub(super) struct Entry {
        key: QueueKey,
        prio: u64,
        left: u32,
        right: u32,
        /// Remaining work of this job at this node (stored value).
        rem: f64,
        /// Full requirement `p_{j,v}`, for the fractional remainder.
        p: f64,
        /// Subtree aggregates (including this entry).
        sums: AggSums,
    }

    /// Seed of the deterministic priority stream; reset to this on every
    /// [`QueueAggregates::reset`] so a reset treap takes the shapes of a
    /// fresh one.
    const PRIO_SEED: u64 = 0x853C_49E6_748F_EA9B;

    /// One treap per tree node, all sharing an arena.
    #[derive(Debug, Default)]
    pub(super) struct QueueAggregates {
        pub(super) entries: Vec<Entry>,
        free: Vec<u32>,
        roots: Vec<u32>,
        rng: u64,
        /// Scratch stacks for the iterative treap walks (descent path /
        /// merge path); cleared per operation, capacity reused.
        path: Vec<u32>,
        path2: Vec<u32>,
    }

    impl QueueAggregates {
        /// Fresh aggregates over `num_nodes` queues.
        pub fn new(num_nodes: usize) -> QueueAggregates {
            let mut agg = QueueAggregates::default();
            agg.reset(num_nodes);
            agg
        }

        /// Clear all queues and re-seed the priority stream, keeping every
        /// buffer's capacity. A reset aggregate is indistinguishable from a
        /// freshly constructed one — including treap shapes, which depend on
        /// the priority stream position.
        pub fn reset(&mut self, num_nodes: usize) {
            self.entries.clear();
            self.free.clear();
            self.roots.clear();
            self.roots.resize(num_nodes, NIL);
            self.rng = PRIO_SEED;
        }

        fn next_prio(&mut self) -> u64 {
            // xorshift64: full-period, deterministic, plenty for treap shape.
            let mut x = self.rng;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.rng = x;
            x
        }

        fn alloc(&mut self, key: QueueKey, rem: f64, p: f64) -> u32 {
            let prio = self.next_prio();
            self.alloc_with_prio(key, rem, p, prio)
        }

        fn alloc_with_prio(&mut self, key: QueueKey, rem: f64, p: f64, prio: u64) -> u32 {
            let entry = Entry {
                key,
                prio,
                left: NIL,
                right: NIL,
                rem,
                p,
                sums: AggSums {
                    cnt: 1,
                    sum_rem: rem,
                    sum_frac: rem / p,
                },
            };
            match self.free.pop() {
                Some(i) => {
                    self.entries[i as usize] = entry;
                    i
                }
                None => {
                    self.entries.push(entry);
                    (self.entries.len() - 1) as u32
                }
            }
        }

        /// Recompute `t`'s subtree sums from its children and own values.
        /// Sums are rebuilt (not delta-adjusted), so float error never
        /// accumulates across updates.
        fn pull(&mut self, t: u32) {
            let (l, r) = (self.entries[t as usize].left, self.entries[t as usize].right);
            let mut sums = AggSums {
                cnt: 1,
                sum_rem: self.entries[t as usize].rem,
                sum_frac: self.entries[t as usize].rem / self.entries[t as usize].p,
            };
            for c in [l, r] {
                if c != NIL {
                    let cs = self.entries[c as usize].sums;
                    sums.cnt += cs.cnt;
                    sums.sum_rem += cs.sum_rem;
                    sums.sum_frac += cs.sum_frac;
                }
            }
            self.entries[t as usize].sums = sums;
        }

        /// Split into (keys < `key`, keys ≥ `key`). Iterative — treap depth
        /// is unbounded in the worst case, so no walk here may recurse.
        fn split_lt(&mut self, t: u32, key: &QueueKey) -> (u32, u32) {
            let (mut lroot, mut rroot) = (NIL, NIL);
            // Nodes whose right (resp. left) child slot awaits the next
            // piece of the left (resp. right) split.
            let (mut lhook, mut rhook) = (NIL, NIL);
            self.path.clear();
            let mut t = t;
            while t != NIL {
                self.path.push(t);
                if self.entries[t as usize].key.cmp(key) == Ordering::Less {
                    if lhook == NIL {
                        lroot = t;
                    } else {
                        self.entries[lhook as usize].right = t;
                    }
                    lhook = t;
                    t = self.entries[t as usize].right;
                } else {
                    if rhook == NIL {
                        rroot = t;
                    } else {
                        self.entries[rhook as usize].left = t;
                    }
                    rhook = t;
                    t = self.entries[t as usize].left;
                }
            }
            if lhook != NIL {
                self.entries[lhook as usize].right = NIL;
            }
            if rhook != NIL {
                self.entries[rhook as usize].left = NIL;
            }
            // The descent path lists each modified node before its altered
            // child, so pulling in reverse rebuilds sums bottom-up.
            for i in (0..self.path.len()).rev() {
                let u = self.path[i];
                self.pull(u);
            }
            (lroot, rroot)
        }

        /// Iterative top-down merge; same priority tie-break (`a` wins on
        /// equal priorities) as the textbook recursive form.
        fn merge(&mut self, a: u32, b: u32) -> u32 {
            if a == NIL {
                return b;
            }
            if b == NIL {
                return a;
            }
            let (mut a, mut b) = (a, b);
            let mut root = NIL;
            // Node whose child slot (right if `hook_right`) awaits the rest.
            let mut hook = NIL;
            let mut hook_right = false;
            self.path2.clear();
            loop {
                if a == NIL || b == NIL {
                    let rest = if a == NIL { b } else { a };
                    if hook == NIL {
                        root = rest;
                    } else if hook_right {
                        self.entries[hook as usize].right = rest;
                    } else {
                        self.entries[hook as usize].left = rest;
                    }
                    break;
                }
                let take_a = self.entries[a as usize].prio >= self.entries[b as usize].prio;
                let t = if take_a { a } else { b };
                if hook == NIL {
                    root = t;
                } else if hook_right {
                    self.entries[hook as usize].right = t;
                } else {
                    self.entries[hook as usize].left = t;
                }
                hook = t;
                hook_right = take_a;
                self.path2.push(t);
                if take_a {
                    a = self.entries[t as usize].right;
                } else {
                    b = self.entries[t as usize].left;
                }
            }
            for i in (0..self.path2.len()).rev() {
                let u = self.path2[i];
                self.pull(u);
            }
            root
        }

        /// Insert a job entering `Q_v` with full requirement `p` remaining.
        pub fn insert(&mut self, v: usize, key: QueueKey, p: f64) {
            let idx = self.alloc(key, p, p);
            let (a, b) = self.split_lt(self.roots[v], &key);
            let ab = self.merge(a, idx);
            self.roots[v] = self.merge(ab, b);
        }

        /// Test-only insert with a forced priority, so tests can build
        /// degenerate path-shaped treaps far deeper than the random stream
        /// would ever produce.
        #[cfg(test)]
        pub(super) fn insert_with_prio(&mut self, v: usize, key: QueueKey, p: f64, prio: u64) {
            let idx = self.alloc_with_prio(key, p, p, prio);
            let (a, b) = self.split_lt(self.roots[v], &key);
            let ab = self.merge(a, idx);
            self.roots[v] = self.merge(ab, b);
        }

        /// Remove the entry with exactly `key` from `Q_v`. Iterative:
        /// descend to the entry, merge its children into its slot, rebuild
        /// sums along the descent.
        pub fn remove(&mut self, v: usize, key: &QueueKey) {
            let mut t = self.roots[v];
            self.path.clear();
            loop {
                assert!(t != NIL, "removing a job that is not in the queue");
                match key.cmp(&self.entries[t as usize].key) {
                    Ordering::Less => {
                        self.path.push(t);
                        t = self.entries[t as usize].left;
                    }
                    Ordering::Greater => {
                        self.path.push(t);
                        t = self.entries[t as usize].right;
                    }
                    Ordering::Equal => break,
                }
            }
            let (l, r) = (self.entries[t as usize].left, self.entries[t as usize].right);
            self.free.push(t);
            let merged = self.merge(l, r); // uses `path2`, leaves `path` intact
            match self.path.last() {
                None => self.roots[v] = merged,
                Some(&parent) => {
                    if self.entries[parent as usize].left == t {
                        self.entries[parent as usize].left = merged;
                    } else {
                        self.entries[parent as usize].right = merged;
                    }
                }
            }
            for i in (0..self.path.len()).rev() {
                let u = self.path[i];
                self.pull(u);
            }
        }

        /// Update the stored remainder of the entry with `key` in `Q_v`.
        /// The search path lives in a growable scratch stack — a fixed-size
        /// array here once made deep treaps an out-of-bounds panic.
        pub fn set_rem(&mut self, v: usize, key: &QueueKey, rem: f64) {
            let mut t = self.roots[v];
            // Collect the search path, then rebuild sums bottom-up.
            self.path.clear();
            loop {
                assert!(t != NIL, "updating a job that is not in the queue");
                self.path.push(t);
                match key.cmp(&self.entries[t as usize].key) {
                    Ordering::Less => t = self.entries[t as usize].left,
                    Ordering::Greater => t = self.entries[t as usize].right,
                    Ordering::Equal => break,
                }
            }
            self.entries[t as usize].rem = rem;
            for i in (0..self.path.len()).rev() {
                let u = self.path[i];
                self.pull(u);
            }
        }

        /// Aggregates over all of `Q_v`.
        pub fn totals(&self, v: usize) -> AggSums {
            let t = self.roots[v];
            if t == NIL {
                AggSums::default()
            } else {
                self.entries[t as usize].sums
            }
        }

        /// Aggregates over entries with key strictly before `key`.
        pub fn before(&self, v: usize, key: &QueueKey) -> AggSums {
            let mut acc = AggSums::default();
            let mut t = self.roots[v];
            while t != NIL {
                let e = &self.entries[t as usize];
                if e.key.cmp(key) == Ordering::Less {
                    if e.left != NIL {
                        acc.add(self.entries[e.left as usize].sums);
                    }
                    acc.add_raw(e.rem, e.p);
                    t = e.right;
                } else {
                    t = e.left;
                }
            }
            acc
        }

        /// Aggregates over entries with effective size strictly greater than
        /// `eff` (any release / id). Summed directly over the suffix — not
        /// as `totals − prefix` — so no cancellation error sneaks in.
        pub fn above_eff(&self, v: usize, eff: f64) -> AggSums {
            let mut acc = AggSums::default();
            let mut t = self.roots[v];
            while t != NIL {
                let e = &self.entries[t as usize];
                if e.key.eff > eff {
                    if e.right != NIL {
                        acc.add(self.entries[e.right as usize].sums);
                    }
                    acc.add_raw(e.rem, e.p);
                    t = e.left;
                } else {
                    t = e.right;
                }
            }
            acc
        }
    }
}

#[cfg(test)]
mod tests {
    use super::treap::QueueAggregates;
    use super::*;

    fn key(eff: f64, id: u32) -> QueueKey {
        QueueKey {
            eff,
            release: 0.0,
            id,
        }
    }

    /// Brute-force mirror of one node's queue.
    #[derive(Default)]
    struct Mirror(Vec<(QueueKey, f64, f64)>);

    impl Mirror {
        fn before(&self, k: &QueueKey) -> AggSums {
            self.sums(|e| e.cmp(k) == Ordering::Less)
        }
        fn above(&self, eff: f64) -> AggSums {
            self.sums(|e| e.eff > eff)
        }
        fn sums(&self, f: impl Fn(&QueueKey) -> bool) -> AggSums {
            let mut s = AggSums::default();
            for (k, rem, p) in &self.0 {
                if f(k) {
                    s.cnt += 1;
                    s.sum_rem += rem;
                    s.sum_frac += rem / p;
                }
            }
            s
        }
    }

    #[test]
    fn insert_query_remove_match_brute_force() {
        let mut agg = QueueAggregates::new(1);
        let mut mir = Mirror::default();
        // Deterministic pseudo-random workload of dyadic sizes (exact
        // float sums in any association order).
        let mut x = 7u64;
        let mut step = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut live: Vec<QueueKey> = Vec::new();
        for i in 0..400u32 {
            let op = step() % 3;
            if op < 2 || live.is_empty() {
                // Power-of-two sizes keep rem/p dyadic, so float sums
                // are exact in any association order.
                let p = f64::powi(2.0, (step() % 4) as i32);
                let k = key(((step() % 8) as f64) * 0.5, i);
                agg.insert(0, k, p);
                mir.0.push((k, p, p));
                live.push(k);
            } else {
                let idx = (step() as usize) % live.len();
                let k = live.swap_remove(idx);
                agg.remove(0, &k);
                let pos = mir.0.iter().position(|(mk, _, _)| *mk == k).unwrap();
                mir.0.swap_remove(pos);
            }
            // Occasionally shrink a stored remainder.
            if !live.is_empty() && step() % 4 == 0 {
                let k = live[(step() as usize) % live.len()];
                let e = mir.0.iter_mut().find(|(mk, _, _)| *mk == k).unwrap();
                e.1 = (e.1 - 0.25).max(0.0);
                agg.set_rem(0, &k, e.1);
            }
            let probe = key(((step() % 8) as f64) * 0.5, step() as u32 % 500);
            assert_eq!(agg.before(0, &probe), mir.before(&probe), "step {i}");
            assert_eq!(agg.above_eff(0, probe.eff), mir.above(probe.eff), "step {i}");
            assert_eq!(agg.totals(0), mir.sums(|_| true), "step {i}");
        }
    }

    #[test]
    fn empty_queue_yields_zero() {
        let agg = QueueAggregates::new(3);
        assert_eq!(agg.totals(2), AggSums::default());
        assert_eq!(agg.before(2, &key(1.0, 0)), AggSums::default());
    }

    #[test]
    #[should_panic(expected = "not in the queue")]
    fn removing_missing_entry_panics() {
        let mut agg = QueueAggregates::new(1);
        agg.insert(0, key(1.0, 0), 1.0);
        agg.remove(0, &key(2.0, 1));
    }

    #[test]
    fn deep_path_treap_survives_all_operations() {
        // Strictly descending priorities by key order force a pure right
        // spine — depth == n. With the old fixed [NIL; 64] search-path
        // array, set_rem beyond depth 64 was an out-of-bounds panic, and
        // recursive split/merge/remove risked stack overflow.
        const N: u32 = 3000;
        let mut agg = QueueAggregates::new(1);
        for i in 0..N {
            agg.insert_with_prio(0, key(i as f64, i), 2.0, u64::MAX - i as u64);
        }
        assert_eq!(agg.totals(0).cnt, N);
        // Touch the deepest entry.
        agg.set_rem(0, &key((N - 1) as f64, N - 1), 0.5);
        assert_eq!(agg.totals(0).sum_rem, 2.0 * (N - 1) as f64 + 0.5);
        // Split the spine near the bottom (insert lands deep).
        agg.insert_with_prio(0, key((N - 1) as f64 - 0.5, N), 4.0, 0);
        assert_eq!(agg.before(0, &key((N - 1) as f64, N - 1)).cnt, N);
        // Remove from the deep end, then the shallow end.
        agg.remove(0, &key((N - 1) as f64, N - 1));
        agg.remove(0, &key(0.0, 0));
        assert_eq!(agg.totals(0).cnt, N - 1);
    }

    #[test]
    fn reset_matches_fresh_construction() {
        let mut used = QueueAggregates::new(2);
        for i in 0..100 {
            used.insert(0, key((i % 7) as f64, i), 1.0);
            used.insert(1, key((i % 3) as f64, i), 2.0);
        }
        for i in 0..50 {
            used.remove(0, &key((i % 7) as f64, i));
        }
        used.reset(2);
        let mut fresh = QueueAggregates::new(2);
        // Same operation sequence after reset must produce identical
        // queries — the priority stream restarts, so treap shapes (and
        // thus float summation order) match a fresh aggregate exactly.
        for agg in [&mut used, &mut fresh] {
            for i in 0..200 {
                agg.insert(0, key((i % 13) as f64, i), f64::from(i + 1));
            }
            for i in (0..200).step_by(3) {
                agg.remove(0, &key((i % 13) as f64, i));
            }
        }
        for probe in 0..13 {
            let k = key(probe as f64, 1000);
            assert_eq!(used.before(0, &k), fresh.before(0, &k));
            assert_eq!(used.above_eff(0, probe as f64), fresh.above_eff(0, probe as f64));
        }
        assert_eq!(used.totals(0), fresh.totals(0));
    }

    #[test]
    fn flat_empty_queue_yields_zero() {
        let agg = AggStore::new(3);
        assert_eq!(agg.totals(2), AggSums::default());
        assert_eq!(agg.before(2, &key(1.0, 0)), AggSums::default());
        assert_eq!(agg.above_eff(2, 0.0), AggSums::default());
    }

    #[test]
    #[should_panic(expected = "not in the queue")]
    fn flat_removing_missing_entry_panics() {
        let mut agg = AggStore::new(1);
        agg.insert(0, key(1.0, 0), 1.0);
        agg.remove(0, &key(2.0, 1));
    }

    #[test]
    #[should_panic(expected = "not in the queue")]
    fn flat_updating_missing_entry_panics() {
        let mut agg = AggStore::new(1);
        agg.set_rem(0, &key(1.0, 0), 0.5);
    }

    /// Exercise every block-boundary case: queue sizes spanning one
    /// block, exactly one block, and multiple blocks, with inserts and
    /// removals landing in first/middle/last blocks.
    #[test]
    fn flat_block_boundaries_match_brute_force() {
        for n in [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK, 3 * BLOCK + 7] {
            let mut agg = AggStore::new(1);
            let mut mir = Mirror::default();
            for i in 0..n as u32 {
                let p = f64::powi(2.0, (i % 4) as i32);
                let k = key(((i * 7) % 16) as f64 * 0.5, i);
                agg.insert(0, k, p);
                mir.0.push((k, p, p));
            }
            // Remove from the front, middle, and back blocks.
            for victim in [0u32, (n as u32) / 2, n as u32 - 1] {
                if let Some(pos) = mir.0.iter().position(|(k, _, _)| k.id == victim) {
                    let (k, _, _) = mir.0.swap_remove(pos);
                    agg.remove(0, &k);
                }
            }
            for probe_eff in 0..17 {
                let probe = key(probe_eff as f64 * 0.5, u32::MAX);
                assert_eq!(agg.before(0, &probe), mir.before(&probe), "n={n}");
                assert_eq!(agg.above_eff(0, probe.eff), mir.above(probe.eff), "n={n}");
            }
            assert_eq!(agg.totals(0), mir.sums(|_| true), "n={n}");
        }
    }

    /// The engine contract test: [`AggStore`] and the treap oracle, fed
    /// the identical operation stream, answer every query bit-exactly
    /// the same on dyadic sizes (where float sums are association-free,
    /// so their different summation orders cannot diverge).
    #[test]
    fn store_layouts_agree_bit_exactly_on_dyadic_stream() {
        let mut flat = AggStore::new(2);
        let mut treap = QueueAggregates::new(2);
        let mut x = 99u64;
        let mut step = || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            x >> 33
        };
        let mut live: Vec<Vec<(QueueKey, f64)>> = vec![Vec::new(); 2];
        for i in 0..600u32 {
            let v = (step() % 2) as usize;
            match step() % 4 {
                0 | 1 => {
                    let p = f64::powi(2.0, (step() % 5) as i32 - 2);
                    let k = QueueKey {
                        eff: (step() % 8) as f64 * 0.5,
                        release: (step() % 4) as f64 * 0.25,
                        id: i,
                    };
                    flat.insert(v, k, p);
                    treap.insert(v, k, p);
                    live[v].push((k, p));
                }
                2 if !live[v].is_empty() => {
                    let idx = (step() as usize) % live[v].len();
                    let (k, _) = live[v].swap_remove(idx);
                    flat.remove(v, &k);
                    treap.remove(v, &k);
                }
                _ if !live[v].is_empty() => {
                    // Materialization: shrink a stored remainder to a
                    // dyadic fraction of p.
                    let idx = (step() as usize) % live[v].len();
                    let (k, p) = live[v][idx];
                    let rem = p * 0.25 * (step() % 5) as f64;
                    flat.set_rem(v, &k, rem);
                    treap.set_rem(v, &k, rem);
                }
                _ => {}
            }
            for q in 0..2 {
                let probe = QueueKey {
                    eff: (step() % 8) as f64 * 0.5,
                    release: (step() % 4) as f64 * 0.25,
                    id: step() as u32 % 700,
                };
                assert_eq!(flat.totals(q), treap.totals(q), "step {i}");
                assert_eq!(flat.before(q, &probe), treap.before(q, &probe), "step {i}");
                assert_eq!(
                    flat.above_eff(q, probe.eff),
                    treap.above_eff(q, probe.eff),
                    "step {i}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        /// Proptest-driven version of the dyadic agreement contract:
        /// seeded random admit/materialize/remove interleavings over
        /// two queues, flat vs treap, every query bit-exact after
        /// every op.
        #[test]
        fn flat_matches_treap_on_proptest_interleavings(seed in 0u64..1_000_000) {
            let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
            let mut step = move || {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                x >> 33
            };
            let mut flat = AggStore::new(2);
            let mut treap = QueueAggregates::new(2);
            let mut live: Vec<Vec<(QueueKey, f64)>> = vec![Vec::new(); 2];
            let n_ops = 20 + (step() % 180) as u32;
            for i in 0..n_ops {
                let v = (step() % 2) as usize;
                match step() % 4 {
                    0 | 1 => {
                        let p = f64::powi(2.0, (step() % 5) as i32 - 2);
                        let k = QueueKey {
                            eff: (step() % 8) as f64 * 0.5,
                            release: (step() % 4) as f64 * 0.25,
                            id: i,
                        };
                        flat.insert(v, k, p);
                        treap.insert(v, k, p);
                        live[v].push((k, p));
                    }
                    2 if !live[v].is_empty() => {
                        let idx = (step() as usize) % live[v].len();
                        let (k, _) = live[v].swap_remove(idx);
                        flat.remove(v, &k);
                        treap.remove(v, &k);
                    }
                    _ if !live[v].is_empty() => {
                        let idx = (step() as usize) % live[v].len();
                        let (k, p) = live[v][idx];
                        let rem = p * 0.25 * (step() % 5) as f64;
                        flat.set_rem(v, &k, rem);
                        treap.set_rem(v, &k, rem);
                    }
                    _ => {}
                }
                let probe = QueueKey {
                    eff: (step() % 8) as f64 * 0.5,
                    release: (step() % 4) as f64 * 0.25,
                    id: step() as u32 % 500,
                };
                for q in 0..2 {
                    proptest::prop_assert_eq!(flat.totals(q), treap.totals(q));
                    proptest::prop_assert_eq!(flat.before(q, &probe), treap.before(q, &probe));
                    proptest::prop_assert_eq!(
                        flat.above_eff(q, probe.eff),
                        treap.above_eff(q, probe.eff)
                    );
                }
            }
        }
    }

    #[test]
    fn flat_reset_matches_fresh_construction() {
        let mut used = AggStore::new(2);
        for i in 0..100 {
            used.insert(0, key((i % 7) as f64, i), 2.0);
        }
        for i in 0..50 {
            used.remove(0, &key((i % 7) as f64, i));
        }
        used.reset(2);
        let mut fresh = AggStore::new(2);
        for agg in [&mut used, &mut fresh] {
            for i in 0..200 {
                agg.insert(0, key((i % 13) as f64, i), f64::powi(2.0, (i % 3) as i32));
            }
            for i in (0..200).step_by(3) {
                agg.remove(0, &key((i % 13) as f64, i));
            }
        }
        for probe in 0..13 {
            let k = key(probe as f64, 1000);
            assert_eq!(used.before(0, &k), fresh.before(0, &k));
            assert_eq!(used.above_eff(0, probe as f64), fresh.above_eff(0, probe as f64));
        }
        assert_eq!(used.totals(0), fresh.totals(0));
    }

    #[test]
    fn arena_reuses_freed_slots() {
        let mut agg = QueueAggregates::new(1);
        for i in 0..10 {
            agg.insert(0, key(1.0, i), 1.0);
        }
        for i in 0..10 {
            agg.remove(0, &key(1.0, i));
        }
        for i in 10..20 {
            agg.insert(0, key(1.0, i), 1.0);
        }
        assert_eq!(agg.entries.len(), 10, "slots recycled, not regrown");
        assert_eq!(agg.totals(0).cnt, 10);
    }
}
