//! The traced run's span recorder and the wrappers that time calls into
//! each layer from outside.
//!
//! Coarse calls (one simulation run, one sweep cell's bound, one journal
//! append) are spans: name, start, end and parent, kept in memory and
//! written out when the run ends. Hot callbacks (the per-node priority
//! key, the leaf assignment) are too frequent for one span each; their
//! wrappers count every call, time a fixed sample of them, and hand the
//! totals to the span that encloses them when it closes.
//!
//! A layer's self time is its duration minus its children's. Every
//! duration has the clock reads that measured it subtracted, and work
//! done only to measure (probe queries on a live view) is subtracted
//! from its parent too, so the self times of one traced pass add up to
//! the untraced wall time of the same work. The attribution check tests
//! exactly that. Since each child's time leaves its parent's self time,
//! the sum cannot show time booked to the wrong layer; a second check
//! does: a child that overdraws its parent (a wrapper's extrapolated
//! estimate above the span it ran in) leaves the parent a negative self
//! time.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

use bct_core::{JobId, NodeId};
use bct_sim::{KeyCtx, NodePolicy, PolicyKey, SimView, StatefulPolicy};

/// Totals for one layer name across a traced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    /// Calls made into the layer.
    pub calls: u64,
    /// Time inside the layer, children included, measurement excluded.
    pub total_ns: f64,
    /// Time inside the layer minus its children.
    pub self_ns: f64,
}

/// Aggregated timings from a hot-callback wrapper.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hot {
    /// Layer the calls belong to.
    pub name: &'static str,
    /// Every call made.
    pub calls: u64,
    /// Estimated time in the callee over all calls (clock cost removed).
    pub ns: f64,
    /// Time the wrapper itself spent reading the clock.
    pub overhead_ns: f64,
}

struct Open {
    name: &'static str,
    id: usize,
    start: Instant,
    child_ns: f64,
}

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    /// Cost of one clock read, subtracted from every measured interval.
    pub clock_ns: f64,
    stack: Vec<Open>,
    spans: Vec<Span>,
    layers: BTreeMap<&'static str, Layer>,
}

impl Tracer {
    /// A recorder that subtracts `clock_ns` per clock read.
    pub fn new(clock_ns: f64) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            clock_ns,
            stack: Vec::new(),
            spans: Vec::new(),
            layers: BTreeMap::new(),
        }
    }

    /// Open a span named after the layer being called.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len();
        let parent = self.stack.last().map(|o| o.id);
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
        });
        let start = Instant::now();
        self.spans[id].start_ns = (start - self.epoch).as_nanos() as u64;
        self.stack.push(Open {
            name,
            id,
            start,
            child_ns: 0.0,
        });
    }

    /// Close the innermost span. `hot` are the wrapper totals gathered
    /// inside it (children of this span); `measured_ns` is time spent
    /// inside it on measurement only, removed from every layer. Returns
    /// the span's duration net of measurement.
    pub fn exit(&mut self, hot: &[Hot], measured_ns: f64) -> f64 {
        let end = Instant::now();
        let open = self.stack.pop().expect("exit matches an enter");
        let raw = (end - open.start).as_nanos() as f64;
        self.spans[open.id].end_ns = (end - self.epoch).as_nanos() as u64;
        let overhead: f64 = hot.iter().map(|h| h.overhead_ns).sum::<f64>() + measured_ns;
        let children: f64 = open.child_ns + hot.iter().map(|h| h.ns).sum::<f64>();
        let total = (raw - self.clock_ns - overhead).max(0.0);
        for h in hot {
            let l = self.layers.entry(h.name).or_default();
            l.calls += h.calls;
            l.total_ns += h.ns;
            l.self_ns += h.ns;
        }
        let l = self.layers.entry(open.name).or_default();
        l.calls += 1;
        l.total_ns += total;
        l.self_ns += total - children;
        if let Some(parent) = self.stack.last_mut() {
            // The child's whole footprint, its two clock reads included,
            // leaves the parent's self time.
            parent.child_ns += raw + self.clock_ns;
        }
        total
    }

    /// Book one call into `name` that the caller timed itself, its two
    /// clock reads included, as a layer of its own with no parent. It is
    /// counted in the layer totals but not written as a span.
    pub fn record(&mut self, name: &'static str, raw_ns: f64) {
        let total = (raw_ns - self.clock_ns).max(0.0);
        let l = self.layers.entry(name).or_default();
        l.calls += 1;
        l.total_ns += total;
        l.self_ns += total;
    }

    /// Layers whose self time is negative or above their total time,
    /// i.e. whose children were booked more time than the layer had.
    pub fn overdrawn(&self) -> Vec<(&'static str, Layer)> {
        self.layers
            .iter()
            .filter(|(_, l)| !(l.self_ns >= 0.0 && l.self_ns <= l.total_ns))
            .map(|(&name, &l)| (name, l))
            .collect()
    }

    /// Time one call as a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit(&[], 0.0);
        r
    }

    /// Totals for `name` (zero if never entered).
    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Sum of every layer's self time.
    pub fn self_total_ns(&self) -> f64 {
        self.layers.values().map(|l| l.self_ns).sum()
    }

    /// Write the spans (one JSON object a line) and the per-layer totals.
    pub fn write(&self, path: &std::path::Path, header: &str) -> Result<(), String> {
        let f = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut w = std::io::BufWriter::new(f);
        let io = |e: std::io::Error| format!("{}: {e}", path.display());
        writeln!(w, "{header}").map_err(io)?;
        for (name, l) in &self.layers {
            writeln!(
                w,
                "{{\"layer\": \"{name}\", \"calls\": {}, \"total_ns\": {:.0}, \"self_ns\": {:.0}}}",
                l.calls, l.total_ns, l.self_ns
            )
            .map_err(io)?;
        }
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )
            .map_err(io)?;
        }
        w.flush().map_err(io)
    }
}

/// Counts every call and times one in `every` (a power of two).
pub struct Sampler {
    name: &'static str,
    mask: u64,
    clock_ns: f64,
    calls: Cell<u64>,
    timed: Cell<u64>,
    ns: Cell<f64>,
}

impl Sampler {
    /// A sampler for layer `name` timing one call in `every`.
    pub fn new(name: &'static str, every: u64, clock_ns: f64) -> Sampler {
        assert!(
            every.is_power_of_two(),
            "sample period must be a power of two"
        );
        Sampler {
            name,
            mask: every - 1,
            clock_ns,
            calls: Cell::new(0),
            timed: Cell::new(0),
            ns: Cell::new(0.0),
        }
    }

    /// Run `f`, timing it if this call is in the sample.
    #[inline]
    pub fn call<R>(&self, f: impl FnOnce() -> R) -> R {
        let n = self.calls.get() + 1;
        self.calls.set(n);
        if n & self.mask != 0 {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as f64 - self.clock_ns;
        self.ns.set(self.ns.get() + ns.max(0.0));
        self.timed.set(self.timed.get() + 1);
        r
    }

    /// Totals since the last take, extrapolated from the sample; resets.
    pub fn take(&self) -> Hot {
        let (calls, timed, ns) = (self.calls.get(), self.timed.get(), self.ns.get());
        self.calls.set(0);
        self.timed.set(0);
        self.ns.set(0.0);
        let est = if timed > 0 {
            ns / timed as f64 * calls as f64
        } else {
            0.0
        };
        Hot {
            name: self.name,
            calls,
            ns: est,
            overhead_ns: timed as f64 * 2.0 * self.clock_ns,
        }
    }
}

/// Counts every [`NodePolicy::key`] call into the wrapped policy and
/// times a sample of them. Generic, so a concrete policy stays inlined.
pub struct TimedNode<'a, N: NodePolicy + ?Sized> {
    inner: &'a N,
    /// Call counts and sampled time.
    pub sampler: Sampler,
}

impl<'a, N: NodePolicy + ?Sized> TimedNode<'a, N> {
    /// Wrap `inner`; one key call in `every` is timed.
    pub fn new(inner: &'a N, every: u64, clock_ns: f64) -> TimedNode<'a, N> {
        TimedNode {
            inner,
            sampler: Sampler::new("policies.node.key", every, clock_ns),
        }
    }
}

impl<N: NodePolicy + ?Sized> NodePolicy for TimedNode<'_, N> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
        self.sampler.call(|| self.inner.key(ctx))
    }
}

/// Counts every [`StatefulPolicy::assign`] call and times a sample of
/// them; every other hook is passed through untouched so the schedule
/// cannot change.
pub struct TimedAssign<'a, A: StatefulPolicy + ?Sized> {
    inner: &'a mut A,
    /// Call counts and sampled time.
    pub sampler: Sampler,
}

impl<'a, A: StatefulPolicy + ?Sized> TimedAssign<'a, A> {
    /// Wrap `inner`; one assignment in `every` is timed.
    pub fn new(inner: &'a mut A, every: u64, clock_ns: f64) -> TimedAssign<'a, A> {
        TimedAssign {
            inner,
            sampler: Sampler::new("policies.assign", every, clock_ns),
        }
    }
}

impl<A: StatefulPolicy + ?Sized> StatefulPolicy for TimedAssign<'_, A> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
        let inner = &mut *self.inner;
        self.sampler.call(|| inner.assign(view, job))
    }

    fn needs_aggregates(&self) -> bool {
        self.inner.needs_aggregates()
    }

    fn on_complete(&mut self, view: &SimView<'_>, job: JobId, leaf: NodeId) {
        self.inner.on_complete(view, job, leaf)
    }

    fn on_drain(&mut self, view: &SimView<'_>, job: JobId, old_leaf: NodeId) {
        self.inner.on_drain(view, job, old_leaf)
    }

    fn on_topo(&mut self, view: &SimView<'_>) {
        self.inner.on_topo(view)
    }

    fn state_digest(&self) -> u64 {
        self.inner.state_digest()
    }
}
