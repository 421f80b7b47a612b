//! Online dispatch sessions: the run loop of [`Simulation::run`], cut at the
//! command boundary.
//!
//! [`crate::Simulation`] consumes a complete [`Instance`] and runs it to
//! quiescence. A [`SimSession`] instead *owns* a growing instance and
//! advances the very same state machine one command at a time — submit
//! a job, apply a topology mutation, advance the clock — so a network
//! service (bct-serve) can drive the simulator from a socket while
//! keeping every determinism guarantee the run loop has.
//!
//! Under `#![forbid(unsafe_code)]` a self-referential "state that owns
//! its instance" is impossible, so the session uses a
//! **resume/suspend** cycle instead: between commands the state lives
//! disassembled in a [`SimScratch`] plus a small scalar record; each
//! command reassembles a transient [`crate::state::SimState`] borrowing
//! the instance (`mem::take` per buffer — no copying, no allocation),
//! does its work through the engine's own shared helpers
//! ([`Simulation::handle_finish`], [`Simulation::offer`],
//! [`Simulation::apply_topo`]), and disassembles again. Feeding a
//! session the commands of a whole run reproduces its schedule
//! exactly; the differential test below pins that.
//!
//! Event-ordering contract, matching the run loop at every shared
//! point: commands execute in arrival order at non-decreasing times;
//! within one command, pending hop completions at times `≤ t` are
//! drained (completions before arrivals at equal times) before the
//! command's own effect. A mutation command applies at the session's
//! current time, after any completions already drained — the one
//! (documented) divergence from whole runs, where a mutation scheduled
//! at `t` precedes completions at `t`.

use crate::engine::{SimError, Simulation};
use crate::evq::{EventQueue, EventQueueKind, FinishEv};
use crate::policy::{NodePolicy, StatefulPolicy};
use crate::scratch::SimScratch;
use crate::state::{SavedScalars, SimState};
use bct_core::{
    ClassRounding, CoreError, Instance, JobId, NodeId, SpeedProfile, Time, Tree, TreeMutation,
};
use crate::agg::AggLayout;
use std::fmt;

/// Configuration for an online session — the subset of [`crate::SimConfig`]
/// that makes sense without a pre-known job list or mutation schedule.
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Per-node speeds. [`SpeedProfile::Explicit`] is rejected: a
    /// mutation may add nodes the table cannot cover.
    pub speeds: SpeedProfile,
    /// Class rounding the queue aggregates are keyed by.
    pub dispatch_rounding: Option<ClassRounding>,
    /// Pending-event queue implementation.
    pub event_queue: EventQueueKind,
    /// Queue-aggregate layout.
    pub aggregates: AggLayout,
    /// Whether to maintain the per-node queue aggregates (needed only
    /// when the assignment policy or an observer queries them).
    pub track_aggs: bool,
}

impl SessionConfig {
    /// Given speeds; defaults for everything else (raw-size keys,
    /// calendar queue, flat aggregates, aggregates maintained).
    pub fn new(speeds: SpeedProfile) -> SessionConfig {
        SessionConfig {
            speeds,
            dispatch_rounding: None,
            event_queue: EventQueueKind::default(),
            aggregates: AggLayout::default(),
            track_aggs: true,
        }
    }

    /// Unit speeds everywhere.
    pub fn unit() -> SessionConfig {
        SessionConfig::new(SpeedProfile::unit())
    }

    /// Set whether queue aggregates are maintained.
    pub fn with_aggregate_tracking(mut self, track: bool) -> SessionConfig {
        self.track_aggs = track;
        self
    }
}

/// Errors an online session can report.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// An engine-level failure (bad speeds, non-leaf assignment,
    /// invalid mutation).
    Sim(SimError),
    /// The job being submitted failed instance validation.
    Core(CoreError),
    /// A command carried a time before the session's current time.
    TimeRegression {
        /// The session clock.
        now: Time,
        /// The offending command time.
        at: Time,
    },
    /// A command carried a non-finite or negative time.
    BadTime(Time),
    /// The session was configured with a feature it does not support.
    Unsupported(&'static str),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Sim(e) => write!(f, "{e}"),
            SessionError::Core(e) => write!(f, "invalid job: {e}"),
            SessionError::TimeRegression { now, at } => {
                write!(f, "command time {at} is before the session clock {now}")
            }
            SessionError::BadTime(t) => write!(f, "non-finite or negative command time {t}"),
            SessionError::Unsupported(what) => write!(f, "sessions do not support {what}"),
        }
    }
}

impl std::error::Error for SessionError {}

/// An online simulation session: the live counterpart of one
/// [`Simulation::run`], advanced command by command.
///
/// All commands take the policies as arguments (rather than owning
/// them) so a caller can keep policy state — capacity ledgers and the
/// like — inspectable between commands; passing different policies to
/// different commands of one session is a caller bug the session cannot
/// detect.
pub struct SimSession {
    instance: Instance,
    scratch: SimScratch,
    evq: EventQueue,
    saved: SavedScalars,
    cfg: SessionConfig,
}

impl SimSession {
    /// Open a session on `tree` with no jobs yet. Jobs enter only via
    /// [`SimSession::submit`], so the session always runs in the
    /// identical-endpoint, root-released setting (the only one whose
    /// lookup tables survive topology mutations — the same restriction
    /// the run loop's dynamic mode has).
    pub fn new(tree: Tree, cfg: SessionConfig) -> Result<SimSession, SessionError> {
        if matches!(cfg.speeds, SpeedProfile::Explicit(_)) {
            return Err(SessionError::Unsupported(
                "explicit speed tables (a mutation may add nodes the table cannot cover)",
            ));
        }
        let instance = Instance::new(tree, Vec::new()).map_err(SessionError::Core)?;
        let mut scratch = SimScratch::new();
        cfg.speeds
            .materialize_into(instance.tree(), &mut scratch.speeds)
            .map_err(|e| SessionError::Sim(SimError::BadSpeeds(e)))?;
        let saved = {
            let st = SimState::from_scratch(
                &instance,
                cfg.dispatch_rounding,
                cfg.track_aggs,
                cfg.aggregates,
                true, // dynamic: the session owns a mutable topology from the start
                &mut scratch,
            );
            st.suspend_into(&mut scratch)
        };
        let mut evq = EventQueue::default();
        evq.reset(cfg.event_queue);
        Ok(SimSession {
            instance,
            scratch,
            evq,
            saved,
            cfg,
        })
    }

    /// Submit a job released at `release` (≥ the session clock) with
    /// processing requirement `size`: pending completions up to
    /// `release` are drained first, then the assignment policy picks a
    /// leaf against the settled queues — exactly the run loop's
    /// arrival handling. Returns the job's id and assigned leaf.
    ///
    /// On [`SimError::AssignmentNotALeaf`] the job stays registered but
    /// never admitted (deterministically reproduced by a replay); all
    /// other errors leave the session untouched.
    pub fn submit(
        &mut self,
        release: Time,
        size: Time,
        node_policy: &dyn NodePolicy,
        assignment: &mut dyn StatefulPolicy,
    ) -> Result<(JobId, NodeId), SessionError> {
        if release < self.saved.now {
            return Err(SessionError::TimeRegression {
                now: self.saved.now,
                at: release,
            });
        }
        let job = self
            .instance
            .push_job(release, size)
            .map_err(SessionError::Core)?;
        let mut st = SimState::resume(
            &self.instance,
            self.cfg.dispatch_rounding,
            self.cfg.track_aggs,
            &mut self.scratch,
            &self.saved,
        );
        drain_until(&mut st, &mut self.evq, node_policy, assignment, release);
        let leaf = assignment.assign(&st.view(), job);
        if !st.tree().is_leaf(leaf) {
            self.saved = st.suspend_into(&mut self.scratch);
            return Err(SessionError::Sim(SimError::AssignmentNotALeaf {
                job,
                node: leaf,
            }));
        }
        st.admit(job, leaf);
        let first = st.view().path(job)[0];
        Simulation::offer(&mut st, first, job, node_policy, &mut None, &mut self.evq);
        self.saved = st.suspend_into(&mut self.scratch);
        Ok((job, leaf))
    }

    /// Advance the session clock to `t`, draining every pending hop
    /// completion at times `≤ t` and integrating the objectives.
    pub fn tick(
        &mut self,
        t: Time,
        node_policy: &dyn NodePolicy,
        assignment: &mut dyn StatefulPolicy,
    ) -> Result<(), SessionError> {
        if !(t.is_finite() && t >= 0.0) {
            return Err(SessionError::BadTime(t));
        }
        if t < self.saved.now {
            return Err(SessionError::TimeRegression {
                now: self.saved.now,
                at: t,
            });
        }
        let mut st = SimState::resume(
            &self.instance,
            self.cfg.dispatch_rounding,
            self.cfg.track_aggs,
            &mut self.scratch,
            &self.saved,
        );
        drain_until(&mut st, &mut self.evq, node_policy, assignment, t);
        self.saved = st.suspend_into(&mut self.scratch);
        Ok(())
    }

    /// Apply a topology mutation at the session's current time. The
    /// mutation is validated against a staged copy of the tree first,
    /// so a rejected mutation leaves the session untouched (unlike the
    /// run loop, whose mid-run mutation failures abort the whole
    /// run). Returns the new topology epoch.
    ///
    /// In-flight jobs whose leaf disappears are drained and
    /// re-dispatched through `assignment`, exactly as in a whole run's
    /// mutation event; a non-leaf re-assignment surfaces as
    /// [`SimError::AssignmentNotALeaf`] and leaves the session in the
    /// partially redispatched (but still deterministic) state.
    pub fn mutate(
        &mut self,
        change: TreeMutation,
        node_policy: &dyn NodePolicy,
        assignment: &mut dyn StatefulPolicy,
    ) -> Result<u64, SessionError> {
        {
            // bct-lint: allow(a2) -- mutation staging validates on a throwaway copy; mutations are rare control events, not `Service::apply`'s steady state
            let mut staged = self.tree().clone();
            staged.queue_mutation(change);
            staged
                .apply_mutations()
                .map_err(|e| SessionError::Sim(SimError::BadMutation(e)))?;
        }
        let mut st = SimState::resume(
            &self.instance,
            self.cfg.dispatch_rounding,
            self.cfg.track_aggs,
            &mut self.scratch,
            &self.saved,
        );
        let r = Simulation::apply_topo(
            &mut st,
            change,
            node_policy,
            assignment,
            &mut None,
            &mut self.evq,
            &self.cfg.speeds,
            &mut self.scratch.drained,
            &mut self.scratch.freed,
            &mut self.scratch.doomed,
        );
        let epoch = st.tree().epoch();
        self.saved = st.suspend_into(&mut self.scratch);
        r.map(|()| epoch).map_err(SessionError::Sim)
    }

    /// Deterministic FNV-1a digest of the complete live state (topology
    /// structure, clock, objective accumulators, every job column,
    /// per-node scheduling state, queue memberships, speeds). Two
    /// sessions that fed the same commands to the same policies fold
    /// the same digest at every point — the serve layer's replay
    /// verifier is built on this. Allocation-free.
    pub fn state_hash(&mut self) -> u64 {
        let st = SimState::resume(
            &self.instance,
            self.cfg.dispatch_rounding,
            self.cfg.track_aggs,
            &mut self.scratch,
            &self.saved,
        );
        let h = st.state_digest();
        self.saved = st.suspend_into(&mut self.scratch);
        h
    }

    /// Pre-reserve every pooled buffer for `jobs` more submissions
    /// whose root→leaf paths have at most `max_hops` nodes, so
    /// steady-state decisions allocate nothing.
    pub fn reserve(&mut self, jobs: usize, max_hops: usize) {
        self.instance.reserve_jobs(jobs);
        self.scratch.jobs.reserve_rows(jobs, max_hops);
        for q in &mut self.scratch.q_members {
            q.reserve(jobs);
        }
        for ns in &mut self.scratch.nodes {
            ns.heap.reserve(jobs);
        }
        // Aggregates: any single queue can hold every unfinished job,
        // and across all queues a job occupies one entry per hop.
        self.scratch.aggs.reserve(jobs, jobs * max_hops);
        // Pending finish events are bounded by busy nodes, but stale
        // (version-superseded) entries linger until popped; give them
        // headroom proportional to the tree.
        self.evq.reserve(4 * self.scratch.nodes.len().max(16));
    }

    /// The tree the session currently schedules against (reflecting
    /// every applied mutation).
    pub fn tree(&self) -> &Tree {
        match &self.scratch.topo {
            Some(t) => t,
            // Unreachable in practice: a session state always owns its
            // topology. The instance's epoch-0 tree is the safe fallback.
            None => self.instance.tree(),
        }
    }

    /// Current topology epoch.
    pub fn epoch(&self) -> u64 {
        self.tree().epoch()
    }

    /// The session clock: the time of the latest command effect.
    pub fn now(&self) -> Time {
        self.saved.now
    }

    /// Jobs submitted so far (including any rejected by assignment).
    pub fn jobs_submitted(&self) -> usize {
        self.instance.n()
    }

    /// Jobs that completed their leaf hop.
    pub fn completed(&self) -> usize {
        self.saved.completed
    }

    /// Admitted jobs not yet complete.
    pub fn unfinished(&self) -> usize {
        self.saved.unfinished
    }

    /// Accumulated fractional-flow integral up to the session clock.
    pub fn fractional_flow(&self) -> f64 {
        self.saved.frac_integral
    }

    /// Accumulated `∫ #unfinished dt` up to the session clock.
    pub fn count_integral(&self) -> f64 {
        self.saved.count_integral
    }

    /// Completion time of `job`, if it has finished.
    pub fn completion(&self, job: JobId) -> Option<Time> {
        self.scratch.jobs.completion_time(job)
    }

    /// Pending finish events (live + stale) in the queue.
    pub fn pending_events(&self) -> usize {
        self.evq.len()
    }
}

/// Drain every pending finish event at times `≤ t` (completions before
/// the command's own effect, matching the run loop's tie rule),
/// then advance the clock to exactly `t`.
// bct-lint: no_alloc
fn drain_until(
    st: &mut SimState<'_>,
    evq: &mut EventQueue,
    node_policy: &dyn NodePolicy,
    assignment: &mut dyn StatefulPolicy,
    t: Time,
) {
    while let Some(ft) = evq.peek_time() {
        if ft > t {
            break;
        }
        st.advance(ft);
        let Some(FinishEv { node, version, .. }) = evq.pop() else {
            debug_assert!(false, "peeked event must pop");
            break;
        };
        let _ = Simulation::handle_finish(st, node, version, node_policy, assignment, &mut None, evq);
    }
    st.advance(t);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, TopoMutation};
    use crate::policy::{AssignmentPolicy, KeyCtx, NoProbe, PolicyKey};
    use crate::state::SimView;
    use bct_core::tree::TreeBuilder;
    use bct_core::Job;

    struct Sjf;
    impl NodePolicy for Sjf {
        fn name(&self) -> &'static str {
            "sjf"
        }
        fn key(&self, ctx: &KeyCtx<'_>) -> PolicyKey {
            PolicyKey::new(
                ctx.instance.p(ctx.job, ctx.node),
                ctx.instance.job(ctx.job).release,
                ctx.job.0,
            )
        }
    }

    /// Deterministic stateless spreader: job id modulo the live leaf list.
    struct RoundLeaf;
    impl AssignmentPolicy for RoundLeaf {
        fn name(&self) -> &'static str {
            "roundleaf"
        }
        fn assign(&mut self, view: &SimView<'_>, job: JobId) -> NodeId {
            let leaves = view.tree().leaves();
            leaves[job.as_usize() % leaves.len()]
        }
        fn needs_aggregates(&self) -> bool {
            false
        }
    }

    fn two_level_tree() -> Tree {
        // root -> {r1, r2}; r1 -> {a, b}; r2 -> {c}; a,b,c leaves.
        let mut b = TreeBuilder::new();
        let r1 = b.add_child(NodeId::ROOT);
        let r2 = b.add_child(NodeId::ROOT);
        b.add_child(r1);
        b.add_child(r1);
        b.add_child(r2);
        b.build().unwrap()
    }

    fn batch_jobs() -> Vec<Job> {
        (0..40u32)
            .map(|i| Job::identical(i, f64::from(i) * 0.7, 1.0 + f64::from(i % 5)))
            .collect()
    }

    #[test]
    fn session_matches_batch_run_exactly() {
        let jobs = batch_jobs();
        let inst = Instance::new(two_level_tree(), jobs.clone()).unwrap();
        let out = Simulation::run(&inst, &Sjf, &mut RoundLeaf, &mut NoProbe, &SimConfig::unit())
            .unwrap();

        let mut s = SimSession::new(two_level_tree(), SessionConfig::unit()).unwrap();
        let mut asg = RoundLeaf;
        for j in &jobs {
            let (id, leaf) = s.submit(j.release, j.size, &Sjf, &mut asg).unwrap();
            assert_eq!(Some(leaf), out.assignments[id.as_usize()]);
        }
        s.tick(1e6, &Sjf, &mut asg).unwrap();
        for (i, c) in out.completions.iter().enumerate() {
            assert_eq!(s.completion(JobId(i as u32)), *c, "job {i}");
        }
        assert_eq!(s.completed(), jobs.len());
        assert_eq!(s.unfinished(), 0);
    }

    #[test]
    fn session_matches_batch_run_with_mutations() {
        // Mutation times chosen off every event time so the batch
        // tie-rule (mutations before completions at equal times) and
        // the session's command ordering coincide.
        let jobs = batch_jobs();
        let muts = [
            TopoMutation {
                at: 3.1415,
                change: TreeMutation::AddLeaf { parent: NodeId(2) },
            },
            TopoMutation {
                at: 7.7182,
                change: TreeMutation::RemoveLeaf { leaf: NodeId(3) },
            },
            TopoMutation {
                at: 11.0101,
                change: TreeMutation::SetSpeed {
                    node: NodeId(4),
                    factor: 2.5,
                },
            },
        ];
        let inst = Instance::new(two_level_tree(), jobs.clone()).unwrap();
        let cfg = SimConfig::unit().with_mutations(muts.to_vec());
        let out = Simulation::run(&inst, &Sjf, &mut RoundLeaf, &mut NoProbe, &cfg).unwrap();

        let mut s = SimSession::new(two_level_tree(), SessionConfig::unit()).unwrap();
        let mut asg = RoundLeaf;
        let mut pending = muts.iter().peekable();
        for j in &jobs {
            while let Some(tm) = pending.peek() {
                if tm.at > j.release {
                    break;
                }
                s.tick(tm.at, &Sjf, &mut asg).unwrap();
                s.mutate(tm.change, &Sjf, &mut asg).unwrap();
                pending.next();
            }
            s.submit(j.release, j.size, &Sjf, &mut asg).unwrap();
        }
        for tm in pending {
            s.tick(tm.at, &Sjf, &mut asg).unwrap();
            s.mutate(tm.change, &Sjf, &mut asg).unwrap();
        }
        // Advance to exactly the batch run's end so the objective
        // integrals cover the same interval (a residual frac_sum of a
        // few ulps integrates over any extra time).
        s.tick(out.makespan, &Sjf, &mut asg).unwrap();
        assert_eq!(s.epoch(), 3);
        for (i, c) in out.completions.iter().enumerate() {
            assert_eq!(s.completion(JobId(i as u32)), *c, "job {i}");
        }
        assert_eq!(s.fractional_flow().to_bits(), out.fractional_flow.to_bits());
    }

    #[test]
    fn state_hash_is_deterministic_and_sensitive() {
        let run = |n: u32| {
            let mut s = SimSession::new(two_level_tree(), SessionConfig::unit()).unwrap();
            let mut asg = RoundLeaf;
            for i in 0..n {
                s.submit(f64::from(i) * 0.5, 2.0, &Sjf, &mut asg).unwrap();
            }
            s.state_hash()
        };
        assert_eq!(run(10), run(10), "same commands, same hash");
        assert_ne!(run(10), run(11), "extra command moves the hash");

        // The hash is a pure read: probing twice changes nothing.
        let mut s = SimSession::new(two_level_tree(), SessionConfig::unit()).unwrap();
        let mut asg = RoundLeaf;
        s.submit(0.0, 2.0, &Sjf, &mut asg).unwrap();
        assert_eq!(s.state_hash(), s.state_hash());
        s.tick(100.0, &Sjf, &mut asg).unwrap();
        assert_eq!(s.completed(), 1);
    }

    #[test]
    fn rejects_time_regressions_and_bad_jobs() {
        let mut s = SimSession::new(two_level_tree(), SessionConfig::unit()).unwrap();
        let mut asg = RoundLeaf;
        s.submit(5.0, 1.0, &Sjf, &mut asg).unwrap();
        let h = s.state_hash();
        assert!(matches!(
            s.submit(4.0, 1.0, &Sjf, &mut asg),
            Err(SessionError::TimeRegression { .. })
        ));
        assert!(matches!(
            s.tick(1.0, &Sjf, &mut asg),
            Err(SessionError::TimeRegression { .. })
        ));
        assert!(matches!(
            s.submit(6.0, -1.0, &Sjf, &mut asg),
            Err(SessionError::Core(_))
        ));
        assert!(matches!(
            s.tick(f64::NAN, &Sjf, &mut asg),
            Err(SessionError::BadTime(_))
        ));
        assert_eq!(s.state_hash(), h, "rejected commands leave state untouched");
    }

    #[test]
    fn failed_mutation_leaves_session_untouched() {
        let mut s = SimSession::new(two_level_tree(), SessionConfig::unit()).unwrap();
        let mut asg = RoundLeaf;
        s.submit(0.0, 3.0, &Sjf, &mut asg).unwrap();
        let h = s.state_hash();
        // Adding under a leaf is invalid; so is removing the root.
        assert!(matches!(
            s.mutate(TreeMutation::AddLeaf { parent: NodeId(3) }, &Sjf, &mut asg),
            Err(SessionError::Sim(SimError::BadMutation(_)))
        ));
        assert_eq!(s.epoch(), 0);
        assert_eq!(s.state_hash(), h);
    }

    #[test]
    fn explicit_speeds_rejected() {
        let cfg = SessionConfig::new(SpeedProfile::Explicit(vec![1.0; 6]));
        assert!(matches!(
            SimSession::new(two_level_tree(), cfg),
            Err(SessionError::Unsupported(_))
        ));
    }
}
