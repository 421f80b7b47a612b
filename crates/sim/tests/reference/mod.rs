//! A deliberately naive cross-check simulator, shared by the engine
//! tests of this crate and the workspace property suite.
//!
//! Same semantics as [`bct_sim::Simulation`], implemented the
//! obvious way: at every event boundary it rescans every node and every
//! job, recomputes each node's highest-priority available job from
//! scratch, and advances by the smallest step to the next completion or
//! arrival. `O(events · m · jobs)` — slow, but with no lazy
//! materialization, no versioned events, and no incremental accounting,
//! so there is nothing clever to be wrong. Property tests assert that
//! the fast engine and this one produce identical completions,
//! assignments being fixed inputs here (the engine's assignment logic is
//! exercised separately).

use bct_core::time::EPS;
use bct_core::{Instance, JobId, NodeId, SpeedProfile, Time};
use bct_sim::policy::{KeyCtx, NodePolicy};

/// Result of a reference run.
#[derive(Clone, Debug)]
pub struct RefOutcome {
    /// Completion time per job.
    pub completions: Vec<Time>,
    /// Finish time at each hop per job.
    pub hop_finishes: Vec<Vec<Time>>,
    /// Exact fractional flow time (trapezoid over event boundaries —
    /// exact because the fractional mass is piecewise linear).
    pub fractional_flow: Time,
    /// `∫ #unfinished dt` (= total flow time).
    pub count_integral: Time,
}

struct RJob<'a> {
    path: &'a [NodeId],
    hop: usize,
    rem: Time,
    hop_arrival: Time,
    released: bool,
    done: bool,
    hop_finishes: Vec<Time>,
}

/// Run the naive simulator with a *fixed* leaf assignment per job.
///
/// # Panics
/// Panics on invalid assignments or speeds (this is a test oracle, not
/// a production path).
pub fn run_reference(
    instance: &Instance,
    node_policy: &dyn NodePolicy,
    assignments: &[NodeId],
    speeds: &SpeedProfile,
) -> RefOutcome {
    assert_eq!(assignments.len(), instance.n());
    let tree = instance.tree();
    let speed = speeds.materialize(tree).expect("valid speeds");
    let mut jobs: Vec<RJob<'_>> = assignments
        .iter()
        .enumerate()
        .map(|(id, &leaf)| {
            assert!(tree.is_leaf(leaf), "assignment must be a leaf");
            RJob {
                path: instance.path_of(JobId(id as u32), leaf),
                hop: 0,
                rem: 0.0,
                hop_arrival: 0.0,
                released: false,
                done: false,
                hop_finishes: Vec::new(),
            }
        })
        .collect();

    let mut now: Time = 0.0;
    let mut frac_integral = 0.0;
    let mut count_integral = 0.0;
    let mut next_arrival_idx = 0usize;
    let n = instance.n();

    // Fractional mass at `now`: sum over released unfinished jobs of
    // remaining-at-leaf fraction.
    let frac_mass = |jobs: &[RJob<'_>]| -> f64 {
        jobs.iter()
            .enumerate()
            .filter(|(_, j)| j.released && !j.done)
            .map(|(id, j)| {
                let leaf = *j.path.last().unwrap();
                let p = instance.p(JobId(id as u32), leaf);
                let rem_leaf = if j.hop + 1 == j.path.len() { j.rem } else { p };
                rem_leaf / p
            })
            .sum()
    };

    loop {
        // Who runs where right now? For each node, the min-key available job.
        let mut running: Vec<Option<usize>> = vec![None; tree.len()];
        for (id, j) in jobs.iter().enumerate() {
            if !j.released || j.done {
                continue;
            }
            let v = j.path[j.hop];
            let key = node_policy.key(&KeyCtx {
                instance,
                node: v,
                job: JobId(id as u32),
                now,
                remaining: j.rem,
                arrived_at_node: j.hop_arrival,
            });
            let better = match running[v.as_usize()] {
                None => true,
                Some(other) => {
                    let o = &jobs[other];
                    let okey = node_policy.key(&KeyCtx {
                        instance,
                        node: v,
                        job: JobId(other as u32),
                        now,
                        remaining: o.rem,
                        arrived_at_node: o.hop_arrival,
                    });
                    key < okey
                }
            };
            if better {
                running[v.as_usize()] = Some(id);
            }
        }

        // Next event: earliest completion or next arrival.
        let mut t_next = f64::INFINITY;
        for v in tree.nodes() {
            if let Some(id) = running[v.as_usize()] {
                t_next = t_next.min(now + jobs[id].rem / speed[v.as_usize()]);
            }
        }
        if next_arrival_idx < n {
            t_next = t_next.min(instance.jobs()[next_arrival_idx].release);
        }
        if !t_next.is_finite() {
            break;
        }

        // Advance: work + exact trapezoid integration of the objectives.
        let dt = (t_next - now).max(0.0);
        let unfinished = jobs.iter().filter(|j| j.released && !j.done).count();
        let f_before = frac_mass(&jobs);
        for v in tree.nodes() {
            if let Some(id) = running[v.as_usize()] {
                jobs[id].rem = (jobs[id].rem - speed[v.as_usize()] * dt).max(0.0);
            }
        }
        let f_after = frac_mass(&jobs);
        frac_integral += 0.5 * (f_before + f_after) * dt;
        count_integral += unfinished as f64 * dt;
        now = t_next;

        // Hop completions (cascade within this instant).
        loop {
            let mut progressed = false;
            for (id, j) in jobs.iter_mut().enumerate() {
                if j.released && !j.done && j.rem <= EPS {
                    j.hop_finishes.push(now);
                    j.hop += 1;
                    if j.hop == j.path.len() {
                        j.done = true;
                    } else {
                        j.hop_arrival = now;
                        j.rem = instance.p(JobId(id as u32), j.path[j.hop]);
                    }
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }

        // Arrivals at this instant.
        while next_arrival_idx < n && instance.jobs()[next_arrival_idx].release <= now + EPS {
            let id = next_arrival_idx;
            let j = &mut jobs[id];
            j.released = true;
            j.hop_arrival = now;
            j.rem = instance.p(JobId(id as u32), j.path[0]);
            next_arrival_idx += 1;
        }
    }

    assert!(jobs.iter().all(|j| j.done), "reference run must drain");
    RefOutcome {
        completions: jobs
            .iter()
            .map(|j| *j.hop_finishes.last().expect("finished"))
            .collect(),
        hop_finishes: jobs.iter().map(|j| j.hop_finishes.clone()).collect(),
        fractional_flow: frac_integral,
        count_integral,
    }
}
