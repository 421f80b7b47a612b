//! `sim-acceptance`: the ROADMAP acceptance cell.
//!
//! A 1024-leaf fat tree (`fat-tree:16,8,8`), 50k jobs at ρ = 0.95 with
//! `pow:2,4` sizes, SJF on every node and round-robin dispatch, no
//! probe, on a warm [`SimScratch`].
//!
//! Why this workload: the engine core does almost all the work — the
//! event queue, the per-node SJF keys, the job and path tables.
//! Assignment costs about nothing and queue aggregates are off
//! (round-robin's `needs_aggregates()` is false), so a change to
//! assignment scoring or to the LP bounds must show *no change* here.
//! It also continues the historic jobs/s series of the acceptance cell.
//!
//! The cell is generated [`INSTANCES`] times from the workload seed. A
//! "call" is one `Simulation::run_with_scratch` of one of them; the
//! instances take turns for the whole window, so `call_p50_us` and
//! `call_p99_us` are percentiles over the instances of each one's
//! fastest run, and `jobs_per_s` is their jobs over the sum of those
//! times.

use std::time::Instant;

use bct_core::{Fnv64, Instance, JobId, SpeedProfile};
use bct_harness::spec;
use bct_lp::bounds;
use bct_policies::{RoundRobin, Sjf};
use bct_sim::policy::NoProbe;
use bct_sim::{
    EventQueue, NodePolicy, SimConfig, SimOutcome, SimScratch, Simulation, StatefulPolicy,
    TraceKind,
};
use bct_workloads::jobs::WorkloadSpec;

use crate::trace::{TimedAssign, TimedNode, Tracer};
use crate::{host, stats, Args, Check, E2eSamples, Outcome, SetupSchedule};

const TOPO: &str = "fat-tree:16,8,8";
const JOBS: usize = 50_000;
const LOAD: f64 = 0.95;
const SIZES: &str = "pow:2,4";
/// Instances of the cell, each generated from its own seed.
const INSTANCES: usize = 8;
/// Measured rounds (one run of every instance) at least, however short
/// `--seconds` is.
const MIN_ROUNDS: usize = 2;
/// One node-key call in this many is timed in the traced run.
const KEY_SAMPLE: u64 = 64;
/// One assignment in this many is timed in the traced run.
const ASSIGN_SAMPLE: u64 = 16;

/// The cell's instances, generated, and a scratch warmed on the first.
struct Cell {
    insts: Vec<Instance>,
    scratch: SimScratch,
    /// Digest of the warm-up run's schedule (the first instance's).
    digest: u64,
    /// Seconds spent parsing the tree and generating one instance.
    tree_s: f64,
    instance_s: f64,
}

/// The seed of instance `i` of the workload seeded with `seed`: distinct
/// for every pair, so no two workload seeds share an instance.
fn instance_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(INSTANCES as u64).wrapping_add(i as u64)
}

fn setup(seed: u64) -> Result<Cell, String> {
    let t = Instant::now();
    let tree = spec::parse_topology(TOPO, seed)?;
    let tree_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sizes = spec::parse_sizes(SIZES)?;
    let insts = (0..INSTANCES)
        .map(|i| {
            WorkloadSpec::poisson_identical(JOBS, LOAD, sizes, &tree)
                .instance(&tree, instance_seed(seed, i))
                .map_err(|e| format!("instance {i}: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let instance_s = t.elapsed().as_secs_f64() / INSTANCES as f64;
    let mut scratch = SimScratch::new();
    let warm = simulate(
        &mut scratch,
        &insts[0],
        &Sjf::new(),
        &mut RoundRobin::default(),
    )?;
    let digest = schedule_digest(&warm);
    scratch.recycle(warm);
    Ok(Cell {
        insts,
        scratch,
        digest,
        tree_s,
        instance_s,
    })
}

fn simulate<N: NodePolicy + ?Sized, A: StatefulPolicy + ?Sized>(
    scratch: &mut SimScratch,
    inst: &Instance,
    node: &N,
    assign: &mut A,
) -> Result<SimOutcome, String> {
    Simulation::run_with_scratch(
        scratch,
        inst,
        node,
        assign,
        &mut NoProbe,
        &SimConfig::unit(),
    )
    .map_err(|e| format!("simulation: {e}"))
}

/// FNV digest of everything a schedule decides: per-job completion and
/// leaf, per-node busy time, event count and makespan. Printed, so two
/// commits can be compared for identical schedules.
pub fn schedule_digest(out: &SimOutcome) -> u64 {
    let mut h = Fnv64::new();
    for c in &out.completions {
        h.write_f64(c.unwrap_or(f64::NAN));
    }
    for a in &out.assignments {
        h.write_u32(a.map_or(u32::MAX, |v| v.0));
    }
    for b in &out.node_busy {
        h.write_f64(*b);
    }
    h.write_u64(out.events);
    h.write_f64(out.makespan);
    h.finish()
}

/// The schedule checks that hold for any correct engine: every job
/// completes, no job beats its own path work (the dilation term of the
/// congestion + dilation lower bound), busy time is conserved, and no
/// node is busy longer than the makespan.
pub fn check_schedule(inst: &Instance, speeds: &SpeedProfile, out: &SimOutcome) -> Vec<Check> {
    let mut checks = Vec::new();
    let unfinished = out.completions.iter().filter(|c| c.is_none()).count();
    checks.push(Check::new(
        "sim: every job completes",
        out.unfinished == 0 && unfinished == 0,
        format!(
            "{} of {} jobs unfinished",
            unfinished.max(out.unfinished),
            inst.n()
        ),
    ));
    let speed = match speeds.materialize(inst.tree()) {
        Ok(s) => s,
        Err(e) => {
            checks.push(Check::new("sim: speeds materialize", false, e.to_string()));
            return checks;
        }
    };
    let mut work_total = 0.0;
    let mut violations = 0usize;
    let mut worst = f64::INFINITY;
    for (j, job) in inst.jobs().iter().enumerate() {
        let (Some(c), Some(leaf)) = (out.completions[j], out.assignments[j]) else {
            continue;
        };
        let id = JobId(j as u32);
        let work: f64 = inst
            .path_of(id, leaf)
            .iter()
            .map(|&v| inst.p(id, v) / speed[v.as_usize()])
            .sum();
        work_total += work;
        let flow = c - job.release;
        worst = worst.min(flow / work);
        if flow < work * (1.0 - 1e-9) {
            violations += 1;
        }
    }
    checks.push(Check::new(
        "sim: flow >= path work at the given speeds (dilation)",
        violations == 0,
        format!("{violations} violations; smallest flow/work {worst:.6}"),
    ));
    let busy: f64 = out.node_busy.iter().sum();
    checks.push(Check::new(
        "sim: sum of node_busy = sum of path work / speed",
        (busy - work_total).abs() <= 1e-9 * work_total.max(1.0),
        format!("busy {busy:.6}, work {work_total:.6}"),
    ));
    let max_busy = out.node_busy.iter().copied().fold(0.0, f64::max);
    checks.push(Check::new(
        "sim: node_busy <= makespan",
        max_busy <= out.makespan * (1.0 + 1e-12),
        format!("max busy {max_busy:.6}, makespan {:.6}", out.makespan),
    ));
    checks
}

/// Total flow over `combined_bound` at unit adversary speed, and the
/// check that the flow is not below it (valid since the schedule also
/// ran at unit speed).
pub fn flow_vs_bound(inst: &Instance, total_flow: f64, name: &'static str) -> (f64, Check) {
    let lb = bounds::combined_bound(inst, 1.0);
    let ratio = total_flow / lb;
    let check = Check::new(
        name,
        lb > 0.0 && total_flow >= lb * (1.0 - 1e-9),
        format!("total flow {total_flow:.4}, lower bound {lb:.4}, ratio {ratio:.6}"),
    );
    (ratio, check)
}

fn total_flow(inst: &Instance, out: &SimOutcome) -> f64 {
    out.completions
        .iter()
        .zip(inst.jobs())
        .map(|(c, j)| c.map_or(0.0, |c| c - j.release))
        .sum()
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let t = Instant::now();
    let mut cell = setup(args.seed)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    if args.trace {
        return run_traced(args, &mut cell);
    }

    let mut out = Outcome::default();
    let mut calls = stats::Fastest::new(INSTANCES);
    // Each instance's schedule digest, set by its first timed run.
    let mut digests: Vec<Option<u64>> = vec![None; INSTANCES];
    let (mut times, mut mismatched, mut peak_rss_mb) = (Vec::new(), 0usize, 0.0);
    let mut extra_setups = SetupSchedule::new(args.seconds);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        for (i, inst) in cell.insts.iter().enumerate() {
            if extra_setups.due(started.elapsed().as_secs_f64()) {
                let t = Instant::now();
                std::hint::black_box(setup(args.seed)?);
                setup_s.push(t.elapsed().as_secs_f64());
            }
            let t = Instant::now();
            let res = simulate(
                &mut cell.scratch,
                inst,
                &Sjf::new(),
                &mut RoundRobin::default(),
            );
            let dt = t.elapsed().as_secs_f64();
            out.attempted += 1;
            match res {
                Ok(o) => {
                    calls.observe(i, dt);
                    times.push(dt);
                    let digest = schedule_digest(&o);
                    mismatched += usize::from(*digests[i].get_or_insert(digest) != digest);
                    cell.scratch.recycle(o);
                }
                Err(_) => out.failed += 1,
            }
            if out.attempted == 1 {
                peak_rss_mb = host::peak_rss_mb()?;
            }
        }
        rounds += 1;
    }

    // Checks, untimed, on one more run of every instance.
    let mut lasts = Vec::with_capacity(INSTANCES);
    let mut fold = Fnv64::new();
    for (i, inst) in cell.insts.iter().enumerate() {
        let last = simulate(
            &mut cell.scratch,
            inst,
            &Sjf::new(),
            &mut RoundRobin::default(),
        )?;
        let digest = schedule_digest(&last);
        mismatched += usize::from(digests[i] != Some(digest));
        fold.write_u64(digest);
        lasts.push(last);
    }
    mismatched += usize::from(schedule_digest(&lasts[0]) != cell.digest);
    out.checks.push(Check::new(
        "sim: every timed repeat reproduces the first schedule digest",
        mismatched == 0,
        format!(
            "digest of the {INSTANCES} schedules {:016x}; {mismatched} of {} runs differ",
            fold.finish(),
            times.len() + INSTANCES + 1
        ),
    ));
    // One line per check: the first instance that fails it, else the first.
    let mut merged: Vec<Check> = Vec::new();
    let per_instance = cell.insts.iter().zip(&lasts);
    for c in per_instance.flat_map(|(inst, last)| check_schedule(inst, &SpeedProfile::unit(), last))
    {
        match merged.iter_mut().find(|m| m.name == c.name) {
            Some(m) if m.ok && !c.ok => *m = c,
            Some(_) => {}
            None => merged.push(c),
        }
    }
    out.checks.extend(merged);
    // The bound is quadratic in jobs: the first instance only.
    let (flow_ratio, check) = flow_vs_bound(
        &cell.insts[0],
        total_flow(&cell.insts[0], &lasts[0]),
        "sim: flow >= lower bound",
    );
    out.checks.push(check);

    let jobs_per_s: Vec<f64> = times.iter().map(|t| JOBS as f64 / t).collect();
    let times_us: Vec<f64> = times.iter().map(|t| t * 1e6).collect();
    out.notes.push(format!(
        "every run: median {:.0} jobs/s, fastest {:.0} jobs/s; latency {}; events per run of the first instance {}",
        stats::median(&jobs_per_s),
        stats::quantile(&jobs_per_s, 1.0),
        stats::describe(&times_us, "us"),
        lasts[0].events
    ));
    E2eSamples {
        setup_s,
        peak_rss_mb,
        flow_ratio,
        calls,
        jobs: (JOBS * INSTANCES) as f64,
    }
    .into_outcome(&mut out)?;
    Ok(out)
}

/// The traced run: untraced and traced simulations alternate for the
/// measured time, the traced ones with every policy callback wrapped.
fn run_traced(args: &Args, cell: &mut Cell) -> Result<Outcome, String> {
    let clock_ns = host::clock_read_ns();
    let mut tracer = Tracer::new(clock_ns);
    let mut out = Outcome::default();
    let (mut untraced_ns, mut traced_ns, mut runs, mut events, mut diverged) =
        (0.0, 0.0, 0u64, 0u64, 0u64);
    let started = Instant::now();
    while runs < 3 || started.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let o = simulate(
            &mut cell.scratch,
            &cell.insts[0],
            &Sjf::new(),
            &mut RoundRobin::default(),
        )?;
        untraced_ns += t.elapsed().as_nanos() as f64;
        cell.scratch.recycle(o);

        let sjf = Sjf::new();
        let node = TimedNode::new(&sjf, KEY_SAMPLE, clock_ns);
        let mut rr = RoundRobin::default();
        let mut assign = TimedAssign::new(&mut rr, ASSIGN_SAMPLE, clock_ns);
        let t = Instant::now();
        tracer.enter("sim.engine.run");
        let res = simulate(&mut cell.scratch, &cell.insts[0], &node, &mut assign);
        tracer.exit(&[node.sampler.take(), assign.sampler.take()], 0.0);
        traced_ns += t.elapsed().as_nanos() as f64;
        let o = res?;
        out.attempted += 1;
        diverged += u64::from(schedule_digest(&o) != cell.digest);
        events = o.events;
        cell.scratch.recycle(o);
        runs += 1;
    }
    out.checks.push(Check::new(
        "trace: wrapped policies leave the schedule digest unchanged",
        diverged == 0,
        format!(
            "{diverged} of {runs} traced runs differ from {:016x}",
            cell.digest
        ),
    ));

    // Engine trace counts, and the peak number of busy nodes for the
    // event-queue hold model.
    let cfg = SimConfig::unit().traced();
    let traced = Simulation::run_with_scratch(
        &mut cell.scratch,
        &cell.insts[0],
        &Sjf::new(),
        &mut RoundRobin::default(),
        &mut NoProbe,
        &cfg,
    )
    .map_err(|e| format!("traced simulation: {e}"))?;
    let events_list = traced.trace.as_ref().map_or(&[][..], |t| &t.events[..]);
    let count = |k: TraceKind| events_list.iter().filter(|e| e.kind == k).count() as f64;
    let (starts, preempts) = (count(TraceKind::Start), count(TraceKind::Preempt));
    let mut busy = vec![false; cell.insts[0].tree().len()];
    let (mut now_busy, mut peak_busy) = (0usize, 0usize);
    for e in events_list {
        let slot = &mut busy[e.node.as_usize()];
        match e.kind {
            TraceKind::Start if !*slot => {
                *slot = true;
                now_busy += 1;
                peak_busy = peak_busy.max(now_busy);
            }
            TraceKind::Preempt | TraceKind::FinishHop if *slot => {
                *slot = false;
                now_busy -= 1;
            }
            _ => {}
        }
    }
    let evq_ns = evq_hold_ns(peak_busy.max(1), args.seed);

    let run = tracer.layer("sim.engine.run");
    let key = tracer.layer("policies.node.key");
    let assign = tracer.layer("policies.assign");
    let per_run = |ns: f64| ns * 1e-9 / runs as f64;
    let m = &mut out.metrics;
    m.insert("core.tree_s", cell.tree_s);
    m.insert("workloads.instance_s", cell.instance_s);
    m.insert("sim.engine.run_s", per_run(run.total_ns));
    m.insert("sim.engine.self_s", per_run(run.self_ns));
    m.insert("sim.engine.events", events as f64);
    m.insert("sim.trace.starts", starts);
    m.insert("sim.trace.preempts", preempts);
    m.insert("sim.evq.ns_per_op", evq_ns);
    m.insert("policies.node.key_calls", key.calls as f64 / runs as f64);
    m.insert(
        "policies.node.key_ns",
        key.total_ns / key.calls.max(1) as f64,
    );
    m.insert("policies.assign.calls", assign.calls as f64 / runs as f64);
    m.insert(
        "policies.assign.ns_per_call",
        assign.total_ns / assign.calls.max(1) as f64,
    );
    out.notes.push(format!(
        "{runs} traced runs; shares of the engine run: self {:.3}, node keys {:.3}, assignment {:.4}; \
         peak busy nodes {peak_busy}; clock read {clock_ns:.1} ns",
        run.self_ns / run.total_ns,
        key.total_ns / run.total_ns,
        assign.total_ns / run.total_ns,
    ));
    crate::attribution(&mut out, &tracer, untraced_ns, traced_ns);
    let path = crate::out_dir()?.join(format!("trace-sim-acceptance-{}.jsonl", args.seed));
    tracer.write(&path, &format!("{{\"host\": {}}}", host::fingerprint()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(out)
}

/// The event queue's public push/pop in a hold model: `pending` events
/// in flight, each pop followed by a push a random gap later, as the
/// engine does while `pending` nodes stay busy. Nanoseconds per push or
/// pop, median of five trials.
fn evq_hold_ns(pending: usize, seed: u64) -> f64 {
    const OPS: usize = 1 << 20;
    let mut x = seed | 1;
    let mut gap = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        -((x >> 11) as f64 / (1u64 << 53) as f64 + 1e-12).ln()
    };
    let mut trials: Vec<f64> = (0..5)
        .map(|_| {
            let mut q = EventQueue::default();
            q.reset(Default::default());
            for v in 0..pending {
                q.push(gap(), bct_core::NodeId(v as u32), 0);
            }
            let t = Instant::now();
            for _ in 0..OPS {
                let ev = q.pop().expect("hold model keeps the queue full");
                q.push(ev.t.0 + gap(), ev.node, ev.version + 1);
            }
            std::hint::black_box(q.len());
            t.elapsed().as_nanos() as f64 / (2 * OPS) as f64
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    trials[2]
}
