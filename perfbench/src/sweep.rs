//! `sweep-mixed`: `run_sweep` in-process at one worker over a 48-cell
//! grid — `fat-tree:16,8,8` and `kary:4,4`; `pow:2,4` and
//! `pareto:1.5,1` sizes at ρ = 0.95; `sjf+greedy:0.5`,
//! `sjf+least-volume` and `sjf+round-robin`; `uniform:1` and
//! `paper-identical:0.5` speeds; two replications.
//!
//! Why this workload: assignment scoring on long heavy-tail queues
//! (greedy's aggregate queries, least-volume's queue scans; about 70% of
//! a sweep) and the LP lower bounds (about 20%) dominate, with the
//! harness's rows on top. With two replications the cells of a
//! grid point run as one group through the sweep's batched path, so a
//! change to that path shows here and nowhere else.
//!
//! Unit of work: one sweep of the grid as 24 `run_sweep` calls at one
//! worker, one per grid point with its two replications. A "call" is
//! one of them, timed by its caller: `call_p50_us` and `call_p99_us`
//! are percentiles over the 24 points of each one's fastest call, and
//! `jobs_per_s` is the grid's jobs over the sum of those times (cells/s
//! is in the report). Timing the replication groups of one whole-grid
//! sweep as its rows arrive would be cheaper but wrong: the rows are
//! stamped by the thread that receives them, so a late wake-up moves
//! one group's time into the next and a fastest repeat can read a
//! group that was never run. The whole grid runs through one
//! `run_sweep` at one and at two workers for the row checks, untimed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bct_core::{Instance, JobId, NodeId};
use bct_harness::sweep::{self, CellTask, RowOutcome, SweepReport};
use bct_harness::{run_sweep, spec, NullSink, SweepOptions, SweepSpec};
use bct_lp::bounds;
use bct_sched::GreedyIdentical;
use bct_sim::{Probe, SimConfig, SimScratch, SimView, Simulation};
use bct_workloads::jobs::WorkloadSpec;

use crate::trace::{TimedAssign, TimedNode, Tracer};
use crate::{host, stats, Args, Check, E2eSamples, Outcome, SetupSchedule};

/// Jobs per cell of both size distributions. Sized so a call (one grid
/// point) takes at most tens of milliseconds on a 2-core host, where
/// slow phases last seconds and short calls let the fast ones show. The
/// two distributions cost about the same per job, so with equal counts
/// the kary points of both form one cluster in the middle of the 24
/// points' times: the median point then lies inside a cluster, not on
/// the edge between two, where a seed's heavy tail would flip it.
const JOBS: usize = 400;
/// Measured rounds over the grid's points at least, however short
/// `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// One node-key call in this many is timed in the traced run.
const KEY_SAMPLE: u64 = 16;
/// The probe queries the live view at one arrival in this many.
const PROBE_EVERY: u64 = 64;
/// Jobs in the one large round-robin cell the traced run adds, to show
/// how the pooled-SRPT bound (quadratic in jobs) overtakes the engine
/// (about linear) as cells grow past the grid's sizes.
const LARGE_CELL_JOBS: usize = 10_000;

/// The grid, seeded by the workload seed.
fn grid(seed: u64) -> Result<SweepSpec, String> {
    SweepSpec::from_json(&format!(
        r#"{{
            "name": "sweep-mixed",
            "root_seed": {seed},
            "replications": 2,
            "topologies": ["fat-tree:16,8,8", "kary:4,4"],
            "workloads": [
                {{"jobs": {JOBS}, "load": 0.95, "sizes": "pow:2,4"}},
                {{"jobs": {JOBS}, "load": 0.95, "sizes": "pareto:1.5,1"}}
            ],
            "policies": ["sjf+greedy:0.5", "sjf+least-volume", "sjf+round-robin"],
            "speeds": ["uniform:1", "paper-identical:0.5"]
        }}"#
    ))
}

/// Parse a cell's tree and generate its instance, as `run_cell` does.
fn cell_instance(task: &CellTask) -> Result<Instance, String> {
    let tree = spec::parse_topology(&task.topo, task.seed)?;
    let sizes = spec::parse_sizes(&task.workload.sizes)?;
    WorkloadSpec::poisson_identical(task.workload.jobs, task.workload.load, sizes, &tree)
        .instance(&tree, task.seed)
        .map_err(|e| format!("cell {}: {e}", task.cell))
}

/// Set-up: validate the grid, split it into its points, and build every
/// point's cells' trees and instances (the part of each cell that
/// precedes its simulation). Returns the grid, the points and the jobs
/// over all of them.
fn setup(seed: u64) -> Result<(SweepSpec, Vec<SweepSpec>, usize), String> {
    let spec = grid(seed)?;
    spec.validate()?;
    let points = points(&spec);
    let mut jobs = 0;
    for point in &points {
        for task in sweep::expand(point) {
            jobs += black_box(cell_instance(&task)?).n();
        }
    }
    Ok((spec, points, jobs))
}

fn sweep_at(spec: &SweepSpec, workers: usize) -> Result<SweepReport, String> {
    run_sweep(
        spec,
        &SweepOptions {
            workers,
            ..Default::default()
        },
        &mut NullSink,
    )
}

/// The grid's points, each a sweep of its own with the grid's
/// replications and a root seed derived from the grid's and the
/// point's index.
fn points(grid: &SweepSpec) -> Vec<SweepSpec> {
    let mut out = Vec::new();
    for topo in &grid.topologies {
        for workload in &grid.workloads {
            for policy in &grid.policies {
                for speeds in &grid.speeds {
                    let mut point = grid.clone();
                    point.root_seed = sweep::cell_seed(grid.root_seed, out.len());
                    point.topologies = vec![topo.clone()];
                    point.workloads = vec![workload.clone()];
                    point.policies = vec![policy.clone()];
                    point.speeds = vec![speeds.clone()];
                    out.push(point);
                }
            }
        }
    }
    out
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let t = Instant::now();
    let (spec, points, jobs) = setup(args.seed)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    if args.trace {
        return run_traced(args, &spec, &sweep::expand(&spec));
    }

    let mut out = Outcome::default();
    // The whole grid in one sweep, untimed, before the timed calls: its
    // rows are checked below, and peak memory is read after it, while
    // one worker thread has run (each timed call starts its own, and
    // how much memory a thread's allocator arena still holds when the
    // next one starts depends on timing).
    let whole = sweep_at(&spec, 1)?;
    let peak_rss_mb = host::peak_rss_mb()?;
    let mut calls = stats::Fastest::new(points.len());
    // Each point's rows from its first call; every later call must match.
    let mut first: Vec<Option<String>> = vec![None; points.len()];
    let (mut rows, mut every_us) = (Vec::new(), Vec::new());
    let (mut rounds, mut differing) = (Vec::new(), 0usize);
    let mut extra_setups = SetupSchedule::new(args.seconds);
    let started = Instant::now();
    while rounds.len() < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        let round = Instant::now();
        for (g, point) in points.iter().enumerate() {
            if extra_setups.due(started.elapsed().as_secs_f64()) {
                let t = Instant::now();
                black_box(setup(args.seed)?);
                setup_s.push(t.elapsed().as_secs_f64());
            }
            let t = Instant::now();
            let report = sweep_at(point, 1)?;
            let dt = t.elapsed().as_secs_f64();
            calls.observe(g, dt);
            every_us.push(dt * 1e6);
            out.attempted += report.rows.len() as u64;
            out.failed += report.failed as u64;
            let jsonl = report.sorted_jsonl();
            match &first[g] {
                None => {
                    first[g] = Some(jsonl);
                    rows.extend(report.rows);
                }
                Some(f) => differing += usize::from(*f != jsonl),
            }
        }
        rounds.push(round.elapsed().as_secs_f64());
    }

    // Checks, untimed, over the points' rows and the whole grid's.
    let cells = sweep::expand(&spec).len();
    let bad: Vec<(u64, usize)> = rows
        .iter()
        .chain(&whole.rows)
        .filter(|r| !matches!(r.outcome, RowOutcome::Ok(_)))
        .map(|r| (r.seed, r.cell))
        .collect();
    out.checks.push(Check::new(
        "sweep: every row is Ok",
        bad.is_empty() && rows.len() == cells && whole.rows.len() == cells,
        format!(
            "{} rows of the points, {} of the whole grid, {cells} cells; failed (seed, cell) {bad:?}",
            rows.len(),
            whole.rows.len()
        ),
    ));
    let (mut under, mut unit_cells, mut ratios) = (0usize, 0usize, Vec::new());
    for row in &rows {
        if let RowOutcome::Ok(m) = &row.outcome {
            if row.speeds == "uniform:1" {
                unit_cells += 1;
                let above = m.total_flow >= m.lower_bound * (1.0 - 1e-9);
                under += usize::from(!above);
                if row.policy == "sjf+greedy:0.5" {
                    ratios.push(m.ratio);
                }
            }
        }
    }
    out.checks.push(Check::new(
        "sweep: flow >= lower bound on the uniform:1 cells",
        under == 0 && unit_cells > 0,
        format!("{under} of {unit_cells} cells below their bound"),
    ));
    let mut digest = bct_core::Fnv64::new();
    for f in first.iter().flatten() {
        digest.write_u64(bct_core::fnv1a(f.as_bytes()));
    }
    out.checks.push(Check::new(
        "sweep: every timed sweep writes the first sweep's rows",
        differing == 0,
        format!(
            "{differing} of {} calls differ; rows digest {:016x}",
            rounds.len() * points.len(),
            digest.finish()
        ),
    ));
    let whole = whole.sorted_jsonl();
    let rerun = sweep_at(&spec, 2)?.sorted_jsonl();
    out.checks.push(Check::new(
        "sweep: rows are byte-identical at 2 workers",
        rerun == whole,
        format!(
            "whole grid: {} bytes at 1 worker, {} at 2",
            whole.len(),
            rerun.len()
        ),
    ));
    if ratios.is_empty() {
        return Err("no sjf+greedy:0.5 uniform:1 cells in the grid".into());
    }
    let flow_ratio = ratios.iter().sum::<f64>() / ratios.len() as f64;

    let best_total: f64 = calls.best_s()?.iter().sum();
    let cells_per_s: Vec<f64> = rounds.iter().map(|w| cells as f64 / w).collect();
    out.notes.push(format!(
        "cells_per_s {:.3} cells/s over the points' fastest calls; whole rounds of {cells} cells, \
         {jobs} jobs: median {:.3} cells/s, fastest {:.3} cells/s over {} rounds; \
         flow_ratio is the mean over {} sjf+greedy:0.5 uniform:1 cells",
        cells as f64 / best_total,
        stats::median(&cells_per_s),
        stats::quantile(&cells_per_s, 1.0),
        rounds.len(),
        ratios.len()
    ));
    out.notes.push(format!(
        "every call, all points together: {}",
        stats::describe(&every_us, "us")
    ));
    E2eSamples {
        setup_s,
        peak_rss_mb,
        flow_ratio,
        calls,
        jobs: jobs as f64,
    }
    .into_outcome(&mut out)?;
    Ok(out)
}

/// Times the view's aggregate queries and the greedy score of every leaf
/// at sampled arrivals. Everything it does is measurement: its whole
/// footprint is removed from the engine's self time.
struct ViewProbe {
    aggregates: bool,
    greedy: Option<GreedyIdentical>,
    clock_ns: f64,
    arrivals: u64,
    queries: u64,
    query_ns: f64,
    scores: u64,
    score_ns: f64,
    measured_ns: f64,
}

impl ViewProbe {
    fn new(aggregates: bool, greedy: bool, clock_ns: f64) -> ViewProbe {
        ViewProbe {
            aggregates,
            greedy: greedy.then(|| GreedyIdentical::new(0.5)),
            clock_ns,
            arrivals: 0,
            queries: 0,
            query_ns: 0.0,
            scores: 0,
            score_ns: 0.0,
            measured_ns: 0.0,
        }
    }
}

impl Probe for ViewProbe {
    fn on_arrival(&mut self, view: &SimView<'_>, job: JobId, _leaf: NodeId) {
        self.arrivals += 1;
        if !self.aggregates || !self.arrivals.is_multiple_of(PROBE_EVERY) {
            return;
        }
        let all = Instant::now();
        let j = view.instance().job(job);
        for &v in view.path(job) {
            let t = Instant::now();
            black_box(view.volume_before(v, j.size, j.release, job.0));
            black_box(view.count_larger(v, j.size));
            black_box(view.frac_volume_larger(v, j.size));
            self.query_ns += t.elapsed().as_nanos() as f64 - self.clock_ns;
            self.queries += 3;
        }
        if let Some(g) = &self.greedy {
            for &leaf in view.tree().leaves() {
                let t = Instant::now();
                black_box(g.score(view, job, leaf));
                self.score_ns += t.elapsed().as_nanos() as f64 - self.clock_ns;
                self.scores += 1;
            }
        }
        self.measured_ns += all.elapsed().as_nanos() as f64 + self.clock_ns;
    }

    fn needs_aggregates(&self) -> bool {
        self.aggregates
    }
}

/// The traced run: per pass, every cell through `run_cell` untraced and
/// one untraced `run_sweep`, then every cell again layer by layer with
/// the policies wrapped.
fn run_traced(args: &Args, spec: &SweepSpec, tasks: &[CellTask]) -> Result<Outcome, String> {
    let clock_ns = host::clock_read_ns();
    let mut tracer = Tracer::new(clock_ns);
    let mut out = Outcome::default();
    let mut scratch = SimScratch::new();
    let (mut run_cell_ns, mut sweep_ns, mut traced_ns) = (0.0, 0.0, 0.0);
    let (mut passes, mut events, mut diverged) = (0u64, 0u64, 0u64);
    let (mut queries, mut query_ns, mut scores, mut score_ns) = (0u64, 0.0, 0u64, 0.0);
    let mut by_policy: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    let started = Instant::now();
    while passes < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let report = sweep_at(spec, 1)?;
        sweep_ns += t.elapsed().as_nanos() as f64;
        out.attempted += report.rows.len() as u64;
        out.failed += report.failed as u64;
        // Each cell runs untraced through `run_cell`, then layer by layer,
        // back to back, so host drift hits both alike.
        for task in tasks {
            let t = Instant::now();
            let m = sweep::run_cell(task)?;
            run_cell_ns += t.elapsed().as_nanos() as f64;
            let flow = m.total_flow;
            let t = Instant::now();
            let tree = tracer.span("core.tree", || spec::parse_topology(&task.topo, task.seed))?;
            let inst = tracer.span("workloads.instance", || {
                let sizes = spec::parse_sizes(&task.workload.sizes)?;
                WorkloadSpec::poisson_identical(
                    task.workload.jobs,
                    task.workload.load,
                    sizes,
                    &tree,
                )
                .instance(&tree, task.seed)
                .map_err(|e| e.to_string())
            })?;
            let combo = spec::parse_policy(&task.policy)?;
            let cfg = SimConfig::with_speeds(spec::parse_speeds(&task.speeds)?);
            let node_policy = combo.node.build();
            let mut assign_policy = combo.assign.build(task.workload.capacity);
            let mut probe = ViewProbe::new(
                assign_policy.needs_aggregates(),
                task.policy.starts_with("sjf+greedy"),
                clock_ns,
            );
            let node = TimedNode::new(node_policy.as_ref(), KEY_SAMPLE, clock_ns);
            let mut assign = TimedAssign::new(assign_policy.as_mut(), 1, clock_ns);
            tracer.enter("sim.engine.run");
            let res = Simulation::run_with_scratch(
                &mut scratch,
                &inst,
                &node,
                &mut assign,
                &mut probe,
                &cfg,
            );
            let hot = [node.sampler.take(), assign.sampler.take()];
            let engine_ns = tracer.exit(&hot, probe.measured_ns);
            let o = res.map_err(|e| format!("cell {}: {e}", task.cell))?;
            let total: f64 = o
                .completions
                .iter()
                .zip(inst.jobs())
                .map(|(c, j)| c.map_or(f64::NAN, |c| c - j.release))
                .sum();
            diverged += u64::from(total.to_bits() != flow.to_bits());
            events += o.events;
            scratch.recycle(o);
            tracer.span("lp.eta_bound", || black_box(bounds::eta_bound(&inst, 1.0)));
            tracer.enter("lp.pooled_srpt");
            black_box(bounds::pooled_srpt_bound(&inst, 1.0));
            let pooled_ns = tracer.exit(&[], 0.0);
            let class = by_policy.entry(task.policy.as_str()).or_insert((0.0, 0.0));
            class.0 += engine_ns;
            class.1 += pooled_ns;
            queries += probe.queries;
            query_ns += probe.query_ns;
            scores += probe.scores;
            score_ns += probe.score_ns;
            traced_ns += t.elapsed().as_nanos() as f64;
        }
        passes += 1;
    }
    out.checks.push(Check::new(
        "trace: wrapped policies and the probe leave every cell's total flow unchanged",
        diverged == 0,
        format!("{diverged} cells differ bit-wise from run_cell over {passes} passes"),
    ));

    let per_pass = |ns: f64| ns * 1e-9 / passes as f64;
    let run = tracer.layer("sim.engine.run");
    let key = tracer.layer("policies.node.key");
    let assign = tracer.layer("policies.assign");
    let m = &mut out.metrics;
    m.insert("core.tree_s", per_pass(tracer.layer("core.tree").total_ns));
    m.insert(
        "workloads.instance_s",
        per_pass(tracer.layer("workloads.instance").total_ns),
    );
    m.insert("sim.engine.run_s", per_pass(run.total_ns));
    m.insert("sim.engine.self_s", per_pass(run.self_ns));
    m.insert("sim.engine.events", events as f64 / passes as f64);
    m.insert("sim.view.agg_query_ns", query_ns / queries.max(1) as f64);
    m.insert("policies.node.key_calls", key.calls as f64 / passes as f64);
    m.insert(
        "policies.node.key_ns",
        key.total_ns / key.calls.max(1) as f64,
    );
    m.insert("policies.assign.calls", assign.calls as f64 / passes as f64);
    m.insert(
        "policies.assign.ns_per_call",
        assign.total_ns / assign.calls.max(1) as f64,
    );
    m.insert("sched.greedy.score_ns", score_ns / scores.max(1) as f64);
    m.insert(
        "lp.eta_bound_s",
        per_pass(tracer.layer("lp.eta_bound").total_ns),
    );
    m.insert(
        "lp.pooled_srpt_s",
        per_pass(tracer.layer("lp.pooled_srpt").total_ns),
    );
    m.insert("harness.run_cell_s", per_pass(run_cell_ns));
    m.insert("harness.overhead_frac", 1.0 - run_cell_ns / sweep_ns);
    out.notes.push(format!(
        "{passes} passes; per pass: run_cell {:.4} s, run_sweep {:.4} s, engine {:.4} s \
         (assignment {:.4} s), pooled SRPT bound {:.4} s; {queries} view queries, {scores} leaf scores",
        per_pass(run_cell_ns),
        per_pass(sweep_ns),
        per_pass(run.total_ns),
        per_pass(assign.total_ns),
        per_pass(tracer.layer("lp.pooled_srpt").total_ns),
    ));
    for (policy, (engine_ns, pooled_ns)) in &by_policy {
        out.notes.push(format!(
            "{policy} cells: engine {:.4} s, pooled SRPT bound {:.4} s per pass (bound / engine {:.2})",
            per_pass(*engine_ns),
            per_pass(*pooled_ns),
            pooled_ns / engine_ns
        ));
    }
    out.notes.push(large_cell(args.seed)?);
    crate::attribution(&mut out, &tracer, run_cell_ns, traced_ns);
    let path = crate::out_dir()?.join(format!("trace-sweep-mixed-{}.jsonl", args.seed));
    tracer.write(&path, &format!("{{\"host\": {}}}", host::fingerprint()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(out)
}

/// Engine and pooled-SRPT bound on one grid point scaled up to
/// [`LARGE_CELL_JOBS`] jobs: `fat-tree:16,8,8`, `pow:2,4`,
/// `sjf+round-robin`, unit speed.
fn large_cell(seed: u64) -> Result<String, String> {
    let tree = spec::parse_topology("fat-tree:16,8,8", seed)?;
    let sizes = spec::parse_sizes("pow:2,4")?;
    let inst = WorkloadSpec::poisson_identical(LARGE_CELL_JOBS, 0.95, sizes, &tree)
        .instance(&tree, seed)
        .map_err(|e| e.to_string())?;
    let combo = spec::parse_policy("sjf+round-robin")?;
    let t = Instant::now();
    let o = combo
        .run(&inst, &bct_core::SpeedProfile::unit())
        .map_err(|e| e.to_string())?;
    let engine_s = t.elapsed().as_secs_f64();
    black_box(o);
    let t = Instant::now();
    black_box(bounds::pooled_srpt_bound(&inst, 1.0));
    let pooled_s = t.elapsed().as_secs_f64();
    Ok(format!(
        "one {LARGE_CELL_JOBS}-job sjf+round-robin cell: engine {engine_s:.4} s, \
         pooled SRPT bound {pooled_s:.4} s (bound / engine {:.1})",
        pooled_s / engine_s
    ))
}
