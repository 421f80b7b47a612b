//! `serve-greedy`: a closed loop with one synchronous caller — the next
//! `Submit` is sent when the previous reply returns, as with
//! `Client::call` — into an in-process `Service` on `star:8,8` under
//! `sjf+greedy:0.5`, journaling to a file. Logical releases follow a
//! Poisson process at ρ = 0.7, a `HashProbe` follows every 5% of the
//! submits, and the journal is replayed at the end.
//!
//! Why this workload: it drives the engine incrementally. `SimSession`
//! resumes and suspends its state on every command, and that dominates
//! the decision time; the journal adds a little. Why closed loop: an
//! open loop paced at tens of thousands of decisions per second on a
//! small shared host measures the host's stalls, not the service. The
//! socket transport is left out for the same reason.
//!
//! Unit of work: one pass of the command stream through a fresh
//! service; every pass is the same, deterministic stream. A "call" is
//! one `Service::apply(Submit)`, send to reply: `call_p50_us` and
//! `call_p99_us` are percentiles over the stream's submits of each
//! one's fastest pass, and `jobs_per_s` is the submits over the sum of
//! those times. The report adds the issue's figures over raw samples:
//! `decisions_per_s` over the wall time of whole passes, and
//! `decision_p50_us` and `decision_p99_us` over every submit of every
//! pass.

use std::fs::File;
use std::hint::black_box;
use std::io::BufWriter;
use std::path::Path;
use std::time::Instant;

use bct_core::{Instance, Job, Tree};
use bct_harness::spec;
use bct_serve::log::{LogWriter, MAGIC};
use bct_serve::protocol::{decode_command, next_record};
use bct_serve::{replay_file, Command, Reply, ServeConfig, Service};
use bct_sim::{SessionConfig, SimSession};
use bct_workloads::jobs::WorkloadSpec;

use crate::trace::{TimedAssign, TimedNode, Tracer};
use crate::{host, stats, Args, Check, E2eSamples, Outcome};

const TOPO: &str = "star:8,8";
const POLICY: &str = "sjf+greedy:0.5";
const SPEEDS: &str = "uniform:1";
const SIZES: &str = "pow:2,4";
const LOAD: f64 = 0.7;
/// Submits per pass.
const JOBS: usize = 20_000;
/// A hash probe follows every this many submits (5%).
const PROBE_EVERY: usize = JOBS / 20;
/// Measured passes at least, however short `--seconds` is.
const MIN_PASSES: usize = 3;
/// One node-key call in this many is timed in the traced run.
const KEY_SAMPLE: u64 = 16;

fn config() -> ServeConfig {
    ServeConfig {
        topo: TOPO.into(),
        topo_seed: 0,
        policy: POLICY.into(),
        speeds: SPEEDS.into(),
        capacity: None,
    }
}

/// The command stream of one pass: the submits with a probe after
/// every [`PROBE_EVERY`], then a tick far enough out to drain every
/// job, a final probe and the shutdown.
fn commands(arrivals: &[Job]) -> Vec<Command> {
    let mut cmds = Vec::with_capacity(arrivals.len() + arrivals.len() / PROBE_EVERY + 3);
    for (i, job) in arrivals.iter().enumerate() {
        cmds.push(Command::Submit {
            release: job.release,
            size: job.size,
        });
        if (i + 1) % PROBE_EVERY == 0 {
            cmds.push(Command::HashProbe { expect: None });
        }
    }
    let horizon = arrivals.last().map_or(0.0, |j| j.release) + 1e7;
    cmds.push(Command::Tick { t: horizon });
    cmds.push(Command::HashProbe { expect: None });
    cmds.push(Command::Shutdown);
    cmds
}

/// Set-up of one pass: the tree, the arrivals, and a journaling service
/// with its buffers reserved.
struct Pass {
    tree: Tree,
    arrivals: Vec<Job>,
    svc: Service<BufWriter<File>>,
    tree_s: f64,
    instance_s: f64,
}

fn setup(seed: u64, journal: &Path) -> Result<Pass, String> {
    let t = Instant::now();
    let tree = spec::parse_topology(TOPO, 0)?;
    let tree_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sizes = spec::parse_sizes(SIZES)?;
    let arrivals = WorkloadSpec::poisson_identical(JOBS, LOAD, sizes, &tree).generate(&tree, seed);
    let instance_s = t.elapsed().as_secs_f64();
    let file = File::create(journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let mut svc = Service::with_log(config(), BufWriter::new(file))?;
    svc.reserve(JOBS);
    Ok(Pass {
        tree,
        arrivals,
        svc,
        tree_s,
        instance_s,
    })
}

/// What one pass of the stream produced.
struct Streamed {
    wall_s: f64,
    /// Live hash answered by the final probe.
    live_hash: u64,
    /// Total flow time (all jobs done after the final tick).
    total_flow: f64,
    completed: usize,
    rejected: usize,
}

/// Send every command, timing each `Submit` into `submit_us` (refused
/// ones too, so the k-th sample is always the k-th submit) and each
/// `HashProbe` into `probe_ns`.
fn stream(
    svc: &mut Service<BufWriter<File>>,
    cmds: &[Command],
    submit_us: &mut Vec<f64>,
    probe_ns: &mut Vec<f64>,
) -> Result<Streamed, String> {
    let (mut live_hash, mut rejected) = (0, 0);
    let mut completed = 0;
    let mut total_flow = 0.0;
    let started = Instant::now();
    for cmd in cmds {
        if matches!(cmd, Command::Shutdown) {
            completed = svc.session().completed();
            total_flow = svc.session().count_integral();
        }
        let t = Instant::now();
        let reply = svc.apply(cmd)?;
        let dt = t.elapsed();
        match (cmd, reply) {
            (Command::Submit { .. }, reply) => {
                submit_us.push(dt.as_secs_f64() * 1e6);
                rejected += usize::from(!matches!(reply, Reply::Assigned { .. }));
            }
            (_, Reply::Hash(h)) => {
                probe_ns.push(dt.as_nanos() as f64);
                live_hash = h
            }
            (_, Reply::Err(e)) => return Err(format!("{cmd:?} rejected: {e}")),
            _ => {}
        }
    }
    svc.flush()?;
    Ok(Streamed {
        wall_s: started.elapsed().as_secs_f64(),
        live_hash,
        total_flow,
        completed,
        rejected,
    })
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let journal = crate::out_dir()?.join(format!("serve-journal-{}.log", std::process::id()));
    let result = if args.trace {
        run_traced(args, &journal)
    } else {
        run_e2e(args, &journal)
    };
    let _ = std::fs::remove_file(&journal);
    result
}

fn run_e2e(args: &Args, journal: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setup_s, mut submit_us, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    let mut calls = stats::Fastest::new(JOBS);
    let mut first: Option<(Streamed, Tree, Vec<Job>)> = None;
    let (mut peak_rss_mb, mut hash_mismatches) = (0.0, 0usize);
    let started = Instant::now();
    while rates.len() < MIN_PASSES || started.elapsed().as_secs_f64() < args.seconds {
        let t = Instant::now();
        let mut pass = setup(args.seed, journal)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let cmds = commands(&pass.arrivals);
        let from = submit_us.len();
        let s = stream(&mut pass.svc, &cmds, &mut submit_us, &mut Vec::new())?;
        drop(pass.svc);
        for (k, us) in submit_us[from..].iter().enumerate() {
            calls.observe(k, us * 1e-6);
        }
        out.attempted += JOBS as u64;
        out.failed += s.rejected as u64;
        rates.push(JOBS as f64 / s.wall_s);
        match &first {
            None => {
                peak_rss_mb = host::peak_rss_mb()?;
                first = Some((s, pass.tree, pass.arrivals));
            }
            Some((f, _, _)) => hash_mismatches += usize::from(f.live_hash != s.live_hash),
        }
    }
    let (s, tree, arrivals) = first.expect("at least one pass");

    // Checks, untimed. The journal on disk is the last pass's.
    out.checks.push(Check::new(
        "serve: every Submit is Assigned and every job completes",
        out.failed == 0 && s.completed == JOBS,
        format!(
            "{} rejected of {}; {} of {JOBS} completed",
            out.failed, out.attempted, s.completed
        ),
    ));
    out.checks.push(Check::new(
        "serve: every pass ends in the same state hash",
        hash_mismatches == 0,
        format!(
            "live hash {:016x}; {hash_mismatches} of {} passes differ",
            s.live_hash,
            rates.len()
        ),
    ));
    let t = Instant::now();
    let replayed = replay_file(journal);
    let replay_s = t.elapsed().as_secs_f64();
    out.checks.push(match &replayed {
        Ok(r) => Check::new(
            "serve: the journal replays verified and live_hash == replay_hash",
            r.verified() && r.final_hash == s.live_hash && r.clean_shutdown,
            format!(
                "{} records, {} probes, {} mismatches, replay hash {:016x}",
                r.commands,
                r.probes,
                r.mismatches.len(),
                r.final_hash
            ),
        ),
        Err(e) => Check::new(
            "serve: the journal replays verified and live_hash == replay_hash",
            false,
            format!("replay failed: {e}"),
        ),
    });
    if let Ok(r) = &replayed {
        out.notes.push(format!(
            "replay_records_per_s {:.0} 1/s ({} records in {replay_s:.4} s)",
            r.commands as f64 / replay_s,
            r.commands
        ));
    }
    let inst = Instance::new(tree, arrivals).map_err(|e| format!("instance: {e}"))?;
    let (flow_ratio, check) =
        crate::sim::flow_vs_bound(&inst, s.total_flow, "serve: flow >= lower bound");
    out.checks.push(check);

    out.notes.push(format!(
        "decisions_per_s over whole passes of {JOBS} submits: median {:.0} 1/s, fastest {:.0} 1/s, {} passes",
        stats::median(&rates),
        stats::quantile(&rates, 1.0),
        rates.len(),
    ));
    out.notes.push(format!(
        "decision_p50_us {:.3} us, decision_p99_us {:.3} us over every submit of every pass: {}",
        stats::quantile(&submit_us, 0.50),
        stats::quantile(&submit_us, 0.99),
        stats::describe(&submit_us, "us"),
    ));
    E2eSamples {
        setup_s,
        peak_rss_mb,
        flow_ratio,
        calls,
        jobs: JOBS as f64,
    }
    .into_outcome(&mut out)?;
    Ok(out)
}

/// The traced run. Each pass streams the commands through a journaling
/// `Service`, which times its `apply(HashProbe)` calls; then feeds the
/// same submits and tick to a `SimSession` with wrapped policies, which
/// must complete the same jobs with a bit-identical total flow; then appends the journal's
/// own records (bar the probes, journaled inside `apply(HashProbe)`)
/// with a `LogWriter` to a file.
fn run_traced(args: &Args, journal: &Path) -> Result<Outcome, String> {
    let clock_ns = host::clock_read_ns();
    let mut tracer = Tracer::new(clock_ns);
    let mut out = Outcome::default();
    let combo = spec::parse_policy(POLICY)?;
    let speeds = spec::parse_speeds(SPEEDS)?;
    let appended_journal = journal.with_extension("appended.log");
    let (mut untraced_ns, mut traced_ns, mut passes, mut diverged) = (0.0, 0.0, 0u64, 0u64);
    let (mut tree_s, mut instance_s, mut submits, mut appended) = (0.0, 0.0, 0u64, 0u64);
    let mut recorded: Option<Vec<Command>> = None;
    let (mut scratch_us, mut probe_ns) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while passes < 2 || started.elapsed().as_secs_f64() < args.seconds {
        let mut pass = setup(args.seed, journal)?;
        tree_s += pass.tree_s;
        instance_s += pass.instance_s;
        let cmds = commands(&pass.arrivals);
        let s = stream(&mut pass.svc, &cmds, &mut scratch_us, &mut probe_ns)?;
        scratch_us.clear();
        untraced_ns += s.wall_s * 1e9;
        out.attempted += JOBS as u64;
        out.failed += s.rejected as u64;
        for ns in probe_ns.drain(..) {
            tracer.record("serve.hash_probe", ns);
            traced_ns += ns;
        }
        // Every pass journals the same records.
        let recorded = match &mut recorded {
            Some(r) => r,
            None => recorded.insert(journal_commands(journal)?),
        };

        let mut session = SimSession::new(pass.tree.clone(), SessionConfig::new(speeds.clone()))
            .map_err(|e| format!("session: {e}"))?;
        session.reserve(JOBS, pass.tree.max_leaf_depth() as usize + 1);
        let node_policy = combo.node.build();
        let mut assign_policy = combo.assign.build(None);
        let node = TimedNode::new(node_policy.as_ref(), KEY_SAMPLE, clock_ns);
        let mut assign = TimedAssign::new(assign_policy.as_mut(), 1, clock_ns);
        let t = Instant::now();
        for cmd in &cmds {
            match *cmd {
                Command::Submit { release, size } => {
                    tracer.enter("sim.session.submit");
                    let res = session.submit(release, size, &node, &mut assign);
                    tracer.exit(&[node.sampler.take(), assign.sampler.take()], 0.0);
                    res.map_err(|e| format!("submit: {e}"))?;
                    submits += 1;
                }
                Command::Tick { t } => {
                    tracer.enter("sim.session.tick");
                    let res = session.tick(t, &node, &mut assign);
                    tracer.exit(&[node.sampler.take(), assign.sampler.take()], 0.0);
                    res.map_err(|e| format!("tick: {e}"))?;
                }
                Command::HashProbe { .. } | Command::Shutdown => {}
                _ => return Err(format!("unexpected command {cmd:?}")),
            }
        }
        traced_ns += t.elapsed().as_nanos() as f64;
        let same = session.count_integral().to_bits() == s.total_flow.to_bits()
            && session.completed() == s.completed;
        diverged += u64::from(!same);

        let file = File::create(&appended_journal)
            .map_err(|e| format!("{}: {e}", appended_journal.display()))?;
        let mut log = LogWriter::new(BufWriter::new(file), &config())?;
        let t = Instant::now();
        tracer.enter("serve.log.append");
        let mut res = Ok(());
        for cmd in recorded.iter() {
            if !matches!(cmd, Command::HashProbe { .. }) {
                res = res.and_then(|()| log.append(cmd));
                appended += 1;
            }
        }
        let res = res.and_then(|()| log.flush());
        tracer.exit(&[], 0.0);
        traced_ns += t.elapsed().as_nanos() as f64;
        res?;
        log.into_inner()?;
        passes += 1;
    }
    let _ = std::fs::remove_file(&appended_journal);
    out.checks.push(Check::new(
        "trace: with wrapped policies the session completes the service's jobs with its total flow",
        diverged == 0,
        format!("{diverged} of {passes} passes differ"),
    ));

    // Decode every command record of the last journal.
    let bytes = std::fs::read(journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    let (decode_ns, records) = decode_all(&bytes)?;

    let submit = tracer.layer("sim.session.submit");
    let tick = tracer.layer("sim.session.tick");
    let key = tracer.layer("policies.node.key");
    let assign = tracer.layer("policies.assign");
    let append = tracer.layer("serve.log.append");
    let probe = tracer.layer("serve.hash_probe");
    let m = &mut out.metrics;
    m.insert("core.tree_s", tree_s / passes as f64);
    m.insert("workloads.instance_s", instance_s / passes as f64);
    m.insert(
        "sim.session.submit_us",
        submit.self_ns * 1e-3 / submits as f64,
    );
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
    m.insert(
        "serve.log.append_ns",
        append.total_ns / appended.max(1) as f64,
    );
    m.insert(
        "serve.hash_probe_us",
        probe.total_ns * 1e-3 / probe.calls.max(1) as f64,
    );
    m.insert("serve.protocol.decode_ns", decode_ns);
    out.notes.push(format!(
        "{passes} passes; per submit: session self {:.3} us, assignment {:.3} us, node keys {:.3} us, \
         journal append {:.3} us; final tick {:.4} s; {records} records decoded",
        submit.self_ns * 1e-3 / submits as f64,
        assign.total_ns * 1e-3 / submits as f64,
        key.total_ns * 1e-3 / submits as f64,
        append.total_ns * 1e-3 / appended.max(1) as f64,
        tick.total_ns * 1e-9 / passes as f64,
    ));
    crate::attribution(&mut out, &tracer, untraced_ns, traced_ns);
    let path = crate::out_dir()?.join(format!("trace-serve-greedy-{}.jsonl", args.seed));
    tracer.write(&path, &format!("{{\"host\": {}}}", host::fingerprint()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(out)
}

/// The payload range of every command record of a journal.
fn journal_records(bytes: &[u8]) -> Result<Vec<std::ops::Range<usize>>, String> {
    let corrupt = || "journal header is truncated".to_string();
    let rest = bytes
        .strip_prefix(MAGIC.as_slice())
        .ok_or("journal has no magic")?;
    let hlen = u32::from_le_bytes(
        rest.get(..4)
            .ok_or_else(corrupt)?
            .try_into()
            .map_err(|_| corrupt())?,
    );
    let mut at = 4 + hlen as usize + 8;
    let mut payloads = Vec::new();
    while let Some((range, len)) =
        next_record(rest.get(at..).ok_or_else(corrupt)?).map_err(|e| e.to_string())?
    {
        payloads.push((MAGIC.len() + at + range.start)..(MAGIC.len() + at + range.end));
        at += len;
    }
    Ok(payloads)
}

/// The commands a journal file records, in order.
fn journal_commands(journal: &Path) -> Result<Vec<Command>, String> {
    let bytes = std::fs::read(journal).map_err(|e| format!("{}: {e}", journal.display()))?;
    journal_records(&bytes)?
        .into_iter()
        .map(|r| decode_command(&bytes[r]).map_err(|e| e.to_string()))
        .collect()
}

/// `decode_command` over every command record of a journal: mean
/// nanoseconds per record (median of five trials) and the record count.
fn decode_all(bytes: &[u8]) -> Result<(f64, usize), String> {
    let payloads = journal_records(bytes)?;
    let mut trials: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for r in &payloads {
                let _ = black_box(decode_command(black_box(&bytes[r.clone()])));
            }
            t.elapsed().as_nanos() as f64 / payloads.len().max(1) as f64
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    Ok((trials[2], payloads.len()))
}
