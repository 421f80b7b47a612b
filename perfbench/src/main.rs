//! The repository's benchmark: three workloads over the paper's
//! scheduler, each measured end to end, checked for correct output, and
//! broken down by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim-acceptance --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones of [`E2E`]; with `--trace 1` they are
//! the per-layer ones of [`LAYERS`]. Every line before it is a readable
//! report: the host fingerprint, each output check, and every metric
//! with its unit and sample count. The exit code is 0 only if every
//! output check passed.

mod host;
mod serve;
mod sim;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
/// Each workload's module says what its unit of work and its "call" are.
pub const E2E: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "jobs/s"),
    ("flow_ratio", "ratio"),
    ("call_p50_us", "us"),
    ("call_p99_us", "us"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload never calls reads 0 there.
pub const LAYERS: [(&str, &str); 25] = [
    ("core.tree_s", "s"),
    ("workloads.instance_s", "s"),
    ("sim.engine.run_s", "s"),
    ("sim.engine.self_s", "s"),
    ("sim.engine.events", "count"),
    ("sim.trace.starts", "count"),
    ("sim.trace.preempts", "count"),
    ("sim.evq.ns_per_op", "ns"),
    ("sim.view.agg_query_ns", "ns"),
    ("sim.session.submit_us", "us"),
    ("policies.node.key_calls", "count"),
    ("policies.node.key_ns", "ns"),
    ("policies.assign.calls", "count"),
    ("policies.assign.ns_per_call", "ns"),
    ("sched.greedy.score_ns", "ns"),
    ("lp.eta_bound_s", "s"),
    ("lp.pooled_srpt_s", "s"),
    ("harness.run_cell_s", "s"),
    ("harness.overhead_frac", "ratio"),
    ("serve.log.append_ns", "ns"),
    ("serve.hash_probe_us", "us"),
    ("serve.protocol.decode_ns", "ns"),
    ("host.calib_ns", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
];

/// In the traced run, the per-layer self times must add up to the
/// untraced wall time of the same work within this share of it.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

/// One output check and what it saw.
pub struct Check {
    /// What is checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// The evidence, for the report.
    pub detail: String,
}

impl Check {
    /// A check that held iff `ok`.
    pub fn new(name: &'static str, ok: bool, detail: String) -> Check {
        Check { name, ok, detail }
    }
}

/// What a workload hands back to the reporter.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations among them that failed or were refused.
    pub failed: u64,
    /// Output checks, run outside the timed phase.
    pub checks: Vec<Check>,
    /// Metric values by name (the end-to-end or the per-layer set).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Report lines: the workload-specific figures behind each metric.
    pub notes: Vec<String>,
}

/// Set-ups spread evenly over the measured window, so that `setup_s`,
/// a median, sees the same mix of fast and slow host phases as the
/// window does rather than one instant before it.
pub struct SetupSchedule {
    seconds: f64,
    done: usize,
}

impl SetupSchedule {
    /// Set-ups per window.
    const SLOTS: usize = 8;

    /// A schedule over a window of `seconds`.
    pub fn new(seconds: f64) -> SetupSchedule {
        SetupSchedule { seconds, done: 0 }
    }

    /// Whether the next set-up is due `elapsed` seconds into the window.
    /// The first is due only after the first unit, whose peak memory is
    /// read before any extra set-up adds to it.
    pub fn due(&mut self, elapsed: f64) -> bool {
        let slot = (self.done + 1) as f64 / (Self::SLOTS + 1) as f64;
        let due = self.done < Self::SLOTS && elapsed >= self.seconds * slot;
        self.done += usize::from(due);
        due
    }
}

/// A workload's raw end-to-end measurements.
///
/// A workload is a fixed set of distinct calls — sim: one simulation
/// of each of its instances; sweep: one replication group of the grid;
/// serve: one `Submit` of the command stream — repeated for the whole
/// window. Each call's latency is its fastest repeat.
///
/// The host runs in fast and slow phases (within one 10-s run the same
/// simulation took between 27 and 87 ms), so a mean or median over the
/// window measures the host's mix of phases, and so did the fastest of
/// a few long units: the fastest whole sweep (0.6–0.9 s) moved by 27%
/// between two sets of runs 25 minutes apart while the fastest 40-ms
/// simulation moved by 4%. A call of a few milliseconds or less, repeated
/// tens of times, has a repeat inside a fast phase; its fastest repeat
/// is bounded by the program, not by luck. The report prints the
/// whole-unit figures beside them.
pub struct E2eSamples {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Peak resident memory after the first measured unit, MiB.
    pub peak_rss_mb: f64,
    /// Total flow time over the combinatorial lower bound.
    pub flow_ratio: f64,
    /// Each distinct call's fastest repeat.
    pub calls: stats::Fastest,
    /// Jobs carried by all the distinct calls together.
    pub jobs: f64,
}

impl E2eSamples {
    /// Set the end-to-end metrics and add their report lines:
    /// `jobs_per_s` is the jobs over the sum of the calls' fastest
    /// times; `call_p50_us` and `call_p99_us` are exact percentiles
    /// over the calls of their fastest times.
    pub fn into_outcome(self, out: &mut Outcome) -> Result<(), String> {
        let best = self.calls.best_s()?;
        let call_us: Vec<f64> = best.iter().map(|s| s * 1e6).collect();
        let p50 = stats::quantile(&call_us, 0.50);
        let p99 = stats::quantile(&call_us, 0.99);
        let m = &mut out.metrics;
        m.insert("setup_s", stats::median(&self.setup_s));
        m.insert("peak_rss_mb", self.peak_rss_mb);
        m.insert("jobs_per_s", self.jobs / best.iter().sum::<f64>());
        m.insert("flow_ratio", self.flow_ratio);
        m.insert("call_p50_us", p50);
        m.insert("call_p99_us", p99);
        out.notes.push(format!(
            "setup_s over {} set-ups: median {:.6}, min {:.6}, max {:.6}",
            self.setup_s.len(),
            stats::median(&self.setup_s),
            stats::quantile(&self.setup_s, 0.0),
            stats::quantile(&self.setup_s, 1.0)
        ));
        out.notes.push(format!(
            "calls: {} distinct, each repeated at least {} times; fastest repeat per call: {}",
            call_us.len(),
            self.calls.min_repeats(),
            stats::describe(&call_us, "us")
        ));
        Ok(())
    }
}

/// Directory (inside the working directory) for journals and traces.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Per-layer self times against the untraced wall of the same work:
/// sets `trace.unattributed_frac` and `trace.overhead_frac` and adds the
/// attribution check and the check that no layer is overdrawn.
pub fn attribution(out: &mut Outcome, tracer: &trace::Tracer, untraced_ns: f64, traced_ns: f64) {
    let self_ns = tracer.self_total_ns();
    let unattributed = 1.0 - self_ns / untraced_ns;
    let overhead = traced_ns / untraced_ns - 1.0;
    out.metrics.insert("trace.unattributed_frac", unattributed);
    out.metrics.insert("trace.overhead_frac", overhead);
    out.checks.push(Check::new(
        "attribution: layer self times sum to the untraced wall",
        unattributed.abs() <= ATTRIBUTION_TOLERANCE,
        format!(
            "self {:.4} s vs untraced {:.4} s (unattributed {:+.4}, tolerance ±{ATTRIBUTION_TOLERANCE}); \
             traced wall {:.4} s (overhead {:+.4})",
            self_ns * 1e-9,
            untraced_ns * 1e-9,
            unattributed,
            traced_ns * 1e-9,
            overhead
        ),
    ));
    let overdrawn = tracer.overdrawn();
    out.checks.push(Check::new(
        "attribution: every layer's self time lies between 0 and its total",
        overdrawn.is_empty(),
        if overdrawn.is_empty() {
            "no layer's children outweigh it".to_string()
        } else {
            overdrawn
                .iter()
                .map(|(name, l)| {
                    format!(
                        "{name}: self {:.0} ns of total {:.0} ns",
                        l.self_ns, l.total_ns
                    )
                })
                .collect::<Vec<_>>()
                .join("; ")
        },
    ));
}

const USAGE: &str = "usage: perfbench --workload <sim-acceptance|sweep-mixed|serve-greedy> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("# host {}", host::fingerprint());
    let calib_before = host::calibrate();
    let result = match args.workload.as_str() {
        "sim-acceptance" => sim::run(&args),
        "sweep-mixed" => sweep::run(&args),
        "serve-greedy" => serve::run(&args),
        other => Err(format!("unknown workload '{other}'\n{USAGE}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    let calib_after = host::calibrate();
    let calib = 0.5 * (calib_before + calib_after);
    println!(
        "# host.calib_ns before {calib_before:.0} after {calib_after:.0} ({} iterations of xorshift)",
        2_000_000
    );
    if args.trace {
        out.metrics.insert("host.calib_ns", calib);
        // A layer this workload never calls reads 0.
        for (name, _) in LAYERS {
            out.metrics.entry(name).or_insert(0.0);
        }
    }
    if out.attempted == 0 {
        eprintln!("perfbench: {}: nothing was attempted", args.workload);
        return ExitCode::from(1);
    }
    report(&args, out)
}

/// Print the report and the JSON result line; exit 1 if a check failed.
fn report(args: &Args, out: Outcome) -> ExitCode {
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for note in &out.notes {
        println!("# {note}");
    }
    println!(
        "# failed_frac {} ratio ({} failed of {} attempted)",
        out.failed as f64 / out.attempted as f64,
        out.failed,
        out.attempted
    );
    let mut correct = true;
    for c in &out.checks {
        correct &= c.ok;
        println!(
            "# check {}: {} -- {}",
            if c.ok { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    let names: &[(&str, &str)] = if args.trace { &LAYERS } else { &E2E };
    let mut fields = Vec::new();
    for (name, unit) in names {
        let Some(&value) = out.metrics.get(name) else {
            eprintln!("perfbench: metric {name} was not measured");
            return ExitCode::from(1);
        };
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite ({value})");
            return ExitCode::from(1);
        }
        println!("# metric {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
    if correct && out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
