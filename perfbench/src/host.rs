//! What the host is and how fast it is running right now.
//!
//! Every result is stamped with a fingerprint (cores, CPU model,
//! compiler, source revision) and with a calibration figure, the time
//! of a fixed integer loop taken before and after the workload. A slow
//! host then shows as a slow `host.calib_ns`, not as a regression.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration loop.
const CALIB_ITERS: u64 = 2_000_000;

/// Nanoseconds for [`CALIB_ITERS`] steps of a xorshift generator, the
/// median of five trials. The loop touches no memory, so it tracks CPU
/// frequency and steal time, not caches.
pub fn calibrate() -> f64 {
    let mut trials: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
            for _ in 0..CALIB_ITERS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            black_box(x);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    trials[2]
}

/// The cost of one `Instant::now()` read in nanoseconds, the median of
/// five trials of 100k back-to-back reads. Trace spans subtract it.
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let mut trials: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..READS {
                black_box(Instant::now());
            }
            start.elapsed().as_nanos() as f64 / f64::from(READS + 1)
        })
        .collect();
    trials.sort_by(f64::total_cmp);
    trials[2]
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One-line JSON fingerprint of the host and the code under test.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|l| l.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"git_rev\": \"{}\"}}",
        escape(&cpu),
        escape(env!("PERFBENCH_RUSTC")),
        escape(&git_rev()),
    )
}

/// The checked-out revision, read from `.git` in the working directory;
/// `none` when the benchmark runs outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Escape a string for a JSON string literal.
pub fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect()
}
