//! Exact order statistics over raw samples.

/// The `q`-quantile of `samples` by nearest rank: the smallest sample
/// with at least `q · n` samples at or below it. Exact, never
/// interpolated and never bucketed.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest rank, so always one of the samples).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// How many samples lie strictly above `value`.
pub fn beyond(samples: &[f64], value: f64) -> usize {
    samples.iter().filter(|&&s| s > value).count()
}

/// A latency summary: exact p50 and p99, the sample count, and how many
/// samples lie beyond each reported percentile.
pub fn describe(samples: &[f64], unit: &str) -> String {
    let p50 = quantile(samples, 0.50);
    let p99 = quantile(samples, 0.99);
    format!(
        "p50 {p50:.3} {unit} ({} beyond), p99 {p99:.3} {unit} ({} beyond), \
         max {:.3} {unit}, n = {}",
        beyond(samples, p50),
        beyond(samples, p99),
        quantile(samples, 1.0),
        samples.len()
    )
}

/// Each distinct call's fastest repeat over a run.
pub struct Fastest {
    best: Vec<f64>,
    repeats: Vec<usize>,
}

impl Fastest {
    /// A record for `calls` distinct calls, none repeated yet.
    pub fn new(calls: usize) -> Fastest {
        Fastest {
            best: vec![f64::INFINITY; calls],
            repeats: vec![0; calls],
        }
    }

    /// Call `call` took `secs` seconds this time.
    pub fn observe(&mut self, call: usize, secs: f64) {
        self.best[call] = self.best[call].min(secs);
        self.repeats[call] += 1;
    }

    /// Fewest repeats of any call.
    pub fn min_repeats(&self) -> usize {
        self.repeats.iter().copied().min().unwrap_or(0)
    }

    /// Each call's fastest time in seconds; an error if a call never ran.
    pub fn best_s(&self) -> Result<&[f64], String> {
        match self.repeats.iter().position(|&r| r == 0) {
            _ if self.best.is_empty() => Err("no calls were measured".into()),
            Some(call) => Err(format!("call {call} was never measured")),
            None => Ok(&self.best),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(beyond(&s, 99.0), 1);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fastest_keeps_each_calls_minimum() {
        let mut f = Fastest::new(2);
        assert!(f.best_s().is_err());
        f.observe(0, 3.0);
        f.observe(1, 2.0);
        f.observe(0, 1.0);
        assert_eq!(f.best_s().unwrap(), &[1.0, 2.0]);
        assert_eq!(f.min_repeats(), 1);
    }
}
