//! Streaming aggregation over sweep rows: scalar accumulators plus
//! fixed-bucket log-scale histograms for quantiles, grouped by policy.
//!
//! Everything here is O(1) memory per group. The counts and histograms
//! are commutative, but float *sums* depend on the order rows are folded
//! in, so sweeps build their aggregate with [`StreamingAgg::from_rows`],
//! which folds in cell-index order: the summary's bytes then depend on
//! the rows alone, never on which worker finished first.

use crate::sweep::{RowOutcome, SweepRow};
use std::collections::BTreeMap;

/// Log-spaced fixed-bucket histogram over `(0, ∞)`.
///
/// Values map to `floor(BUCKETS_PER_DECADE · log10(v / LO))`, clamped
/// into range, so quantiles come back as conservative (upper) bucket
/// edges with ~16% relative resolution across 12 decades — plenty for
/// flow times and competitive ratios.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
}

/// Smallest representable value; everything below lands in bucket 0.
const LO: f64 = 1e-3;
/// Buckets per factor-of-10.
const BUCKETS_PER_DECADE: f64 = 16.0;
/// 12 decades from 1e-3 to 1e9.
const NUM_BUCKETS: usize = (12.0 * BUCKETS_PER_DECADE) as usize;

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: vec![0; NUM_BUCKETS], count: 0 }
    }
}

impl Histogram {
    fn bucket_of(v: f64) -> usize {
        if !v.is_finite() || v <= LO {
            return 0;
        }
        let b = (BUCKETS_PER_DECADE * (v / LO).log10()).floor() as usize;
        b.min(NUM_BUCKETS - 1)
    }

    /// Upper edge of bucket `b` (the value reported for quantiles).
    fn edge_of(b: usize) -> f64 {
        LO * 10f64.powf((b + 1) as f64 / BUCKETS_PER_DECADE)
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as an upper bucket edge, or
    /// `None` before any observation.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::edge_of(b));
            }
        }
        None
    }
}

/// Streaming scalar statistics (count / mean / min / max).
#[derive(Clone, Debug, Default)]
pub struct Scalar {
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Scalar {
    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if self.n == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.n += 1;
        self.sum += v;
    }

    /// Mean over observations (`0` when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 { 0.0 } else { self.sum / self.n as f64 }
    }

    /// Maximum observation (`0` when empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 { 0.0 } else { self.max }
    }

    /// Count of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Minimum observation (`0` when empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 { 0.0 } else { self.min }
    }
}

/// Per-policy accumulators.
#[derive(Clone, Debug, Default)]
pub struct GroupStats {
    /// Cells aggregated into this group.
    pub cells: u64,
    /// Failed cells (excluded from the numeric accumulators).
    pub failed: u64,
    /// Mean flow time per cell.
    pub mean_flow: Scalar,
    /// Max flow time per cell.
    pub max_flow: Scalar,
    /// ALG / lower-bound competitive ratio per cell.
    pub ratio: Scalar,
    /// Histogram of per-cell mean flow (p50/p95/p99).
    pub flow_hist: Histogram,
    /// Histogram of per-cell competitive ratios.
    pub ratio_hist: Histogram,
}

/// The in-memory streaming aggregator fed one [`SweepRow`] at a time.
#[derive(Clone, Debug, Default)]
pub struct StreamingAgg {
    /// Whole-sweep accumulators.
    pub overall: GroupStats,
    /// Accumulators keyed by policy label (BTreeMap: stable render order).
    pub by_policy: BTreeMap<String, GroupStats>,
    /// Accumulators keyed by `"{policy}|{speeds}"` — the finer grouping
    /// that separates a policy's behavior across speed profiles (the
    /// resource-augmentation axis), which `by_policy` averages away.
    pub by_policy_speed: BTreeMap<String, GroupStats>,
}

/// The composite key of [`StreamingAgg::by_policy_speed`]. `|` cannot
/// appear in either spec grammar, so the key parses back unambiguously.
fn policy_speed_key(row: &SweepRow) -> String {
    format!("{}|{}", row.policy, row.speeds)
}

impl StreamingAgg {
    /// Aggregate `rows` in cell-index order, whatever order they are
    /// given in — the deterministic form every sweep report uses.
    pub fn from_rows(rows: &[SweepRow]) -> StreamingAgg {
        let mut sorted: Vec<&SweepRow> = rows.iter().collect();
        sorted.sort_by_key(|r| r.cell);
        let mut agg = StreamingAgg::default();
        for row in sorted {
            agg.observe(row);
        }
        agg
    }

    /// Fold one row in.
    pub fn observe(&mut self, row: &SweepRow) {
        let fine = self.by_policy_speed.entry(policy_speed_key(row)).or_default();
        let group = self.by_policy.entry(row.policy.clone()).or_default();
        for g in [&mut self.overall, group, fine] {
            g.cells += 1;
            match &row.outcome {
                RowOutcome::Failed { .. } => g.failed += 1,
                RowOutcome::Ok(m) => {
                    g.mean_flow.observe(m.mean_flow);
                    g.max_flow.observe(m.max_flow);
                    g.flow_hist.observe(m.mean_flow);
                    if m.ratio > 0.0 {
                        g.ratio.observe(m.ratio);
                        g.ratio_hist.observe(m.ratio);
                    }
                }
            }
        }
    }

    /// Plain-text summary table (one line per policy plus a total).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>6} {:>6} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8}\n",
            "policy", "cells", "fail", "mean flow", "max flow", "p50", "p95", "p99", "ratio"
        ));
        let fmt_group = |name: &str, g: &GroupStats| {
            let q = |p: f64| {
                g.flow_hist
                    .quantile(p)
                    .map(|v| format!("{v:.2}"))
                    .unwrap_or_else(|| "-".into())
            };
            format!(
                "{:<28} {:>6} {:>6} {:>10.3} {:>10.3} {:>8} {:>8} {:>8} {:>8.3}\n",
                name,
                g.cells,
                g.failed,
                g.mean_flow.mean(),
                g.max_flow.max(),
                q(0.50),
                q(0.95),
                q(0.99),
                g.ratio.mean(),
            )
        };
        for (policy, g) in &self.by_policy {
            out.push_str(&fmt_group(policy, g));
        }
        // The policy × speed breakdown adds a line per combination —
        // only worth the space when some policy ran at several speeds.
        if self.by_policy_speed.len() > self.by_policy.len() {
            for (key, g) in &self.by_policy_speed {
                out.push_str(&fmt_group(key, g));
            }
        }
        out.push_str(&fmt_group("TOTAL", &self.overall));
        out
    }

    /// Machine-readable summary: the same statistics as [`render`],
    /// as one JSON object. Emission is deterministic — groups iterate
    /// in `BTreeMap` key order, fields in a fixed order, and floats
    /// print via Rust's shortest-roundtrip `Display` — so two
    /// aggregations over the same rows produce identical bytes.
    ///
    /// [`render`]: StreamingAgg::render
    pub fn summary_json(&self) -> String {
        let mut out = String::from("{\"tool\":\"bct-harness\",\"version\":1,\"overall\":");
        out.push_str(&group_json(&self.overall));
        for (section, groups) in [
            ("by_policy", &self.by_policy),
            ("by_policy_speed", &self.by_policy_speed),
        ] {
            out.push_str(&format!(",\"{section}\":{{"));
            for (i, (key, g)) in groups.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":{}", escape_json(key), group_json(g)));
            }
            out.push('}');
        }
        out.push_str("}\n");
        out
    }
}

/// One group as a JSON object with a fixed field order.
fn group_json(g: &GroupStats) -> String {
    let scalar = |s: &Scalar| {
        format!(
            "{{\"count\":{},\"mean\":{},\"min\":{},\"max\":{}}}",
            s.count(),
            json_num(s.mean()),
            json_num(s.min()),
            json_num(s.max())
        )
    };
    let quants = |h: &Histogram| {
        format!(
            "{{\"p50\":{},\"p95\":{},\"p99\":{}}}",
            json_opt(h.quantile(0.50)),
            json_opt(h.quantile(0.95)),
            json_opt(h.quantile(0.99))
        )
    };
    format!(
        "{{\"cells\":{},\"failed\":{},\"mean_flow\":{},\"max_flow\":{},\"ratio\":{},\"flow_quantiles\":{},\"ratio_quantiles\":{}}}",
        g.cells,
        g.failed,
        scalar(&g.mean_flow),
        scalar(&g.max_flow),
        scalar(&g.ratio),
        quants(&g.flow_hist),
        quants(&g.ratio_hist)
    )
}

/// A float as a JSON number; non-finite values become `null` rather
/// than invalid JSON.
fn json_num(v: f64) -> String {
    if v.is_finite() { format!("{v}") } else { "null".into() }
}

fn json_opt(v: Option<f64>) -> String {
    v.map(json_num).unwrap_or_else(|| "null".into())
}

/// Minimal JSON string escaping for policy labels.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::CellMetrics;

    fn row(policy: &str, mean_flow: f64, ratio: f64) -> SweepRow {
        SweepRow {
            cell: 0,
            topo: "star:2,2".into(),
            workload: "n10".into(),
            policy: policy.into(),
            speeds: "uniform:1.5".into(),
            replication: 0,
            seed: 1,
            attempts: 1,
            outcome: RowOutcome::Ok(CellMetrics {
                jobs: 10,
                total_flow: mean_flow * 10.0,
                mean_flow,
                max_flow: mean_flow * 2.0,
                makespan: 30.0,
                events: 100,
                lower_bound: mean_flow * 10.0 / ratio,
                ratio,
            }),
        }
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = Histogram::default();
        for i in 1..=100 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 >= 50.0 && p50 <= 60.0, "p50 = {p50}");
        assert!(p99 >= 99.0 && p99 <= 115.0, "p99 = {p99}");
        assert!(h.quantile(1.0).unwrap() >= 100.0);
    }

    #[test]
    fn histogram_is_order_independent() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let vals: Vec<f64> = (1..200).map(|i| (i as f64) * 0.37).collect();
        for &v in &vals {
            a.observe(v);
        }
        for &v in vals.iter().rev() {
            b.observe(v);
        }
        for q in [0.5, 0.9, 0.95, 0.99] {
            assert_eq!(a.quantile(q), b.quantile(q));
        }
    }

    #[test]
    fn groups_accumulate_failures_separately() {
        let mut agg = StreamingAgg::default();
        agg.observe(&row("sjf+greedy", 4.0, 1.5));
        agg.observe(&row("sjf+closest", 9.0, 2.5));
        let mut failed = row("sjf+closest", 0.0, 0.0);
        failed.outcome = RowOutcome::Failed { panic_msg: "boom".into() };
        agg.observe(&failed);
        assert_eq!(agg.overall.cells, 3);
        assert_eq!(agg.overall.failed, 1);
        assert_eq!(agg.by_policy["sjf+closest"].failed, 1);
        assert_eq!(agg.by_policy["sjf+greedy"].mean_flow.count(), 1);
        let rendered = agg.render();
        assert!(rendered.contains("sjf+greedy") && rendered.contains("TOTAL"));
        // Single speed profile: the policy × speed breakdown would just
        // repeat the per-policy lines, so render omits it.
        assert!(!rendered.contains('|'), "{rendered}");
    }

    #[test]
    fn policy_speed_grouping_separates_augmentation_levels() {
        let mut agg = StreamingAgg::default();
        let mut fast = row("sjf+greedy", 2.0, 1.2);
        fast.speeds = "uniform:2".into();
        agg.observe(&row("sjf+greedy", 4.0, 1.5));
        agg.observe(&fast);
        assert_eq!(agg.by_policy["sjf+greedy"].cells, 2);
        assert_eq!(agg.by_policy_speed["sjf+greedy|uniform:1.5"].cells, 1);
        assert_eq!(agg.by_policy_speed["sjf+greedy|uniform:2"].cells, 1);
        // Two speeds under one policy: the finer table is rendered.
        let rendered = agg.render();
        assert!(rendered.contains("sjf+greedy|uniform:2"), "{rendered}");
        // The JSON summary carries both sections, deterministically.
        let json = agg.summary_json();
        let parsed: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let fine = parsed.get("by_policy_speed").expect("by_policy_speed section");
        let g = fine.get("sjf+greedy|uniform:2").expect("fine group");
        assert_eq!(g.get("cells"), Some(&serde::Value::Int(1)));
        let mut swapped = StreamingAgg::default();
        swapped.observe(&fast);
        swapped.observe(&row("sjf+greedy", 4.0, 1.5));
        assert_eq!(json, swapped.summary_json(), "bytes independent of order");
    }

    #[test]
    fn summary_json_is_deterministic_and_well_formed() {
        // 0.1 + 0.2 + 0.3 and 0.3 + 0.2 + 0.1 differ in the last bit, so
        // folding in arrival order would make the mean depend on it.
        let rows: Vec<SweepRow> = [("sjf+greedy", 0.1), ("sjf+closest", 0.2), ("sjf+greedy", 0.3)]
            .iter()
            .enumerate()
            .map(|(cell, &(policy, flow))| SweepRow { cell, ..row(policy, flow, 1.5) })
            .collect();
        let reversed: Vec<SweepRow> = rows.iter().rev().cloned().collect();
        let a = StreamingAgg::from_rows(&rows).summary_json();
        let b = StreamingAgg::from_rows(&reversed).summary_json();
        assert_eq!(a, b, "summary bytes must not depend on arrival order");
        let mut in_order = StreamingAgg::default();
        for r in &rows {
            in_order.observe(r);
        }
        assert_eq!(a, in_order.summary_json(), "from_rows folds in cell order");
        // Keys come out sorted (BTreeMap order).
        assert!(a.find("sjf+closest").unwrap() < a.find("sjf+greedy").unwrap());
        // Parses under the workspace JSON parser.
        let parsed: serde::Value = serde_json::from_str(&a).expect("valid JSON");
        let overall = parsed.get("overall").expect("overall");
        assert_eq!(overall.get("cells"), Some(&serde::Value::Int(3)));
        let flow = overall.get("mean_flow").expect("mean_flow");
        assert_eq!(flow.get("count"), Some(&serde::Value::Int(3)));
        let p50 = overall.get("flow_quantiles").and_then(|q| q.get("p50"));
        assert!(matches!(p50, Some(serde::Value::Float(v)) if *v > 0.0), "{p50:?}");
    }

    #[test]
    fn summary_json_handles_empty_and_failed_groups() {
        let empty = StreamingAgg::default().summary_json();
        let parsed: serde::Value = serde_json::from_str(&empty).expect("valid JSON");
        let p50 = parsed
            .get("overall")
            .and_then(|o| o.get("flow_quantiles"))
            .and_then(|q| q.get("p50"));
        assert_eq!(p50, Some(&serde::Value::Null));

        let mut agg = StreamingAgg::default();
        let mut failed = row("chaos", 0.0, 0.0);
        failed.outcome = RowOutcome::Failed { panic_msg: "boom".into() };
        agg.observe(&failed);
        let parsed: serde::Value =
            serde_json::from_str(&agg.summary_json()).expect("valid JSON");
        let chaos = parsed
            .get("by_policy")
            .and_then(|m| m.get("chaos"))
            .expect("chaos group");
        assert_eq!(chaos.get("failed"), Some(&serde::Value::Int(1)));
        let p99 = chaos.get("ratio_quantiles").and_then(|q| q.get("p99"));
        assert_eq!(p99, Some(&serde::Value::Null));
    }
}
