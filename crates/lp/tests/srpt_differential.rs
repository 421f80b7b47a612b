//! Differential test: `srpt_single_machine`, which keeps released,
//! unfinished jobs in a min-heap keyed on `(remaining work, index)`,
//! must reproduce the per-step full scan it replaced bit for bit.
//!
//! `scan_srpt` below is that scan, kept verbatim as the oracle. The
//! random suite draws releases in bursts of equal values and sizes that
//! are often equal (dyadic) so ties, and the lowest-index tie-break,
//! are exercised at every step; the instance suite runs generated
//! Poisson workloads through `pooled_srpt_bound`.

use bct_core::Time;
use bct_lp::bounds::{pooled_srpt_bound, srpt_single_machine};
use bct_workloads::jobs::{SizeDist, WorkloadSpec};
use bct_workloads::topo;
use proptest::prelude::*;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// SRPT total flow time by a full scan of the jobs at every step: the
/// shortest remaining released, unfinished job runs, the first of equal
/// minima winning.
fn scan_srpt(releases: &[Time], sizes: &[Time], speed: f64) -> Time {
    assert_eq!(releases.len(), sizes.len());
    assert!(speed > 0.0);
    let n = releases.len();
    let mut rem: Vec<Time> = sizes.to_vec();
    let mut done = vec![false; n];
    let mut next_arrival = 0usize; // releases are sorted by construction
    let mut now = 0.0;
    let mut total_flow = 0.0;
    let mut released = vec![false; n];
    loop {
        while next_arrival < n && releases[next_arrival] <= now + 1e-12 {
            released[next_arrival] = true;
            next_arrival += 1;
        }
        // Shortest remaining among released, unfinished.
        let cur = (0..n)
            .filter(|&j| released[j] && !done[j])
            .min_by(|&a, &b| rem[a].total_cmp(&rem[b]));
        match cur {
            Some(j) => {
                let finish = now + rem[j] / speed;
                let horizon = if next_arrival < n {
                    releases[next_arrival].min(finish)
                } else {
                    finish
                };
                rem[j] -= speed * (horizon - now);
                now = horizon;
                if rem[j] <= 1e-9 {
                    done[j] = true;
                    total_flow += now - releases[j];
                }
            }
            None => {
                if next_arrival >= n {
                    break;
                }
                now = releases[next_arrival];
            }
        }
    }
    total_flow
}

/// `n` jobs with sorted releases. About half the jobs share the
/// previous job's release, so releases come in bursts. With `dyadic`
/// set, gaps are multiples of 1/4 and sizes powers of two from 1/4 to
/// 8, so many remaining times tie exactly; otherwise both are
/// arbitrary floats.
fn random_jobs(rng: &mut ChaCha8Rng, n: usize, dyadic: bool) -> (Vec<Time>, Vec<Time>) {
    let mut t = 0.0;
    let mut releases = Vec::with_capacity(n);
    let mut sizes = Vec::with_capacity(n);
    for _ in 0..n {
        if rng.gen_bool(0.5) {
            t += if dyadic {
                f64::from(rng.gen_range(1..=12u32)) * 0.25
            } else {
                rng.gen_range(0.0..3.0)
            };
        }
        releases.push(t);
        sizes.push(if dyadic {
            2f64.powi(rng.gen_range(-2..=3))
        } else {
            rng.gen_range(0.01..10.0)
        });
    }
    (releases, sizes)
}

/// Machine speeds below, at and above 1.
const SPEEDS: [f64; 4] = [0.7, 1.0, 3.0, 16.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random jobs, dyadic or arbitrary, at every speed: the heap and
    /// the scan agree bit for bit.
    #[test]
    fn heap_matches_scan_on_random_jobs(
        seed in any::<u64>(),
        n in 0usize..300,
        dyadic in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (releases, sizes) = random_jobs(&mut rng, n, dyadic);
        for speed in SPEEDS {
            let heap = srpt_single_machine(&releases, &sizes, speed);
            let scan = scan_srpt(&releases, &sizes, speed);
            prop_assert_eq!(
                heap.to_bits(),
                scan.to_bits(),
                "speed {}: heap {} vs scan {}",
                speed,
                heap,
                scan
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Poisson workloads on a fat tree and a k-ary tree, with
    /// power-of-two and Pareto sizes, under and over load:
    /// `pooled_srpt_bound` equals the scan on the pooled machine bit
    /// for bit.
    #[test]
    fn pooled_bound_matches_scan_on_generated_instances(
        seed in any::<u64>(),
        fat in any::<bool>(),
        pareto in any::<bool>(),
        overloaded in any::<bool>(),
        n in 100usize..600,
    ) {
        let tree = if fat { topo::fat_tree(4, 2, 2) } else { topo::kary(3, 2) };
        let sizes = if pareto {
            SizeDist::Pareto { alpha: 1.5, min: 1.0 }
        } else {
            SizeDist::PowerOfBase { base: 2.0, max_k: 4 }
        };
        let rho = if overloaded { 1.5 } else { 0.8 };
        let inst = WorkloadSpec::poisson_identical(n, rho, sizes, &tree)
            .instance(&tree, seed)
            .unwrap();
        let releases: Vec<Time> = inst.jobs().iter().map(|j| j.release).collect();
        let job_sizes: Vec<Time> = inst.jobs().iter().map(|j| j.size).collect();
        let branches = tree.root_adjacent().len() as f64;
        for adversary_speed in [0.7, 1.0, 3.0] {
            let heap = pooled_srpt_bound(&inst, adversary_speed);
            let scan = scan_srpt(&releases, &job_sizes, adversary_speed * branches);
            prop_assert_eq!(
                heap.to_bits(),
                scan.to_bits(),
                "speed {}: heap {} vs scan {}",
                adversary_speed,
                heap,
                scan
            );
        }
    }
}
