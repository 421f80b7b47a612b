//! Textual specs for topologies, size distributions, speeds and
//! policies, so sweep files, the CLI, and scripts driving it can name
//! every configuration on one line.
//!
//! Grammar (everything after `:` is comma-separated numbers):
//!
//! * topology — `line:R`, `star:B,D`, `kary:K,D`, `caterpillar:S,L`,
//!   `broomstick:H,LEN,L`, `fat-tree:P,E,H`, `random:R,L` (seeded
//!   separately).
//! * sizes — `fixed:P`, `uniform:LO,HI`, `pareto:ALPHA,MIN`,
//!   `bimodal:SMALL,LARGE,PLARGE`, `pow:BASE,MAXK`.
//! * speeds — `uniform:S`, `layered:ROOT,DEEP`,
//!   `paper-identical:EPS`, `paper-unrelated:EPS`.
//! * policy — `NODE+ASSIGN` with nodes `sjf|sjf-classes:EPS|fifo|srpt|ljf|hdf`
//!   and assignments `greedy:EPS|greedy-unrel:EPS|greedy-no-dist:EPS|`
//!   `closest|random:SEED|round-robin|least-volume|min-eta|`
//!   `best-fit|min-active|random-feasible:SEED|chaos`
//!   (the capacity-aware trio reads the workload's `capacity` knob;
//!   `chaos` deliberately panics — fault-injection only).

use crate::registry::{AssignKind, NodePolicyKind, PolicyCombo};
use bct_core::{SpeedProfile, Tree};
use bct_workloads::jobs::SizeDist;
use bct_workloads::topo;
use rand::SeedableRng;

fn split(spec: &str) -> (&str, Vec<f64>) {
    match spec.split_once(':') {
        None => (spec, Vec::new()),
        Some((name, rest)) => {
            let nums = rest
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| s.parse::<f64>().unwrap_or(f64::NAN))
                .collect();
            (name, nums)
        }
    }
}

fn arg(nums: &[f64], i: usize, what: &str) -> Result<f64, String> {
    match nums.get(i) {
        Some(v) if v.is_finite() => Ok(*v),
        _ => Err(format!("missing/invalid argument {i} for {what}")),
    }
}

/// Argument `i` as a positive finite number.
fn positive(nums: &[f64], i: usize, what: &str) -> Result<f64, String> {
    let v = arg(nums, i, what)?;
    if v > 0.0 {
        Ok(v)
    } else {
        Err(format!("argument {i} for {what} must be positive, got {v}"))
    }
}

/// Optional argument `i`: `default` when absent, otherwise as
/// [`positive`].
fn positive_or(nums: &[f64], i: usize, what: &str, default: f64) -> Result<f64, String> {
    if i < nums.len() {
        positive(nums, i, what)
    } else {
        Ok(default)
    }
}

/// Argument `i` as a count: a positive integer.
fn count(nums: &[f64], i: usize, what: &str) -> Result<usize, String> {
    let v = arg(nums, i, what)?;
    if v < 1.0 || v.fract() > 0.0 {
        return Err(format!("argument {i} for {what} must be a positive integer, got {v}"));
    }
    // Saturates above usize::MAX; the node bound rejects such counts.
    Ok(v as usize)
}

/// Largest tree a topology spec may build, in nodes. The largest
/// checked-in topology, `fat-tree:16,8,8`, has 1,169.
const MAX_TOPOLOGY_NODES: usize = 1 << 20;

/// Nodes of `kary:K,D` below the root: `K + K² + … + K^D` routers plus
/// `K^D` machines, or `None` on overflow.
fn kary_nodes(k: usize, depth: usize) -> Option<usize> {
    let (mut level, mut total) = (1usize, 0usize);
    for _ in 0..depth {
        level = level.checked_mul(k)?;
        total = total.checked_add(level)?;
    }
    total.checked_add(level)
}

/// A topology spec that passed [`shape`]: its family and counts.
enum Shape {
    Line(usize),
    Star(usize, usize),
    Kary(usize, usize),
    Caterpillar(usize, usize),
    Broomstick(usize, usize, usize),
    FatTree(usize, usize, usize),
    Random(usize, usize),
}

/// Check a topology spec without building it: every count must be a
/// positive integer, and the tree must fit in [`MAX_TOPOLOGY_NODES`].
fn shape(spec: &str) -> Result<Shape, String> {
    let (name, n) = split(spec);
    let c = |i: usize| count(&n, i, name);
    let (shape, below_root) = match name {
        "line" => {
            let r = c(0)?;
            (Shape::Line(r), r.checked_add(1))
        }
        "star" => {
            let (b, d) = (c(0)?, c(1)?);
            (Shape::Star(b, d), d.checked_add(1).and_then(|v| v.checked_mul(b)))
        }
        "kary" => {
            let (k, d) = (c(0)?, c(1)?);
            (Shape::Kary(k, d), kary_nodes(k, d))
        }
        "caterpillar" => {
            let (s, l) = (c(0)?, c(1)?);
            (Shape::Caterpillar(s, l), l.checked_add(1).and_then(|v| v.checked_mul(s)))
        }
        "broomstick" => {
            let (h, len, l) = (c(0)?, c(1)?, c(2)?);
            if len < 2 {
                return Err(format!("argument 1 for broomstick must be at least 2, got {len}"));
            }
            // Per handle: `len` chain nodes, `l` machines on all but the
            // first.
            let nodes = (len - 1)
                .checked_mul(l)
                .and_then(|v| v.checked_add(len))
                .and_then(|v| v.checked_mul(h));
            (Shape::Broomstick(h, len, l), nodes)
        }
        "fat-tree" | "fattree" => {
            let (p, e, h) = (c(0)?, c(1)?, c(2)?);
            let nodes = h
                .checked_add(1)
                .and_then(|v| v.checked_mul(e))
                .and_then(|v| v.checked_add(1))
                .and_then(|v| v.checked_mul(p));
            (Shape::FatTree(p, e, h), nodes)
        }
        "random" => {
            let (r, l) = (c(0)?, c(1)?);
            // At most `r` routers, `l` machines, and one extra machine
            // per childless root-adjacent router.
            (Shape::Random(r, l), r.checked_mul(2).and_then(|v| v.checked_add(l)))
        }
        other => return Err(format!("unknown topology '{other}'")),
    };
    match below_root {
        Some(v) if v < MAX_TOPOLOGY_NODES => Ok(shape),
        _ => Err(format!("{name} would build more than {MAX_TOPOLOGY_NODES} nodes")),
    }
}

/// Check a topology spec as [`parse_topology`] does, without building
/// the tree.
pub(crate) fn check_topology(spec: &str) -> Result<(), String> {
    shape(spec).map(|_| ())
}

/// Parse a topology spec; `seed` feeds `random:`. Fails as
/// [`check_topology`] does, before anything is built.
pub fn parse_topology(spec: &str, seed: u64) -> Result<Tree, String> {
    Ok(match shape(spec)? {
        Shape::Line(r) => topo::line(r),
        Shape::Star(b, d) => topo::star(b, d),
        Shape::Kary(k, d) => topo::kary(k, d),
        Shape::Caterpillar(s, l) => topo::caterpillar(s, l),
        Shape::Broomstick(h, len, l) => topo::broomstick(h, len, l),
        Shape::FatTree(p, e, h) => topo::fat_tree(p, e, h),
        Shape::Random(r, l) => {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            topo::random_tree(&mut rng, r, l)
        }
    })
}

/// Parse a size-distribution spec. Every size it can draw is positive
/// and finite, and a Pareto law has a finite mean.
pub fn parse_sizes(spec: &str) -> Result<SizeDist, String> {
    let (name, n) = split(spec);
    match name {
        "fixed" => Ok(SizeDist::Fixed(positive(&n, 0, name)?)),
        "uniform" => {
            let (lo, hi) = (positive(&n, 0, name)?, positive(&n, 1, name)?);
            if hi < lo {
                return Err(format!("uniform needs LO <= HI, got {lo} > {hi}"));
            }
            Ok(SizeDist::Uniform { lo, hi })
        }
        "pareto" => {
            let alpha = arg(&n, 0, name)?;
            if alpha <= 1.0 {
                return Err(format!("pareto needs ALPHA > 1 (a finite mean), got {alpha}"));
            }
            Ok(SizeDist::Pareto { alpha, min: positive(&n, 1, name)? })
        }
        "bimodal" => {
            let (small, large) = (positive(&n, 0, name)?, positive(&n, 1, name)?);
            let p_large = arg(&n, 2, name)?;
            if !(0.0..=1.0).contains(&p_large) {
                return Err(format!("bimodal needs PLARGE in [0, 1], got {p_large}"));
            }
            Ok(SizeDist::Bimodal { small, large, p_large })
        }
        "pow" => {
            let base = arg(&n, 0, name)?;
            if base <= 1.0 {
                return Err(format!("pow needs BASE > 1, got {base}"));
            }
            let max_k = arg(&n, 1, name)?;
            if max_k < 0.0 || max_k.fract() > 0.0 || !base.powf(max_k).is_finite() {
                return Err(format!(
                    "pow needs MAXK a non-negative integer with BASE^MAXK finite, got {max_k}"
                ));
            }
            Ok(SizeDist::PowerOfBase { base, max_k: max_k as u32 })
        }
        other => Err(format!("unknown size distribution '{other}'")),
    }
}

/// Parse a speed-profile spec. Speeds and `EPS` must be positive.
pub fn parse_speeds(spec: &str) -> Result<SpeedProfile, String> {
    let (name, n) = split(spec);
    match name {
        "uniform" => Ok(SpeedProfile::Uniform(positive(&n, 0, name)?)),
        "layered" => Ok(SpeedProfile::Layered {
            root_adjacent: positive(&n, 0, name)?,
            deeper: positive(&n, 1, name)?,
        }),
        "paper-identical" => Ok(SpeedProfile::paper_identical(positive(&n, 0, name)?)),
        "paper-unrelated" => Ok(SpeedProfile::paper_unrelated(positive(&n, 0, name)?)),
        other => Err(format!("unknown speed profile '{other}'")),
    }
}

/// Parse a `node+assign` policy spec. Every `EPS` must be positive;
/// the greedy rules default to 0.5 when it is omitted.
pub fn parse_policy(spec: &str) -> Result<PolicyCombo, String> {
    let (node_s, assign_s) = spec
        .split_once('+')
        .ok_or_else(|| format!("policy must be NODE+ASSIGN, got '{spec}'"))?;
    let (nname, nn) = split(node_s);
    let node = match nname {
        "sjf" => NodePolicyKind::Sjf,
        "sjf-classes" => NodePolicyKind::SjfClasses(positive(&nn, 0, nname)?),
        "fifo" => NodePolicyKind::Fifo,
        "srpt" => NodePolicyKind::Srpt,
        "ljf" => NodePolicyKind::Ljf,
        "hdf" => NodePolicyKind::Hdf,
        other => return Err(format!("unknown node policy '{other}'")),
    };
    let (aname, an) = split(assign_s);
    let assign = match aname {
        "greedy" => AssignKind::GreedyIdentical(positive_or(&an, 0, aname, 0.5)?),
        "greedy-unrel" => AssignKind::GreedyUnrelated(positive_or(&an, 0, aname, 0.5)?),
        "greedy-no-dist" => AssignKind::GreedyNoDistance(positive_or(&an, 0, aname, 0.5)?),
        "closest" => AssignKind::Closest,
        "random" => AssignKind::Random(arg(&an, 0, aname).unwrap_or(0.0) as u64),
        "round-robin" => AssignKind::RoundRobin,
        "least-volume" => AssignKind::LeastVolume,
        "min-eta" => AssignKind::MinEta,
        "best-fit" => AssignKind::BestFit,
        "min-active" => AssignKind::MinActive,
        "random-feasible" => AssignKind::RandomFeasible(arg(&an, 0, aname).unwrap_or(0.0) as u64),
        "chaos" => AssignKind::Chaos,
        other => return Err(format!("unknown assignment policy '{other}'")),
    };
    Ok(PolicyCombo { node, assign })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_parse() {
        assert_eq!(parse_topology("line:3", 0).unwrap().num_leaves(), 1);
        assert_eq!(parse_topology("star:4,2", 0).unwrap().num_leaves(), 4);
        assert_eq!(parse_topology("fat-tree:2,2,2", 0).unwrap().num_leaves(), 8);
        assert!(parse_topology("blob:1", 0).is_err());
        assert!(parse_topology("star:4", 0).is_err(), "missing arg");
        // random is seeded deterministically
        let a = parse_topology("random:5,5", 9).unwrap();
        let b = parse_topology("random:5,5", 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_sizes("fixed:2").unwrap(), SizeDist::Fixed(2.0));
        assert!(matches!(
            parse_sizes("bimodal:1,32,0.1").unwrap(),
            SizeDist::Bimodal { .. }
        ));
        assert!(parse_sizes("pareto:2").is_err());
        assert!(parse_sizes("nope:1").is_err());
    }

    #[test]
    fn speeds_parse() {
        assert_eq!(
            parse_speeds("uniform:1.5").unwrap(),
            SpeedProfile::Uniform(1.5)
        );
        assert!(matches!(
            parse_speeds("paper-identical:0.5").unwrap(),
            SpeedProfile::Layered { .. }
        ));
        assert!(parse_speeds("warp:9").is_err());
    }

    #[test]
    fn policies_parse() {
        let c = parse_policy("sjf+greedy:0.5").unwrap();
        assert_eq!(c.label(), "sjf+greedy");
        let c = parse_policy("fifo+round-robin").unwrap();
        assert_eq!(c.label(), "fifo+round-robin");
        let c = parse_policy("sjf-classes:0.5+least-volume").unwrap();
        assert_eq!(c.label(), "sjf-classes+least-volume");
        let c = parse_policy("sjf+chaos").unwrap();
        assert_eq!(c.label(), "sjf+chaos");
        let c = parse_policy("sjf+best-fit").unwrap();
        assert_eq!(c.assign, AssignKind::BestFit);
        let c = parse_policy("srpt+min-active").unwrap();
        assert_eq!(c.label(), "srpt+min-active");
        let c = parse_policy("sjf+random-feasible:42").unwrap();
        assert_eq!(c.assign, AssignKind::RandomFeasible(42));
        assert!(parse_policy("sjf").is_err());
        assert!(parse_policy("sjf+warp").is_err());
    }
}
