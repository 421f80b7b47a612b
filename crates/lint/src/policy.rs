//! Per-crate rule policy.
//!
//! The policy table is code, not a config file: the set of crates with
//! determinism obligations is an architectural fact of this workspace
//! (DESIGN.md §11), and a lint whose teeth can be pulled by editing a
//! dotfile is not a gate. The escape hatch is the inline
//! `// bct-lint: allow(<rule>) -- <justification>` comment, which keeps
//! the justification next to the code it excuses.

/// Which rules apply to a file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Policy {
    /// D1: forbid `HashMap`/`HashSet` (default-hasher iteration order).
    pub d1: bool,
    /// D2: forbid `Instant::now`/`SystemTime` (wall-clock reads).
    pub d2: bool,
    /// D3: forbid `==`/`!=` against float literals.
    pub d3: bool,
    /// P1: `unwrap`/`expect`/`panic!` outside tests need a justified allow.
    pub p1: bool,
}

/// Crates whose outputs feed the byte-identical determinism contract
/// (golden sweep, sorted JSONL, shard merges, serve journal replay).
const DETERMINISTIC_CRATES: &[&str] = &["core", "sim", "policies", "sched", "harness", "serve"];

/// Crates allowed to read wall clocks (benchmarks; CLI progress/ETA).
const CLOCK_CRATES: &[&str] = &["bench", "cli"];

/// Individual files allowed to read wall clocks inside otherwise
/// deterministic crates: the serve latency bench measures real
/// decision latency but never feeds timestamps into scheduling state —
/// its replay check proves the journal is clock-independent.
const CLOCK_FILES: &[&str] = &["crates/serve/src/bench.rs"];

/// Crates whose panics must be enumerable: the harness worker pool's
/// `catch_unwind` fault isolation turns them into `Failed` rows, so
/// every possible origin needs a written justification.
const PANIC_AUDITED_CRATES: &[&str] = &["sim", "harness"];

/// Individual files under the panic audit beyond the audited crates:
/// the dynamic-topology layer runs inside the engine's event loop (its
/// panics reach the harness pool's `catch_unwind` like any sim panic),
/// even though its home crates are not audited wholesale. The serve
/// decode/apply path faces untrusted bytes from the wire and the log,
/// so a panic there is a remote crash — every one needs a reason.
const PANIC_AUDITED_FILES: &[&str] = &[
    "crates/core/src/mutate.rs",
    "crates/policies/src/stateful.rs",
    "crates/serve/src/protocol.rs",
    "crates/serve/src/service.rs",
    "crates/serve/src/log.rs",
    "crates/serve/src/replay.rs",
];

/// The untrusted-input surface: files that decode or apply bytes that
/// cross a process boundary — the serve wire protocol and journal, and
/// the sweep run-dir layer (row files, claim records, and manifests
/// written by *other* processes, possibly half-dead ones mid-crash).
/// These are the p2 reachability sources (and the only files where
/// indexing counts as a panic sink — a bad length prefix or a torn
/// row must surface as a decode error or a truncation, not an
/// out-of-bounds crash).
const WIRE_FILES: &[&str] = &[
    "crates/serve/src/protocol.rs",
    "crates/serve/src/service.rs",
    "crates/serve/src/log.rs",
    "crates/serve/src/replay.rs",
    "crates/harness/src/rundir.rs",
    "crates/harness/src/claim.rs",
];

/// Crates whose functions are d4 reachability sources: everything the
/// deterministic scheduling pipeline executes. (The d1/d2 *local*
/// rules cover a wider set; d4 asks where these four can *get to*,
/// including through crates with no local obligations.)
const D4_ENTRY_CRATES: &[&str] = &["core", "sim", "policies", "sched"];

/// Is this file on the serve crate's wire/journal decode surface?
pub fn is_wire_file(rel_path: &str) -> bool {
    let norm = rel_path.strip_prefix("./").unwrap_or(rel_path);
    WIRE_FILES.contains(&norm)
}

/// Is this file under the p1 panic audit (crate-level or file-level)?
pub fn panic_audited(rel_path: &str) -> bool {
    policy_for(rel_path).p1
}

/// Are this file's functions d4 reachability sources?
pub fn d4_entry(rel_path: &str) -> bool {
    D4_ENTRY_CRATES.contains(&crate_of(rel_path))
}

/// Files exempt from D3 wholesale: the one place float comparison is
/// the point.
const D3_EXEMPT_FILES: &[&str] = &["crates/core/src/time.rs"];

/// Map a workspace-relative file path (`crates/<name>/src/…` or
/// `src/…`) to its crate directory name; top-level `src/` is `"root"`.
pub fn crate_of(rel_path: &str) -> &str {
    let p = rel_path.strip_prefix("./").unwrap_or(rel_path);
    if let Some(rest) = p.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or("root")
    } else {
        "root"
    }
}

/// The rule set for one file.
pub fn policy_for(rel_path: &str) -> Policy {
    let krate = crate_of(rel_path);
    let norm = rel_path.strip_prefix("./").unwrap_or(rel_path);
    Policy {
        d1: DETERMINISTIC_CRATES.contains(&krate),
        d2: !CLOCK_CRATES.contains(&krate) && !CLOCK_FILES.contains(&norm),
        d3: !D3_EXEMPT_FILES.contains(&norm),
        p1: PANIC_AUDITED_CRATES.contains(&krate) || PANIC_AUDITED_FILES.contains(&norm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crate_mapping() {
        assert_eq!(crate_of("crates/sim/src/engine.rs"), "sim");
        assert_eq!(crate_of("./crates/core/src/lib.rs"), "core");
        assert_eq!(crate_of("src/main.rs"), "root");
    }

    #[test]
    fn policies_match_the_contract() {
        let sim = policy_for("crates/sim/src/engine.rs");
        assert!(sim.d1 && sim.d2 && sim.d3 && sim.p1);

        let cli = policy_for("crates/cli/src/opts.rs");
        assert!(!cli.d1 && !cli.d2 && cli.d3 && !cli.p1);

        let bench = policy_for("crates/bench/src/lib.rs");
        assert!(!bench.d2);

        let time = policy_for("crates/core/src/time.rs");
        assert!(!time.d3 && time.d1);

        let lp = policy_for("crates/lp/src/simplex.rs");
        assert!(!lp.d1 && lp.d2 && lp.d3 && !lp.p1);

        // The dynamic-topology files are panic-audited individually.
        let mutate = policy_for("crates/core/src/mutate.rs");
        assert!(mutate.d1 && mutate.p1);
        let stateful = policy_for("./crates/policies/src/stateful.rs");
        assert!(stateful.d1 && stateful.p1);
        // …without dragging their whole crates into the audit.
        assert!(!policy_for("crates/core/src/tree.rs").p1);
        assert!(!policy_for("crates/policies/src/assign.rs").p1);

        // The serve crate is deterministic, and its untrusted-input
        // surface (wire decode, command apply) is panic-audited.
        let proto = policy_for("crates/serve/src/protocol.rs");
        assert!(proto.d1 && proto.d2 && proto.p1);
        let svc = policy_for("crates/serve/src/service.rs");
        assert!(svc.d1 && svc.p1);
        // The latency bench alone may read the wall clock — nothing
        // else in the crate, and it stays deterministic otherwise.
        let bench = policy_for("crates/serve/src/bench.rs");
        assert!(bench.d1 && !bench.d2 && !bench.p1);
        assert!(policy_for("crates/serve/src/replay.rs").d2);

        // The journal decode/apply path joined the audit with the
        // transitive rules: replaying a corrupt log must surface a
        // typed error, not a panic.
        assert!(policy_for("crates/serve/src/log.rs").p1);
        assert!(policy_for("crates/serve/src/replay.rs").p1);

        // The run-dir/claim coordination layer lives in the harness
        // crate, so it inherits d1–d3 and the panic audit wholesale;
        // its clock reads (claim heartbeats and staleness) exist only
        // behind justified d2 allows.
        let rundir = policy_for("crates/harness/src/rundir.rs");
        assert!(rundir.d1 && rundir.d2 && rundir.p1);
        let claim = policy_for("crates/harness/src/claim.rs");
        assert!(claim.d1 && claim.d2 && claim.p1);
    }

    #[test]
    fn reachability_scoping_tables() {
        assert!(is_wire_file("crates/serve/src/protocol.rs"));
        assert!(is_wire_file("./crates/serve/src/log.rs"));
        assert!(!is_wire_file("crates/serve/src/bench.rs"));
        // Recovery parsers read bytes other processes wrote — the
        // run-dir/claim files are wire surface too.
        assert!(is_wire_file("crates/harness/src/rundir.rs"));
        assert!(is_wire_file("./crates/harness/src/claim.rs"));
        assert!(!is_wire_file("crates/harness/src/sweep.rs"));
        assert!(panic_audited("crates/sim/src/engine.rs"));
        assert!(!panic_audited("crates/core/src/tree.rs"));
        assert!(d4_entry("crates/core/src/tree.rs"));
        assert!(d4_entry("crates/sched/src/greedy.rs"));
        assert!(!d4_entry("crates/serve/src/service.rs"));
        assert!(!d4_entry("crates/lp/src/simplex.rs"));
    }
}
