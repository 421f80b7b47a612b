//! End-to-end smoke tests that invoke the built `bct` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bct(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bct"))
        .args(args)
        .output()
        .expect("spawn bct")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bct_smoke_{}_{name}", std::process::id()))
}

fn write_spec(name: &str, body: &str) -> PathBuf {
    let path = tmp(name);
    std::fs::write(&path, body).unwrap();
    path
}

const TINY_SPEC: &str = r#"{
    "name": "smoke",
    "root_seed": 5,
    "replications": 2,
    "topologies": ["star:3,2"],
    "workloads": [{"jobs": 10}],
    "policies": ["sjf+greedy:0.5", "fifo+closest"],
    "speeds": ["uniform:1.5"]
}"#;

#[test]
fn no_subcommand_prints_usage_and_exits_2() {
    let out = bct(&[]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    // The usage listing must name every subcommand, including sweep.
    for cmd in [
        "render", "reduce", "run", "sweep", "bound", "verify-dual", "gen", "lemmas",
        "packetize", "experiments",
    ] {
        assert!(stderr.contains(cmd), "usage is missing '{cmd}':\n{stderr}");
    }
}

#[test]
fn unknown_subcommand_prints_usage_and_exits_2() {
    let out = bct(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command 'frobnicate'"));
    assert!(stderr.contains("sweep"));
}

#[test]
fn help_exits_zero() {
    let out = bct(&["help"]);
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("commands:"));
}

#[test]
fn sweep_spec_writes_deterministic_jsonl() {
    let spec = write_spec("tiny.json", TINY_SPEC);
    let out1 = tmp("rows1.jsonl");
    let out4 = tmp("rows4.jsonl");
    for (workers, path) in [("1", &out1), ("4", &out4)] {
        let out = bct(&[
            "sweep", "--spec", spec.to_str().unwrap(), "--workers", workers, "--out",
            path.to_str().unwrap(), "--quiet",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("4 cells (4 ok, 0 failed)"), "summary: {stdout}");
        assert!(stdout.contains("TOTAL"), "aggregate table missing: {stdout}");
    }
    let rows1 = std::fs::read_to_string(&out1).unwrap();
    let rows4 = std::fs::read_to_string(&out4).unwrap();
    assert_eq!(rows1.lines().count(), 4);
    assert_eq!(rows1, rows4, "worker count changed the sorted JSONL");
    for path in [&spec, &out1, &out4] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn sweep_summary_out_writes_deterministic_json() {
    let spec = write_spec("summary.json", TINY_SPEC);
    let rows = tmp("summary_rows.jsonl");
    let sum1 = tmp("summary1.json");
    let sum2 = tmp("summary2.json");
    for sum in [&sum1, &sum2] {
        let out = bct(&[
            "sweep", "--spec", spec.to_str().unwrap(), "--out", rows.to_str().unwrap(),
            "--summary-out", sum.to_str().unwrap(), "--quiet",
        ]);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("summary written to"), "stdout: {stdout}");
    }
    let json1 = std::fs::read_to_string(&sum1).unwrap();
    let json2 = std::fs::read_to_string(&sum2).unwrap();
    assert_eq!(json1, json2, "summary JSON is not run-to-run deterministic");
    assert!(json1.contains("\"tool\":\"bct-harness\""), "{json1}");
    assert!(json1.contains("\"by_policy\""), "{json1}");
    assert!(json1.contains("\"fifo+closest\""), "{json1}");
    for path in [&spec, &rows, &sum1, &sum2] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn sweep_with_failing_cells_exits_3() {
    let spec = write_spec(
        "chaos.json",
        &TINY_SPEC.replace("fifo+closest", "sjf+chaos").replace("\"smoke\"", "\"chaos\""),
    );
    let out_path = tmp("chaos_rows.jsonl");
    let out = bct(&[
        "sweep", "--spec", spec.to_str().unwrap(), "--out", out_path.to_str().unwrap(),
        "--quiet",
    ]);
    assert_eq!(out.status.code(), Some(3));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("chaos policy: deliberate fault"), "stderr: {stderr}");
    let rows = std::fs::read_to_string(&out_path).unwrap();
    assert_eq!(rows.lines().count(), 4, "failed cells must still produce rows");
    assert!(rows.contains("\"panic_msg\""));
    let _ = std::fs::remove_file(&spec);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn sweep_rejects_a_bad_spec_with_exit_2() {
    let spec = write_spec("bad.json", r#"{"name": "bad", "topologies": []}"#);
    let out = bct(&["sweep", "--spec", spec.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("error:"));
    let _ = std::fs::remove_file(&spec);
}

/// A spec value the engine cannot run is bad input: the spec is
/// rejected before any cell runs, naming the offending string, with
/// exit 2 (not 3 with every cell failed, not a silent run of something
/// else, and not a hang). Covers loads that are not positive and
/// finite, and size, speed, policy and topology strings.
#[test]
fn sweep_rejects_non_positive_or_infinite_loads_with_exit_2() {
    let load = |v: &str| format!(r#"{{"jobs": 10, "load": {v}}}"#);
    let sizes = |v: &str| format!(r#"{{"jobs": 10, "sizes": "{v}"}}"#);
    let cases: Vec<(&str, String, &str)> = vec![
        // (JSON fragment replaced, its replacement, expected message)
        (r#"{"jobs": 10}"#, load("0"), "workload 'n10-load0-"),
        (r#"{"jobs": 10}"#, load("-1"), "workload 'n10-load-1-"),
        (r#"{"jobs": 10}"#, load("1e309"), "workload 'n10-loadinf-"),
        (r#"{"jobs": 10}"#, sizes("pow:0,4"), "pow:0,4"),
        (r#"{"jobs": 10}"#, sizes("pow:2,-1"), "pow:2,-1"),
        (r#"{"jobs": 10}"#, sizes("fixed:0"), "fixed:0"),
        (r#"{"jobs": 10}"#, sizes("pareto:1.5,-1"), "pareto:1.5,-1"),
        (r#"{"jobs": 10}"#, sizes("pareto:1,1"), "pareto:1,1"),
        (r#"{"jobs": 10}"#, sizes("uniform:3,1"), "uniform:3,1"),
        (r#"{"jobs": 10}"#, sizes("bimodal:1,10,2"), "bimodal:1,10,2"),
        ("uniform:1.5", "uniform:0".into(), "speeds 'uniform:0'"),
        ("uniform:1.5", "uniform:-1".into(), "speeds 'uniform:-1'"),
        ("uniform:1.5", "layered:0,1".into(), "speeds 'layered:0,1'"),
        ("sjf+greedy:0.5", "sjf-classes:0+closest".into(), "policy 'sjf-classes:0+closest'"),
        ("sjf+greedy:0.5", "sjf+greedy:-1".into(), "policy 'sjf+greedy:-1'"),
        ("sjf+greedy:0.5", "sjf+greedy:nan".into(), "policy 'sjf+greedy:nan'"),
        ("star:3,2", "star:0,2".into(), "topology 'star:0,2'"),
        ("star:3,2", "star:2.7,2".into(), "topology 'star:2.7,2'"),
        ("star:3,2", "line:0".into(), "topology 'line:0'"),
        ("star:3,2", "kary:0,3".into(), "topology 'kary:0,3'"),
        ("star:3,2", "fat-tree:0,2,2".into(), "topology 'fat-tree:0,2,2'"),
        ("star:3,2", "random:0,4".into(), "topology 'random:0,4'"),
        ("star:3,2", "broomstick:2,1,3".into(), "topology 'broomstick:2,1,3'"),
        ("star:3,2", "kary:2,30".into(), "topology 'kary:2,30'"),
    ];
    for (i, (from, to, message)) in cases.iter().enumerate() {
        let body = TINY_SPEC.replace(from, to);
        assert!(body.contains(to.as_str()), "spec rewrite failed: {body}");
        let spec = write_spec(&format!("rejected_{i}.json"), &body);
        let out_path = tmp(&format!("rejected_{i}.rows.jsonl"));
        let out = bct(&[
            "sweep", "--spec", spec.to_str().unwrap(), "--out", out_path.to_str().unwrap(),
            "--quiet",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{to}: stderr: {stderr}");
        assert!(stderr.contains(message), "{to}: {stderr}");
        if to.contains("load") {
            assert!(stderr.contains("load must be positive and finite"), "{to}: {stderr}");
        }
        assert!(!out_path.exists(), "{to}: a rejected spec must not write rows");
        let _ = std::fs::remove_file(&spec);
    }
}

/// An inline workload flag the generator cannot honour is a malformed
/// flag value: the command fails with exit 1 (as `--jobs -3` does)
/// before generating anything, naming the flag, instead of panicking,
/// running silently without origins or with an infinite load, or
/// blaming the generated instance.
#[test]
fn bad_inline_workload_flags_exit_1_naming_the_flag() {
    let log = tmp("bad_flags.log");
    let report = tmp("bad_flags.json");
    let (log, report) = (log.to_str().unwrap(), report.to_str().unwrap());
    let run = ["run", "--topo", "star:2,2", "--jobs", "5"];
    let bench =
        ["serve", "--bench", "--topo", "star:2,2", "--jobs", "5", "--log", log, "--out", report];
    let cases: Vec<(&[&str], &str, &str)> = vec![
        // (command, flag, bad value)
        (&run, "--origins", "2"),
        (&run, "--origins", "nan"),
        (&run, "--origins", "-1"),
        (&run, "--load", "0"),
        (&run, "--load", "-1"),
        (&run, "--load", "nan"),
        (&run, "--load", "1e309"),
        (&bench, "--load", "0"),
        (&bench, "--load", "1e309"),
    ];
    for (command, flag, value) in cases {
        let args: Vec<&str> = command.iter().copied().chain([flag, value]).collect();
        let out = bct(&args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: stderr: {stderr}");
        assert!(stderr.contains(&format!("error: {flag} must be")), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: the command must not run");
    }
    assert!(!std::path::Path::new(report).exists(), "a rejected bench must not report");
}

/// Every subcommand declares its flags: an unknown one (a typo, or the
/// removed `--no-batch` and `--shard`) fails with exit 2 before any
/// work, naming it.
#[test]
fn unknown_flags_exit_2_before_any_work() {
    let spec = write_spec("unknown_flags.json", TINY_SPEC);
    let out_path = tmp("unknown_flags.rows.jsonl");
    let sweep = |flag: &str| {
        bct(&[
            "sweep", "--spec", spec.to_str().unwrap(), "--out", out_path.to_str().unwrap(),
            "--quiet", flag,
        ])
    };
    for (out, flag) in [
        (sweep("--no-batch"), "--no-batch"),
        (
            bct(&[
                "sweep", "--spec", spec.to_str().unwrap(), "--out", out_path.to_str().unwrap(),
                "--worker", "3",
            ]),
            "--worker",
        ),
        (bct(&["run", "--topo", "star:2,2", "--jobs", "5", "--polcy", "sjf+closest"]), "--polcy"),
        (
            bct(&[
                "sweep", "--spec", spec.to_str().unwrap(), "--out", out_path.to_str().unwrap(),
                "--shard", "0/2",
            ]),
            "--shard",
        ),
    ] {
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: stderr: {stderr}");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}: the command must not run");
    }
    assert!(!out_path.exists(), "a rejected sweep must not write rows");
    let _ = std::fs::remove_file(&spec);
}

/// `bct lint` runs the same driver as the standalone bct-lint binary:
/// same exit codes (0 clean / 1 findings / 2 usage error) on the same
/// inputs.
#[test]
fn lint_subcommand_matches_the_standalone_exit_codes() {
    let clean_root = tmp("lint_clean");
    std::fs::create_dir_all(clean_root.join("crates/sim/src")).unwrap();
    std::fs::write(clean_root.join("crates/sim/src/lib.rs"), "pub fn ok() -> u32 { 1 }\n")
        .unwrap();
    let out = bct(&["lint", "--root", clean_root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("0 violation(s)"));

    let dirty_root = tmp("lint_dirty");
    std::fs::create_dir_all(dirty_root.join("crates/sim/src")).unwrap();
    std::fs::write(
        dirty_root.join("crates/sim/src/lib.rs"),
        "use std::collections::HashMap;\n",
    )
    .unwrap();
    let out = bct(&["lint", "--root", dirty_root.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("[d1]"));

    let out = bct(&["lint", "--no-such-flag"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
