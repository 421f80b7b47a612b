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
fn sweep_no_batch_matches_batched_output_on_the_checked_in_golden() {
    // --no-batch forces the per-cell path; the batched runner (the
    // default) must emit the same bytes for the checked-in golden
    // sweep, or the escape hatch would silently change results.
    let spec = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs/golden_sweep.json");
    let batched = tmp("golden_batched.jsonl");
    let unbatched = tmp("golden_unbatched.jsonl");
    for (path, extra) in [(&batched, None), (&unbatched, Some("--no-batch"))] {
        let mut args = vec![
            "sweep", "--spec", spec, "--workers", "2", "--out",
            path.to_str().unwrap(), "--quiet",
        ];
        args.extend(extra);
        let out = bct(&args);
        assert_eq!(
            out.status.code(),
            Some(0),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let a = std::fs::read_to_string(&batched).unwrap();
    let b = std::fs::read_to_string(&unbatched).unwrap();
    assert_eq!(a, b, "--no-batch changed the sorted JSONL");
    assert!(!a.is_empty());
    for path in [&batched, &unbatched] {
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

/// A load that is not a positive finite number is bad input: the spec
/// is rejected before any cell runs, naming the workload, with exit 2
/// (not 3 with every cell failed, and not a silent `loadinf` run).
#[test]
fn sweep_rejects_non_positive_or_infinite_loads_with_exit_2() {
    for (name, load, label) in [
        ("load_zero.json", "0", "load0"),
        ("load_negative.json", "-1", "load-1"),
        ("load_overflow.json", "1e309", "loadinf"),
    ] {
        let body = TINY_SPEC.replace(r#"{"jobs": 10}"#, &format!(r#"{{"jobs": 10, "load": {load}}}"#));
        assert!(body.contains(load), "spec rewrite failed: {body}");
        let spec = write_spec(name, &body);
        let out_path = tmp(&format!("{name}.rows.jsonl"));
        let out = bct(&[
            "sweep", "--spec", spec.to_str().unwrap(), "--out", out_path.to_str().unwrap(),
            "--quiet",
        ]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "load {load}: stderr: {stderr}");
        assert!(stderr.contains(&format!("workload 'n10-{label}-")), "load {load}: {stderr}");
        assert!(stderr.contains("load must be positive and finite"), "load {load}: {stderr}");
        assert!(!out_path.exists(), "load {load}: a rejected spec must not write rows");
        let _ = std::fs::remove_file(&spec);
    }
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
