//! All four checked-in goldens (base, heavy-tail, dynamic, batch),
//! reproduced in process: a one-shot run of each spec must serialize to
//! the checked-in expected JSONL byte for byte. Static grids, Pareto
//! heavy tails, churn + capacity and deep replication groups each pin
//! their own bytes; `ci.sh` repeats the check through the CLI at 1, 4
//! and 8 workers and through run dirs.

use bct_harness::{run_sweep, NullSink, SweepOptions, SweepSpec};
use std::path::Path;

const SPECS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../specs");

fn check_golden(spec_file: &str, expected_file: &str) {
    let spec = SweepSpec::load(&Path::new(SPECS_DIR).join(spec_file)).expect("load spec");
    let full = run_sweep(&spec, &SweepOptions { workers: 2, ..Default::default() }, &mut NullSink)
        .expect("one-shot run")
        .sorted_jsonl();
    let expected = std::fs::read_to_string(Path::new(SPECS_DIR).join(expected_file))
        .expect("read expected");
    assert_eq!(
        full, expected,
        "{spec_file}: in-process one-shot run diverged from the checked-in golden"
    );
}

#[test]
fn base_golden_is_byte_identical() {
    check_golden("golden_sweep.json", "golden_sweep.expected.jsonl");
}

#[test]
fn heavytail_golden_is_byte_identical() {
    check_golden("golden_sweep_heavytail.json", "golden_sweep_heavytail.expected.jsonl");
}

#[test]
fn dynamic_golden_is_byte_identical() {
    check_golden("golden_sweep_dynamic.json", "golden_sweep_dynamic.expected.jsonl");
}

#[test]
fn batch_golden_is_byte_identical() {
    check_golden("golden_sweep_batch.json", "golden_sweep_batch.expected.jsonl");
}
