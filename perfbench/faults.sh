#!/usr/bin/env bash
# Shows that every output check of the benchmark fails on a deliberate
# fault. Copies this checkout to DEST, then for each fault edits one
# file of the copy, runs the workload whose check must catch it, and
# expects that check to print FAIL and the run to exit non-zero. Each
# edit is undone before the next fault. The checkout itself is never
# touched.
#
#   bash perfbench/faults.sh DEST    # DEST: a directory outside the checkout
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 DEST" >&2; exit 2; }
src=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
dest=$(cd "$1" && pwd)
case "$dest/" in "$src"/*) echo "DEST must lie outside the checkout" >&2; exit 2 ;; esac
tar -C "$src" --exclude=./.git --exclude=./target --exclude=./.bench_build \
    --exclude=./.perfbench --exclude=./perfbench/target -cf - . | tar -C "$dest" -xf -
export CARGO_TARGET_DIR="$dest/.bench_build"

caught=0
missed=0

# fault NAME FILE WORKLOAD TRACE EXPECTED-LINE PERL-EDIT
fault() {
    local name=$1 file=$2 workload=$3 trace=$4 expect=$5 edit=$6
    cp "$dest/$file" "$dest/$file.orig"
    perl -0pi -e "$edit" "$dest/$file"
    if cmp -s "$dest/$file" "$dest/$file.orig"; then
        echo "ERROR   $name: the edit did not apply to $file" >&2
        exit 1
    fi
    local out status=0
    out=$(cd "$dest" && cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 7 --seconds 1 --trace "$trace" 2>&1) || status=$?
    mv "$dest/$file.orig" "$dest/$file"
    touch "$dest/$file" # newer than the faulty build, so cargo rebuilds it
    if [ "$status" -ne 0 ] && grep -qF -- "$expect" <<<"$out"; then
        echo "caught  $name (exit $status): $(grep -F -- "$expect" <<<"$out" | head -1 | cut -c1-150)"
        caught=$((caught + 1))
    else
        echo "MISSED  $name (exit $status)"
        tail -5 <<<"$out"
        missed=$((missed + 1))
    fi
}

fault "engine stops at t=1000" crates/sim/src/engine.rs sim-acceptance 0 \
    "FAIL: sim: every job completes" \
    's/horizon: None,/horizon: Some(1000.0),/'
fault "first hop needs half the work" crates/sim/src/state.rs sim-acceptance 0 \
    "FAIL: sim: flow >= path work" \
    's/self\.jobs\.rem\[ji\] = self\.p_at\(j, path\[0\]\);/self.jobs.rem[ji] = 0.5 * self.p_at(j, path[0]);/'
fault "node 1 reports one extra busy unit" crates/sim/src/state.rs sim-acceptance 0 \
    "FAIL: sim: sum of node_busy" \
    's/(out\.extend\(self\.nodes\[\.\.self\.tree\(\)\.len\(\)\][^;]*;)/$1 if let Some(b) = out.get_mut(1) { *b += 1.0; }/s'
fault "node 1 reports busy past the makespan" crates/sim/src/state.rs sim-acceptance 0 \
    "FAIL: sim: node_busy <= makespan" \
    's/(out\.extend\(self\.nodes\[\.\.self\.tree\(\)\.len\(\)\][^;]*;)/$1 if let Some(b) = out.get_mut(1) { *b += 1e9; }/s'
fault "SJF delays some jobs on every other run" crates/policies/src/node.rs sim-acceptance 0 \
    "FAIL: sim: every timed repeat reproduces" \
    's/Sjf \{ rounding: None \}/{ RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed); Sjf { rounding: None } }/; s/PolicyKey::new\(primary, ctx\.instance\.job\(ctx\.job\)\.release, ctx\.job\.0\)/PolicyKey::new(if ctx.job.0 % 1000 == 7 \&\& RUNS.load(std::sync::atomic::Ordering::Relaxed) % 2 == 1 { primary + 1e6 } else { primary }, ctx.instance.job(ctx.job).release, ctx.job.0)/; s/^(use bct_core::ClassRounding;)/$1\nstatic RUNS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);/m'
for w in sim-acceptance sweep-mixed serve-greedy; do
    fault "path-work bound inflated 100x ($w)" crates/lp/src/bounds.rs "$w" 0 \
        "FAIL: ${w%%-*}: flow >= lower bound" \
        's/inst\.trivial_flow_lower_bound\(\) \/ adversary_speed/inst.trivial_flow_lower_bound() * 100.0 \/ adversary_speed/'
done
fault "cell 3 is recorded as failed" crates/harness/src/sweep.rs sweep-mixed 0 \
    "FAIL: sweep: every row is Ok" \
    's/(fn make_row\(task: &CellTask, attempts: u32, outcome: Result<CellMetrics, String>\) -> SweepRow \{)/$1 let outcome = if task.cell == 3 { Err("injected fault".to_string()) } else { outcome };/'
fault "rows depend on the worker count" crates/harness/src/sweep.rs sweep-mixed 0 \
    "FAIL: sweep: rows are byte-identical at 2 workers" \
    's/(\n    rows\.sort_by_key\(\|r\| r\.cell\);)/\n    if workers > 1 { rows[0].attempts += 1; }$1/'
fault "rows change from one sweep to the next" crates/harness/src/sweep.rs sweep-mixed 0 \
    "FAIL: sweep: every timed sweep writes the first sweep" \
    's/(\n    rows\.sort_by_key\(\|r\| r\.cell\);)/\n    { static CALLS: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0); rows[0].attempts += CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed); }$1/'
fault "the service refuses its 50th command" crates/serve/src/service.rs serve-greedy 0 \
    "FAIL: serve: every Submit is Assigned" \
    's/(Command::Submit \{ release, size \} => \{)/$1 if self.commands == 50 { return Ok(Reply::Err("injected fault".into())); }/'
fault "the state hash depends on how many services were built" crates/serve/src/service.rs serve-greedy 0 \
    "FAIL: serve: every pass ends in the same state hash" \
    's/(fn build\(cfg: ServeConfig, log: Option<LogWriter<W>>\) -> Result<Service<W>, String> \{)/$1 BUILDS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);/; s/(h\.write_u64\(self\.assignment\.state_digest\(\)\);)/$1 h.write_u64(BUILDS.load(std::sync::atomic::Ordering::Relaxed));/; s/^(use std::io::Write;)/$1\nstatic BUILDS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);/m'
fault "a journal byte is flipped" crates/serve/src/log.rs serve-greedy 0 \
    "FAIL: serve: the journal replays verified" \
    's/(encode_command\(cmd, &mut self\.buf\);)/$1 if self.records == 100 { self.buf[6] ^= 0x10; }/'
fault "the tracer books half of each span's self time" perfbench/src/trace.rs sim-acceptance 1 \
    "FAIL: attribution" \
    's/l\.self_ns \+= total - children;/l.self_ns += 0.5 * (total - children);/'
fault "the samplers extrapolate 20x" perfbench/src/trace.rs sim-acceptance 1 \
    "FAIL: attribution: every layer's self time" \
    's/ns \/ timed as f64 \* calls as f64/ns \/ timed as f64 * calls as f64 * 20.0/'
for w in sim-acceptance sweep-mixed serve-greedy; do
    fault "the traced node policy delays some jobs ($w)" perfbench/src/trace.rs "$w" 1 \
        "FAIL: trace:" \
        's/self\.sampler\.call\(\|\| self\.inner\.key\(ctx\)\)/{ let mut k = self.sampler.call(|| self.inner.key(ctx)); if ctx.job.0 % 1000 == 7 { k.primary += 1e6; } k }/'
done

echo "$caught faults caught, $missed missed"
[ "$missed" -eq 0 ]
