//! # bct-harness
//!
//! The experiment sweep engine: runs (topology × workload × policy ×
//! speed × replication) grids on a `std::thread` worker pool with
//! deterministic per-cell seeding, panic isolation, streaming JSONL
//! output, and in-memory streaming aggregation.
//!
//! * [`exec`] — the generic fault-isolated worker pool
//!   ([`exec::execute`] works over any task type; `bct-analysis` and
//!   `examples/run_experiments.rs` drive it directly).
//! * [`spec`] — the one-line textual grammar for topologies, sizes,
//!   speeds, and policies (moved here from `bct-cli`).
//! * [`registry`] — the by-name policy registry (moved here from
//!   `bct-analysis::runner`, which re-exports it).
//! * [`sweep`] — [`sweep::SweepSpec`] → task list → [`sweep::run_sweep`]
//!   → sorted [`sweep::SweepReport`].
//! * [`sink`] — where rows stream while workers race.
//! * [`agg`] — streaming mean/max/ratio accumulators and fixed-bucket
//!   histogram quantiles (p50/p95/p99).
//! * [`rundir`] — durable, resumable run directories: checksummed row
//!   files, torn-tail truncation, spec-hash-pinned manifests, and
//!   [`rundir::run_sweep_dir`], the kill-anywhere/resume-anywhere
//!   entry point.
//! * [`claim`] — the coordinator-free chunk-claim protocol (atomic
//!   claim files, heartbeats, stale takeover) that lets N processes
//!   cooperate on one run dir.
//!
//! Guarantees (see `DESIGN.md` §9):
//!
//! 1. **Determinism** — cell seeds derive from `root_seed` + stable
//!    cell index via splitmix64; sorted JSONL output is byte-identical
//!    at any worker count.
//! 2. **Fault isolation** — a panicking cell is caught, optionally
//!    retried, and recorded as a `Failed { panic_msg }` row with its
//!    reproducer seed; the process never aborts mid-sweep.
//! 3. **Streaming** — rows hit the sink and the aggregator the moment
//!    they finish; progress lines report done/total, rate, and ETA.

pub mod agg;
pub mod claim;
pub mod exec;
pub mod registry;
pub mod rundir;
pub mod sink;
pub mod spec;
pub mod sweep;

pub use exec::{execute, ExecOptions, TaskResult, TaskStatus};
pub use rundir::{run_sweep_dir, RunDir, RunDirOptions};
pub use sink::{JsonlSink, NullSink, RowSink};
pub use sweep::{run_sweep, CellTask, SweepOptions, SweepReport, SweepRow, SweepSpec};
