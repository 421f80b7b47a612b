//! The chunk-claim protocol: coordinator-free cooperation of N
//! processes on one run directory.
//!
//! Chunks of a sweep's cell grid are claimed through the filesystem:
//! a claim is *acquired* by atomically linking a fully-written claim
//! record into place (`O_EXCL` semantics — exactly one winner, and the
//! record's content is complete before its path exists), *kept alive*
//! by heartbeat rewrites (write-to-temp + atomic rename), and
//! *released* by a `.done` marker. A claim is **stale** when its owner
//! process is provably dead (`/proc/<pid>` on Linux) or its heartbeat
//! file is older than the configured timeout; any worker may take a
//! stale claim over by atomically renaming it aside and planting its
//! own.
//!
//! Takeover is deliberately conservative about the one race file
//! systems cannot close without mandatory locks: a live-but-wedged
//! owner that resumes *after* being taken over. Correctness never
//! depends on mutual exclusion — each acquisition runs under a fresh
//! *generation* number, every generation appends to its own row file
//! (see [`crate::rundir`]), and the merge deduplicates byte-identical
//! rows — so the worst a lost race can cost is duplicate work, never a
//! corrupted or nondeterministic output.
//!
//! This module is the only place in the deterministic crates allowed
//! to read wall clocks: heartbeat freshness is inherently a wall-clock
//! question, and nothing derived from a clock ever reaches a row.

use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;
// bct-lint: allow(d2) -- claim staleness and heartbeat throttling are wall-clock questions by definition; no clock value ever reaches a row (DESIGN.md §16)
use std::time::{Instant, SystemTime};

/// The on-disk claim record. Advisory — ownership is the claim *path*
/// (atomically created), the record only says who to check for
/// liveness and which generation the owner writes under.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ClaimInfo {
    /// Owner process id (liveness probe target).
    pub pid: u32,
    /// Row-file generation the owner announced at acquisition.
    pub gen: u64,
    /// Heartbeats written so far (diagnostics only).
    pub beats: u64,
}

/// Outcome of one claim attempt.
pub enum ClaimOutcome {
    /// This process now owns the chunk; run it, then [`ClaimDir::mark_done`].
    Claimed(Claim),
    /// The chunk already carries a done marker — nothing to run.
    Done,
    /// Another live owner holds a fresh claim; poll again later.
    Busy,
}

/// A held claim: the path to keep beating and the owner's identity.
pub struct Claim {
    path: PathBuf,
    info: ClaimInfo,
    last_beat: Instant,
    interval: Duration,
}

impl Claim {
    /// The generation the claim record announced (the row-file
    /// generation is settled by [`crate::rundir`]'s exclusive file
    /// create; this is its starting bid).
    pub fn gen(&self) -> u64 {
        self.info.gen
    }

    /// Refresh the claim's mtime so other workers keep reading it as
    /// live. Throttled internally (a quarter of the staleness timeout),
    /// so callers may invoke it per row at any rate. Best-effort: a
    /// failed beat only risks duplicate work via takeover, never a bad
    /// merge, so errors are swallowed by design.
    pub fn heartbeat(&mut self) {
        if self.last_beat.elapsed() < self.interval {
            return;
        }
        self.info.beats += 1;
        if write_record(&self.path, &self.info).is_ok() {
            // bct-lint: allow(d2) -- see above; throttling state only
            self.last_beat = Instant::now();
        }
    }
}

/// The `claims/` directory of one run dir.
#[derive(Debug)]
pub struct ClaimDir {
    dir: PathBuf,
}

/// Unique-suffix counter for rename-aside and temp files, so one
/// process never collides with itself.
static UNIQUE: AtomicU64 = AtomicU64::new(0);

fn unique_suffix() -> String {
    format!("{}.{}", std::process::id(), UNIQUE.fetch_add(1, Ordering::Relaxed))
}

/// Whether `pid` is a live process. On Linux this is an exact probe
/// (`/proc/<pid>` exists); elsewhere we conservatively answer "alive"
/// and let the mtime timeout decide staleness alone.
fn pid_alive(pid: u32) -> bool {
    #[cfg(target_os = "linux")]
    {
        pid != 0 && Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        pid != 0
    }
}

/// Write a claim record to `path` atomically: full content to a temp
/// file in the same directory, then rename over the target.
fn write_record(path: &Path, info: &ClaimInfo) -> Result<(), String> {
    let tmp = path.with_extension(format!("tmp.{}", unique_suffix()));
    let json = serde_json::to_string(info)
        .map_err(|e| format!("claim record serialize: {e}"))?;
    let write = |p: &Path| -> std::io::Result<()> {
        let mut f = fs::File::create(p)?;
        f.write_all(json.as_bytes())?;
        f.flush()
    };
    write(&tmp).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    fs::rename(&tmp, path).map_err(|e| format!("renaming {}: {e}", tmp.display()))
}

impl ClaimDir {
    /// Open (creating if needed) the claims directory.
    pub fn new(dir: &Path) -> Result<ClaimDir, String> {
        fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(ClaimDir { dir: dir.to_path_buf() })
    }

    fn claim_path(&self, chunk: usize) -> PathBuf {
        self.dir.join(format!("chunk-{chunk:05}.claim"))
    }

    fn done_path(&self, chunk: usize) -> PathBuf {
        self.dir.join(format!("chunk-{chunk:05}.done"))
    }

    /// Whether `chunk` carries a done marker.
    pub fn is_done(&self, chunk: usize) -> bool {
        self.done_path(chunk).exists()
    }

    /// Atomically plant a claim record at `path` with `O_EXCL`
    /// semantics: the record is fully written to a temp file first,
    /// then hard-linked into place, so no reader can ever observe a
    /// half-written claim. Returns `Ok(false)` when someone else got
    /// there first.
    fn plant(&self, path: &Path, info: &ClaimInfo) -> Result<bool, String> {
        let tmp = self.dir.join(format!("plant.{}", unique_suffix()));
        let json = serde_json::to_string(info)
            .map_err(|e| format!("claim record serialize: {e}"))?;
        fs::write(&tmp, json).map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        let linked = match fs::hard_link(&tmp, path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => Ok(false),
            Err(e) => Err(format!("linking {}: {e}", path.display())),
        };
        let _ = fs::remove_file(&tmp);
        linked
    }

    /// Whether the claim at `path` is stale: its owner is provably dead,
    /// or its heartbeat mtime is older than `timeout`. An unreadable or
    /// torn record reads as pid 0 — dead — so a crash between link and
    /// nothing (impossible by construction, but cheap to be safe about)
    /// can never wedge a chunk forever.
    fn is_stale(&self, path: &Path, timeout: Duration) -> bool {
        let info: ClaimInfo = fs::read_to_string(path)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
            .unwrap_or(ClaimInfo { pid: 0, gen: 0, beats: 0 });
        if !pid_alive(info.pid) {
            return true;
        }
        // bct-lint: allow(d2) -- heartbeat age is a wall-clock question by definition; the value never reaches a row
        let now = SystemTime::now();
        match fs::metadata(path).and_then(|m| m.modified()) {
            Ok(mtime) => now.duration_since(mtime).map(|age| age > timeout).unwrap_or(false),
            // Claim vanished between probe and stat: let the next
            // attempt settle it.
            Err(_) => false,
        }
    }

    /// Try to claim `chunk`. `min_gen` is the lowest generation the
    /// caller may write under (one past the highest generation with
    /// existing row files — see [`crate::rundir`]); a takeover bumps it
    /// past the stale owner's announced generation too.
    pub fn try_claim(
        &self,
        chunk: usize,
        min_gen: u64,
        timeout: Duration,
    ) -> Result<ClaimOutcome, String> {
        if self.is_done(chunk) {
            return Ok(ClaimOutcome::Done);
        }
        let path = self.claim_path(chunk);
        let mut gen = min_gen.max(1);
        if !self.plant(&path, &claim_info(gen))? {
            // Someone holds it. Fresh + live ⇒ back off; stale ⇒ rename
            // the corpse aside (atomic — exactly one winner per corpse)
            // and plant our own.
            if !self.is_stale(&path, timeout) {
                return Ok(ClaimOutcome::Busy);
            }
            let stale: ClaimInfo = fs::read_to_string(&path)
                .ok()
                .and_then(|s| serde_json::from_str(&s).ok())
                .unwrap_or(ClaimInfo { pid: 0, gen: 0, beats: 0 });
            gen = gen.max(stale.gen + 1);
            let aside = self.dir.join(format!("chunk-{chunk:05}.stale.{}", unique_suffix()));
            if fs::rename(&path, &aside).is_err() {
                // Another worker won the takeover (or the owner finished
                // and removed its claim); poll again later.
                return Ok(ClaimOutcome::Busy);
            }
            let _ = fs::remove_file(&aside);
            if !self.plant(&path, &claim_info(gen))? {
                return Ok(ClaimOutcome::Busy);
            }
        }
        // A done marker may have landed while we were racing for the
        // claim (the prior owner finishing normally); honor it.
        if self.is_done(chunk) {
            let _ = fs::remove_file(&path);
            return Ok(ClaimOutcome::Done);
        }
        let interval = (timeout / 4).max(Duration::from_millis(5));
        Ok(ClaimOutcome::Claimed(Claim {
            path,
            info: claim_info(gen),
            // bct-lint: allow(d2) -- heartbeat throttling state; never reaches a row
            last_beat: Instant::now(),
            interval,
        }))
    }

    /// Mark `chunk` finished (atomic temp + rename — idempotent, and a
    /// double finish from a takeover race writes the same bytes) and
    /// release the claim.
    pub fn mark_done(&self, chunk: usize, rows: usize) -> Result<(), String> {
        let done = self.done_path(chunk);
        let tmp = self.dir.join(format!("done.{}", unique_suffix()));
        fs::write(&tmp, format!("{{\"rows\":{rows}}}"))
            .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
        fs::rename(&tmp, &done).map_err(|e| format!("renaming {}: {e}", tmp.display()))?;
        let _ = fs::remove_file(self.claim_path(chunk));
        Ok(())
    }
}

fn claim_info(gen: u64) -> ClaimInfo {
    ClaimInfo { pid: std::process::id(), gen, beats: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_claims(name: &str) -> ClaimDir {
        let dir = std::env::temp_dir()
            .join(format!("bct_claim_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ClaimDir::new(&dir).unwrap()
    }

    const LONG: Duration = Duration::from_secs(60);

    #[test]
    fn second_claim_on_a_fresh_live_chunk_is_busy() {
        let cd = tmp_claims("busy");
        let first = cd.try_claim(0, 1, LONG).unwrap();
        assert!(matches!(first, ClaimOutcome::Claimed(_)));
        // Same pid, fresh mtime: not stale, so a second worker backs off.
        assert!(matches!(cd.try_claim(0, 1, LONG).unwrap(), ClaimOutcome::Busy));
    }

    #[test]
    fn dead_owner_is_taken_over_with_a_bumped_generation() {
        let cd = tmp_claims("dead");
        // Plant a claim by a pid that cannot exist (beyond Linux's
        // default pid_max), announcing generation 3.
        fs::write(
            cd.claim_path(1),
            serde_json::to_string(&ClaimInfo { pid: 999_999_999, gen: 3, beats: 0 }).unwrap(),
        )
        .unwrap();
        match cd.try_claim(1, 1, LONG).unwrap() {
            ClaimOutcome::Claimed(c) => assert_eq!(c.gen(), 4, "must outbid the stale owner"),
            _ => panic!("dead owner must be taken over"),
        }
    }

    #[test]
    fn corrupt_claim_records_read_as_dead() {
        let cd = tmp_claims("corrupt");
        fs::write(cd.claim_path(2), b"not json at all").unwrap();
        assert!(matches!(cd.try_claim(2, 5, LONG).unwrap(), ClaimOutcome::Claimed(_)));
    }

    #[test]
    fn heartbeat_timeout_makes_a_live_owner_stale() {
        let cd = tmp_claims("timeout");
        let short = Duration::from_millis(20);
        let first = cd.try_claim(3, 1, short).unwrap();
        assert!(matches!(first, ClaimOutcome::Claimed(_)));
        std::thread::sleep(Duration::from_millis(60));
        // Owner (this very process) is alive, but the heartbeat is old.
        match cd.try_claim(3, 1, short).unwrap() {
            ClaimOutcome::Claimed(c) => assert_eq!(c.gen(), 2),
            _ => panic!("a timed-out heartbeat must allow takeover"),
        }
    }

    #[test]
    fn heartbeats_keep_a_claim_alive() {
        let cd = tmp_claims("beats");
        let short = Duration::from_millis(40);
        let mut claim = match cd.try_claim(4, 1, short).unwrap() {
            ClaimOutcome::Claimed(c) => c,
            _ => panic!("first claim must win"),
        };
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(15));
            claim.heartbeat();
            assert!(
                matches!(cd.try_claim(4, 1, short).unwrap(), ClaimOutcome::Busy),
                "a beating claim must never be stolen"
            );
        }
    }

    #[test]
    fn done_markers_end_the_protocol() {
        let cd = tmp_claims("done");
        match cd.try_claim(5, 1, LONG).unwrap() {
            ClaimOutcome::Claimed(_) => {}
            _ => panic!("first claim must win"),
        }
        cd.mark_done(5, 4).unwrap();
        assert!(cd.is_done(5));
        assert!(matches!(cd.try_claim(5, 1, LONG).unwrap(), ClaimOutcome::Done));
        assert!(!cd.claim_path(5).exists(), "done must release the claim");
    }
}
