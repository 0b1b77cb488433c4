//! Sharded, multi-process sweep execution: strided shard planning, a
//! crash-resilient child-process supervisor, and an exact shard merge.
//!
//! The in-process worker pool in [`crate::sweep`] parallelises one
//! process; it cannot survive a hard crash (an abort, OOM kill or
//! segfault takes every in-flight point with it) and cannot span
//! processes or hosts. This module layers process-level resilience on
//! top of the checkpoint substrate:
//!
//! * **Shard planning** — [`ShardSpec`] names one strided slice of a
//!   point list (`--shard i/N`): point `p` belongs to shard `p mod N`.
//!   Striding (rather than chunking) balances grids whose expensive
//!   points cluster, and the plan is a pure function of the grid order,
//!   so every process — workers, supervisor, merge — derives the same
//!   partition independently. [`shard_path`] derives the per-shard
//!   checkpoint file from the sweep's base `--json` path the same way.
//! * **Supervision** — [`supervise`] spawns one child process per shard
//!   (normally the current binary re-invoked with `--shard i/N
//!   --resume`), streams each child's output tagged `[shard i/N]`, and
//!   on a *crashed* child (non-zero exit or death by signal) retries
//!   that shard with bounded exponential backoff, deterministically
//!   jittered per shard so a fleet that died together does not retry in
//!   lock-step. With a `--watchdog` budget, the supervisor also detects
//!   *hung* children: a worker whose heartbeat `done` count has not
//!   advanced for the budget is killed and retried exactly like a
//!   crash. A child exiting with [`EXIT_RECORDED_FAILURES`] finished
//!   its slice with recorded point failures on the books (e.g. point
//!   timeouts); that is terminal — retrying would only re-serve the
//!   same recorded failures. Because the child resumes from its shard
//!   checkpoint, completed points are never re-simulated: a crash loses
//!   at most the in-flight points of one shard. With `--status`, the
//!   supervisor also reads each child's heartbeat file (at the
//!   [`shard_path`] of the status base) every ~2 s, renders a one-line
//!   `fleet:` view — per-shard phase, progress, throughput, ETA and
//!   retry count, with dead workers' frozen heartbeats rendered
//!   `stale` — and rewrites the absorbed aggregate [`Heartbeat`] at
//!   the base status path, so one `watch cat` covers the whole fleet.
//! * **Merge** — [`merge_shards`] loads the shard checkpoints
//!   (quarantining any damaged lines to `.bad` sidecars, see
//!   [`Checkpoint::load_quarantining`]), answers every expected
//!   `(label, fingerprint)` pair by the rule a resume uses
//!   ([`Checkpoint::serve`]: a label's last line, if its fingerprint
//!   matches), reports points that are missing or stale (recorded
//!   failures satisfy coverage), and stitches the lines back in grid
//!   submission order. Downstream totals fold through
//!   `merge_memory_stats`, whose stat types are exact merge monoids, so
//!   the merged output is bit-identical to a single-process run.
//!
//! [`run_lifecycle`] ties the three together behind the sweep binaries'
//! shared CLI: `--shard` / `--shards` / `--merge` select a [`ShardCli`]
//! mode, which only chooses the inputs of one run → stitch → exit
//! lifecycle.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::checkpoint::{Checkpoint, CheckpointEntry, CheckpointWriter, Line, Serve};
use crate::prune::{summarize, Attributed, PrunePolicy};
use crate::sweep::{
    exit_code, sweep_map_checkpointed, SweepOptions, SweepResult, Tally, EXIT_RECORDED_FAILURES,
};
use crate::telemetry::{
    format_eta, heartbeat_age, read_heartbeat, write_heartbeat, write_prometheus, Heartbeat,
};
use gemmini_core::metrics::Counter;
use gemmini_core::AccelError;
use gemmini_mem::json::{FromJson, ToJson};

/// One strided shard of a sweep partition: `index` in `0..count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ShardSpec {
    /// This shard's position in the partition.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl ShardSpec {
    /// Validated constructor: `count` must be positive and `index` in
    /// range.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a zero count or an
    /// out-of-range index.
    pub fn new(index: usize, count: usize) -> Result<Self, String> {
        if count == 0 {
            return Err("shard count must be at least 1".to_string());
        }
        if index >= count {
            return Err(format!(
                "shard index {index} out of range for {count} shard(s) (expected 0..{count})"
            ));
        }
        Ok(Self { index, count })
    }

    /// Parses the CLI form `i/N` (e.g. `0/4`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for anything that is not a valid
    /// `index/count` pair.
    pub fn parse(s: &str) -> Result<Self, String> {
        let (index, count) = s
            .split_once('/')
            .ok_or_else(|| format!("invalid shard spec '{s}' (expected i/N, e.g. 0/4)"))?;
        let index = index
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("invalid shard index in '{s}'"))?;
        let count = count
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("invalid shard count in '{s}'"))?;
        Self::new(index, count)
    }

    /// Whether grid position `position` belongs to this shard.
    pub fn owns(&self, position: usize) -> bool {
        position % self.count == self.index
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The strided slice of `items` owned by `spec`, preserving grid order.
/// Striding runs over *slots*, not points: a point takes the slot of the
/// first earlier point with its fingerprint (its dedup leader, see
/// [`sweep_map_checkpointed`]), else the slot of its prune group under
/// `policy` (basis and members together), else a new one. So a worker
/// can serve its followers and make its own prune decisions without
/// cross-process coordination. Slots go by first appearance in grid
/// order — a pure function of the grid and the policy, so workers,
/// supervisor and merge agree.
pub fn shard_items_grouped<I>(
    items: Vec<(String, u64, I)>,
    spec: ShardSpec,
    policy: Option<&PrunePolicy>,
) -> Vec<(String, u64, I)> {
    let mut slot_of_fingerprint: HashMap<u64, usize> = HashMap::new();
    let mut slot_of_group: HashMap<String, usize> = HashMap::new();
    let mut next_slot = 0usize;
    items
        .into_iter()
        .filter(|(label, fingerprint, _)| {
            // A member shares its group basis's slot; a basis or an
            // ungrouped point keys on its own label.
            let group = policy
                .and_then(|p| p.group_of_member(label))
                .map_or(label.as_str(), |g| g.basis.as_str());
            let slot = slot_of_fingerprint
                .get(fingerprint)
                .or_else(|| slot_of_group.get(group))
                .copied()
                .unwrap_or_else(|| {
                    next_slot += 1;
                    next_slot - 1
                });
            slot_of_fingerprint.entry(*fingerprint).or_insert(slot);
            slot_of_group.entry(group.to_string()).or_insert(slot);
            spec.owns(slot)
        })
        .collect()
}

/// The per-shard checkpoint path derived from the sweep's base path:
/// `sweep.jsonl` → `sweep.shard0of4.jsonl` (extension preserved; a path
/// without one gets the suffix appended). Workers, the supervisor and
/// the merge all derive the same name independently.
pub fn shard_path(base: &Path, spec: ShardSpec) -> PathBuf {
    let stem = base.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
    let suffix = format!("shard{}of{}", spec.index, spec.count);
    let name = match base.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{stem}.{suffix}.{ext}"),
        None => format!("{stem}.{suffix}"),
    };
    base.with_file_name(name)
}

/// The `.bad` quarantine sidecar next to a checkpoint file (see
/// [`Checkpoint::load_quarantining`]).
fn sidecar_of(path: &Path) -> PathBuf {
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("checkpoint.jsonl");
    path.with_file_name(format!("{file_name}.bad"))
}

/// Supervisor retry policy.
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// Total attempts per shard, including the first run.
    pub max_attempts: usize,
    /// Backoff before the first retry; doubles per subsequent retry,
    /// plus a deterministic per-shard jitter (see [`backoff_delay`]).
    pub backoff: Duration,
    /// Per-shard crash-retry counters, indexed by shard index and bumped
    /// the moment a retry is scheduled (not when it recovers), so the
    /// fleet monitor can render live retry counts. `None` skips the
    /// bookkeeping.
    pub retry_counts: Option<Arc<Vec<AtomicU64>>>,
    /// Hung-shard watchdog budget: a child whose heartbeat `done` count
    /// has not advanced for this long is killed and retried like a
    /// crash. Requires `status_base` (the watchdog reads the child
    /// heartbeat at its [`shard_path`]); `None` disables the watchdog.
    pub watchdog: Option<Duration>,
    /// The base `--status` path whose [`shard_path`] locates each
    /// child's heartbeat file for the watchdog.
    pub status_base: Option<PathBuf>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            backoff: Duration::from_millis(250),
            retry_counts: None,
            watchdog: None,
            status_base: None,
        }
    }
}

/// How one supervised shard concluded (successfully).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOutcome {
    /// The shard.
    pub spec: ShardSpec,
    /// Attempts it took, `1` meaning no crash.
    pub attempts: usize,
    /// The final attempt exited with [`EXIT_RECORDED_FAILURES`]: the
    /// slice is fully covered, but some points carry recorded failures
    /// (e.g. point timeouts). Terminal — a retry would only re-serve
    /// the same recorded failures from the checkpoint.
    pub completed_with_failures: bool,
}

/// Why supervision failed. Every shard still runs to completion or
/// retry-exhaustion before this is returned; the error describes the
/// first shard (by index) that exhausted its attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorError {
    /// The shard's child process could not be spawned at all.
    Spawn {
        /// The shard whose child failed to spawn.
        spec: ShardSpec,
        /// The OS error text.
        message: String,
    },
    /// Waiting on the child failed.
    Wait {
        /// The shard whose child could not be waited on.
        spec: ShardSpec,
        /// The OS error text.
        message: String,
    },
    /// The shard crashed on every attempt.
    Exhausted {
        /// The shard that kept crashing.
        spec: ShardSpec,
        /// Attempts made.
        attempts: usize,
        /// Description of the final exit status (code or signal).
        last_status: String,
    },
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Spawn { spec, message } => {
                write!(f, "cannot spawn worker for shard {spec}: {message}")
            }
            Self::Wait { spec, message } => {
                write!(f, "cannot wait on worker for shard {spec}: {message}")
            }
            Self::Exhausted {
                spec,
                attempts,
                last_status,
            } => write!(
                f,
                "shard {spec} crashed on all {attempts} attempt(s); last status: {last_status}"
            ),
        }
    }
}

impl std::error::Error for SupervisorError {}

/// Forwards every line of a child stream to our stderr under the
/// shard's tag, so N children interleave legibly in one terminal.
fn forward_lines<R: Read + Send + 'static>(
    prefix: String,
    stream: R,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        for line in BufReader::new(stream).lines() {
            match line {
                Ok(line) => eprintln!("{prefix}{line}"),
                Err(_) => break,
            }
        }
    })
}

/// Deterministic per-shard jitter in `[0, 1)`: a splitmix64-style bit
/// mix of the shard index and the attempt number. Desynchronises the
/// retry stampede of a fleet that crashed together (e.g. a shared
/// filesystem blip taking every worker down at once) without
/// introducing real randomness — the same `(shard, attempt)` always
/// backs off for exactly the same duration, so supervised runs stay
/// reproducible.
fn jitter_fraction(shard_index: usize, completed_attempts: usize) -> f64 {
    let mut z = (shard_index as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(completed_attempts as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Top 53 bits map exactly onto the double mantissa: uniform [0, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// The supervisor's retry delay: exponential in the number of completed
/// attempts, plus up to +50% deterministic per-shard jitter, capped at
/// 10 s overall.
fn backoff_delay(base: Duration, completed_attempts: usize, shard_index: usize) -> Duration {
    const CAP: Duration = Duration::from_secs(10);
    let factor = 1u32 << completed_attempts.saturating_sub(1).min(8);
    let exponential = (base * factor).min(CAP);
    let jitter = exponential.mul_f64(0.5 * jitter_fraction(shard_index, completed_attempts));
    (exponential + jitter).min(CAP)
}

fn run_one_shard<C>(
    spec: ShardSpec,
    make_child: &C,
    opts: &SupervisorOptions,
) -> Result<ShardOutcome, SupervisorError>
where
    C: Fn(ShardSpec) -> Command,
{
    let max_attempts = opts.max_attempts.max(1);
    // The watchdog needs both a budget and a heartbeat to read.
    let heartbeat_path = match (&opts.watchdog, &opts.status_base) {
        (Some(_), Some(base)) => Some(shard_path(base, spec)),
        _ => None,
    };
    let mut last_status = String::new();
    for attempt in 1..=max_attempts {
        let mut cmd = make_child(spec);
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
        let mut child = cmd.spawn().map_err(|e| SupervisorError::Spawn {
            spec,
            message: e.to_string(),
        })?;
        let forwarders: Vec<_> = [
            child
                .stdout
                .take()
                .map(|s| forward_lines(format!("[shard {spec}] "), s)),
            child
                .stderr
                .take()
                .map(|s| forward_lines(format!("[shard {spec}] "), s)),
        ]
        .into_iter()
        .flatten()
        .collect();
        // Poll rather than block so the watchdog can act while the child
        // lives. Progress is the heartbeat's `done` count advancing, not
        // the file's freshness: a worker wedged inside one point keeps
        // rewriting its heartbeat (its monitor thread is alive) while
        // `done` stays frozen.
        let mut watchdog_fired = false;
        let mut last_done: Option<usize> = None;
        let mut last_progress = Instant::now();
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) => {}
                Err(e) => {
                    return Err(SupervisorError::Wait {
                        spec,
                        message: e.to_string(),
                    })
                }
            }
            if let (Some(budget), Some(path)) = (opts.watchdog, &heartbeat_path) {
                if let Some(hb) = read_heartbeat(path) {
                    if last_done != Some(hb.done) {
                        last_done = Some(hb.done);
                        last_progress = Instant::now();
                    }
                }
                if last_progress.elapsed() >= budget {
                    eprintln!(
                        "supervisor: shard {spec} hung (no heartbeat progress for {:.0}s); killing it",
                        last_progress.elapsed().as_secs_f64()
                    );
                    watchdog_fired = true;
                    let _ = child.kill();
                    break child.wait().map_err(|e| SupervisorError::Wait {
                        spec,
                        message: e.to_string(),
                    })?;
                }
            }
            std::thread::sleep(Duration::from_millis(100));
        };
        for handle in forwarders {
            let _ = handle.join();
        }
        let completed_with_failures = status.code() == Some(EXIT_RECORDED_FAILURES);
        if status.success() || completed_with_failures {
            if attempt > 1 {
                eprintln!("supervisor: shard {spec} recovered on attempt {attempt}");
            }
            if completed_with_failures {
                eprintln!(
                    "supervisor: shard {spec} completed with recorded point failures \
                     (exit {EXIT_RECORDED_FAILURES}); not retrying — the failures are on the books"
                );
            }
            return Ok(ShardOutcome {
                spec,
                attempts: attempt,
                completed_with_failures,
            });
        }
        last_status = if watchdog_fired {
            format!("killed by watchdog: {status}")
        } else {
            status.to_string()
        };
        if attempt < max_attempts {
            if let Some(counts) = &opts.retry_counts {
                if let Some(slot) = counts.get(spec.index) {
                    slot.fetch_add(1, Ordering::Relaxed);
                }
            }
            let delay = backoff_delay(opts.backoff, attempt, spec.index);
            eprintln!(
                "supervisor: shard {spec} crashed ({last_status}); retrying from its checkpoint in {:.2}s (attempt {}/{max_attempts})",
                delay.as_secs_f64(),
                attempt + 1
            );
            std::thread::sleep(delay);
        }
    }
    Err(SupervisorError::Exhausted {
        spec,
        attempts: max_attempts,
        last_status,
    })
}

/// Runs `count` shard worker processes to completion, retrying crashed
/// shards (non-zero exit or death by signal) with bounded exponential
/// backoff, deterministically jittered per shard. With a watchdog
/// budget and a status base in `opts`, a child whose heartbeat `done`
/// count does not advance for the budget is killed and retried like a
/// crash. A child exiting with [`EXIT_RECORDED_FAILURES`] is accepted
/// as terminal (`completed_with_failures` in its outcome) — its slice
/// is fully covered, and a retry would only re-serve the recorded
/// failures. `make_child` builds the command for one shard — normally
/// the current binary re-invoked with `--shard i/N --resume`, so a
/// retried shard resumes from its checkpoint and never re-simulates
/// completed points. All shards run concurrently; each child's stdout
/// and stderr stream to our stderr tagged `[shard i/N]`.
///
/// Every shard runs to completion or retry-exhaustion even when another
/// shard fails permanently (their checkpoints remain valid for a later
/// resume); the first failure (by shard index) is then returned.
///
/// # Errors
///
/// Returns [`SupervisorError`] if any shard cannot be spawned, cannot be
/// waited on, or crashes on every attempt.
///
/// # Panics
///
/// Panics if `count` is zero or an internal supervisor thread panics.
pub fn supervise<C>(
    count: usize,
    make_child: C,
    opts: &SupervisorOptions,
) -> Result<Vec<ShardOutcome>, SupervisorError>
where
    C: Fn(ShardSpec) -> Command + Sync,
{
    assert!(count > 0, "cannot supervise zero shards");
    let results: Vec<Result<ShardOutcome, SupervisorError>> = std::thread::scope(|scope| {
        let make_child = &make_child;
        let handles: Vec<_> = (0..count)
            .map(|index| {
                let spec = ShardSpec { index, count };
                scope.spawn(move || run_one_shard(spec, make_child, opts))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard supervisor thread panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// How old a child heartbeat may grow before the fleet view renders the
/// shard `stale` (used when no `--watchdog` budget overrides it). A
/// live worker rewrites its heartbeat every ~2 s even when wedged, so a
/// file this old means the writer is gone.
const DEFAULT_STALENESS: Duration = Duration::from_secs(10);

/// One child heartbeat read for the fleet view: `None` until the shard
/// writes its first heartbeat, then the heartbeat plus its file age
/// (`None` when the filesystem withholds an mtime).
type ChildRead = Option<(Heartbeat, Option<Duration>)>;

/// Reads every child heartbeat (at the [`shard_path`] of the status
/// base) and folds them into one fleet [`Heartbeat`], stamping in the
/// supervisor's retry counters. Children that have not written yet read
/// as `None` and contribute nothing — the aggregate grows as the fleet
/// comes up. Returns the aggregate plus the per-child reads (each with
/// its heartbeat file's age) for rendering.
fn fleet_snapshot(
    status_base: &Path,
    specs: &[ShardSpec],
    retry_counts: &[AtomicU64],
) -> (Heartbeat, Vec<ChildRead>) {
    let children: Vec<ChildRead> = specs
        .iter()
        .map(|spec| {
            let path = shard_path(status_base, *spec);
            read_heartbeat(&path).map(|hb| (hb, heartbeat_age(&path)))
        })
        .collect();
    let mut fleet = Heartbeat::starting(0);
    for (child, _) in children.iter().flatten() {
        fleet.absorb(child);
    }
    fleet.retries = retry_counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
    (fleet, children)
}

/// One `fleet:` progress line: a bracketed segment per shard (phase,
/// position, throughput, ETA, retries) followed by the aggregate. A
/// shard whose heartbeat says `run` but whose file has not been
/// rewritten within the staleness budget is rendered `stale`: its
/// writer is gone (killed or crashed mid-run), so the frozen rate and
/// ETA would be lies and are suppressed.
fn fleet_line(
    specs: &[ShardSpec],
    children: &[ChildRead],
    retry_counts: &[AtomicU64],
    fleet: &Heartbeat,
    staleness: Duration,
) -> String {
    let mut segments = Vec::with_capacity(specs.len());
    for (spec, child) in specs.iter().zip(children) {
        let mut seg = match child {
            Some((hb, age)) => {
                let stale = hb.phase == "run" && age.is_some_and(|a| a > staleness);
                let phase = if stale { "stale" } else { hb.phase.as_str() };
                let mut s = format!("{} {phase} {}/{}", spec.index, hb.done, hb.total);
                if hb.phase == "run" && !stale {
                    s.push_str(&format!(" {:.2}pts/s", hb.rate_pts_per_sec));
                    if let Some(eta) = hb.eta_secs {
                        s.push_str(&format!(" eta {}", format_eta(eta)));
                    }
                }
                s
            }
            None => format!("{} starting", spec.index),
        };
        let retries = retry_counts
            .get(spec.index)
            .map_or(0, |c| c.load(Ordering::Relaxed));
        if retries > 0 {
            seg.push_str(&format!(" r{retries}"));
        }
        segments.push(format!("[{seg}]"));
    }
    let mut line = format!(
        "fleet: {} | {}/{} pts",
        segments.join(" "),
        fleet.done,
        fleet.total
    );
    if fleet.rate_pts_per_sec > 0.0 {
        line.push_str(&format!(", {:.2} pts/s", fleet.rate_pts_per_sec));
    }
    if let Some(eta) = fleet.eta_secs {
        line.push_str(&format!(", eta {}", format_eta(eta)));
    }
    if fleet.retries > 0 {
        line.push_str(&format!(
            ", {} retr{}",
            fleet.retries,
            if fleet.retries == 1 { "y" } else { "ies" }
        ));
    }
    line
}

/// Background thread behind the supervisor's fleet view: every ~2 s it
/// absorbs the children's heartbeats into an aggregate written at the
/// base status path and prints a `fleet:` line (once at least one child
/// has reported — silence instead of a wall of `starting` brackets).
/// Dropping it stops and joins the thread; the supervisor then writes
/// the final `done`/`failed` aggregate itself so the monitor can never
/// overwrite the terminal state.
struct FleetMonitor {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FleetMonitor {
    fn spawn(
        status_base: Option<PathBuf>,
        specs: &[ShardSpec],
        retry_counts: &Arc<Vec<AtomicU64>>,
        staleness: Duration,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let Some(base) = status_base else {
            return Self { stop, handle: None };
        };
        let thread_stop = Arc::clone(&stop);
        let specs = specs.to_vec();
        let retry_counts = Arc::clone(retry_counts);
        let handle = std::thread::spawn(move || {
            loop {
                // Check before the read-render pass so that after stop is
                // raised we render exactly once more: the children have
                // exited and written their final heartbeats by then, so a
                // fleet too fast for the 2 s cadence still gets one line.
                let stopping = thread_stop.load(Ordering::Relaxed);
                let (fleet, children) = fleet_snapshot(&base, &specs, &retry_counts);
                let _ = write_heartbeat(&base, &fleet);
                if children.iter().any(Option::is_some) {
                    eprintln!(
                        "{}",
                        fleet_line(&specs, &children, &retry_counts, &fleet, staleness)
                    );
                }
                if stopping {
                    break;
                }
                // Sleep in short slices so shutdown stays prompt.
                for _ in 0..8 {
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(250));
                }
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for FleetMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Writes the supervisor's terminal heartbeat (`done` or `failed`): the
/// absorbed children with the final retry totals, ETA cleared. On
/// success with `--metrics`, also renders the fleet's merged registry
/// snapshot as Prometheus exposition at the base metrics path.
fn finalize_fleet(
    opts: &SweepOptions,
    specs: &[ShardSpec],
    retry_counts: &[AtomicU64],
    phase: &str,
) {
    let snapshot = match &opts.status {
        Some(status) => {
            let (mut fleet, _) = fleet_snapshot(status, specs, retry_counts);
            fleet.phase = phase.to_string();
            fleet.eta_secs = None;
            let _ = write_heartbeat(status, &fleet);
            Some(fleet.metrics.unwrap_or_default())
        }
        // Without heartbeats there is no fleet snapshot to merge; expose
        // at least the supervisor's own registry.
        None => opts.metrics.snapshot(),
    };
    if let (Some(prom), Some(snapshot), "done") = (&opts.prometheus, snapshot, phase) {
        let _ = write_prometheus(prom, &snapshot);
    }
}

/// Why a shard merge could not produce the full grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// A shard checkpoint file could not be read.
    Io {
        /// The unreadable file.
        path: PathBuf,
        /// The OS error text.
        message: String,
    },
    /// The shard checkpoints do not cover the grid exactly.
    Incomplete {
        /// Grid labels with no entry in any shard checkpoint.
        missing: Vec<String>,
        /// Grid labels whose entries carry a stale fingerprint (the
        /// design point changed since the shard ran).
        stale: Vec<String>,
    },
    /// Pruned entries whose recorded evidence the stitched set cannot
    /// back: the named basis is missing, was itself pruned, or carries a
    /// different fingerprint than the evidence — the shards disagree on
    /// the prune decision and must run again.
    PruneMismatch {
        /// Labels of the pruned points with unbacked evidence.
        disagreeing: Vec<String>,
    },
}

fn preview(labels: &[String]) -> String {
    const SHOW: usize = 5;
    let mut s = labels
        .iter()
        .take(SHOW)
        .map(String::as_str)
        .collect::<Vec<_>>()
        .join(", ");
    if labels.len() > SHOW {
        s.push_str(&format!(", … {} more", labels.len() - SHOW));
    }
    s
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io { path, message } => {
                write!(
                    f,
                    "cannot read shard checkpoint {}: {message}",
                    path.display()
                )
            }
            Self::Incomplete { missing, stale } => {
                write!(f, "checkpoints do not cover every point:")?;
                if !missing.is_empty() {
                    write!(
                        f,
                        " {} point(s) missing ({})",
                        missing.len(),
                        preview(missing)
                    )?;
                }
                if !stale.is_empty() {
                    write!(f, " {} point(s) stale ({})", stale.len(), preview(stale))?;
                }
                write!(
                    f,
                    "; resuming a shard re-runs exactly the points stale, \
                     missing or damaged in its checkpoint"
                )
            }
            Self::PruneMismatch { disagreeing } => write!(
                f,
                "shards disagree on prune decisions: {} pruned point(s) whose basis is missing, \
                 pruned, or fingerprint-mismatched ({})",
                disagreeing.len(),
                preview(disagreeing)
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Loads shard checkpoint files and stitches one line per expected
/// `(label, fingerprint)` pair, in the order given — grid submission
/// order — regardless of which shard ran which point or in what order
/// points completed. Damaged lines are quarantined to each file's
/// `.bad` sidecar while loading (see [`Checkpoint::load_quarantining`]).
/// The files read as one concatenated checkpoint, and each point is
/// answered by the same rule a resume uses ([`Checkpoint::serve`]): a
/// point with no line is reported missing, and one whose last line's
/// fingerprint no longer matches is reported stale (either means the
/// shards must run again before the merge can succeed). A recorded
/// failure with a current fingerprint covers its point: the grid
/// *finished*, just with that failure on the books.
///
/// # Errors
///
/// Returns [`MergeError::Io`] for an unreadable shard file (a missing
/// file reads as empty, surfacing as missing points instead) and
/// [`MergeError::Incomplete`] listing every missing or stale label.
pub fn merge_shards<T: FromJson>(
    expected: &[(String, u64)],
    paths: &[PathBuf],
) -> Result<Vec<Line<T>>, MergeError> {
    let mut combined = Checkpoint::<T>::default();
    for path in paths {
        let (loaded, _) = Checkpoint::load_quarantining(path).map_err(|e| MergeError::Io {
            path: path.clone(),
            message: e.to_string(),
        })?;
        combined.absorb(loaded);
    }
    let mut lines = Vec::with_capacity(expected.len());
    let mut missing = Vec::new();
    let mut stale = Vec::new();
    for (label, fingerprint) in expected {
        match combined.serve(label, *fingerprint) {
            Serve::Line(line) => lines.push(line),
            Serve::Stale => stale.push(label.clone()),
            Serve::Missing => missing.push(label.clone()),
        }
    }
    if !missing.is_empty() || !stale.is_empty() {
        return Err(MergeError::Incomplete { missing, stale });
    }
    // Every pruned entry must be backed by the stitched set itself: its
    // basis present, really simulated, and carrying the fingerprint the
    // evidence recorded. Anything else means the shards pruned against a
    // different grid than the one being merged. Recorded failures carry
    // no payload and can neither back nor hold evidence.
    let completed: Vec<&CheckpointEntry<T>> = lines
        .iter()
        .filter_map(|line| match line {
            Line::Completed(entry) => Some(entry),
            Line::Failed(_) => None,
        })
        .collect();
    let by_label: HashMap<&str, (&u64, bool)> = completed
        .iter()
        .map(|e| (e.label.as_str(), (&e.fingerprint, e.pruned.is_some())))
        .collect();
    let disagreeing: Vec<String> = completed
        .iter()
        .filter(|e| {
            e.pruned.as_ref().is_some_and(|ev| {
                !matches!(
                    by_label.get(ev.basis_label.as_str()),
                    Some((fp, false)) if **fp == ev.basis_fingerprint
                )
            })
        })
        .map(|e| e.label.clone())
        .collect();
    if disagreeing.is_empty() {
        Ok(lines)
    } else {
        Err(MergeError::PruneMismatch { disagreeing })
    }
}

/// Writes merged lines to `path` as a fresh checkpoint file — the
/// supervisor's final step, leaving the base `--json` path holding the
/// same submission-ordered lines a single-process serial run would have
/// produced (modulo each point's recorded wall-clock).
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn write_entries<T: ToJson>(path: &Path, lines: &[Line<T>]) -> io::Result<()> {
    let writer = CheckpointWriter::create(path)?;
    for line in lines {
        match line {
            Line::Completed(entry) => writer.append(entry)?,
            Line::Failed(f) => writer.record(&f.label, f.fingerprint, f.wall, Err(&f.reason))?,
        }
    }
    Ok(())
}

/// How a sweep process runs its grid: the mode the sweep binaries'
/// `--shard` / `--shards` / `--merge` flags select. `Shard` and
/// `Supervise` need the sweep's `--json` base path to locate shard
/// checkpoints; the command line rejects them without one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub enum ShardCli {
    /// No sharding flag: one in-process (possibly checkpointed) sweep.
    #[default]
    Single,
    /// `--shard i/N`: run only that strided slice of the grid.
    Shard(ShardSpec),
    /// `--shards N`: supervise N worker processes of this binary.
    Supervise(usize),
    /// `--merge <file>…`: stitch existing shard checkpoints; no
    /// simulation.
    Merge(Vec<PathBuf>),
}

fn expected_of<I>(items: &[(String, u64, I)]) -> Vec<(String, u64)> {
    items
        .iter()
        .map(|(label, fingerprint, _)| (label.clone(), *fingerprint))
        .collect()
}

/// Runs `items` under `mode` in three fixed steps; the mode only
/// chooses each step's inputs.
///
/// * **Run** the points this process owns. `Single` owns the whole
///   grid; `Shard(spec)` its [`shard_items_grouped`] slice,
///   checkpointed to the [`shard_path`] of `opts.checkpoint`;
///   `Supervise(n)` owns nothing in-process — it [`supervise`]s one
///   `make_child(spec)` worker per shard, retrying crashed ones from
///   their checkpoints; `Merge` owns nothing.
/// * **Stitch** the points this process answers for from checkpoint
///   lines with [`merge_shards`]: a worker its slice from its own file,
///   the supervisor the grid from the shard files (then written back to
///   the base path, leaving it as a single-process run would, modulo
///   wall-clock), `Merge` the grid from the files it names. `Single`
///   keeps its in-memory results.
/// * **Exit** by one rule, after a summary of any failed points: `1`
///   when a point is missing, stale, unpersisted or failed in execution,
///   or the supervisor gave up; else [`EXIT_RECORDED_FAILURES`] when a
///   point carries a recorded failure; else `0`.
///
/// Returns the full-grid results in submission order, `None` for a
/// worker (its shard file is its output), or `Err` with the non-zero
/// code the process must exit with instead of rendering.
///
/// # Panics
///
/// Panics if `Shard` or `Supervise` runs without `opts.checkpoint`.
pub fn run_lifecycle<I, T, F, C>(
    items: Vec<(String, u64, I)>,
    mode: &ShardCli,
    opts: SweepOptions,
    make_child: C,
    f: F,
) -> Result<Option<Vec<SweepResult<T>>>, i32>
where
    I: Send,
    T: ToJson + FromJson + Clone + Attributed + Send,
    F: Fn(I) -> Result<T, AccelError> + Sync,
    C: Fn(ShardSpec) -> Command + Sync,
{
    let prune = opts.prune.is_some();
    let base = || {
        opts.checkpoint
            .clone()
            .expect("--shard and --shards require --json")
    };
    // Each arm yields the points this process answers for (`None` when
    // they cannot be accounted for) and whether the caller renders them.
    let (answered, render) = match mode {
        ShardCli::Single => (Some(sweep_map_checkpointed(items, opts, f)), true),
        &ShardCli::Shard(spec) => {
            // Partition by slot so every follower's leader and (with
            // pruning on) every member's basis run in this process.
            let slice = shard_items_grouped(items, spec, opts.prune.as_ref());
            let expected = expected_of(&slice);
            let file = shard_path(&base(), spec);
            // Telemetry files shard alongside the checkpoint: the
            // supervisor reads each child's heartbeat at the shard path
            // of the base status path, and per-shard Prometheus files
            // never collide.
            let run_opts = SweepOptions {
                checkpoint: Some(file.clone()),
                status: opts.status.as_ref().map(|p| shard_path(p, spec)),
                prometheus: opts.prometheus.as_ref().map(|p| shard_path(p, spec)),
                ..opts
            };
            // Only what reached the file counts: a line lost to a torn
            // write or an I/O fault, or a point that failed, is missing
            // from the stitch, so the worker exits non-zero and a
            // supervisor retry re-runs exactly those points.
            sweep_map_checkpointed(slice, run_opts, f);
            let who = format!("shard {spec}");
            (stitch::<T>(&who, &expected, &[file], None, false), false)
        }
        &ShardCli::Supervise(count) => {
            let base = base();
            let specs: Vec<ShardSpec> =
                (0..count).map(|index| ShardSpec { index, count }).collect();
            let files: Vec<PathBuf> = specs.iter().map(|s| shard_path(&base, *s)).collect();
            if !opts.resume {
                // A fresh supervised sweep must not resurrect earlier
                // shard runs; workers are always spawned with --resume so
                // that crash *retries* pick up mid-shard. Quarantine
                // sidecars from earlier fleets go too, so `.bad` files
                // always describe the current run.
                for path in &files {
                    if let Err(e) = std::fs::remove_file(path) {
                        if e.kind() != io::ErrorKind::NotFound {
                            eprintln!("error: {}: {e}", path.display());
                            return Err(settle::<T>(None));
                        }
                    }
                    let _ = std::fs::remove_file(sidecar_of(path));
                }
            }
            // Stale heartbeats from an earlier fleet (possibly with a
            // different shard count) must not leak into this fleet's view.
            if let Some(status) = &opts.status {
                for spec in &specs {
                    let _ = std::fs::remove_file(shard_path(status, *spec));
                }
            }
            let retry_counts: Arc<Vec<AtomicU64>> =
                Arc::new((0..count).map(|_| AtomicU64::new(0)).collect());
            let staleness = opts.watchdog.unwrap_or(DEFAULT_STALENESS);
            let monitor =
                FleetMonitor::spawn(opts.status.clone(), &specs, &retry_counts, staleness);
            let sup_opts = SupervisorOptions {
                retry_counts: Some(Arc::clone(&retry_counts)),
                watchdog: opts.watchdog,
                status_base: opts.status.clone(),
                ..SupervisorOptions::default()
            };
            let supervision = supervise(count, make_child, &sup_opts);
            drop(monitor);
            let total_retries: u64 = retry_counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
            opts.metrics.add(Counter::ShardRetries, total_retries);
            let answered = match supervision {
                Ok(outcomes) => {
                    let retried = outcomes.iter().filter(|o| o.attempts > 1).count();
                    let with_failures = outcomes
                        .iter()
                        .filter(|o| o.completed_with_failures)
                        .count();
                    let failure_note = if with_failures > 0 {
                        format!(", {with_failures} with recorded failures")
                    } else {
                        String::new()
                    };
                    eprintln!(
                        "supervisor: {count} shard(s) complete ({retried} retried{failure_note})"
                    );
                    let expected = expected_of(&items);
                    stitch::<T>("supervisor", &expected, &files, Some(&base), prune)
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    None
                }
            };
            let phase = if answered.is_some() { "done" } else { "failed" };
            finalize_fleet(&opts, &specs, &retry_counts, phase);
            (answered, true)
        }
        ShardCli::Merge(paths) => (
            stitch::<T>("merge", &expected_of(&items), paths, None, prune),
            true,
        ),
    };
    match settle(answered.as_deref()) {
        0 => Ok(answered.filter(|_| render)),
        code => Err(code),
    }
}

/// The stitch step: one line per `expected` point, in that order, from
/// the checkpoint `files` ([`merge_shards`] — quarantining damaged
/// lines, rejecting missing or stale points and unbacked prune
/// evidence), written to `out` when given ([`write_entries`]) and
/// reported under `who`, with the across-shards prune summary when
/// `prune` is set. `None`, after the reason, when the files cannot
/// account for every point or the write fails.
fn stitch<T: FromJson + ToJson>(
    who: &str,
    expected: &[(String, u64)],
    files: &[PathBuf],
    out: Option<&Path>,
    prune: bool,
) -> Option<Vec<SweepResult<T>>> {
    let lines = match merge_shards::<T>(expected, files) {
        Ok(lines) => lines,
        Err(e) => {
            eprintln!("error: {who}: {e}");
            return None;
        }
    };
    let into = match out {
        Some(path) => match write_entries(path, &lines) {
            Ok(()) => format!(" into {}", path.display()),
            Err(e) => {
                eprintln!("error: {who}: {}: {e}", path.display());
                return None;
            }
        },
        None => String::new(),
    };
    eprintln!(
        "{who}: stitched {} point(s) from {} checkpoint(s){into}",
        lines.len(),
        files.len()
    );
    let results: Vec<SweepResult<T>> = lines.into_iter().map(SweepResult::from).collect();
    if prune {
        let s = summarize(&results);
        eprintln!(
            "sweep: pruned {}/{} point(s) across shards ({} simulated)",
            s.pruned,
            s.total(),
            s.ran
        );
    }
    Some(results)
}

/// The exit step: [`exit_code`] of the points this process answers for
/// (`None` when they cannot be accounted for), after a summary of any
/// that failed.
fn settle<T>(answered: Option<&[SweepResult<T>]>) -> i32 {
    let code = exit_code(Tally::of(answered));
    let failed: Vec<&SweepResult<T>> = answered
        .unwrap_or_default()
        .iter()
        .filter(|r| r.outcome.is_err())
        .collect();
    if failed.is_empty() {
        return code;
    }
    // Recorded failures are on the books and a retry would only serve
    // them again; failed executions were never persisted and re-run.
    let (what, verdict) = if code == EXIT_RECORDED_FAILURES {
        (
            "recorded point failure(s)",
            "grid is fully accounted for but incomplete",
        )
    } else {
        (
            "failed point(s)",
            "failed executions are not persisted and re-run on resume",
        )
    };
    eprintln!("sweep: finished with {} {what}:", failed.len());
    for r in &failed {
        if let Err(e) = &r.outcome {
            eprintln!("  {}: {e}", r.label);
        }
    }
    eprintln!("sweep: {verdict}; exiting {code}");
    code
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepError;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("gemmini_shard_{}_{name}", std::process::id()))
    }

    #[test]
    fn spec_parsing_and_validation() {
        assert_eq!(
            ShardSpec::parse("0/4").unwrap(),
            ShardSpec { index: 0, count: 4 }
        );
        assert_eq!(ShardSpec::parse("3/4").unwrap().to_string(), "3/4");
        assert!(ShardSpec::parse("4/4").is_err(), "index out of range");
        assert!(ShardSpec::parse("0/0").is_err(), "zero count");
        assert!(ShardSpec::parse("1").is_err());
        assert!(ShardSpec::parse("a/b").is_err());
    }

    /// `(label, fingerprint, position)` items; `fingerprints[i]` is
    /// point `i`'s fingerprint.
    fn grid_of(labels: &[&str], fingerprints: &[u64]) -> Vec<(String, u64, usize)> {
        labels
            .iter()
            .zip(fingerprints)
            .enumerate()
            .map(|(i, (l, fp))| ((*l).to_string(), *fp, i))
            .collect()
    }

    fn labels_of(slice: &[(String, u64, usize)]) -> Vec<String> {
        slice.iter().map(|(l, ..)| l.clone()).collect()
    }

    #[test]
    fn strided_slices_partition_the_grid() {
        let labels: Vec<String> = (0..10).map(|i| format!("p{i}")).collect();
        let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
        let items = grid_of(&labels, &(0..10).collect::<Vec<u64>>());
        let slice = |index| {
            shard_items_grouped(items.clone(), ShardSpec { index, count: 3 }, None)
                .into_iter()
                .map(|(_, _, i)| i)
                .collect::<Vec<_>>()
        };
        let (s0, s1, s2) = (slice(0), slice(1), slice(2));
        assert_eq!(s0, vec![0, 3, 6, 9]);
        assert_eq!(s1, vec![1, 4, 7]);
        assert_eq!(s2, vec![2, 5, 8]);
        // Exact partition: every item lands in exactly one shard.
        let mut all: Vec<usize> = s0.into_iter().chain(s1).chain(s2).collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn equal_fingerprints_share_their_leaders_shard() {
        // The Fig. 7 shape: per network, Rocket/BOOM × im2col on CPU/accel,
        // where the two on-accelerator points share a fingerprint.
        let labels = [
            "r/cpu", "b/cpu", "r/acc", "b/acc", "r2/cpu", "b2/cpu", "r2/acc", "b2/acc",
        ];
        let items = grid_of(&labels, &[10, 11, 12, 12, 20, 21, 22, 22]);
        let spec = |index| ShardSpec { index, count: 2 };
        let s0 = shard_items_grouped(items.clone(), spec(0), None);
        let s1 = shard_items_grouped(items.clone(), spec(1), None);
        // Slots: 0 1 2 2 3 4 5 5 — each follower rides with its leader.
        assert_eq!(labels_of(&s0), ["r/cpu", "r/acc", "b/acc", "b2/cpu"]);
        assert_eq!(labels_of(&s1), ["b/cpu", "r2/cpu", "r2/acc", "b2/acc"]);
        // A point with both a dedup leader and a prune basis rides with its
        // leader (the fingerprint slot wins); its shard then simulates it
        // or serves it from the leader, never predicts it unbacked.
        use gemmini_mem::stats::SweepAxis;
        let policy =
            PrunePolicy::new(SweepAxis::TlbEntries, 0.05).group("b/cpu", ["b/acc".to_string()]);
        let s1 = shard_items_grouped(items.clone(), spec(1), Some(&policy));
        assert_eq!(labels_of(&s1), ["b/cpu", "r2/cpu", "r2/acc", "b2/acc"]);
        assert_eq!(
            labels_of(&shard_items_grouped(items, spec(0), Some(&policy))),
            labels_of(&s0)
        );
    }

    #[test]
    fn grouped_slices_partition_the_grid_and_keep_groups_whole() {
        use gemmini_mem::stats::SweepAxis;
        // Grid: two groups of three plus two ungrouped points, interleaved.
        let labels = ["b0", "m0a", "m0b", "lone0", "b1", "m1a", "m1b", "lone1"];
        let items: Vec<(String, u64, usize)> = labels
            .iter()
            .enumerate()
            .map(|(i, l)| ((*l).to_string(), i as u64, i))
            .collect();
        let policy = PrunePolicy::new(SweepAxis::TlbEntries, 0.05)
            .group("b0", ["m0a".to_string(), "m0b".to_string()])
            .group("b1", ["m1a".to_string(), "m1b".to_string()]);
        let spec = |index| ShardSpec { index, count: 2 };
        let s0 = shard_items_grouped(items.clone(), spec(0), Some(&policy));
        let s1 = shard_items_grouped(items.clone(), spec(1), Some(&policy));
        // Slots by first appearance: b0-group=0, lone0=1, b1-group=2, lone1=3.
        assert_eq!(labels_of(&s0), ["b0", "m0a", "m0b", "b1", "m1a", "m1b"]);
        assert_eq!(labels_of(&s1), ["lone0", "lone1"]);
        // Exact partition, grid order preserved within each slice.
        let mut all: Vec<usize> = s0.iter().chain(&s1).map(|&(_, _, i)| i).collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn merge_rejects_prune_evidence_the_stitched_set_cannot_back() {
        use crate::checkpoint::CheckpointWriter;
        use crate::prune::PruneEvidence;
        use gemmini_mem::stats::{CycleBucket, SweepAxis};
        let evidence = |basis: &str, fp: u64| PruneEvidence {
            basis_label: basis.to_string(),
            basis_fingerprint: fp,
            axis: SweepAxis::TlbEntries,
            dominant: CycleBucket::Compute,
            dominance: 0.9,
            movable_fraction: 0.02,
            tolerance: 0.05,
        };
        let entry = |label: &str, fp: u64, pruned: Option<PruneEvidence>| CheckpointEntry {
            label: label.to_string(),
            fingerprint: fp,
            wall: Duration::ZERO,
            payload: 7u64,
            pruned,
        };
        let write = |name: &str, entries: Vec<CheckpointEntry<u64>>| {
            let path = temp_path(name);
            let w = CheckpointWriter::create(&path).unwrap();
            for e in &entries {
                w.append(e).unwrap();
            }
            path
        };
        let expected = vec![
            ("basis".to_string(), 1u64),
            ("ok".to_string(), 2),
            ("drifted".to_string(), 3),
        ];

        // Sound: both pruned entries name the stitched basis fingerprint.
        let sound = write(
            "merge_prune_sound.jsonl",
            vec![
                entry("basis", 1, None),
                entry("ok", 2, Some(evidence("basis", 1))),
                entry("drifted", 3, Some(evidence("basis", 1))),
            ],
        );
        assert!(merge_shards::<u64>(&expected, std::slice::from_ref(&sound)).is_ok());
        std::fs::remove_file(&sound).unwrap();

        // Unsound: 'drifted' was pruned against a basis fingerprint the
        // stitched set does not hold — the shards disagree on the grid.
        let unsound = write(
            "merge_prune_unsound.jsonl",
            vec![
                entry("basis", 1, None),
                entry("ok", 2, Some(evidence("basis", 1))),
                entry("drifted", 3, Some(evidence("basis", 999))),
            ],
        );
        match merge_shards::<u64>(&expected, std::slice::from_ref(&unsound)) {
            Err(MergeError::PruneMismatch { disagreeing }) => {
                assert_eq!(disagreeing, vec!["drifted".to_string()]);
            }
            other => panic!("expected a prune mismatch, got {other:?}"),
        }
        std::fs::remove_file(&unsound).unwrap();

        // Also unsound: evidence naming a basis that is itself pruned.
        let circular = write(
            "merge_prune_circular.jsonl",
            vec![
                entry("basis", 1, Some(evidence("ok", 2))),
                entry("ok", 2, Some(evidence("basis", 1))),
                entry("drifted", 3, None),
            ],
        );
        match merge_shards::<u64>(&expected, std::slice::from_ref(&circular)) {
            Err(MergeError::PruneMismatch { disagreeing }) => {
                assert_eq!(
                    disagreeing,
                    vec!["basis".to_string(), "ok".to_string()],
                    "a predicted basis cannot back another prediction"
                );
            }
            other => panic!("expected a prune mismatch, got {other:?}"),
        }
        std::fs::remove_file(&circular).unwrap();
    }

    #[test]
    fn shard_paths_embed_the_spec() {
        let spec = ShardSpec { index: 1, count: 4 };
        assert_eq!(
            shard_path(Path::new("/tmp/sweep.jsonl"), spec),
            Path::new("/tmp/sweep.shard1of4.jsonl")
        );
        assert_eq!(
            shard_path(Path::new("results"), spec),
            Path::new("results.shard1of4")
        );
    }

    #[test]
    fn merge_reports_missing_and_stale_points() {
        use crate::checkpoint::CheckpointWriter;
        let path = temp_path("merge_validation.jsonl");
        let writer = CheckpointWriter::create(&path).unwrap();
        for entry in [
            CheckpointEntry {
                label: "a".into(),
                fingerprint: 1,
                wall: Duration::ZERO,
                payload: 10u64,
                pruned: None,
            },
            CheckpointEntry {
                label: "b".into(),
                fingerprint: 99,
                wall: Duration::ZERO,
                payload: 20u64,
                pruned: None,
            },
        ] {
            writer.append(&entry).unwrap();
        }
        drop(writer);

        let expected = vec![
            ("a".to_string(), 1u64),
            ("b".to_string(), 2u64), // on disk with fingerprint 99: stale
            ("c".to_string(), 3u64), // nowhere: missing
        ];
        match merge_shards::<u64>(&expected, std::slice::from_ref(&path)) {
            Err(MergeError::Incomplete { missing, stale }) => {
                assert_eq!(missing, vec!["c".to_string()]);
                assert_eq!(stale, vec!["b".to_string()]);
            }
            other => panic!("expected incomplete merge, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn merge_stitches_submission_order_across_shards() {
        use crate::checkpoint::CheckpointWriter;
        let p0 = temp_path("merge_s0.jsonl");
        let p1 = temp_path("merge_s1.jsonl");
        // Shard files hold interleaved halves, each in its own order.
        let w0 = CheckpointWriter::create(&p0).unwrap();
        let w1 = CheckpointWriter::create(&p1).unwrap();
        for i in (0..8).rev() {
            let entry = CheckpointEntry {
                label: format!("p{i}"),
                fingerprint: i,
                wall: Duration::from_micros(i),
                payload: i * 100,
                pruned: None,
            };
            if i % 2 == 0 {
                w0.append(&entry).unwrap();
            } else {
                w1.append(&entry).unwrap();
            }
        }
        drop((w0, w1));

        let expected: Vec<(String, u64)> = (0..8).map(|i| (format!("p{i}"), i)).collect();
        let merged = merge_shards::<u64>(&expected, &[p0.clone(), p1.clone()]).unwrap();
        assert!(!sidecar_of(&p0).exists() && !sidecar_of(&p1).exists());
        let entries: Vec<CheckpointEntry<u64>> = merged
            .into_iter()
            .map(|line| match line {
                Line::Completed(entry) => entry,
                Line::Failed(f) => panic!("unexpected recorded failure for {}", f.label),
            })
            .collect();
        let labels: Vec<&str> = entries.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"]);
        assert!(entries
            .iter()
            .enumerate()
            .all(|(i, e)| e.payload == i as u64 * 100));
        std::fs::remove_file(&p0).unwrap();
        std::fs::remove_file(&p1).unwrap();
    }

    #[test]
    fn merge_serves_recorded_failures_and_quarantines_damage() {
        use crate::checkpoint::CheckpointWriter;
        let path = temp_path("merge_failed_quarantine.jsonl");
        let _ = std::fs::remove_file(sidecar_of(&path));
        let writer = CheckpointWriter::create(&path).unwrap();
        writer
            .append(&CheckpointEntry {
                label: "a".to_string(),
                fingerprint: 1,
                wall: Duration::ZERO,
                payload: 10u64,
                pruned: None,
            })
            .unwrap();
        writer
            .record("b", 2, Duration::from_secs(5), Err("timeout"))
            .unwrap();
        drop(writer);
        // Damage the file the way a torn write would: a truncated line.
        {
            use std::io::Write as _;
            let mut fh = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            writeln!(fh, "{{\"version\":2,\"label\":\"torn").unwrap();
        }

        let expected = vec![("a".to_string(), 1u64), ("b".to_string(), 2u64)];
        let merged = merge_shards::<u64>(&expected, std::slice::from_ref(&path)).unwrap();
        let quarantined = || std::fs::read_to_string(sidecar_of(&path)).unwrap();
        assert_eq!(quarantined().lines().count(), 1);
        match &merged[1] {
            Line::Failed(f) => {
                assert_eq!(f.reason, "timeout");
                assert_eq!(f.wall, Duration::from_secs(5));
            }
            other => panic!("expected a recorded failure, got {other:?}"),
        }
        // The recorded failure round-trips through the result shape.
        let results: Vec<SweepResult<u64>> = merged.into_iter().map(SweepResult::from).collect();
        assert!(matches!(&results[1].outcome, Err(SweepError::Recorded(r)) if r == "timeout"));
        assert!(results[1].cached);

        // A second merge finds a clean file: the damage was quarantined
        // exactly once.
        merge_shards::<u64>(&expected, std::slice::from_ref(&path)).unwrap();
        assert_eq!(quarantined().lines().count(), 1);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(sidecar_of(&path)).unwrap();
    }

    /// The exit rule over everything a lifecycle can end with: results
    /// a sweep holds in memory, and checkpoint files stitched the way a
    /// worker, supervisor or merge stitches them.
    #[test]
    fn exit_rule_table() {
        use crate::checkpoint::CheckpointWriter;
        let result = |label: &str, outcome| SweepResult {
            label: label.to_string(),
            outcome,
            wall: Duration::ZERO,
            cached: false,
            pruned: None,
        };
        let ok = |label| result(label, Ok(1u64));
        let recorded = |label| result(label, Err(SweepError::Recorded("timeout".into())));
        let panicked = |label| result(label, Err(SweepError::Panicked("boom".into())));
        let accel = |label| result(label, Err(SweepError::Accel(AccelError::NoPreload)));
        let entry = |label: &str, fingerprint| CheckpointEntry {
            label: label.to_string(),
            fingerprint,
            wall: Duration::ZERO,
            payload: 1u64,
            pruned: None,
        };
        let expected = vec![("a".to_string(), 1u64), ("b".to_string(), 2u64)];
        // Stitches `expected` from a file holding `entries` (plus, when
        // `torn`, a line cut short the way a torn write leaves it).
        let stitched = |name: &str, entries: &[CheckpointEntry<u64>], torn: bool| {
            let path = temp_path(name);
            let w = CheckpointWriter::create(&path).unwrap();
            for e in entries {
                w.append(e).unwrap();
            }
            drop(w);
            if torn {
                use std::io::Write as _;
                let mut fh = std::fs::OpenOptions::new()
                    .append(true)
                    .open(&path)
                    .unwrap();
                writeln!(fh, "{{\"version\":2,\"label\":\"b").unwrap();
            }
            let answered =
                stitch::<u64>("test", &expected, std::slice::from_ref(&path), None, false);
            let _ = std::fs::remove_file(sidecar_of(&path));
            std::fs::remove_file(&path).unwrap();
            answered
        };
        let timed_out = temp_path("exit_recorded.jsonl");
        let w = CheckpointWriter::create(&timed_out).unwrap();
        w.append(&entry("a", 1)).unwrap();
        w.record("b", 2, Duration::from_secs(1), Err("timeout"))
            .unwrap();
        drop(w);
        let served = stitch::<u64>(
            "test",
            &expected,
            std::slice::from_ref(&timed_out),
            None,
            false,
        );
        std::fs::remove_file(&timed_out).unwrap();

        let cases = [
            ("all ok", Some(vec![ok("a"), ok("b")]), 0),
            ("recorded only", Some(vec![ok("a"), recorded("b")]), 3),
            ("recorded, stitched", served, 3),
            ("exec failure", Some(vec![ok("a"), panicked("b")]), 1),
            (
                "exec failure plus recorded",
                Some(vec![accel("a"), recorded("b")]),
                1,
            ),
            (
                "missing",
                stitched("exit_missing.jsonl", &[entry("a", 1)], false),
                1,
            ),
            (
                "stale",
                stitched("exit_stale.jsonl", &[entry("a", 1), entry("b", 99)], false),
                1,
            ),
            (
                "unpersisted",
                stitched("exit_torn.jsonl", &[entry("a", 1)], true),
                1,
            ),
            (
                "stitched",
                stitched("exit_ok.jsonl", &[entry("a", 1), entry("b", 2)], false),
                0,
            ),
        ];
        for (name, answered, code) in cases {
            assert_eq!(settle(answered.as_deref()), code, "{name}");
        }

        // End to end in single mode: a point failing in execution is not
        // persisted, so the run is retryable rather than terminal.
        let items = vec![("a".to_string(), 1u64, 0u64), ("b".to_string(), 2, 1)];
        let opts = SweepOptions {
            threads: 1,
            progress: false,
            ..SweepOptions::default()
        };
        let failing = |i: u64| {
            if i == 1 {
                Err(AccelError::NoPreload)
            } else {
                Ok(i)
            }
        };
        let unused = |_| Command::new("false");
        let single = run_lifecycle(items, &ShardCli::Single, opts, unused, failing);
        assert_eq!(single.err(), Some(1));
    }

    #[test]
    fn supervisor_retries_a_crashed_shard() {
        let marker = temp_path("retry_marker");
        let _ = std::fs::remove_file(&marker);
        let retry_counts: Arc<Vec<AtomicU64>> =
            Arc::new((0..2).map(|_| AtomicU64::new(0)).collect());
        let opts = SupervisorOptions {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            retry_counts: Some(Arc::clone(&retry_counts)),
            ..SupervisorOptions::default()
        };
        let marker_str = marker.display().to_string();
        let outcomes = supervise(
            2,
            |spec| {
                let mut cmd = Command::new("sh");
                if spec.index == 0 {
                    // First attempt "crashes" (and leaves a marker, the
                    // way a real shard leaves its checkpoint); the retry
                    // finds the marker and completes.
                    cmd.arg("-c").arg(format!(
                        "if [ -e '{marker_str}' ]; then echo resumed; else touch '{marker_str}'; echo 'dying' >&2; exit 42; fi"
                    ));
                } else {
                    cmd.arg("-c").arg("echo ok");
                }
                cmd
            },
            &opts,
        )
        .expect("supervision recovers the crashed shard");
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].attempts, 2, "shard 0 needed one retry");
        assert_eq!(outcomes[1].attempts, 1);
        assert_eq!(retry_counts[0].load(Ordering::Relaxed), 1);
        assert_eq!(retry_counts[1].load(Ordering::Relaxed), 0);
        let _ = std::fs::remove_file(&marker);
    }

    #[test]
    fn supervisor_exhaustion_counts_every_retry() {
        let retry_counts: Arc<Vec<AtomicU64>> = Arc::new(vec![AtomicU64::new(0)]);
        let opts = SupervisorOptions {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            retry_counts: Some(Arc::clone(&retry_counts)),
            ..SupervisorOptions::default()
        };
        let err = supervise(
            1,
            |_| {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("exit 9");
                cmd
            },
            &opts,
        )
        .expect_err("always-crashing shard exhausts");
        assert!(matches!(
            err,
            SupervisorError::Exhausted { attempts: 3, .. }
        ));
        // The final crash exhausts rather than retries: 2 retries, not 3.
        assert_eq!(retry_counts[0].load(Ordering::Relaxed), 2);
    }

    #[test]
    fn fleet_snapshot_absorbs_child_heartbeats() {
        let base = temp_path("fleet_status.json");
        let specs = [
            ShardSpec { index: 0, count: 2 },
            ShardSpec { index: 1, count: 2 },
        ];
        // Only shard 1 has reported so far.
        let mut child = Heartbeat::starting(16);
        child.done = 6;
        child.cached = 2;
        child.rate_pts_per_sec = 1.5;
        child.eta_secs = Some(40.0);
        child.point_wall.record(2_000);
        write_heartbeat(&shard_path(&base, specs[1]), &child).unwrap();
        let retry_counts = [AtomicU64::new(1), AtomicU64::new(0)];

        let (fleet, children) = fleet_snapshot(&base, &specs, &retry_counts);
        assert!(children[0].is_none(), "shard 0 has not started");
        assert_eq!(children[1].as_ref().unwrap().0.done, 6);
        assert!(
            children[1].as_ref().unwrap().1.is_some(),
            "a freshly written heartbeat has an age"
        );
        assert_eq!(fleet.done, 6);
        assert_eq!(fleet.total, 16);
        assert_eq!(fleet.cached, 2);
        assert_eq!(fleet.retries, 1, "supervisor retries stamp the aggregate");
        assert_eq!(fleet.point_wall.count, 1);

        let line = fleet_line(&specs, &children, &retry_counts, &fleet, DEFAULT_STALENESS);
        assert!(line.starts_with("fleet: "), "line: {line}");
        assert!(line.contains("[0 starting r1]"), "line: {line}");
        assert!(line.contains("[1 run 6/16"), "line: {line}");
        assert!(line.contains("6/16 pts"), "line: {line}");
        assert!(line.contains("1 retry"), "line: {line}");
        std::fs::remove_file(shard_path(&base, specs[1])).unwrap();
    }

    #[test]
    fn fleet_line_marks_dead_workers_stale() {
        let specs = [
            ShardSpec { index: 0, count: 2 },
            ShardSpec { index: 1, count: 2 },
        ];
        let mut dead = Heartbeat::starting(8);
        dead.phase = "run".to_string();
        dead.done = 3;
        dead.rate_pts_per_sec = 2.0;
        dead.eta_secs = Some(10.0);
        let mut live = Heartbeat::starting(8);
        live.phase = "run".to_string();
        live.done = 5;
        live.rate_pts_per_sec = 2.0;
        // Shard 0's heartbeat file is two minutes old — its writer is
        // gone; shard 1's was just rewritten.
        let children = vec![
            Some((dead.clone(), Some(Duration::from_secs(120)))),
            Some((live.clone(), Some(Duration::from_secs(1)))),
        ];
        let mut fleet = Heartbeat::starting(0);
        fleet.absorb(&dead);
        fleet.absorb(&live);
        let retry_counts = [AtomicU64::new(0), AtomicU64::new(0)];
        let line = fleet_line(&specs, &children, &retry_counts, &fleet, DEFAULT_STALENESS);
        assert!(line.contains("[0 stale 3/8]"), "line: {line}");
        assert!(
            !line.contains("eta") || !line.contains("[0 stale 3/8 "),
            "a stale shard's frozen rate and ETA must be suppressed: {line}"
        );
        assert!(line.contains("[1 run 5/8 2.00pts/s"), "line: {line}");
        // A terminal phase never reads as stale, however old the file.
        let mut done = dead.clone();
        done.phase = "done".to_string();
        let children = vec![
            Some((done, Some(Duration::from_secs(3600)))),
            Some((live, Some(Duration::from_secs(1)))),
        ];
        let line = fleet_line(&specs, &children, &retry_counts, &fleet, DEFAULT_STALENESS);
        assert!(line.contains("[0 done 3/8]"), "line: {line}");
    }

    #[test]
    fn watchdog_kills_and_retries_a_hung_shard() {
        let marker = temp_path("hang_marker");
        let _ = std::fs::remove_file(&marker);
        let status_base = temp_path("hang_status.json");
        let opts = SupervisorOptions {
            max_attempts: 2,
            backoff: Duration::from_millis(1),
            watchdog: Some(Duration::from_millis(400)),
            status_base: Some(status_base),
            ..SupervisorOptions::default()
        };
        let marker_str = marker.display().to_string();
        let outcomes = supervise(
            1,
            |_| {
                // First attempt wedges (no heartbeat ever advances);
                // the watchdog kills it and the retry completes.
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg(format!(
                    "if [ -e '{marker_str}' ]; then echo resumed; \
                     else touch '{marker_str}'; sleep 30; fi"
                ));
                cmd
            },
            &opts,
        )
        .expect("watchdog recovers the hung shard");
        assert_eq!(outcomes[0].attempts, 2, "one watchdog kill, one retry");
        assert!(!outcomes[0].completed_with_failures);
        let _ = std::fs::remove_file(&marker);
    }

    #[test]
    fn exit_code_three_is_terminal_success_with_failures() {
        let opts = SupervisorOptions {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            ..SupervisorOptions::default()
        };
        let outcomes = supervise(
            1,
            |_| {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg(format!("exit {EXIT_RECORDED_FAILURES}"));
                cmd
            },
            &opts,
        )
        .expect("recorded-failure exits are terminal, not retried");
        assert_eq!(outcomes[0].attempts, 1, "no retry");
        assert!(outcomes[0].completed_with_failures);
    }

    #[test]
    fn supervisor_reports_exhaustion_with_last_status() {
        let opts = SupervisorOptions {
            max_attempts: 2,
            backoff: Duration::from_millis(1),
            ..SupervisorOptions::default()
        };
        let err = supervise(
            1,
            |_| {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("exit 7");
                cmd
            },
            &opts,
        )
        .expect_err("a shard that always crashes must exhaust");
        match err {
            SupervisorError::Exhausted {
                spec,
                attempts,
                last_status,
            } => {
                assert_eq!(spec, ShardSpec { index: 0, count: 1 });
                assert_eq!(attempts, 2);
                assert!(last_status.contains('7'), "status: {last_status}");
            }
            other => panic!("expected exhaustion, got {other}"),
        }
    }

    #[test]
    fn backoff_is_bounded() {
        let base = Duration::from_millis(250);
        for shard in 0..8 {
            // Exponential floor, at most +50% jitter, 10 s hard cap.
            assert!(backoff_delay(base, 1, shard) >= Duration::from_millis(250));
            assert!(backoff_delay(base, 1, shard) <= Duration::from_millis(375));
            assert!(backoff_delay(base, 2, shard) >= Duration::from_millis(500));
            assert!(backoff_delay(base, 2, shard) <= Duration::from_millis(750));
            assert!(backoff_delay(base, 3, shard) >= Duration::from_secs(1));
            assert!(backoff_delay(base, 3, shard) <= Duration::from_millis(1500));
            assert!(backoff_delay(base, 64, shard) <= Duration::from_secs(10));
        }
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_per_shard() {
        let base = Duration::from_millis(250);
        // Same (shard, attempt) → exactly the same delay, every time.
        for shard in 0..8 {
            for attempt in 1..6 {
                assert_eq!(
                    backoff_delay(base, attempt, shard),
                    backoff_delay(base, attempt, shard)
                );
            }
        }
        // Different shards desynchronise: for the same attempt, the 8
        // delays are not all identical (the whole point of the jitter).
        let delays: std::collections::HashSet<Duration> =
            (0..8).map(|shard| backoff_delay(base, 2, shard)).collect();
        assert!(delays.len() > 1, "jitter must separate shard delays");
        // The fraction itself is well-formed for a broad range of seeds.
        for shard in 0..64 {
            for attempt in 1..8 {
                let f = jitter_fraction(shard, attempt);
                assert!((0.0..1.0).contains(&f), "fraction {f} out of range");
            }
        }
    }
}
