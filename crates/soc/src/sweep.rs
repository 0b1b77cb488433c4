//! Parallel design-space sweep executor with per-point fault isolation.
//!
//! The paper's whole evaluation is a design-space sweep: many
//! [`SocConfig`] points, each simulated independently (Figs. 3–4, 7–9,
//! Table 1). Every point owns its SoC, memory system and address space,
//! so points are embarrassingly parallel — this module executes a batch
//! of named points across a [`std::thread::scope`] worker pool and
//! returns results in deterministic submission order regardless of
//! scheduling.
//!
//! Properties:
//!
//! * **Worker count** comes from the `GEMMINI_THREADS` environment
//!   variable; unset (or `0`) defaults to
//!   [`std::thread::available_parallelism`]. `GEMMINI_THREADS=1` forces
//!   fully serial execution on the caller's thread — bit-identical to
//!   the pre-sweep per-binary loops.
//! * **Fault isolation**: a panic or [`AccelError`] inside one point
//!   becomes an `Err` entry carrying the point's label; the other
//!   points still complete.
//! * **Observability**: each completion emits one progress line to
//!   stderr (`[12/32] private=16 shared=256 4.1s | 53.2s elapsed,
//!   0.23 pts/s, eta 1m27s` — the ETA comes from the p50 of a live
//!   per-point wall histogram) so long sweeps show liveness, throughput
//!   and time remaining. With `opts.status`/`opts.prometheus` set the
//!   executor also maintains a JSON heartbeat file and a Prometheus
//!   exposition (see [`crate::telemetry`]). Per-point
//!   cycle attribution rides along in every [`SocReport`] (and therefore
//!   in each checkpoint line), and `GEMMINI_TRACE` exports a Chrome
//!   trace from any individual run.
//! * **Dedup**: the checkpointing executor simulates each distinct
//!   [`DesignPoint::fingerprint`] once and serves later points with the
//!   same fingerprint from that run (see [`sweep_map_checkpointed`]).
//! * **Exact aggregation**: [`merge_memory_stats`] folds per-point
//!   memory counters through [`HitMissStats::merge`] and
//!   [`TrafficStats::merge`], so totals across N parallel shards equal
//!   the serial run's totals exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use std::collections::HashMap;

use crate::checkpoint::{debug_fingerprint, Checkpoint, CheckpointWriter, Line, Serve};
use crate::fault::{self, FaultAction};
use crate::prune::{Attributed, PruneDecision, PruneEvidence, PrunePolicy};
use crate::run::{run_networks_metered, RunOptions, SocReport};
use crate::runtime::consults_cpu;
use crate::soc::SocConfig;
use crate::telemetry::{
    eta_secs, format_eta, wall_micros, write_heartbeat, write_prometheus, Heartbeat,
    HEARTBEAT_VERSION,
};
use gemmini_core::metrics::{Counter, Gauge, HistKind, Log2Histogram, Metrics};
use gemmini_core::AccelError;
use gemmini_cpu::CpuKind;
use gemmini_dnn::graph::Network;
use gemmini_mem::json::{FromJson, ToJson};
use gemmini_mem::stats::{HitMissStats, TrafficStats};

/// Environment variable naming the worker count (`0`/unset = all cores).
pub const THREADS_ENV: &str = "GEMMINI_THREADS";

/// Process exit code for a sweep that *completed* but recorded one or
/// more first-class point failures (today: `--point-timeout`
/// expirations). Distinct from `1` (retryable error: the sweep did not
/// finish) so supervisors and scripts can tell "done, with casualties"
/// from "try again".
pub const EXIT_RECORDED_FAILURES: i32 = 3;

/// How the points a finished sweep answers for stand: everything the
/// exit rule ([`exit_code`]) reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Tally {
    /// Whether every point has a result. False when a point is missing,
    /// stale or unpersisted, when the supervisor gave up, or when stitch
    /// I/O failed.
    pub(crate) accounted: bool,
    /// Points that failed in execution ([`SweepError::Accel`] or
    /// [`SweepError::Panicked`]); they are never persisted.
    pub(crate) exec_failed: usize,
    /// Points carrying a [`SweepError::Recorded`] failure.
    pub(crate) recorded: usize,
}

impl Tally {
    /// The tally of the points a sweep answers for: a result for each,
    /// or `None` when they cannot be accounted for.
    pub(crate) fn of<T>(answered: Option<&[SweepResult<T>]>) -> Self {
        let mut tally = Tally {
            accounted: answered.is_some(),
            exec_failed: 0,
            recorded: 0,
        };
        for r in answered.unwrap_or_default() {
            match &r.outcome {
                Ok(_) => {}
                Err(SweepError::Recorded(_)) => tally.recorded += 1,
                Err(_) => tally.exec_failed += 1,
            }
        }
        tally
    }
}

/// The exit rule of every sweep process: `1` (retryable — a resume or a
/// supervisor retry re-runs exactly what is missing) when a point is
/// unaccounted for or failed in execution; otherwise
/// [`EXIT_RECORDED_FAILURES`] when a point carries a recorded failure;
/// otherwise `0`.
pub(crate) fn exit_code(tally: Tally) -> i32 {
    if !tally.accounted || tally.exec_failed > 0 {
        1
    } else if tally.recorded > 0 {
        EXIT_RECORDED_FAILURES
    } else {
        0
    }
}

/// One named point of a design-space sweep: an SoC configuration, the
/// networks to run on it (one per core), and the run options.
#[derive(Debug, Clone)]
pub struct DesignPoint {
    /// Human-readable label, used in progress lines and error entries.
    pub label: String,
    /// The SoC to build.
    pub config: SocConfig,
    /// One network per configured core.
    pub networks: Vec<Network>,
    /// Functional/timing switch and seed.
    pub options: RunOptions,
}

impl DesignPoint {
    /// Creates a point running one network per core of `config`.
    pub fn new(
        label: impl Into<String>,
        config: SocConfig,
        networks: Vec<Network>,
        options: RunOptions,
    ) -> Self {
        Self {
            label: label.into(),
            config,
            networks,
            options,
        }
    }

    /// Creates a timing-mode point replicating `net` across every core
    /// of `config` — the common shape of the figure sweeps.
    pub fn timing(label: impl Into<String>, config: SocConfig, net: &Network) -> Self {
        let nets = vec![net.clone(); config.cores.len()];
        Self::new(label, config, nets, RunOptions::timing())
    }

    /// Stable fingerprint of everything that can change the point's
    /// report: the SoC config, networks and run options, except a core's
    /// host CPU kind when that core never consults its CPU model (see
    /// [`consults_cpu`]); such a core hashes as a Rocket host, so a
    /// Rocket point's fingerprint is its plain configuration hash.
    ///
    /// Equal fingerprints therefore mean equal reports. Checkpoint resume
    /// skips a completed point only when both its label and this
    /// fingerprint match, so any edit that can change the report forces
    /// a re-run, and the checkpointing executor simulates each distinct
    /// fingerprint once (see [`sweep_map_checkpointed`]).
    pub fn fingerprint(&self) -> u64 {
        let mut config = self.config.clone();
        for (core, net) in config.cores.iter_mut().zip(&self.networks) {
            if !consults_cpu(net, &core.accel, &config.os) {
                core.cpu = CpuKind::Rocket;
            }
        }
        debug_fingerprint(&(&config, &self.networks, &self.options))
    }
}

/// Why one sweep point failed. The rest of the sweep is unaffected.
#[derive(Debug, Clone)]
pub enum SweepError {
    /// The simulation returned a typed accelerator error.
    Accel(AccelError),
    /// The point panicked; the payload's message is preserved.
    Panicked(String),
    /// The point's failure was *recorded* in the checkpoint — today only
    /// `--point-timeout` expirations (reason `"timeout"`) — and is being
    /// served from there on resume instead of wedging the sweep again.
    Recorded(String),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Accel(e) => write!(f, "accelerator error: {e}"),
            Self::Panicked(msg) => write!(f, "panicked: {msg}"),
            Self::Recorded(reason) => write!(f, "recorded failure: {reason}"),
        }
    }
}

impl std::error::Error for SweepError {}

/// Outcome of one sweep point, in submission order.
#[derive(Debug, Clone)]
pub struct SweepResult<T> {
    /// The submitting point's label.
    pub label: String,
    /// The point's report, or why it failed.
    pub outcome: Result<T, SweepError>,
    /// Pure simulation wall-clock: the time `f(item)` took on its
    /// worker, excluding checkpoint encoding and I/O — identical to the
    /// `wall_nanos` persisted in the checkpoint line, so a run and its
    /// later cached replay report the same wall for the same point.
    /// Zero for a point served from an equal-fingerprint run.
    pub wall: Duration,
    /// Whether the result was served from a checkpoint instead of run.
    pub cached: bool,
    /// Evidence when the point was skipped by attribution-guided
    /// pruning: `outcome` then holds the basis point's report served as
    /// a prediction, not a simulation of this point. `None` for every
    /// point that actually ran.
    pub pruned: Option<PruneEvidence>,
}

impl<T> From<Line<T>> for SweepResult<T> {
    /// A checkpoint line served instead of run (`cached`): a completed
    /// entry as a success, a recorded failure as [`SweepError::Recorded`].
    fn from(line: Line<T>) -> Self {
        let (label, outcome, wall, pruned) = match line {
            Line::Completed(e) => (e.label, Ok(e.payload), e.wall, e.pruned),
            Line::Failed(f) => (f.label, Err(SweepError::Recorded(f.reason)), f.wall, None),
        };
        Self {
            label,
            outcome,
            wall,
            cached: true,
            pruned,
        }
    }
}

impl<T> SweepResult<T> {
    /// Synthesizes a pruned entry: `predicted` is the basis point's
    /// payload served under this point's label, justified by `evidence`.
    pub fn pruned_from(label: impl Into<String>, predicted: T, evidence: PruneEvidence) -> Self {
        Self {
            label: label.into(),
            outcome: Ok(predicted),
            wall: Duration::ZERO,
            cached: false,
            pruned: Some(evidence),
        }
    }

    /// The successful report, if any.
    pub fn ok(&self) -> Option<&T> {
        self.outcome.as_ref().ok()
    }

    /// Unwraps the report, panicking with the point's label on failure.
    ///
    /// # Panics
    ///
    /// Panics if the point failed.
    pub fn expect_ok(&self) -> &T {
        match &self.outcome {
            Ok(t) => t,
            Err(e) => panic!("sweep point '{}' failed: {e}", self.label),
        }
    }
}

/// Execution knobs for a sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Worker threads; `0` means "resolve from `GEMMINI_THREADS`, then
    /// available parallelism".
    pub threads: usize,
    /// Whether to emit per-point progress lines on stderr.
    pub progress: bool,
    /// Where to persist per-point results as newline-delimited JSON
    /// (flushed as points complete); `None` disables persistence.
    pub checkpoint: Option<PathBuf>,
    /// Whether to load `checkpoint` first and skip points it already
    /// holds (matching label + fingerprint). Without `resume`, an
    /// existing checkpoint file is truncated and rewritten.
    pub resume: bool,
    /// Attribution-guided pruning policy; `None` (the default) simulates
    /// every point. See [`crate::prune`].
    pub prune: Option<PrunePolicy>,
    /// Live-metrics handle: shared with every executed point's
    /// simulation (engine, DMA, scratchpad, TLB, DRAM counters) and with
    /// the executor's own point counters and wall histogram.
    /// [`Metrics::disabled`] (the default) records nothing. Pure
    /// observation — results are bit-identical either way.
    pub metrics: Metrics,
    /// Where to write the live JSON heartbeat ([`Heartbeat`], atomic
    /// temp-file + rename, refreshed on every point completion and every
    /// ~2 s); `None` disables it.
    pub status: Option<PathBuf>,
    /// Where to write the final registry snapshot as Prometheus text
    /// exposition when the sweep ends; `None` disables it.
    pub prometheus: Option<PathBuf>,
    /// Per-point wall-clock budget (`--point-timeout`). When a point
    /// exceeds it, the executor records a first-class `failed:timeout`
    /// checkpoint entry for it, abandons the wedged worker, lets every
    /// other point drain, and exits the process non-zero by the sweep's
    /// exit rule with a terminal failure summary. On resume
    /// the recorded failure is *served* (the point is not re-attempted),
    /// so a deterministic hang cannot wedge the sweep twice. `None` (the
    /// default) never times a point out.
    pub point_timeout: Option<Duration>,
    /// Hung-shard watchdog budget (`--watchdog`), consumed by the
    /// `--shards` supervisor (see [`crate::shard`]): a worker whose
    /// heartbeat `done` count does not advance for this long is killed
    /// and retried from its shard checkpoint. Ignored outside supervise
    /// mode; `None` (the default) disables the watchdog.
    pub watchdog: Option<Duration>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            progress: true,
            checkpoint: None,
            resume: false,
            prune: None,
            metrics: Metrics::disabled(),
            status: None,
            prometheus: None,
            point_timeout: None,
            watchdog: None,
        }
    }
}

impl SweepOptions {
    /// Default options plus a checkpoint file and resume mode.
    pub fn checkpointed(path: impl Into<PathBuf>, resume: bool) -> Self {
        Self {
            checkpoint: Some(path.into()),
            resume,
            ..Self::default()
        }
    }
}

/// Resolves the worker count for `n_points` work items: an explicit
/// `threads` wins, then `GEMMINI_THREADS`, then available parallelism —
/// always clamped to `[1, n_points]`.
pub fn worker_count(threads: usize, n_points: usize) -> usize {
    let configured = if threads > 0 {
        threads
    } else {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    };
    configured.clamp(1, n_points.max(1))
}

/// Shared live-telemetry state for one sweep call, spanning every
/// execution phase: the per-point wall histogram behind the progress
/// lines' ETA column (always on — it is cheap and local), the executor's
/// point counters, and heartbeat bookkeeping when `opts.status` names a
/// file.
struct Pulse {
    status: Option<PathBuf>,
    prometheus: Option<PathBuf>,
    metrics: Metrics,
    grid_total: usize,
    start: Instant,
    workers: AtomicUsize,
    /// Grid points done so far, however they were done (cached, pruned,
    /// simulated or served from an equal-fingerprint run). Every
    /// completion takes its progress-line position from one `fetch_add`
    /// here, so positions stay unique across workers and phases: a
    /// 27-cached resume of a 32-point grid prints `[28/32]` first.
    done: AtomicUsize,
    /// Of `done`, points served from the checkpoint (progress lines'
    /// `N cached` segment).
    cached: AtomicUsize,
    /// Of `done`, points pruned (progress lines' `M pruned` segment).
    pruned: AtomicUsize,
    /// Points actually simulated here (successes and failures).
    executed: AtomicUsize,
    /// Followers waiting on a running leader of equal fingerprint: not
    /// done yet, but costing no simulation, so the ETA leaves them out.
    pending: AtomicUsize,
    failed: AtomicUsize,
    /// Of `failed`, points that failed in execution (the rest are
    /// recorded failures).
    exec_failed: AtomicUsize,
    wall_hist: Mutex<Log2Histogram>,
    last_beat: Mutex<Instant>,
    stop: AtomicBool,
    /// Per-point wall-clock budget; `None` disables the timeout scan.
    point_timeout: Option<Duration>,
    /// Points currently executing, keyed by ticket — the timeout scan's
    /// prey. Only populated when `point_timeout` is set.
    inflight: Mutex<HashMap<u64, InFlightPoint>>,
    next_ticket: std::sync::atomic::AtomicU64,
    /// The checkpoint every settled result is persisted to (see
    /// [`Pulse::persist`]); set once the file is open.
    writer: OnceLock<CheckpointWriter>,
    /// Consecutive monitor ticks during which every in-flight point was
    /// timed out (no worker can make progress) — the exit trigger, held
    /// for two ticks so a worker between claims is not mistaken for a
    /// drained pool.
    hung_stable: AtomicUsize,
}

/// One executing point as seen by the timeout monitor.
struct InFlightPoint {
    label: String,
    fingerprint: u64,
    start: Instant,
    /// Set once the monitor timed the point out (the worker is
    /// abandoned, but its entry stays until the process ends): whether
    /// its `failed:timeout` line reached the checkpoint.
    timed_out: Option<bool>,
}

/// Deregisters an in-flight point on drop — panic-safe bracketing for
/// the timeout monitor's table.
struct InFlightGuard<'a> {
    pulse: &'a Pulse,
    ticket: Option<u64>,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.pulse.exit_point(self.ticket.take());
    }
}

impl Pulse {
    /// Starts the pulse for a `grid_total`-point sweep whose checkpoint
    /// served `cached` completed points, `pruned` pruned ones and
    /// `failed` recorded failures.
    fn start(
        opts: &SweepOptions,
        grid_total: usize,
        cached: usize,
        pruned: usize,
        failed: usize,
    ) -> Arc<Self> {
        let pulse = Arc::new(Self {
            status: opts.status.clone(),
            prometheus: opts.prometheus.clone(),
            metrics: opts.metrics.clone(),
            grid_total,
            start: Instant::now(),
            workers: AtomicUsize::new(1),
            done: AtomicUsize::new(cached + pruned + failed),
            cached: AtomicUsize::new(cached),
            pruned: AtomicUsize::new(pruned),
            executed: AtomicUsize::new(0),
            pending: AtomicUsize::new(0),
            failed: AtomicUsize::new(failed),
            exec_failed: AtomicUsize::new(0),
            wall_hist: Mutex::new(Log2Histogram::new()),
            last_beat: Mutex::new(Instant::now()),
            stop: AtomicBool::new(false),
            point_timeout: opts.point_timeout,
            inflight: Mutex::new(HashMap::new()),
            next_ticket: std::sync::atomic::AtomicU64::new(0),
            writer: OnceLock::new(),
            hung_stable: AtomicUsize::new(0),
        });
        pulse.beat("run");
        pulse
    }

    /// Registers an executing point with the timeout monitor. A no-op
    /// (and `None`) without a `point_timeout`.
    fn enter_point(&self, label: &str, fingerprint: u64) -> Option<u64> {
        self.point_timeout?;
        let ticket = self
            .next_ticket
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inflight.lock().expect("inflight lock").insert(
            ticket,
            InFlightPoint {
                label: label.to_string(),
                fingerprint,
                start: Instant::now(),
                timed_out: None,
            },
        );
        Some(ticket)
    }

    /// Deregisters a point that finished (however it finished).
    fn exit_point(&self, ticket: Option<u64>) {
        if let Some(ticket) = ticket {
            self.inflight.lock().expect("inflight lock").remove(&ticket);
        }
    }

    /// Monitor-thread tick: record a `failed:timeout` checkpoint entry
    /// for every in-flight point past its budget, and — once the only
    /// in-flight points left are timed-out ones, so no worker can make
    /// progress — end the process with a terminal failure summary and
    /// the code [`exit_code`] gives: a timeout whose line reached the
    /// checkpoint is a recorded failure; one that did not is a failure
    /// in execution (a re-run would hang again); the points not done
    /// are unaccounted for.
    fn check_timeouts(&self) {
        let Some(budget) = self.point_timeout else {
            return;
        };
        let (hung, recorded, active) = {
            let mut inflight = self.inflight.lock().expect("inflight lock");
            for p in inflight.values_mut() {
                if p.timed_out.is_none() && p.start.elapsed() > budget {
                    eprintln!(
                        "sweep: point '{}' exceeded --point-timeout ({:.1}s): recording failed:timeout and abandoning its worker",
                        p.label,
                        budget.as_secs_f64()
                    );
                    let persisted =
                        self.persist(&p.label, p.fingerprint, p.start.elapsed(), Err("timeout"));
                    p.timed_out = Some(persisted);
                    self.failed.fetch_add(1, Ordering::Relaxed);
                    if !persisted {
                        self.exec_failed.fetch_add(1, Ordering::Relaxed);
                    }
                    self.metrics.inc(Counter::PointsFailed);
                }
            }
            let hung = inflight.values().filter(|p| p.timed_out.is_some()).count();
            let recorded = inflight
                .values()
                .filter(|p| p.timed_out == Some(true))
                .count();
            (hung, recorded, inflight.len())
        };
        if hung == 0 || hung < active {
            self.hung_stable.store(0, Ordering::Relaxed);
            return;
        }
        // Every in-flight point is hung. Hold for two consecutive ticks
        // before concluding the pool is drained (a worker may be between
        // claims), then finish loudly.
        if self.hung_stable.fetch_add(1, Ordering::Relaxed) + 1 < 2 {
            return;
        }
        let done = self.done_total();
        let code = exit_code(Tally {
            accounted: done + hung >= self.grid_total,
            exec_failed: self.exec_failed.load(Ordering::Relaxed),
            recorded,
        });
        let verdict = if code == EXIT_RECORDED_FAILURES {
            "completed with recorded failures"
        } else {
            "incomplete; resume to finish"
        };
        eprintln!(
            "sweep: {hung} point(s) timed out; {done}/{} other points complete; exiting {code} ({verdict})",
            self.grid_total,
        );
        self.beat("done");
        std::process::exit(code);
    }

    /// Persists one result the executor settled — executed, follower,
    /// pruned (`Ok((payload, evidence))`) or timed out (`Err(reason)`)
    /// — as its checkpoint line; the only place the executor writes its
    /// checkpoint. Failures in execution never get here: they re-run on
    /// resume. Returns whether the line reached the file.
    fn persist(
        &self,
        label: &str,
        fingerprint: u64,
        wall: Duration,
        outcome: Result<(&dyn ToJson, Option<&PruneEvidence>), &str>,
    ) -> bool {
        let Some(writer) = self.writer.get() else {
            return false;
        };
        match writer.record(label, fingerprint, wall, outcome) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("sweep: checkpoint append failed for '{label}': {e}");
                false
            }
        }
    }

    fn done_total(&self) -> usize {
        self.done.load(Ordering::Relaxed)
    }

    /// Counts one more grid point done and returns its 1-based progress
    /// position.
    fn advance(&self) -> usize {
        self.done.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The bracketed progress prefix for position `k`: `[k/n]`, plus the
    /// cached and pruned counts when there are any (`[28/32, 9 cached,
    /// 6 pruned]`), so a resumed or pruned sweep is honest about how
    /// much real simulation is happening.
    fn position(&self, k: usize) -> String {
        let mut s = format!("[{k}/{}", self.grid_total);
        let cached = self.cached.load(Ordering::Relaxed);
        if cached > 0 {
            s.push_str(&format!(", {cached} cached"));
        }
        let pruned = self.pruned.load(Ordering::Relaxed);
        if pruned > 0 {
            s.push_str(&format!(", {pruned} pruned"));
        }
        s.push(']');
        s
    }

    /// Points still to simulate: the grid minus everything done and
    /// every follower that will be served from its leader's run.
    fn remaining(&self) -> usize {
        self.grid_total
            .saturating_sub(self.done_total() + self.pending.load(Ordering::Relaxed))
    }

    /// Folds one executed point in: wall histogram (local + registry),
    /// point counters, and a heartbeat refresh. Returns the point's
    /// progress position and how many points this sweep has simulated.
    fn record_point(&self, wall: Duration, ok: bool) -> (usize, usize) {
        let micros = wall_micros(wall);
        self.wall_hist
            .lock()
            .expect("wall histogram lock")
            .record(micros);
        self.metrics.observe(HistKind::PointWallMicros, micros);
        if ok {
            self.metrics.inc(Counter::PointsCompleted);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
            self.exec_failed.fetch_add(1, Ordering::Relaxed);
            self.metrics.inc(Counter::PointsFailed);
        }
        let simulated = self.executed.fetch_add(1, Ordering::Relaxed) + 1;
        let position = self.advance();
        self.beat("run");
        (position, simulated)
    }

    /// Newly pruned points count as completions that never execute.
    fn add_pruned(&self, n: usize) {
        self.pruned.fetch_add(n, Ordering::Relaxed);
        self.done.fetch_add(n, Ordering::Relaxed);
        self.beat("run");
    }

    /// Current p50-based ETA over the remaining grid, if any point has
    /// been timed yet.
    fn eta(&self) -> Option<f64> {
        let hist = self.wall_hist.lock().expect("wall histogram lock");
        eta_secs(
            &hist,
            self.remaining(),
            self.workers.load(Ordering::Relaxed),
        )
    }

    fn heartbeat(&self, phase: &str) -> Heartbeat {
        let executed = self.executed.load(Ordering::Relaxed);
        let elapsed = self.start.elapsed().as_secs_f64();
        let point_wall = self.wall_hist.lock().expect("wall histogram lock").clone();
        let done = self.done_total();
        let eta = if phase == "done" {
            None
        } else {
            eta_secs(
                &point_wall,
                self.remaining(),
                self.workers.load(Ordering::Relaxed),
            )
        };
        Heartbeat {
            version: HEARTBEAT_VERSION,
            phase: phase.to_string(),
            done,
            total: self.grid_total,
            cached: self.cached.load(Ordering::Relaxed),
            pruned: self.pruned.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            elapsed_secs: elapsed,
            rate_pts_per_sec: executed as f64 / elapsed.max(1e-9),
            eta_secs: eta,
            retries: 0,
            point_wall,
            metrics: self.metrics.snapshot(),
        }
    }

    /// Rewrites the heartbeat file (no-op without a status path).
    fn beat(&self, phase: &str) {
        let Some(path) = &self.status else { return };
        let hb = self.heartbeat(phase);
        if let Err(e) = write_heartbeat(path, &hb) {
            eprintln!("sweep: heartbeat write failed for {}: {e}", path.display());
        }
        *self.last_beat.lock().expect("last beat lock") = Instant::now();
    }

    /// Monitor-thread tick: refresh the heartbeat when the last write is
    /// older than ~2 s (long points and idle phases stay visible).
    fn beat_if_stale(&self) {
        if self.status.is_none() {
            return;
        }
        let stale =
            self.last_beat.lock().expect("last beat lock").elapsed() >= Duration::from_secs(2);
        if stale {
            self.beat("run");
        }
    }

    /// Final exports: the `done` heartbeat and — when requested — the
    /// Prometheus exposition of the registry snapshot.
    fn finalize(&self) {
        self.stop.store(true, Ordering::Relaxed);
        self.beat("done");
        if let Some(path) = &self.prometheus {
            let snap = self.metrics.snapshot().unwrap_or_default();
            if let Err(e) = write_prometheus(path, &snap) {
                eprintln!("sweep: metrics write failed for {}: {e}", path.display());
            }
        }
    }
}

/// Owns the background heartbeat thread for one sweep call; dropping it
/// stops and joins the thread. No thread is spawned without a status
/// path.
struct PulseMonitor {
    pulse: Arc<Pulse>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl PulseMonitor {
    fn spawn(pulse: &Arc<Pulse>) -> Self {
        // The monitor thread also runs the per-point timeout scan, so it
        // exists whenever either job has work to do.
        let wanted = pulse.status.is_some() || pulse.point_timeout.is_some();
        let handle = wanted.then(|| {
            let p = Arc::clone(pulse);
            std::thread::spawn(move || {
                while !p.stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(250));
                    p.beat_if_stale();
                    p.check_timeouts();
                }
            })
        });
        Self {
            pulse: Arc::clone(pulse),
            handle,
        }
    }
}

impl Drop for PulseMonitor {
    fn drop(&mut self) {
        self.pulse.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The executor core: applies `g` to every `(label, item)` pair on a
/// worker pool and returns the results in submission order. The closure
/// reports its own wall-clock alongside the payload, so bookkeeping
/// around the simulation (checkpoint encoding and flushing) stays out of
/// the reported wall. Panics inside the closure are caught and isolated
/// per item.
///
/// As soon as item `i` finishes, `settle(i, &result)` persists it and
/// yields the results of the points waiting on it (see [`run_phase`]);
/// each takes the next progress-line position right after its leader's,
/// and is returned alongside it.
fn sweep_map_walled<I, T, G, H>(
    items: Vec<(String, I)>,
    opts: &SweepOptions,
    pulse: &Pulse,
    g: G,
    settle: H,
) -> Vec<(SweepResult<T>, Vec<SweepResult<T>>)>
where
    I: Send,
    T: Send,
    G: Fn(I) -> Result<(T, Duration), SweepError> + Sync,
    H: Fn(usize, &SweepResult<T>) -> Vec<SweepResult<T>> + Sync,
{
    let total = items.len();
    if total == 0 {
        return Vec::new();
    }
    let workers = worker_count(opts.threads, total);
    pulse.workers.store(workers, Ordering::Relaxed);
    pulse.metrics.set_gauge(Gauge::SweepWorkers, workers as u64);

    let run_one = |idx: usize, label: &str, item: I| {
        let attempt_start = Instant::now();
        pulse.metrics.gauge_add(Gauge::PointsInFlight, 1);
        let (outcome, wall) = match catch_unwind(AssertUnwindSafe(|| g(item))) {
            Ok(Ok((t, wall))) => (Ok(t), wall),
            Ok(Err(e)) => (Err(e), attempt_start.elapsed()),
            Err(payload) => (
                Err(SweepError::Panicked(panic_message(payload))),
                attempt_start.elapsed(),
            ),
        };
        pulse.metrics.gauge_sub(Gauge::PointsInFlight, 1);
        let (position, simulated) = pulse.record_point(wall, outcome.is_ok());
        if opts.progress {
            let status = if outcome.is_ok() { "" } else { "FAILED " };
            // The rate is execution throughput: cached, pruned and
            // served points cost ~0s and would inflate it.
            let elapsed = pulse.start.elapsed().as_secs_f64();
            let rate = simulated as f64 / elapsed.max(1e-9);
            // The ETA column comes from the shared per-point wall
            // histogram: p50 bucket bound × remaining waves, clamped.
            let eta = pulse
                .eta()
                .map(|s| format!(", eta {}", format_eta(s)))
                .unwrap_or_default();
            eprintln!(
                "{} {label} {status}{:.1}s | {elapsed:.1}s elapsed, {rate:.2} pts/s{eta}",
                pulse.position(position),
                wall.as_secs_f64()
            );
        }
        let result = SweepResult {
            label: label.to_string(),
            outcome,
            wall,
            cached: false,
            pruned: None,
        };
        let copies = settle(idx, &result);
        for copy in &copies {
            pulse.pending.fetch_sub(1, Ordering::Relaxed);
            let position = pulse.advance();
            if opts.progress {
                let status = if copy.outcome.is_ok() { "" } else { "FAILED " };
                eprintln!(
                    "{} {} {status}served from '{label}' (equal fingerprint)",
                    pulse.position(position),
                    copy.label
                );
            }
        }
        if !copies.is_empty() {
            pulse.beat("run");
        }
        (result, copies)
    };

    if workers == 1 {
        // Fully serial on the caller's thread: identical scheduling to
        // the historical per-binary loops.
        return items
            .into_iter()
            .enumerate()
            .map(|(idx, (label, item))| run_one(idx, &label, item))
            .collect();
    }

    // Workers claim items by atomic index and write results into the
    // matching slot, so output order is submission order regardless of
    // which thread finishes when.
    let work: Vec<Mutex<Option<(String, I)>>> = items
        .into_iter()
        .map(|pair| Mutex::new(Some(pair)))
        .collect();
    type Settled<T> = (SweepResult<T>, Vec<SweepResult<T>>);
    let slots: Vec<Mutex<Option<Settled<T>>>> = (0..total).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= total {
                    break;
                }
                let (label, item) = work[idx]
                    .lock()
                    .expect("work slot lock")
                    .take()
                    .expect("each index is claimed exactly once");
                let result = run_one(idx, &label, item);
                *slots[idx].lock().expect("result slot lock") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot lock")
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

/// The sweep executor: applies `f` to every `(label, fingerprint, item)`
/// triple on a worker pool (`opts.threads`, else `GEMMINI_THREADS`),
/// isolating failures — an [`AccelError`] or a panic — per item, and
/// returns the results in submission order. The fingerprint covers
/// everything that can change the item's result. With
/// `opts.checkpoint` set, completed results are appended to it as
/// flushed JSON lines, and — in resume mode — points whose `(label,
/// fingerprint)` already appear in the file are served from it without
/// running.
///
/// A killed sweep therefore loses at most its in-flight points, and a
/// resumed sweep re-executes only stale or missing ones.
///
/// Equal fingerprints mean equal results (the contract resume already
/// relies on), so each distinct fingerprint is simulated once: the first
/// point left to run with a given fingerprint is its *leader*, and every
/// later one is a *follower* served a copy of the leader's outcome under
/// its own label (wall 0, not `cached`, not pruned). A follower of a
/// point already served from the checkpoint copies that entry. Copied
/// successes persist as ordinary checkpoint entries, so a resume serves
/// them as `cached`; a failed leader fails its followers, which are not
/// persisted and so re-run on resume.
///
/// With `opts.prune` set, execution is two-phased: group bases (and every
/// ungrouped point) run first, then each group's basis attribution
/// decides — via [`PrunePolicy::decide`] — whether the remaining members
/// are skipped with a synthesized prediction or simulated in a second
/// phase. Pruned points persist as first-class checkpoint entries
/// carrying their [`PruneEvidence`]; on resume they are replayed only
/// while the policy is still active *and* the recorded basis fingerprint
/// still matches the grid (any drift re-runs the point — the safe
/// direction). A second-phase point follows an equal-fingerprint point
/// simulated in the first.
pub fn sweep_map_checkpointed<I, T, F>(
    items: Vec<(String, u64, I)>,
    opts: SweepOptions,
    f: F,
) -> Vec<SweepResult<T>>
where
    I: Send,
    T: ToJson + FromJson + Clone + Attributed + Send,
    F: Fn(I) -> Result<T, AccelError> + Sync,
{
    let path = opts.checkpoint.clone();
    let total = items.len();
    let policy = opts.prune.clone();
    // The grid's own label → (fingerprint, slot) map: prune evidence is
    // validated against it, and group bases are looked up through it.
    let grid: HashMap<String, (u64, usize)> = items
        .iter()
        .enumerate()
        .map(|(idx, (label, fingerprint, _))| (label.clone(), (*fingerprint, idx)))
        .collect();

    // Resume loads *quarantine*: an undecodable line (torn write, CRC
    // mismatch) is moved to the `.bad` sidecar and the file rewritten
    // without it, so damage is reported exactly once and the named point
    // simply re-runs.
    let mut checkpoint = match (&path, opts.resume) {
        (Some(path), true) => match Checkpoint::<T>::load_quarantining(path) {
            Ok((c, _quarantine)) => c,
            Err(e) => {
                eprintln!(
                    "sweep: cannot read checkpoint {}: {e}; running every point",
                    path.display()
                );
                Checkpoint::default()
            }
        },
        _ => Checkpoint::default(),
    };

    // Serve completed points from the checkpoint; queue the rest. A
    // persisted *pruned* entry replays only while pruning is still on and
    // its recorded basis fingerprint matches the grid's current basis —
    // otherwise the prediction's justification is gone and the point must
    // really run.
    let mut slots: Vec<Option<SweepResult<T>>> = (0..total).map(|_| None).collect();
    let mut to_run: Vec<(usize, String, u64, I)> = Vec::new();
    let mut cached_run = 0usize;
    let mut cached_pruned = 0usize;
    let mut cached_failed = 0usize;
    // Real, successful results by fingerprint (first in submission
    // order): what later equal-fingerprint points may copy.
    let mut known: HashMap<u64, usize> = HashMap::new();
    let replayable = |ev: &PruneEvidence| {
        policy.is_some()
            && grid
                .get(&ev.basis_label)
                .is_some_and(|&(fp, _)| fp == ev.basis_fingerprint)
    };
    for (idx, (label, fingerprint, item)) in items.into_iter().enumerate() {
        // A recorded failure (timeout) is served as a first-class `Err`
        // result rather than re-attempted: a deterministic hang must not
        // wedge every resume cycle. A later line for the label (or
        // running without --resume) re-runs the point.
        let line = match checkpoint.serve(&label, fingerprint) {
            Serve::Line(Line::Completed(entry))
                if entry.pruned.as_ref().is_some_and(|ev| !replayable(ev)) =>
            {
                None
            }
            Serve::Line(line) => Some(line),
            Serve::Stale | Serve::Missing => None,
        };
        match &line {
            None => to_run.push((idx, label, fingerprint, item)),
            Some(Line::Completed(entry)) if entry.pruned.is_some() => cached_pruned += 1,
            Some(Line::Completed(_)) => {
                cached_run += 1;
                known.entry(fingerprint).or_insert(idx);
            }
            Some(Line::Failed(_)) => cached_failed += 1,
        }
        slots[idx] = line.map(SweepResult::from);
    }
    let skipped = total - to_run.len();
    // One telemetry pulse spans both execution phases, so the heartbeat
    // and ETA see whole-grid progress rather than per-phase slices.
    let pulse = Pulse::start(&opts, total, cached_run, cached_pruned, cached_failed);
    let monitor = PulseMonitor::spawn(&pulse);
    opts.metrics
        .add(Counter::PointsCached, (cached_run + cached_pruned) as u64);
    if opts.resume {
        if let Some(path) = &path {
            eprintln!(
                "sweep: resume from {}: skipped {skipped}/{total} completed points{}{}",
                path.display(),
                if cached_pruned > 0 {
                    format!(" ({cached_pruned} pruned replayed)")
                } else {
                    String::new()
                },
                if cached_failed > 0 {
                    format!(" ({cached_failed} recorded failures served)")
                } else {
                    String::new()
                },
            );
        }
    }

    // Fresh runs truncate; resumes append (re-run lines shadow stale
    // ones). A checkpoint the filesystem refuses to open degrades to an
    // unpersisted sweep rather than losing the run.
    if let Some(path) = &path {
        let writer = if opts.resume {
            CheckpointWriter::append_to(path)
        } else {
            CheckpointWriter::create(path)
        };
        match writer {
            Ok(w) => {
                let _ = pulse.writer.set(w);
            }
            Err(e) => eprintln!(
                "sweep: cannot write checkpoint {}: {e}; results will not be persisted",
                path.display()
            ),
        }
    }

    // Split what's left into phase 1 — group bases and ungrouped points,
    // which must really run — and the group members whose fate phase 1's
    // attributions decide. A member whose basis is not even in the grid
    // can never be predicted and runs in phase 1 too.
    let mut phase1: Vec<(usize, String, u64, I)> = Vec::new();
    let mut candidates: Vec<(usize, String, u64, I)> = Vec::new();
    for entry in to_run {
        let deferred = policy.as_ref().is_some_and(|p| {
            !p.is_basis(&entry.1)
                && p.group_of_member(&entry.1)
                    .is_some_and(|g| grid.contains_key(&g.basis))
        });
        if deferred {
            candidates.push(entry);
        } else {
            phase1.push(entry);
        }
    }

    // The `sweep.point` failpoint fires only in a sweep that served no
    // point from its checkpoint, so a resumed retry runs past it.
    let fresh = skipped == 0;
    let pulse_ref = &pulse;
    let run_point = move |(label, fingerprint, item): (String, u64, I)| {
        // Deregisters on every exit path, including a panic inside `f`
        // (unwinding must not leave a ghost in-flight entry for the
        // timeout monitor to "time out" later).
        let _guard = InFlightGuard {
            pulse: pulse_ref,
            ticket: pulse_ref.enter_point(&label, fingerprint),
        };
        if fresh {
            match fault::fire("sweep.point") {
                Some(FaultAction::Hang) => fault::hang_forever("sweep.point"),
                Some(FaultAction::Abort) => std::process::abort(),
                Some(FaultAction::Delay(d)) => std::thread::sleep(d),
                _ => {}
            }
        }
        // The persisted wall and the returned wall are the same pure
        // simulation measurement; JSON encoding and the flushed append
        // are excluded from both.
        let start = Instant::now();
        let payload = f(item).map_err(SweepError::Accel)?;
        Ok((payload, start.elapsed()))
    };

    // Phase 1: bases and ungrouped points.
    let mut followed = run_phase(phase1, &mut slots, &mut known, &opts, &pulse, &run_point);

    // Decide each remaining member against its basis's attribution: prune
    // with evidence (persisted like any completed point, wall 0), or send
    // it to phase 2 to really run.
    let mut newly_pruned = 0usize;
    let mut phase2: Vec<(usize, String, u64, I)> = Vec::new();
    for (idx, label, fingerprint, item) in candidates {
        let policy = policy.as_ref().expect("candidates imply a policy");
        let group = policy
            .group_of_member(&label)
            .expect("candidates are group members");
        let decision = grid
            .get(&group.basis)
            .and_then(|&(basis_fp, basis_idx)| {
                let basis = slots[basis_idx].as_ref()?;
                // A basis must be a real simulation: a failed basis has
                // no payload, and a (stale-file) predicted basis is not
                // evidence.
                if basis.pruned.is_some() {
                    return None;
                }
                let attr = basis.ok().and_then(|payload| payload.cycle_attribution());
                Some(policy.decide(&group.basis, basis_fp, attr))
            })
            .unwrap_or(PruneDecision::Run(crate::prune::RunReason::NoAttribution));
        match decision {
            PruneDecision::Prune(evidence) => {
                let (_, basis_idx) = grid[&group.basis];
                let predicted = slots[basis_idx]
                    .as_ref()
                    .and_then(|b| b.ok())
                    .expect("a prune decision implies a successful basis")
                    .clone();
                pulse.persist(
                    &label,
                    fingerprint,
                    Duration::ZERO,
                    Ok((&predicted, Some(&evidence))),
                );
                slots[idx] = Some(SweepResult::pruned_from(label, predicted, evidence));
                newly_pruned += 1;
            }
            PruneDecision::Run(_) => phase2.push((idx, label, fingerprint, item)),
        }
    }
    if newly_pruned > 0 {
        pulse.add_pruned(newly_pruned);
        opts.metrics.add(Counter::PointsPruned, newly_pruned as u64);
    }

    // Phase 2: members the evidence could not excuse.
    if !phase2.is_empty() {
        followed += run_phase(phase2, &mut slots, &mut known, &opts, &pulse, &run_point);
    }
    drop(monitor);
    pulse.finalize();

    let simulated = pulse.executed.load(Ordering::Relaxed);
    if policy.is_some() && opts.progress {
        eprintln!(
            "sweep: pruned {}/{total} point(s) via {} attribution ({simulated} simulated, {cached_run} cached)",
            cached_pruned + newly_pruned,
            policy.as_ref().map_or("?", |p| p.axis.name()),
        );
    }
    if followed > 0 && opts.progress {
        eprintln!(
            "sweep: {simulated} simulation(s) for {total} point(s); \
             {followed} served from an equal-fingerprint run"
        );
    }

    // A resumed completion has appended re-run lines after the ones they
    // shadow, and maybe a torn one: one more pass of the loader drops
    // the former and quarantines the latter, so repeated resume cycles
    // cannot grow the file. (Fresh runs truncate on open.)
    if opts.resume && pulse.writer.get().is_some() {
        let path = path.as_ref().expect("a writer implies a path");
        if let Err(e) = Checkpoint::<T>::load_quarantining(path) {
            eprintln!("sweep: cannot rewrite checkpoint {}: {e}", path.display());
        }
    }

    slots
        .into_iter()
        .map(|slot| slot.expect("every point is either cached, pruned, or executed"))
        .collect()
}

/// One execution phase of [`sweep_map_checkpointed`], simulating each
/// distinct fingerprint of `batch` once. A point whose fingerprint is in
/// `known` (a real, successful result already in `slots`) copies that
/// result up front. Of the rest, the first point with a fingerprint is
/// its leader and runs; every later one is a follower, served a copy of
/// the leader's outcome the moment it finishes. Successful leaders join
/// `known` for later phases. Returns how many followers were served.
fn run_phase<I, T, G>(
    batch: Vec<(usize, String, u64, I)>,
    slots: &mut [Option<SweepResult<T>>],
    known: &mut HashMap<u64, usize>,
    opts: &SweepOptions,
    pulse: &Pulse,
    run_point: G,
) -> usize
where
    I: Send,
    T: ToJson + Clone + Send,
    G: Fn((String, u64, I)) -> Result<(T, Duration), SweepError> + Sync,
{
    let mut leaders: Vec<(usize, String, u64, I)> = Vec::new();
    let mut followers: Vec<Vec<(usize, String)>> = Vec::new();
    let mut leader_of: HashMap<u64, usize> = HashMap::new();
    let mut copied = 0usize;
    for (idx, label, fingerprint, item) in batch {
        if let Some(&source) = known.get(&fingerprint) {
            let source = slots[source].as_ref().expect("known results are filled");
            slots[idx] = Some(follow(source, label, fingerprint, pulse));
            copied += 1;
        } else if let Some(&pos) = leader_of.get(&fingerprint) {
            followers[pos].push((idx, label));
        } else {
            leader_of.insert(fingerprint, leaders.len());
            leaders.push((idx, label, fingerprint, item));
            followers.push(Vec::new());
        }
    }
    pulse.done.fetch_add(copied, Ordering::Relaxed);
    let queued: usize = followers.iter().map(Vec::len).sum();
    pulse.pending.fetch_add(queued, Ordering::Relaxed);

    let placed: Vec<(usize, u64)> = leaders.iter().map(|(idx, _, fp, _)| (*idx, *fp)).collect();
    let work: Vec<(String, (String, u64, I))> = leaders
        .into_iter()
        .map(|(_, label, fingerprint, item)| (label.clone(), (label, fingerprint, item)))
        .collect();
    let ran = sweep_map_walled(work, opts, pulse, run_point, |pos, leader| {
        let fingerprint = placed[pos].1;
        if let Ok(payload) = &leader.outcome {
            pulse.persist(&leader.label, fingerprint, leader.wall, Ok((payload, None)));
        }
        followers[pos]
            .iter()
            .map(|(_, label)| follow(leader, label.clone(), fingerprint, pulse))
            .collect()
    });
    for (((idx, fingerprint), waiting), (leader, copies)) in
        placed.into_iter().zip(followers).zip(ran)
    {
        if leader.outcome.is_ok() {
            known.entry(fingerprint).or_insert(idx);
        }
        slots[idx] = Some(leader);
        for ((follower_idx, _), copy) in waiting.into_iter().zip(copies) {
            slots[follower_idx] = Some(copy);
        }
    }
    copied + queued
}

/// A follower's result: `source`'s outcome under the follower's own
/// label, with zero wall and no cache or prune provenance. A success is
/// persisted as an ordinary checkpoint entry; a failure is not, so the
/// follower re-runs on resume like its failed leader.
fn follow<T: ToJson + Clone>(
    source: &SweepResult<T>,
    label: String,
    fingerprint: u64,
    pulse: &Pulse,
) -> SweepResult<T> {
    if let Ok(payload) = &source.outcome {
        pulse.persist(&label, fingerprint, Duration::ZERO, Ok((payload, None)));
    }
    SweepResult {
        label,
        outcome: source.outcome.clone(),
        wall: Duration::ZERO,
        cached: false,
        pruned: None,
    }
}

/// Runs a batch of [`DesignPoint`]s with explicit options. With
/// `opts.checkpoint` set, completed reports persist as JSON lines; with
/// `opts.resume` as well, points already in the file are skipped.
pub fn run_sweep_with(points: Vec<DesignPoint>, opts: SweepOptions) -> Vec<SweepResult<SocReport>> {
    let metrics = opts.metrics.clone();
    let items = points
        .into_iter()
        .map(|p| (p.label.clone(), p.fingerprint(), p))
        .collect::<Vec<_>>();
    sweep_map_checkpointed(items, opts, move |p| {
        run_networks_metered(&p.config, &p.networks, &p.options, &metrics)
    })
}

/// Exact cross-point rollup of the memory-system counters, folded
/// through the substrate's own `merge` operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryRollup {
    /// Shared-L2 hit/miss counters summed over every report.
    pub l2: HitMissStats,
    /// Dirty L2 writebacks summed over every report.
    pub l2_writebacks: u64,
    /// DRAM-channel traffic summed over every report.
    pub dram: TrafficStats,
    /// Reports folded in.
    pub reports: usize,
}

impl MemoryRollup {
    /// Folds another rollup into this one — the shard-merge primitive
    /// for multi-process sweeps: each shard computes its own rollup from
    /// its checkpoint file, and absorbing them in any order or grouping
    /// yields the single-process totals exactly (the property tests in
    /// `crates/soc/tests/properties.rs` prove commutativity,
    /// associativity, and the empty-rollup identity).
    pub fn absorb(&mut self, other: &MemoryRollup) {
        self.l2.merge(&other.l2);
        self.l2_writebacks += other.l2_writebacks;
        self.dram.merge(&other.dram);
        self.reports += other.reports;
    }
}

/// Merges the memory statistics of every successful report. Because the
/// fold uses [`HitMissStats::merge`]/[`TrafficStats::merge`], the result
/// over N parallel shards is bit-equal to a serial accumulation.
pub fn merge_memory_stats<'a, I>(reports: I) -> MemoryRollup
where
    I: IntoIterator<Item = &'a SocReport>,
{
    let mut rollup = MemoryRollup::default();
    for r in reports {
        rollup.l2.merge(&r.l2_stats);
        rollup.l2_writebacks += r.l2.writebacks;
        rollup.dram.merge(&r.dram_traffic);
        rollup.reports += 1;
    }
    rollup
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::CheckpointEntry;

    // Explicit thread count so these tests never read GEMMINI_THREADS
    // (env mutation would race with parallel test execution).
    fn quiet() -> SweepOptions {
        SweepOptions {
            threads: 2,
            progress: false,
            ..SweepOptions::default()
        }
    }

    /// `n` points `p0..` whose item and fingerprint are their index.
    fn grid(n: u64) -> Vec<(String, u64, u64)> {
        (0..n).map(|i| (format!("p{i}"), i, i)).collect()
    }

    #[test]
    fn results_arrive_in_submission_order() {
        let results = sweep_map_checkpointed(
            grid(16),
            SweepOptions {
                threads: 4,
                progress: false,
                ..SweepOptions::default()
            },
            |i| {
                // Earlier items sleep longer, so completion order is the
                // reverse of submission order.
                std::thread::sleep(Duration::from_millis(2 * (16 - i)));
                Ok(i * 10)
            },
        );
        let got: Vec<u64> = results.iter().map(|r| *r.expect_ok()).collect();
        assert_eq!(got, (0..16).map(|i| i * 10).collect::<Vec<_>>());
        assert_eq!(results[3].label, "p3");
    }

    #[test]
    fn panicking_item_is_isolated() {
        let results = sweep_map_checkpointed(
            grid(6),
            SweepOptions {
                threads: 3,
                progress: false,
                ..SweepOptions::default()
            },
            |i| {
                if i == 2 {
                    panic!("deliberate failure at point {i}");
                }
                Ok(i)
            },
        );
        assert_eq!(results.len(), 6);
        for (i, r) in results.iter().enumerate() {
            if i == 2 {
                match &r.outcome {
                    Err(SweepError::Panicked(msg)) => {
                        assert!(msg.contains("deliberate failure"), "got: {msg}");
                    }
                    other => panic!("expected panic entry, got {other:?}"),
                }
            } else {
                assert_eq!(*r.expect_ok(), i as u64);
            }
        }
    }

    #[test]
    fn accel_error_is_isolated() {
        let items = vec![
            ("ok".to_string(), 1, 1u64),
            ("bad".to_string(), 2, 2),
            ("ok2".to_string(), 3, 3),
        ];
        let results = sweep_map_checkpointed(items, quiet(), |i| {
            if i == 2 {
                Err(AccelError::NoPreload)
            } else {
                Ok(i)
            }
        });
        assert!(results[0].outcome.is_ok());
        assert!(matches!(
            results[1].outcome,
            Err(SweepError::Accel(AccelError::NoPreload))
        ));
        assert!(results[2].outcome.is_ok());
    }

    #[test]
    fn worker_count_resolution() {
        // Explicit threads win and are clamped to the point count.
        assert_eq!(worker_count(8, 3), 3);
        assert_eq!(worker_count(2, 100), 2);
        // Zero points still yields a sane value.
        assert_eq!(worker_count(4, 0), 1);
    }

    #[test]
    fn empty_sweep_is_empty() {
        let results = sweep_map_checkpointed(grid(0), quiet(), |_| Ok(0u64));
        assert!(results.is_empty());
    }

    #[test]
    fn resume_serves_recorded_failures_without_rerunning() {
        let path =
            std::env::temp_dir().join(format!("gemmini_sweep_failed_{}.jsonl", std::process::id()));
        let fp = |i: u64| debug_fingerprint(&i);
        // Seed the checkpoint: "a" completed, "b" recorded as timed out.
        let writer = CheckpointWriter::create(&path).unwrap();
        writer
            .append(&CheckpointEntry {
                label: "a".to_string(),
                fingerprint: fp(1),
                wall: Duration::from_micros(5),
                payload: 10u64,
                pruned: None,
            })
            .unwrap();
        writer
            .record("b", fp(2), Duration::from_secs(9), Err("timeout"))
            .unwrap();
        drop(writer);

        let items: Vec<(String, u64, u64)> = vec![
            ("a".to_string(), fp(1), 1),
            ("b".to_string(), fp(2), 2),
            ("c".to_string(), fp(3), 3),
        ];
        let ran = AtomicUsize::new(0);
        let opts = SweepOptions {
            progress: false,
            threads: 1,
            ..SweepOptions::checkpointed(&path, true)
        };
        let results = sweep_map_checkpointed(items, opts, |i| {
            ran.fetch_add(1, Ordering::Relaxed);
            assert_ne!(i, 2, "the recorded failure must be served, not re-run");
            Ok(i * 10)
        });
        assert_eq!(ran.load(Ordering::Relaxed), 1, "only 'c' executes");
        assert_eq!(*results[0].expect_ok(), 10);
        assert!(results[0].cached);
        match &results[1].outcome {
            Err(SweepError::Recorded(reason)) => assert_eq!(reason, "timeout"),
            other => panic!("expected served failure, got {other:?}"),
        }
        assert!(results[1].cached);
        assert_eq!(results[1].wall, Duration::from_secs(9));
        assert_eq!(*results[2].expect_ok(), 30);

        // A fresh (non-resume) run ignores the recorded failure and
        // re-attempts everything.
        let opts = SweepOptions {
            progress: false,
            threads: 1,
            ..SweepOptions::checkpointed(&path, false)
        };
        let items: Vec<(String, u64, u64)> = vec![("b".to_string(), fp(2), 2)];
        let results = sweep_map_checkpointed(items, opts, |i| Ok(i * 10));
        assert_eq!(*results[0].expect_ok(), 20);
        std::fs::remove_file(&path).unwrap();
    }
}
