//! End-to-end tests of the sharded multi-process sweep layer, driving
//! the real binaries (via `CARGO_BIN_EXE_*`) exactly as a user or CI
//! would: supervised shards with a crash injected mid-run (`--faults`
//! failpoint schedules), manual shard-then-merge flows, resume progress
//! accounting, and the command-line front end's refusal of bad input.
//!
//! The load-bearing property throughout: every multi-process path —
//! supervised, crashed-and-retried, hung-and-watchdog-killed, manually
//! sharded and merged, or fault-injected mid-checkpoint — must produce
//! results bit-identical to the single-process sweep.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use gemmini_mem::json::ToJson;
use gemmini_soc::checkpoint::{debug_fingerprint, Checkpoint};
use gemmini_soc::run::SocReport;
use gemmini_soc::sweep::merge_memory_stats;

const SMOKE: &str = env!("CARGO_BIN_EXE_shard_smoke");
const FIG8: &str = env!("CARGO_BIN_EXE_fig8_tlb_sweep");
const FIG7: &str = env!("CARGO_BIN_EXE_fig7_speedup");

/// A scratch directory unique to this test and process.
fn scratch_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gemmini_shard_e2e_{test}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(bin: &str, args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    // Serial workers keep checkpoint line order equal to submission
    // order, which the file-level comparisons below rely on; it also
    // makes `sweep.point` faults deterministic (exactly k points persist
    // before the fault at evaluation k+1).
    cmd.env("GEMMINI_THREADS", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Asserts two checkpoint files hold identical results: same labels in
/// the same order, same fingerprints, and byte-identical payload JSON.
/// Wall-clock is the one field allowed to differ (it measures host time,
/// not simulation results).
fn assert_checkpoints_equal_modulo_wall(a: &Path, b: &Path) {
    assert_checkpoints_equivalent(a, b, true);
}

/// Like [`assert_checkpoints_equal_modulo_wall`] but indifferent to line
/// order — a pruned sweep persists in phase order (bases first, members
/// as they are decided) while a merge stitches in grid order.
fn assert_checkpoints_equal_modulo_wall_and_order(a: &Path, b: &Path) {
    assert_checkpoints_equivalent(a, b, false);
}

fn assert_checkpoints_equivalent(a: &Path, b: &Path, ordered: bool) {
    let ca = Checkpoint::<SocReport>::load(a).expect("checkpoint a loads");
    let cb = Checkpoint::<SocReport>::load(b).expect("checkpoint b loads");
    assert_eq!(ca.len(), cb.len(), "{} vs {}", a.display(), b.display());
    let mut ea_sorted: Vec<_> = ca.entries().iter().collect();
    let mut eb_sorted: Vec<_> = cb.entries().iter().collect();
    if !ordered {
        ea_sorted.sort_by_key(|e| &e.label);
        eb_sorted.sort_by_key(|e| &e.label);
    }
    for (ea, eb) in ea_sorted.into_iter().zip(eb_sorted) {
        assert_eq!(ea.label, eb.label, "label sets/order must match");
        assert_eq!(ea.fingerprint, eb.fingerprint, "point '{}'", ea.label);
        assert_eq!(
            ea.payload.to_json().encode(),
            eb.payload.to_json().encode(),
            "payload for '{}' must be bit-identical",
            ea.label
        );
        assert_eq!(
            ea.pruned, eb.pruned,
            "prune evidence for '{}' must agree",
            ea.label
        );
    }
    // The exact-merge claim extends to the folded totals.
    let ra = merge_memory_stats(ca.entries().iter().map(|e| &e.payload));
    let rb = merge_memory_stats(cb.entries().iter().map(|e| &e.payload));
    assert_eq!(ra, rb, "merged MemoryRollup totals must be bit-identical");
}

#[test]
fn supervised_crash_retry_matches_single_process() {
    let dir = scratch_dir("smoke_supervised");
    let single = dir.join("single.jsonl");
    let sharded = dir.join("sharded.jsonl");

    let golden = run(SMOKE, &["--json", single.to_str().unwrap()], &[]);
    assert!(golden.status.success());

    // 2 supervised shards; shard 0 aborts after persisting 2 points and
    // must be retried from its checkpoint by the supervisor.
    let supervised = run(
        SMOKE,
        &[
            "--json",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
            "--faults",
            "sweep.point=abort@3#0",
        ],
        &[],
    );
    let err = stderr(&supervised);
    assert!(supervised.status.success(), "supervisor recovers: {err}");
    assert!(
        err.contains("retrying from its checkpoint"),
        "the crash must actually happen and be retried: {err}"
    );
    assert!(err.contains("recovered on attempt 2"), "{err}");

    assert_eq!(
        stdout(&golden),
        stdout(&supervised),
        "rendered tables must be identical"
    );

    // The merged file matches the single-process checkpoint except for
    // wall-clock (u64 payloads here, so compare the raw JSON fields).
    let ca = Checkpoint::<u64>::load(&single).unwrap();
    let cb = Checkpoint::<u64>::load(&sharded).unwrap();
    assert_eq!(ca.len(), 8);
    assert_eq!(cb.len(), 8);
    for (ea, eb) in ca.entries().iter().zip(cb.entries()) {
        assert_eq!(
            (&ea.label, ea.fingerprint, ea.payload),
            (&eb.label, eb.fingerprint, eb.payload)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_progress_reports_true_grid_position() {
    let dir = scratch_dir("smoke_resume");
    let ckpt = dir.join("sweep.jsonl");

    // Fresh run crashes after 5 of 8 points persist.
    let crashed = run(
        SMOKE,
        &[
            "--json",
            ckpt.to_str().unwrap(),
            "--faults",
            "sweep.point=abort@6",
        ],
        &[],
    );
    assert!(!crashed.status.success(), "the abort failpoint must fire");
    assert_eq!(Checkpoint::<u64>::load(&ckpt).unwrap().len(), 5);

    // The resume serves 5 cached points and runs the remaining 3; its
    // progress lines must report whole-grid positions with cached
    // provenance, not [1/3]..[3/3].
    let resumed = run(SMOKE, &["--json", ckpt.to_str().unwrap(), "--resume"], &[]);
    let err = stderr(&resumed);
    assert!(resumed.status.success(), "{err}");
    assert!(err.contains("skipped 5/8 completed points"), "{err}");
    for line in ["[6/8, 5 cached]", "[7/8, 5 cached]", "[8/8, 5 cached]"] {
        assert!(
            err.contains(line),
            "expected progress line {line} in: {err}"
        );
    }
    assert!(
        !err.contains("[1/3]"),
        "progress must not restart from the to-run count: {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn manual_shards_then_merge_match_single_process() {
    let dir = scratch_dir("smoke_manual");
    let single = dir.join("single.jsonl");
    let base = dir.join("sweep.jsonl");
    let shard0 = dir.join("sweep.shard0of2.jsonl");
    let shard1 = dir.join("sweep.shard1of2.jsonl");

    let golden = run(SMOKE, &["--json", single.to_str().unwrap()], &[]);
    assert!(golden.status.success());

    // Run the two shards by hand (e.g. on two hosts sharing a filesystem).
    for spec in ["0/2", "1/2"] {
        let out = run(
            SMOKE,
            &["--json", base.to_str().unwrap(), "--shard", spec],
            &[],
        );
        assert!(out.status.success(), "shard {spec}: {}", stderr(&out));
        assert_eq!(stdout(&out), "", "shard workers render nothing");
    }
    assert!(shard0.exists() && shard1.exists());

    // Merging only one shard must fail loudly, naming missing points.
    let partial = run(
        SMOKE,
        &[
            "--json",
            base.to_str().unwrap(),
            "--merge",
            shard0.to_str().unwrap(),
        ],
        &[],
    );
    assert!(!partial.status.success(), "partial merges must not succeed");
    assert!(
        stderr(&partial).contains("missing"),
        "must report missing points: {}",
        stderr(&partial)
    );

    // Merging both stitches the full grid, identical to single-process.
    let merged = run(
        SMOKE,
        &[
            "--json",
            base.to_str().unwrap(),
            "--merge",
            shard0.to_str().unwrap(),
            shard1.to_str().unwrap(),
        ],
        &[],
    );
    assert!(merged.status.success(), "{}", stderr(&merged));
    assert_eq!(stdout(&golden), stdout(&merged));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The acceptance-criteria test: a 2-shard quick-mode fig8 run with one
/// shard killed and retried by the supervisor produces merged per-point
/// reports and `MemoryRollup` totals bit-identical to the single-process
/// sweep.
#[test]
fn fig8_supervised_shards_bit_identical_to_single_process() {
    let dir = scratch_dir("fig8");
    let single = dir.join("single.jsonl");
    let sharded = dir.join("sharded.jsonl");

    let golden = run(FIG8, &["--quick", "--json", single.to_str().unwrap()], &[]);
    assert!(golden.status.success(), "{}", stderr(&golden));

    let supervised = run(
        FIG8,
        &[
            "--quick",
            "--json",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
            "--faults",
            "sweep.point=abort@4#1",
        ],
        &[],
    );
    let err = stderr(&supervised);
    assert!(supervised.status.success(), "supervisor recovers: {err}");
    assert!(
        err.contains("retrying from its checkpoint"),
        "shard 1 must crash and be retried: {err}"
    );

    assert_eq!(
        stdout(&golden),
        stdout(&supervised),
        "fig8 tables must be bit-identical between single-process and sharded runs"
    );
    assert_checkpoints_equal_modulo_wall(&single, &sharded);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The hung-shard watchdog end to end: shard 0 wedges forever after
/// persisting two points (`sweep.point=hang@3#0`). The supervisor's
/// `--watchdog` budget must notice the frozen heartbeat `done` count,
/// kill the worker, and retry it; the retry resumes from the shard
/// checkpoint (a sweep that served cached points never evaluates
/// `sweep.point`) and the merged output matches the single-process
/// golden bit for bit.
#[test]
fn supervised_watchdog_kills_hung_shard_and_recovers() {
    let dir = scratch_dir("smoke_watchdog");
    let single = dir.join("single.jsonl");
    let sharded = dir.join("sharded.jsonl");

    let golden = run(SMOKE, &["--json", single.to_str().unwrap()], &[]);
    assert!(golden.status.success());

    let supervised = run(
        SMOKE,
        &[
            "--json",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
            "--watchdog",
            "1",
            "--faults",
            "sweep.point=hang@3#0",
        ],
        &[],
    );
    let err = stderr(&supervised);
    assert!(
        supervised.status.success(),
        "supervisor recovers from the hang: {err}"
    );
    assert!(
        err.contains("fault: hanging at failpoint 'sweep.point'"),
        "{err}"
    );
    assert!(err.contains("hung (no heartbeat progress"), "{err}");
    assert!(err.contains("killed by watchdog"), "{err}");
    assert!(err.contains("recovered on attempt 2"), "{err}");

    assert_eq!(
        stdout(&golden),
        stdout(&supervised),
        "rendered tables must be identical"
    );
    let ca = Checkpoint::<u64>::load(&single).unwrap();
    let cb = Checkpoint::<u64>::load(&sharded).unwrap();
    assert_eq!(ca.len(), 8);
    assert_eq!(cb.len(), 8);
    for (ea, eb) in ca.entries().iter().zip(cb.entries()) {
        assert_eq!(
            (&ea.label, ea.fingerprint, ea.payload),
            (&eb.label, eb.fingerprint, eb.payload)
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--point-timeout` end to end: a fresh run wedges in its third point,
/// the timeout monitor records a first-class `failed:timeout` entry and
/// exits 1 (the grid is incomplete — retryable); the resume *serves* the
/// recorded failure instead of re-running the hang, finishes every other
/// point, prints the terminal failure summary, and exits 3.
#[test]
fn point_timeout_records_failure_and_resume_serves_it() {
    let dir = scratch_dir("smoke_timeout");
    let ckpt = dir.join("sweep.jsonl");

    let wedged = run(
        SMOKE,
        &[
            "--json",
            ckpt.to_str().unwrap(),
            "--point-timeout",
            "1",
            "--faults",
            "sweep.point=hang@3",
        ],
        &[],
    );
    let err = stderr(&wedged);
    assert_eq!(
        wedged.status.code(),
        Some(1),
        "an incomplete grid is retryable: {err}"
    );
    assert!(err.contains("exceeded --point-timeout"), "{err}");
    assert!(err.contains("recording failed:timeout"), "{err}");
    let ck = Checkpoint::<u64>::load(&ckpt).unwrap();
    assert_eq!(ck.len(), 2, "two points persisted before the hang");
    let failed = ck
        .lookup_failed("point2", debug_fingerprint(&2u64))
        .expect("the timeout must be on the books");
    assert_eq!(failed.reason, "timeout");

    // No fault schedule this time: the recorded failure alone must keep
    // the point from being re-attempted.
    let resumed = run(
        SMOKE,
        &[
            "--json",
            ckpt.to_str().unwrap(),
            "--point-timeout",
            "1",
            "--resume",
        ],
        &[],
    );
    let err = stderr(&resumed);
    assert_eq!(
        resumed.status.code(),
        Some(3),
        "a complete grid with recorded failures is terminal: {err}"
    );
    assert!(
        err.contains("sweep: finished with 1 recorded point failure(s):"),
        "{err}"
    );
    assert!(err.contains("point2: recorded failure: timeout"), "{err}");
    assert!(err.contains("exiting 3"), "{err}");
    let ck = Checkpoint::<u64>::load(&ckpt).unwrap();
    assert_eq!(ck.len(), 7, "every point but the timed-out one completed");
    assert!(
        ck.lookup("point2", debug_fingerprint(&2u64)).is_none(),
        "the hung point must not be re-run"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The chaos acceptance run: a supervised 2-shard quick fig8 sweep with
/// one injected hang (shard 1, killed and retried by the watchdog) *and*
/// one injected checkpoint corruption (shard 0's fifth append torn
/// mid-line by the fault registry). The torn line is caught when the
/// worker stitches its own slice, quarantined to the `.bad` sidecar,
/// and exactly that point is re-run on retry — the merged report must
/// come out bit-identical to the clean single-process golden.
#[test]
fn fig8_chaos_hang_and_corruption_heal_bit_identical() {
    let dir = scratch_dir("fig8_chaos");
    let single = dir.join("single.jsonl");
    let sharded = dir.join("sharded.jsonl");

    let golden = run(FIG8, &["--quick", "--json", single.to_str().unwrap()], &[]);
    assert!(golden.status.success(), "{}", stderr(&golden));

    let supervised = run(
        FIG8,
        &[
            "--quick",
            "--json",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
            "--watchdog",
            "2",
            "--faults",
            "checkpoint.corrupt=corrupt@5#0,sweep.point=hang@4#1",
        ],
        &[],
    );
    let err = stderr(&supervised);
    assert!(
        supervised.status.success(),
        "supervisor heals both injected faults: {err}"
    );
    assert!(
        err.contains("fault: hanging at failpoint 'sweep.point'"),
        "{err}"
    );
    assert!(err.contains("hung (no heartbeat progress"), "{err}");
    assert!(
        err.contains("quarantined 1 damaged line(s)"),
        "the torn line must be quarantined exactly once: {err}"
    );

    // The sidecar holds exactly the one torn line.
    let sidecar = dir.join("sharded.shard0of2.jsonl.bad");
    let bad = std::fs::read_to_string(&sidecar).expect("quarantine sidecar exists");
    assert_eq!(
        bad.lines().count(),
        1,
        "exactly one line quarantined: {bad}"
    );

    assert_eq!(
        stdout(&golden),
        stdout(&supervised),
        "fig8 tables must be bit-identical despite the injected faults"
    );
    assert_checkpoints_equal_modulo_wall(&single, &sharded);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Attribution-guided pruning across every multi-process path: crash
/// mid-basis-phase and resume, resume again over a fully-pruned file
/// (every entry replayed), resume past a hand-deleted group (cached and
/// pruned provenance in one progress line), and a supervised 2-shard
/// run with a crash — all bit-identical to the plain pruned sweep.
#[test]
fn fig8_prune_survives_crash_resume_and_shards() {
    let dir = scratch_dir("fig8_prune");
    let pruned = dir.join("pruned.jsonl");
    let crash = dir.join("crash.jsonl");
    let sharded = dir.join("sharded.jsonl");

    let baseline = run(
        FIG8,
        &["--quick", "--prune", "--json", pruned.to_str().unwrap()],
        &[],
    );
    let err = stderr(&baseline);
    assert!(baseline.status.success(), "{err}");
    assert!(
        err.contains("sweep: pruned 24/32 point(s) via tlb-entries attribution"),
        "quick fig8 must prune 24 of 32 points: {err}"
    );
    let entries = Checkpoint::<SocReport>::load(&pruned).unwrap();
    assert_eq!(entries.len(), 32);
    for e in entries.entries() {
        if let Some(ev) = &e.pruned {
            assert!(
                e.label.starts_with(&format!(
                    "{} shared=",
                    ev.basis_label.split(" shared=").next().unwrap()
                )),
                "evidence must name the point's own group basis: {} vs {}",
                e.label,
                ev.basis_label
            );
        }
    }

    // Crash after 3 of the 8 basis points; the retry resumes past the
    // cached bases, finishes the rest, and prunes the members.
    let crashed = run(
        FIG8,
        &[
            "--quick",
            "--prune",
            "--json",
            crash.to_str().unwrap(),
            "--faults",
            "sweep.point=abort@4",
        ],
        &[],
    );
    assert!(!crashed.status.success(), "the abort failpoint must fire");
    let resumed = run(
        FIG8,
        &[
            "--quick",
            "--prune",
            "--json",
            crash.to_str().unwrap(),
            "--resume",
        ],
        &[],
    );
    let err = stderr(&resumed);
    assert!(resumed.status.success(), "{err}");
    assert!(err.contains("skipped 3/32 completed points"), "{err}");
    assert_eq!(stdout(&baseline), stdout(&resumed), "crash+resume drifts");

    // A second resume replays every entry — run *and* pruned — without
    // simulating anything.
    let replayed = run(
        FIG8,
        &[
            "--quick",
            "--prune",
            "--json",
            crash.to_str().unwrap(),
            "--resume",
        ],
        &[],
    );
    let err = stderr(&replayed);
    assert!(replayed.status.success(), "{err}");
    assert!(
        err.contains("skipped 32/32 completed points (24 pruned replayed)"),
        "{err}"
    );
    assert_eq!(stdout(&baseline), stdout(&replayed), "full replay drifts");

    // Delete one whole group (basis + its three pruned members) from the
    // checkpoint: the resume must re-run the basis — with both cached
    // and pruned provenance in its progress line — and re-prune the
    // members from fresh evidence.
    let text = std::fs::read_to_string(&crash).unwrap();
    let kept: Vec<&str> = text
        .lines()
        .filter(|l| !(l.contains("\"label\":\"private=32 ") && l.contains("filters=true")))
        .collect();
    assert_eq!(kept.len(), 28, "one group of four removed");
    std::fs::write(&crash, format!("{}\n", kept.join("\n"))).unwrap();
    let regrown = run(
        FIG8,
        &[
            "--quick",
            "--prune",
            "--json",
            crash.to_str().unwrap(),
            "--resume",
        ],
        &[],
    );
    let err = stderr(&regrown);
    assert!(regrown.status.success(), "{err}");
    assert!(
        err.contains("skipped 28/32 completed points (21 pruned replayed)"),
        "{err}"
    );
    assert!(
        err.contains("[29/32, 7 cached, 21 pruned] private=32 shared=0 filters=true"),
        "progress must carry cached and pruned provenance: {err}"
    );
    assert_eq!(stdout(&baseline), stdout(&regrown), "group regrow drifts");

    // Supervised 2-shard run with a crash: whole groups stay on one
    // shard, each worker prunes its own members, and the merged file
    // matches the plain pruned sweep — evidence included.
    let supervised = run(
        FIG8,
        &[
            "--quick",
            "--prune",
            "--json",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
            "--faults",
            "sweep.point=abort@3#0",
        ],
        &[],
    );
    let err = stderr(&supervised);
    assert!(supervised.status.success(), "supervisor recovers: {err}");
    assert!(err.contains("retrying from its checkpoint"), "{err}");
    assert!(
        err.contains("sweep: pruned 24/32 point(s) across shards (8 simulated)"),
        "{err}"
    );
    assert_eq!(stdout(&baseline), stdout(&supervised), "sharded drifts");
    assert_checkpoints_equal_modulo_wall_and_order(&pruned, &sharded);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The `k` of every `[k/n...]` progress line, in print order, with the
/// line itself.
fn progress_lines(err: &str) -> Vec<(usize, &str)> {
    err.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix('[')?;
            let (k, _) = rest.split_once('/')?;
            Some((k.parse().ok()?, line))
        })
        .collect()
}

/// Fig. 7's BOOM points with on-accelerator im2col repeat their Rocket
/// twins, so the sweep serves them from one run: each follower takes the
/// progress position right after its leader's, a resume serves every
/// point from the checkpoint, and a supervised 2-shard run keeps each
/// pair on one shard and prints the same figure.
#[test]
fn fig7_serves_equal_fingerprint_points_from_one_run() {
    let dir = scratch_dir("fig7_dedup");
    let ckpt = dir.join("fig7.jsonl");
    let ckpt_arg = ckpt.to_str().unwrap();
    let single = run(
        FIG7,
        &["--quick", "--json", ckpt_arg],
        &[("GEMMINI_THREADS", "2")],
    );
    let err = stderr(&single);
    assert!(single.status.success(), "{err}");
    let lines = progress_lines(&err);
    let mut positions: Vec<usize> = lines.iter().map(|(k, _)| *k).collect();
    positions.sort_unstable();
    assert_eq!(positions, (1..=8).collect::<Vec<_>>(), "{err}");
    let mut served = 0;
    for (j, (k, line)) in lines.iter().enumerate() {
        let Some((_, leader)) = line.split_once("served from '") else {
            continue;
        };
        served += 1;
        let leader = leader.split('\'').next().unwrap();
        assert!(line.contains("BOOM host, im2col on accel"), "{line}");
        let (before, previous) = lines[j - 1];
        assert_eq!(before + 1, *k, "a follower's position follows its leader's");
        assert!(previous.contains(leader), "{previous} / {line}");
    }
    assert_eq!(served, 2, "{err}");
    assert!(
        err.contains(
            "sweep: 6 simulation(s) for 8 point(s); 2 served from an equal-fingerprint run"
        ),
        "{err}"
    );
    assert_eq!(Checkpoint::<SocReport>::load(&ckpt).unwrap().len(), 8);

    let resumed = run(FIG7, &["--quick", "--json", ckpt_arg, "--resume"], &[]);
    assert!(stderr(&resumed).contains("skipped 8/8 completed points"));
    assert_eq!(stdout(&resumed), stdout(&single));

    let sharded = dir.join("sharded.jsonl");
    let supervised = run(
        FIG7,
        &[
            "--quick",
            "--json",
            sharded.to_str().unwrap(),
            "--shards",
            "2",
        ],
        &[],
    );
    let err = stderr(&supervised);
    assert!(supervised.status.success(), "{err}");
    assert_eq!(err.matches("served from '").count(), 2, "{err}");
    assert_eq!(stdout(&supervised), stdout(&single));
    // Two workers persist in completion order; the merge in grid order.
    assert_checkpoints_equal_modulo_wall_and_order(&sharded, &ckpt);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Bad input fails loudly: a typo'd flag, a flag missing its value,
/// two shard modes, unfireable fault schedules and mode flags the run
/// cannot use (shards without a `--json` base path, a watchdog with no
/// workers to watch) all exit 2 with a usage line before a single point
/// is simulated.
#[test]
fn bad_input_exits_2_before_simulating() {
    for args in [
        &["--quikc"][..],
        &["--quick", "--point-timeout"],
        &["--quick", "--shard", "0/2", "--shards", "2"],
        &["--quick", "--faults", "sweep.point=explode"],
        &["--quick", "--faults", "sweep.pont=hang"],
        &["--quick", "--shard", "0/2"],
        &["--quick", "--shards", "2"],
        &["--quick", "--watchdog", "5"],
    ] {
        let out = run(FIG8, args, &[]);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(
            err.contains("usage: fig8_tlb_sweep [options]"),
            "{args:?}: {err}"
        );
        assert!(!err.contains("[1/"), "{args:?} must not simulate: {err}");
        assert_eq!(stdout(&out), "", "{args:?}");
    }
}

/// `--help` prints the usage rendered from the flag table and exits 0
/// without running anything.
#[test]
fn help_prints_usage_and_runs_nothing() {
    let out = run(FIG8, &["--help"], &[]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(
        text.starts_with("usage: fig8_tlb_sweep [options]"),
        "{text}"
    );
    assert!(text.contains("--point-timeout <secs>"), "{text}");
    assert!(!text.contains("Fig. 8"), "no figure output: {text}");
    assert_eq!(stderr(&out), "", "no sweep progress");
}
