//! The two runs of the ledger: end to end (tracing off) and per layer
//! (the traced run), each returning named metrics with their units.

use crate::measure::{run_pass, sweep_options, Expected, Pass, Tally};
use crate::probes;
use crate::traced::{class_label, run_traced, Spans, TracedPoint, CLASSES};
use crate::workload::{paper_error, Mode, Plan, Workload, WORKERS};
use crate::OUT_DIR;
use gemmini_core::metrics::{Counter, Metrics, MetricsSnapshot};
use gemmini_mem::stats::CycleAttribution;
use gemmini_soc::checkpoint::{Checkpoint, CheckpointEntry, CheckpointWriter};
use gemmini_soc::run::{run_networks, run_networks_metered, SocReport};
use gemmini_soc::sweep::run_sweep_with;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-up samples before each pass; `setup_s` is the median of all of
/// them, so a burst of host noise cannot cover every sample.
const SETUP_SAMPLES: usize = 5;
/// Each set-up sample repeats the set-up for at least this long and
/// reports the mean, lifting microsecond set-ups above timer noise.
const SETUP_SAMPLE_TIME: Duration = Duration::from_millis(2);
/// Fewest passes an end-to-end run makes.
const MIN_PASSES: usize = 3;

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload to run.
    pub workload: Workload,
    /// Seed for the workload's inputs.
    pub seed: u64,
    /// How long to keep measuring.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Whether to use the seconds-long stand-in networks.
    pub smoke: bool,
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The result of one invocation.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose results were checked.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable context printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    fn absorb(&mut self, tally: Tally) {
        self.attempted += tally.attempted;
        self.failures.extend(tally.failures);
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        use gemmini_mem::json::Json;
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
            )
        });
        Json::obj([
            ("correct", Json::from(self.failures.is_empty())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failures.len() as u64)),
            ("metrics", Json::obj(metrics)),
        ])
        .encode()
    }
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values` with at least ten samples beyond
/// it, as (percentile, value); the maximum when there are too few.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 10 {
        return (100.0, v.last().copied().unwrap_or(0.0));
    }
    ((n - 10) as f64 / n as f64 * 100.0, v[n - 11])
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Takes [`SETUP_SAMPLES`] set-up samples, appending each (seconds per
/// set-up) to `times`; returns the last plan built.
fn timed_setup(cfg: &Config, times: &mut Vec<f64>) -> Plan {
    let mut plan = None;
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let mut builds = 0u32;
        while builds == 0 || start.elapsed() < SETUP_SAMPLE_TIME {
            plan = Some(cfg.workload.plan(cfg.seed, cfg.smoke));
            builds += 1;
        }
        times.push(start.elapsed().as_secs_f64() / f64::from(builds));
    }
    plan.expect("SETUP_SAMPLES > 0")
}

fn out_path(cfg: &Config, what: &str) -> PathBuf {
    Path::new(OUT_DIR).join(format!(
        "{}-{what}-{}.jsonl",
        cfg.workload.name(),
        std::process::id()
    ))
}

fn remove_checkpoint(path: &Path) {
    let _ = std::fs::remove_file(path);
    let mut bad = path.as_os_str().to_owned();
    bad.push(".bad");
    let _ = std::fs::remove_file(PathBuf::from(bad));
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn reports(pass: &Pass) -> Vec<Option<&SocReport>> {
    pass.fresh.iter().map(|r| r.outcome.as_ref().ok()).collect()
}

fn paper_err(cfg: &Config, plan: &Plan, pass: &Pass, out: &mut Outcome) -> f64 {
    let (err, rows) = paper_error(cfg.workload.anchors(), &plan.points, &reports(pass));
    for (a, got) in rows {
        out.notes.push(format!(
            "  anchor {:<52} paper {:>8} simulated {:>10.3}  ({})",
            a.what, a.paper, got, a.source
        ));
    }
    err
}

/// The end-to-end run: as many passes of the workload as fill `seconds`
/// at the workload's nominal pass time (at least [`MIN_PASSES`]), every
/// result gated. The pass count depends on the arguments only, so the
/// sample count, and with it the tail percentile, does not drift with
/// host speed or noise.
pub fn end_to_end(cfg: &Config) -> Outcome {
    let mut setup_times = Vec::new();
    let plan = timed_setup(cfg, &mut setup_times);
    let expected = Expected::new(cfg.workload, &plan, cfg.smoke);
    let checkpoint = out_path(cfg, "checkpoint");
    let mut tally = Tally::default();
    let nominal = cfg.workload.nominal_pass_seconds(cfg.smoke);
    let n_passes = ((cfg.seconds.as_secs_f64() / nominal).round() as usize).max(MIN_PASSES);
    // Only the first pass's reports are kept (for the paper anchors), so
    // the benchmark's own bookkeeping does not grow `peak_rss_mb`.
    let mut first: Option<Pass> = None;
    let (mut walls, mut point_walls, mut rates) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..n_passes {
        if i > 0 {
            timed_setup(cfg, &mut setup_times);
        }
        let pass = run_pass(&plan, &checkpoint);
        expected.check_pass(&pass, &mut tally);
        let wall = pass.wall.as_secs_f64();
        walls.push(wall);
        point_walls.extend(pass.fresh.iter().map(|r| r.wall.as_secs_f64()));
        rates.push(pass.sim_cycles() as f64 / wall / 1e6);
        first.get_or_insert(pass);
    }
    remove_checkpoint(&checkpoint);
    let setup_s = median(&setup_times);

    let mut out = Outcome::default();
    let (pct, tail_s) = tail(&point_walls);
    out.notes.push(format!(
        "{}: seed {}, {} passes of {} points, {} sweep workers",
        cfg.workload.name(),
        cfg.seed,
        n_passes,
        plan.points.len(),
        if plan.mode == Mode::Serial {
            1
        } else {
            WORKERS
        }
    ));
    let pass_walls: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    out.notes.push(format!(
        "  point_wall_tail_s is p{pct:.1} of {} point samples; pass walls (s): {}",
        point_walls.len(),
        pass_walls.join(" ")
    ));
    let err = paper_err(cfg, &plan, &first.expect("MIN_PASSES > 0"), &mut out);
    out.push("wall_s", median(&walls), "s");
    out.push("point_wall_tail_s", tail_s, "s");
    out.push("sim_mcyc_per_s", median(&rates), "Mcyc/s");
    out.push("setup_s", setup_s, "s");
    out.push("peak_rss_mb", peak_rss_mb(), "MB");
    out.push("paper_err_pct", err, "%");
    out.absorb(tally);
    out
}

/// Sums of one traced-run repetition over every point.
#[derive(Debug, Default)]
struct TraceTotals {
    untraced: Duration,
    metered: Duration,
    traced: Duration,
    init: Duration,
    steps: Duration,
    class_self: [Duration; CLASSES.len()],
    class_steps: [u64; CLASSES.len()],
}

impl TraceTotals {
    fn add(&mut self, t: &TracedPoint, untraced: Duration, metered: Duration) {
        self.untraced += untraced;
        self.metered += metered;
        self.traced += t.wall;
        self.init += t.init;
        self.steps += t.step_time;
        for c in 0..CLASSES.len() {
            self.class_self[c] += t.class_self[c];
            self.class_steps[c] += t.class_steps[c];
        }
    }
}

/// The per-layer run: one gated pass of the workload for the sweep and
/// checkpoint layers; then every point run untraced, metered (an enabled
/// `MetricsRegistry`, for the work counts) and traced, in rotating order,
/// while another repetition fits in `seconds`; then the layer probes.
pub fn per_layer(cfg: &Config) -> Outcome {
    let start = Instant::now();
    let plan = cfg.workload.plan(cfg.seed, cfg.smoke);
    let expected = Expected::new(cfg.workload, &plan, cfg.smoke);
    let mut tally = Tally::default();
    let mut out = Outcome::default();

    // soc::sweep — the workload's own pass.
    let sweep_checkpoint = out_path(cfg, "checkpoint");
    let pass = run_pass(&plan, &sweep_checkpoint);
    remove_checkpoint(&sweep_checkpoint);
    expected.check_pass(&pass, &mut tally);
    let simulated: Vec<f64> = pass
        .fresh
        .iter()
        .filter(|r| !r.cached && r.outcome.is_ok())
        .map(|r| r.wall.as_secs_f64())
        .collect();
    let workers = match plan.mode {
        Mode::Sweep { .. } => WORKERS.min(plan.points.len()),
        Mode::Serial => 1,
    };
    let sweep_wall = (pass.wall - pass.resume_wall).as_secs_f64();
    out.push("sweep.points_simulated", simulated.len() as f64, "count");
    out.push("sweep.point_wall_p50_ms", median(&simulated) * 1e3, "ms");
    out.push(
        "sweep.busy_frac",
        simulated.iter().sum::<f64>() / (workers as f64 * sweep_wall),
        "frac",
    );

    // soc::checkpoint — the pass's reports appended, loaded and resumed.
    let ledger_checkpoint = out_path(cfg, "ledger");
    checkpoint_layer(
        &plan,
        &pass,
        &ledger_checkpoint,
        &expected,
        &mut tally,
        &mut out,
    );
    remove_checkpoint(&ledger_checkpoint);

    // soc::runtime / soc::kernel — each point untraced, metered and
    // traced, in rotating order.
    let mut spans = Spans::default();
    let root = spans.open(None, "workload", cfg.workload.name());
    let (totals, reps, snapshot) =
        compare_runs(&plan, &mut spans, root, start + cfg.seconds, &mut tally);
    spans.close(root, Instant::now());
    let spans_path = Path::new(OUT_DIR).join(format!("spans-{}.jsonl", cfg.workload.name()));
    if let Err(e) = spans.write_jsonl(&spans_path) {
        tally.record(Err(format!("writing {}: {e}", spans_path.display())));
    }
    let per_rep = |d: Duration| ms(d) / reps as f64;

    let ok: Vec<&SocReport> = reports(&pass).into_iter().flatten().collect();
    let class_cycles = |c| -> u64 {
        ok.iter()
            .flat_map(|r| r.cores.iter().map(move |core| core.class_cycles(c)))
            .sum()
    };
    out.push("runtime.init_ms", per_rep(totals.init), "ms");
    for (i, &class) in CLASSES.iter().enumerate() {
        let name = class_label(class);
        let self_ms = per_rep(totals.class_self[i]);
        let rate = if self_ms > 0.0 {
            class_cycles(class) as f64 / (self_ms / 1e3) / 1e6
        } else {
            0.0
        };
        out.push(format!("runtime.{name}.self_ms"), self_ms, "ms");
        out.push(format!("runtime.{name}.mcyc_per_s"), rate, "Mcyc/s");
        out.push(
            format!("runtime.{name}.steps"),
            (totals.class_steps[i] / reps as u64) as f64,
            "count",
        );
    }
    let traced_ms = per_rep(totals.traced);
    out.push(
        "runtime.unattributed_ms",
        traced_ms - per_rep(totals.init) - per_rep(totals.steps),
        "ms",
    );
    let untraced_s = totals.untraced.as_secs_f64();
    let overhead_pct = (totals.traced.as_secs_f64() / untraced_s - 1.0) * 100.0;
    let registry_pct = (totals.metered.as_secs_f64() / untraced_s - 1.0) * 100.0;
    out.push("trace.overhead_pct", overhead_pct, "%");
    out.push("trace.registry_overhead_pct", registry_pct, "%");

    // core, vm, mem — work counts, then host ns per event from the probes.
    let sum = |f: &dyn Fn(&SocReport) -> u64| -> u64 { ok.iter().map(|r| f(r)).sum() };
    let tiles = snapshot.counter(Counter::TilesIssued);
    let translations = sum(&|r| r.cores.iter().map(|c| c.translation.requests).sum());
    let l2_accesses = sum(&|r| r.l2.accesses);
    let l2_misses = sum(&|r| r.l2.misses);
    out.push("core.tiles", tiles as f64, "count");
    out.push(
        "core.macs",
        sum(&|r| r.cores.iter().map(|c| c.macs).sum()) as f64,
        "count",
    );
    out.push(
        "core.dma_bursts",
        snapshot.counter(Counter::DmaBursts) as f64,
        "count",
    );
    out.push(
        "core.dma_bytes",
        snapshot.counter(Counter::DmaBytes) as f64,
        "B",
    );
    out.push(
        "core.sram_bank_conflicts",
        snapshot.counter(Counter::SramBankConflicts) as f64,
        "count",
    );
    let first = &plan.points[0].config;
    let mesh_ns = probes::mesh_tile_ns(first.cores[0].accel.dim());
    let translate_ns = probes::translate_ns(first.cores[0].translation, first.mem);
    let access_ns = probes::access_ns(first.mem);
    out.push("core.mesh_tile_ns", mesh_ns, "ns");
    out.push("vm.translations", translations as f64, "count");
    out.push(
        "vm.tlb_hits",
        snapshot.counter(Counter::TlbHits) as f64,
        "count",
    );
    out.push(
        "vm.walks",
        sum(&|r| r.cores.iter().map(|c| c.translation.walks).sum()) as f64,
        "count",
    );
    out.push("vm.translate_ns", translate_ns, "ns");
    out.push("mem.l2_accesses", l2_accesses as f64, "count");
    out.push(
        "mem.l2_miss_rate",
        l2_misses as f64 / l2_accesses.max(1) as f64,
        "frac",
    );
    out.push(
        "mem.dram_line_fills",
        snapshot.counter(Counter::DramLineFills) as f64,
        "count",
    );
    out.push("mem.dram_bytes", sum(&|r| r.dram_bytes) as f64, "B");
    out.push("mem.access_ns", access_ns, "ns");

    // Simulated time: where the cycles went (deterministic).
    let mut attribution = CycleAttribution::new();
    for r in &ok {
        attribution.merge(&r.attribution);
    }
    let buckets = [
        ("compute", attribution.compute),
        ("load", attribution.load),
        ("store", attribution.store),
        ("tlb_stall", attribution.tlb_stall),
        ("bank_conflict", attribution.bank_conflict),
        ("dram", attribution.dram),
        ("idle", attribution.idle),
    ];
    let total_cycles = buckets.iter().map(|(_, c)| c).sum::<u64>().max(1) as f64;
    for (name, cycles) in buckets {
        out.push(
            format!("sim.attr.{name}_frac"),
            cycles as f64 / total_cycles,
            "frac",
        );
    }

    // Modelled host share: events × ns/event against the traced wall.
    // Timing-only points never call the MAC kernel, so only functional
    // tiles are priced.
    let functional = plan.points.iter().all(|p| p.options.functional);
    let core_ms = if functional {
        tiles as f64 * mesh_ns / 1e6
    } else {
        0.0
    };
    let vm_ms = translations as f64 * translate_ns / 1e6;
    let mem_ms = l2_accesses as f64 * access_ns / 1e6;
    out.push("host_model.core_ms", core_ms, "ms");
    out.push("host_model.vm_ms", vm_ms, "ms");
    out.push("host_model.mem_ms", mem_ms, "ms");
    out.push(
        "host_model.unexplained_ms",
        traced_ms - core_ms - vm_ms - mem_ms,
        "ms",
    );

    out.notes.push(format!(
        "{}: seed {}, traced run: {reps} repetition(s) of {} points; per repetition untraced {:.1} ms, traced {traced_ms:.1} ms ({overhead_pct:+.2}%), metered {:.1} ms ({registry_pct:+.2}%); spans in {}",
        cfg.workload.name(),
        cfg.seed,
        plan.points.len(),
        per_rep(totals.untraced),
        per_rep(totals.metered),
        spans_path.display()
    ));
    out.absorb(tally);
    out
}

/// Times `CheckpointWriter::append` per report, `load_quarantining` of the
/// result, and a sweep-executor resume pass served from it.
fn checkpoint_layer(
    plan: &Plan,
    pass: &Pass,
    path: &Path,
    expected: &Expected,
    tally: &mut Tally,
    out: &mut Outcome,
) {
    let mut append_us = Vec::new();
    let written = (|| -> std::io::Result<u64> {
        let writer = CheckpointWriter::create(path)?;
        for (point, run) in plan.points.iter().zip(&pass.fresh) {
            if let Ok(report) = &run.outcome {
                let entry = CheckpointEntry {
                    label: point.label.clone(),
                    fingerprint: point.fingerprint(),
                    wall: run.wall,
                    payload: report.clone(),
                    pruned: None,
                };
                let t = Instant::now();
                writer.append(&entry)?;
                append_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        drop(writer);
        Ok(std::fs::metadata(path)?.len())
    })();
    let bytes = written.unwrap_or_else(|e| {
        tally.record(Err(format!("checkpoint append: {e}")));
        0
    });
    let n = append_us.len();

    let t = Instant::now();
    let loaded = Checkpoint::<SocReport>::load_quarantining(path);
    let load_ms = ms(t.elapsed());
    tally.record(match loaded {
        Ok((c, q)) if c.len() == n && q.lines == 0 => Ok(()),
        Ok((c, q)) => Err(format!(
            "checkpoint load: {} of {n} entries, {} quarantined",
            c.len(),
            q.lines
        )),
        Err(e) => Err(format!("checkpoint load: {e}")),
    });

    let points = plan.points.clone();
    let t = Instant::now();
    let resumed = run_sweep_with(points, sweep_options(path, true));
    let resume_ms = ms(t.elapsed());
    for (i, r) in resumed.iter().enumerate() {
        tally.record(match (&r.outcome, r.cached) {
            (Ok(report), true) => expected.check(i, &r.label, report),
            (Ok(_), false) => Err(format!("{}: resume re-simulated it", r.label)),
            (Err(e), _) => Err(format!("{} (resume): {e}", r.label)),
        });
    }

    out.push(
        "checkpoint.bytes_per_point",
        bytes as f64 / n.max(1) as f64,
        "B",
    );
    out.push("checkpoint.append_us", median(&append_us), "us");
    out.push("checkpoint.load_ms", load_ms, "ms");
    out.push("checkpoint.resume_ms", resume_ms, "ms");
}

/// Runs every point untraced, metered and traced, rotating the order by
/// point and repetition, and checks that all three simulate the same
/// thing. Repeats while another repetition is expected to end before
/// `end` (at least once). Returns the summed times, the repetition count
/// and the last repetition's registry snapshot; spans are kept for the
/// last repetition only.
fn compare_runs(
    plan: &Plan,
    spans: &mut Spans,
    root: usize,
    end: Instant,
    tally: &mut Tally,
) -> (TraceTotals, usize, MetricsSnapshot) {
    let mut totals = TraceTotals::default();
    let mut snapshot = MetricsSnapshot::new();
    let mut reps = 0usize;
    let mut rep_time = Duration::ZERO;
    while reps == 0 || Instant::now() + rep_time < end {
        let rep_start = Instant::now();
        spans.truncate(root + 1);
        let (metrics, registry) = Metrics::enabled();
        for (i, point) in plan.points.iter().enumerate() {
            let (mut untraced, mut metered, mut traced) = (None, None, None);
            for k in 0..3 {
                let t = Instant::now();
                match (reps + i + k) % 3 {
                    0 => {
                        let r = run_networks(&point.config, &point.networks, &point.options);
                        untraced = Some((r, t.elapsed()));
                    }
                    1 => {
                        let r = run_networks_metered(
                            &point.config,
                            &point.networks,
                            &point.options,
                            &metrics,
                        );
                        metered = Some((r, t.elapsed()));
                    }
                    _ => traced = Some(run_traced(point, spans, root)),
                }
            }
            let ((untraced, u_wall), (metered, m_wall)) =
                (untraced.expect("ran above"), metered.expect("ran above"));
            tally.record(match (traced.expect("ran above"), untraced, metered) {
                (Ok(t), Ok(u), Ok(m)) => {
                    totals.add(&t, u_wall, m_wall);
                    t.check_against(&point.label, &u).and_then(|()| {
                        (m == u)
                            .then_some(())
                            .ok_or_else(|| format!("{}: metered report differs", point.label))
                    })
                }
                (Err(e), _, _) => Err(format!("{} (traced): {e}", point.label)),
                (_, Err(e), _) | (_, _, Err(e)) => Err(format!("{}: {e}", point.label)),
            });
        }
        snapshot = registry.snapshot();
        reps += 1;
        rep_time = rep_start.elapsed();
    }
    (totals, reps, snapshot)
}
