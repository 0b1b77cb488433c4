//! One untraced pass of a workload through the public entry points, and
//! the gates that check its results.

use crate::gates::{check_digest, check_output};
use crate::workload::{Mode, Plan, Workload, WORKERS};
use gemmini_soc::run::{run_networks, SocReport};
use gemmini_soc::runtime::reference_forward;
use gemmini_soc::sweep::{run_sweep_with, SweepOptions, SweepResult};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

/// One point's outcome in one pass.
#[derive(Debug, Clone)]
pub struct PointRun {
    /// The point's label.
    pub label: String,
    /// The report, or why the point failed.
    pub outcome: Result<SocReport, String>,
    /// Host time the point took (as the sweep executor measured it).
    pub wall: Duration,
    /// Whether the point was served from a checkpoint.
    pub cached: bool,
}

impl From<SweepResult<SocReport>> for PointRun {
    fn from(r: SweepResult<SocReport>) -> Self {
        Self {
            label: r.label,
            outcome: r.outcome.map_err(|e| e.to_string()),
            wall: r.wall,
            cached: r.cached,
        }
    }
}

/// One pass of a workload's simulation phase.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host time of the whole phase, resume pass included.
    pub wall: Duration,
    /// Host time of the resume pass alone (zero without one).
    pub resume_wall: Duration,
    /// The simulated points, in submission order.
    pub fresh: Vec<PointRun>,
    /// The resume pass's points (empty without one).
    pub resumed: Vec<PointRun>,
}

impl Pass {
    /// Simulated cycles of the points run, summed over every core.
    pub fn sim_cycles(&self) -> u64 {
        self.fresh
            .iter()
            .filter_map(|r| r.outcome.as_ref().ok())
            .flat_map(|rep| rep.cores.iter().map(|c| c.total_cycles))
            .sum()
    }
}

/// Sweep options for the benchmark: fixed workers, no progress lines.
pub fn sweep_options(checkpoint: &Path, resume: bool) -> SweepOptions {
    SweepOptions {
        threads: WORKERS,
        progress: false,
        ..SweepOptions::checkpointed(checkpoint, resume)
    }
}

/// Runs the workload's simulation phase once. Sweeps write `checkpoint`
/// afresh.
pub fn run_pass(plan: &Plan, checkpoint: &Path) -> Pass {
    match plan.mode {
        Mode::Sweep { resume } => {
            let fresh_points = plan.points.clone();
            let resume_points = plan.points.clone();
            let start = Instant::now();
            let fresh = run_sweep_with(fresh_points, sweep_options(checkpoint, false));
            let resume_start = Instant::now();
            let resumed = if resume {
                run_sweep_with(resume_points, sweep_options(checkpoint, true))
            } else {
                Vec::new()
            };
            let end = Instant::now();
            Pass {
                wall: end - start,
                resume_wall: end - resume_start,
                fresh: fresh.into_iter().map(PointRun::from).collect(),
                resumed: resumed.into_iter().map(PointRun::from).collect(),
            }
        }
        Mode::Serial => {
            let start = Instant::now();
            let fresh = plan
                .points
                .iter()
                .map(|p| {
                    let t = Instant::now();
                    // A panicking point is a failed operation, as it is
                    // in the sweep executor, not the end of the run.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        run_networks(&p.config, &p.networks, &p.options)
                    }))
                    .map_err(|panic| panic_message(panic.as_ref()))
                    .and_then(|r| r.map_err(|e| e.to_string()));
                    PointRun {
                        label: p.label.clone(),
                        outcome,
                        wall: t.elapsed(),
                        cached: false,
                    }
                })
                .collect();
            Pass {
                wall: start.elapsed(),
                resume_wall: Duration::ZERO,
                fresh,
                resumed: Vec::new(),
            }
        }
    }
}

fn panic_message(panic: &(dyn Any + Send)) -> String {
    let msg = panic
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| panic.downcast_ref::<&str>().copied())
        .unwrap_or("non-string panic payload");
    format!("panicked: {msg}")
}

/// Checked operations and the failures among them.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations checked.
    pub attempted: u64,
    /// One message per failed operation.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one checked operation.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failures.push(e);
        }
    }
}

/// The expected results of a workload: recorded digests for timing
/// points, reference-model outputs for functional ones.
#[derive(Debug)]
pub struct Expected {
    digests: &'static [(&'static str, u64)],
    references: Vec<Vec<i8>>,
}

impl Expected {
    /// Prepares the expected results; for functional points this runs
    /// the reference model, so call it outside any timed region.
    pub fn new(workload: Workload, plan: &Plan, smoke: bool) -> Self {
        let references = match plan.mode {
            Mode::Serial => plan
                .points
                .iter()
                .map(|p| reference_forward(&p.networks[0], p.options.seed))
                .collect(),
            Mode::Sweep { .. } => Vec::new(),
        };
        Self {
            digests: workload.expected_digests(smoke),
            references,
        }
    }

    /// Checks one report of point `index`.
    ///
    /// # Errors
    ///
    /// Describes the mismatch.
    pub fn check(&self, index: usize, label: &str, report: &SocReport) -> Result<(), String> {
        match self.references.get(index) {
            Some(reference) => check_output(label, report, reference),
            None => check_digest(self.digests, label, report),
        }
    }

    /// Gates every point of a pass: fresh points must simulate and match,
    /// resumed points must come from the checkpoint and match too.
    pub fn check_pass(&self, pass: &Pass, tally: &mut Tally) {
        for (i, run) in pass.fresh.iter().enumerate() {
            tally.record(match &run.outcome {
                Err(e) => Err(format!("{}: {e}", run.label)),
                Ok(_) if run.cached => {
                    Err(format!("{}: served from a stale checkpoint", run.label))
                }
                Ok(report) => self.check(i, &run.label, report),
            });
        }
        for (i, run) in pass.resumed.iter().enumerate() {
            tally.record(match &run.outcome {
                Err(e) => Err(format!("{} (resume): {e}", run.label)),
                Ok(_) if !run.cached => Err(format!("{}: resume re-simulated it", run.label)),
                Ok(report) => self.check(i, &run.label, report),
            });
        }
    }
}
