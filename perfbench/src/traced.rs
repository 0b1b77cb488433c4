//! The traced run: `run_networks`' min-clock core loop rebuilt from the
//! public pieces, with a host-clock span around initialisation and every
//! kernel step.

use gemmini_core::MemCtx;
use gemmini_dnn::graph::LayerClass;
use gemmini_mem::stats::CycleAttribution;
use gemmini_soc::kernel::{KernelEnv, StepOutcome};
use gemmini_soc::run::SocReport;
use gemmini_soc::runtime::NetworkExecution;
use gemmini_soc::soc::Soc;
use gemmini_soc::sweep::DesignPoint;
use std::borrow::Cow;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// The layer classes the ledger reports, in report order.
pub const CLASSES: [LayerClass; 4] = [
    LayerClass::Conv,
    LayerClass::Matmul,
    LayerClass::ResAdd,
    LayerClass::Pool,
];

/// Index of `class` in [`CLASSES`]; `None` for classes the ledger does
/// not report (their steps count as unattributed time).
pub fn class_index(class: LayerClass) -> Option<usize> {
    CLASSES.iter().position(|&c| c == class)
}

/// One host-clock span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Parent span, `None` for the workload span.
    pub parent: Option<usize>,
    /// `workload`, `point`, `init`, `layer` or `step`.
    pub kind: &'static str,
    /// Workload, point or layer name; the layer class for steps.
    pub name: Cow<'static, str>,
    /// Start, in ns since the trace began.
    pub start_ns: u64,
    /// End, in ns since the trace began.
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends; a span's id is its index.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        u64::try_from((t - self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        kind: &'static str,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let span = Span {
            parent,
            kind,
            name: name.into(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Opens a span now; [`close`](Self::close) sets its end.
    pub fn open(
        &mut self,
        parent: Option<usize>,
        kind: &'static str,
        name: impl Into<Cow<'static, str>>,
    ) -> usize {
        let now = Instant::now();
        self.record(parent, kind, name, now, now)
    }

    /// Ends span `id` at `at`.
    pub fn close(&mut self, id: usize, at: Instant) {
        self.spans[id].end_ns = self.ns(at);
    }

    /// Keeps the first `len` spans, dropping the rest.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"kind\":\"{}\",\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.kind,
                gemmini_mem::json::Json::from(s.name.as_ref()).encode(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What one traced point measured.
#[derive(Debug, Clone)]
pub struct TracedPoint {
    /// Host time of the whole point.
    pub wall: Duration,
    /// Host time of `Soc::new` and every core's `NetworkExecution::new`.
    pub init: Duration,
    /// Host time in `step` calls, by [`CLASSES`] index.
    pub class_self: [Duration; CLASSES.len()],
    /// `step` calls, by [`CLASSES`] index.
    pub class_steps: [u64; CLASSES.len()],
    /// Host time in `step` calls of every class, reported or not.
    pub step_time: Duration,
    /// What each core simulated.
    pub cores: Vec<TracedCore>,
}

/// What one core of a traced point simulated.
#[derive(Debug, Clone)]
pub struct TracedCore {
    /// Cycles from start to the last layer's completion.
    pub total_cycles: u64,
    /// Per layer: name, class and cycles.
    pub layers: Vec<(String, LayerClass, u64)>,
    /// Where every simulated cycle went.
    pub attribution: CycleAttribution,
}

impl TracedPoint {
    /// Checks that the traced run simulated exactly what `report` says.
    ///
    /// # Errors
    ///
    /// Describes the first difference in total cycles, per-layer cycles
    /// or attribution.
    pub fn check_against(&self, label: &str, report: &SocReport) -> Result<(), String> {
        if self.cores.len() != report.cores.len() {
            return Err(format!("{label}: traced run has a different core count"));
        }
        for (i, (traced, core)) in self.cores.iter().zip(&report.cores).enumerate() {
            if traced.total_cycles != core.total_cycles {
                return Err(format!(
                    "{label}: core {i} traced {} cycles, untraced {}",
                    traced.total_cycles, core.total_cycles
                ));
            }
            let untraced = core.layers.iter().map(|l| (&l.name, l.class, l.cycles));
            if !traced
                .layers
                .iter()
                .map(|(n, c, y)| (n, *c, *y))
                .eq(untraced)
            {
                return Err(format!("{label}: core {i} per-layer cycles differ"));
            }
            if traced.attribution != core.attribution {
                return Err(format!("{label}: core {i} cycle attribution differs"));
            }
        }
        Ok(())
    }
}

/// Runs one point like `run_networks` does, timing each phase and
/// recording spans under `parent`.
///
/// # Errors
///
/// Propagates the first accelerator error, as `run_networks` does.
///
/// # Panics
///
/// Panics on a point with OS noise: the loop leaves OS events out, so
/// it would not simulate what `run_networks` does.
pub fn run_traced(
    point: &DesignPoint,
    spans: &mut Spans,
    parent: usize,
) -> Result<TracedPoint, String> {
    assert!(
        point.config.os.context_switch_interval.is_none(),
        "{}: the traced loop models bare-metal points only",
        point.label
    );
    let start = Instant::now();
    let point_span = spans.record(Some(parent), "point", point.label.clone(), start, start);
    let mut soc = Soc::new(&point.config, point.options.functional);
    let Soc {
        cores,
        mem,
        data,
        frames,
    } = &mut soc;
    let mut execs: Vec<NetworkExecution> = cores
        .iter_mut()
        .zip(&point.networks)
        .map(|(core, net)| {
            NetworkExecution::new(
                net.clone(),
                core.accel.config().clone(),
                &mut core.space,
                frames,
                data.as_mut(),
                point.options.seed.wrapping_add(core.id as u64),
            )
        })
        .collect();
    let init_end = Instant::now();
    spans.record(Some(point_span), "init", "init", start, init_end);

    let mut class_self = [Duration::ZERO; CLASSES.len()];
    let mut class_steps = [0u64; CLASSES.len()];
    let mut step_time = Duration::ZERO;
    let mut open_layer: Vec<Option<(usize, usize)>> = vec![None; cores.len()];
    let mut finished = vec![false; cores.len()];
    while let Some(idx) = (0..cores.len())
        .filter(|&i| !finished[i])
        .min_by_key(|&i| cores[i].accel.now())
    {
        let exec = &mut execs[idx];
        let layer = exec.timings().len();
        let nl = &exec.network().layers()[layer];
        let class = nl.layer.class();
        let layer_span = match open_layer[idx] {
            Some((l, id)) if l == layer => id,
            _ => {
                let id = spans.open(Some(point_span), "layer", nl.name.clone());
                open_layer[idx] = Some((layer, id));
                id
            }
        };
        let core = &mut cores[idx];
        let mut env = KernelEnv {
            accel: &mut core.accel,
            cpu: &core.cpu,
            ctx: MemCtx {
                space: &core.space,
                translation: &mut core.translation,
                mem,
                data: data.as_mut(),
                port: core.id,
            },
        };
        let t0 = Instant::now();
        let outcome = exec.step(&mut env).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let class_name = class_label(class);
        spans.record(Some(layer_span), "step", class_name, t0, t1);
        step_time += t1 - t0;
        if let Some(c) = class_index(class) {
            class_self[c] += t1 - t0;
            class_steps[c] += 1;
        }
        if exec.timings().len() > layer {
            spans.close(layer_span, t1);
            open_layer[idx] = None;
        }
        if outcome == StepOutcome::Done {
            finished[idx] = true;
        }
    }

    let cores = cores
        .iter()
        .zip(&execs)
        .map(|(core, exec)| {
            let layers = exec
                .timings()
                .iter()
                .map(|t| (t.name.clone(), t.class, t.cycles()))
                .collect();
            TracedCore {
                total_cycles: core.accel.stats().finish,
                layers,
                attribution: core.accel.attribution(),
            }
        })
        .collect();
    let end = Instant::now();
    spans.close(point_span, end);
    Ok(TracedPoint {
        wall: end - start,
        init: init_end - start,
        class_self,
        class_steps,
        step_time,
        cores,
    })
}

/// The class's name in metric names and spans.
pub fn class_label(class: LayerClass) -> &'static str {
    match class {
        LayerClass::Conv => "conv",
        LayerClass::Matmul => "matmul",
        LayerClass::ResAdd => "resadd",
        LayerClass::Pool => "pool",
        LayerClass::Norm => "norm",
    }
}
