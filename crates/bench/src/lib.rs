//! Shared helpers for the figure/table regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation (see `DESIGN.md`'s per-experiment index). This library holds
//! the bits they share: simple table/series printing, the command-line
//! front end ([`cli`]: `--quick` runs a scaled-down workload so the binary
//! finishes in seconds; the default reproduces the full experiment), and
//! the sweep entry points [`Cli::sharded_sweep`] and
//! [`Cli::sharded_sweep_map`].

use std::path::{Path, PathBuf};
use std::process::Command;

use gemmini_core::metrics::Metrics;
use gemmini_core::trace::{export_chrome_trace, Tracer};
use gemmini_core::AccelError;
use gemmini_dnn::graph::{Activation, Layer, Network, PoolKind};
use gemmini_mem::json::{FromJson, Json, ToJson};
use gemmini_soc::fault;
use gemmini_soc::prune::{Attributed, PrunePolicy};
use gemmini_soc::run::{
    run_networks, run_networks_metered, run_networks_traced, RunOptions, SocReport,
};
use gemmini_soc::shard::{run_lifecycle, ShardCli};
use gemmini_soc::SocConfig;

pub mod cli;
pub mod figures;

pub use cli::Cli;

/// The shared design-space sweep executor (re-exported so the figure
/// binaries have one import path for both printing helpers and sweeps).
pub use gemmini_soc::shard;
pub use gemmini_soc::sweep;
pub use gemmini_soc::sweep::{DesignPoint, SweepOptions, SweepResult};

/// Prints a named section header.
pub fn section(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints a two-column table of (label, value) rows.
pub fn table2(header: (&str, &str), rows: &[(String, String)]) {
    let w = rows
        .iter()
        .map(|(a, _)| a.len())
        .chain([header.0.len()])
        .max()
        .unwrap_or(10)
        + 2;
    println!("{:<w$} {}", header.0, header.1);
    println!("{}", "-".repeat(w + header.1.len() + 8));
    for (a, b) in rows {
        println!("{a:<w$} {b}");
    }
}

/// Renders a horizontal ASCII bar of `value` relative to `max`.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    if max <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round().max(0.0) as usize;
    "#".repeat(n.min(width))
}

/// The status base the watchdog falls back to when `--watchdog` is given
/// without `--status`: `sweep.jsonl` → `sweep.status.json` next to the
/// checkpoint. Workers and the supervisor both derive this from the
/// same `--json`/`--watchdog` flags, so they agree on where the
/// heartbeats live without any extra plumbing.
fn derived_status_path(json: &Path) -> PathBuf {
    let stem = json.file_stem().and_then(|s| s.to_str()).unwrap_or("sweep");
    json.with_file_name(format!("{stem}.status.json"))
}

/// Re-runs one design point in timing mode with a buffered tracer and
/// writes the collected events to `path` as Chrome `trace_event` JSON —
/// the shared implementation behind every figure binary's `--trace`.
///
/// # Panics
///
/// Panics if the simulation fails or the file cannot be written — a run
/// asked to produce a trace must not silently drop it.
pub fn export_trace_run(path: &Path, label: &str, config: &SocConfig, nets: &[Network]) {
    let (tracer, sink) = Tracer::buffered();
    run_networks_traced(config, nets, &RunOptions::timing(), &tracer).expect("trace run succeeds");
    let events = sink.lock().expect("trace sink lock").take();
    export_chrome_trace(path, &events)
        .unwrap_or_else(|e| panic!("cannot write trace {}: {e}", path.display()));
    eprintln!(
        "trace: wrote {} events for '{label}' to {}",
        events.len(),
        path.display()
    );
}

impl Cli {
    /// The sweep options these flags select: `--json` wires the
    /// checkpoint, `--resume` the skip-completed mode, `--prune`
    /// activates `policy` (warning when the binary has none, in which
    /// case every point still runs), and `--status`/`--metrics` enable
    /// one live-metrics registry shared by the executor and every
    /// simulated point.
    fn sweep_options(&self, policy: Option<PrunePolicy>) -> SweepOptions {
        if self.resume && self.json.is_none() {
            eprintln!("warning: --resume has no effect without --json <path>");
        }
        if self.prune && policy.is_none() {
            eprintln!(
                "warning: --prune: no axis-insensitivity rule for this sweep's grid; \
                 running every point"
            );
        }
        let mut status = self.status.clone();
        if self.watchdog.is_some() && status.is_none() {
            // The watchdog reads worker heartbeats; without --status it
            // derives a status base from the checkpoint path (sharded
            // runs always have one). Workers derive the same base from
            // the same flags.
            status = self.json.as_deref().map(derived_status_path);
            if let Some(path) = &status {
                eprintln!(
                    "watchdog: no --status given; deriving heartbeat base {}",
                    path.display()
                );
            }
        }
        let metrics = if self.status.is_some() || self.metrics.is_some() {
            Metrics::enabled().0
        } else {
            Metrics::disabled()
        };
        SweepOptions {
            checkpoint: self.json.clone(),
            resume: self.resume,
            prune: policy.filter(|_| self.prune),
            metrics,
            status,
            prometheus: self.metrics.clone(),
            point_timeout: self.point_timeout,
            watchdog: self.watchdog,
            ..SweepOptions::default()
        }
    }

    /// The sweep entry point of every binary with its own per-point
    /// work: runs `items` — `(label, fingerprint, item)` triples — under
    /// this command line's shard mode, checkpoint, telemetry, fault and
    /// prune flags (`policy` takes effect only under `--prune`).
    ///
    /// Returns `None` when this process was a shard worker (`--shard`):
    /// its job was producing the shard checkpoint file, there is nothing
    /// to render, and `main` should simply return. In every other mode
    /// the full-grid results come back in submission order.
    ///
    /// Exits the process instead with the non-zero code the sweep's
    /// lifecycle ([`run_lifecycle`]) settles on: `1` when a point is
    /// missing, stale, unpersisted or failed in execution, or the
    /// supervisor gave up — the non-zero exit is what tells a supervisor
    /// to retry this worker — and `3` when the grid is complete but
    /// carries recorded point failures (e.g. `--point-timeout` entries),
    /// which retrying would not improve.
    pub fn sharded_sweep_map<I, T, F>(
        &self,
        items: Vec<(String, u64, I)>,
        policy: Option<PrunePolicy>,
        f: F,
    ) -> Option<Vec<SweepResult<T>>>
    where
        I: Send,
        T: ToJson + FromJson + Clone + Attributed + Send,
        F: Fn(I) -> Result<T, AccelError> + Sync,
    {
        self.run_grid(items, self.sweep_options(policy), f)
    }

    /// [`Cli::sharded_sweep_map`] for [`DesignPoint`] grids: each point
    /// is simulated with the sweep's live-metrics handle attached.
    pub fn sharded_sweep(
        &self,
        points: Vec<DesignPoint>,
        policy: Option<PrunePolicy>,
    ) -> Option<Vec<SweepResult<SocReport>>> {
        let items = points
            .into_iter()
            .map(|p| (p.label.clone(), p.fingerprint(), p))
            .collect();
        let opts = self.sweep_options(policy);
        let metrics = opts.metrics.clone();
        self.run_grid(items, opts, move |p: DesignPoint| {
            run_networks_metered(&p.config, &p.networks, &p.options, &metrics)
        })
    }

    fn run_grid<I, T, F>(
        &self,
        items: Vec<(String, u64, I)>,
        opts: SweepOptions,
        f: F,
    ) -> Option<Vec<SweepResult<T>>>
    where
        I: Send,
        T: ToJson + FromJson + Clone + Attributed + Send,
        F: Fn(I) -> Result<T, AccelError> + Sync,
    {
        if let Some(schedule) = &self.faults {
            let shard = match self.mode {
                ShardCli::Shard(spec) => Some(spec.index),
                _ => None,
            };
            fault::arm(schedule, shard);
        }
        // A shard worker is this binary again, with the argv rendered
        // from this command line in `--shard i/N --resume` mode.
        let exe = std::env::current_exe().expect("current executable path");
        let worker = |spec| {
            let mut cmd = Command::new(&exe);
            cmd.args(self.worker_args(spec));
            cmd
        };
        run_lifecycle(items, &self.mode, opts, worker, f)
            .unwrap_or_else(|code| std::process::exit(code))
    }
}

/// Writes one JSON document as a single line to `path` (the non-sweep
/// figures' `--json` output; sweep binaries persist per-point lines via
/// the checkpoint instead).
///
/// # Panics
///
/// Panics if the file cannot be written — a figure run asked to persist
/// results must not silently drop them.
pub fn write_json_doc(path: &Path, doc: &Json) {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", parent.display()));
        }
    }
    std::fs::write(path, format!("{}\n", doc.encode()))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// Runs the quick ResNet-style workload on `cfg` in timing mode — the
/// shared helper behind the shape tests and quick-mode figure paths.
///
/// # Panics
///
/// Panics if the simulation reports an accelerator error.
pub fn run_quick(cfg: &SocConfig) -> SocReport {
    run_networks(cfg, &[quick_resnet()], &RunOptions::timing()).expect("quick run succeeds")
}

/// The ResNet-class workload: full ResNet50, or the reduced
/// [`quick_resnet`] when `quick` (`--quick`).
pub fn resnet_workload(quick: bool) -> Network {
    if quick {
        quick_resnet()
    } else {
        gemmini_dnn::zoo::resnet50()
    }
}

/// A reduced-resolution ResNet-style network for `--quick` runs: the same
/// layer mix (conv / matmul / residual-add / pool) at 32×32 so a full
/// simulated inference takes seconds instead of minutes.
pub fn quick_resnet() -> Network {
    let mut net = Network::new("resnet_quick");
    net.push(
        "conv1",
        Layer::Conv {
            in_channels: 3,
            out_channels: 32,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_hw: (32, 32),
            activation: Activation::Relu,
        },
    );
    net.push(
        "pool1",
        Layer::Pool {
            kind: PoolKind::Max,
            size: 2,
            stride: 2,
            padding: 0,
            channels: 32,
            in_hw: (32, 32),
        },
    );
    let mut hw = 16;
    let mut ch = 32;
    for stage in 0..3 {
        let out = ch * 2;
        for b in 0..2 {
            let stride = if b == 0 && stage > 0 { 2 } else { 1 };
            let out_hw = hw / stride;
            net.push(
                format!("s{stage}b{b}_a"),
                Layer::Conv {
                    in_channels: ch,
                    out_channels: out,
                    kernel: 3,
                    stride,
                    padding: 1,
                    in_hw: (hw, hw),
                    activation: Activation::Relu,
                },
            );
            net.push(
                format!("s{stage}b{b}_b"),
                Layer::Conv {
                    in_channels: out,
                    out_channels: out,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    in_hw: (out_hw, out_hw),
                    activation: Activation::None,
                },
            );
            if b == 0 {
                net.push(
                    format!("s{stage}b{b}_proj"),
                    Layer::Conv {
                        in_channels: ch,
                        out_channels: out,
                        kernel: 1,
                        stride,
                        padding: 0,
                        in_hw: (hw, hw),
                        activation: Activation::None,
                    },
                );
            }
            net.push(
                format!("s{stage}b{b}_add"),
                Layer::ResAdd {
                    elements: out * out_hw * out_hw,
                },
            );
            hw = out_hw;
            ch = out;
        }
    }
    net.push(
        "fc",
        Layer::Matmul {
            m: 1,
            k: ch * hw * hw,
            n: 10,
            activation: Activation::None,
        },
    );
    net
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemmini_dnn::graph::LayerClass;

    #[test]
    fn quick_resnet_has_all_classes() {
        let net = quick_resnet();
        assert!(net.count_of_class(LayerClass::Conv) > 5);
        assert!(net.count_of_class(LayerClass::ResAdd) >= 6);
        assert_eq!(net.count_of_class(LayerClass::Matmul), 1);
        assert!(net.total_macs() < 200_000_000);
    }

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(10.0, 10.0, 10), "##########");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(1.0, 0.0, 10), "");
    }
}
