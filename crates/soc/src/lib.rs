#![warn(missing_docs)]

//! Full-SoC integration and the multi-level software stack.
//!
//! This crate is where the paper's "full-stack" claim lives: it combines
//! the generated accelerator (`gemmini-core`), the host CPU models
//! (`gemmini-cpu`), virtual memory (`gemmini-vm`) and the shared memory
//! system (`gemmini-mem`) into bootable-SoC-shaped simulations, and layers
//! the software stack on top:
//!
//! * [`tiling`] — the runtime data-staging heuristic (Section III-B):
//!   computes loop tile sizes that maximize scratchpad residency, with a
//!   manual override mirroring the low-level C API.
//! * [`kernel`] — the tuned kernel library: tiled matmul (with either a
//!   materialized A matrix or the on-the-fly im2col block), depthwise
//!   convolution, residual addition, pooling and CPU-side vector ops, all
//!   expressed as resumable state machines so multi-core simulations can
//!   interleave at tile granularity.
//! * [`runtime`] — the push-button flow: takes a [`gemmini_dnn::Network`]
//!   (our ONNX substitute) and executes it layer by layer, choosing
//!   accelerator or CPU per operator exactly as the real stack does.
//! * [`soc`] — SoC configuration: cores (CPU + accelerator + translation
//!   hardware), the shared L2/DRAM, and multi-core construction (Fig. 5).
//! * [`os`] — OS noise: periodic context switches that flush translation
//!   state, reproducing the paper's observation that a real OS perturbs
//!   accelerator state in ways bare-metal runs never see.
//! * [`roofline`] — analytic compute/memory lower bounds used as a
//!   self-check on the timing model (no simulated layer may beat them).
//! * [`run`] — the experiment driver: runs one network per core to
//!   completion and produces the per-layer / per-class / translation /
//!   cache reports every figure of the evaluation consumes.
//! * [`sweep`] — the parallel design-space sweep executor: runs a batch
//!   of named [`soc::SocConfig`] points across a worker pool with
//!   per-point fault isolation and deterministic result ordering; every
//!   figure binary drives its sweep through this.
//! * [`prune`] — attribution-guided sweep pruning: skips grid points
//!   whose dominant cycle bucket the swept axis provably cannot move,
//!   serving the group basis's report as a prediction and recording the
//!   evidence (basis + dominant bucket + axis-insensitivity rule) in the
//!   checkpoint.
//! * [`telemetry`] — live sweep observability: atomic JSON heartbeat
//!   files (`--status`), Prometheus text exposition (`--metrics`), and
//!   the p50-based ETA derivation behind the progress lines and the
//!   supervisor's fleet view.
//! * [`shard`] — sharded multi-process sweeps on top of [`sweep`]:
//!   deterministic `--shard i/N` strided planning, a crash-resilient
//!   supervisor that retries killed *and hung* worker processes from
//!   their checkpoints (heartbeat-staleness watchdog, jittered
//!   exponential backoff), and an exact `--merge` that stitches shard
//!   checkpoint files back into the single-process result.
//! * [`fault`] — deterministic fault injection: a failpoint registry,
//!   armed from a validated `--faults` schedule, threaded through the
//!   checkpoint writer, heartbeat writer and sweep executor, so every
//!   recovery path above is testable on demand (and free when disarmed).
//!
//! # Example
//!
//! ```no_run
//! use gemmini_soc::run::{run_networks, RunOptions};
//! use gemmini_soc::soc::SocConfig;
//! use gemmini_dnn::zoo;
//!
//! let report = run_networks(
//!     &SocConfig::edge_single_core(),
//!     &[zoo::resnet50()],
//!     &RunOptions::timing(),
//! ).expect("run succeeds");
//! println!("ResNet50: {} cycles", report.cores[0].total_cycles);
//! ```

pub mod checkpoint;
pub mod fault;
pub mod kernel;
pub mod os;
pub mod prune;
pub mod roofline;
pub mod run;
pub mod runtime;
pub mod shard;
pub mod soc;
pub mod sweep;
pub mod telemetry;
pub mod tiling;

pub use prune::{Attributed, PruneEvidence, PrunePolicy, PruneSummary};
pub use run::{run_networks, CoreReport, RunOptions, SocReport};
pub use shard::{run_lifecycle, ShardCli, ShardSpec};
pub use soc::{CoreConfig, SocConfig};
pub use sweep::{run_sweep_with, DesignPoint, SweepError, SweepOptions, SweepResult};
pub use tiling::TilePlan;
