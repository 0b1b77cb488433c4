//! Per-operation CPU cycle costs.
//!
//! Calibration anchors (documented per constant) come from Fig. 7:
//! ResNet50 at 2,670× over Rocket / 1,130× over BOOM with the accelerator
//! at 22.8 FPS @ 1 GHz, plus the ≈2.0× end-to-end effect of BOOM when the
//! CPU performs im2col.

use gemmini_dnn::graph::Layer;

/// Which host core the model represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CpuKind {
    /// Low-power, in-order, single-issue Rocket.
    Rocket,
    /// High-performance, out-of-order BOOM.
    Boom,
}

impl CpuKind {
    /// Throughput multiple over Rocket.
    ///
    /// Calibrated to Fig. 7: 2,670 / 1,130 ≈ 2.36 (the paper's text quotes
    /// "2.0x across all CNNs" for the end-to-end im2col-on-CPU effect,
    /// which this multiple reproduces once the accelerator fraction is
    /// added back in).
    pub fn speedup_over_rocket(self) -> f64 {
        match self {
            Self::Rocket => 1.0,
            Self::Boom => 2.36,
        }
    }
}

/// Rocket-calibrated per-operation costs (cycles). BOOM divides each by its
/// IPC multiple.
///
/// All constants model a *straightforward scalar baseline* — the paper's
/// CPU baseline is an un-tuned port, not a hand-vectorized BLAS.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuCosts {
    /// Cycles per convolution MAC (nested-loop direct convolution with its
    /// poor locality; calibrated so ResNet50 lands at ≈2,670× the
    /// accelerator's 43.9 M cycles).
    pub conv_cycles_per_mac: f64,
    /// Cycles per matmul MAC (tight three-loop GEMM: two loads, MAC, index
    /// arithmetic on a single-issue core).
    pub matmul_cycles_per_mac: f64,
    /// Cycles per residual-add element (two loads, add, store).
    pub resadd_cycles_per_elem: f64,
    /// Cycles per pooling *window element* (compare/accumulate per element
    /// in each window).
    pub pool_cycles_per_window_elem: f64,
    /// Cycles per softmax element (exp + normalize, scalar).
    pub softmax_cycles_per_elem: f64,
    /// Cycles per layer-norm element (two passes + scale).
    pub layernorm_cycles_per_elem: f64,
    /// Cycles per im2col element (gather + store with index arithmetic and
    /// cache-unfriendly strides; calibrated so the BOOM-vs-Rocket
    /// end-to-end effect with CPU-side im2col lands at the paper's ≈2.0x).
    pub im2col_cycles_per_elem: f64,
    /// Cycles to take and return from a context switch (used by the OS
    /// noise model).
    pub context_switch_cycles: u64,
}

impl Default for CpuCosts {
    fn default() -> Self {
        Self {
            conv_cycles_per_mac: 28.0,
            matmul_cycles_per_mac: 3.0,
            resadd_cycles_per_elem: 4.0,
            pool_cycles_per_window_elem: 2.0,
            softmax_cycles_per_elem: 25.0,
            layernorm_cycles_per_elem: 10.0,
            im2col_cycles_per_elem: 11.5,
            context_switch_cycles: 5_000,
        }
    }
}

/// A host-CPU timing model.
///
/// # Example
///
/// ```
/// use gemmini_cpu::model::{CpuKind, CpuModel};
/// use gemmini_dnn::graph::{Layer, Activation};
/// let m = CpuModel::new(CpuKind::Rocket);
/// let fc = Layer::Matmul { m: 1, k: 1024, n: 1000, activation: Activation::None };
/// assert!(m.layer_cycles(&fc) > 1024 * 1000); // ≥1 cycle per MAC
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    kind: CpuKind,
    costs: CpuCosts,
}

impl CpuModel {
    /// A model with the default (calibrated) cost table.
    pub fn new(kind: CpuKind) -> Self {
        Self {
            kind,
            costs: CpuCosts::default(),
        }
    }

    /// A model with custom costs (for sensitivity studies).
    pub fn with_costs(kind: CpuKind, costs: CpuCosts) -> Self {
        Self { kind, costs }
    }

    /// Which core this models.
    pub fn kind(&self) -> CpuKind {
        self.kind
    }

    /// The underlying cost table.
    pub fn costs(&self) -> &CpuCosts {
        &self.costs
    }

    #[inline]
    fn scale(&self, rocket_cycles: f64) -> u64 {
        (rocket_cycles / self.kind.speedup_over_rocket()).ceil() as u64
    }

    /// Cycles for this CPU to execute `layer` entirely in software.
    pub fn layer_cycles(&self, layer: &Layer) -> u64 {
        let c = &self.costs;
        let rocket = match layer {
            Layer::Conv { .. } | Layer::DwConv { .. } => {
                layer.macs() as f64 * c.conv_cycles_per_mac
            }
            Layer::Matmul { .. } => layer.macs() as f64 * c.matmul_cycles_per_mac,
            Layer::ResAdd { elements } => *elements as f64 * c.resadd_cycles_per_elem,
            Layer::Pool { size, .. } => {
                let outs = layer.output_bytes() as f64;
                outs * (size * size) as f64 * c.pool_cycles_per_window_elem
            }
            Layer::Softmax { rows, cols } => (rows * cols) as f64 * c.softmax_cycles_per_elem,
            Layer::LayerNorm { rows, cols } => (rows * cols) as f64 * c.layernorm_cycles_per_elem,
        };
        self.scale(rocket)
    }

    /// Cycles for this CPU to perform im2col for a convolution layer
    /// (zero for anything else).
    pub fn im2col_cycles(&self, layer: &Layer) -> u64 {
        let elems = match layer {
            Layer::Conv {
                in_channels,
                kernel,
                ..
            } => {
                let (oh, ow) = layer.out_hw().expect("conv has spatial output");
                (oh * ow * kernel * kernel * in_channels) as f64
            }
            Layer::DwConv {
                channels, kernel, ..
            } => {
                let (oh, ow) = layer.out_hw().expect("dwconv has spatial output");
                (oh * ow * kernel * kernel * channels) as f64
            }
            _ => return 0,
        };
        self.scale(elems * self.costs.im2col_cycles_per_elem)
    }

    /// Cost of one OS context switch on this core.
    pub fn context_switch_cycles(&self) -> u64 {
        self.scale(self.costs.context_switch_cycles as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gemmini_dnn::graph::{Activation, PoolKind};

    fn conv_layer() -> Layer {
        Layer::Conv {
            in_channels: 64,
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_hw: (56, 56),
            activation: Activation::Relu,
        }
    }

    #[test]
    fn boom_is_uniformly_faster() {
        let rocket = CpuModel::new(CpuKind::Rocket);
        let boom = CpuModel::new(CpuKind::Boom);
        let l = conv_layer();
        let ratio = rocket.layer_cycles(&l) as f64 / boom.layer_cycles(&l) as f64;
        assert!((ratio - 2.36).abs() < 0.01);
        assert!(boom.context_switch_cycles() < rocket.context_switch_cycles());
    }

    #[test]
    fn conv_is_much_more_expensive_per_mac_than_matmul() {
        let m = CpuModel::new(CpuKind::Rocket);
        let conv = conv_layer();
        let mm = Layer::Matmul {
            m: 56 * 56,
            k: 64 * 9,
            n: 64,
            activation: Activation::None,
        };
        assert_eq!(conv.macs(), mm.macs());
        assert!(m.layer_cycles(&conv) > 5 * m.layer_cycles(&mm));
    }

    #[test]
    fn im2col_cost_scales_with_patch_volume() {
        let m = CpuModel::new(CpuKind::Rocket);
        let c = conv_layer();
        // 56*56 outputs * 9 * 64 channels * 11.5 cycles.
        assert_eq!(
            m.im2col_cycles(&c),
            (56.0 * 56.0 * 9.0 * 64.0 * 11.5f64).ceil() as u64
        );
        // Non-conv layers have no im2col.
        assert_eq!(m.im2col_cycles(&Layer::ResAdd { elements: 100 }), 0);
    }

    #[test]
    fn pool_cost_counts_window_elements() {
        let m = CpuModel::new(CpuKind::Rocket);
        let p = Layer::Pool {
            kind: PoolKind::Max,
            size: 2,
            stride: 2,
            padding: 0,
            channels: 1,
            in_hw: (4, 4),
        };
        // 4 outputs * 4 window elems * 2 cycles.
        assert_eq!(m.layer_cycles(&p), 32);
    }

    #[test]
    fn custom_costs_are_respected() {
        let costs = CpuCosts {
            matmul_cycles_per_mac: 10.0,
            ..CpuCosts::default()
        };
        let m = CpuModel::with_costs(CpuKind::Rocket, costs);
        let mm = Layer::Matmul {
            m: 10,
            k: 10,
            n: 10,
            activation: Activation::None,
        };
        assert_eq!(m.layer_cycles(&mm), 10_000);
    }
}
