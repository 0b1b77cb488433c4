//! The three figure workloads: their design points, their paper anchors
//! and the report digests every simulated point must reproduce.

use gemmini_bench::figures::fig7_points;
use gemmini_bench::quick_resnet;
use gemmini_cpu::kernels::network_cpu_cycles;
use gemmini_cpu::{CpuKind, CpuModel};
use gemmini_dnn::graph::Network;
use gemmini_dnn::zoo;
use gemmini_soc::run::{RunOptions, SocReport};
use gemmini_soc::sweep::DesignPoint;
use gemmini_soc::SocConfig;

/// Sweep worker count, fixed so the ledger does not depend on the host's
/// core count.
pub const WORKERS: usize = 2;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig. 7 host × im2col grid over four CNNs, checkpointed then resumed.
    Fig7Cnn,
    /// Fig. 9 memory-partition grid on ResNet50, one and two cores.
    Fig9Partition,
    /// Functional AlexNet and MobileNetV2, checked against the reference.
    FunctionalCnn,
}

/// How a workload drives its points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One checkpointed sweep over [`WORKERS`] workers; with `resume`, a
    /// second pass then serves every point from the checkpoint.
    Sweep {
        /// Whether the resume pass runs.
        resume: bool,
    },
    /// One `run_networks` call per point, in order.
    Serial,
}

/// Everything a workload needs before its first simulation call.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The design points, in submission order.
    pub points: Vec<DesignPoint>,
    /// How the points are driven.
    pub mode: Mode,
}

/// A simulated quantity compared against a number from the paper.
#[derive(Debug, Clone, Copy)]
pub enum Quantity {
    /// Frames per second of a point at 1 GHz.
    Fps(usize),
    /// A CPU-only baseline's cycles over a point's cycles.
    SpeedupVsCpu(usize, CpuKind),
    /// One point's cycles over another's.
    CycleRatio(usize, usize),
}

/// One paper anchor behind `paper_err_pct`.
#[derive(Debug, Clone, Copy)]
pub struct Anchor {
    /// What is compared.
    pub what: &'static str,
    /// The paper's value.
    pub paper: f64,
    /// The EXPERIMENTS.md row the value is taken from.
    pub source: &'static str,
    /// How the simulated value is derived from the workload's reports.
    pub quantity: Quantity,
}

const FIG7_ROW_TABLE: &str = "EXPERIMENTS.md, Fig. 7 table";
const FIG9_ROW_TABLE: &str = "EXPERIMENTS.md, Fig. 9 table";

// Fig. 7 point index = 4 * network + variant; variant 2 is the paper's
// configuration (Rocket host, im2col on the accelerator).
const FIG7_ANCHORS: [Anchor; 9] = [
    Anchor {
        what: "ResNet50 speedup vs Rocket",
        paper: 2670.0,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::SpeedupVsCpu(2, CpuKind::Rocket),
    },
    Anchor {
        what: "ResNet50 speedup vs BOOM",
        paper: 1130.0,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::SpeedupVsCpu(2, CpuKind::Boom),
    },
    Anchor {
        what: "ResNet50 FPS",
        paper: 22.8,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::Fps(2),
    },
    Anchor {
        what: "BOOM-vs-Rocket host effect, im2col on CPU (ResNet50)",
        paper: 2.0,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::CycleRatio(0, 1),
    },
    Anchor {
        what: "host effect with on-accel im2col (ResNet50)",
        paper: 1.0,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::CycleRatio(2, 3),
    },
    Anchor {
        what: "AlexNet FPS",
        paper: 79.3,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::Fps(6),
    },
    Anchor {
        what: "SqueezeNet v1.1 speedup",
        paper: 1760.0,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::SpeedupVsCpu(10, CpuKind::Rocket),
    },
    Anchor {
        what: "MobileNetV2 speedup",
        paper: 127.0,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::SpeedupVsCpu(14, CpuKind::Rocket),
    },
    Anchor {
        what: "MobileNetV2 FPS",
        paper: 18.7,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::Fps(14),
    },
];

// Fig. 9 points: [Base, BigSP, BigL2] x1, then the same x2. The paper
// gives numeric overall speedups for the dual-core points only.
const FIG9_ANCHORS: [Anchor; 2] = [
    Anchor {
        what: "BigSP dual-core overall speedup vs Base",
        paper: 1.042,
        source: FIG9_ROW_TABLE,
        quantity: Quantity::CycleRatio(3, 4),
    },
    Anchor {
        what: "BigL2 dual-core overall speedup vs Base",
        paper: 1.080,
        source: FIG9_ROW_TABLE,
        quantity: Quantity::CycleRatio(3, 5),
    },
];

const FUNCTIONAL_ANCHORS: [Anchor; 2] = [
    Anchor {
        what: "AlexNet FPS",
        paper: 79.3,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::Fps(0),
    },
    Anchor {
        what: "MobileNetV2 FPS",
        paper: 18.7,
        source: FIG7_ROW_TABLE,
        quantity: Quantity::Fps(1),
    },
];

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::Fig7Cnn,
        Workload::Fig9Partition,
        Workload::FunctionalCnn,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig7Cnn => "fig7-cnn",
            Workload::Fig9Partition => "fig9-partition",
            Workload::FunctionalCnn => "functional-cnn",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Builds the workload's networks, configurations and design points.
    /// `smoke` swaps the full networks for `quick_resnet` / `tiny_cnn`
    /// stand-ins that run in seconds and exercise the same paths.
    pub fn plan(self, seed: u64, smoke: bool) -> Plan {
        let (mut points, mode) = match self {
            Workload::Fig7Cnn => {
                let nets = if smoke {
                    vec![quick_resnet(), zoo::tiny_cnn()]
                } else {
                    vec![
                        zoo::resnet50(),
                        zoo::alexnet(),
                        zoo::squeezenet_v11(),
                        zoo::mobilenetv2(),
                    ]
                };
                (fig7_points(&nets), Mode::Sweep { resume: true })
            }
            Workload::Fig9Partition => {
                let net = if smoke {
                    quick_resnet()
                } else {
                    zoo::resnet50()
                };
                type ConfigMaker = fn(usize) -> SocConfig;
                let configs: [(&str, ConfigMaker); 3] = [
                    ("Base", SocConfig::partition_base),
                    ("BigSP", SocConfig::partition_big_sp),
                    ("BigL2", SocConfig::partition_big_l2),
                ];
                let points = [1usize, 2]
                    .into_iter()
                    .flat_map(|cores| {
                        let net = &net;
                        configs.iter().map(move |&(name, make)| {
                            DesignPoint::timing(format!("{name} x{cores}"), make(cores), net)
                        })
                    })
                    .collect();
                (points, Mode::Sweep { resume: false })
            }
            Workload::FunctionalCnn => {
                let nets = if smoke {
                    vec![zoo::tiny_cnn()]
                } else {
                    vec![zoo::alexnet(), zoo::mobilenetv2()]
                };
                let points = nets
                    .into_iter()
                    .map(|net| {
                        DesignPoint::new(
                            net.name().to_string(),
                            SocConfig::edge_single_core(),
                            vec![net],
                            RunOptions::functional(),
                        )
                    })
                    .collect();
                (points, Mode::Serial)
            }
        };
        for p in &mut points {
            p.options.seed = seed;
        }
        Plan { points, mode }
    }

    /// Host seconds one end-to-end pass takes on a quiet 2-vCPU x86-64
    /// host; an end-to-end run makes `--seconds` / this many passes.
    pub fn nominal_pass_seconds(self, smoke: bool) -> f64 {
        match (self, smoke) {
            (_, true) => 0.1,
            (Workload::Fig7Cnn, false) => 4.5,
            (Workload::Fig9Partition, false) => 2.8,
            (Workload::FunctionalCnn, false) => 2.5,
        }
    }

    /// The paper anchors behind `paper_err_pct`. Anchors naming a point
    /// beyond the plan (smoke mode's shorter grids) are skipped.
    pub fn anchors(self) -> &'static [Anchor] {
        match self {
            Workload::Fig7Cnn => &FIG7_ANCHORS,
            Workload::Fig9Partition => &FIG9_ANCHORS,
            Workload::FunctionalCnn => &FUNCTIONAL_ANCHORS,
        }
    }

    /// Report digests recorded at the commit that introduced the
    /// benchmark, by point label; timing reports do not depend on the
    /// seed. Functional points are checked against the reference model
    /// instead, so they have none.
    pub fn expected_digests(self, smoke: bool) -> &'static [(&'static str, u64)] {
        match (self, smoke) {
            (Workload::Fig7Cnn, false) => &FIG7_DIGESTS,
            (Workload::Fig7Cnn, true) => &FIG7_SMOKE_DIGESTS,
            (Workload::Fig9Partition, false) => &FIG9_DIGESTS,
            (Workload::Fig9Partition, true) => &FIG9_SMOKE_DIGESTS,
            (Workload::FunctionalCnn, _) => &[],
        }
    }
}

/// Cycles a point took: its slowest core's total.
pub fn point_cycles(report: &SocReport) -> u64 {
    report
        .cores
        .iter()
        .map(|c| c.total_cycles)
        .max()
        .unwrap_or(0)
}

impl Quantity {
    /// The simulated value, or `None` when it names a point the plan
    /// does not have or that failed.
    pub fn measure(self, points: &[DesignPoint], reports: &[Option<&SocReport>]) -> Option<f64> {
        let cycles = |i: usize| {
            reports
                .get(i)
                .copied()
                .flatten()
                .map(|r| point_cycles(r) as f64)
        };
        Some(match self {
            Quantity::Fps(i) => 1e9 / cycles(i)?,
            Quantity::SpeedupVsCpu(i, kind) => {
                let net: &Network = points.get(i)?.networks.first()?;
                network_cpu_cycles(&CpuModel::new(kind), net) as f64 / cycles(i)?
            }
            Quantity::CycleRatio(a, b) => cycles(a)? / cycles(b)?,
        })
    }
}

/// Mean relative error, in percent, of the anchors that apply, with each
/// anchor's simulated value.
pub fn paper_error(
    anchors: &[Anchor],
    points: &[DesignPoint],
    reports: &[Option<&SocReport>],
) -> (f64, Vec<(Anchor, f64)>) {
    let rows: Vec<(Anchor, f64)> = anchors
        .iter()
        .filter_map(|a| Some((*a, a.quantity.measure(points, reports)?)))
        .collect();
    let mean = rows
        .iter()
        .map(|(a, got)| (got - a.paper).abs() / a.paper * 100.0)
        .sum::<f64>()
        / rows.len().max(1) as f64;
    (mean, rows)
}

const FIG7_DIGESTS: [(&str, u64); 16] = [
    ("resnet50 / Rocket host, im2col on CPU", 0xb3c52395cf88730c),
    ("resnet50 / BOOM host, im2col on CPU", 0xecea12c9b1a279b1),
    (
        "resnet50 / Rocket host, im2col on accel",
        0xde8f7ad698b5a000,
    ),
    ("resnet50 / BOOM host, im2col on accel", 0xde8f7ad698b5a000),
    ("alexnet / Rocket host, im2col on CPU", 0x55e00e671e252dbc),
    ("alexnet / BOOM host, im2col on CPU", 0xf42d7874de8de20a),
    ("alexnet / Rocket host, im2col on accel", 0xc1aed67edeef5c19),
    ("alexnet / BOOM host, im2col on accel", 0xc1aed67edeef5c19),
    (
        "squeezenet_v1.1 / Rocket host, im2col on CPU",
        0x4f30cbc14b2ae9bc,
    ),
    (
        "squeezenet_v1.1 / BOOM host, im2col on CPU",
        0x85a78c6e24b12684,
    ),
    (
        "squeezenet_v1.1 / Rocket host, im2col on accel",
        0xc25b3c296932f8b2,
    ),
    (
        "squeezenet_v1.1 / BOOM host, im2col on accel",
        0xc25b3c296932f8b2,
    ),
    (
        "mobilenetv2 / Rocket host, im2col on CPU",
        0x863f92a1acb12e31,
    ),
    ("mobilenetv2 / BOOM host, im2col on CPU", 0x83c715c1b731a77c),
    (
        "mobilenetv2 / Rocket host, im2col on accel",
        0x4a82d3b0a02f35fa,
    ),
    (
        "mobilenetv2 / BOOM host, im2col on accel",
        0x4a82d3b0a02f35fa,
    ),
];

const FIG7_SMOKE_DIGESTS: [(&str, u64); 8] = [
    (
        "resnet_quick / Rocket host, im2col on CPU",
        0x44043b57dbe6d5cc,
    ),
    (
        "resnet_quick / BOOM host, im2col on CPU",
        0xf37d76c0764210b2,
    ),
    (
        "resnet_quick / Rocket host, im2col on accel",
        0x6434edce8760a635,
    ),
    (
        "resnet_quick / BOOM host, im2col on accel",
        0x6434edce8760a635,
    ),
    ("tiny_cnn / Rocket host, im2col on CPU", 0xe16504ed1aa80895),
    ("tiny_cnn / BOOM host, im2col on CPU", 0xb7ee7ba8f226127a),
    (
        "tiny_cnn / Rocket host, im2col on accel",
        0x9ba598876cc26bed,
    ),
    ("tiny_cnn / BOOM host, im2col on accel", 0x9ba598876cc26bed),
];

const FIG9_DIGESTS: [(&str, u64); 6] = [
    ("Base x1", 0x690a114b13c1ed06),
    ("BigSP x1", 0xd4364a44a650208b),
    ("BigL2 x1", 0x5246266007775725),
    ("Base x2", 0xb998aa708d7f85dc),
    ("BigSP x2", 0x3c1ffb588c43f8ea),
    ("BigL2 x2", 0x8fe9bb233c6f33a7),
];

const FIG9_SMOKE_DIGESTS: [(&str, u64); 6] = [
    ("Base x1", 0x5ab66135f4411fbd),
    ("BigSP x1", 0x7f6d58c89fff558a),
    ("BigL2 x1", 0x9ab2812a0da6f547),
    ("Base x2", 0x40b7ea7e85225440),
    ("BigSP x2", 0xfd0ea106970d07e1),
    ("BigL2 x2", 0x869ccbdb4241b0ee),
];
