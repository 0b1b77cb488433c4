//! Force-run audit of fingerprint dedup in the sweep executor, in the
//! pattern of `tests/prune.rs`. The executor simulates each distinct
//! [`DesignPoint::fingerprint`] once and serves every later point with
//! that fingerprint from the first one's report, so two guarantees must
//! hold:
//!
//! 1. **Equal fingerprints mean equal reports** — in particular, a core
//!    whose network never consults its host CPU model reports the same
//!    whether that host is Rocket or BOOM.
//! 2. **Dedup is exact** — a deduplicated sweep is bit-identical to
//!    force-running every point on its own.
//!
//! Failures print both reports so a wrong fingerprint is debuggable from
//! the test log alone.

use gemmini_cpu::CpuKind;
use gemmini_dnn::graph::{Activation, Layer, Network, PoolKind};
use gemmini_dnn::zoo;
use gemmini_mem::json::ToJson;
use gemmini_soc::os::OsConfig;
use gemmini_soc::run::{run_networks, SocReport};
use gemmini_soc::runtime::consults_cpu;
use gemmini_soc::sweep::{run_sweep_with, DesignPoint, SweepOptions, SweepResult};
use gemmini_soc::SocConfig;
use proptest::prelude::*;

/// A small chain-consistent CNN built from op codes: `0` 3×3 conv, `1`
/// 1×1 conv, `2` depthwise conv, `3` 2×2 max pool (while the map is at
/// least 4 wide), anything else a residual add. A classifier matmul
/// follows, then — per `tail` — nothing, a layer norm or a softmax.
fn network(ops: &[u8], tail: u8) -> Network {
    let mut net = Network::new(format!("net_{ops:?}_{tail}"));
    let (mut c, mut h) = (4usize, 8usize);
    for (i, op) in ops.iter().enumerate() {
        let name = format!("l{i}");
        match op {
            0 | 1 => {
                let (kernel, out) = if *op == 0 { (3, 8) } else { (1, 4) };
                net.push(
                    name,
                    Layer::Conv {
                        in_channels: c,
                        out_channels: out,
                        kernel,
                        stride: 1,
                        padding: kernel / 2,
                        in_hw: (h, h),
                        activation: Activation::Relu,
                    },
                );
                c = out;
            }
            2 => net.push(
                name,
                Layer::DwConv {
                    channels: c,
                    kernel: 3,
                    stride: 1,
                    padding: 1,
                    in_hw: (h, h),
                    activation: Activation::Relu,
                },
            ),
            3 if h >= 4 => {
                net.push(
                    name,
                    Layer::Pool {
                        kind: PoolKind::Max,
                        size: 2,
                        stride: 2,
                        padding: 0,
                        channels: c,
                        in_hw: (h, h),
                    },
                );
                h /= 2;
            }
            _ => net.push(
                name,
                Layer::ResAdd {
                    elements: c * h * h,
                },
            ),
        }
    }
    net.push(
        "fc",
        Layer::Matmul {
            m: 1,
            k: c * h * h,
            n: 8,
            activation: Activation::None,
        },
    );
    match tail {
        0 => {}
        1 => net.push("norm", Layer::LayerNorm { rows: 1, cols: 8 }),
        _ => net.push("softmax", Layer::Softmax { rows: 1, cols: 8 }),
    }
    net
}

/// A single-core timing point on the edge SoC.
fn point(net: &Network, cpu: CpuKind, im2col: bool, pooling: bool, os: OsConfig) -> DesignPoint {
    let mut cfg = SocConfig::edge_single_core();
    cfg.cores[0].cpu = cpu;
    cfg.cores[0].accel.has_im2col = im2col;
    cfg.cores[0].accel.has_pooling = pooling;
    cfg.os = os;
    let label = format!(
        "{} / {cpu:?} im2col={im2col} pooling={pooling} os={:?}",
        net.name(),
        os.context_switch_interval
    );
    DesignPoint::timing(label, cfg, net)
}

fn encode(report: &SocReport) -> String {
    report.to_json().encode()
}

/// Runs `p` on its own, as if dedup did not exist.
fn force_run(p: &DesignPoint) -> SocReport {
    run_networks(&p.config, &p.networks, &p.options)
        .unwrap_or_else(|e| panic!("{}: force-run failed: {e}", p.label))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Rocket and BOOM hosts get equal fingerprints exactly when the
    /// network never consults the CPU model, and then their reports are
    /// equal too.
    ///
    /// The samplers lean towards host-free settings so that about a third
    /// of the cases actually compare reports.
    #[test]
    fn equal_fingerprints_mean_equal_reports(
        ops in prop::collection::vec(0u8..5, 1..5),
        tail in prop::sample::select(vec![0u8, 0, 1, 2]),
        im2col in prop::sample::select(vec![true, true, true, false]),
        pooling in prop::sample::select(vec![true, true, true, false]),
        linux in prop::sample::select(vec![false, false, false, true]),
    ) {
        let net = network(&ops, tail);
        let os = if linux { OsConfig::linux(2_000) } else { OsConfig::bare_metal() };
        let rocket = point(&net, CpuKind::Rocket, im2col, pooling, os);
        let boom = point(&net, CpuKind::Boom, im2col, pooling, os);
        let consulted = consults_cpu(&net, &rocket.config.cores[0].accel, &os);
        prop_assert_eq!(rocket.fingerprint() == boom.fingerprint(), !consulted);
        if !consulted {
            let (r, b) = (encode(&force_run(&rocket)), encode(&force_run(&boom)));
            prop_assert!(
                r == b,
                "equal fingerprints but different reports\n  {}: {}\n  {}: {}",
                rocket.label, r, boom.label, b
            );
        }
    }
}

/// The predicate names every way the host model is reached: a network
/// with nothing on the host is CPU-free only while its accelerator has
/// the units it uses and the OS never switches context.
#[test]
fn consults_cpu_names_every_host_path() {
    let bare = OsConfig::bare_metal();
    let accel = SocConfig::edge_single_core().cores[0].accel.clone();
    let conv_pool = network(&[0, 3], 0);
    assert!(!consults_cpu(&conv_pool, &accel, &bare));
    assert!(consults_cpu(&conv_pool, &accel, &OsConfig::linux(2_000)));
    let mut no_im2col = accel.clone();
    no_im2col.has_im2col = false;
    assert!(consults_cpu(&conv_pool, &no_im2col, &bare));
    let mut no_pool = accel.clone();
    no_pool.has_pooling = false;
    assert!(consults_cpu(&conv_pool, &no_pool, &bare));
    assert!(consults_cpu(&network(&[0], 1), &accel, &bare), "layer norm");
    assert!(consults_cpu(&network(&[0], 2), &accel, &bare), "softmax");
}

/// Rocket points keep the plain configuration hash they always had, so
/// existing checkpoints stay valid.
#[test]
fn rocket_fingerprints_are_the_configuration_hash() {
    let net = zoo::tiny_cnn();
    for im2col in [false, true] {
        let p = point(&net, CpuKind::Rocket, im2col, true, OsConfig::bare_metal());
        let plain =
            gemmini_soc::checkpoint::debug_fingerprint(&(&p.config, &p.networks, &p.options));
        assert_eq!(p.fingerprint(), plain);
    }
}

/// Labels of the points served from an equal-fingerprint run: a follower
/// has zero wall and is neither cached nor pruned.
fn followers(results: &[SweepResult<SocReport>]) -> Vec<&str> {
    results
        .iter()
        .filter(|r| !r.cached && r.pruned.is_none() && r.wall.is_zero())
        .map(|r| r.label.as_str())
        .collect()
}

/// A deduplicated sweep is bit-identical to force-running every point,
/// and it serves exactly the points whose host cannot matter.
#[test]
fn dedup_sweep_matches_force_running_every_point() {
    let nets = [zoo::tiny_cnn(), network(&[0, 3], 1), network(&[4], 0)];
    let mut points = Vec::new();
    for net in &nets {
        for os in [OsConfig::bare_metal(), OsConfig::linux(2_000)] {
            for im2col in [false, true] {
                for cpu in [CpuKind::Rocket, CpuKind::Boom] {
                    points.push(point(net, cpu, im2col, true, os));
                }
            }
        }
    }
    let path = std::env::temp_dir().join(format!("gemmini_dedup_{}.jsonl", std::process::id()));
    let results = run_sweep_with(
        points.clone(),
        SweepOptions {
            threads: 2,
            progress: false,
            ..SweepOptions::checkpointed(&path, false)
        },
    );
    for (p, r) in points.iter().zip(&results) {
        assert_eq!(p.label, r.label, "submission order");
        let (served, alone) = (encode(r.expect_ok()), encode(&force_run(p)));
        assert!(
            served == alone,
            "'{}' differs from its force-run\n  sweep: {served}\n  force-run: {alone}",
            p.label
        );
    }
    // Bare metal only: tiny_cnn's BOOM host with on-accelerator im2col,
    // and both BOOM points of the pure residual-add + matmul network.
    // The layer-norm network always consults its host.
    let tiny = nets[0].name();
    let flat = nets[2].name();
    let expected = [
        format!("{tiny} / Boom im2col=true pooling=true os=None"),
        format!("{flat} / Boom im2col=false pooling=true os=None"),
        format!("{flat} / Boom im2col=true pooling=true os=None"),
    ];
    assert_eq!(followers(&results), expected);

    // A resume serves every point, followers included, from the file.
    let resumed = run_sweep_with(
        points,
        SweepOptions {
            threads: 2,
            progress: false,
            ..SweepOptions::checkpointed(&path, true)
        },
    );
    for (r, fresh) in resumed.iter().zip(&results) {
        assert!(r.cached, "'{}' must be served from the checkpoint", r.label);
        assert_eq!(encode(r.expect_ok()), encode(fresh.expect_ok()));
    }
    let _ = std::fs::remove_file(&path);
}
