//! Pins how many points of each figure grid the sweep executor serves
//! from an equal-fingerprint run instead of simulating. The counts come
//! from fingerprints alone, so nothing here simulates: the executor runs
//! a counting closure in place of the SoC model.
//!
//! Fig. 7 crosses the host CPU with im2col placement; with im2col on the
//! accelerator a CNN never consults its host, so the BOOM point repeats
//! the Rocket one — one follower per CNN. BERT's softmax and layer norm
//! run on the host, so its points all differ. Every Fig. 9 point is
//! distinct.

use std::sync::atomic::{AtomicUsize, Ordering};

use gemmini_bench::figures::{fig7_points, fig9_points};
use gemmini_bench::quick_resnet;
use gemmini_dnn::zoo;
use gemmini_soc::sweep::{sweep_map_checkpointed, DesignPoint, SweepOptions};

fn fig7_cnns() -> Vec<gemmini_dnn::graph::Network> {
    vec![
        zoo::resnet50(),
        zoo::alexnet(),
        zoo::squeezenet_v11(),
        zoo::mobilenetv2(),
    ]
}

/// Runs `points` through the executor with a closure that only counts
/// its calls; returns (simulations, followers).
fn dispatched(points: Vec<DesignPoint>) -> (usize, usize) {
    let calls = AtomicUsize::new(0);
    let items = points
        .into_iter()
        .map(|p| (p.label.clone(), p.fingerprint(), ()))
        .collect();
    let opts = SweepOptions {
        threads: 2,
        progress: false,
        ..SweepOptions::default()
    };
    // The sleep keeps a leader's wall clearly above a follower's zero.
    let results = sweep_map_checkpointed(items, opts, |()| {
        calls.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(std::time::Duration::from_millis(1));
        Ok(0u64)
    });
    let followers = results.iter().filter(|r| r.wall.is_zero()).count();
    (calls.load(Ordering::SeqCst), followers)
}

#[test]
fn fig7_cnn_grid_runs_twelve_simulations_for_sixteen_points() {
    assert_eq!(dispatched(fig7_points(&fig7_cnns())), (12, 4));
}

#[test]
fn full_fig7_grid_has_one_follower_per_cnn() {
    // zoo::all(): the four CNNs plus BERT.
    assert_eq!(dispatched(fig7_points(&zoo::all())), (16, 4));
}

#[test]
fn quick_fig7_grid_has_one_follower_per_network() {
    let nets = vec![quick_resnet(), zoo::tiny_cnn()];
    assert_eq!(dispatched(fig7_points(&nets)), (6, 2));
}

#[test]
fn fig9_grids_have_no_followers() {
    assert_eq!(dispatched(fig9_points(&zoo::resnet50())), (6, 0));
    assert_eq!(dispatched(fig9_points(&quick_resnet())), (6, 0));
}

#[test]
fn followers_are_exactly_the_boom_on_accelerator_points() {
    let points = fig7_points(&fig7_cnns());
    for pair in points.chunks(4) {
        let fps: Vec<u64> = pair.iter().map(DesignPoint::fingerprint).collect();
        assert_eq!(fps[2], fps[3], "{}: host cannot matter", pair[3].label);
        assert_ne!(fps[0], fps[1], "{}: CPU im2col is priced", pair[1].label);
        assert_ne!(fps[0], fps[2]);
    }
}
