//! Deterministic micro-sweep for exercising the sharded executor end to
//! end without paying for real simulations: eight labelled points whose
//! payloads are a pure integer-mixing function of their index, driven
//! through exactly the same CLI as the figure binaries (`--json`,
//! `--resume`, `--shards N`, `--shard i/N`, `--merge <shard.jsonl>...`).
//!
//! The shard end-to-end tests (`tests/shard_e2e.rs`) and anyone smoke
//! testing the supervisor by hand use this: a full 2-shard supervised
//! run with a crash and retry finishes in well under a second.

use gemmini_bench::cli::SWEEP_FLAGS;
use gemmini_bench::{section, Cli};
use gemmini_soc::checkpoint::debug_fingerprint;

/// A pure, platform-independent integer mix (splitmix64 finalizer): the
/// payload depends only on the point index, so any two runs — sharded,
/// serial, resumed, merged — must agree exactly.
fn mix(i: u64) -> u64 {
    let mut z = i.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn main() {
    let cli = Cli::parse(&[SWEEP_FLAGS]);
    let points: Vec<(String, u64, u64)> = (0..8u64)
        .map(|i| (format!("point{i}"), debug_fingerprint(&i), i))
        .collect();
    let Some(results) = cli.sharded_sweep_map(points, None, |i| Ok(mix(i))) else {
        return; // shard worker: the checkpoint file is the output
    };
    section("shard smoke payloads");
    for r in &results {
        println!("{} {}", r.label, r.expect_ok());
    }
}
