//! Per-layer profiler: runs one zoo network (timing mode) and prints every
//! layer that contributes ≥1% of total cycles — the tool used to find
//! bottlenecks while calibrating this reproduction.
//!
//! ```sh
//! cargo run --release -p gemmini-bench --bin profile_layers -- resnet50
//! ```

use gemmini_bench::cli::NETWORK;
use gemmini_bench::Cli;
use gemmini_soc::run::{run_networks, RunOptions};
use gemmini_soc::soc::SocConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::parse(&[NETWORK]);
    let name = cli.positional.unwrap_or_else(|| "resnet50".into());
    let Some(net) = gemmini_dnn::zoo::all()
        .into_iter()
        .find(|n| n.name().contains(&name))
    else {
        eprintln!(
            "unknown network `{name}`; available: {}",
            gemmini_dnn::zoo::all()
                .iter()
                .map(|n| n.name().to_string())
                .collect::<Vec<_>>()
                .join(", ")
        );
        return ExitCode::FAILURE;
    };

    let report = run_networks(
        &SocConfig::edge_single_core(),
        &[net],
        &RunOptions::timing(),
    )
    .expect("simulation succeeds");
    let core = &report.cores[0];

    println!(
        "{}: {} cycles total, {} MACs ({:.1}% of peak at 256 MACs/cycle)",
        core.network,
        core.total_cycles,
        core.macs,
        100.0 * core.macs as f64 / (core.total_cycles as f64 * 256.0)
    );
    println!("layers contributing >= 1% of total:");
    for l in &core.layers {
        if l.cycles * 100 >= core.total_cycles {
            println!(
                "  {:<22} {:<7} {:>12} cycles ({:>4.1}%)",
                l.name,
                l.class.to_string(),
                l.cycles,
                100.0 * l.cycles as f64 / core.total_cycles as f64
            );
        }
    }
    ExitCode::SUCCESS
}
