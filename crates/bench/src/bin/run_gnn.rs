//! Push-button runner for network description files — the user-facing
//! entry point of the "ONNX" flow:
//!
//! ```sh
//! cargo run --release -p gemmini-bench --bin run_gnn -- models/lenet.gnn
//! cargo run --release -p gemmini-bench --bin run_gnn -- models/lenet.gnn --cores 2 --functional
//! ```

use gemmini_bench::cli::GNN;
use gemmini_bench::Cli;
use gemmini_dnn::loader::parse_network;
use gemmini_soc::run::{run_networks, RunOptions};
use gemmini_soc::soc::SocConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    let cli = Cli::parse(&[GNN]);
    let path = cli
        .positional
        .expect("the model path is a required positional");
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let net = match parse_network(&text) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cores = cli.cores.unwrap_or(1);
    let functional = cli.functional;

    println!(
        "{}: {} layers, {:.2} GMACs, {} core(s), {} mode",
        net.name(),
        net.len(),
        net.total_macs() as f64 / 1e9,
        cores,
        if functional { "functional" } else { "timing" }
    );

    let cfg = if cores == 1 {
        SocConfig::edge_single_core()
    } else {
        SocConfig {
            cores: vec![gemmini_soc::soc::CoreConfig::edge(); cores],
            ..SocConfig::edge_single_core()
        }
    };
    let opts = if functional {
        RunOptions::functional()
    } else {
        RunOptions::timing()
    };
    let report = match run_networks(&cfg, &vec![net; cores], &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("simulation error: {e}");
            return ExitCode::FAILURE;
        }
    };

    for (idx, core) in report.cores.iter().enumerate() {
        println!(
            "\ncore {idx}: {} cycles ({:.2} ms @1GHz, {:.1} inf/s)",
            core.total_cycles,
            core.total_cycles as f64 / 1e6,
            core.fps(1.0),
        );
        println!(
            "  dma {:.2} MB in / {:.2} MB out | tlb {:.1}% private hits, {} walks",
            core.dma.bytes_in as f64 / 1e6,
            core.dma.bytes_out as f64 / 1e6,
            core.translation.private_hit_rate * 100.0,
            core.translation.walks
        );
        for l in &core.layers {
            println!(
                "  {:<20} {:<7} {:>10} cycles ({:>4.1}%)",
                l.name,
                l.class.to_string(),
                l.cycles,
                100.0 * l.cycles as f64 / core.total_cycles as f64
            );
        }
        if let Some(out) = &core.output {
            let preview: Vec<i8> = out.iter().take(16).copied().collect();
            println!("  output[..16] = {preview:?}");
        }
    }
    println!(
        "\nshared L2: {:.1}% miss rate | DRAM: {:.2} MB",
        report.l2.miss_rate * 100.0,
        report.dram_bytes as f64 / 1e6
    );
    ExitCode::SUCCESS
}
