//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--smoke]`: prints each metric with its unit, then one JSON result
//! line.

use std::process::ExitCode;

fn main() -> ExitCode {
    // Fault schedules, trace sinks and thread counts from the environment
    // would change what is measured.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("GEMMINI_") {
            std::env::remove_var(key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match perfbench::parse_args(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = perfbench::run(&cfg);
    for note in &outcome.notes {
        println!("{note}");
    }
    for m in &outcome.metrics {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let failed = outcome.failures.len();
    println!(
        "  {:<34} {:>16.6} frac ({failed} of {} checked operations failed)",
        "failed_frac",
        failed as f64 / outcome.attempted.max(1) as f64,
        outcome.attempted
    );
    for f in outcome.failures.iter().take(20) {
        println!("  FAILED {f}");
    }
    println!("{}", outcome.json_line());
    ExitCode::SUCCESS
}
