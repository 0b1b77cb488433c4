//! Host-time ledger for the Gemmini reproduction: three figure workloads
//! measured end to end (tracing off) and per layer (a separate traced
//! run), with every simulated result checked. See `perfbench/README.md`.

pub mod gates;
pub mod ledger;
pub mod measure;
pub mod probes;
pub mod traced;
pub mod workload;

use ledger::{Config, Outcome};
use std::time::Duration;
use workload::Workload;

/// Where checkpoints and span files go, relative to the working directory.
pub const OUT_DIR: &str = ".perfbench-out";

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>
/// [--smoke]`.
///
/// # Errors
///
/// Describes a missing, unknown or malformed argument.
pub fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut smoke = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload {value}; expected one of {}",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|_| bad())?;
                if s == 0 {
                    return Err(bad());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
    })
}

/// Runs one invocation: the end-to-end run, or the traced run.
pub fn run(cfg: &Config) -> Outcome {
    if cfg.trace {
        ledger::per_layer(cfg)
    } else {
        ledger::end_to_end(cfg)
    }
}
