//! The command-line front end shared by every binary: declarative flag
//! tables, one parser that turns argv into a typed [`Cli`], a `--help`
//! page rendered from the tables, and a shard worker's argv rendered
//! back from the parsed value.
//!
//! Only `main` parses. A binary names the tables it accepts — the shared
//! [`SWEEP_FLAGS`] plus its own rows — and nothing else gets through:
//! an unknown flag, a missing or malformed value, two shard modes at
//! once, or a mode flag its run cannot use exits `2` with a usage line
//! before anything is simulated.
//! `--help` prints the usage and exits `0` without running anything.

use std::path::PathBuf;
use std::time::Duration;

use gemmini_soc::fault::Schedule;
use gemmini_soc::shard::{ShardCli, ShardSpec};
use Arity::{Many, One, Positional, Switch};

/// How many values a table row takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arity {
    /// A switch: `--quick`.
    Switch,
    /// Exactly one value: `--json <path>`.
    One,
    /// One or more values, up to the next flag: `--merge <file>...`.
    Many,
    /// A bare argument named by the row; `true` when it is required.
    Positional(bool),
}

/// One row of a flag table: the flag (or a positional's placeholder),
/// its arity, its value placeholder and its help line.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    name: &'static str,
    arity: Arity,
    value: &'static str,
    help: &'static str,
}

const fn row(name: &'static str, arity: Arity, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        arity,
        value,
        help,
    }
}

// The tables stay one row per line: `rustfmt::skip` keeps them aligned.

/// `--quick`, on its own for binaries that take no other flag.
#[rustfmt::skip]
pub const QUICK: &[Flag] = &[row("--quick", Switch, "", "run a scaled-down workload in seconds")];

/// The flags every sweep binary accepts.
#[rustfmt::skip]
pub const SWEEP_FLAGS: &[Flag] = &[
    QUICK[0],
    row("--json", One, "<path>", "checkpoint every point here; the base path of shard files"),
    row("--resume", Switch, "", "serve points already in the --json checkpoint"),
    row("--prune", Switch, "", "skip points whose basis proves the swept axis cannot matter"),
    row("--no-prune", Switch, "", "simulate every point (default; the last prune flag wins)"),
    row("--trace", One, "<path>", "write a Chrome trace of one representative run"),
    row("--status", One, "<path>", "rewrite a live JSON heartbeat every point and ~2 s"),
    row("--metrics", One, "<path>", "write the final metrics as Prometheus text"),
    row("--point-timeout", One, "<secs>", "record a longer-running point as failed:timeout"),
    row("--watchdog", One, "<secs>", "kill and retry a --shards worker whose heartbeat stalls"),
    row("--faults", One, "<schedule>", "arm failpoints: site=action[@hit][#shard],..."),
    row("--shard", One, "<i/N>", "run only shard i of N of the grid (needs --json)"),
    row("--shards", One, "<N>", "run the grid as N supervised worker processes (needs --json)"),
    row("--merge", Many, "<file>...", "stitch shard checkpoints into the grid, no simulation"),
];

/// fig7's extra flag.
#[rustfmt::skip]
pub const ONLY: &[Flag] = &[row("--only", One, "<name>", "sweep only networks whose name has <name>")];

/// fig3's and fig6's flag.
#[rustfmt::skip]
pub const JSON_DOC: &[Flag] = &[row("--json", One, "<path>", "also write the figure's data as JSON")];

/// run_gnn's arguments.
#[rustfmt::skip]
pub const GNN: &[Flag] = &[
    row("<model.gnn>", Positional(true), "", "network description file to simulate"),
    row("--cores", One, "<N>", "simulate N cores, each running the network"),
    row("--functional", Switch, "", "compute real tensor outputs, not just timing"),
];

/// profile_layers' argument.
#[rustfmt::skip]
pub const NETWORK: &[Flag] = &[row("network", Positional(false), "", "zoo network (default resnet50)")];

/// The usage paragraph of every binary that accepts [`SWEEP_FLAGS`].
const SWEEP_NOTES: &str = "
Robustness: --watchdog has the --shards supervisor kill and retry a worker
whose heartbeat stops advancing; --point-timeout records a wedged point as a
first-class failed:timeout checkpoint entry and finishes the sweep with a
failure summary and exit 3 instead of hanging; --faults arms the deterministic
fault-injection registry (sites checkpoint.flush, checkpoint.corrupt,
heartbeat.write, sweep.point) for chaos testing.

Exit status: 0 done; 1 failed, resume or retry to finish; 2 bad usage;
3 the grid is complete but carries recorded point failures.
";

/// Everything a binary's command line can say, one field per flag;
/// flags a binary does not accept keep their defaults.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Cli {
    pub quick: bool,
    pub json: Option<PathBuf>,
    pub resume: bool,
    /// After the last of `--prune` / `--no-prune`.
    pub prune: bool,
    pub trace: Option<PathBuf>,
    pub status: Option<PathBuf>,
    pub metrics: Option<PathBuf>,
    pub point_timeout: Option<Duration>,
    pub watchdog: Option<Duration>,
    pub faults: Option<Schedule>,
    /// `--shard` / `--shards` / `--merge`.
    pub mode: ShardCli,
    pub only: Option<String>,
    pub cores: Option<usize>,
    pub functional: bool,
    pub positional: Option<String>,
}

/// Why [`Cli::try_parse`] produced no [`Cli`]: `--help`, or a usage
/// error with its message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CliError {
    Help,
    Usage(String),
}

/// A `--flag <secs>` value: a positive, representable number of
/// seconds, fractional seconds allowed.
fn seconds(flag: &str, v: &str) -> Result<Duration, String> {
    let secs = v.trim().parse::<f64>().ok().filter(|s| *s > 0.0);
    secs.and_then(|s| Duration::try_from_secs_f64(s).ok())
        .ok_or_else(|| format!("{flag} requires a positive number of seconds (got '{v}')"))
}

/// A `--flag <N>` value: a positive integer.
fn count(flag: &str, v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n > 0 => Ok(n),
        _ => Err(format!("{flag} requires a positive integer (got '{v}')")),
    }
}

impl Cli {
    /// Parses this process's arguments against `tables`: prints the
    /// usage and exits `0` on `--help`, exits `2` with a usage line on
    /// any error.
    pub fn parse(tables: &[&[Flag]]) -> Cli {
        let mut args = std::env::args();
        let bin = args.next().map(PathBuf::from).unwrap_or_default();
        let bin = bin.file_name().unwrap_or_default().to_string_lossy();
        match Cli::try_parse(tables, &args.collect::<Vec<_>>()) {
            Ok(cli) => cli,
            Err(CliError::Help) => {
                print!("{}", usage(&bin, tables));
                std::process::exit(0);
            }
            Err(CliError::Usage(msg)) => {
                eprintln!("error: {msg}\n{}", usage_line(&bin, tables));
                eprintln!("run '{bin} --help' for every option");
                std::process::exit(2);
            }
        }
    }

    /// Parses `args` (without the program name) against `tables`; a
    /// repeated flag's last value wins.
    ///
    /// # Errors
    ///
    /// [`CliError::Help`] on `--help`; [`CliError::Usage`] for an
    /// unknown flag or surplus argument, a missing or malformed value,
    /// a missing required positional, conflicting shard modes, a fault
    /// schedule that cannot fire, a shard mode without `--json`, or
    /// `--watchdog` without a shard mode.
    pub(crate) fn try_parse(tables: &[&[Flag]], args: &[String]) -> Result<Cli, CliError> {
        if args.iter().any(|a| a == "--help") {
            return Err(CliError::Help);
        }
        Cli::typed(tables, args).map_err(CliError::Usage)
    }

    fn typed(tables: &[&[Flag]], args: &[String]) -> Result<Cli, String> {
        let rows = || tables.iter().flat_map(|t| t.iter());
        let positional = rows().find(|f| matches!(f.arity, Positional(_)));
        // Every flag as given, in order, with its values.
        let mut given: Vec<(&str, Vec<String>)> = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(flag) = rows().find(|f| f.name == arg && !matches!(f.arity, Positional(_)))
            else {
                match positional {
                    Some(p) if !arg.starts_with('-') && !given.iter().any(|g| g.0 == p.name) => {
                        given.push((p.name, vec![arg.clone()]));
                        continue;
                    }
                    _ if arg.starts_with('-') => return Err(format!("unknown flag '{arg}'")),
                    _ => return Err(format!("unexpected argument '{arg}'")),
                }
            };
            let mut values = Vec::new();
            while flag.arity != Switch && (values.is_empty() || flag.arity == Many) {
                match it.next_if(|v| !v.starts_with("--")) {
                    Some(v) => values.push(v.clone()),
                    None if values.is_empty() => {
                        return Err(format!("{} requires {}", flag.name, flag.value))
                    }
                    None => break,
                }
            }
            if flag.name == "--no-prune" {
                given.retain(|g| g.0 != "--prune"); // the last of the two wins
            }
            given.push((flag.name, values));
        }
        let last = |name: &str| given.iter().rev().find(|g| g.0 == name).map(|g| &g.1);
        let value = |name: &str| last(name).map(|v| v[0].clone());
        let secs = |name: &str| value(name).map(|v| seconds(name, &v)).transpose();
        let positive = |name: &str| value(name).map(|v| count(name, &v)).transpose();
        if let Some(p) = positional.filter(|p| p.arity == Positional(true)) {
            last(p.name).ok_or(format!("missing {}", p.name))?;
        }
        let mut modes = Vec::new();
        if let Some(v) = value("--shard") {
            modes.push(ShardCli::Shard(ShardSpec::parse(&v)?));
        }
        if let Some(n) = positive("--shards")? {
            modes.push(ShardCli::Supervise(n));
        }
        if let Some(paths) = last("--merge") {
            modes.push(ShardCli::Merge(paths.iter().map(PathBuf::from).collect()));
        }
        if modes.len() > 1 {
            return Err("--shard, --shards and --merge are mutually exclusive".to_string());
        }
        let mode = modes.pop().unwrap_or_default();
        let json = value("--json").map(PathBuf::from);
        let watchdog = secs("--watchdog")?;
        let faults = value("--faults").map(|v| Schedule::parse(&v)).transpose();
        let faults = faults.map_err(|e| format!("--faults: {e}"))?;
        // Shard files are named after the --json base path; only shard
        // workers write heartbeats to watch; a `#i` fault entry can only
        // fire in shard worker i of this run.
        let shards = match mode {
            ShardCli::Shard(spec) => spec.count,
            ShardCli::Supervise(n) => n,
            _ => 0,
        };
        if let Some(i) = faults
            .iter()
            .flat_map(Schedule::shards)
            .find(|&i| i >= shards)
        {
            return Err(format!("--faults: '#{i}' names no shard of this run"));
        }
        if shards > 0 && json.is_none() {
            return Err("--shard and --shards require --json <path>".to_string());
        }
        if shards == 0 && watchdog.is_some() {
            return Err("--watchdog requires --shards <N> or --shard <i/N>".to_string());
        }
        Ok(Cli {
            quick: last("--quick").is_some(),
            json,
            resume: last("--resume").is_some(),
            prune: last("--prune").is_some(),
            trace: value("--trace").map(PathBuf::from),
            status: value("--status").map(PathBuf::from),
            metrics: value("--metrics").map(PathBuf::from),
            point_timeout: secs("--point-timeout")?,
            watchdog,
            faults,
            mode,
            only: value("--only"),
            cores: positive("--cores")?,
            functional: last("--functional").is_some(),
            positional: positional.and_then(|p| value(p.name)),
        })
    }

    /// The argument list of the worker for shard `spec` of this run:
    /// this run's sweep flags in `--shard` mode, always resuming, so a
    /// supervisor retry picks the shard up from its checkpoint.
    /// [`Cli::try_parse`] turns it back into this `Cli` in that mode.
    pub(crate) fn worker_args(&self, spec: ShardSpec) -> Vec<String> {
        let path = |p: &PathBuf| p.to_string_lossy().into_owned();
        let secs = |d: &Duration| format!("{}.{:09}", d.as_secs(), d.subsec_nanos());
        let mut args = vec![
            "--shard".to_string(),
            spec.to_string(),
            "--resume".to_string(),
        ];
        for (flag, on) in [("--quick", self.quick), ("--prune", self.prune)] {
            args.extend(on.then(|| flag.to_string()));
        }
        for (flag, value) in [
            ("--json", self.json.as_ref().map(path)),
            ("--trace", self.trace.as_ref().map(path)),
            ("--status", self.status.as_ref().map(path)),
            ("--metrics", self.metrics.as_ref().map(path)),
            ("--point-timeout", self.point_timeout.as_ref().map(secs)),
            ("--watchdog", self.watchdog.as_ref().map(secs)),
            ("--faults", self.faults.as_ref().map(Schedule::to_string)),
            ("--only", self.only.clone()),
        ] {
            args.extend(value.map(|v| [flag.to_string(), v]).into_iter().flatten());
        }
        args
    }
}

/// `usage: <bin> [options] <positional>`.
fn usage_line(bin: &str, tables: &[&[Flag]]) -> String {
    let mut line = format!("usage: {bin} [options]");
    for f in tables.iter().flat_map(|t| t.iter()) {
        match f.arity {
            Positional(true) => line.push_str(&format!(" {}", f.name)),
            Positional(false) => line.push_str(&format!(" [{}]", f.name)),
            _ => {}
        }
    }
    line
}

/// The `--help` page: the usage line, one line per row, and the sweep
/// notes for binaries that accept the sweep flags.
fn usage(bin: &str, tables: &[&[Flag]]) -> String {
    let help = row("--help", Switch, "", "print this help and exit");
    let rows: Vec<&Flag> = tables
        .iter()
        .flat_map(|t| t.iter())
        .chain([&help])
        .collect();
    let label = |f: &Flag| format!("{} {}", f.name, f.value).trim_end().to_string();
    let width = rows.iter().map(|f| label(f).len()).max().unwrap_or(0) + 2;
    let mut text = format!("{}\n\n", usage_line(bin, tables));
    for f in &rows {
        text.push_str(&format!("  {:<width$}{}\n", label(f), f.help));
    }
    if rows.iter().any(|f| f.name == "--shards") {
        text.push_str(SWEEP_NOTES);
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    fn sweep(v: &[&str]) -> Result<Cli, CliError> {
        Cli::try_parse(&[SWEEP_FLAGS], &args(v))
    }

    fn usage_error(v: &[&str]) -> String {
        match sweep(v) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{v:?} must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn parses_the_sweep_flags_into_typed_fields() {
        let cli = sweep(&[
            "--quick",
            "--json",
            "out.jsonl",
            "--resume",
            "--point-timeout",
            "1.5",
            "--shards",
            "2",
            "--faults",
            "sweep.point=hang@4#1",
        ])
        .unwrap();
        assert!(cli.quick && cli.resume && !cli.prune);
        assert_eq!(cli.json, Some(PathBuf::from("out.jsonl")));
        assert_eq!(cli.point_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(cli.mode, ShardCli::Supervise(2));
        assert_eq!(cli.faults.unwrap().shards().collect::<Vec<_>>(), [1]);
        assert_eq!(sweep(&[]).unwrap(), Cli::default());
    }

    #[test]
    fn the_last_of_prune_and_no_prune_wins() {
        assert!(sweep(&["--prune"]).unwrap().prune);
        assert!(!sweep(&["--prune", "--no-prune"]).unwrap().prune);
        assert!(sweep(&["--no-prune", "--prune"]).unwrap().prune);
    }

    #[test]
    fn rejects_an_unknown_flag() {
        assert!(usage_error(&["--quikc"]).contains("'--quikc'"));
        assert!(usage_error(&["--quick", "stray"]).contains("'stray'"));
        // A flag another binary accepts is still unknown here.
        assert!(usage_error(&["--functional"]).contains("'--functional'"));
    }

    #[test]
    fn rejects_a_missing_value() {
        assert!(usage_error(&["--point-timeout"]).contains("--point-timeout requires <secs>"));
        assert!(usage_error(&["--json", "--resume"]).contains("--json requires <path>"));
    }

    #[test]
    fn rejects_a_malformed_point_timeout() {
        for bad in ["abc", "0", "-1", "inf", "NaN", "1e30"] {
            let msg = usage_error(&["--point-timeout", bad]);
            assert!(msg.contains("positive number of seconds"), "{bad}: {msg}");
        }
        assert!(usage_error(&["--shards", "0"]).contains("positive integer"));
        assert!(usage_error(&["--shard", "2/2"]).contains("out of range"));
    }

    #[test]
    fn rejects_two_shard_modes() {
        for v in [
            &["--shard", "0/2", "--shards", "2"][..],
            &["--shards", "2", "--merge", "a.jsonl"],
            &["--merge", "a.jsonl", "--shard", "1/2"],
        ] {
            assert!(usage_error(v).contains("mutually exclusive"), "{v:?}");
        }
    }

    #[test]
    fn merge_takes_every_path_up_to_the_next_flag() {
        let cli = sweep(&["--merge", "a.jsonl", "b.jsonl", "--quick"]).unwrap();
        assert_eq!(
            cli.mode,
            ShardCli::Merge(vec![PathBuf::from("a.jsonl"), PathBuf::from("b.jsonl")])
        );
        assert!(cli.quick);
        assert!(usage_error(&["--merge"]).contains("--merge requires <file>..."));
        assert!(usage_error(&["--merge", "--quick"]).contains("--merge requires"));
    }

    #[test]
    fn rejects_fault_schedules_that_cannot_fire() {
        assert!(usage_error(&["--faults", "sweep.point=explode"]).contains("unknown fault action"));
        assert!(usage_error(&["--faults", "sweep.pont=hang"]).contains("unknown failpoint site"));
        // A #shard qualifier needs a shard with that index in this run.
        assert!(usage_error(&["--faults", "sweep.point=hang#0"]).contains("'#0' names no shard"));
        assert!(
            usage_error(&["--shards", "2", "--faults", "sweep.point=hang#2"])
                .contains("'#2' names no shard")
        );
        let worker = [
            "--json",
            "s.jsonl",
            "--shard",
            "1/2",
            "--faults",
            "sweep.point=hang#1",
        ];
        assert!(sweep(&worker).is_ok());
    }

    #[test]
    fn help_wins_over_running() {
        assert_eq!(sweep(&["--quick", "--help"]), Err(CliError::Help));
        let text = usage("fig8_tlb_sweep", &[SWEEP_FLAGS]);
        assert!(text.starts_with("usage: fig8_tlb_sweep [options]\n"));
        for flag in SWEEP_FLAGS {
            assert!(text.contains(flag.help), "{} is documented", flag.name);
        }
        assert!(text.contains("Exit status: 0 done"));
        let plain = usage("fig3_spatial_tradeoffs", &[]);
        assert!(plain.contains("--help") && !plain.contains("Exit status"));
    }

    #[test]
    fn positionals_fill_one_slot() {
        let table: &[&[Flag]] = &[GNN];
        let cli = Cli::try_parse(table, &args(&["--cores", "2", "m.gnn", "--functional"])).unwrap();
        assert_eq!(cli.positional.as_deref(), Some("m.gnn"));
        assert_eq!(cli.cores, Some(2));
        assert!(cli.functional);
        let missing = Cli::try_parse(table, &args(&["--functional"]));
        assert_eq!(missing, Err(CliError::Usage("missing <model.gnn>".into())));
        assert!(Cli::try_parse(table, &args(&["a.gnn", "b.gnn"])).is_err());
        assert!(Cli::try_parse(table, &args(&["m.gnn", "--cores", "x"])).is_err());
        assert_eq!(
            usage_line("run_gnn", table),
            "usage: run_gnn [options] <model.gnn>"
        );
    }

    #[test]
    fn worker_args_round_trip_through_the_parser() {
        let fig7 = |v: &[&str]| Cli::try_parse(&[SWEEP_FLAGS, ONLY], &args(v));
        let cli = fig7(&[
            "--quick",
            "--only",
            "resnet",
            "--prune",
            "--json",
            "sweep.jsonl",
            "--trace",
            "t.json",
            "--status",
            "s.json",
            "--metrics",
            "m.prom",
            "--point-timeout",
            "2",
            "--watchdog",
            "0.25",
            "--faults",
            "checkpoint.flush=fail@3#0,sweep.point=abort@4#1",
            "--shards",
            "2",
        ])
        .unwrap();
        let spec = ShardSpec::new(1, 2).unwrap();
        let worker = fig7(
            &cli.worker_args(spec)
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        assert_eq!(
            worker,
            Cli {
                mode: ShardCli::Shard(spec),
                resume: true,
                ..cli.clone()
            }
        );
    }
}
