//! Deterministic fault injection ("failpoints") for robustness testing.
//!
//! Long sharded sweeps must survive hung workers, torn checkpoint
//! writes and corrupted lines — failure modes that are essentially
//! untestable without a way to *cause* them on demand. This module is a
//! process-wide registry of named failpoint sites, armed by [`arm`] from
//! a parsed [`Schedule`] (the sweep binaries' `--faults` flag). Each site
//! in the checkpoint writer, telemetry heartbeat and sweep executor asks
//! the registry what to do; with nothing armed — the default — every
//! site is exactly one untaken branch on a relaxed atomic load, and
//! results are bit-identical to a build without the registry.
//!
//! # Spec grammar
//!
//! ```text
//! schedule = entry ( "," entry )*
//! entry    = site "=" action [ "@" hit ] [ "#" shard ]
//! action   = "fail" | "hang" | "abort" | "corrupt" | "skip" | "delay:" millis
//! ```
//!
//! `@hit` restricts the action to exactly the N-th evaluation of that
//! site in this process (1-based), so a schedule like
//! `checkpoint.flush=fail@3` injects one I/O error on the third
//! checkpoint append and nothing else — fully deterministic, no clocks
//! and no randomness. Without `@hit` the action fires on every
//! evaluation.
//!
//! `#shard` restricts the entry to the `--shard` worker with that index:
//! a supervised sweep hands every worker the same schedule, and each
//! worker — and the supervisor, which has no index — arms only the
//! entries meant for it. Unqualified entries arm in every process.
//!
//! # Sites
//!
//! | site                 | actions it honours   | effect                                    |
//! |----------------------|----------------------|-------------------------------------------|
//! | `checkpoint.flush`   | `fail`, `delay`      | the append returns an injected I/O error  |
//! | `checkpoint.corrupt` | `corrupt`            | the appended line is torn to 2/3          |
//! | `heartbeat.write`    | `skip`, `fail`       | the heartbeat write is dropped or fails   |
//! | `sweep.point`        | `hang`, `abort`, `delay` | the point wedges, the process aborts, or the point starts late |
//!
//! `sweep.point` is evaluated only by a sweep that served no point from
//! its checkpoint, so a resumed retry runs past the fault and completes.
//! [`Schedule::parse`] rejects an unknown site or an action its site does
//! not honour: a schedule that parses is a schedule that can fire.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Every failpoint site and the actions it honours (see the module docs).
const SITES: &[(&str, &[&str])] = &[
    ("checkpoint.flush", &["fail", "delay"]),
    ("checkpoint.corrupt", &["corrupt"]),
    ("heartbeat.write", &["skip", "fail"]),
    ("sweep.point", &["hang", "abort", "delay"]),
];

/// What an armed failpoint tells its site to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Fail the operation with an injected error.
    Fail,
    /// Hang: sleep effectively forever (the watchdog's prey).
    Hang,
    /// Abort the process on the spot, like a segfault or an OOM kill.
    Abort,
    /// Corrupt the bytes the site was about to write.
    Corrupt,
    /// Silently skip the operation (e.g. suppress a heartbeat write).
    Skip,
    /// Delay the operation by the given duration, then proceed.
    Delay(Duration),
}

impl FaultAction {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "fail" => Ok(Self::Fail),
            "hang" => Ok(Self::Hang),
            "abort" => Ok(Self::Abort),
            "corrupt" => Ok(Self::Corrupt),
            "skip" => Ok(Self::Skip),
            _ => {
                if let Some(ms) = s.strip_prefix("delay:") {
                    let ms = ms
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("invalid delay millis in fault action '{s}'"))?;
                    Ok(Self::Delay(Duration::from_millis(ms)))
                } else {
                    Err(format!(
                        "unknown fault action '{s}' (expected fail|hang|abort|corrupt|skip|delay:<ms>)"
                    ))
                }
            }
        }
    }
}

/// One schedule entry, `site=action[@hit][#shard]`: without `hit` it
/// fires on every evaluation, without `shard` in every process.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    site: &'static str,
    action: FaultAction,
    hit: Option<u64>,
    shard: Option<usize>,
}

/// A validated fault schedule, keeping its source text so it can be
/// handed on verbatim (e.g. in a shard worker's argv).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    text: String,
    entries: Vec<Entry>,
}

impl Schedule {
    /// Parses and validates a schedule (grammar in the module docs).
    ///
    /// # Errors
    ///
    /// Returns a human-readable message for a malformed entry, an
    /// unknown site, or an action its site does not honour.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (site, rest) = entry
                .split_once('=')
                .ok_or_else(|| format!("invalid fault entry '{entry}' (expected site=action)"))?;
            let (rest, shard) = match rest.split_once('#') {
                Some((rest, shard)) => {
                    let shard = shard
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("invalid shard index in fault entry '{entry}'"))?;
                    (rest, Some(shard))
                }
                None => (rest, None),
            };
            let (action, hit) = match rest.split_once('@') {
                Some((action, hit)) => {
                    let hit = hit
                        .trim()
                        .parse::<u64>()
                        .map_err(|_| format!("invalid hit index in fault entry '{entry}'"))?;
                    if hit == 0 {
                        return Err(format!(
                            "hit index in '{entry}' is 1-based and must be positive"
                        ));
                    }
                    (action, Some(hit))
                }
                None => (rest, None),
            };
            let (site, action) = (site.trim(), action.trim());
            let Some(&(site, honoured)) = SITES.iter().find(|(name, _)| *name == site) else {
                let known: Vec<&str> = SITES.iter().map(|(name, _)| *name).collect();
                return Err(format!(
                    "unknown failpoint site '{site}' in '{entry}' (expected one of {})",
                    known.join(", ")
                ));
            };
            let keyword = action.split(':').next().unwrap_or(action);
            let action = FaultAction::parse(action)?;
            if !honoured.contains(&keyword) {
                return Err(format!(
                    "failpoint site '{site}' does not honour '{keyword}' (it honours {})",
                    honoured.join(", ")
                ));
            }
            entries.push(Entry {
                site,
                action,
                hit,
                shard,
            });
        }
        Ok(Self {
            text: spec.to_string(),
            entries,
        })
    }

    /// The shard indices the entries' `#shard` qualifiers name.
    pub fn shards(&self) -> impl Iterator<Item = usize> + '_ {
        self.entries.iter().filter_map(|e| e.shard)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.text)
    }
}

/// One armed failpoint: a schedule entry plus its site's evaluation
/// counter.
#[derive(Debug)]
struct Failpoint {
    entry: Entry,
    evaluations: AtomicU64,
}

/// The entries of `schedule` that arm in the process with shard index
/// `shard` (`None`: not a shard worker).
fn armed_in(schedule: &Schedule, shard: Option<usize>) -> Vec<Failpoint> {
    schedule
        .entries
        .iter()
        .filter(|e| e.shard.is_none() || e.shard == shard)
        .map(|e| Failpoint {
            entry: e.clone(),
            evaluations: AtomicU64::new(0),
        })
        .collect()
}

/// Counts one evaluation of `site` against every failpoint on it and
/// returns the first action due, with its evaluation number.
fn evaluate(points: &[Failpoint], site: &str) -> Option<(FaultAction, u64)> {
    for point in points.iter().filter(|p| p.entry.site == site) {
        let n = point.evaluations.fetch_add(1, Ordering::Relaxed) + 1;
        if point.entry.hit.is_none_or(|hit| hit == n) {
            return Some((point.entry.action, n));
        }
    }
    None
}

static ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: OnceLock<Vec<Failpoint>> = OnceLock::new();

/// Arms the registry for this process with the entries of `schedule`
/// that apply to it: the unqualified ones, plus the `#shard` ones when
/// `shard` names this process's worker index. The first call wins; the
/// registry cannot be re-armed.
pub fn arm(schedule: &Schedule, shard: Option<usize>) {
    let points = armed_in(schedule, shard);
    if points.is_empty() {
        return;
    }
    eprintln!("fault: armed {} failpoint(s): {schedule}", points.len());
    if REGISTRY.set(points).is_ok() {
        ARMED.store(true, Ordering::Release);
    }
}

/// Evaluates the failpoint `site`: returns the armed action when the
/// schedule says this evaluation should take a fault, `None` otherwise.
/// The disabled path (nothing armed) is a single relaxed atomic load and
/// an untaken branch — call it freely from hot paths.
pub fn fire(site: &str) -> Option<FaultAction> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let (action, n) = evaluate(REGISTRY.get()?, site)?;
    eprintln!("fault: {site} -> {action:?} (evaluation {n})");
    Some(action)
}

/// Convenience for I/O sites: an injected [`std::io::Error`] when `site`
/// fires with [`FaultAction::Fail`]. [`FaultAction::Delay`] sleeps and
/// returns `None`.
pub fn fail_io(site: &str) -> Option<std::io::Error> {
    match fire(site)? {
        FaultAction::Fail => Some(std::io::Error::other(format!(
            "injected fault at failpoint '{site}'"
        ))),
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            None
        }
        _ => None,
    }
}

/// Sleeps effectively forever — what a site does on
/// [`FaultAction::Hang`]. Never returns; the process is expected to be
/// killed by a watchdog or supervisor.
pub fn hang_forever(site: &str) -> ! {
    eprintln!("fault: hanging at failpoint '{site}'");
    loop {
        std::thread::sleep(Duration::from_secs(3600));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests exercise the parser and the pure decision logic
    // directly; the process-global registry is covered end to end by the
    // shard end-to-end tests and the chaos CI job.

    #[test]
    fn parses_a_full_schedule() {
        let schedule = Schedule::parse(
            "checkpoint.flush=fail@3, checkpoint.corrupt=corrupt@5#1,sweep.point=delay:250",
        )
        .unwrap();
        let e = &schedule.entries;
        assert_eq!(e.len(), 3);
        assert_eq!(e[0].site, "checkpoint.flush");
        assert_eq!(e[0].action, FaultAction::Fail);
        assert_eq!((e[0].hit, e[0].shard), (Some(3), None));
        assert_eq!(e[1].action, FaultAction::Corrupt);
        assert_eq!((e[1].hit, e[1].shard), (Some(5), Some(1)));
        assert_eq!(e[2].action, FaultAction::Delay(Duration::from_millis(250)));
        assert_eq!(e[2].hit, None);
        assert_eq!(
            schedule.to_string(),
            "checkpoint.flush=fail@3, checkpoint.corrupt=corrupt@5#1,sweep.point=delay:250",
            "the source text is handed on verbatim"
        );
    }

    #[test]
    fn rejects_malformed_entries() {
        assert!(Schedule::parse("no-equals-sign").is_err());
        assert!(Schedule::parse("sweep.point=explode").is_err());
        assert!(
            Schedule::parse("sweep.point=hang@0").is_err(),
            "hits are 1-based"
        );
        assert!(Schedule::parse("sweep.point=hang@x").is_err());
        assert!(Schedule::parse("sweep.point=delay:abc").is_err());
        assert!(Schedule::parse("sweep.point=hang#x").is_err());
        assert!(Schedule::parse("sweep.point=hang#-1").is_err());
        assert!(Schedule::parse("").unwrap().entries.is_empty());
        assert!(Schedule::parse(" , ,").unwrap().entries.is_empty());
    }

    #[test]
    fn rejects_an_unknown_site() {
        let err = Schedule::parse("sweep.pont=hang").unwrap_err();
        assert!(err.contains("unknown failpoint site 'sweep.pont'"), "{err}");
        assert!(err.contains("sweep.point"), "lists the known sites: {err}");
    }

    #[test]
    fn rejects_an_action_the_site_does_not_honour() {
        for spec in [
            "checkpoint.flush=corrupt",
            "checkpoint.corrupt=fail",
            "heartbeat.write=hang",
            "sweep.point=fail",
            "sweep.point=skip@2",
        ] {
            let err = Schedule::parse(spec).unwrap_err();
            assert!(err.contains("does not honour"), "{spec}: {err}");
        }
        // Every honoured pair parses.
        for (site, actions) in SITES {
            for action in *actions {
                let action = if *action == "delay" {
                    "delay:1"
                } else {
                    action
                };
                assert!(Schedule::parse(&format!("{site}={action}")).is_ok());
            }
        }
    }

    #[test]
    fn shard_qualified_entries_arm_only_in_their_worker() {
        let schedule =
            Schedule::parse("checkpoint.flush=fail@3#0,sweep.point=abort@4#1,heartbeat.write=skip")
                .unwrap();
        let sites = |shard| -> Vec<&str> {
            armed_in(&schedule, shard)
                .into_iter()
                .map(|p| p.entry.site)
                .collect()
        };
        assert_eq!(sites(Some(0)), ["checkpoint.flush", "heartbeat.write"]);
        assert_eq!(sites(Some(1)), ["sweep.point", "heartbeat.write"]);
        assert_eq!(sites(Some(2)), ["heartbeat.write"]);
        assert_eq!(sites(None), ["heartbeat.write"], "the supervisor");
    }

    #[test]
    fn hit_counting_is_per_site_and_one_based() {
        let schedule = Schedule::parse("sweep.point=abort@2,heartbeat.write=skip").unwrap();
        let points = armed_in(&schedule, None);
        let eval = |site| evaluate(&points, site).map(|(action, _)| action);
        assert_eq!(eval("sweep.point"), None, "first evaluation passes");
        assert_eq!(
            eval("sweep.point"),
            Some(FaultAction::Abort),
            "second fires"
        );
        assert_eq!(eval("sweep.point"), None, "third passes again");
        assert_eq!(
            eval("heartbeat.write"),
            Some(FaultAction::Skip),
            "unconditional"
        );
        assert_eq!(eval("heartbeat.write"), Some(FaultAction::Skip));
        assert_eq!(eval("checkpoint.flush"), None);
    }
}
