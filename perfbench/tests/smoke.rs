//! Smoke-mode checks: every workload path runs on the stand-in networks,
//! prints every metric `BENCHMARK.json` declares with its unit, and the
//! correctness gates fire on perturbed results.

use gemmini_mem::json::Json;
use gemmini_soc::run::run_networks;
use gemmini_soc::runtime::reference_forward;
use perfbench::gates::{check_digest, check_output};
use perfbench::measure::{Expected, Pass, PointRun, Tally};
use perfbench::parse_args;
use perfbench::workload::Workload;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

fn declared(kind: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.field(kind)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            (
                m.field("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string(),
                m.field("unit")
                    .and_then(Json::as_str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_every_declared_metric_with_its_unit() {
    let out_dir = tempdir("metrics");
    for workload in Workload::ALL {
        for (trace, kind) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(env!("CARGO_BIN_EXE_perfbench"))
                .args(["--workload", workload.name(), "--seed", "5"])
                .args(["--seconds", "1", "--trace", trace, "--smoke"])
                .current_dir(&out_dir)
                .output()
                .expect("benchmark runs");
            assert!(
                output.status.success(),
                "{} trace {trace} failed",
                workload.name()
            );
            let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
            let last = stdout.lines().last().expect("a result line");
            let result = Json::parse(last).expect("the result line is JSON");
            assert_eq!(
                result.field("correct").and_then(Json::as_bool),
                Ok(true),
                "{stdout}"
            );
            assert_eq!(result.field("failed").and_then(Json::as_u64), Ok(0));
            assert!(
                result
                    .field("attempted")
                    .and_then(Json::as_u64)
                    .expect("attempted")
                    > 0
            );
            let Ok(Json::Obj(metrics)) = result.field("metrics") else {
                panic!("metrics is an object: {last}");
            };
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.field("value").and_then(Json::as_f64).expect("value");
                    assert!(value.is_finite(), "{name} = {value}");
                    let unit = m.field("unit").and_then(Json::as_str).expect("unit");
                    (name.clone(), unit.to_string())
                })
                .collect();
            let mut want = declared(kind);
            let mut sorted = got.clone();
            want.sort();
            sorted.sort();
            assert_eq!(sorted, want, "{} trace {trace}", workload.name());
            for (name, unit) in &got {
                assert!(
                    stdout.lines().any(|l| {
                        let words: Vec<&str> = l.split_whitespace().collect();
                        words.first() == Some(&name.as_str())
                            && words.get(2) == Some(&unit.as_str())
                    }),
                    "{name} is not printed with {unit}"
                );
            }
            assert!(stdout
                .lines()
                .any(|l| l.trim_start().starts_with("failed_frac")));
        }
    }
    std::fs::remove_dir_all(&out_dir).expect("temp dir removed");
}

fn tempdir(what: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("perfbench-{what}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir created");
    dir
}

#[test]
fn a_perturbed_digest_is_caught() {
    let plan = Workload::Fig7Cnn.plan(5, true);
    let expected = Workload::Fig7Cnn.expected_digests(true);
    let point = plan
        .points
        .iter()
        .find(|p| p.label.starts_with("tiny_cnn"))
        .expect("smoke fig7 has tiny_cnn points");
    let mut report =
        run_networks(&point.config, &point.networks, &point.options).expect("point runs");
    assert_eq!(check_digest(expected, &point.label, &report), Ok(()));

    report.cores[0].layers[0].cycles += 1;
    assert!(check_digest(expected, &point.label, &report).is_err());
    assert!(check_digest(expected, "no such point", &report).is_err());

    // The mismatch is counted as a failed operation, not dropped.
    let index = plan
        .points
        .iter()
        .position(|p| p.label == point.label)
        .expect("in plan");
    let mut pass = Pass {
        wall: Duration::from_secs(1),
        resume_wall: Duration::ZERO,
        fresh: Vec::new(),
        resumed: Vec::new(),
    };
    for (i, p) in plan.points.iter().enumerate().take(index + 1) {
        let outcome = run_networks(&p.config, &p.networks, &p.options).expect("point runs");
        pass.fresh.push(PointRun {
            label: p.label.clone(),
            outcome: Ok(if i == index { report.clone() } else { outcome }),
            wall: Duration::from_millis(1),
            cached: false,
        });
    }
    let mut tally = Tally::default();
    Expected::new(Workload::Fig7Cnn, &plan, true).check_pass(&pass, &mut tally);
    assert_eq!(tally.attempted, index as u64 + 1);
    assert_eq!(tally.failures.len(), 1, "{:?}", tally.failures);
}

#[test]
fn a_perturbed_functional_output_is_caught() {
    let plan = Workload::FunctionalCnn.plan(5, true);
    let point = &plan.points[0];
    let reference = reference_forward(&point.networks[0], point.options.seed);
    let mut report =
        run_networks(&point.config, &point.networks, &point.options).expect("point runs");
    assert_eq!(check_output(&point.label, &report, &reference), Ok(()));

    let output = report.cores[0].output.as_mut().expect("functional output");
    output[0] = output[0].wrapping_add(1);
    assert!(check_output(&point.label, &report, &reference).is_err());
    report.cores[0].output = None;
    assert!(check_output(&point.label, &report, &reference).is_err());
}

#[test]
fn malformed_arguments_are_rejected() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    assert!(parse_args(&args("--workload fig7-cnn --seed 1 --seconds 5 --trace 0")).is_ok());
    for bad in [
        "--workload fig8 --seed 1 --seconds 5 --trace 0",
        "--workload fig7-cnn --seed x --seconds 5 --trace 0",
        "--workload fig7-cnn --seed 1 --seconds 0 --trace 0",
        "--workload fig7-cnn --seed 1 --seconds 5 --trace 2",
        "--workload fig7-cnn --seed 1 --seconds 5",
        "--workload fig7-cnn --seed 1 --seconds 5 --trace 0 --quick",
        "--workload",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "{bad}");
    }
}
