//! Smoke test: every workload at toy size, in both modes. Checks that the
//! result line names exactly the metrics BENCHMARK.json declares, in order
//! and with their units, that the digest checks pass, and that the deadline
//! ends a run that overruns it.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use serde::Value;

const WORKLOADS: [&str; 4] = ["airfoil-paper", "airfoil-fine", "swe-dist", "serve-mixed"];

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    serde_json::from_str(&text).expect("parse BENCHMARK.json")
}

/// `(name, unit)` of every metric in one BENCHMARK.json section.
fn declared(m: &Value, section: &str) -> Vec<(String, String)> {
    m.get(section)
        .and_then(Value::as_array)
        .expect("section is an array")
        .iter()
        .map(|e| {
            let s = |k: &str| {
                e.get(k)
                    .and_then(Value::as_str)
                    .expect("string field")
                    .to_string()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

/// Run the benchmark at toy size with `extra` arguments appended.
fn perfbench(workload: &str, trace: bool, seconds: &str, extra: &[&str]) -> std::process::Output {
    let work = std::env::temp_dir().join(format!(
        "perfbench-smoke-{}-{workload}-{trace}-{seconds}",
        std::process::id()
    ));
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            seconds,
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--toy")
        .arg("--work-dir")
        .arg(&work)
        .args(extra)
        .output()
        .expect("spawn perfbench");
    let _ = std::fs::remove_dir_all(&work);
    out
}

fn run(workload: &str, trace: bool) -> Value {
    let out = perfbench(workload, trace, "1", &[]);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} (trace {trace}) exited {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    assert!(
        stdout.contains("# provenance {"),
        "{workload}: no provenance block"
    );
    serde_json::from_str(last).expect("result line is JSON")
}

#[test]
fn every_workload_reports_every_declared_metric() {
    let m = manifest();
    let names: Vec<String> = m
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    // airfoil-paper runs but is not declared (see README.md).
    assert_eq!(names, &WORKLOADS[1..], "BENCHMARK.json workloads");
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = declared(&m, section);
        for w in WORKLOADS {
            let r = run(w, trace);
            assert_eq!(
                r.get("correct"),
                Some(&Value::Bool(true)),
                "{w}: correctness checks failed"
            );
            assert_eq!(
                r.get("failed").and_then(Value::as_u64),
                Some(0),
                "{w}: failed operations"
            );
            assert!(
                r.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1,
                "{w}: nothing attempted"
            );
            let got: Vec<(String, String)> = r
                .get("metrics")
                .and_then(Value::as_object)
                .expect("metrics object")
                .iter()
                .map(|(k, v)| {
                    assert!(
                        v.get("value").and_then(Value::as_f64).is_some(),
                        "{w}: {k} has no numeric value"
                    );
                    (
                        k.clone(),
                        v.get("unit")
                            .and_then(Value::as_str)
                            .expect("unit")
                            .to_string(),
                    )
                })
                .collect();
            assert_eq!(got, want, "{w}: {section} metric names/units");
            if !trace {
                for (k, v) in r
                    .get("metrics")
                    .and_then(Value::as_object)
                    .expect("metrics")
                {
                    let x = v.get("value").and_then(Value::as_f64).expect("value");
                    assert!(
                        x > 0.0,
                        "{w}: end-to-end metric {k} must be positive, got {x}"
                    );
                }
            }
        }
    }
}

#[test]
fn deadline_ends_a_stalled_run_and_names_the_stage() {
    // A 30 s march under a 1 s deadline stands in for a stall.
    let out = perfbench("airfoil-fine", false, "30", &["--deadline", "1"]);
    assert_eq!(out.status.code(), Some(3), "watchdog exit code");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 output");
    let last: Value = serde_json::from_str(stdout.lines().last().expect("a result line"))
        .expect("result line is JSON");
    assert_eq!(last.get("correct"), Some(&Value::Bool(false)));
    assert_eq!(last.get("failed").and_then(Value::as_u64), Some(1));
    assert!(
        stderr.contains("DEADLINE: workload airfoil-fine")
            && (stderr.contains("hung in stage 'airfoil-fine: march")
                || stderr.contains("hung in stage 'airfoil-fine: setup'")),
        "stderr must name the workload and the stage (march backend or setup) that hung:\n{stderr}"
    );
}
