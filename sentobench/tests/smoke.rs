//! Smoke test: every workload, shortened to a one-second window, run
//! through the real binary in its all-workloads mode, timed and traced.
//! Each run must print every metric `BENCHMARK.json` names, with no
//! failed operation.
//!
//! Run with `cargo test --manifest-path sentobench/Cargo.toml`.

use std::path::Path;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["campaign-ctp", "remine-osc", "remine-ctp", "daemon-mix"];

fn repo_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
}

/// Metric names of one `BENCHMARK.json` section (`end_to_end` or
/// `per_layer`).
fn declared(section: &str) -> Vec<String> {
    let spec = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = spec
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} section"));
    let body = &spec[start..];
    let body = &body[..body.find(']').expect("section is a JSON array")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("closing quote")].to_string())
        .collect()
}

/// Runs all workloads in one invocation and returns their result lines.
fn run_all(trace: &str) -> Vec<String> {
    let daemon = Path::new(env!("CARGO_BIN_EXE_sentomistd"));
    assert!(
        daemon.is_file(),
        "the sibling daemon {} is missing; build the sentobench package's binaries",
        daemon.display()
    );
    let out = Command::new(env!("CARGO_BIN_EXE_sentobench"))
        .args(["--seed", "3", "--seconds", "1", "--trace", trace])
        .current_dir(repo_root())
        .output()
        .expect("sentobench starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "sentobench --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let results: Vec<String> = stdout
        .lines()
        .filter(|l| l.starts_with('{'))
        .map(str::to_string)
        .collect();
    assert_eq!(
        results.len(),
        WORKLOADS.len(),
        "one result per workload:\n{stdout}"
    );
    results
}

fn check(trace: &str, section: &str) {
    let names = declared(section);
    assert!(!names.is_empty());
    for (workload, line) in WORKLOADS.iter().zip(run_all(trace)) {
        assert!(
            line.starts_with("{\"correct\": true,") && line.contains("\"failed\": 0,"),
            "{workload}: failed operations in {line}"
        );
        for name in &names {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{workload}: metric {name} missing from {line}"
            );
        }
    }
}

#[test]
fn timed_runs_print_every_end_to_end_metric() {
    check("0", "end_to_end");
}

#[test]
fn traced_runs_print_every_per_layer_metric() {
    check("1", "per_layer");
}
