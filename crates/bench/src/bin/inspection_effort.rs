//! Quantifies the paper's headline claim — "dramatically reduces the human
//! efforts of inspection ... otherwise we have to manually check
//! tremendous data samples, typically with brute-force inspection" — by
//! measuring how many intervals a tester inspects before reaching the bug
//! symptoms under Sentomist's ranking versus brute-force baselines.
//!
//! Run with: `cargo run --release -p sentomist-bench --bin inspection_effort`

use sentomist_apps::experiments::effort_summary;
use sentomist_apps::{Case1Config, Case2Config, Case3Config};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("=== Inspection effort: Sentomist ranking vs brute force ===\n");
    println!(
        "{:<8} {:>7} {:>5} {:>13} {:>11} {:>13} {:>14} {:>7} {:>7}",
        "case",
        "samples",
        "bugs",
        "ranked:first",
        "ranked:all",
        "chrono:first",
        "random:E[first]",
        "AUC",
        "AP"
    );
    let rows: Vec<(&str, sentomist_apps::CaseResult)> = vec![
        ("case-1", Case1Config::default().study()?.run()?.0),
        ("case-2", Case2Config::default().study()?.run()?.0),
        ("case-3", Case3Config::default().study()?.run()?.0),
    ];
    for (name, result) in &rows {
        let e = effort_summary(result);
        println!(
            "{:<8} {:>7} {:>5} {:>13} {:>11} {:>13} {:>14.1} {:>7.3} {:>7.3}",
            name,
            e.samples,
            e.positives,
            e.ranked_first.map(|v| v.to_string()).unwrap_or_default(),
            e.ranked_all.map(|v| v.to_string()).unwrap_or_default(),
            e.chrono_first.map(|v| v.to_string()).unwrap_or_default(),
            e.random_expected_first,
            e.auc,
            e.avg_precision,
        );
    }
    println!(
        "\nReading: with Sentomist a tester finds the first real symptom \
         after inspecting 1 interval; brute-force chronological or random \
         inspection costs tens to hundreds."
    );
    Ok(())
}
