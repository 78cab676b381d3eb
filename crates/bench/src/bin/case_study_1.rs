//! Regenerates Figure 5(a): the suspicion ranking of ADC event-handling
//! intervals in the single-hop data-collection application (case study I).
//!
//! Paper setup: five 10-second testing runs with sampling period
//! D ∈ {20, 40, 60, 80, 100} ms; 1099 intervals; the top-3 ranked
//! instances all contained the data-pollution race.
//!
//! After the canonical single-seed figure, a seed-sweep campaign reruns
//! the whole case under independent seeds and reports the detection rate.
//!
//! Run with: `cargo run --release -p sentomist-bench --bin case_study_1`
//! Optional arguments: `[threads] [seeds]` (defaults 1 and 8).

use sentomist_apps::{Case1Config, Mode};
use sentomist_core::supervise::{run_supervised, SupervisorOptions};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);
    let n_seeds: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let result = Case1Config::default().study()?.run()?.0;
    print!(
        "{}",
        sentomist_bench::render_case(
            "Figure 5(a) — case study I: data pollution (ADC interrupt)",
            1099,
            "top-3 inspected, all three confirmed the bug",
            &result,
        )
    );

    let seeds: Vec<u64> = (0..n_seeds).map(|i| 100 + i).collect();
    let campaign = run_supervised(
        &seeds,
        &SupervisorOptions {
            threads,
            progress: true,
            ..SupervisorOptions::default()
        },
        Arc::new(sentomist_bench::outcome_job(Mode::Case1)?),
        |_| {},
    );
    println!();
    print!(
        "{}",
        sentomist_bench::render_campaign(
            "Case study I seed sweep",
            &campaign,
            "sentomist campaign --case 1 --replay --seed <seed>",
        )
    );
    Ok(())
}
