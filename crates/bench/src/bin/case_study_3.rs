//! Regenerates Figure 5(c): the suspicion ranking of report-timer
//! intervals across the four source nodes of a 9-node collection tree
//! with a co-existing heartbeat protocol (case III).
//!
//! Paper setup: 15-second run, 95 intervals from 4 sensors; the single
//! unhandled-FAIL instance ([8, 20]) ranked 4th (two higher-ranked
//! instances were false alarms).
//!
//! After the canonical single-seed figure, a seed-sweep campaign reruns
//! the whole case under independent seeds and reports the detection rate.
//!
//! Run with: `cargo run --release -p sentomist-bench --bin case_study_3`
//! Optional arguments: `[threads] [seeds]` (defaults 1 and 8).

use sentomist_apps::{Case3Config, Mode};
use sentomist_core::supervise::{run_supervised, SupervisorOptions};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);
    let n_seeds: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let result = Case3Config::default().study()?.run()?.0;
    print!(
        "{}",
        sentomist_bench::render_case(
            "Figure 5(c) — case study III: unhandled send failure (timer interrupt)",
            95,
            "the hang instance [8, 20] ranked 4th",
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
        Arc::new(sentomist_bench::outcome_job(Mode::Case3)?),
        |_| {},
    );
    println!();
    print!(
        "{}",
        sentomist_bench::render_campaign(
            "Case study III seed sweep",
            &campaign,
            "sentomist campaign --case 3 --replay --seed <seed>",
        )
    );
    Ok(())
}
