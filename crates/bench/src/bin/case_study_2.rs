//! Regenerates Figure 5(b): the suspicion ranking of packet-arrival
//! intervals at the relay of a three-node forwarding chain (case II).
//!
//! Paper setup: 20-second run, 195 intervals, exactly 3 of them actively
//! dropped a packet due to the busy flag; Sentomist ranked those as the
//! top three.
//!
//! After the canonical single-seed figure, a seed-sweep campaign reruns
//! the whole case under independent seeds and reports the detection rate.
//!
//! Run with: `cargo run --release -p sentomist-bench --bin case_study_2`
//! Optional arguments: `[threads] [seeds]` (defaults 1 and 8).

use sentomist_apps::{Case2Config, Mode};
use sentomist_core::supervise::{run_supervised, SupervisorOptions};
use std::sync::Arc;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let threads: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(1);
    let n_seeds: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(8);

    let result = Case2Config::default().study()?.run()?.0;
    print!(
        "{}",
        sentomist_bench::render_case(
            "Figure 5(b) — case study II: busy-flag packet drop (SPI interrupt)",
            195,
            "the 3 drop symptoms ranked 1, 2, 3",
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
        Arc::new(sentomist_bench::outcome_job(Mode::Case2)?),
        |_| {},
    );
    println!();
    print!(
        "{}",
        sentomist_bench::render_campaign(
            "Case study II seed sweep",
            &campaign,
            "sentomist campaign --case 2 --replay --seed <seed>",
        )
    );
    Ok(())
}
