//! Case study II end-to-end: the busy-flag packet-drop bug in a
//! three-node forwarding chain (paper Section VI-C), with a side-by-side
//! run of the fixed relay to show the loss disappearing.
//!
//! Run with: `cargo run --release --example multihop_forwarding`

use sentomist::apps::Case2Config;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = Case2Config::default();
    println!(
        "3-node chain (source -> relay -> sink), {} s, randomized gaps\n",
        config.run_seconds
    );
    let result = config.study()?.run()?.0;

    println!(
        "Relay handled {} packet-arrival intervals (paper: 195).",
        result.sample_count
    );
    println!("Ranking (Figure 5(b) format):");
    print!("{}", result.report.table(7, 2));
    println!(
        "\nGround truth: {} arrivals were actively dropped by the busy-flag \
         bug, ranked {:?} (paper: 3 drops, ranked top-3).",
        result.buggy.len(),
        result.buggy_ranks
    );
    println!(
        "From the outside these losses are indistinguishable from ordinary \
         wireless losses — the instruction-counter outliers expose them."
    );

    // The fix: defer the packet until sendDone instead of dropping.
    let fixed = Case2Config {
        use_fixed: true,
        ..config
    }
    .study()?
    .run()?
    .0;
    println!(
        "\nFixed relay under the same workload: {} arrivals, {} drops.",
        fixed.sample_count,
        fixed.buggy.len()
    );
    Ok(())
}
