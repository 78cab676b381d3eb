//! Live monitoring with the streaming extractor: instead of recording a
//! full trace and anatomizing it afterwards, track event-procedure
//! instances *as the node runs* — memory stays bounded by concurrent
//! activity, not by trace length. Suspicious intervals can then be
//! re-scored periodically (here: once, at the end of a monitoring window).
//!
//! Run with: `cargo run --release --example online_monitoring`

use sentomist::apps::oscilloscope::{self, OscilloscopeParams};
use sentomist::tinyvm::{self, devices::NodeConfig, node::Node, LifecycleItem, TraceSink};
use sentomist::trace::{EventInterval, ExtractError, OnlineExtractor};

/// A sink that feeds the streaming extractor directly — no trace is
/// stored; only completed intervals (and their rolling statistics) are.
struct LiveMonitor {
    extractor: OnlineExtractor,
    index: usize,
    completed: Vec<EventInterval>,
    /// The first item the tracker rejected; tracking stops there.
    error: Option<ExtractError>,
    peak_open: usize,
    events_seen: usize,
}

impl TraceSink for LiveMonitor {
    fn lifecycle(&mut self, cycle: u64, item: LifecycleItem) {
        if self.error.is_none() {
            match self.extractor.feed(self.index, cycle, item) {
                Ok(done) => self.completed.extend(done),
                Err(e) => self.error = Some(e),
            }
        }
        self.index += 1;
        self.events_seen += 1;
        self.peak_open = self.peak_open.max(self.extractor.open_instances());
    }
    fn segment(&mut self, _counts: &[u32]) {
        // A live deployment would fold counts into per-open-instance
        // accumulators; this example monitors interval *shape* only
        // (duration and task counts), which already exposes the race.
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = OscilloscopeParams::with_period_ms(20);
    let program = oscilloscope::buggy(&params)?;
    let mut node = Node::new(
        program.clone(),
        NodeConfig {
            seed: 2,
            ..NodeConfig::default()
        },
    );
    let mut monitor = LiveMonitor {
        extractor: OnlineExtractor::new(),
        index: 0,
        completed: Vec::new(),
        error: None,
        peak_open: 0,
        events_seen: 0,
    };
    node.run(10_000_000, &mut monitor)?;
    if let Some(e) = monitor.error {
        return Err(e.into());
    }

    println!(
        "monitored 10 simulated seconds: {} lifecycle events, {} intervals \
         completed, peak {} instances open at once (memory bound).",
        monitor.events_seen,
        monitor.completed.len(),
        monitor.peak_open,
    );

    // Shape-only screening: for the ADC event type, flag intervals whose
    // lifetime dwarfs the population median — the race stretches the
    // posting instance across the entire delayed-send window.
    let mut adc: Vec<&EventInterval> = monitor
        .completed
        .iter()
        .filter(|iv| iv.irq == tinyvm::isa::irq::ADC)
        .collect();
    adc.sort_by_key(|iv| iv.end_cycle - iv.start_cycle);
    let median = adc[adc.len() / 2].end_cycle - adc[adc.len() / 2].start_cycle;
    println!(
        "\nADC intervals: {} (median lifetime {} cycles)",
        adc.len(),
        median
    );
    println!("longest-lived instances (live screening, no SVM yet):");
    for iv in adc.iter().rev().take(5) {
        let span = iv.end_cycle - iv.start_cycle;
        println!(
            "  start cycle {:>9}  lifetime {:>7} cycles ({:>5.1}x median)  tasks {}",
            iv.start_cycle,
            span,
            span as f64 / median as f64,
            iv.task_count,
        );
    }
    println!(
        "\nIn the full pipeline these screened instances (and their \
         instruction counters) would go to the plug-in detector; the \
         streaming tracker makes that possible on an open-ended run."
    );
    Ok(())
}
