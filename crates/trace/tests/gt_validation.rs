//! Validates the interval inference (Criteria 1–3, consuming only the
//! lifecycle sequence) against the VM's ground-truth instance bookkeeping
//! and against the paper's Figure-4 search ([`figure4`]), across
//! randomized interrupt schedules. This is the strongest check that the
//! inference is exact.

mod figure4;

use sentomist_trace::{extract, CounterTable, Recorder};
use std::sync::Arc;
use tinyvm::devices::{AdcConfig, NodeConfig};
use tinyvm::node::Node;

/// A stress application exercising every concurrency feature at once:
/// two timers at co-prime periods, ADC conversions with jitter, tasks of
/// data-dependent duration, tasks posting tasks, and handler nesting.
const STRESS_APP: &str = "\
.handler TIMER0 t0_fire
.handler TIMER1 t1_fire
.handler ADC adc_ready
.task work_a
.task work_b
.task work_c
.data scratch 4
main:
 ldi r1, 3            ; 768 cycles
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ldi r1, 7            ; 1792 cycles
 out TIMER1_PERIOD, r1
 ldi r1, 1
 out TIMER1_CTRL, r1
 ret

t0_fire:
 in r1, RAND
 andi_equiv:          ; keep low bits via shifts (no andi op with imm reg)
 ldi r2, 3
 and r1, r2
 cmpi r1, 0
 breq t0_done         ; 1/4 of fires post nothing
 post work_a
 cmpi r1, 3
 brne t0_done
 post work_b          ; 1/4 post two tasks
t0_done:
 reti

t1_fire:
 ldi r1, 1
 out ADC_CTRL, r1     ; kick a conversion
 post work_c
 reti

adc_ready:
 in r1, ADC_DATA
 sta scratch, r1
 reti

work_a:
 in r3, RAND
 ldi r4, 0x00FF
 and r3, r4
 addi r3, 40
wa_loop:
 subi r3, 1
 brne wa_loop
 ret

work_b:
 in r3, RAND
 ldi r4, 0x007F
 and r3, r4
 addi r3, 16
wb_loop:
 subi r3, 1
 brne wb_loop
 in r3, RAND
 ldi r4, 1
 and r3, r4
 cmpi r3, 1
 brne wb_done
 post work_c          ; occasionally chain a task
wb_done:
 ret

work_c:
 ldi r3, 60
wc_loop:
 subi r3, 1
 brne wc_loop
 ret
";

fn run_stress(seed: u64, cycles: u64) -> (Node, sentomist_trace::Trace) {
    let program = Arc::new(tinyvm::assemble(STRESS_APP).expect("stress app assembles"));
    let mut node = Node::new(
        program.clone(),
        NodeConfig {
            seed,
            adc: AdcConfig {
                latency_cycles: 300,
                jitter_cycles: 500,
                sensor_base: 70,
                sensor_noise: 10,
            },
            ..NodeConfig::default()
        },
    );
    let mut rec = Recorder::new(program.len());
    node.run(cycles, &mut rec).expect("stress app runs clean");
    (node, rec.into_trace())
}

#[test]
fn inference_matches_ground_truth_across_seeds() {
    for seed in 0..20u64 {
        let (node, trace) = run_stress(seed, 400_000);
        let x = extract(&trace).expect("well-formed trace");
        assert_eq!(
            figure4::extract(&trace).expect("Figure 4 accepts the trace"),
            x,
            "seed {seed}: the tracker and Figure 4 disagree"
        );
        let gt = node.ground_truth();

        let complete_gt: Vec<_> = gt.iter().filter(|g| g.is_complete()).collect();
        assert_eq!(
            x.intervals.len(),
            complete_gt.len(),
            "seed {seed}: complete interval counts differ"
        );
        let open_gt = gt.len() - complete_gt.len();
        assert_eq!(
            x.incomplete, open_gt,
            "seed {seed}: incomplete counts differ"
        );

        for (inferred, truth) in x.intervals.iter().zip(complete_gt.iter()) {
            assert_eq!(inferred.start_index, truth.start_index, "seed {seed}");
            assert_eq!(inferred.irq, truth.irq, "seed {seed}");
            assert_eq!(
                inferred.end_index,
                truth.end_index.expect("complete"),
                "seed {seed}: interval starting at {} ends differently",
                inferred.start_index
            );
            assert_eq!(
                inferred.task_count, truth.task_count,
                "seed {seed}: task counts differ at {}",
                inferred.start_index
            );
            assert_eq!(inferred.start_cycle, truth.start_cycle, "seed {seed}");
            assert_eq!(
                inferred.end_cycle,
                truth.end_cycle.expect("complete"),
                "seed {seed}"
            );
        }
    }
}

#[test]
fn stress_app_produces_rich_interleavings() {
    // Sanity: the stress workload actually exercises nesting and chaining,
    // otherwise the validation above proves little.
    let mut saw_nested = false;
    let mut saw_chain = false;
    let mut saw_overlap = false;
    for seed in 0..20u64 {
        let (_, trace) = run_stress(seed, 400_000);
        let x = extract(&trace).unwrap();
        // Nested: an Int strictly inside another instance's [start, end].
        for w in x.intervals.windows(2) {
            if w[1].start_index > w[0].start_index && w[1].end_index < w[0].end_index {
                saw_overlap = true;
            }
        }
        let mut depth = 0;
        for e in &trace.events {
            match e.item {
                tinyvm::LifecycleItem::Int(_) => {
                    depth += 1;
                    if depth > 1 {
                        saw_nested = true;
                    }
                }
                tinyvm::LifecycleItem::Reti => depth -= 1,
                _ => {}
            }
        }
        if x.intervals.iter().any(|iv| iv.task_count >= 2) {
            saw_chain = true;
        }
    }
    assert!(saw_nested, "no nested handlers observed");
    assert!(saw_chain, "no multi-task instances observed");
    assert!(saw_overlap, "no overlapping intervals observed");
}

#[test]
fn counters_cover_all_instructions_within_span() {
    let (_, trace) = run_stress(7, 200_000);
    let x = extract(&trace).unwrap();
    let table = CounterTable::try_new(&trace).unwrap();
    let mut row = vec![0.0; table.dimension()];
    for iv in &x.intervals {
        table.try_features_into(iv, &mut row).unwrap();
        let total: f64 = row.iter().sum();
        if iv.end_index > iv.start_index {
            assert!(
                total > 0.0,
                "non-degenerate interval should contain instructions"
            );
        }
    }
}
