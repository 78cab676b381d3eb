//! Property tests for the VM core: arithmetic against a Rust reference
//! model, stack discipline, assembler/encoder agreement, determinism
//! under randomized device timing, and the soundness of
//! `Node::parked_until`.

use proptest::prelude::*;
use std::sync::Arc;
use tinyvm::devices::NodeConfig;
use tinyvm::node::Node;
use tinyvm::{assemble, LifecycleItem, NullSink, Packet, Program, TraceSink};

/// Straight-line arithmetic ops our reference model mirrors.
#[derive(Debug, Clone, Copy)]
enum ArithOp {
    Ldi(u8, u16),
    Add(u8, u8),
    Sub(u8, u8),
    And(u8, u8),
    Or(u8, u8),
    Xor(u8, u8),
    Mul(u8, u8),
    Addi(u8, u16),
    Subi(u8, u16),
    Shl(u8, u8),
    Shr(u8, u8),
    Mov(u8, u8),
}

fn arith_op() -> impl Strategy<Value = ArithOp> {
    // Use registers r1..r8 to leave r0 as a scratch zero.
    let reg = 1u8..9;
    prop_oneof![
        (reg.clone(), any::<u16>()).prop_map(|(r, v)| ArithOp::Ldi(r, v)),
        (reg.clone(), 1u8..9).prop_map(|(a, b)| ArithOp::Add(a, b)),
        (reg.clone(), 1u8..9).prop_map(|(a, b)| ArithOp::Sub(a, b)),
        (reg.clone(), 1u8..9).prop_map(|(a, b)| ArithOp::And(a, b)),
        (reg.clone(), 1u8..9).prop_map(|(a, b)| ArithOp::Or(a, b)),
        (reg.clone(), 1u8..9).prop_map(|(a, b)| ArithOp::Xor(a, b)),
        (reg.clone(), 1u8..9).prop_map(|(a, b)| ArithOp::Mul(a, b)),
        (reg.clone(), any::<u16>()).prop_map(|(r, v)| ArithOp::Addi(r, v)),
        (reg.clone(), any::<u16>()).prop_map(|(r, v)| ArithOp::Subi(r, v)),
        (reg.clone(), 0u8..16).prop_map(|(r, s)| ArithOp::Shl(r, s)),
        (reg.clone(), 0u8..16).prop_map(|(r, s)| ArithOp::Shr(r, s)),
        (reg, 1u8..9).prop_map(|(a, b)| ArithOp::Mov(a, b)),
    ]
}

fn render(ops: &[ArithOp]) -> String {
    let mut src = String::from("main:\n");
    for op in ops {
        let line = match *op {
            ArithOp::Ldi(r, v) => format!(" ldi r{r}, {v}"),
            ArithOp::Add(a, b) => format!(" add r{a}, r{b}"),
            ArithOp::Sub(a, b) => format!(" sub r{a}, r{b}"),
            ArithOp::And(a, b) => format!(" and r{a}, r{b}"),
            ArithOp::Or(a, b) => format!(" or r{a}, r{b}"),
            ArithOp::Xor(a, b) => format!(" xor r{a}, r{b}"),
            ArithOp::Mul(a, b) => format!(" mul r{a}, r{b}"),
            ArithOp::Addi(r, v) => format!(" addi r{r}, {v}"),
            ArithOp::Subi(r, v) => format!(" subi r{r}, {v}"),
            ArithOp::Shl(r, s) => format!(" shl r{r}, {s}"),
            ArithOp::Shr(r, s) => format!(" shr r{r}, {s}"),
            ArithOp::Mov(a, b) => format!(" mov r{a}, r{b}"),
        };
        src.push_str(&line);
        src.push('\n');
    }
    src.push_str(" halt\n");
    src
}

fn reference(ops: &[ArithOp]) -> [u16; 16] {
    let mut r = [0u16; 16];
    for op in ops {
        match *op {
            ArithOp::Ldi(d, v) => r[d as usize] = v,
            ArithOp::Add(a, b) => r[a as usize] = r[a as usize].wrapping_add(r[b as usize]),
            ArithOp::Sub(a, b) => r[a as usize] = r[a as usize].wrapping_sub(r[b as usize]),
            ArithOp::And(a, b) => r[a as usize] &= r[b as usize],
            ArithOp::Or(a, b) => r[a as usize] |= r[b as usize],
            ArithOp::Xor(a, b) => r[a as usize] ^= r[b as usize],
            ArithOp::Mul(a, b) => r[a as usize] = r[a as usize].wrapping_mul(r[b as usize]),
            ArithOp::Addi(d, v) => r[d as usize] = r[d as usize].wrapping_add(v),
            ArithOp::Subi(d, v) => r[d as usize] = r[d as usize].wrapping_sub(v),
            ArithOp::Shl(d, s) => r[d as usize] <<= s,
            ArithOp::Shr(d, s) => r[d as usize] >>= s,
            ArithOp::Mov(a, b) => r[a as usize] = r[b as usize],
        }
    }
    r
}

proptest! {
    #[test]
    fn arithmetic_matches_reference(ops in prop::collection::vec(arith_op(), 0..60)) {
        let src = render(&ops);
        let program = Arc::new(assemble(&src).expect("generated source assembles"));
        prop_assert_eq!(program.len(), ops.len() + 1);
        let mut node = Node::new(program.clone(), NodeConfig::default());
        // Dump registers by storing them — instead, run and inspect via a
        // final memory dump: store r1..r8 into data words.
        // Simpler: rely on Node::mem? Registers are not memory; re-run with
        // stores appended.
        let mut src2 = String::from(".data dump 8\nmain:\n");
        src2.push_str(src.trim_start_matches("main:\n").trim_end_matches(" halt\n"));
        for r in 1..9 {
            src2.push_str(&format!(" sta dump+{}, r{}\n", r - 1, r));
        }
        src2.push_str(" halt\n");
        let program2 = Arc::new(assemble(&src2).expect("instrumented source assembles"));
        let mut node2 = Node::new(program2.clone(), NodeConfig::default());
        node2.run(1_000_000, &mut NullSink).unwrap();
        prop_assert!(node2.halted());
        let expect = reference(&ops);
        let dump = program2.label("dump").unwrap() as usize;
        for (r, &want) in expect.iter().enumerate().take(9).skip(1) {
            prop_assert_eq!(node2.mem()[dump + r - 1], want, "r{}", r);
        }
        // The uninstrumented program also halts cleanly.
        node.run(1_000_000, &mut NullSink).unwrap();
        prop_assert!(node.halted());
    }

    #[test]
    fn push_pop_is_lifo(values in prop::collection::vec(any::<u16>(), 1..12)) {
        let mut src = String::from(".data out 12\nmain:\n");
        for v in &values {
            src.push_str(&format!(" ldi r1, {v}\n push r1\n"));
        }
        for i in 0..values.len() {
            src.push_str(&format!(" pop r2\n sta out+{i}, r2\n"));
        }
        src.push_str(" halt\n");
        let program = Arc::new(assemble(&src).unwrap());
        let mut node = Node::new(program.clone(), NodeConfig::default());
        node.run(1_000_000, &mut NullSink).unwrap();
        let out = program.label("out").unwrap() as usize;
        for (i, v) in values.iter().rev().enumerate() {
            prop_assert_eq!(node.mem()[out + i], *v);
        }
    }

    #[test]
    fn timer_fire_count_matches_period(period in 1u16..200, horizon in 10_000u64..400_000) {
        let src = format!("\
.handler TIMER0 h
.data n 1
main:
 ldi r1, {period}
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
h:
 lda r1, n
 addi r1, 1
 sta n, r1
 reti
");
        let program = Arc::new(assemble(&src).unwrap());
        let mut node = Node::new(program.clone(), NodeConfig::default());
        node.run(horizon, &mut NullSink).unwrap();
        let fired = node.mem()[program.label("n").unwrap() as usize] as u64;
        let period_cycles = u64::from(period) * 256;
        let expected = horizon / period_cycles;
        // Handler latency may defer the last fire past the horizon.
        prop_assert!(fired <= expected);
        prop_assert!(fired + 2 >= expected, "fired {} expected {}", fired, expected);
    }

    #[test]
    fn node_is_deterministic_for_any_seed(seed in any::<u64>()) {
        let src = "\
.handler TIMER0 h
.task t
main:
 ldi r1, 2
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
 ret
h:
 in r2, RAND
 ldi r3, 31
 and r2, r3
 cmpi r2, 0
 breq skip
 post t
skip:
 reti
t:
 in r4, RAND
 ldi r5, 63
 and r4, r5
 addi r4, 1
spin:
 subi r4, 1
 brne spin
 ret
";
        let program = Arc::new(assemble(src).unwrap());
        let run = |seed: u64| {
            let mut node = Node::new(
                program.clone(),
                NodeConfig { seed, ..NodeConfig::default() },
            );
            node.run(100_000, &mut NullSink).unwrap();
            (node.instructions_retired(), node.cycle())
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}

proptest! {
    #[test]
    fn decode_encode_is_idempotent(word in any::<u32>()) {
        // Arbitrary words may be invalid; but whenever a word decodes, the
        // decoded instruction must re-encode to something that decodes to
        // the same instruction (canonicalization fixpoint).
        if let Ok(op) = tinyvm::decode(word) {
            let canonical = tinyvm::encode(op);
            prop_assert_eq!(tinyvm::decode(canonical), Ok(op));
            // And canonical forms are stable.
            prop_assert_eq!(tinyvm::encode(tinyvm::decode(canonical).unwrap()), canonical);
        }
    }

    #[test]
    fn generated_programs_encode_round_trip(ops in prop::collection::vec(arith_op(), 1..40)) {
        let src = render(&ops);
        let program = assemble(&src).unwrap();
        for &op in &program.ops {
            let w = tinyvm::encode(op);
            prop_assert_eq!(tinyvm::decode(w), Ok(op));
        }
        // The disassembly mentions every op's mnemonic line count.
        let listing = tinyvm::disassemble(&program);
        prop_assert_eq!(listing.lines().filter(|l| l.starts_with("  ")).count(), program.len());
    }
}

/// Records every lifecycle item and segment a node emits.
#[derive(Debug, Clone, Default, PartialEq)]
struct VecSink {
    items: Vec<(u64, LifecycleItem)>,
    segments: Vec<Vec<u32>>,
}

impl TraceSink for VecSink {
    fn lifecycle(&mut self, cycle: u64, item: LifecycleItem) {
        self.items.push((cycle, item));
    }
    fn segment(&mut self, counts: &[u32]) {
        self.segments.push(counts.to_vec());
    }
}

/// A timer handler posting a task of random length and an RX handler;
/// with `sleepy`, `main` instead sleeps between ticks and never returns
/// to the scheduler, so the handler posts nothing.
fn parking_program(period: u16, sleepy: bool) -> Arc<Program> {
    let (main_tail, post) = if sleepy {
        ("nap:\n sleep\n jmp nap\n", "")
    } else {
        (" ret\n", " post t\n")
    };
    Arc::new(
        assemble(&format!(
            "\
.handler TIMER0 h
.handler RX on_rx
.task t
main:
 ldi r1, {period}
 out TIMER0_PERIOD, r1
 ldi r1, 1
 out TIMER0_CTRL, r1
{main_tail}h:
{post} reti
on_rx:
 in r1, RADIO_RX_POP
 out UART_OUT, r1
 reti
t:
 in r4, RAND
 ldi r5, 63
 and r4, r5
 addi r4, 1
spin:
 subi r4, 1
 brne spin
 ret
"
        ))
        .unwrap(),
    )
}

/// Cycles each `parked_until` case emulates.
const PARK_HORIZON: u64 = 200_000;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whenever `parked_until` is `Some(c)`, advancing a clone to any
    /// `limit <= c` emits nothing, retires nothing and ends at
    /// `max(cycle, limit)`; and the clone's future from there equals the
    /// original's, so such calls may be deferred or skipped. The node is
    /// walked one cycle at a time while it has work, so the predicate is
    /// asked in every state `advance` can stop in: inside a handler or
    /// task, between a `reti` and the task it posted, with a line pending
    /// behind the handler in service, and just past a due event.
    #[test]
    fn parked_until_promises_a_pure_advance(
        period in 1u16..60,
        sleepy in any::<bool>(),
        seed in any::<u64>(),
        rx in prop::collection::vec((0u64..PARK_HORIZON, 1u16..4, 1usize..4), 0..12),
        picks in prop::collection::vec(any::<u64>(), 1..16),
    ) {
        let mut node = Node::new(
            parking_program(period, sleepy),
            NodeConfig { seed, ..NodeConfig::default() },
        );
        for &(at, len, burst) in &rx {
            for _ in 0..burst {
                node.inject_rx(at, Packet { src: 9, dest: 0, payload: vec![7; len as usize] });
            }
        }
        let mut picks = picks.iter().cycle();
        while node.cycle() < PARK_HORIZON {
            let Some(c) = node.parked_until() else {
                node.advance(node.cycle() + 1, &mut NullSink).unwrap();
                continue;
            };
            prop_assert!(c > node.cycle());
            // Mostly limits past the node's cycle, where `advance` would
            // have time to do work; a few at or before it.
            let from = node.cycle().saturating_sub(16);
            let limit = from + picks.next().unwrap() % (c.min(node.cycle() + 100_000) - from + 1);
            let mut parked = node.clone();
            let mut sink = VecSink::default();
            parked.advance(limit, &mut sink).unwrap();
            prop_assert_eq!(&sink, &VecSink::default());
            prop_assert_eq!(parked.instructions_retired(), node.instructions_retired());
            prop_assert_eq!(parked.cycle(), node.cycle().max(limit));

            let horizon = parked.cycle() + 2_000;
            let mut direct = node.clone();
            let mut direct_sink = VecSink::default();
            direct.advance(horizon, &mut direct_sink).unwrap();
            parked.advance(horizon, &mut sink).unwrap();
            prop_assert_eq!(&sink, &direct_sink);
            prop_assert_eq!(parked.cycle(), direct.cycle());
            prop_assert_eq!(parked.instructions_retired(), direct.instructions_retired());
            prop_assert_eq!(parked.uart(), direct.uart());

            node.advance(c.min(PARK_HORIZON), &mut NullSink).unwrap();
        }
    }
}
