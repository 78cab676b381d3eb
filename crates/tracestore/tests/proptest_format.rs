//! Property tests for the `.stc` trace format: arbitrary traces must
//! round-trip losslessly, and *no* corruption of a valid file — truncation
//! at any byte, a single flipped bit anywhere — may decode silently or
//! panic. Every such mutation must surface as a typed [`StoreError`], and
//! salvage must recover a protocol-valid true prefix of the original.

use proptest::prelude::*;
use sentomist_trace::{Trace, TraceEvent};
use sentomist_tracestore::{read_trace, write_trace, StoreError, TraceView};
use tinyvm::{LifecycleItem, TaskId};

fn item_strategy() -> impl Strategy<Value = LifecycleItem> {
    prop_oneof![
        (0u8..8).prop_map(LifecycleItem::Int),
        Just(LifecycleItem::Reti),
        (0u16..5).prop_map(|t| LifecycleItem::PostTask(TaskId(t))),
        (0u16..5).prop_map(|t| LifecycleItem::RunTask(TaskId(t))),
        (0u16..5).prop_map(|t| LifecycleItem::TaskEnd(TaskId(t))),
    ]
}

/// A protocol-valid trace (`segments == events + 1`) with monotone cycle
/// stamps, sparse counter segments, and occasional extreme values (zero
/// deltas, huge deltas, `u32::MAX` counters).
fn trace_strategy() -> impl Strategy<Value = Trace> {
    (1usize..24).prop_flat_map(|program_len| {
        let gaps = prop::collection::vec(
            (
                prop_oneof![Just(0u64), 1u64..500, 1_000_000u64..5_000_000_000,],
                item_strategy(),
            ),
            0..20,
        );
        gaps.prop_flat_map(move |gaps| {
            let count = prop_oneof![Just(0u32), 1u32..100, Just(u32::MAX),];
            let segment = prop::collection::vec(count, program_len..=program_len);
            prop::collection::vec(segment, gaps.len() + 1..=gaps.len() + 1).prop_map(
                move |segments| {
                    let mut cycle = 0u64;
                    let events = gaps
                        .iter()
                        .map(|&(gap, item)| {
                            cycle += gap;
                            TraceEvent { cycle, item }
                        })
                        .collect();
                    Trace {
                        events,
                        segments,
                        program_len,
                    }
                },
            )
        })
    })
}

fn encode(trace: &Trace) -> Vec<u8> {
    let mut out = Vec::new();
    write_trace(&mut out, trace).expect("encoding a valid trace");
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arbitrary_traces_round_trip(trace in trace_strategy()) {
        let bytes = encode(&trace);
        let decoded = read_trace(&bytes[..]).expect("decoding what we just wrote");
        prop_assert_eq!(&decoded, &trace);
        prop_assert_eq!(decoded.digest(), trace.digest());
    }

    #[test]
    fn truncation_at_every_byte_is_a_typed_error(trace in trace_strategy()) {
        let bytes = encode(&trace);
        for cut in 0..bytes.len() {
            match read_trace(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => {
                    return Err(TestCaseError::fail(format!(
                        "prefix of {cut}/{} bytes decoded as a full trace",
                        bytes.len()
                    )));
                }
            }
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error(
        trace in trace_strategy(),
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 32..=32),
    ) {
        let bytes = encode(&trace);
        for (pos, bit) in flips {
            let pos = pos % bytes.len();
            let mut mutated = bytes.clone();
            mutated[pos] ^= 1 << bit;
            match read_trace(&mutated[..]) {
                Err(_) => {}
                Ok(decoded) => {
                    // The flip must not pass undetected: a "successful"
                    // decode that still equals the original can only mean
                    // the flip was a no-op, which the codec never allows.
                    return Err(TestCaseError::fail(format!(
                        "bit {bit} of byte {pos}/{} flipped, yet the file \
                         decoded {} events / {} segments without an error",
                        bytes.len(),
                        decoded.events.len(),
                        decoded.segments.len()
                    )));
                }
            }
        }
    }

    #[test]
    fn flipping_any_header_byte_is_rejected(trace in trace_strategy()) {
        let bytes = encode(&trace);
        // The 12 header bytes are the only ones outside a checksummed
        // payload or the chunk framing; exhaust all 96 flips every case.
        for pos in 0..12 {
            for bit in 0..8 {
                let mut mutated = bytes.clone();
                mutated[pos] ^= 1 << bit;
                prop_assert!(
                    read_trace(&mutated[..]).is_err(),
                    "header byte {} bit {} flipped undetected",
                    pos,
                    bit
                );
            }
        }
    }

    #[test]
    fn salvage_recovers_a_true_protocol_valid_prefix(
        trace in trace_strategy(),
        damage in (0u8..3, 0usize..1 << 16, 0u8..8),
    ) {
        let bytes = encode(&trace);
        let mut damaged = bytes.clone();
        match damage {
            (0, at, _) => damaged.truncate(at % (bytes.len() + 1)),
            (1, at, bit) => damaged[at % bytes.len()] ^= 1 << bit,
            _ => {} // left intact
        }
        let decoded = read_trace(&damaged);
        let Ok(view) = TraceView::new(&damaged) else {
            prop_assert!(decoded.is_err(), "header rejected, yet read_trace decoded");
            return Ok(());
        };
        let salvage = view.salvage();
        let t = &salvage.trace;
        prop_assert_eq!(t.segments.len(), t.events.len() + 1);
        prop_assert_eq!(Some(&t.events[..]), trace.events.get(..t.events.len()));
        if salvage.recovered_segments == 0 {
            // Nothing survived: the canonical empty trace.
            prop_assert_eq!(&t.segments, &vec![vec![0; t.program_len]]);
        } else if t.program_len == trace.program_len {
            prop_assert_eq!(Some(&t.segments[..]), trace.segments.get(..t.segments.len()));
        } else {
            // The header sits outside every checksum: a flipped
            // program-length bit re-widths the segments, and only the
            // end-chunk digest (seeded with the length) catches it.
            prop_assert!(!salvage.complete, "re-widthed segments verified");
        }
        prop_assert_eq!(salvage.complete, decoded.is_ok());
        if let Ok(decoded) = decoded {
            prop_assert_eq!(&salvage.trace, &decoded);
        }
    }
}

#[test]
fn known_corruptions_map_to_their_error_variants() {
    let trace = Trace {
        events: vec![TraceEvent {
            cycle: 40,
            item: LifecycleItem::Int(1),
        }],
        segments: vec![vec![3, 0], vec![0, 9]],
        program_len: 2,
    };
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &trace).unwrap();

    let mut magic = bytes.clone();
    magic[1] ^= 0x01;
    assert!(matches!(read_trace(&magic[..]), Err(StoreError::BadMagic)));

    let mut version = bytes.clone();
    version[4] = 0x7F;
    assert!(matches!(
        read_trace(&version[..]),
        Err(StoreError::UnsupportedVersion(0x7F))
    ));

    let mut flags = bytes.clone();
    flags[6] = 0x02;
    assert!(matches!(
        read_trace(&flags[..]),
        Err(StoreError::Corrupt(_))
    ));

    let mut plen = bytes.clone();
    plen[11] = 0x80; // program_len 2 -> 2 + 2^31: implausible
    assert!(matches!(read_trace(&plen[..]), Err(StoreError::Corrupt(_))));

    // A plausible program length passes the unchecksummed header; only
    // the end-chunk digest catches it. Salvage keeps every record, but
    // decoded three counters wide.
    let mut plausible = bytes.clone();
    plausible[8] ^= 0x01; // program_len 2 -> 3
    assert!(matches!(
        read_trace(&plausible[..]),
        Err(StoreError::DigestMismatch { .. })
    ));
    let salvage = TraceView::new(&plausible).unwrap().salvage();
    assert!(!salvage.complete);
    assert_eq!(salvage.trace.segments, vec![vec![3, 0, 0], vec![0, 9, 0]]);

    let mut payload = bytes.clone();
    payload[12 + 5] ^= 0x40; // first byte of the first chunk payload
    assert!(matches!(
        read_trace(&payload[..]),
        Err(StoreError::ChecksumMismatch { chunk: 0 })
    ));

    bytes.truncate(bytes.len() - 1);
    assert!(matches!(
        read_trace(&bytes[..]),
        Err(StoreError::Truncated { .. })
    ));
}
