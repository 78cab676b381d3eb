//! Instruction counters (paper Definition 4): featurizing event-handling
//! intervals as per-instruction execution-count vectors.
//!
//! The counter of an interval counts **every** instruction executed during
//! the interval's wall-clock span — including instructions run by *other*
//! event-procedure instances that interleaved with it. That spillover is
//! the mechanism by which buggy interleavings become visible: in the
//! paper's motivating example, the `readDone` instructions appear twice in
//! the counter of an interval whose posted send task was delayed past the
//! next ADC interrupt.
//!
//! Counters are computed from the trace's count segments with a prefix-sum
//! table, making each interval query O(program length).

use crate::extract::EventInterval;
use crate::recorder::Trace;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A structural defect in a trace or a counter query.
///
/// Traces produced by [`crate::Recorder::into_trace`] always satisfy the
/// invariants, but traces deserialized from disk (the trace store) or
/// assembled by hand may not; every query reports a defect as this error
/// rather than aborting mid-mine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterError {
    /// The trace does not have exactly `events + 1` count segments.
    SegmentCount {
        /// Number of lifecycle events in the trace.
        events: usize,
        /// Number of count segments found.
        segments: usize,
    },
    /// A count segment's width differs from the program length.
    SegmentWidth {
        /// Index of the offending segment.
        index: usize,
        /// Expected width (`trace.program_len`).
        expected: usize,
        /// Actual width.
        got: usize,
    },
    /// An interval query with `start > end`.
    IntervalReversed {
        /// Start event index.
        start: usize,
        /// End event index.
        end: usize,
    },
    /// An event index beyond the trace's events.
    EventOutOfRange {
        /// The offending event index.
        index: usize,
        /// Number of prefix rows (segments) available.
        rows: usize,
    },
    /// A caller-provided output row of the wrong width.
    WidthMismatch {
        /// Expected width (the counter dimension).
        expected: usize,
        /// Actual width.
        got: usize,
    },
}

impl fmt::Display for CounterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CounterError::SegmentCount { events, segments } => write!(
                f,
                "malformed trace: {segments} count segment(s) for {events} event(s) \
                 (want events + 1)"
            ),
            CounterError::SegmentWidth {
                index,
                expected,
                got,
            } => write!(
                f,
                "malformed trace: segment {index} has width {got}, want {expected}"
            ),
            CounterError::IntervalReversed { start, end } => {
                write!(f, "interval reversed: start {start} > end {end}")
            }
            CounterError::EventOutOfRange { index, rows } => {
                write!(f, "event index {index} out of range ({rows} prefix rows)")
            }
            CounterError::WidthMismatch { expected, got } => write!(
                f,
                "output row width mismatch: expected {expected}, got {got}"
            ),
        }
    }
}

impl std::error::Error for CounterError {}

/// Prefix-sum table over a trace's count segments.
///
/// With segments `s_0 ..= s_k` (where `s_j` holds the counts between
/// events `j-1` and `j`), the counter of an interval spanning events
/// `i ..= j` is `C[j] - C[i]` where `C[m] = s_0 + ... + s_m`.
///
/// The prefix sums live in one flat allocation strided by the program
/// length (`prefix[m * program_len + i]` = cumulative count of
/// instruction `i` through segment `m`): building the table costs a
/// single `O(segments × program_len)` pass with no per-segment clone,
/// and interval queries write straight into caller-provided row storage
/// (e.g. a feature-matrix row) with zero intermediate allocation.
#[derive(Debug, Clone)]
pub struct CounterTable {
    /// Flat strided prefix sums, `segments × program_len` row-major.
    prefix: Vec<u64>,
    program_len: usize,
    rows: usize,
}

impl CounterTable {
    /// Builds the table from a recorded trace, after checking its
    /// structural invariants (`segments = events + 1`, every segment as
    /// wide as the program).
    pub fn try_new(trace: &Trace) -> Result<CounterTable, CounterError> {
        check_segments(trace)?;
        let n = trace.program_len;
        let mut prefix = vec![0u64; trace.segments.len() * n];
        for (m, seg) in trace.segments.iter().enumerate() {
            let (done, rest) = prefix.split_at_mut(m * n);
            let row = &mut rest[..n];
            if m > 0 {
                row.copy_from_slice(&done[(m - 1) * n..]);
            }
            for (a, &c) in row.iter_mut().zip(seg.iter()) {
                *a += u64::from(c);
            }
        }
        Ok(CounterTable {
            prefix,
            program_len: n,
            rows: trace.segments.len(),
        })
    }

    /// Dimensionality of counters (the program's instruction count).
    pub fn dimension(&self) -> usize {
        self.program_len
    }

    #[inline]
    fn prefix_row(&self, m: usize) -> &[u64] {
        &self.prefix[m * self.program_len..(m + 1) * self.program_len]
    }

    /// Writes the instruction counter of `interval` — the counts executed
    /// after its opening event up to and including its closing event — as
    /// `f64` features (what the outlier detectors consume) straight into
    /// a caller-provided row slice (e.g. a dense feature-matrix row), with
    /// no intermediate allocation.
    ///
    /// # Errors
    ///
    /// [`CounterError::IntervalReversed`] or
    /// [`CounterError::EventOutOfRange`] for an interval outside the
    /// trace, and [`CounterError::WidthMismatch`] if
    /// `row.len() != dimension()`.
    pub fn try_features_into(
        &self,
        interval: &EventInterval,
        row: &mut [f64],
    ) -> Result<(), CounterError> {
        let (start, end) = (interval.start_index, interval.end_index);
        if start > end {
            return Err(CounterError::IntervalReversed { start, end });
        }
        if end >= self.rows {
            return Err(CounterError::EventOutOfRange {
                index: end,
                rows: self.rows,
            });
        }
        if row.len() != self.program_len {
            return Err(CounterError::WidthMismatch {
                expected: self.program_len,
                got: row.len(),
            });
        }
        let hi = self.prefix_row(end);
        let lo = self.prefix_row(start);
        for ((o, &h), &l) in row.iter_mut().zip(hi).zip(lo) {
            *o = (h - l) as f64;
        }
        Ok(())
    }
}

/// Checks a trace's structural invariants: `events + 1` count segments,
/// each as wide as the program.
pub(crate) fn check_segments(trace: &Trace) -> Result<(), CounterError> {
    if trace.segments.len() != trace.events.len() + 1 {
        return Err(CounterError::SegmentCount {
            events: trace.events.len(),
            segments: trace.segments.len(),
        });
    }
    let n = trace.program_len;
    for (index, seg) in trace.segments.iter().enumerate() {
        if seg.len() != n {
            return Err(CounterError::SegmentWidth {
                index,
                expected: n,
                got: seg.len(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::TraceEvent;
    use tinyvm::{LifecycleItem, TaskId};

    fn mk_trace(segments: Vec<Vec<u32>>) -> Trace {
        let n_events = segments.len() - 1;
        let events = (0..n_events)
            .map(|i| TraceEvent {
                cycle: i as u64,
                item: if i % 2 == 0 {
                    LifecycleItem::Int(0)
                } else {
                    LifecycleItem::Reti
                },
            })
            .collect();
        let program_len = segments[0].len();
        Trace {
            events,
            segments,
            program_len,
        }
    }

    /// An interval spanning events `start ..= end`.
    fn span(start_index: usize, end_index: usize) -> EventInterval {
        EventInterval {
            irq: 0,
            start_index,
            end_index,
            last_run_index: None,
            start_cycle: 0,
            end_cycle: 0,
            task_count: 0,
        }
    }

    /// The counter of events `start ..= end` as a fresh row.
    fn counter(tab: &CounterTable, start: usize, end: usize) -> Vec<f64> {
        let mut row = vec![0.0; tab.dimension()];
        tab.try_features_into(&span(start, end), &mut row).unwrap();
        row
    }

    #[test]
    fn interval_counts_sum_inner_segments() {
        // Events 0..=3; segments s0..s4.
        let t = mk_trace(vec![
            vec![1, 0],
            vec![0, 2],
            vec![3, 0],
            vec![0, 4],
            vec![5, 5],
        ]);
        let tab = CounterTable::try_new(&t).unwrap();
        // Interval spanning events 0..=3 sums segments 1..=3.
        assert_eq!(counter(&tab, 0, 3), vec![3.0, 6.0]);
        // Single-event interval (start == end) is empty.
        assert_eq!(counter(&tab, 2, 2), vec![0.0, 0.0]);
        // Adjacent events: just the one segment between them.
        assert_eq!(counter(&tab, 1, 2), vec![3.0, 0.0]);
    }

    #[test]
    fn overlapping_intervals_share_counts() {
        // Two overlapping intervals both see the shared segment — this is
        // the "capture the overlap" property the paper relies on.
        let t = Trace {
            events: vec![
                TraceEvent {
                    cycle: 0,
                    item: LifecycleItem::Int(0),
                },
                TraceEvent {
                    cycle: 1,
                    item: LifecycleItem::PostTask(TaskId(0)),
                },
                TraceEvent {
                    cycle: 2,
                    item: LifecycleItem::Reti,
                },
                TraceEvent {
                    cycle: 3,
                    item: LifecycleItem::Int(0),
                },
                TraceEvent {
                    cycle: 4,
                    item: LifecycleItem::Reti,
                },
                TraceEvent {
                    cycle: 5,
                    item: LifecycleItem::RunTask(TaskId(0)),
                },
                TraceEvent {
                    cycle: 6,
                    item: LifecycleItem::TaskEnd(TaskId(0)),
                },
            ],
            segments: vec![
                vec![0],
                vec![1],
                vec![1],
                vec![0],
                vec![9], // the nested handler's body
                vec![0],
                vec![4],
                vec![0],
            ],
            program_len: 1,
        };
        let tab = CounterTable::try_new(&t).unwrap();
        // Outer instance: events 0..=6.
        assert_eq!(counter(&tab, 0, 6), vec![15.0]);
        // Nested instance: events 3..=4; its 9 instructions are also part
        // of the outer interval's counter.
        assert_eq!(counter(&tab, 3, 4), vec![9.0]);
    }

    #[test]
    fn dimension_matches_program() {
        let t = mk_trace(vec![vec![0, 0, 0], vec![1, 2, 3]]);
        assert_eq!(CounterTable::try_new(&t).unwrap().dimension(), 3);
    }

    #[test]
    fn try_new_rejects_malformed_traces() {
        // Segment count off by one.
        let mut t = mk_trace(vec![vec![0], vec![1], vec![2]]);
        t.segments.pop();
        assert_eq!(
            CounterTable::try_new(&t).unwrap_err(),
            CounterError::SegmentCount {
                events: 2,
                segments: 2
            }
        );
        // Ragged segment (previously silently truncated by the zip).
        let mut t = mk_trace(vec![vec![0, 0], vec![1, 1]]);
        t.segments[1] = vec![1];
        assert_eq!(
            CounterTable::try_new(&t).unwrap_err(),
            CounterError::SegmentWidth {
                index: 1,
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn try_queries_return_typed_errors() {
        let t = mk_trace(vec![vec![0], vec![7], vec![0]]);
        let tab = CounterTable::try_new(&t).unwrap();
        let mut row = [0.0];
        assert_eq!(
            tab.try_features_into(&span(2, 1), &mut row),
            Err(CounterError::IntervalReversed { start: 2, end: 1 })
        );
        assert_eq!(
            tab.try_features_into(&span(0, 9), &mut row),
            Err(CounterError::EventOutOfRange { index: 9, rows: 3 })
        );
        assert_eq!(
            tab.try_features_into(&span(0, 1), &mut [0.0; 2]),
            Err(CounterError::WidthMismatch {
                expected: 1,
                got: 2
            })
        );
        assert_eq!(tab.try_features_into(&span(0, 1), &mut row), Ok(()));
        assert_eq!(row, [7.0]);
        // Errors render with the historical panic-message prefixes.
        assert!(CounterError::IntervalReversed { start: 2, end: 1 }
            .to_string()
            .contains("interval reversed"));
        assert!(CounterError::SegmentCount {
            events: 2,
            segments: 2
        }
        .to_string()
        .contains("malformed trace"));
    }
}
