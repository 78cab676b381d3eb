//! Samples: featurized event-handling intervals with human-readable
//! indices.
//!
//! The primary product of harvesting is a [`SampleSet`]: per-interval
//! metadata (label + interval) alongside a dense row-major
//! [`FeatureMatrix`] holding one instruction-counter row per interval.
//! Features are written straight from the trace's counter table into the
//! matrix rows — no intermediate per-sample allocation. Ranking,
//! localization and the frozen baseline all take a set.

use mlcore::FeatureMatrix;
use sentomist_trace::{extract, CounterTable, EventInterval, ExtractError, Trace};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a sample is labeled in ranking tables — matching the three index
/// styles of the paper's Figure 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SampleIndex {
    /// `[run, seq]` — case study I labels samples by testing run and
    /// chronological order within the run.
    RunSeq {
        /// Testing-run index (1-based in the paper).
        run: u32,
        /// Chronological order within the run (1-based).
        seq: u32,
    },
    /// Bare chronological index — case study II.
    Seq(u32),
    /// `[node, seq]` — case study III labels samples by node id and
    /// per-node chronological order.
    NodeSeq {
        /// Node id.
        node: u16,
        /// Chronological order on that node (1-based).
        seq: u32,
    },
}

impl fmt::Display for SampleIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SampleIndex::RunSeq { run, seq } => write!(f, "[{run}, {seq}]"),
            SampleIndex::Seq(s) => write!(f, "{s}"),
            SampleIndex::NodeSeq { node, seq } => write!(f, "[{node}, {seq}]"),
        }
    }
}

/// Metadata of one harvested interval: its table label and the interval
/// itself, with the features living in the owning [`SampleSet`]'s matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SampleMeta {
    /// Table label.
    pub index: SampleIndex,
    /// The underlying interval.
    pub interval: EventInterval,
}

/// A harvested sample population: per-interval metadata plus one dense
/// feature matrix with a row per interval — the unit the rank path
/// operates on.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampleSet {
    /// Label + interval per sample, aligned with the matrix rows.
    pub meta: Vec<SampleMeta>,
    /// Instruction-counter features, row `i` belonging to `meta[i]`.
    pub features: FeatureMatrix,
}

impl SampleSet {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.meta.len()
    }

    /// True when the set holds no samples.
    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    /// An empty set (adopts the feature width of the first appended set).
    pub fn empty() -> SampleSet {
        SampleSet {
            meta: Vec::new(),
            features: FeatureMatrix::new(0),
        }
    }

    /// Pools another set's samples onto this one — how the multi-run /
    /// multi-node case studies merge per-trace harvests into one
    /// population without unpacking any row.
    ///
    /// # Panics
    ///
    /// Panics if both sets are non-empty and their feature widths differ.
    pub fn append(&mut self, other: &SampleSet) {
        self.features.append(&other.features);
        self.meta.extend_from_slice(&other.meta);
    }
}

/// Harvests one event type's samples as a [`SampleSet`]: intervals are
/// featurized by writing counter rows directly into the set's dense
/// matrix ([`CounterTable::try_features_into`]), with zero intermediate
/// allocation per interval.
///
/// # Errors
///
/// Propagates [`ExtractError`] for ill-formed traces, including
/// structurally broken count segments ([`ExtractError::Malformed`]).
pub fn harvest_set(
    trace: &Trace,
    irq: u8,
    mut label: impl FnMut(u32, &EventInterval) -> SampleIndex,
) -> Result<SampleSet, ExtractError> {
    let extraction = extract(trace)?;
    let table = CounterTable::try_new(trace)?;
    let intervals = extraction.for_irq(irq);
    let mut features = FeatureMatrix::with_capacity(intervals.len(), table.dimension());
    let mut meta = Vec::with_capacity(intervals.len());
    for (i, interval) in intervals.into_iter().enumerate() {
        table.try_features_into(&interval, features.add_row())?;
        meta.push(SampleMeta {
            index: label(i as u32 + 1, &interval),
            interval,
        });
    }
    Ok(SampleSet { meta, features })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A hand-built set for unit tests: row `i` of `rows`, labeled
    /// `Seq(i + 1)`, all on one placeholder interval.
    pub(crate) fn set(rows: &[Vec<f64>]) -> SampleSet {
        let interval = EventInterval {
            irq: 0,
            start_index: 0,
            end_index: 1,
            last_run_index: None,
            start_cycle: 0,
            end_cycle: 1,
            task_count: 0,
        };
        SampleSet {
            meta: (1..=rows.len() as u32)
                .map(|seq| SampleMeta {
                    index: SampleIndex::Seq(seq),
                    interval,
                })
                .collect(),
            features: FeatureMatrix::from_rows(rows).unwrap(),
        }
    }

    #[test]
    fn index_display_matches_figure_5() {
        assert_eq!(
            SampleIndex::RunSeq { run: 1, seq: 76 }.to_string(),
            "[1, 76]"
        );
        assert_eq!(SampleIndex::Seq(20).to_string(), "20");
        assert_eq!(
            SampleIndex::NodeSeq { node: 8, seq: 2 }.to_string(),
            "[8, 2]"
        );
    }

    #[test]
    fn harvest_set_rows_are_the_hand_counted_segments() {
        use sentomist_trace::TraceEvent;
        use tinyvm::LifecycleItem;
        let items = [
            LifecycleItem::Int(0),
            LifecycleItem::Reti,
            LifecycleItem::Int(0),
            LifecycleItem::Reti,
        ];
        let trace = Trace {
            events: items
                .iter()
                .enumerate()
                .map(|(i, &item)| TraceEvent {
                    cycle: i as u64,
                    item,
                })
                .collect(),
            segments: vec![vec![3], vec![5], vec![0], vec![7], vec![1]],
            program_len: 1,
        };
        let set = harvest_set(&trace, 0, |seq, _| SampleIndex::Seq(seq)).unwrap();
        // Segment k holds the counts retired between events k-1 and k, so
        // the interval Int@0..Reti@1 owns segment 1 and Int@2..Reti@3 owns
        // segment 3; segments 0, 2 and 4 lie outside both intervals.
        let spans: Vec<_> = set
            .meta
            .iter()
            .map(|m| (m.index, m.interval.start_index, m.interval.end_index))
            .collect();
        assert_eq!(
            spans,
            [(SampleIndex::Seq(1), 0, 1), (SampleIndex::Seq(2), 2, 3)]
        );
        assert_eq!(set.features.to_rows(), [vec![5.0], vec![7.0]]);
    }

    #[test]
    fn append_pools_sets_in_order() {
        let a = set(&[vec![1.0, 2.0]]);
        let b = set(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let mut pooled = SampleSet::empty();
        pooled.append(&a);
        pooled.append(&b);
        assert_eq!(pooled.len(), 3);
        assert_eq!(pooled.meta[2].index, SampleIndex::Seq(2));
        assert_eq!(pooled.features.row(1), &[3.0, 4.0]);
    }
}
