//! Bug localization (the paper's stated future work, Section VII):
//! correlating a suspicious interval's symptoms with program locations.
//!
//! Given the sample population and one flagged sample, each instruction is
//! scored by how far the flagged sample's count deviates from the
//! population (a robust z-score); the top deviating instructions, mapped
//! back to assembly source lines and routines, tell the developer *where*
//! the abnormal behavior happened.

use crate::causal::CausalChain;
use crate::sample::SampleSet;
use serde::{Deserialize, Serialize};
use staticlint::{LintReport, WarningKind};
use tinyvm::Program;

/// One instruction implicated in an outlier's deviation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ImplicatedInstruction {
    /// Instruction index (PC).
    pub pc: u16,
    /// Deviation z-score (always ≥ 0; larger = more anomalous).
    pub z_score: f64,
    /// The flagged sample's count at this instruction.
    pub observed: f64,
    /// Population mean count.
    pub expected: f64,
    /// 1-based assembly source line, if the program knows it.
    pub source_line: Option<u32>,
    /// Enclosing routine label, if any.
    pub routine: Option<String>,
}

/// Ranks instructions by the flagged sample's deviation from the
/// population mean, descending; instructions whose counts match the
/// population (z below `min_z`) are omitted. Each instruction's column is
/// read straight out of the set's dense feature matrix.
///
/// # Examples
///
/// ```
/// use mlcore::FeatureMatrix;
/// use sentomist_core::{localize_set, SampleIndex, SampleMeta, SampleSet};
/// # use sentomist_trace::EventInterval;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// # let interval = EventInterval { irq: 0, start_index: 0, end_index: 1,
/// #     last_run_index: None, start_cycle: 0, end_cycle: 1, task_count: 0 };
/// let program = tinyvm::assemble("main:\n nop\n nop\n ret\n")?;
/// let mut rows = vec![vec![1.0, 1.0, 1.0]; 20];
/// // The outlier executed instruction 1 five times instead of once.
/// rows.push(vec![1.0, 5.0, 1.0]);
/// let samples = SampleSet {
///     meta: (0..21)
///         .map(|seq| SampleMeta { index: SampleIndex::Seq(seq), interval })
///         .collect(),
///     features: FeatureMatrix::from_rows(&rows)?,
/// };
/// let hits = localize_set(&samples, 20, &program, 1.0);
/// assert_eq!(hits[0].pc, 1);
/// # Ok(())
/// # }
/// ```
///
/// `flagged` indexes into `set`. The population statistics include the
/// flagged sample itself (with hundreds of samples the bias is negligible,
/// and it keeps the estimator well-defined for tiny populations).
///
/// # Panics
///
/// Panics if `flagged` is out of range.
pub fn localize_set(
    set: &SampleSet,
    flagged: usize,
    program: &Program,
    min_z: f64,
) -> Vec<ImplicatedInstruction> {
    let d = set.features.cols();
    let n = set.len() as f64;
    let samples = &set.features;
    assert!(flagged < set.len(), "flagged sample out of range");
    let mut result = Vec::new();
    for pc in 0..d {
        let mean: f64 = samples.rows_iter().map(|s| s[pc]).sum::<f64>() / n;
        let var: f64 = samples
            .rows_iter()
            .map(|s| {
                let dv = s[pc] - mean;
                dv * dv
            })
            .sum::<f64>()
            / n;
        // Floor the deviation at a quarter count: never-varying
        // instructions that suddenly execute get a finite but large score
        // (a one-count deviation on a constant dimension scores z = 4).
        let std = var.sqrt().max(0.25);
        let observed = samples.get(flagged, pc);
        let z = (observed - mean).abs() / std;
        if z >= min_z {
            let pc16 = pc as u16;
            result.push(ImplicatedInstruction {
                pc: pc16,
                z_score: z,
                observed,
                expected: mean,
                source_line: program.source_line(pc16),
                routine: program.enclosing_label(pc16).map(str::to_owned),
            });
        }
    }
    result.sort_by(|a, b| {
        b.z_score
            .partial_cmp(&a.z_score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.pc.cmp(&b.pc))
    });
    result
}

/// A dynamically implicated instruction joined against the static
/// analyzer's findings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CorroboratedInstruction {
    /// The dynamic hit.
    pub hit: ImplicatedInstruction,
    /// Kinds of the static warnings this hit corroborates (empty when the
    /// site is dynamically suspicious but statically clean).
    pub warning_kinds: Vec<WarningKind>,
    /// Anchor PCs of the matched warnings.
    pub warning_pcs: Vec<u16>,
    /// Whether the site appears in the interval's reconstructed
    /// [`CausalChain`] — the third evidence stream, absent (`false`)
    /// when no chain was computed.
    #[serde(default)]
    pub in_causal_chain: bool,
}

impl CorroboratedInstruction {
    /// Whether at least one static warning backs this hit.
    pub fn corroborated(&self) -> bool {
        !self.warning_kinds.is_empty()
    }
}

/// Fuses dynamic localization with static analysis: joins each
/// implicated instruction against a [`LintReport`] and re-ranks so that
/// sites that are *both* dynamically deviant and statically flagged come
/// first (then by z-score, then by PC).
///
/// A hit matches a warning when its PC is the warning's anchor, appears
/// among the warning's related instructions, or falls in the same
/// routine as the anchor — handler bugs often implicate the instructions
/// *around* the racy access rather than the access itself.
pub fn corroborate(
    hits: &[ImplicatedInstruction],
    lint: &LintReport,
) -> Vec<CorroboratedInstruction> {
    corroborate_with_chain(hits, lint, None)
}

/// [`corroborate`] with a third evidence stream: hits on the interval's
/// reconstructed [`CausalChain`] outrank equally corroborated hits off
/// it. Ordering is corroborated first, then chain membership, then
/// z-score descending, then PC ascending — so the existing
/// corroborated-first invariant is preserved and the chain only breaks
/// ties within an evidence tier.
pub fn corroborate_with_chain(
    hits: &[ImplicatedInstruction],
    lint: &LintReport,
    chain: Option<&CausalChain>,
) -> Vec<CorroboratedInstruction> {
    let mut out: Vec<CorroboratedInstruction> = hits
        .iter()
        .map(|hit| {
            let mut warning_kinds = Vec::new();
            let mut warning_pcs = Vec::new();
            for w in &lint.warnings {
                let same_routine = w.routine.is_some() && w.routine == hit.routine;
                if w.pc == hit.pc || w.related_pcs.contains(&hit.pc) || same_routine {
                    warning_kinds.push(w.kind);
                    warning_pcs.push(w.pc);
                }
            }
            warning_kinds.dedup();
            warning_pcs.dedup();
            CorroboratedInstruction {
                in_causal_chain: chain.is_some_and(|c| c.contains(hit.pc)),
                hit: hit.clone(),
                warning_kinds,
                warning_pcs,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.corroborated()
            .cmp(&a.corroborated())
            .then(b.in_causal_chain.cmp(&a.in_causal_chain))
            .then(
                b.hit
                    .z_score
                    .partial_cmp(&a.hit.z_score)
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
            .then(a.hit.pc.cmp(&b.hit.pc))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::tests::set;

    #[test]
    fn implicates_the_deviant_instruction() {
        let program = tinyvm::assemble("main:\n nop\n nop\n nop\n ret\n").unwrap();
        let mut rows = vec![vec![1.0, 1.0, 5.0, 1.0]; 20];
        // The flagged sample executed instruction 1 twice (the paper's
        // double-execution symptom).
        rows.push(vec![1.0, 2.0, 5.0, 1.0]);
        let hits = localize_set(&set(&rows), 20, &program, 0.5);
        assert!(!hits.is_empty());
        assert_eq!(hits[0].pc, 1);
        assert_eq!(hits[0].observed, 2.0);
        assert!(hits[0].expected < 1.1);
        assert_eq!(hits[0].routine.as_deref(), Some("main"));
        assert_eq!(hits[0].source_line, Some(3));
    }

    #[test]
    fn matching_counts_not_implicated() {
        let program = tinyvm::assemble("main:\n nop\n ret\n").unwrap();
        let hits = localize_set(&set(&vec![vec![3.0, 1.0]; 10]), 0, &program, 0.5);
        assert!(hits.is_empty());
    }

    #[test]
    fn corroboration_promotes_statically_flagged_sites() {
        // `dead:` is unreachable, so the linter anchors a warning at pc 2;
        // a dynamic hit there must outrank a higher-z but statically clean
        // hit at pc 1.
        let program = tinyvm::assemble("main:\n nop\n halt\ndead:\n nop\n halt\n").unwrap();
        let lint = staticlint::lint(&program);
        assert_eq!(lint.warnings.len(), 1);
        let hit = |pc: u16, z: f64| ImplicatedInstruction {
            pc,
            z_score: z,
            observed: 1.0,
            expected: 0.0,
            source_line: program.source_line(pc),
            routine: program.enclosing_label(pc).map(str::to_owned),
        };
        let fused = corroborate(&[hit(1, 9.0), hit(2, 3.0)], &lint);
        assert_eq!(fused[0].hit.pc, 2);
        assert!(fused[0].corroborated());
        assert_eq!(fused[0].warning_kinds, vec![WarningKind::UnreachableCode]);
        assert!(!fused[1].corroborated());
    }

    #[test]
    fn tie_breaking_when_flagged_sites_share_a_rank() {
        // Two statically flagged sites (both in the unreachable `dead:`
        // routine) share the same z-score: the tie must break by PC
        // ascending, deterministically, with corroborated sites still
        // ahead of a clean site of identical z.
        let program = tinyvm::assemble("main:\n nop\n halt\ndead:\n nop\n nop\n halt\n").unwrap();
        let lint = staticlint::lint(&program);
        assert_eq!(lint.warnings.len(), 1, "premise: one unreachable warning");
        let hit = |pc: u16, z: f64| ImplicatedInstruction {
            pc,
            z_score: z,
            observed: 1.0,
            expected: 0.0,
            source_line: program.source_line(pc),
            routine: program.enclosing_label(pc).map(str::to_owned),
        };
        // Feed the hits out of pc order to prove the sort does the work.
        let fused = corroborate(&[hit(4, 4.0), hit(1, 4.0), hit(2, 4.0), hit(3, 4.0)], &lint);
        let pcs: Vec<u16> = fused.iter().map(|c| c.hit.pc).collect();
        // dead: spans pcs 2..=4; pc 1 (main) is statically clean.
        assert_eq!(pcs, vec![2, 3, 4, 1]);
        assert!(fused[0].corroborated() && fused[1].corroborated());
        assert!(!fused[3].corroborated());
        // Determinism: a permuted input yields the identical order.
        let again = corroborate(&[hit(3, 4.0), hit(2, 4.0), hit(4, 4.0), hit(1, 4.0)], &lint);
        assert_eq!(fused, again);
    }

    #[test]
    fn chain_membership_breaks_ties_within_a_tier() {
        let program = tinyvm::assemble("main:\n nop\n halt\ndead:\n nop\n nop\n halt\n").unwrap();
        let lint = staticlint::lint(&program);
        let hit = |pc: u16, z: f64| ImplicatedInstruction {
            pc,
            z_score: z,
            observed: 1.0,
            expected: 0.0,
            source_line: program.source_line(pc),
            routine: program.enclosing_label(pc).map(str::to_owned),
        };
        let chain = CausalChain {
            seeds: vec![3],
            hops: Vec::new(),
            sliced_executed: vec![3],
        };
        // pcs 2 and 3 are both corroborated with equal z; only 3 is on
        // the chain, so 3 must come first — but a corroborated site must
        // still outrank a chain-only site (pc 1 is clean).
        let fused = corroborate_with_chain(
            &[hit(1, 4.0), hit(2, 4.0), hit(3, 4.0)],
            &lint,
            Some(&chain),
        );
        let pcs: Vec<u16> = fused.iter().map(|c| c.hit.pc).collect();
        assert_eq!(pcs, vec![3, 2, 1]);
        assert!(fused[0].in_causal_chain);
        assert!(!fused[1].in_causal_chain);
    }

    #[test]
    fn results_sorted_by_z_descending() {
        let program = tinyvm::assemble("main:\n nop\n nop\n ret\n").unwrap();
        let mut rows = vec![vec![1.0, 1.0, 1.0]; 30];
        rows.push(vec![2.0, 9.0, 1.0]);
        let hits = localize_set(&set(&rows), 30, &program, 0.5);
        assert!(hits.len() >= 2);
        assert!(hits[0].z_score >= hits[1].z_score);
        assert_eq!(hits[0].pc, 1);
    }
}
