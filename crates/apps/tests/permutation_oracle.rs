//! Metamorphic oracle for `Pipeline::rank_set`: the order in which
//! intervals are pooled carries no information, so permuting the rows of
//! a sample set must not change what the one-class SVM learns about any
//! interval.
//!
//! Inputs are the default case-I set (1,141 rows) and the case-III sets
//! of five seeds, each under eight seeded row permutations. Two
//! properties are checked against the unpermuted fit, matching rows by
//! their `SampleIndex`:
//!
//! * (a) every row's raw decision value (`Scaler` + `OneClassSvm::fit`,
//!   before Figure-5 normalization) moves by at most 1e-3;
//! * (b) walking the permuted set's `rank_set` report in rank order, no
//!   row's unpermuted raw value sits more than 2e-3 below that of a row
//!   ranked before it.
//!
//! Both bounds are loose multiples of the solver's 1e-4 KKT tolerance:
//! SMO visits rows in a different order, so it stops at a different point
//! inside that tolerance. The normalized scores are *not* compared — on
//! case III the largest positive decision value is itself at the
//! tolerance's scale, and dividing by it magnifies those differences (see
//! EXPERIMENTS.md). Run with `-- --nocapture` to print the measured
//! worst cases.

use mlcore::{FeatureMatrix, OneClassSvm, Scaler};
use sentomist_apps::{ctp, Case1Config, Case3Config, DetectorKind};
use sentomist_core::supervise::splitmix64;
use sentomist_core::{harvest_set, Report, SampleIndex, SampleSet};
use std::collections::HashMap;
use tinyvm::isa::irq;

const PERMUTATIONS: u64 = 8;
const RAW_BOUND: f64 = 1e-3;
const INVERSION_BOUND: f64 = 2e-3;

/// The rows of `set` in a seeded Fisher–Yates order, labels moving with
/// their rows.
fn permuted(set: &SampleSet, seed: u64) -> SampleSet {
    let mut order: Vec<usize> = (0..set.len()).collect();
    let mut state = seed;
    for i in (1..order.len()).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    let mut features = FeatureMatrix::with_capacity(set.len(), set.features.cols());
    for &i in &order {
        features.push_row(set.features.row(i));
    }
    SampleSet {
        meta: order.iter().map(|&i| set.meta[i]).collect(),
        features,
    }
}

/// Raw OC-SVM decision values of every row, in row order.
fn raw_decisions(set: &SampleSet, nu: f64) -> Vec<f64> {
    let mut scaled = set.features.clone();
    Scaler::fit(&scaled).transform_in_place(&mut scaled);
    OneClassSvm::with_nu(nu).fit(&scaled).unwrap().decision
}

/// Distinct feature rows in order of first appearance in the ranking.
fn distinct_order<'a>(
    set: &'a SampleSet,
    row_of: &HashMap<SampleIndex, usize>,
    report: &Report,
) -> Vec<&'a [f64]> {
    let mut order: Vec<&[f64]> = Vec::new();
    for r in &report.ranking {
        let row = set.features.row(row_of[&r.index]);
        if !order.contains(&row) {
            order.push(row);
        }
    }
    order
}

/// Checks (a) and (b) for one set; `expected` is the case study's own
/// report, which pins `set` as the population the case really ranks.
fn check(label: &str, set: &SampleSet, detector: DetectorKind, expected: &Report) {
    let DetectorKind::OcSvm { nu } = detector else {
        panic!("{label}: the oracle needs the OC-SVM detector");
    };
    let row_of: HashMap<SampleIndex, usize> = set
        .meta
        .iter()
        .enumerate()
        .map(|(row, m)| (m.index, row))
        .collect();
    assert_eq!(row_of.len(), set.len(), "{label}: labels are unique");
    let base = detector.pipeline().rank_set(set.clone()).unwrap();
    assert_eq!(
        &base, expected,
        "{label}: rebuilt set ranks as the case does"
    );
    let raw = raw_decisions(set, nu);
    let base_score: HashMap<SampleIndex, f64> =
        base.ranking.iter().map(|r| (r.index, r.score)).collect();
    let base_order = distinct_order(set, &row_of, &base);

    let (mut worst_raw, mut worst_inversion, mut worst_normalized) = (0.0f64, 0.0f64, 0.0f64);
    let mut reordered = 0;
    for p in 0..PERMUTATIONS {
        let shuffled = permuted(set, splitmix64(p));
        for (m, v) in shuffled.meta.iter().zip(raw_decisions(&shuffled, nu)) {
            worst_raw = worst_raw.max((v - raw[row_of[&m.index]]).abs());
        }
        let report = detector.pipeline().rank_set(shuffled).unwrap();
        let mut max_before = f64::NEG_INFINITY;
        for r in &report.ranking {
            let v = raw[row_of[&r.index]];
            worst_inversion = worst_inversion.max(max_before - v);
            max_before = max_before.max(v);
            worst_normalized = worst_normalized.max((r.score - base_score[&r.index]).abs());
        }
        reordered += usize::from(distinct_order(set, &row_of, &report) != base_order);
    }
    let largest = raw.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    eprintln!(
        "{label}: {} rows, {} distinct; worst raw change {worst_raw:.2e}, worst inversion \
         {worst_inversion:.2e}; largest raw value {largest:.2e}, lowest normalized score \
         {:.2e}, worst normalized-score move {worst_normalized:.2e}, distinct-row order \
         changed in {reordered} of {PERMUTATIONS}",
        set.len(),
        base_order.len(),
        base.ranking[0].score,
    );
    assert!(
        worst_raw <= RAW_BOUND,
        "{label}: a raw decision value moved by {worst_raw:e} under permutation"
    );
    assert!(
        worst_inversion <= INVERSION_BOUND,
        "{label}: the permuted ranking inverts raw values by {worst_inversion:e}"
    );
}

#[test]
fn case_one_ranking_is_permutation_invariant() {
    let config = Case1Config::default();
    let (result, traces) = config.study().unwrap().run().unwrap();
    let mut set = SampleSet::empty();
    for (r, trace) in traces.iter().enumerate() {
        let run = r as u32 + 1;
        set.append(
            &harvest_set(trace, irq::ADC, |seq, _| SampleIndex::RunSeq { run, seq }).unwrap(),
        );
    }
    assert_eq!(set.len(), 1141);
    check("case I", &set, config.detector, &result.report);
}

#[test]
fn case_three_ranking_is_permutation_invariant() {
    for seed in [3, 1001, 1002, 1003, 1004] {
        let config = Case3Config {
            seed,
            ..Case3Config::default()
        };
        let (result, traces) = config.study().unwrap().run().unwrap();
        let mut set = SampleSet::empty();
        for node in ctp::SOURCES {
            let trace = &traces[node as usize];
            set.append(
                &harvest_set(trace, irq::TIMER0, |seq, _| SampleIndex::NodeSeq {
                    node,
                    seq,
                })
                .unwrap(),
            );
        }
        check(
            &format!("case III seed {seed}"),
            &set,
            config.detector,
            &result.report,
        );
    }
}
