//! End-to-end checks of the three case studies: the full Sentomist
//! pipeline must rank the ground-truth bug-symptom intervals at (or very
//! near) the top, as in the paper's Figure 5 — and must stay quiet on the
//! fixed applications.

use sentomist_apps::{
    oscilloscope, Case1Config, Case2Config, Case3Config, CaseResult, DetectorKind, Study,
};

fn run(study: Study) -> CaseResult {
    study.run().unwrap().0
}

/// Emulates and mines case study I, returning the result and the number
/// of polluted packets in the UART logs of all its runs.
fn case1_with_polluted_packets(config: &Case1Config) -> (CaseResult, usize) {
    let study = config.study().unwrap();
    let emulation = study.emulate(None).unwrap();
    let polluted = emulation
        .uart
        .iter()
        .map(|log| {
            oscilloscope::parse_uart(log)
                .iter()
                .filter(|p| p.polluted())
                .count()
        })
        .sum();
    (study.mine(&emulation.traces).unwrap(), polluted)
}

#[test]
fn case1_ranks_data_pollution_on_top() {
    let (result, polluted) = case1_with_polluted_packets(&Case1Config::default());
    // The two independent oracles agree: every polluted packet stems
    // from a nested-interrupt interval. (The trace oracle can flag one
    // extra interval at the horizon whose packet never got sent.)
    assert!(polluted > 0, "the race never polluted a packet");
    assert!(
        result.buggy.len() >= polluted,
        "oracles disagree: {} intervals vs {polluted} polluted packets",
        result.buggy.len()
    );
    // Paper scale: 1099 samples over five runs; ours lands within a few %.
    assert!(
        (1000..1300).contains(&result.sample_count),
        "sample count {}",
        result.sample_count
    );
    assert!(
        result.buggy.len() >= 3,
        "expected several polluted intervals, got {}",
        result.buggy.len()
    );
    // The paper inspected the top three instances and all confirmed the
    // bug; require the same.
    assert_eq!(
        &result.buggy_ranks[..3],
        &[1, 2, 3],
        "top-3 must all be true symptoms; ranks {:?}",
        result.buggy_ranks
    );
    // And every symptom is within the first ~2% of the ranking.
    assert!(
        result.worst_buggy_rank().unwrap() <= result.sample_count / 50 + 5,
        "worst rank {:?} of {}",
        result.worst_buggy_rank(),
        result.sample_count
    );
}

#[test]
fn case1_pollution_skews_toward_small_sampling_periods() {
    // The paper's table is dominated by run 1 (D = 20 ms): shorter
    // sampling periods make the race window easier to hit.
    let result = run(Case1Config::default().study().unwrap());
    let run1 = result
        .buggy
        .iter()
        .filter(|ix| matches!(ix, sentomist_core::SampleIndex::RunSeq { run: 1, .. }))
        .count();
    assert!(
        run1 * 2 >= result.buggy.len(),
        "run 1 should contribute most symptoms: {run1}/{}",
        result.buggy.len()
    );
}

#[test]
fn case1_fixed_app_has_no_symptoms() {
    let config = Case1Config {
        use_fixed: true,
        periods_ms: vec![20, 40],
        ..Case1Config::default()
    };
    let (result, polluted) = case1_with_polluted_packets(&config);
    // The nested-interrupt pattern may still occur (interleaving is a
    // property of the workload), but no packet is ever polluted, and the
    // pipeline runs clean on a healthy app.
    assert_eq!(polluted, 0);
    assert!(result.sample_count > 500);
}

#[test]
fn case2_ranks_active_drops_exactly_on_top() {
    let result = run(Case2Config::default().study().unwrap());
    // Paper scale: 195 arrivals, exactly 3 buggy, ranked top-3.
    assert!(
        (180..240).contains(&result.sample_count),
        "sample count {}",
        result.sample_count
    );
    assert_eq!(result.buggy.len(), 3);
    assert_eq!(result.buggy_ranks, vec![1, 2, 3]);
}

#[test]
fn case2_fixed_relay_has_no_drop_symptoms() {
    let config = Case2Config {
        use_fixed: true,
        ..Case2Config::default()
    };
    let result = run(config.study().unwrap());
    assert!(result.buggy.is_empty());
    assert!(result.sample_count > 150);
}

#[test]
fn case3_ranks_the_ctp_hang_first() {
    let result = run(Case3Config::default().study().unwrap());
    // Paper scale: 95 timer intervals over 4 sources; the single
    // unhandled-FAIL instance ranked 4th there, 1st here.
    assert!(
        (85..115).contains(&result.sample_count),
        "sample count {}",
        result.sample_count
    );
    assert_eq!(result.buggy.len(), 1);
    assert!(
        result.buggy_ranks[0] <= 4,
        "hang ranked {}",
        result.buggy_ranks[0]
    );
}

#[test]
fn case3_fixed_variant_keeps_collecting() {
    let config = Case3Config {
        use_fixed: true,
        ..Case3Config::default()
    };
    let result = run(config.study().unwrap());
    // The fixed node retries, so a FAIL is transient and its interval may
    // still be flagged — but the protocol never hangs; the dedicated app
    // tests verify liveness. Here: pipeline runs, same sample scale.
    assert!((85..115).contains(&result.sample_count));
}

#[test]
fn alternative_detectors_also_surface_case2_drops() {
    // §VI-E: the detector is a plug-in. OC-SVM, kNN and Mahalanobis all
    // put the 3 drop symptoms in their top ranks. (PCA does not: with a
    // tight normal class, the outliers themselves dominate the principal
    // components and reconstruct perfectly — the classic masking effect,
    // measured in the detector-ablation bench. The paper's default choice
    // of a one-class SVM is vindicated.)
    for kind in [
        DetectorKind::OcSvm { nu: 0.05 },
        DetectorKind::Knn,
        DetectorKind::Mahalanobis,
    ] {
        let config = Case2Config {
            detector: kind,
            ..Case2Config::default()
        };
        let result = run(config.study().unwrap());
        assert_eq!(result.buggy.len(), 3, "{}", kind.name());
        assert!(
            result.worst_buggy_rank().unwrap() <= 10,
            "{}: ranks {:?}",
            kind.name(),
            result.buggy_ranks
        );
    }
}

#[test]
fn pca_masks_the_case2_drops() {
    // Regression-pin the masking effect described above so the ablation
    // discussion stays truthful if detectors change.
    let config = Case2Config {
        detector: DetectorKind::Pca,
        ..Case2Config::default()
    };
    let result = run(config.study().unwrap());
    assert_eq!(result.buggy.len(), 3);
    assert!(
        result.buggy_ranks[0] > result.sample_count / 2,
        "PCA unexpectedly surfaced the drops: {:?}",
        result.buggy_ranks
    );
}

#[test]
fn rankings_are_reproducible() {
    let a = run(Case2Config::default().study().unwrap());
    let b = run(Case2Config::default().study().unwrap());
    let ia: Vec<String> = a
        .report
        .ranking
        .iter()
        .map(|r| r.index.to_string())
        .collect();
    let ib: Vec<String> = b
        .report
        .ranking
        .iter()
        .map(|r| r.index.to_string())
        .collect();
    assert_eq!(ia, ib);
}

#[test]
fn tossim_style_timing_cannot_manifest_the_race() {
    use sentomist_apps::experiments::run_fidelity;
    use tinyvm::TimingModel;
    let mut accurate_polluted = 0;
    for seed in 0..3u64 {
        let accurate = run_fidelity(TimingModel::CycleAccurate, 20, 10, seed).unwrap();
        let sequential = run_fidelity(TimingModel::ZeroCostEvents, 20, 10, seed).unwrap();
        accurate_polluted += accurate.polluted_packets;
        assert_eq!(sequential.polluted_packets, 0, "seed {seed}");
        assert_eq!(sequential.symptom_intervals, 0, "seed {seed}");
        assert!(!sequential.any_preemption, "seed {seed}");
        assert!(accurate.any_preemption, "seed {seed}");
        assert!(accurate.intervals > 400 && sequential.intervals > 400);
    }
    assert!(
        accurate_polluted > 0,
        "race never manifested even under cycle-accurate timing"
    );
}

#[test]
fn case2_drops_hide_among_genuine_wireless_losses() {
    // The default chain has 4% per-link radio loss; the mined symptoms
    // must still be exactly the *active* drops, not the channel losses.
    let result = run(Case2Config::default().study().unwrap());
    assert!(result.buggy.len() >= 2);
    assert!(result.all_buggy_in_top(result.buggy.len()));
}

#[test]
fn clustered_symptoms_defeat_density_detectors_a_known_limitation() {
    // Known limitation, pinned: when the transient bug fires often enough
    // that its symptom intervals form their own dense cluster (here: 6
    // identical drop intervals under seed 5), one-class SVM, kNN and PCA
    // all absorb them as a second "normal" mode — the paper's premise
    // that transient symptoms are *rare* (Section V: "most samples are
    // normal, while just a few are abnormal") is load-bearing. The
    // global-covariance Mahalanobis detector still surfaces them.
    let base = Case2Config {
        seed: 5,
        ..Case2Config::default()
    };
    let ocsvm = run(base.study().unwrap());
    assert!(
        ocsvm.buggy.len() >= 5,
        "seed 5 should produce a symptom cluster, got {}",
        ocsvm.buggy.len()
    );
    assert!(
        ocsvm.buggy_ranks[0] > 10,
        "expected the OC-SVM to absorb the cluster; ranks {:?}",
        ocsvm.buggy_ranks
    );
    let maha = run(Case2Config {
        detector: DetectorKind::Mahalanobis,
        ..base
    }
    .study()
    .unwrap());
    assert!(
        maha.all_buggy_in_top(maha.buggy.len() + 2),
        "Mahalanobis should still surface the cluster; ranks {:?}",
        maha.buggy_ranks
    );
}

#[test]
fn case1_multinode_pools_sensors_and_finds_the_race() {
    use sentomist_apps::experiments::Case1MultiConfig;
    let result = run(Case1MultiConfig::default().study().unwrap());
    // 4 sensors x ~500 intervals each.
    assert!(
        (1900..2100).contains(&result.sample_count),
        "sample count {}",
        result.sample_count
    );
    assert!(
        result.buggy.len() >= 4,
        "expected several symptoms across nodes, got {}",
        result.buggy.len()
    );
    // Symptoms come from more than one sensor.
    let nodes: std::collections::BTreeSet<u16> = result
        .buggy
        .iter()
        .filter_map(|ix| match ix {
            sentomist_core::SampleIndex::NodeSeq { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    assert!(nodes.len() >= 2, "symptoms from nodes {nodes:?}");
    // Top-3 of the pooled ranking are true symptoms, and every symptom
    // sits within the top ~1.5% of 2000 pooled intervals.
    assert_eq!(&result.buggy_ranks[..3], &[1, 2, 3]);
    assert!(
        result.worst_buggy_rank().unwrap() <= 30,
        "worst rank {:?}",
        result.worst_buggy_rank()
    );
}

#[test]
fn ensemble_rescues_the_clustered_symptom_case() {
    // Extension beyond the paper: the rank-averaging committee keeps the
    // seed-5 symptom cluster (which masks the lone OC-SVM — see the
    // known-limitation test above) near the top, because its Mahalanobis
    // member still separates the cluster.
    let result = run(Case2Config {
        seed: 5,
        detector: DetectorKind::Ensemble { nu: 0.05 },
        ..Case2Config::default()
    }
    .study()
    .unwrap());
    assert!(result.buggy.len() >= 5);
    assert!(
        result.worst_buggy_rank().unwrap() <= result.sample_count / 4,
        "ensemble ranks {:?} of {}",
        result.buggy_ranks,
        result.sample_count
    );
    assert!(
        result.buggy_ranks[0] <= 10,
        "best rank {:?}",
        result.buggy_ranks
    );
}

#[test]
fn case2_detection_is_robust_across_seeds() {
    // Statistical robustness, not one lucky seed: across 8 workload
    // seeds, whenever drops occur and stay rare (< 5, i.e. genuinely
    // transient), the OC-SVM ranking puts all of them within the top
    // 2*drops. The clustered-symptom regime (>= 5 identical drops) is the
    // known limitation pinned separately.
    let mut evaluated = 0;
    for seed in 0..8u64 {
        let result = run(Case2Config {
            seed,
            ..Case2Config::default()
        }
        .study()
        .unwrap());
        let drops = result.buggy.len();
        if drops == 0 || drops >= 5 {
            continue;
        }
        evaluated += 1;
        assert!(
            result.all_buggy_in_top(2 * drops),
            "seed {seed}: {drops} drops ranked {:?}",
            result.buggy_ranks
        );
    }
    assert!(evaluated >= 4, "only {evaluated} seeds had rare drops");
}
