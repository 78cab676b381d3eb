//! Store equivalence: mining a persisted corpus must reproduce live
//! mining *bit for bit*.
//!
//! Each test emulates once, persists the lifecycle traces through the
//! `.stc` codec into a [`TraceStore`], loads them back, re-mines, and
//! compares against the same golden digests that `equivalence_matrix.rs`
//! pins for the live pipeline. A single ULP of drift in one score, one
//! reordered sample, or one corrupted counter on the disk round-trip
//! changes the digest and fails the suite.

use sentomist_apps::{trigger_job, Case1Config, Case2Config, Case3Config, CaseResult, Mode};
use sentomist_core::supervise::RunContext;
use sentomist_core::{mine_store, MineOptions, Report};
use sentomist_trace::Trace;
use sentomist_tracestore::TraceStore;
use std::path::PathBuf;

/// The live-pipeline golden digests from `equivalence_matrix.rs`. A store
/// round-trip that changes any of these has corrupted the traces.
const GOLDEN_CASE1: &str = "b5e1c4b0205f2c4a";
const GOLDEN_CASE2: &str = "7948b906723fed9b";
const GOLDEN_CASE3: &str = "e1540603f9e1ec23";
const GOLDEN_CAMPAIGN: &str = "7b1a07b56e2d3d59";

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

fn report_digest(report: &Report) -> String {
    let mut h = Fnv::new();
    h.update(report.detector.as_bytes());
    for r in &report.ranking {
        h.update(r.index.to_string().as_bytes());
        h.update(&r.score.to_bits().to_le_bytes());
    }
    h.hex()
}

fn case_digest(result: &CaseResult) -> String {
    let mut h = Fnv::new();
    h.update(report_digest(&result.report).as_bytes());
    h.update(&(result.sample_count as u64).to_le_bytes());
    for r in &result.buggy_ranks {
        h.update(&(*r as u64).to_le_bytes());
    }
    h.update(&result.trace_digest.to_le_bytes());
    h.hex()
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentomist-store-equiv-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Pushes `traces` through the full disk round-trip: encode into a store
/// run, then decode (digest-verified) back out.
fn round_trip(tag: &str, seed: u64, traces: &[Trace]) -> Vec<Trace> {
    let root = temp_store(tag);
    let store = TraceStore::create(&root).unwrap();
    let manifest = store.save_run(seed, tag, 0, traces).unwrap();
    let loaded = store.load_traces(&manifest).unwrap();
    let _ = std::fs::remove_dir_all(&root);
    loaded
}

#[test]
fn case1_mined_from_store_matches_live_golden() {
    let config = Case1Config::default();
    let study = config.study().unwrap();
    let (live, traces) = study.run().unwrap();
    assert_eq!(case_digest(&live), GOLDEN_CASE1);
    let loaded = round_trip("case1", config.seed, &traces);
    let stored = study.mine(&loaded).unwrap();
    assert_eq!(
        case_digest(&stored),
        GOLDEN_CASE1,
        "case 1 rankings diverged after the store round-trip"
    );
}

#[test]
fn case2_mined_from_store_matches_live_golden() {
    let config = Case2Config::default();
    let study = config.study().unwrap();
    let (live, traces) = study.run().unwrap();
    assert_eq!(case_digest(&live), GOLDEN_CASE2);
    let loaded = round_trip("case2", config.seed, &traces);
    let stored = study.mine(&loaded).unwrap();
    assert_eq!(
        case_digest(&stored),
        GOLDEN_CASE2,
        "case 2 rankings diverged after the store round-trip"
    );
}

#[test]
fn case3_mined_from_store_matches_live_golden() {
    let config = Case3Config::default();
    let study = config.study().unwrap();
    let (live, traces) = study.run().unwrap();
    assert_eq!(case_digest(&live), GOLDEN_CASE3);
    let loaded = round_trip("case3", config.seed, &traces);
    let stored = study.mine(&loaded).unwrap();
    assert_eq!(
        case_digest(&stored),
        GOLDEN_CASE3,
        "case 3 rankings diverged after the store round-trip"
    );
}

#[test]
fn trigger_campaign_mined_from_store_matches_live_golden() {
    // The same 16-seed sweep `equivalence_matrix.rs` runs live, but
    // persisted seed by seed and then re-mined with `mine_store` — the
    // serialized outcome JSON must hash to the same golden digest.
    let root = temp_store("campaign");
    let store = TraceStore::create(&root).unwrap();
    let job = trigger_job(20, 2, 0.05).unwrap();
    for seed in 1000u64..1016 {
        let (_, traces) = job(&RunContext::new(seed, 1, None)).unwrap();
        store.save_run(seed, "trigger", 0, &traces).unwrap();
    }
    let miner = Mode::Trigger {
        period: 20,
        seconds: 2,
        nu: 0.05,
    }
    .miner()
    .unwrap();
    let result = mine_store(&store, &MineOptions::default(), miner)
        .unwrap()
        .result;
    assert!(
        result.errors.is_empty(),
        "store mining errored: {:?}",
        result.errors
    );
    let json = serde_json::to_string(&result.outcomes).unwrap();
    let mut h = Fnv::new();
    h.update(json.as_bytes());
    assert_eq!(
        h.hex(),
        GOLDEN_CAMPAIGN,
        "re-mined campaign JSON diverged from the live sweep"
    );
    let _ = std::fs::remove_dir_all(&root);
}
