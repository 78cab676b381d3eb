//! Campaign job resolution and the canonical campaign document.
//!
//! Historically this logic lived inside the `sentomist` CLI binary,
//! which made the CLI the *only* way to produce a campaign document.
//! The mining service (`sentomist-service` and its `sentomistd` daemon)
//! must answer a mine request with **exactly** the bytes `sentomist
//! trace mine --json` would print for the same corpus — byte identity is
//! the service's correctness gate — so the single source of truth moved
//! here, where both front ends link it:
//!
//! * [`Mode`] — a campaign mode with its parameters fully resolved (the
//!   trigger experiment or one of the three case studies). It builds one
//!   [`Study`] per seed, and from it the per-seed emulate-and-mine job,
//!   the store re-mining stage and the program digest, plus the
//!   serialized `config` block;
//! * [`Mode::from_campaign`] — resolves the identical mode back out of a
//!   stored [`CampaignManifest`], so a corpus re-mines with the
//!   parameters it was recorded under;
//! * [`campaign_document`] — the serialized campaign document, shared
//!   verbatim by `campaign --json`, `trace mine --json` and the daemon's
//!   mine responses;
//! * [`mine_corpus`] — the whole re-mine vertical (open manifest →
//!   resolve mode → sweep the store → fold stored errors → render the
//!   document), returning the exact bytes every front end must emit.

use crate::experiments::{mine_trigger, trigger_study, Study};
use crate::{ctp, forwarder, oscilloscope, Case1Config, Case2Config, Case3Config};
use sentomist_core::campaign::{CampaignResult, FailureKind, RunError, RunOutcome};
use sentomist_core::supervise::{RunContext, RunFailure};
use sentomist_core::{mine_store, QuarantinedRun};
use sentomist_trace::Trace;
use sentomist_tracestore::{CampaignManifest, TraceStore};
use serde::{Serialize, Value};
use std::error::Error;
use tinyvm::Program;

/// A typed, `Send + Sync` job-layer error: what went wrong resolving or
/// executing a campaign-shaped job. String-bodied so it crosses the
/// supervised worker pool (and the service's response path) untouched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError(pub String);

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for JobError {}

impl From<String> for JobError {
    fn from(message: String) -> JobError {
        JobError(message)
    }
}

impl From<&str> for JobError {
    fn from(message: &str) -> JobError {
        JobError(message.to_string())
    }
}

impl From<Box<dyn Error>> for JobError {
    fn from(e: Box<dyn Error>) -> JobError {
        JobError(e.to_string())
    }
}

impl From<sentomist_tracestore::StoreError> for JobError {
    fn from(e: sentomist_tracestore::StoreError) -> JobError {
        JobError(e.to_string())
    }
}

/// The per-seed campaign job: takes a [`RunContext`] so the watchdog can
/// cancel it cooperatively, and hands back the run's outcome together
/// with its recorded traces.
pub type SupervisedTracedJob =
    Box<dyn Fn(&RunContext) -> Result<(RunOutcome, Vec<Trace>), RunFailure> + Send + Sync>;
/// The mining stage alone, applied to a stored run's decoded traces.
pub type StoreMiner = Box<dyn Fn(u64, &[Trace]) -> Result<RunOutcome, String> + Send + Sync>;
/// The ordered key/value entries of a campaign document's `config` block.
pub type CampaignConfig = Vec<(String, Value)>;

/// FNV-1a over a byte string — the digest primitive run manifests and
/// program identities are keyed with.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A campaign mode with its flags fully resolved — the single source of
/// truth shared by the live `campaign` command, `trace mine` and the
/// mining daemon, so a stored corpus re-mines into the exact document
/// the live run printed.
#[derive(Debug, Clone, Copy)]
pub enum Mode {
    /// The case-I trigger experiment: one oscilloscope node per seed.
    Trigger {
        /// ADC sampling period in milliseconds.
        period: u32,
        /// Emulated seconds per run.
        seconds: u64,
        /// One-class SVM ν.
        nu: f64,
    },
    /// Case study I (data-pollution race across sampling periods).
    Case1,
    /// Case study II (busy-flag active packet drop).
    Case2,
    /// Case study III (unhandled send failure under protocol contention).
    Case3,
}

impl Mode {
    /// Resolves a mode from an optional case selector plus the trigger
    /// parameters, which only the trigger experiment (no case) reads. An
    /// absent parameter takes its default: a 20 ms sampling period, 10
    /// emulated seconds and ν = 0.05.
    ///
    /// # Errors
    ///
    /// A trigger parameter given with a case (``--FLAG configures the
    /// trigger experiment and cannot be combined with --case``, naming
    /// the first of period, seconds and nu given), then an unknown case
    /// selector.
    pub fn resolve(
        case: Option<&str>,
        period: Option<u32>,
        seconds: Option<u64>,
        nu: Option<f64>,
    ) -> Result<Mode, JobError> {
        let Some(case) = case else {
            return Ok(Mode::Trigger {
                period: period.unwrap_or(20),
                seconds: seconds.unwrap_or(10),
                nu: nu.unwrap_or(0.05),
            });
        };
        let given = [
            ("period", period.is_some()),
            ("seconds", seconds.is_some()),
            ("nu", nu.is_some()),
        ];
        if let Some((flag, _)) = given.into_iter().find(|&(_, set)| set) {
            return Err(JobError(format!(
                "--{flag} configures the trigger experiment and cannot be combined with --case"
            )));
        }
        match case {
            "1" => Ok(Mode::Case1),
            "2" => Ok(Mode::Case2),
            "3" => Ok(Mode::Case3),
            other => Err(JobError(format!("unknown case `{other}`"))),
        }
    }

    /// Resolves the identical mode back out of a stored campaign
    /// manifest, so re-mining uses the parameters the corpus was
    /// recorded under.
    ///
    /// # Errors
    ///
    /// Unknown stored mode, malformed or non-numeric parameter entries.
    pub fn from_campaign(manifest: &CampaignManifest) -> Result<Mode, JobError> {
        let (mut period, mut seconds, mut nu) = (None, None, None);
        for p in &manifest.params {
            let (k, v) = p
                .split_once('=')
                .ok_or_else(|| JobError(format!("malformed campaign param `{p}`")))?;
            let bad = |name: &str| JobError(format!("campaign param {name} wants a number: `{v}`"));
            match k {
                "period" => period = Some(v.parse().map_err(|_| bad("period"))?),
                "seconds" => seconds = Some(v.parse().map_err(|_| bad("seconds"))?),
                "nu" => nu = Some(v.parse().map_err(|_| bad("nu"))?),
                // Unknown params are ignored for forward compatibility.
                _ => {}
            }
        }
        match manifest.mode.as_str() {
            "trigger" => Mode::resolve(None, period, seconds, nu),
            "case1" => Ok(Mode::Case1),
            "case2" => Ok(Mode::Case2),
            "case3" => Ok(Mode::Case3),
            other => Err(JobError(format!("unknown stored campaign mode `{other}`"))),
        }
    }

    /// The mode's manifest name.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Trigger { .. } => "trigger",
            Mode::Case1 => "case1",
            Mode::Case2 => "case2",
            Mode::Case3 => "case3",
        }
    }

    /// The mode's resolved parameters as `flag=value` strings, written
    /// to the campaign manifest. [`Mode::from_campaign`] feeds them back,
    /// so the values use the flags' own names and Rust's round-trip
    /// float formatting.
    pub fn params(self) -> Vec<String> {
        match self {
            Mode::Trigger {
                period,
                seconds,
                nu,
            } => vec![
                format!("period={period}"),
                format!("seconds={seconds}"),
                format!("nu={nu}"),
            ],
            _ => Vec::new(),
        }
    }

    /// The JSON `config` block entries for this mode. Deliberately
    /// excludes `--threads` and `--store`: neither may influence the
    /// serialized campaign document.
    pub fn config_entries(self) -> CampaignConfig {
        let entry = |k: &str, v: Value| (k.to_string(), v);
        match self {
            Mode::Trigger {
                period,
                seconds,
                nu,
            } => vec![
                entry("mode", Value::Str("trigger".into())),
                entry("period_ms", Serialize::to_value(&period)),
                entry("run_seconds", Serialize::to_value(&seconds)),
                entry("nu", Serialize::to_value(&nu)),
            ],
            _ => vec![entry("mode", Value::Str(self.name().into()))],
        }
    }

    /// The mode's [`Study`] under `seed`: the trigger experiment or the
    /// case study's default configuration with its seed replaced.
    fn study(self, seed: u64) -> Result<Study, JobError> {
        Ok(match self {
            Mode::Trigger {
                period,
                seconds,
                nu,
            } => trigger_study(period, seconds, nu, seed)?,
            Mode::Case1 => Case1Config {
                seed,
                ..Case1Config::default()
            }
            .study()?,
            Mode::Case2 => Case2Config {
                seed,
                ..Case2Config::default()
            }
            .study()?,
            Mode::Case3 => Case3Config {
                seed,
                ..Case3Config::default()
            }
            .study()?,
        })
    }

    /// The per-seed emulate-and-mine job, which also hands back the
    /// run's recorded traces — the one job every sweep, replay and daemon
    /// `Emulate` request runs. It takes a [`RunContext`] so the watchdog
    /// can cancel it and (trigger mode) a cycle budget can cap emulation.
    ///
    /// Trigger mode assembles its program once, up front, and the closure
    /// only shares that immutable program, so the supervised pool can
    /// drive it from any number of worker threads. It is fully
    /// cooperative (see [`Study::emulate`]). Machine faults and mining
    /// failures are deterministic for a given seed, so they surface as
    /// [`RunFailure::Fatal`] (retrying cannot help); budget and
    /// cancellation stops are [`RunFailure::TimedOut`].
    ///
    /// The case studies build their study per seed, run to completion
    /// and report their errors as retryable.
    ///
    /// # Errors
    ///
    /// Program assembly failures while building the job.
    pub fn supervised_traced_job(self) -> Result<SupervisedTracedJob, JobError> {
        if let Mode::Trigger { .. } = self {
            let study = self.study(0)?;
            return Ok(Box::new(move |ctx: &RunContext| {
                // The trigger study's one node runs under the run's seed.
                let mut run = study.clone();
                run.nodes[0].1.seed = ctx.seed();
                let traces = run.emulate(Some(ctx))?.traces;
                let outcome = mine_trigger(ctx.seed(), &run, &traces).map_err(RunFailure::Fatal)?;
                Ok((outcome, traces))
            }));
        }
        Ok(Box::new(move |ctx: &RunContext| {
            let seed = ctx.seed();
            let (result, traces) = self
                .study(seed)
                .map_err(|e| RunFailure::Transient(e.0))?
                .run()
                .map_err(|e| RunFailure::Transient(e.to_string()))?;
            Ok((result.to_outcome(seed), traces))
        }))
    }

    /// The mining stage alone, applied to a stored run's decoded traces —
    /// the same code path [`Mode::supervised_traced_job`] runs after
    /// emulating. The mode's study is built once, for every run of the
    /// corpus.
    ///
    /// # Errors
    ///
    /// Program assembly failures while building the study.
    pub fn miner(self) -> Result<StoreMiner, JobError> {
        let study = self.study(0)?;
        Ok(match self {
            Mode::Trigger { .. } => {
                Box::new(move |seed, traces: &[Trace]| mine_trigger(seed, &study, traces))
            }
            _ => Box::new(move |seed, traces: &[Trace]| {
                study
                    .mine(traces)
                    .map(|r| r.to_outcome(seed))
                    .map_err(|e| e.to_string())
            }),
        })
    }

    /// FNV-1a digest over the disassembly of the program(s) this mode
    /// executes, recorded in every run manifest as the program identity
    /// (see [`Study::program_digest`]).
    ///
    /// # Errors
    ///
    /// Program assembly failures.
    pub fn program_digest(self) -> Result<u64, JobError> {
        Ok(self.study(0)?.program_digest())
    }
}

/// Resolves a bundled case-study program by name — the shared resolver
/// behind `sentomist lint --app NAME` and the daemon's lint jobs.
///
/// # Errors
///
/// Unknown app name; assembly failure.
pub fn bundled_program(name: &str, fixed: bool) -> Result<std::sync::Arc<Program>, JobError> {
    let asm = |e: tinyvm::asm::AsmError| JobError(e.to_string());
    Ok(match name {
        "oscilloscope" => {
            if fixed {
                oscilloscope::fixed(&Default::default()).map_err(asm)?
            } else {
                oscilloscope::buggy(&Default::default()).map_err(asm)?
            }
        }
        "forwarder" => {
            if fixed {
                forwarder::relay_program_fixed().map_err(asm)?
            } else {
                forwarder::relay_program_buggy().map_err(asm)?
            }
        }
        "ctp" => {
            if fixed {
                ctp::fixed(&Default::default()).map_err(asm)?
            } else {
                ctp::buggy(&Default::default()).map_err(asm)?
            }
        }
        other => {
            return Err(JobError(format!(
                "unknown bundled app `{other}` (oscilloscope|forwarder|ctp)"
            )))
        }
    })
}

/// The default slice seeds of a program: every statically flagged pc
/// plus its related pcs, sorted and deduplicated — "slice backward from
/// whatever the linter flagged". Empty for a program that lints clean
/// (every fixed case-study variant).
pub fn default_slice_seeds(program: &Program) -> Vec<u16> {
    let report = staticlint::lint(program);
    let mut seeds: Vec<u16> = report
        .warnings
        .iter()
        .flat_map(|w| std::iter::once(w.pc).chain(w.related_pcs.iter().copied()))
        .collect();
    seeds.sort_unstable();
    seeds.dedup();
    seeds
}

/// Builds the slice report for a bundled case-study app: seeds from
/// `pcs`, or — when empty — the program's [`default_slice_seeds`]. A
/// program that lints clean and gets no explicit seeds yields the empty
/// report rather than an error: "nothing flagged, nothing sliced" is the
/// fixed variants' expected answer, not a failure.
///
/// # Errors
///
/// Unknown app, assembly failure, or a slice error for explicit seeds.
pub fn bundled_slice_report(
    app: &str,
    fixed: bool,
    pcs: &[u16],
) -> Result<staticlint::SliceReport, JobError> {
    let program = bundled_program(app, fixed)?;
    let seeds = if pcs.is_empty() {
        default_slice_seeds(&program)
    } else {
        pcs.to_vec()
    };
    if seeds.is_empty() {
        return Ok(staticlint::SliceReport {
            seeds,
            instructions: Vec::new(),
            cross_edges: Vec::new(),
            stats: staticlint::SliceStats {
                instructions: program.len(),
                sliced: 0,
                cross_edges: 0,
            },
        });
    }
    staticlint::slice_report(&program, &seeds).map_err(|e| JobError(e.to_string()))
}

/// The serialized slice document: pretty-printed JSON plus a trailing
/// newline — **exactly** the bytes `sentomist slice --app NAME --json`
/// prints and the daemon answers Slice requests with.
///
/// # Errors
///
/// As [`bundled_slice_report`], plus serialization failures.
pub fn slice_document(app: &str, fixed: bool, pcs: &[u16]) -> Result<String, JobError> {
    let report = bundled_slice_report(app, fixed, pcs)?;
    let mut doc = serde_json::to_string_pretty(&report).map_err(|e| JobError(e.to_string()))?;
    doc.push('\n');
    Ok(doc)
}

/// Assembles the serialized campaign document; shared verbatim by the
/// live `campaign --json`, `trace mine --json` and the mining daemon's
/// responses, which must produce byte-identical output for the same runs.
pub fn campaign_document(config: CampaignConfig, result: &CampaignResult) -> Value {
    let s = result.summary();
    Value::Map(vec![
        ("config".to_string(), Value::Map(config)),
        (
            "outcomes".to_string(),
            Serialize::to_value(&result.outcomes),
        ),
        ("summary".to_string(), Serialize::to_value(&s)),
        ("errors".to_string(), Serialize::to_value(&result.errors)),
        (
            "failures".to_string(),
            Value::Map(vec![
                ("failed".to_string(), Serialize::to_value(&s.failed)),
                ("panicked".to_string(), Serialize::to_value(&s.panicked)),
                ("timed_out".to_string(), Serialize::to_value(&s.timed_out)),
                (
                    "failed_attempts".to_string(),
                    Serialize::to_value(&s.failed_attempts),
                ),
                (
                    "failure_rate".to_string(),
                    Serialize::to_value(&s.failure_rate),
                ),
            ]),
        ),
    ])
}

/// How a corpus should be re-mined into its campaign document: worker
/// threads (never influencing the document bytes), per-run progress
/// lines, and quarantine-and-continue (which adds the opt-in
/// `quarantined` document section).
pub use sentomist_core::MineOptions as CorpusMineOptions;

/// What [`mine_corpus`] produced: the canonical document bytes plus the
/// structured result for front ends that render their own views.
#[derive(Debug, Clone)]
pub struct MinedCorpus {
    /// The serialized campaign document: pretty-printed JSON plus a
    /// trailing newline — **exactly** the bytes `sentomist trace mine
    /// --json` prints, the service byte-identity contract.
    pub document: String,
    /// The mining result over the healthy runs (stored live failures
    /// folded back in, sorted by seed).
    pub result: CampaignResult,
    /// Runs set aside by quarantine-and-continue mining.
    pub quarantined: Vec<QuarantinedRun>,
}

/// Re-mines a stored campaign corpus into its canonical document:
/// resolve the recorded mode, sweep every stored run through the same
/// mining stage the live campaign used, fold the live campaign's
/// recorded failures back in, and render the document.
///
/// The document bytes are a pure function of the corpus content — never
/// of `threads`, the shard topology, or which front end asked.
///
/// # Errors
///
/// A store without a campaign manifest, an unresolvable stored mode, or
/// store-level listing/move failures. Per-run problems are reported
/// inside the document, never thrown.
pub fn mine_corpus(
    store: &TraceStore,
    options: &CorpusMineOptions,
) -> Result<MinedCorpus, JobError> {
    let campaign = store.campaign()?.ok_or(
        "store has no campaign.json — only corpora produced by \
         `sentomist campaign --store` can be re-mined",
    )?;
    let mode = Mode::from_campaign(&campaign)?;
    let mut config = mode.config_entries();
    config.push(("seeds".to_string(), Serialize::to_value(&campaign.seeds)));
    config.push((
        "base_seed".to_string(),
        Serialize::to_value(&campaign.base_seed),
    ));
    let report = mine_store(store, options, mode.miner()?)?;
    let mut result = report.result;
    // Runs that failed during the live campaign have no run directory;
    // fold their recorded errors back in (failure typing included) so
    // the document matches the live one byte for byte.
    result
        .errors
        .extend(campaign.errors.iter().map(|e| RunError {
            seed: e.seed,
            message: e.message.clone(),
            kind: FailureKind::parse(&e.kind),
            attempts: e.attempts.max(1),
        }));
    result.errors.sort_by_key(|e| e.seed);

    let mut doc = campaign_document(config, &result);
    if options.quarantine {
        // Opt-in section: only a damaged corpus mined with --quarantine
        // diverges from the live document.
        if let Value::Map(entries) = &mut doc {
            entries.push((
                "quarantined".to_string(),
                Value::Seq(
                    report
                        .quarantined
                        .iter()
                        .map(|q| {
                            Value::Map(vec![
                                ("run_id".to_string(), Value::Str(q.run_id.clone())),
                                ("seed".to_string(), Serialize::to_value(&q.seed)),
                                ("reason".to_string(), Value::Str(q.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
    }
    let mut document = serde_json::to_string_pretty(&doc).map_err(|e| JobError(e.to_string()))?;
    document.push('\n');
    Ok(MinedCorpus {
        document,
        result,
        quarantined: report.quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_document_defaults_to_lint_flagged_seeds() {
        let doc = slice_document("forwarder", false, &[]).unwrap();
        let report: staticlint::SliceReport = serde_json::from_str(doc.trim()).unwrap();
        assert!(!report.seeds.is_empty(), "buggy relay lints dirty");
        assert!(report.stats.sliced >= report.seeds.len());
        assert!(
            report.stats.cross_edges > 0,
            "the busy-flag interleaving edge must be sliced"
        );
        // The fixed relay lints clean: empty report, not an error.
        let doc = slice_document("forwarder", true, &[]).unwrap();
        let report: staticlint::SliceReport = serde_json::from_str(doc.trim()).unwrap();
        assert!(report.seeds.is_empty());
        assert_eq!(report.stats.sliced, 0);
    }

    #[test]
    fn slice_document_propagates_bad_inputs_as_typed_errors() {
        assert!(slice_document("toaster", false, &[])
            .unwrap_err()
            .0
            .contains("unknown bundled app"));
        assert!(slice_document("ctp", false, &[u16::MAX])
            .unwrap_err()
            .0
            .contains("outside the program"));
    }

    #[test]
    fn mode_round_trips_through_a_campaign_manifest() {
        for mode in [
            Mode::Trigger {
                period: 35,
                seconds: 7,
                nu: 0.125,
            },
            Mode::Case1,
            Mode::Case2,
            Mode::Case3,
        ] {
            let manifest = CampaignManifest {
                format_version: sentomist_tracestore::MANIFEST_VERSION,
                mode: mode.name().to_string(),
                params: mode.params(),
                seeds: 4,
                base_seed: 100,
                errors: vec![],
            };
            let back = Mode::from_campaign(&manifest).unwrap();
            assert_eq!(back.name(), mode.name());
            assert_eq!(back.params(), mode.params());
        }
    }

    #[test]
    fn unknown_mode_and_malformed_params_are_typed_errors() {
        let mut manifest = CampaignManifest {
            format_version: sentomist_tracestore::MANIFEST_VERSION,
            mode: "warp".to_string(),
            params: vec![],
            seeds: 1,
            base_seed: 0,
            errors: vec![],
        };
        assert!(Mode::from_campaign(&manifest)
            .unwrap_err()
            .0
            .contains("unknown stored campaign mode"));
        manifest.mode = "trigger".to_string();
        manifest.params = vec!["no-equals-sign".to_string()];
        assert!(Mode::from_campaign(&manifest)
            .unwrap_err()
            .0
            .contains("malformed"));
        manifest.params = vec!["period=fast".to_string()];
        assert!(Mode::from_campaign(&manifest)
            .unwrap_err()
            .0
            .contains("wants a number"));
    }

    #[test]
    fn program_digest_is_stable_per_mode() {
        let a = Mode::Case2.program_digest().unwrap();
        let b = Mode::Case2.program_digest().unwrap();
        assert_eq!(a, b);
        assert_ne!(
            Mode::Case2.program_digest().unwrap(),
            Mode::Case3.program_digest().unwrap()
        );
    }
}
