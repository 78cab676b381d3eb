//! `sentobench` — the repository benchmark: live campaigns, corpus
//! re-mines and the mining daemon, end to end and layer by layer.
//!
//! Sentomist turns emulated runs into a ranked list of suspicious
//! intervals: emulate → anatomize → featurize → RBF Gram → SMO → rank.
//! This benchmark measures that chain as its users meet it — a live
//! campaign, a re-mine of a stored corpus, and a daemon answering real
//! verbs — and, in a separate traced run, where the time goes.
//!
//! ```text
//! bash sentobench/run.sh --workload remine-osc --seed 7 --seconds 20 --trace 0
//! ```
//!
//! `run.sh` builds this binary and its sibling `sentomistd` (the
//! repository's daemon source, built by this package) into
//! `$CARGO_TARGET_DIR`, then runs it.
//!
//! Run it from the repository root (the daemon workload reads
//! `tests/fixtures/`). Without `--workload` it runs all four workloads.
//! Each workload runs in its own child process (a re-exec of this
//! binary), so memory is reported per workload. `--traced` is
//! `--trace 1`. Everything is drawn from `--seed`. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and the metrics — the
//! end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. A failed operation or a mismatched output makes the
//! command exit nonzero. Scratch stores live under `.bench_build/` and are
//! deleted at exit; the traced run leaves its spans there as JSON lines.
//!
//! # Workloads
//!
//! | name | what runs | loop | why |
//! |---|---|---|---|
//! | `campaign-ctp` | live case-III campaign: `Mode::Case3.supervised_traced_job()` under `run_supervised` (1 thread) in batches of ≤64 seeds, every run saved with `TraceStore::save_run` into a fresh store (no fsync: see `corpus::scratch_store`) | closed, 1 client | emulation (`netsim`+`tinyvm`) is ~75% of a seed, store writes ~20%; ~98 intervals per ranking, so the Gram work is small |
//! | `remine-osc` | `mine_corpus` of a 4-run case-I corpus recorded at set-up (5 traces, 1,141 intervals per ranking) | closed, 1 client | the `mlcore` Gram and SMO dominate: where a solver change shows |
//! | `remine-ctp` | `mine_corpus` of an 8-run case-III corpus (9 node traces, ~98 intervals per ranking) | closed, 1 client | the same layers used differently — many small traces, tiny rankings; `tracestore` reads and `trace` anatomy weigh most. The control on which a solver change must not move |
//! | `daemon-mix` | a child `sentomistd` (default configuration) serving 55% cached mines, 15% uncached mines, 15% lint, 15% slice; phase `nominal` at 50 rps for two thirds of the window, `peak` at 150 rps for the rest | open, fixed spacing, 2 sender threads, fresh connection per request | the `service` layer — protocol, admission, handlers, FIFO result cache — on real verbs |
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! A unit is one seed (`campaign-ctp`), one `mine_corpus` call
//! (`remine-*`) or one request of phase `nominal` (`daemon-mix`, timed
//! from when it was due).
//!
//! * `setup_s` — median of five set-ups (recording corpora, reference
//!   documents, warm-up, starting the daemon).
//! * `unit_p50_ms`, `unit_p90_ms` — unit latency.
//! * `units_per_s` — units completed per second.
//! * `cpu_ms_per_unit` — CPU time of the serving process per unit (the
//!   benchmark process, or the daemon).
//! * `peak_rss_mb` — `VmHWM` of the serving process.
//!
//! All but `setup_s` and `peak_rss_mb` are computed in each of five
//! equal slices of the window, and the best slice is reported (see
//! `measure::SLICES`): on a shared host a co-tenant can slow the
//! benchmark by up to half for seconds at a time, and the best slice is
//! the one such an episode touched least.
//!
//! # Per-layer metrics (`--trace 1`) and what they should move
//!
//! Each is a mean per decomposed unit (see `decompose`).
//!
//! * `netsim.run_ms`, `tinyvm.instructions`, `tinyvm.mips`,
//!   `tracestore.save_run_ms`, `tracestore.bytes_written`,
//!   `core.supervise_overhead_ms` → `units_per_s` on `campaign-ctp`.
//! * `tracestore.manifests_ms`, `tracestore.load_traces_ms`,
//!   `tracestore.bytes_read`, `tracestore.read_mb_per_s`,
//!   `trace.extract_ms`, `trace.counter_table_ms`, `trace.events`,
//!   `core.featurize_ms`, `core.intervals` → `units_per_s` on
//!   `remine-ctp`; only slightly on `remine-osc`.
//! * `mlcore.scale_ms`, `mlcore.fit_ms`, `mlcore.gram_ms` (a
//!   `Kernel::gram` probe on the same matrix), `mlcore.smo_ms` (fit minus
//!   gram), `mlcore.smo_iterations`, `mlcore.gram_bytes` (l²·8),
//!   `mlcore.support_vectors` → `units_per_s` and `unit_p50_ms` on
//!   `remine-osc`; no change on `remine-ctp`.
//! * `apps.assemble_ms`, `apps.glue_ms` (unit minus its child spans:
//!   manifests, labelling, document rendering) → `unit_p50_ms` on
//!   `remine-ctp`.
//! * `service.{mine_hot,mine_cold,lint,slice}_ms` (client p50 per verb),
//!   `direct.{mine_cold,fingerprint,lint,slice}_ms` (the same work called
//!   in-process) and `service.overhead_ms` (client minus direct, for
//!   lint) → `unit_p50_ms` on `daemon-mix`.
//! * `service.req_p99_ms_{nominal,peak}`, `service.slo_met_ratio_peak`
//!   (share of peak requests answered `Ok` within 100 ms of their due
//!   time), `service.cache_hit_ratio`, `service.hot_hit_ratio`,
//!   `service.cpu_ms_per_req` → `unit_p90_ms` and `cpu_ms_per_unit` on
//!   `daemon-mix`.
//! * `service.shed`, `service.rejected`, `client.retries`,
//!   `client.lateness_p99_ms` → validity of `daemon-mix`: all should be 0
//!   or small.
//! * `bench.trace_overhead_pct` — traced against untraced unit p50 in
//!   the same run (alternate units or batches); validity only. On
//!   `daemon-mix` the load is recorded identically in both modes, so it
//!   reads 0.
//! * `share.{mlcore_fit,netsim,store_trace}_pct` — those layers' share of
//!   the unit, the check that each workload stresses what it claims.
//!
//! A layer a workload never reaches reads 0.
//!
//! # Comparing two commits
//!
//! Build each commit once, each into its own target directory, and run
//! at least ten pairs per workload, alternating which commit goes first
//! and giving both sides the same `--seed` and `--seconds`. Compare
//! medians; a difference counts only when it exceeds the spread
//! (interquartile distance) between one commit's own runs.
//!
//! # Generator limits
//!
//! The host has two cores, so the load comes from one process with at
//! most two sender threads and at most two connections. In `daemon-mix`
//! a sender blocked on a slow reply (an uncached mine takes ~45 ms) sends
//! its next requests late; latency still counts from the due time, and
//! `client.lateness_p99_ms` shows how late the generator ran. The
//! daemon's two workers and the two senders share the same two cores.

mod campaign;
mod corpus;
mod daemon;
mod decompose;
mod layers;
mod measure;
mod remine;
mod spans;

use measure::{result_json, Outcome, TempDir};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

/// The workloads, in the order the all-workloads mode runs them.
const WORKLOADS: [&str; 4] = ["campaign-ctp", "remine-osc", "remine-ctp", "daemon-mix"];

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub workload: &'static str,
    pub seed: u64,
    pub window: Duration,
    pub traced: bool,
    /// Scratch directory of this process, deleted at exit.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub spans_path: PathBuf,
    /// Directory holding this binary and its sibling `sentomistd`.
    pub exe_dir: PathBuf,
}

#[derive(Debug)]
struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
}

const USAGE: &str = "usage: sentobench [--workload campaign-ctp|remine-osc|remine-ctp|daemon-mix] \
                     [--seed N] [--seconds S] [--trace 0|1 | --traced]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: 20.0,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} wants a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                out.workload = Some(
                    WORKLOADS
                        .into_iter()
                        .find(|&k| k == w)
                        .ok_or_else(|| format!("unknown workload `{w}`"))?,
                );
            }
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed wants a whole number".to_string())?
            }
            "--seconds" => {
                out.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds wants a positive number")?
            }
            "--trace" => {
                out.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got `{other}`")),
                }
            }
            "--traced" => out.traced = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn run_one(workload: &'static str, args: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating sentobench: {e}"))?;
    let exe_dir = exe.parent().map(PathBuf::from).unwrap_or_default();
    let out_dir = std::env::current_dir()
        .map_err(|e| format!("reading the working directory: {e}"))?
        .join(".bench_build")
        .join("sentobench");
    let work = TempDir::new(out_dir.join(format!("work-{}", std::process::id())))?;
    let cfg = RunCfg {
        workload,
        seed: args.seed,
        window: Duration::from_secs_f64(args.seconds),
        traced: args.traced,
        work: work.path().to_path_buf(),
        spans_path: out_dir.join(format!("spans-{workload}.jsonl")),
        exe_dir,
    };
    match workload {
        "campaign-ctp" => campaign::run(&cfg),
        "remine-osc" => remine::run(&cfg, remine::OSC),
        "remine-ctp" => remine::run(&cfg, remine::CTP),
        "daemon-mix" => daemon::run(&cfg),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

fn single(workload: &'static str, args: &Args) -> ExitCode {
    match run_one(workload, args) {
        Ok(mut outcome) => {
            if args.traced {
                outcome.metrics = layers::complete(outcome.metrics);
            }
            println!("workload       {workload}");
            println!("output_digest  {:016x}", outcome.output_digest);
            for m in &outcome.metrics {
                println!("{:<28} {:>16.4} {}", m.name, m.value, m.unit);
            }
            let correct = outcome.failed == 0;
            println!("{}", result_json(correct, &outcome));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("sentobench {workload}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Marks the child process that runs one workload.
const CHILD_ENV: &str = "SENTOBENCH_CHILD";

/// Runs each requested workload in its own child process (a re-exec of
/// this binary), so memory is reported per workload, and relays its exit
/// status; the child's result line is the last line of standard output.
///
/// The child, and the daemon it starts, run with `MALLOC_ARENA_MAX=1`:
/// glibc otherwise gives threads extra arenas depending on how their
/// allocations happen to overlap in time, which moved the daemon's peak
/// RSS by a quarter between identical runs (15.5 to 19.7 MB; 12.5 to
/// 13.1 MB with one arena).
fn parent(workloads: &[&'static str], args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("sentobench: locating this binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut code = ExitCode::SUCCESS;
    for &workload in workloads {
        let status = Command::new(&exe)
            .args(["--workload", workload, "--seed"])
            .arg(args.seed.to_string())
            .arg("--seconds")
            .arg(args.seconds.to_string())
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .env(CHILD_ENV, "1")
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("sentobench: workload {workload} failed ({s})");
                code = ExitCode::from(s.code().and_then(|c| u8::try_from(c).ok()).unwrap_or(1));
            }
            Err(e) => {
                eprintln!("sentobench: starting workload {workload}: {e}");
                code = ExitCode::from(2);
            }
        }
    }
    code
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sentobench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) if std::env::var_os(CHILD_ENV).is_some() => single(workload, &args),
        Some(workload) => parent(&[workload], &args),
        None => parent(&WORKLOADS, &args),
    }
}
