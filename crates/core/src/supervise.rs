//! The seed-sweep worker pool: panic isolation, watchdogs,
//! deterministic retry, and incremental completion reporting.
//!
//! Every seed sweep in the workspace — live campaigns, hunts, corpus
//! re-mines, replays and the daemon's jobs — runs on this one pool. At
//! campaign scale a job cannot be trusted to complete or fail politely:
//! a panicking job would unwind its worker, a runaway emulation would
//! hang the sweep forever, and a transient failure (I/O hiccup, injected
//! chaos) would burn the seed permanently. [`run_supervised`] fans the
//! seeds over scoped worker threads and hardens each attempt:
//!
//! * **panic isolation** — every attempt runs under
//!   [`std::panic::catch_unwind`]; a panic becomes a typed
//!   [`RunError`] with [`FailureKind::Panic`] and the pool keeps going.
//!   Panic output from supervised attempts is suppressed via a
//!   process-wide hook that only mutes threads marked as supervised, so
//!   unrelated panics still print normally.
//! * **watchdog** — with [`SupervisorOptions::timeout`] set, each attempt
//!   runs on a detached thread and the supervisor waits at most that
//!   long; on expiry it flips the attempt's [`RunContext`] cancel flag
//!   (cooperative jobs poll it between emulation slices) and records a
//!   [`FailureKind::TimedOut`] error. A truly wedged attempt thread is
//!   abandoned — it leaks, but the campaign finishes. A per-run cycle
//!   budget ([`SupervisorOptions::cycle_budget`]) travels in the context
//!   for budget-aware jobs to enforce in VM time.
//! * **bounded deterministic retry** — transient failures and panics are
//!   retried up to [`SupervisorOptions::max_retries`] times with a
//!   backoff schedule that is a pure function of `(seed, attempt)`
//!   ([`backoff_delay_ms`]), so a replayed campaign sleeps the same
//!   schedule bit for bit. Watchdog kills and fatal failures are never
//!   retried.
//! * **incremental reporting** — every finished seed (success or final
//!   failure) is handed to the caller's `on_complete` callback on the
//!   collecting thread, in completion order, before the campaign ends;
//!   the CLI journals these into the trace store to make a killed
//!   campaign resumable ([`SeedReport`] round-trips through JSON).
//!
//! Determinism contract: the aggregated [`CampaignResult`] is sorted by
//! seed and (given pure jobs) identical for every thread count — worker
//! scheduling only changes *when* each outcome is produced, never what
//! it contains or where it lands. With no timeout configured, attempts
//! run inline on the scoped workers — the clean path costs one
//! `catch_unwind` frame over calling the job directly.
//!
//! The pool is generic over the job's success type:
//! [`run_supervised_typed`] supervises any `Fn(&RunContext) ->
//! Result<T, RunFailure>` and reports [`TypedReport<T>`]s — the hunt
//! subsystem ([`crate::hunt`]) runs whole mined-and-checked iteration
//! records through it. [`run_supervised`] is the `T = RunOutcome`
//! specialization that additionally stamps wall times, prints progress
//! lines and aggregates a [`CampaignResult`]. [`supervise_once`] is the
//! same envelope for a single seed on the calling thread — replays and
//! the daemon's per-request jobs.

use crate::campaign::{CampaignResult, FailureKind, RunError, RunOutcome};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Once};
use std::time::{Duration, Instant};

/// How a supervised job failed. The variant picks the retry policy; the
/// supervisor adds panics and watchdog kills on its own.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunFailure {
    /// Worth retrying: the failure may clear on a second attempt
    /// (I/O hiccup, injected transient fault).
    Transient(String),
    /// Retrying cannot help (bad configuration, impossible request).
    Fatal(String),
    /// The job noticed it exceeded its cycle budget or was cancelled;
    /// recorded as [`FailureKind::TimedOut`], never retried.
    TimedOut(String),
}

impl RunFailure {
    /// The failure message.
    pub fn message(&self) -> &str {
        match self {
            RunFailure::Transient(m) | RunFailure::Fatal(m) | RunFailure::TimedOut(m) => m,
        }
    }
}

/// Per-attempt execution context handed to supervised jobs.
///
/// Cancellation is cooperative: the watchdog flips the flag and
/// budget-aware jobs poll [`RunContext::cancelled`] between emulation
/// slices (see `sentomist-apps`' supervised job builders). The cycle
/// budget rides along for jobs that can meter themselves in VM cycles —
/// deterministic, unlike wall-clock.
#[derive(Debug, Clone)]
pub struct RunContext {
    seed: u64,
    attempt: u32,
    cycle_budget: Option<u64>,
    cancel: Arc<AtomicBool>,
}

impl RunContext {
    /// A fresh context for one attempt at one seed.
    pub fn new(seed: u64, attempt: u32, cycle_budget: Option<u64>) -> RunContext {
        RunContext {
            seed,
            attempt,
            cycle_budget,
            cancel: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The seed being run.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// 1-based attempt number (2 means first retry).
    pub fn attempt(&self) -> u32 {
        self.attempt
    }

    /// Cycle budget for this run, if one was configured.
    pub fn cycle_budget(&self) -> Option<u64> {
        self.cycle_budget
    }

    /// Whether the watchdog has asked this attempt to stop.
    pub fn cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Asks the attempt to stop at its next poll point.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }
}

/// How a supervised campaign should be driven.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorOptions {
    /// Worker threads (clamped to `1..=seeds`).
    pub threads: usize,
    /// Emit one progress line per finished run on stderr.
    pub progress: bool,
    /// Retries granted to transient failures and panics (0 = none).
    pub max_retries: u32,
    /// Wall-clock watchdog per attempt. `None` runs attempts inline
    /// (no watchdog, near-zero overhead).
    pub timeout: Option<Duration>,
    /// Cycle budget per run, enforced by budget-aware jobs via
    /// [`RunContext::cycle_budget`].
    pub cycle_budget: Option<u64>,
    /// Base backoff delay in milliseconds (0 disables sleeping; the
    /// schedule stays deterministic either way).
    pub backoff_base_ms: u64,
    /// Chaos hook: stop dispatching new seeds once this many have
    /// completed — simulates a campaign killed mid-flight for
    /// checkpoint-resume testing. In-flight seeds still finish.
    pub stop_after: Option<usize>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            threads: 1,
            progress: false,
            max_retries: 0,
            timeout: None,
            cycle_budget: None,
            backoff_base_ms: 25,
            stop_after: None,
        }
    }
}

/// What the supervisor reports when a seed finishes — either a final
/// outcome or a final error, plus the attempts it took. Serializes to
/// one self-contained JSON object, the campaign journal's line format.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedReport {
    /// The seed.
    pub seed: u64,
    /// Attempts spent (1 = first try succeeded or failed fatally).
    pub attempts: u32,
    /// The outcome, when the seed succeeded.
    #[serde(default)]
    pub outcome: Option<RunOutcome>,
    /// The error, when the seed failed for good.
    #[serde(default)]
    pub error: Option<RunError>,
}

/// SplitMix64 — the canonical 64-bit finalizer, used to derive
/// deterministic backoff jitter (and chaos fault draws) from seeds.
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The deterministic backoff delay after failed attempt `attempt`
/// (1-based): exponential in the attempt with seed-derived jitter, a pure
/// function of its arguments so replays sleep the identical schedule.
pub fn backoff_delay_ms(seed: u64, attempt: u32, base_ms: u64) -> u64 {
    if base_ms == 0 {
        return 0;
    }
    let exp = base_ms.saturating_mul(1u64 << attempt.saturating_sub(1).min(6));
    exp + splitmix64(seed ^ u64::from(attempt).wrapping_mul(0xA076_1D64_78BD_642F)) % base_ms
}

thread_local! {
    static SUPERVISED_THREAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

static QUIET_HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that suppresses output for
/// panics on threads currently running a supervised attempt and defers
/// to the previous hook for everything else. Supervised panics are
/// expected — they come back as typed [`RunError`]s — so printing each
/// would drown the progress output.
fn install_quiet_panic_hook() {
    QUIET_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPERVISED_THREAD.with(std::cell::Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Marks the current thread supervised for the guard's lifetime;
/// restores on drop even when the marked code panics.
struct SupervisedMark;

impl SupervisedMark {
    fn set() -> SupervisedMark {
        SUPERVISED_THREAD.with(|s| s.set(true));
        SupervisedMark
    }
}

impl Drop for SupervisedMark {
    fn drop(&mut self) {
        SUPERVISED_THREAD.with(|s| s.set(false));
    }
}

struct AttemptFailure {
    kind: FailureKind,
    message: String,
    retryable: bool,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn normalize<T>(caught: std::thread::Result<Result<T, RunFailure>>) -> Result<T, AttemptFailure> {
    match caught {
        Ok(Ok(outcome)) => Ok(outcome),
        Ok(Err(RunFailure::Transient(message))) => Err(AttemptFailure {
            kind: FailureKind::Error,
            message,
            retryable: true,
        }),
        Ok(Err(RunFailure::Fatal(message))) => Err(AttemptFailure {
            kind: FailureKind::Error,
            message,
            retryable: false,
        }),
        Ok(Err(RunFailure::TimedOut(message))) => Err(AttemptFailure {
            kind: FailureKind::TimedOut,
            message,
            retryable: false,
        }),
        Err(payload) => Err(AttemptFailure {
            kind: FailureKind::Panic,
            message: format!("panicked: {}", panic_message(payload.as_ref())),
            retryable: true,
        }),
    }
}

fn run_attempt<T, F>(
    job: &Arc<F>,
    ctx: &RunContext,
    timeout: Option<Duration>,
) -> Result<T, AttemptFailure>
where
    T: Send + 'static,
    F: Fn(&RunContext) -> Result<T, RunFailure> + Send + Sync + 'static,
{
    let Some(limit) = timeout else {
        // No watchdog: run inline on the worker. One catch_unwind frame
        // is the entire clean-path cost over calling the job directly.
        return normalize(catch_unwind(AssertUnwindSafe(|| {
            let _mark = SupervisedMark::set();
            job(ctx)
        })));
    };
    let (tx, rx) = mpsc::channel();
    let job = Arc::clone(job);
    let attempt_ctx = ctx.clone();
    let spawned = std::thread::Builder::new()
        .name(format!("sentomist-run-{:016x}", ctx.seed()))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let _mark = SupervisedMark::set();
                job(&attempt_ctx)
            }));
            let _ = tx.send(result); // receiver may have timed out and left
        });
    match spawned {
        Err(e) => Err(AttemptFailure {
            kind: FailureKind::Error,
            message: format!("spawning watchdogged run thread: {e}"),
            retryable: true,
        }),
        // The handle is dropped: on timeout the attempt thread is
        // abandoned (cancelled cooperatively, leaked if truly wedged).
        Ok(_detached) => match rx.recv_timeout(limit) {
            Ok(result) => normalize(result),
            Err(_) => {
                ctx.cancel();
                Err(AttemptFailure {
                    kind: FailureKind::TimedOut,
                    message: format!("watchdog: run exceeded {} ms wall clock", limit.as_millis()),
                    retryable: false,
                })
            }
        },
    }
}

/// What the supervisor reports when a seed of a typed job finishes:
/// either a final value or a final error, the attempts spent, and the
/// measured wall time (kept out of the value so typed results stay
/// timing-free and thread-count-deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct TypedReport<T> {
    /// The seed.
    pub seed: u64,
    /// Attempts spent (1 = first try succeeded or failed fatally).
    pub attempts: u32,
    /// Wall-clock milliseconds of the successful attempt (0 on failure).
    pub wall_time_ms: u64,
    /// The job's value, when the seed succeeded.
    pub outcome: Option<T>,
    /// The error, when the seed failed for good.
    pub error: Option<RunError>,
}

fn supervise_seed<T, F>(seed: u64, options: &SupervisorOptions, job: &Arc<F>) -> TypedReport<T>
where
    T: Send + 'static,
    F: Fn(&RunContext) -> Result<T, RunFailure> + Send + Sync + 'static,
{
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        let ctx = RunContext::new(seed, attempt, options.cycle_budget);
        let started = Instant::now();
        match run_attempt(job, &ctx, options.timeout) {
            Ok(outcome) => {
                return TypedReport {
                    seed,
                    attempts: attempt,
                    wall_time_ms: started.elapsed().as_millis() as u64,
                    outcome: Some(outcome),
                    error: None,
                };
            }
            Err(failure) => {
                if failure.retryable && attempt <= options.max_retries {
                    std::thread::sleep(Duration::from_millis(backoff_delay_ms(
                        seed,
                        attempt,
                        options.backoff_base_ms,
                    )));
                    continue;
                }
                return TypedReport {
                    seed,
                    attempts: attempt,
                    wall_time_ms: 0,
                    outcome: None,
                    error: Some(RunError {
                        seed,
                        message: failure.message,
                        kind: failure.kind,
                        attempts: attempt,
                    }),
                };
            }
        }
    }
}

/// Supervises a single seed of a typed job on the calling thread's
/// schedule: the attempt runs on a watchdogged worker thread with panic
/// isolation, transient failures retry with deterministic backoff, and
/// the final [`TypedReport`] carries either the value or the typed
/// error. This is [`run_supervised_typed`] for a fleet of one — long-
/// running services use it to give each dequeued job the same fault
/// envelope a campaign seed gets, so one poisoned request never takes
/// down the process.
pub fn supervise_once<T, F>(seed: u64, options: &SupervisorOptions, job: Arc<F>) -> TypedReport<T>
where
    T: Send + 'static,
    F: Fn(&RunContext) -> Result<T, RunFailure> + Send + Sync + 'static,
{
    install_quiet_panic_hook();
    supervise_seed(seed, options, &job)
}

/// Seed-sorted aggregation of a typed supervised campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisedResult<T> {
    /// `(seed, value)` for every seed that succeeded, ascending by seed.
    pub outcomes: Vec<(u64, T)>,
    /// Final errors, ascending by seed.
    pub errors: Vec<RunError>,
}

/// Fans `seeds` over a supervised worker pool running a job with an
/// arbitrary success type: panics are caught, hung attempts are
/// watchdogged, transient failures retried, and every finished seed
/// reported to `on_complete` (on the calling thread, in completion
/// order) before the aggregated, seed-sorted [`SupervisedResult`] is
/// returned — so, given pure jobs, the result is identical for every
/// thread count.
///
/// The job takes a [`RunContext`] rather than a bare seed so the
/// watchdog can cancel it cooperatively and budget-aware jobs can meter
/// their own cycles. `T: 'static` and `F: 'static` (and the `Arc`) are
/// what let a timed-out attempt thread outlive the campaign instead of
/// hanging it. The typed pool itself prints nothing — callers honoring
/// [`SupervisorOptions::progress`] emit their own lines from
/// `on_complete` (as [`run_supervised`] does).
pub fn run_supervised_typed<T, F, C>(
    seeds: &[u64],
    options: &SupervisorOptions,
    job: Arc<F>,
    mut on_complete: C,
) -> SupervisedResult<T>
where
    T: Send + 'static,
    F: Fn(&RunContext) -> Result<T, RunFailure> + Send + Sync + 'static,
    C: FnMut(&TypedReport<T>),
{
    install_quiet_panic_hook();
    let threads = options.threads.clamp(1, seeds.len().max(1));
    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<TypedReport<T>>();
    let mut outcomes = Vec::new();
    let mut errors = Vec::new();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let completed = &completed;
            let job = &job;
            scope.spawn(move || loop {
                if let Some(limit) = options.stop_after {
                    if completed.load(Ordering::SeqCst) >= limit {
                        break;
                    }
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&seed) = seeds.get(i) else { break };
                let report = supervise_seed(seed, options, job);
                completed.fetch_add(1, Ordering::SeqCst);
                if tx.send(report).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        // Collect on the calling thread while workers run, so
        // `on_complete` can journal each seed the moment it lands.
        for report in rx {
            on_complete(&report);
            match (report.outcome, report.error) {
                (Some(outcome), _) => outcomes.push((report.seed, outcome)),
                (None, Some(error)) => errors.push(error),
                (None, None) => {}
            }
        }
    });
    outcomes.sort_by_key(|(seed, _)| *seed);
    errors.sort_by_key(|e: &RunError| e.seed);
    SupervisedResult { outcomes, errors }
}

/// Fans `seeds` over a supervised worker pool: panics are caught, hung
/// attempts are watchdogged, transient failures retried, and every
/// finished seed reported to `on_complete` (on the calling thread, in
/// completion order) before the aggregated, seed-sorted
/// [`CampaignResult`] is returned.
///
/// The job takes a [`RunContext`] rather than a bare seed so the
/// watchdog can cancel it cooperatively and budget-aware jobs can meter
/// their own cycles. This is the `T = RunOutcome` specialization of
/// [`run_supervised_typed`]: it stamps each outcome's
/// [`RunOutcome::wall_time_ms`] from the attempt's measured wall time
/// before journaling or aggregating it.
pub fn run_supervised<F, C>(
    seeds: &[u64],
    options: &SupervisorOptions,
    job: Arc<F>,
    mut on_complete: C,
) -> CampaignResult
where
    F: Fn(&RunContext) -> Result<RunOutcome, RunFailure> + Send + Sync + 'static,
    C: FnMut(&SeedReport),
{
    let mut outcomes = Vec::new();
    let mut errors = Vec::new();
    run_supervised_typed(seeds, options, job, |report: &TypedReport<RunOutcome>| {
        let stamped = report.outcome.clone().map(|mut o| {
            o.wall_time_ms = report.wall_time_ms;
            o
        });
        if options.progress {
            match (&stamped, &report.error) {
                (Some(o), _) => eprintln!(
                    "campaign: seed {} done — {} samples, {} symptoms, \
                     verdict {:?} ({} ms, {} attempt{})",
                    report.seed,
                    o.samples,
                    o.symptoms,
                    o.verdict,
                    o.wall_time_ms,
                    report.attempts,
                    if report.attempts == 1 { "" } else { "s" }
                ),
                (None, Some(e)) => eprintln!(
                    "campaign: seed {} FAILED ({}) after {} attempt{} — {}",
                    report.seed,
                    e.kind.as_str(),
                    report.attempts,
                    if report.attempts == 1 { "" } else { "s" },
                    e.message
                ),
                (None, None) => {}
            }
        }
        let seed_report = SeedReport {
            seed: report.seed,
            attempts: report.attempts,
            outcome: stamped.clone(),
            error: report.error.clone(),
        };
        on_complete(&seed_report);
        match (stamped, report.error.clone()) {
            (Some(outcome), _) => outcomes.push(outcome),
            (None, Some(error)) => errors.push(error),
            (None, None) => {}
        }
    });
    outcomes.sort_by_key(|o: &RunOutcome| o.seed);
    errors.sort_by_key(|e: &RunError| e.seed);
    CampaignResult { outcomes, errors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Verdict;

    fn ok_outcome(seed: u64) -> RunOutcome {
        RunOutcome {
            seed,
            samples: 5,
            symptoms: 0,
            buggy_ranks: vec![],
            verdict: Verdict::Clean,
            trace_digest: format!("{:016x}", splitmix64(seed)),
            wall_time_ms: 0,
        }
    }

    #[test]
    fn panics_become_typed_errors_and_the_pool_survives() {
        let seeds: Vec<u64> = (0..12).collect();
        let job = Arc::new(|ctx: &RunContext| {
            if ctx.seed() % 4 == 2 {
                panic!("boom at {}", ctx.seed());
            }
            Ok(ok_outcome(ctx.seed()))
        });
        let opts = SupervisorOptions {
            threads: 4,
            ..SupervisorOptions::default()
        };
        let result = run_supervised(&seeds, &opts, job, |_| {});
        assert_eq!(result.outcomes.len(), 9);
        assert_eq!(result.errors.len(), 3);
        for e in &result.errors {
            assert_eq!(e.kind, FailureKind::Panic);
            assert_eq!(e.attempts, 1);
            assert!(e.message.contains("boom"), "{}", e.message);
        }
        let failing: Vec<u64> = result.errors.iter().map(|e| e.seed).collect();
        assert_eq!(failing, vec![2, 6, 10]);
    }

    #[test]
    fn transient_failures_clear_on_retry() {
        let job = Arc::new(|ctx: &RunContext| {
            if ctx.attempt() == 1 {
                Err(RunFailure::Transient("flaky".into()))
            } else {
                Ok(ok_outcome(ctx.seed()))
            }
        });
        let opts = SupervisorOptions {
            max_retries: 2,
            backoff_base_ms: 0,
            ..SupervisorOptions::default()
        };
        let mut attempts_seen = Vec::new();
        let result = run_supervised(&[1, 2, 3], &opts, job, |r| attempts_seen.push(r.attempts));
        assert_eq!(result.outcomes.len(), 3);
        assert!(result.errors.is_empty());
        assert_eq!(attempts_seen, vec![2, 2, 2]);
    }

    #[test]
    fn retry_budget_is_bounded_and_fatal_is_not_retried() {
        let fatal_calls = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&fatal_calls);
        let job = Arc::new(move |ctx: &RunContext| {
            if ctx.seed() == 1 {
                counter.fetch_add(1, Ordering::SeqCst);
                Err(RunFailure::Fatal("hopeless".into()))
            } else {
                Err(RunFailure::Transient("always flaky".into()))
            }
        });
        let opts = SupervisorOptions {
            max_retries: 2,
            backoff_base_ms: 0,
            ..SupervisorOptions::default()
        };
        let result = run_supervised(&[1, 2], &opts, job, |_| {});
        assert_eq!(result.errors.len(), 2);
        assert_eq!(fatal_calls.load(Ordering::SeqCst), 1); // no retry on Fatal
        assert_eq!(result.errors[0].attempts, 1);
        assert_eq!(result.errors[1].attempts, 3); // 1 try + 2 retries
        assert_eq!(result.errors[1].kind, FailureKind::Error);
    }

    #[test]
    fn watchdog_kills_a_hung_run_and_the_rest_complete() {
        let job = Arc::new(|ctx: &RunContext| {
            if ctx.seed() == 7 {
                // Hang until cancelled (a cooperative runaway).
                while !ctx.cancelled() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                return Err(RunFailure::TimedOut("noticed cancellation".into()));
            }
            Ok(ok_outcome(ctx.seed()))
        });
        let opts = SupervisorOptions {
            threads: 2,
            timeout: Some(Duration::from_millis(50)),
            max_retries: 3, // must NOT retry the timeout
            backoff_base_ms: 0,
            ..SupervisorOptions::default()
        };
        let started = Instant::now();
        let result = run_supervised(&[5, 6, 7, 8], &opts, job, |_| {});
        assert!(started.elapsed() < Duration::from_secs(10));
        assert_eq!(result.outcomes.len(), 3);
        assert_eq!(result.errors.len(), 1);
        let e = &result.errors[0];
        assert_eq!((e.seed, e.kind), (7, FailureKind::TimedOut));
        assert_eq!(e.attempts, 1);
        assert!(e.message.contains("watchdog"), "{}", e.message);
    }

    #[test]
    fn stop_after_halts_dispatch_but_finishes_in_flight_seeds() {
        let seeds: Vec<u64> = (0..20).collect();
        let job = Arc::new(|ctx: &RunContext| Ok(ok_outcome(ctx.seed())));
        let opts = SupervisorOptions {
            stop_after: Some(5),
            ..SupervisorOptions::default()
        };
        let result = run_supervised(&seeds, &opts, job, |_| {});
        // Single-threaded: exactly 5 seeds completed, in dispatch order.
        assert_eq!(result.outcomes.len(), 5);
        let done: Vec<u64> = result.outcomes.iter().map(|o| o.seed).collect();
        assert_eq!(done, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_grows() {
        let a: Vec<u64> = (1..6).map(|n| backoff_delay_ms(42, n, 10)).collect();
        let b: Vec<u64> = (1..6).map(|n| backoff_delay_ms(42, n, 10)).collect();
        assert_eq!(a, b);
        // Exponential envelope: attempt n waits at least base * 2^(n-1).
        for (i, &d) in a.iter().enumerate() {
            assert!(d >= 10 << i, "attempt {} delayed only {d} ms", i + 1);
        }
        assert_ne!(
            backoff_delay_ms(1, 1, 10) % 10,
            backoff_delay_ms(2, 1, 10) % 10,
            "jitter should vary with the seed (for these two seeds)"
        );
        assert_eq!(backoff_delay_ms(9, 3, 0), 0);
    }

    #[test]
    fn seed_report_round_trips_through_json() {
        let ok = SeedReport {
            seed: 3,
            attempts: 2,
            outcome: Some(ok_outcome(3)),
            error: None,
        };
        let failed = SeedReport {
            seed: 4,
            attempts: 3,
            outcome: None,
            error: Some(RunError {
                seed: 4,
                message: "panicked: boom".into(),
                kind: FailureKind::Panic,
                attempts: 3,
            }),
        };
        for report in [ok, failed] {
            let line = serde_json::to_string(&report).unwrap();
            let back: SeedReport = serde_json::from_str(&line).unwrap();
            assert_eq!(back, report);
        }
    }
}
