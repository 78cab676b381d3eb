//! `sentomist_loadgen` — seeded, reproducible load generation for
//! `sentomistd`, in the style of scalability-suite rps ramps.
//!
//! Three modes:
//!
//! * **Single-shot** (`--once`): send one request and write the raw
//!   response payload to stdout (or `--out FILE`) — the mode the CI
//!   smoke job uses to `cmp` a daemon mine against offline `sentomist
//!   trace mine` output. `--shutdown` is the one-frame clean-stop.
//!   Every failure class has its own documented exit code and a
//!   `failure class:` line on stderr.
//! * **Ramp** (default): an open-loop rps ramp
//!   (`--initial-rps/--increment-rps/--target-rps/--duration-per-step`)
//!   that schedules requests at fixed spacing regardless of completions
//!   (so latency includes coordinated-omission-free queueing delay,
//!   measured from each request's *scheduled* send time), and writes
//!   `BENCH_service.json`: p50/p99 latency plus ok/error/shed counts
//!   per step, and the max sustainable rps — the highest step the
//!   daemon absorbed without shedding or erroring.
//! * **Chaos** (`--chaos SEED`, composes with both): start an
//!   in-process seeded TCP fault proxy in front of the daemon and
//!   route every request through it. Faults (mid-frame disconnects,
//!   split writes, slow-loris stalls, truncations, single-byte
//!   corruption) hit a `--chaos-rate` fraction of connections, each
//!   replayable from the seed. Requests run through the deterministic
//!   retry policy (`--retries/--retry-backoff-ms`) — only idempotent
//!   requests are ever replayed — and retry/fault counters land in the
//!   report and on stderr.

use sentomist::args::{self, Args};
use sentomist::core::supervise::splitmix64;
use sentomist::service::{
    request_with_retry, ChaosProxy, Client, ClientConfig, ClientError, FaultPlan, ProxyStats,
    Request, Response, RetryPolicy, RetryStats, WireFailure,
};
use serde::Serialize;
use std::net::{SocketAddr, ToSocketAddrs};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn usage() -> &'static str {
    "sentomist_loadgen — load generator for sentomistd

USAGE:
    sentomist_loadgen --addr HOST:PORT [--once | ramp options] [job options]
    sentomist_loadgen --help

Flags and switches may come in any order. An unknown flag, a flag
without its value or a stray argument is an error (exit 1).

JOB (what each request asks for):
    --job ping                     liveness round-trip (default)
    --job sleep --ms MS            hold a worker MS milliseconds
    --job mine --store PATH [--quarantine]
    --job lint --app NAME [--fixed]
    --job hunt --case N [--fixed] [--top-k K]
    --job emulate [--case N] [--period MS] [--seconds S] [--nu NU]
                                   without --case, the trigger experiment
                                   (defaults: 20 ms, 10 s, nu 0.05); a
                                   case takes none of the three
    --job stats                    service counters
    --job panic                    poisoned-job probe (answers Error)

SINGLE-SHOT:
    --once                         send one request, write raw response
                                   payload to stdout
    --out FILE                     write the payload to FILE instead
    --shutdown                     send a Shutdown frame and exit

RAMP (open-loop, seeded):
    --initial-rps N                first step's request rate (default 2)
    --increment-rps N              added per step (default 2)
    --target-rps N                 last step's rate (default 10)
    --duration-per-step S          seconds per step (default 2)
    --seed S                       base seed (default 42)
    --bench-out FILE               report path (default BENCH_service.json)

WIRE (deadlines, retries, chaos):
    --connect-timeout-ms MS        TCP connect deadline (default 2000)
    --read-timeout-ms MS           per-response-frame deadline (default 30000)
    --write-timeout-ms MS          per-write deadline (default 10000)
    --retries N                    retry budget for idempotent requests
                                   (default 0; 8 under --chaos)
    --retry-backoff-ms MS          deterministic backoff base (default 10)
    --chaos SEED                   start an in-process fault proxy in
                                   front of --addr and route through it
    --chaos-rate R                 fraction of connections faulted
                                   (default 0.25)

EXIT STATUS (single-shot / shutdown):
    0  ok — the response payload was written
    1  the daemon ran the job and answered Error
    2  connection refused / connect failure (request never sent)
    3  overloaded — the daemon shed the job with a typed frame
    4  wire/protocol failure — corrupt, truncated, stalled or rejected
       stream (after exhausting any retry budget)
The failure class is also printed to stderr as `failure class: ...`.
Ramp mode exits 0 and records sheds/errors/retries in the report."
}

/// The flags that take a value.
const VALUES: &[&str] = &[
    "addr",
    "job",
    "ms",
    "store",
    "app",
    "case",
    "top-k",
    "period",
    "seconds",
    "nu",
    "out",
    "initial-rps",
    "increment-rps",
    "target-rps",
    "duration-per-step",
    "seed",
    "bench-out",
    "connect-timeout-ms",
    "read-timeout-ms",
    "write-timeout-ms",
    "retries",
    "retry-backoff-ms",
    "chaos",
    "chaos-rate",
];
const SWITCHES: &[&str] = &["once", "shutdown", "quarantine", "fixed", "help"];

/// Builds the request for one ramp slot (or the single shot). `seed`
/// varies per slot so seeded jobs exercise distinct, reproducible work.
fn build_request(args: &Args, seed: u64) -> Result<Request, String> {
    Ok(match args.value("job").unwrap_or("ping") {
        "ping" => Request::Ping,
        "sleep" => Request::Sleep {
            ms: args.number_or("ms", 10)?,
        },
        "panic" => Request::Panic,
        "stats" => Request::Stats,
        "mine" => Request::Mine {
            store: args
                .value("store")
                .ok_or("--job mine needs --store PATH")?
                .to_string(),
            quarantine: args.has("quarantine"),
        },
        "lint" => Request::Lint {
            app: args
                .value("app")
                .ok_or("--job lint needs --app NAME")?
                .to_string(),
            fixed: args.has("fixed"),
        },
        "hunt" => Request::Hunt {
            case: args.number_or("case", 1)?,
            fixed: args.has("fixed"),
            seed,
            top_k: args.number_or("top-k", 3)?,
        },
        // The daemon applies the trigger defaults, and refuses a trigger
        // parameter sent with a case.
        "emulate" => Request::Emulate {
            case: args.value("case").unwrap_or_default().to_string(),
            period: args.number("period")?,
            seconds: args.number("seconds")?,
            nu: args.number("nu")?,
            seed,
        },
        other => return Err(format!("unknown --job `{other}`")),
    })
}

/// Everything about how requests reach the daemon: deadlines, retry
/// policy, and the optional chaos proxy in the path.
struct WirePlan {
    /// Where requests actually go (the proxy when chaos is on).
    addr: String,
    client: ClientConfig,
    policy: RetryPolicy,
    proxy: Option<ChaosProxy>,
    chaos_seed: Option<u64>,
    chaos_rate: f64,
}

impl WirePlan {
    fn from_args(addr: &str, args: &Args) -> Result<WirePlan, String> {
        let chaos_seed = args.number("chaos")?;
        let chaos_rate = args.number_or("chaos-rate", 0.25)?;
        let connect_ms = args.number_or("connect-timeout-ms", 2_000)?;
        let read_ms = args.number_or("read-timeout-ms", 30_000)?;
        let write_ms = args.number_or("write-timeout-ms", 10_000)?;
        let client = ClientConfig {
            connect_timeout: (connect_ms > 0).then(|| Duration::from_millis(connect_ms)),
            read_timeout: (read_ms > 0).then(|| Duration::from_millis(read_ms)),
            write_timeout: (write_ms > 0).then(|| Duration::from_millis(write_ms)),
        };
        // Under chaos a connection-level fault is the expected case,
        // not the exception; give the retry loop room by default.
        let default_retries = if chaos_seed.is_some() { 8 } else { 0 };
        let policy = RetryPolicy {
            max_retries: args.number_or("retries", default_retries)?,
            backoff_base_ms: args.number_or("retry-backoff-ms", 10)?,
            seed: args.number_or("seed", 42)?,
        };
        let (addr, proxy) = match chaos_seed {
            None => (addr.to_string(), None),
            Some(seed) => {
                let upstream = resolve(addr)?;
                let proxy = ChaosProxy::start(upstream, FaultPlan::new(seed, chaos_rate))
                    .map_err(|e| format!("starting chaos proxy: {e}"))?;
                eprintln!(
                    "chaos proxy on {} -> {upstream} (seed {seed}, rate {chaos_rate})",
                    proxy.local_addr()
                );
                (proxy.local_addr().to_string(), Some(proxy))
            }
        };
        Ok(WirePlan {
            addr,
            client,
            policy,
            proxy,
            chaos_seed,
            chaos_rate,
        })
    }

    /// Tears down the proxy (joining its forwarder threads) and
    /// returns its fault counters.
    fn finish(self) -> Option<ProxyStats> {
        self.proxy.map(|proxy| {
            let stats = proxy.stats();
            proxy.shutdown_and_join();
            stats
        })
    }
}

fn resolve(addr: &str) -> Result<SocketAddr, String> {
    addr.to_socket_addrs()
        .map_err(|e| format!("resolving {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("{addr} resolved to nothing"))
}

/// One ramp step's aggregated results. The invariant `requests == ok +
/// errors + shed` holds with wire failures (retry budget exhausted)
/// counted under `errors` and itemized in `wire_failed`.
#[derive(Debug, Clone, Serialize)]
struct StepReport {
    rps: u64,
    requests: u64,
    ok: u64,
    errors: u64,
    shed: u64,
    /// Requests that exhausted their retry budget on the wire (a
    /// subset of `errors`).
    wire_failed: u64,
    /// Retries performed across the step's requests.
    retries: u64,
    p50_ms: f64,
    p99_ms: f64,
    max_ms: f64,
}

#[derive(Debug, Clone, Serialize)]
struct BenchConfig {
    job: String,
    initial_rps: u64,
    increment_rps: u64,
    target_rps: u64,
    duration_per_step_s: u64,
    seed: u64,
}

/// Wire-level accounting for the whole run: what the retry layer saw,
/// and (under `--chaos`) what the proxy actually injected.
#[derive(Debug, Clone, Copy, Default, Serialize)]
struct WireReport {
    chaos: bool,
    chaos_seed: u64,
    chaos_rate: f64,
    retries: u64,
    connect_failures: u64,
    wire_failures: u64,
    rejects: u64,
    proxy_connections: u64,
    proxy_faulted_connections: u64,
    proxy_disconnects: u64,
    proxy_splits: u64,
    proxy_stalls: u64,
    proxy_truncations: u64,
    proxy_corruptions: u64,
}

impl WireReport {
    fn absorb(&mut self, stats: &RetryStats) {
        self.retries += u64::from(stats.retries);
        self.connect_failures += u64::from(stats.connect_failures);
        self.wire_failures += u64::from(stats.wire_failures);
        self.rejects += u64::from(stats.rejects);
    }

    fn absorb_proxy(&mut self, stats: &ProxyStats) {
        self.proxy_connections = stats.connections;
        self.proxy_faulted_connections = stats.faulted_connections;
        self.proxy_disconnects = stats.disconnects;
        self.proxy_splits = stats.splits;
        self.proxy_stalls = stats.stalls;
        self.proxy_truncations = stats.truncations;
        self.proxy_corruptions = stats.corruptions;
    }
}

#[derive(Debug, Clone, Serialize)]
struct BenchReport {
    config: BenchConfig,
    steps: Vec<StepReport>,
    /// Highest rps step served with zero sheds and zero errors
    /// (0 when even the first step shed).
    max_sustainable_rps: u64,
    wire: WireReport,
}

fn percentile(sorted_ms: &[f64], pct: u64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as u64 * pct / 100) as usize;
    sorted_ms[idx]
}

/// Outcome classes for one scheduled request.
const OUT_OK: u8 = 0;
const OUT_ERROR: u8 = 1;
const OUT_SHED: u8 = 2;
const OUT_WIRE: u8 = 3;

/// One request at its scheduled slot: connect (through the retry
/// layer), send, classify. Latency is measured from the *scheduled*
/// time, so queueing delay the daemon imposes under overload is
/// charged to the daemon, not hidden.
fn fire(
    addr: &str,
    request: Request,
    config: ClientConfig,
    policy: RetryPolicy,
    scheduled: Instant,
) -> (u8, f64, RetryStats) {
    let (outcome, stats) = match request_with_retry(addr, &request, &config, &policy) {
        Ok((Response::Ok(_), stats)) => (OUT_OK, stats),
        Ok((Response::Error(_), stats)) => (OUT_ERROR, stats),
        Ok((Response::Overloaded, stats)) => (OUT_SHED, stats),
        // request_with_retry never yields Ok(Rejected); keep the class
        // total anyway.
        Ok((Response::Rejected(_), stats)) => (OUT_WIRE, stats),
        Err(e) => (
            OUT_WIRE,
            RetryStats {
                attempts: e.attempts,
                retries: e.attempts.saturating_sub(1),
                ..RetryStats::default()
            },
        ),
    };
    let latency_ms = scheduled.elapsed().as_secs_f64() * 1e3;
    (outcome, latency_ms, stats)
}

fn run_ramp(wire: WirePlan, args: &Args) -> Result<(), String> {
    let config = BenchConfig {
        job: args.value("job").unwrap_or("ping").to_string(),
        initial_rps: args.number_or("initial-rps", 2u64)?.max(1),
        increment_rps: args.number_or("increment-rps", 2u64)?.max(1),
        target_rps: args.number_or("target-rps", 10)?,
        duration_per_step_s: args.number_or("duration-per-step", 2u64)?.max(1),
        seed: args.number_or("seed", 42)?,
    };
    let mut wire_report = WireReport {
        chaos: wire.chaos_seed.is_some(),
        chaos_seed: wire.chaos_seed.unwrap_or(0),
        chaos_rate: if wire.chaos_seed.is_some() {
            wire.chaos_rate
        } else {
            0.0
        },
        ..WireReport::default()
    };
    let mut steps = Vec::new();
    let mut slot: u64 = 0;
    let mut rps = config.initial_rps;
    while rps <= config.target_rps {
        let total = rps * config.duration_per_step_s;
        let spacing = Duration::from_nanos(1_000_000_000 / rps);
        let step_start = Instant::now();
        let mut handles = Vec::with_capacity(total as usize);
        for i in 0..total {
            let scheduled = step_start + spacing * (i as u32);
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            let slot_seed = splitmix64(config.seed.wrapping_add(slot));
            let request = build_request(args, slot_seed)?;
            slot += 1;
            let addr = wire.addr.clone();
            let client = wire.client;
            // Per-slot backoff seed: every request's retry schedule is
            // distinct but fully determined by (base seed, slot).
            let policy = RetryPolicy {
                seed: slot_seed,
                ..wire.policy
            };
            handles.push(std::thread::spawn(move || {
                fire(&addr, request, client, policy, scheduled)
            }));
        }
        let mut ok = 0u64;
        let mut errors = 0u64;
        let mut shed = 0u64;
        let mut wire_failed = 0u64;
        let mut retries = 0u64;
        let mut latencies: Vec<f64> = Vec::with_capacity(handles.len());
        for handle in handles {
            match handle.join() {
                Ok((outcome, ms, stats)) => {
                    match outcome {
                        OUT_OK => ok += 1,
                        OUT_SHED => shed += 1,
                        OUT_WIRE => {
                            errors += 1;
                            wire_failed += 1;
                        }
                        _ => errors += 1,
                    }
                    retries += u64::from(stats.retries);
                    wire_report.absorb(&stats);
                    latencies.push(ms);
                }
                Err(_) => errors += 1,
            }
        }
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let step = StepReport {
            rps,
            requests: total,
            ok,
            errors,
            shed,
            wire_failed,
            retries,
            p50_ms: percentile(&latencies, 50),
            p99_ms: percentile(&latencies, 99),
            max_ms: latencies.last().copied().unwrap_or(0.0),
        };
        eprintln!(
            "step rps={} requests={} ok={} errors={} shed={} retries={} p50={:.2}ms p99={:.2}ms",
            step.rps,
            step.requests,
            step.ok,
            step.errors,
            step.shed,
            step.retries,
            step.p50_ms,
            step.p99_ms
        );
        steps.push(step);
        rps += config.increment_rps;
    }
    let max_sustainable_rps = steps
        .iter()
        .filter(|s| s.shed == 0 && s.errors == 0)
        .map(|s| s.rps)
        .max()
        .unwrap_or(0);
    if let Some(proxy_stats) = wire.finish() {
        wire_report.absorb_proxy(&proxy_stats);
        eprintln!(
            "chaos proxy: {} connections, {} faulted ({} disconnects, {} splits, {} stalls, {} truncations, {} corruptions)",
            proxy_stats.connections,
            proxy_stats.faulted_connections,
            proxy_stats.disconnects,
            proxy_stats.splits,
            proxy_stats.stalls,
            proxy_stats.truncations,
            proxy_stats.corruptions
        );
    }
    let report = BenchReport {
        config,
        steps,
        max_sustainable_rps,
        wire: wire_report,
    };
    let json =
        serde_json::to_string_pretty(&report).map_err(|e| format!("serializing report: {e}"))?;
    let out = args.value("bench-out").unwrap_or("BENCH_service.json");
    std::fs::write(out, format!("{json}\n")).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {out} (max sustainable rps: {max_sustainable_rps})");
    Ok(())
}

/// Maps a terminal failure to its documented exit code and prints the
/// failure class to stderr.
fn classify_failure(error: &ClientError) -> u8 {
    match &error.failure {
        WireFailure::Connect(e) => {
            eprintln!(
                "failure class: connect ({e}; after {} attempt(s))",
                error.attempts
            );
            2
        }
        WireFailure::Wire(e) => {
            eprintln!(
                "failure class: wire/protocol ({e}; after {} attempt(s))",
                error.attempts
            );
            4
        }
        WireFailure::Rejected(reason) => {
            eprintln!(
                "failure class: wire/protocol (rejected by daemon: {reason}; after {} attempt(s))",
                error.attempts
            );
            4
        }
    }
}

fn run_once(wire: &WirePlan, args: &Args) -> Result<u8, String> {
    let request = build_request(args, args.number_or("seed", 42)?)?;
    let code = match request_with_retry(wire.addr.as_str(), &request, &wire.client, &wire.policy) {
        Ok((Response::Ok(payload), stats)) => {
            if stats.retries > 0 {
                eprintln!("succeeded after {} attempt(s)", stats.attempts);
            }
            match args.value("out") {
                Some(path) => {
                    std::fs::write(path, &payload).map_err(|e| format!("writing {path}: {e}"))?
                }
                None => {
                    use std::io::Write as _;
                    std::io::stdout()
                        .write_all(&payload)
                        .and_then(|()| std::io::stdout().flush())
                        .map_err(|e| format!("writing stdout: {e}"))?;
                }
            }
            0
        }
        Ok((Response::Error(message), _)) => {
            eprintln!("failure class: error-response ({message})");
            1
        }
        Ok((Response::Overloaded, _)) => {
            eprintln!("failure class: overloaded (job shed by admission control)");
            3
        }
        Ok((Response::Rejected(reason), _)) => {
            eprintln!("failure class: wire/protocol (rejected by daemon: {reason})");
            4
        }
        Err(e) => classify_failure(&e),
    };
    Ok(code)
}

fn run(args: &[String]) -> Result<u8, String> {
    let args = args::parse(args, VALUES, SWITCHES, 0)?;
    if args.has("help") {
        println!("{}", usage());
        return Ok(0);
    }
    let addr = args.value("addr").ok_or("missing --addr HOST:PORT")?;
    let wire = WirePlan::from_args(addr, &args)?;
    if args.has("shutdown") {
        // Shutdown is deliberately outside the retry machinery: it is
        // never safe to replay, and it bypasses any chaos proxy so a
        // soak can always stop its daemon deterministically.
        let code = match Client::connect_with(addr, wire.client) {
            Err(e) => {
                eprintln!("failure class: connect ({e})");
                2
            }
            Ok(mut client) => match client.request(&Request::Shutdown) {
                Ok(Response::Ok(_)) => {
                    eprintln!("daemon acknowledged shutdown");
                    0
                }
                Ok(other) => return Err(format!("unexpected shutdown response: {other:?}")),
                Err(e) => {
                    eprintln!("failure class: wire/protocol ({e})");
                    4
                }
            },
        };
        wire.finish();
        return Ok(code);
    }
    if args.has("once") {
        let code = run_once(&wire, &args);
        wire.finish();
        code
    } else {
        run_ramp(wire, &args).map(|()| 0)
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run with --help for usage");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The parser accepts exactly the flags `usage()` names: every
    /// `--word` in the text, several per line where a job lists its
    /// options.
    #[test]
    fn declared_flags_are_the_documented_flags() {
        let documented: BTreeSet<&str> = usage()
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        let declared: BTreeSet<&str> = VALUES.iter().chain(SWITCHES).copied().collect();
        assert_eq!(declared, documented);
    }
}
