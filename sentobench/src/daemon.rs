//! `daemon-mix`: a child `sentomistd` serving a seeded mix of real verbs.
//!
//! Open loop at fixed spacing: phase `nominal` at [`NOMINAL_RPS`] for
//! the first two thirds of the window, phase `peak` at [`PEAK_RPS`] for
//! the last third. Two sender threads alternate requests, each on a
//! fresh connection, so at most two connections are open at once. A
//! request's latency counts from when it was due, so a sender held up
//! by a slow reply charges the wait to the requests behind it; how late
//! the senders ran is reported as `client.lateness_p99_ms`.
//!
//! The mix (exact in every block of 20 requests, in a seeded order):
//! * 55% `Mine` of one of 2 hot corpora — cache hits;
//! * 15% `Mine` cycling through 24 copies of one cold corpus — the
//!   cache holds 16 documents, so these always miss, and each miss
//!   evicts FIFO (the cache's reads beside its writes);
//! * 15% `Lint` and 15% `Slice` of the 3 buggy apps.
//!
//! The oracle: every `Mine` reply is byte-identical to an offline
//! `mine_corpus` of the same corpus, and `Lint`/`Slice` replies equal
//! `tests/fixtures/{lint,slice}_<app>.json`.

use crate::corpus::record;
use crate::decompose::{mine_store, Counts, MineSpec};
use crate::layers;
use crate::measure::{
    cpu_ms, end_to_end, metric, ms, peak_rss_mb, quantile, set_up, Fnv, Metric, Outcome, TempDir,
    Window, SLICES,
};
use crate::spans::Tracer;
use crate::RunCfg;
use sentomist::apps::{bundled_program, mine_corpus, slice_document, CorpusMineOptions, Mode};
use sentomist::core::supervise::splitmix64;
use sentomist::service::{
    request, request_with_retry, ClientConfig, Request, Response, RetryPolicy,
};
use sentomist::tracestore::TraceStore;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Offered load in phase `nominal` (requests per second).
pub const NOMINAL_RPS: f64 = 50.0;
/// Offered load in phase `peak` (requests per second).
pub const PEAK_RPS: f64 = 150.0;
/// A `peak` request meets its objective when answered `Ok` within this
/// long of its due time.
const SLO: Duration = Duration::from_millis(100);
const APPS: [&str; 3] = ["oscilloscope", "forwarder", "ctp"];
const HOT: usize = 2;
const COLD_COPIES: usize = 24;
/// Repetitions of each direct call in the traced run.
const DIRECT_REPS: usize = 5;

/// A running `sentomistd`, shut down (and reaped) when dropped.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(exe: &Path) -> Result<Daemon, String> {
        if !exe.is_file() {
            return Err(format!(
                "the daemon binary {} is missing; build it beside sentobench with \
                 `cargo build --release --manifest-path sentobench/Cargo.toml`",
                exe.display()
            ));
        }
        let mut child = Command::new(exe)
            .args(["--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        let read = stdout.read_line(&mut banner);
        let addr = banner
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        match (read, addr) {
            (Ok(_), Some(addr)) => Ok(Daemon {
                child,
                addr,
                _stdout: stdout,
            }),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("sentomistd printed no address: {banner:?}"))
            }
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn stats(&self) -> Result<Stats, String> {
        match request(self.addr, &Request::Stats) {
            Ok(Response::Ok(body)) => Stats::parse(&String::from_utf8_lossy(&body)),
            other => Err(format!("Stats request failed: {other:?}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let no_retry = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        let _ = request_with_retry(
            self.addr,
            &Request::Shutdown,
            &ClientConfig::service_defaults(),
            &no_retry,
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The daemon counters this workload reads.
#[derive(Debug, Clone, Copy)]
struct Stats {
    cache_hits: u64,
    cache_misses: u64,
    shed: u64,
    rejected: u64,
}

impl Stats {
    fn parse(json: &str) -> Result<Stats, String> {
        let field = |name: &str| -> Result<u64, String> {
            let key = format!("\"{name}\":");
            let at = json
                .find(&key)
                .ok_or_else(|| format!("Stats reply lacks {name}"))?;
            json[at + key.len()..]
                .trim_start()
                .split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|d| d.parse().ok())
                .ok_or_else(|| format!("Stats field {name} is not a number"))
        };
        Ok(Stats {
            cache_hits: field("cache_hits")?,
            cache_misses: field("cache_misses")?,
            shed: field("shed")?,
            rejected: field("rejected")?,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    MineHot(usize),
    MineCold(usize),
    Lint(usize),
    Slice(usize),
}

// Fields drop in order: the daemon stops before its stores are deleted.
struct Setup {
    daemon: Daemon,
    hot: Vec<PathBuf>,
    cold: Vec<PathBuf>,
    hot_docs: Vec<String>,
    cold_doc: String,
    lint: Vec<String>,
    slice: Vec<String>,
    _dir: TempDir,
}

impl Setup {
    fn request(&self, verb: Verb) -> Request {
        let mine = |p: &PathBuf| Request::Mine {
            store: p.display().to_string(),
            quarantine: false,
        };
        match verb {
            Verb::MineHot(h) => mine(&self.hot[h]),
            Verb::MineCold(c) => mine(&self.cold[c]),
            Verb::Lint(a) => Request::Lint {
                app: APPS[a].to_string(),
                fixed: false,
            },
            Verb::Slice(a) => Request::Slice {
                app: APPS[a].to_string(),
                fixed: false,
                pcs: Vec::new(),
            },
        }
    }

    /// Whether a reply carries exactly the expected bytes.
    fn matches(&self, verb: Verb, body: &[u8]) -> bool {
        let body = String::from_utf8_lossy(body);
        match verb {
            Verb::MineHot(h) => body == self.hot_docs[h],
            Verb::MineCold(_) => body == self.cold_doc,
            // The lint fixtures are pinned modulo the trailing newline.
            Verb::Lint(a) => body.trim() == self.lint[a].trim(),
            Verb::Slice(a) => body == self.slice[a],
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("creating {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("listing {}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("listing {}: {e}", from.display()))?;
        let target = to.join(entry.file_name());
        if entry.path().is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|e| format!("copying {}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}

fn fixture(name: &str) -> Result<String, String> {
    let path = Path::new("tests/fixtures").join(name);
    std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn mine_doc(path: &Path) -> Result<String, String> {
    let store = TraceStore::open(path).map_err(|e| e.to_string())?;
    Ok(mine_corpus(&store, &CorpusMineOptions::default())
        .map_err(|e| e.0)?
        .document)
}

fn setup(cfg: &RunCfg, i: usize) -> Result<Setup, String> {
    let dir = TempDir::new(cfg.work.join(format!("daemon-{i}")))?;
    let base = 3_000 + (cfg.seed % 1_000_000) * 100;
    let mut hot = Vec::new();
    for h in 0..HOT {
        let path = dir.path().join(format!("hot-{h}"));
        record(&path, Mode::Case3, base + 4 * h as u64, 4)?;
        hot.push(path);
    }
    let first_cold = dir.path().join("cold-00");
    record(&first_cold, Mode::Case3, base + 8, 8)?;
    let mut cold = vec![first_cold.clone()];
    for c in 1..COLD_COPIES {
        let path = dir.path().join(format!("cold-{c:02}"));
        copy_dir(&first_cold, &path)?;
        cold.push(path);
    }
    let hot_docs = hot
        .iter()
        .map(|p| mine_doc(p))
        .collect::<Result<Vec<_>, _>>()?;
    let cold_doc = mine_doc(&first_cold)?;
    let lint = APPS
        .iter()
        .map(|a| fixture(&format!("lint_{a}.json")))
        .collect::<Result<Vec<_>, _>>()?;
    let slice = APPS
        .iter()
        .map(|a| fixture(&format!("slice_{a}.json")))
        .collect::<Result<Vec<_>, _>>()?;
    let daemon = Daemon::spawn(&cfg.exe_dir.join("sentomistd"))?;
    let setup = Setup {
        daemon,
        hot,
        cold,
        hot_docs,
        cold_doc,
        lint,
        slice,
        _dir: dir,
    };
    // Fill the cache with the hot corpora and touch every other verb.
    let warm = (0..HOT)
        .map(Verb::MineHot)
        .chain((0..APPS.len()).flat_map(|a| [Verb::Lint(a), Verb::Slice(a)]));
    for verb in warm {
        match request(setup.daemon.addr, &setup.request(verb)) {
            Ok(Response::Ok(body)) if setup.matches(verb, &body) => {}
            other => return Err(format!("warm-up {verb:?} failed: {other:?}")),
        }
    }
    Ok(setup)
}

/// Phase `nominal` is the first two thirds of the window.
fn nominal_phase(window: Duration) -> Duration {
    window.mul_f64(2.0 / 3.0)
}

/// The verbs of one block of [`BLOCK`] consecutive requests: 11 cached
/// mines, 3 uncached mines, 3 lints and 3 slices (55/15/15/15%).
const BLOCK: [u8; 20] = [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3];

/// The seeded schedule: due offset, phase (0 nominal, 1 peak), verb.
/// Every block of 20 requests holds the mix exactly, in an order shuffled
/// from the seed, so seeds vary the order but never the composition.
fn schedule(seed: u64, window: Duration) -> Vec<(Duration, usize, Verb)> {
    let nominal = nominal_phase(window);
    let peak = window - nominal;
    let mut due = Vec::new();
    let n = (nominal.as_secs_f64() * NOMINAL_RPS) as u64;
    due.extend((0..n).map(|i| (Duration::from_secs_f64(i as f64 / NOMINAL_RPS), 0)));
    let p = (peak.as_secs_f64() * PEAK_RPS) as u64;
    due.extend((0..p).map(|i| (nominal + Duration::from_secs_f64(i as f64 / PEAK_RPS), 1)));
    let mut kinds = Vec::with_capacity(due.len() + BLOCK.len());
    let mut state = seed;
    while kinds.len() < due.len() {
        let mut block = BLOCK;
        for i in (1..block.len()).rev() {
            state = splitmix64(state);
            block.swap(i, (state % (i as u64 + 1)) as usize);
        }
        kinds.extend(block);
    }
    let mut seen = [0usize; 4];
    due.into_iter()
        .zip(kinds)
        .map(|((at, phase), kind)| {
            let k = seen[usize::from(kind)];
            seen[usize::from(kind)] += 1;
            let verb = match kind {
                0 => Verb::MineHot(k % HOT),
                1 => Verb::MineCold(k % COLD_COPIES),
                2 => Verb::Lint(k % APPS.len()),
                _ => Verb::Slice(k % APPS.len()),
            };
            (at, phase, verb)
        })
        .collect()
}

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
struct Sent {
    phase: usize,
    verb: Verb,
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
    retries: u32,
}

/// Sends `plan` from two sender threads while this thread marks the
/// daemon's CPU time at the slice boundaries of phase `nominal`.
fn drive(
    setup: &Setup,
    seed: u64,
    plan: &[(Duration, usize, Verb)],
    nominal: Duration,
) -> (Instant, Vec<Sent>, Vec<(f64, f64)>) {
    let pid = setup.daemon.pid();
    let config = ClientConfig::service_defaults();
    let policy = RetryPolicy {
        max_retries: 2,
        backoff_base_ms: 10,
        seed,
    };
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut cpu = Vec::with_capacity(SLICES + 1);
    let mut sent = std::thread::scope(|scope| {
        let senders: Vec<_> = (0..2)
            .map(|k| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for &(at, phase, verb) in plan.iter().skip(k).step_by(2) {
                        let due = t0 + at;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let sent = Instant::now();
                        let reply = request_with_retry(
                            setup.daemon.addr,
                            &setup.request(verb),
                            &config,
                            &policy,
                        );
                        let done = Instant::now();
                        let (ok, retries) = match reply {
                            Ok((Response::Ok(body), stats)) => {
                                (setup.matches(verb, &body), stats.retries)
                            }
                            Ok((_, stats)) => (false, stats.retries),
                            Err(e) => (false, e.attempts.saturating_sub(1)),
                        };
                        out.push(Sent {
                            phase,
                            verb,
                            due,
                            sent,
                            done,
                            ok,
                            retries,
                        });
                    }
                    out
                })
            })
            .collect();
        for k in 0..=SLICES {
            let at = nominal.mul_f64(k as f64 / SLICES as f64);
            if let Some(wait) = (t0 + at).checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            if let Ok(ms) = cpu_ms(&pid) {
                cpu.push((at.as_secs_f64(), ms));
            }
        }
        senders
            .into_iter()
            .flat_map(|s| s.join().expect("sender thread panicked"))
            .collect::<Vec<_>>()
    });
    sent.sort_by_key(|s| s.due);
    (t0, sent, cpu)
}

fn median_of(mut f: impl FnMut() -> Result<(), String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(DIRECT_REPS);
    for _ in 0..DIRECT_REPS {
        let t = Instant::now();
        f()?;
        times.push(ms(t.elapsed()));
    }
    Ok(quantile(&times, 0.5))
}

/// The traced run's extra measurements: each verb's work called
/// directly in this process (no wire, queue or cache), with the cold
/// mine decomposed layer by layer.
fn direct(cfg: &RunCfg, setup: &Setup) -> Result<Vec<Metric>, String> {
    let mut tr = Tracer::default();
    let mut counts = Counts::default();
    let spec = MineSpec::for_mode(Mode::Case3)?;
    let store = TraceStore::open(&setup.cold[0]).map_err(|e| e.to_string())?;
    let mut mine_ms = Vec::new();
    for unit in 0..DIRECT_REPS as u64 {
        let start = Instant::now();
        let doc = mine_corpus(&store, &CorpusMineOptions::default()).map_err(|e| e.0)?;
        let end = Instant::now();
        if doc.document != setup.cold_doc {
            return Err("direct cold mine differs from the reference".into());
        }
        mine_ms.push(ms(end - start));
        let id = tr.record("direct.mine_corpus", None, unit, start, end);
        mine_store(&mut tr, id, unit, &store, &spec, &mut counts)?;
    }
    let mut m = layers::from_spans(&tr, &counts, "direct.mine_corpus", "direct.mine_corpus");
    m.push(metric("direct.mine_cold_ms", quantile(&mine_ms, 0.5), "ms"));
    m.push(metric(
        "direct.fingerprint_ms",
        median_of(|| {
            let s = TraceStore::open(&setup.cold[0]).map_err(|e| e.to_string())?;
            s.fingerprint().map(|_| ()).map_err(|e| e.to_string())
        })?,
        "ms",
    ));
    let lint_ms = median_of(|| {
        for (a, app) in APPS.iter().enumerate() {
            let program = bundled_program(app, false).map_err(|e| e.0)?;
            let report = sentomist::staticlint::lint(&program);
            let doc = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
            if doc.trim() != setup.lint[a].trim() {
                return Err(format!("direct lint of {app} differs from its fixture"));
            }
        }
        Ok(())
    })? / APPS.len() as f64;
    m.push(metric("direct.lint_ms", lint_ms, "ms"));
    let slice_ms = median_of(|| {
        for (a, app) in APPS.iter().enumerate() {
            if slice_document(app, false, &[]).map_err(|e| e.0)? != setup.slice[a] {
                return Err(format!("direct slice of {app} differs from its fixture"));
            }
        }
        Ok(())
    })? / APPS.len() as f64;
    m.push(metric("direct.slice_ms", slice_ms, "ms"));
    tr.write_jsonl(&cfg.spans_path)?;
    Ok(m)
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let (setup, setup_s) = set_up(|i| setup(cfg, i))?;
    let plan = schedule(cfg.seed, cfg.window);
    let nominal = nominal_phase(cfg.window);
    let pid = setup.daemon.pid();
    let before = setup.daemon.stats()?;
    let cpu0 = cpu_ms(&pid)?;
    let (t0, sent, cpu_marks) = drive(&setup, cfg.seed, &plan, nominal);
    let cpu = cpu_ms(&pid)? - cpu0;
    let after = setup.daemon.stats()?;
    let rss = peak_rss_mb(&pid)?;

    let failed = sent.iter().filter(|s| !s.ok).count() as u64;
    if failed > 0 {
        eprintln!("daemon-mix: {failed} request(s) failed or mismatched");
    }
    let mut digest = Fnv::default();
    for doc in setup.hot_docs.iter().chain([&setup.cold_doc]) {
        digest.add(doc.as_bytes());
    }
    // The end-to-end metrics are phase `nominal`'s: `peak` runs the two
    // senders near saturation, where latency is the generator's queueing
    // as much as the daemon's, so its tail is reported per layer instead.
    let window = Window {
        seconds: nominal.as_secs_f64(),
        units: sent
            .iter()
            .filter(|s| s.phase == 0)
            .map(|s| ((s.done - t0).as_secs_f64(), ms(s.done - s.due)))
            .collect(),
        cpu: cpu_marks,
    };
    let metrics = if cfg.traced {
        let mut m = direct(cfg, &setup)?;
        m.extend(service_metrics(&sent, before, after, cpu));
        let lint = m
            .iter()
            .find(|x| x.name == "service.lint_ms")
            .map(|x| x.value);
        let direct_lint = m
            .iter()
            .find(|x| x.name == "direct.lint_ms")
            .map(|x| x.value);
        if let (Some(client), Some(direct)) = (lint, direct_lint) {
            m.push(metric("service.overhead_ms", client - direct, "ms"));
        }
        m
    } else {
        end_to_end(setup_s, &window, rss)
    };
    drop(setup);
    Ok(Outcome {
        attempted: sent.len() as u64,
        failed,
        output_digest: digest.0,
        metrics,
    })
}

fn service_metrics(sent: &[Sent], before: Stats, after: Stats, cpu: f64) -> Vec<Metric> {
    let client_p50 = |pick: fn(Verb) -> bool| {
        let v: Vec<f64> = sent
            .iter()
            .filter(|s| pick(s.verb))
            .map(|s| ms(s.done - s.sent))
            .collect();
        quantile(&v, 0.5)
    };
    let phase_p99 = |phase: usize| {
        let v: Vec<f64> = sent
            .iter()
            .filter(|s| s.phase == phase)
            .map(|s| ms(s.done - s.due))
            .collect();
        quantile(&v, 0.99)
    };
    let peak: Vec<&Sent> = sent.iter().filter(|s| s.phase == 1).collect();
    let slo_met = peak
        .iter()
        .filter(|s| s.ok && s.done - s.due <= SLO)
        .count();
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    let hot = sent
        .iter()
        .filter(|s| matches!(s.verb, Verb::MineHot(_)))
        .count();
    let cold = sent
        .iter()
        .filter(|s| matches!(s.verb, Verb::MineCold(_)))
        .count();
    let hot_misses = (misses as f64 - cold as f64).max(0.0);
    let lateness: Vec<f64> = sent.iter().map(|s| ms(s.sent - s.due)).collect();
    vec![
        metric(
            "service.mine_hot_ms",
            client_p50(|v| matches!(v, Verb::MineHot(_))),
            "ms",
        ),
        metric(
            "service.mine_cold_ms",
            client_p50(|v| matches!(v, Verb::MineCold(_))),
            "ms",
        ),
        metric(
            "service.lint_ms",
            client_p50(|v| matches!(v, Verb::Lint(_))),
            "ms",
        ),
        metric(
            "service.slice_ms",
            client_p50(|v| matches!(v, Verb::Slice(_))),
            "ms",
        ),
        metric("service.req_p99_ms_nominal", phase_p99(0), "ms"),
        metric("service.req_p99_ms_peak", phase_p99(1), "ms"),
        metric(
            "service.slo_met_ratio_peak",
            slo_met as f64 / peak.len().max(1) as f64,
            "ratio",
        ),
        metric(
            "service.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
        ),
        metric(
            "service.hot_hit_ratio",
            1.0 - hot_misses / hot.max(1) as f64,
            "ratio",
        ),
        metric(
            "service.cpu_ms_per_req",
            cpu / sent.len().max(1) as f64,
            "ms",
        ),
        metric("service.shed", (after.shed - before.shed) as f64, "count"),
        metric(
            "service.rejected",
            (after.rejected - before.rejected) as f64,
            "count",
        ),
        metric(
            "client.retries",
            sent.iter().map(|s| f64::from(s.retries)).sum(),
            "count",
        ),
        metric("client.lateness_p99_ms", quantile(&lateness, 0.99), "ms"),
    ]
}
