//! End-to-end tests for the mining daemon: byte-identity against the
//! offline CLI (cold and cache-hit), cache invalidation when the
//! generation-stamped index advances, `Overloaded` backpressure,
//! poisoned-job isolation, and clean shutdown.

mod support;

use sentomist::service::{Client, Request, Response};
use serde::Value;
use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use support::{cli, get_u64, run_ok, workdir};

/// A daemon child process bound to a fresh loopback port.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `sentomistd --port 0 <extra args>` and parses the bound
    /// address off its `listening on ADDR` line.
    fn spawn(extra: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sentomistd"))
            .arg("--port")
            .arg("0")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning sentomistd");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout)
            .read_line(&mut line)
            .expect("reading the listening line");
        let addr = line
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected daemon banner: {line:?}"))
            .trim()
            .to_string();
        Daemon { child, addr }
    }

    fn client(&self) -> Client {
        Client::connect(self.addr.as_str()).expect("connecting to the daemon")
    }

    fn request(&self, request: &Request) -> Response {
        self.client().request(request).expect("daemon request")
    }

    /// Expects an `Ok` response and returns its payload.
    fn ok(&self, request: &Request) -> Vec<u8> {
        match self.request(request) {
            Response::Ok(payload) => payload,
            other => panic!("expected Ok, got {other:?}"),
        }
    }

    fn stats(&self) -> Value {
        let payload = self.ok(&Request::Stats);
        serde_json::from_str(std::str::from_utf8(&payload).expect("stats utf-8"))
            .expect("stats json")
    }

    /// Sends the shutdown frame and asserts the process exits 0.
    fn shutdown_clean(mut self) {
        match self.request(&Request::Shutdown) {
            Response::Ok(_) => {}
            other => panic!("shutdown answered {other:?}"),
        }
        let status = self.child.wait().expect("waiting for the daemon");
        assert!(status.success(), "daemon exited {status:?}");
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Harmless if the test already shut it down cleanly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Records a small sharded corpus and returns the offline
/// `trace mine --json` document for it.
fn record_corpus(store: &Path, writers: &str) -> String {
    run_ok(cli().args([
        "campaign",
        "--seeds",
        "3",
        "--seconds",
        "1",
        "--writers",
        writers,
        "--json",
        "--store",
        store.to_str().unwrap(),
    ]));
    offline_mine(store)
}

fn offline_mine(store: &Path) -> String {
    let (stdout, _) = run_ok(cli().args(["trace", "mine", store.to_str().unwrap(), "--json"]));
    stdout
}

#[test]
fn daemon_mine_is_byte_identical_cold_and_cached_and_invalidates_on_merge() {
    let dir = workdir("service-identity");
    let store = dir.join("corpus");
    let offline = record_corpus(&store, "2");

    let daemon = Daemon::spawn(&[]);
    let mine = Request::Mine {
        store: store.to_str().unwrap().to_string(),
        quarantine: false,
    };

    // Cold: the daemon's payload equals the offline document exactly.
    let cold = daemon.ok(&mine);
    assert_eq!(
        cold,
        offline.as_bytes(),
        "cold daemon mine differs from offline trace mine"
    );
    let stats = daemon.stats();
    assert_eq!(get_u64(&stats, "cache_hits"), 0);
    assert_eq!(get_u64(&stats, "cache_misses"), 1);

    // Cache-hit: byte-identical again, served from memory.
    let cached = daemon.ok(&mine);
    assert_eq!(cached, offline.as_bytes());
    let stats = daemon.stats();
    assert_eq!(get_u64(&stats, "cache_hits"), 1);
    assert_eq!(get_u64(&stats, "cache_misses"), 1);

    // `trace merge` compacts the shards and bumps the index generation:
    // the cache entry must be invalidated even though the corpus
    // content (and therefore the document) is unchanged.
    run_ok(cli().args(["trace", "merge", store.to_str().unwrap()]));
    let after_merge = daemon.ok(&mine);
    assert_eq!(
        after_merge,
        offline.as_bytes(),
        "document changed across a content-preserving merge"
    );
    let stats = daemon.stats();
    assert_eq!(
        get_u64(&stats, "cache_misses"),
        2,
        "generation bump did not invalidate the cache"
    );

    // And the re-mined result is cached again under the new fingerprint.
    let recached = daemon.ok(&mine);
    assert_eq!(recached, offline.as_bytes());
    assert_eq!(get_u64(&daemon.stats(), "cache_hits"), 2);

    daemon.shutdown_clean();
}

#[test]
fn loadgen_single_shot_matches_offline_mine() {
    let dir = workdir("service-loadgen-once");
    let store = dir.join("corpus");
    let offline = record_corpus(&store, "1");

    let daemon = Daemon::spawn(&[]);
    let out_path = dir.join("daemon_mine.json");
    let status = Command::new(env!("CARGO_BIN_EXE_sentomist_loadgen"))
        .args([
            "--addr",
            &daemon.addr,
            "--once",
            "--job",
            "mine",
            "--store",
            store.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .status()
        .expect("running loadgen");
    assert!(status.success(), "loadgen --once failed: {status:?}");
    let payload = std::fs::read(&out_path).expect("reading loadgen output");
    assert_eq!(payload, offline.as_bytes());
    daemon.shutdown_clean();
}

#[test]
fn full_queue_sheds_with_overloaded() {
    // One worker, one queue slot: with the worker held by a long sleep
    // and the slot filled, every further job must shed immediately.
    let daemon = Daemon::spawn(&["--workers", "1", "--queue-capacity", "1"]);

    let addr = daemon.addr.clone();
    let hold = std::thread::spawn(move || {
        Client::connect(addr.as_str())
            .expect("connect")
            .request(&Request::Sleep { ms: 1500 })
            .expect("sleep request")
    });
    // Let the long job reach the worker.
    std::thread::sleep(Duration::from_millis(300));

    let probes: Vec<_> = (0..6)
        .map(|_| {
            let addr = daemon.addr.clone();
            std::thread::spawn(move || {
                Client::connect(addr.as_str())
                    .expect("connect")
                    .request(&Request::Sleep { ms: 400 })
                    .expect("probe request")
            })
        })
        .collect();
    let outcomes: Vec<Response> = probes.into_iter().map(|p| p.join().unwrap()).collect();
    let shed = outcomes
        .iter()
        .filter(|r| matches!(r, Response::Overloaded))
        .count();
    assert!(
        shed >= 3,
        "expected most of 6 concurrent jobs shed with a held worker and queue of 1, \
         got {shed}: {outcomes:?}"
    );
    assert!(get_u64(&daemon.stats(), "shed") >= shed as u64);
    assert!(matches!(hold.join().unwrap(), Response::Ok(_)));
    daemon.shutdown_clean();
}

#[test]
fn poisoned_job_answers_typed_error_and_daemon_survives() {
    let daemon = Daemon::spawn(&["--workers", "1"]);
    match daemon.request(&Request::Panic) {
        Response::Error(message) => {
            assert!(
                message.contains("Panic"),
                "error should carry the failure kind: {message}"
            );
        }
        other => panic!("expected a typed error, got {other:?}"),
    }
    // Same worker, next job: the fleet survived the panic.
    assert_eq!(daemon.ok(&Request::Ping), b"pong\n");
    let stats = daemon.stats();
    assert_eq!(get_u64(&stats, "failed"), 1);
    assert_eq!(get_u64(&stats, "completed"), 1);
    daemon.shutdown_clean();
}

#[test]
fn bad_requests_get_typed_errors_not_disconnects() {
    let daemon = Daemon::spawn(&[]);
    // Semantic errors: unknown store path, unknown app, unknown case.
    for request in [
        Request::Mine {
            store: "/nonexistent/corpus".into(),
            quarantine: false,
        },
        Request::Lint {
            app: "nosuchapp".into(),
            fixed: false,
        },
        Request::Slice {
            app: "forwarder".into(),
            fixed: false,
            pcs: vec![70_000],
        },
        Request::Hunt {
            case: 9,
            fixed: false,
            seed: 1,
            top_k: 3,
        },
    ] {
        match daemon.request(&request) {
            Response::Error(_) => {}
            other => panic!("expected Error for {request:?}, got {other:?}"),
        }
    }
    // A malformed request payload is answered on the same connection
    // with a retry-safe Reject (nothing ran), and the connection stays
    // usable for the next (valid) request.
    let mut client = daemon.client();
    // Craft a request frame with invalid JSON by hand.
    use sentomist::service::{read_frame, write_frame, FrameKind, Response as Resp};
    let mut stream = std::net::TcpStream::connect(daemon.addr.as_str()).unwrap();
    write_frame(&mut stream, FrameKind::Request, b"not json").unwrap();
    let frame = read_frame(&mut stream).unwrap();
    match Resp::from_frame(frame).unwrap() {
        Resp::Rejected(message) => assert!(message.contains("malformed")),
        other => panic!("expected Rejected, got {other:?}"),
    }
    write_frame(
        &mut stream,
        FrameKind::Request,
        &Request::Ping.to_bytes().unwrap(),
    )
    .unwrap();
    match Resp::from_frame(read_frame(&mut stream).unwrap()).unwrap() {
        Resp::Ok(payload) => assert_eq!(payload, b"pong\n"),
        other => panic!("connection unusable after a malformed payload: {other:?}"),
    }
    drop(stream);
    assert!(matches!(
        client.request(&Request::Ping).unwrap(),
        Response::Ok(_)
    ));
    daemon.shutdown_clean();
}

#[test]
fn lint_and_hunt_jobs_match_cli_output() {
    let daemon = Daemon::spawn(&[]);

    // Daemon lint == CLI `lint --app forwarder --json`.
    let daemon_lint = daemon.ok(&Request::Lint {
        app: "forwarder".into(),
        fixed: false,
    });
    let (cli_lint, _) = run_ok(cli().args(["lint", "--app", "forwarder", "--json"]));
    assert_eq!(daemon_lint, cli_lint.as_bytes());

    // Daemon slice == CLI `slice --app forwarder --json`, both with the
    // default (lint-flagged) seeds and with explicit --pc seeds.
    let daemon_slice = daemon.ok(&Request::Slice {
        app: "forwarder".into(),
        fixed: false,
        pcs: vec![],
    });
    let (cli_slice, _) = run_ok(cli().args(["slice", "--app", "forwarder", "--json"]));
    assert_eq!(daemon_slice, cli_slice.as_bytes());
    let daemon_slice = daemon.ok(&Request::Slice {
        app: "forwarder".into(),
        fixed: false,
        pcs: vec![5],
    });
    let (cli_slice, _) = run_ok(cli().args(["slice", "--app", "forwarder", "--pc", "5", "--json"]));
    assert_eq!(daemon_slice, cli_slice.as_bytes());

    // Daemon hunt == CLI `hunt --replay` for the same case/seed/policy.
    let daemon_hunt = daemon.ok(&Request::Hunt {
        case: 1,
        fixed: false,
        seed: 11,
        top_k: 3,
    });
    let (cli_hunt, _) =
        run_ok(cli().args(["hunt", "--replay", "--case", "1", "--seed", "11", "--json"]));
    assert_eq!(daemon_hunt, cli_hunt.as_bytes());

    daemon.shutdown_clean();
}

/// Daemon `Emulate` runs the campaign's own job: its reply is the
/// outcome `campaign --replay` prints for the same mode and seed. A
/// trigger parameter sent with a case is refused, as the CLI refuses
/// the flag.
#[test]
fn emulate_job_matches_cli_replay() {
    let daemon = Daemon::spawn(&[]);
    for (case, trigger, seed) in [("", Some((20, 2, 0.05)), 1003u64), ("3", None, 1001)] {
        let reply = daemon.ok(&Request::Emulate {
            case: case.into(),
            period: trigger.map(|(period, _, _)| period),
            seconds: trigger.map(|(_, seconds, _)| seconds),
            nu: trigger.map(|(_, _, nu)| nu),
            seed,
        });
        let reply: Value =
            serde_json::from_str(std::str::from_utf8(&reply).expect("reply utf-8")).unwrap();
        let mut replay = cli();
        replay.args([
            "campaign",
            "--replay",
            "--seed",
            &seed.to_string(),
            "--json",
        ]);
        if case.is_empty() {
            replay.args(["--period", "20", "--seconds", "2", "--nu", "0.05"]);
        } else {
            replay.args(["--case", case]);
        }
        let (stdout, _) = run_ok(&mut replay);
        let doc: Value = serde_json::from_str(&stdout).unwrap();
        assert_eq!(
            doc.get("outcome"),
            Some(&reply),
            "case {case:?} seed {seed}: daemon Emulate diverged from the CLI replay"
        );
    }
    match daemon.request(&Request::Emulate {
        case: "3".into(),
        period: Some(50),
        seconds: None,
        nu: None,
        seed: 1001,
    }) {
        Response::Error(message) => assert!(
            message.contains(
                "--period configures the trigger experiment and cannot be combined with --case"
            ),
            "{message}"
        ),
        other => panic!("a case with a period answered {other:?}"),
    }
    daemon.shutdown_clean();
}

#[test]
fn loadgen_ramp_writes_a_bench_report() {
    let dir = workdir("service-ramp");
    let daemon = Daemon::spawn(&["--workers", "2", "--queue-capacity", "4"]);
    let bench = dir.join("BENCH_service.json");
    let status = Command::new(env!("CARGO_BIN_EXE_sentomist_loadgen"))
        .args([
            "--addr",
            &daemon.addr,
            "--job",
            "sleep",
            "--ms",
            "5",
            "--initial-rps",
            "4",
            "--increment-rps",
            "4",
            "--target-rps",
            "8",
            "--duration-per-step",
            "1",
            "--seed",
            "7",
            "--bench-out",
            bench.to_str().unwrap(),
        ])
        .status()
        .expect("running loadgen ramp");
    assert!(status.success(), "loadgen ramp failed: {status:?}");
    let report: Value =
        serde_json::from_str(&std::fs::read_to_string(&bench).expect("reading bench"))
            .expect("bench json");
    let steps = match report.get("steps") {
        Some(Value::Seq(steps)) => steps,
        other => panic!("steps is {other:?}"),
    };
    assert_eq!(steps.len(), 2, "4→8 rps by 4 is two steps");
    for step in steps {
        let requests = get_u64(step, "requests");
        assert_eq!(
            requests,
            get_u64(step, "ok") + get_u64(step, "errors") + get_u64(step, "shed"),
            "every scheduled request must be accounted for"
        );
        assert!(matches!(step.get("p50_ms"), Some(Value::F64(v)) if *v >= 0.0));
        assert!(matches!(step.get("p99_ms"), Some(Value::F64(v)) if *v >= 0.0));
    }
    assert!(report.get("max_sustainable_rps").is_some());
    daemon.shutdown_clean();
}

#[test]
fn misspelled_flag_is_rejected_before_binding() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sentomistd"))
        .args(["--port", "0", "--wokers", "4"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawning sentomistd");
    // A daemon that accepted the typo would serve forever; give it a
    // bounded window to exit on its own.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("polling the daemon").is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("sentomistd kept running with a misspelled flag");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collecting daemon output");
    assert!(!out.status.success(), "typo exited {:?}", out.status);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("listening on"), "bound anyway: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown flag `--wokers`"),
        "stderr: {stderr}"
    );
    assert!(stderr.contains("USAGE:"), "stderr: {stderr}");
}
