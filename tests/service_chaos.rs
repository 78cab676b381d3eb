//! The wire-fault soak: `sentomistd` under a deterministic, seeded
//! storm of TCP faults — mid-frame disconnects, split writes,
//! slow-loris stalls, half-close truncations, single-byte corruption —
//! injected by the in-process chaos proxy.
//!
//! What must hold, for every fault plan in the pinned sweep:
//!
//! * the daemon never hangs past its read deadline (slow-loris cuts
//!   are asserted with a margin), never leaks a handler thread (the
//!   [`ShutdownReport`] accounting is exact), and survives every
//!   malformed, truncated or corrupted stream with a typed answer;
//! * a request that eventually succeeds through client retries returns
//!   bytes **identical** to the offline `trace mine --json` document —
//!   the wire may be hostile, the answer may not.

mod support;

use sentomist::service::{
    encode_frame, payload_checksum, read_frame, request_with_retry, write_frame, ChaosProxy,
    Client, ClientConfig, FaultPlan, FrameKind, Request, Response, RetryPolicy, Server,
    ServiceConfig, WireFault, HEADER_LEN,
};
use std::io::{BufRead, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use support::{cli, run_ok, workdir};

/// The pinned soak seed: every fault in this file's sweep derives from
/// it, so a failure reproduces bit-for-bit.
const SOAK_SEED: u64 = 0x53_4E_54_4D; // "SNTM"

fn record_corpus(store: &Path) -> String {
    run_ok(cli().args([
        "campaign",
        "--seeds",
        "3",
        "--seconds",
        "1",
        "--writers",
        "1",
        "--json",
        "--store",
        store.to_str().unwrap(),
    ]));
    let (stdout, _) = run_ok(cli().args(["trace", "mine", store.to_str().unwrap(), "--json"]));
    stdout
}

/// An in-process daemon shaped for the soak: tight read deadline so
/// stalls cut fast, generous queue so backpressure never masks wire
/// behavior.
fn soak_server() -> Server {
    Server::start(ServiceConfig {
        workers: 2,
        read_timeout: Some(Duration::from_millis(800)),
        write_timeout: Some(Duration::from_secs(5)),
        ..ServiceConfig::default()
    })
    .expect("starting in-process daemon")
}

fn soak_client_config() -> ClientConfig {
    ClientConfig {
        connect_timeout: Some(Duration::from_secs(2)),
        read_timeout: Some(Duration::from_millis(1500)),
        write_timeout: Some(Duration::from_secs(2)),
    }
}

#[test]
fn soak_idempotent_requests_converge_through_every_fault_plan() {
    let dir = workdir("chaos-soak");
    let store = dir.join("corpus");
    let offline = record_corpus(&store);

    let server = soak_server();
    let mut plan = FaultPlan::new(SOAK_SEED, 0.6);
    plan.max_stall = Duration::from_secs(2);
    let proxy = ChaosProxy::start(server.local_addr(), plan).expect("starting chaos proxy");
    let addr = proxy.local_addr().to_string();

    let config = soak_client_config();
    let policy = RetryPolicy {
        max_retries: 10,
        backoff_base_ms: 5,
        seed: SOAK_SEED,
    };
    let requests: Vec<(&str, Request)> = vec![
        ("ping", Request::Ping),
        (
            "lint",
            Request::Lint {
                app: "forwarder".into(),
                fixed: false,
            },
        ),
        ("stats", Request::Stats),
        (
            "mine",
            Request::Mine {
                store: store.to_str().unwrap().to_string(),
                quarantine: false,
            },
        ),
    ];

    let mut total_retries = 0u32;
    for round in 0..8 {
        for (label, request) in &requests {
            let (response, stats) = request_with_retry(addr.as_str(), request, &config, &policy)
                .unwrap_or_else(|e| {
                    panic!("{label} round {round} never converged: {e} (seed {SOAK_SEED:#x})")
                });
            total_retries += stats.retries;
            let payload = match response {
                Response::Ok(payload) => payload,
                other => panic!("{label} round {round} answered {other:?}"),
            };
            match *label {
                "ping" => assert_eq!(payload, b"pong\n"),
                // The acceptance bar: bytes that survived disconnects,
                // corruption and stalls equal the offline document.
                "mine" => assert_eq!(
                    payload,
                    offline.as_bytes(),
                    "mine through chaos differs from offline trace mine"
                ),
                _ => assert!(!payload.is_empty()),
            }
        }
    }

    let proxy_stats = proxy.stats();
    assert!(
        proxy_stats.faulted_connections > 0,
        "the sweep never exercised a fault: {proxy_stats:?}"
    );
    let injected = proxy_stats.disconnects
        + proxy_stats.splits
        + proxy_stats.stalls
        + proxy_stats.truncations
        + proxy_stats.corruptions;
    assert!(injected > 0, "no fault actually fired: {proxy_stats:?}");
    assert!(
        total_retries > 0,
        "a 0.6 fault rate should have forced at least one retry"
    );

    proxy.shutdown_and_join();
    let report = server.shutdown_and_join();
    assert!(
        report.clean(),
        "daemon leaked or panicked handler threads: {report:?}"
    );
}

#[test]
fn slow_loris_is_cut_at_the_read_deadline_with_margin() {
    let deadline = Duration::from_millis(400);
    let server = Server::start(ServiceConfig {
        read_timeout: Some(deadline),
        ..ServiceConfig::default()
    })
    .expect("starting daemon");

    // Drip half a header, then go silent: only the per-frame deadline
    // can save the handler thread.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .write_all(&[b'S', b'N', b'T', b'M', 2])
        .expect("partial header");
    stream.flush().expect("flush");
    let started = Instant::now();
    let frame = read_frame(&mut stream);
    let elapsed = started.elapsed();

    // The daemon must answer with a typed Reject naming the deadline,
    // no earlier than the deadline itself and not hang much past it.
    match frame {
        Ok(frame) => {
            assert_eq!(frame.kind, FrameKind::Reject, "got {frame:?}");
            let reason = String::from_utf8_lossy(&frame.payload).to_string();
            assert!(reason.contains("deadline"), "reject reason: {reason}");
        }
        Err(e) => panic!("expected a Reject frame, stream died with {e}"),
    }
    assert!(
        elapsed >= Duration::from_millis(300),
        "cut {elapsed:?} arrived before the {deadline:?} deadline"
    );
    assert!(
        elapsed < Duration::from_secs(3),
        "cut took {elapsed:?}, daemon hung past its {deadline:?} deadline"
    );

    let stats = server.stats();
    assert!(
        stats.deadline_cuts >= 1,
        "no deadline cut counted: {stats:?}"
    );
    assert!(stats.rejected >= 1, "no reject counted: {stats:?}");

    let report = server.shutdown_and_join();
    assert!(report.clean(), "slow-loris leaked a thread: {report:?}");
}

#[test]
fn fault_storm_leaks_no_handler_threads() {
    let server = soak_server();
    let mut plan = FaultPlan::new(SOAK_SEED ^ 0xDEAD, 1.0); // every connection faulted
    plan.max_stall = Duration::from_millis(600);
    let proxy = ChaosProxy::start(server.local_addr(), plan).expect("starting proxy");
    let addr = proxy.local_addr().to_string();

    let config = ClientConfig {
        connect_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(700)),
        write_timeout: Some(Duration::from_millis(500)),
    };
    let policy = RetryPolicy {
        max_retries: 1,
        backoff_base_ms: 1,
        seed: SOAK_SEED,
    };
    // Storm the daemon through an all-fault proxy; outcomes are free to
    // fail — the contract under test is thread accounting, not success.
    for _ in 0..24 {
        let _ = request_with_retry(addr.as_str(), &Request::Ping, &config, &policy);
    }
    // And a volley of raw hostile streams, no proxy involved.
    for garbage in [&b"XXXXXXXXXXXXXXXXXXXXXXXX"[..], &[0u8; 3][..], &[]] {
        if let Ok(mut stream) = TcpStream::connect(server.local_addr()) {
            let _ = stream.write_all(garbage);
        } // dropped: mid-exchange disconnects
    }

    let forwarders = proxy.shutdown_and_join();
    assert!(forwarders > 0, "the proxy never forwarded anything");
    let report = server.shutdown_and_join();
    assert!(
        report.handlers_spawned >= 24,
        "storm spawned too few handlers: {report:?}"
    );
    assert_eq!(
        report.handlers_spawned, report.handlers_joined,
        "leaked handler threads: {report:?}"
    );
    assert_eq!(report.handlers_panicked, 0, "handler panicked: {report:?}");
}

#[test]
fn connection_cap_sheds_with_typed_overloaded() {
    let server = Server::start(ServiceConfig {
        max_connections: 1,
        read_timeout: Some(Duration::from_secs(10)),
        ..ServiceConfig::default()
    })
    .expect("starting daemon");
    let addr = server.local_addr();

    // One idle connection occupies the only slot.
    let holder = TcpStream::connect(addr).expect("holder connect");
    std::thread::sleep(Duration::from_millis(150));

    let mut client = Client::connect(addr).expect("connect over cap");
    match client.request(&Request::Ping) {
        Ok(Response::Overloaded) => {}
        other => panic!("expected a typed Overloaded at the cap, got {other:?}"),
    }
    assert!(server.stats().connections_shed >= 1);

    // Releasing the slot restores service.
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match Client::connect(addr).and_then(|mut c| c.request(&Request::Ping)) {
            Ok(Response::Ok(payload)) => {
                assert_eq!(payload, b"pong\n");
                break;
            }
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(50)),
            other => panic!("service never recovered after the cap freed: {other:?}"),
        }
    }

    let report = server.shutdown_and_join();
    assert!(report.clean(), "cap shedding leaked threads: {report:?}");
}

#[test]
fn hostile_streams_get_typed_rejects_and_daemon_survives() {
    let server = soak_server();
    let addr = server.local_addr();

    // (a) Pure garbage: rejected with the frame error, connection closed.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .write_all(b"GARBAGEGARBAGEGARBAGEGARBAGE")
        .expect("write garbage");
    let frame = read_frame(&mut stream).expect("reject for garbage");
    assert_eq!(frame.kind, FrameKind::Reject);
    assert!(String::from_utf8_lossy(&frame.payload).contains("magic"));

    // (b) A truncated frame: header promises more payload than ever
    // arrives, then a clean FIN. Typed Reject, not a hang.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let full = encode_frame(FrameKind::Request, &Request::Ping.to_bytes().unwrap())
        .expect("encoding ping");
    stream
        .write_all(&full[..full.len() - 2])
        .expect("partial frame");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    let frame = read_frame(&mut stream).expect("reject for truncation");
    assert_eq!(frame.kind, FrameKind::Reject);
    assert!(String::from_utf8_lossy(&frame.payload).contains("truncated"));

    // (c) In-flight corruption: a valid frame with one payload byte
    // flipped after the checksum was stamped.
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut corrupt = full.clone();
    corrupt[HEADER_LEN + 3] ^= 0xA5;
    assert_ne!(
        payload_checksum(&corrupt[HEADER_LEN..]),
        payload_checksum(&full[HEADER_LEN..])
    );
    stream.write_all(&corrupt).expect("corrupt frame");
    let frame = read_frame(&mut stream).expect("reject for corruption");
    assert_eq!(frame.kind, FrameKind::Reject);
    assert!(String::from_utf8_lossy(&frame.payload).contains("checksum"));

    // (d) A response-kind frame where a request belongs.
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_frame(&mut stream, FrameKind::Ok, b"i am not a request").expect("write");
    let frame = read_frame(&mut stream).expect("reject for wrong kind");
    assert_eq!(frame.kind, FrameKind::Reject);

    // After all of it the daemon still serves.
    let mut client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.request(&Request::Ping),
        Ok(Response::Ok(_))
    ));
    assert!(server.stats().rejected >= 4);

    let report = server.shutdown_and_join();
    assert!(report.clean(), "hostile streams leaked threads: {report:?}");
}

// ---------------------------------------------------------------------
// Binary-level coverage: the shipped daemon + loadgen under chaos.
// ---------------------------------------------------------------------

/// A daemon child with stderr captured, so the shutdown accounting
/// line is assertable.
struct DaemonProc {
    child: Child,
    addr: String,
}

impl DaemonProc {
    fn spawn(extra: &[&str]) -> DaemonProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sentomistd"))
            .arg("--port")
            .arg("0")
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
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
        DaemonProc { child, addr }
    }

    /// Shuts down via loadgen and returns (exit ok, captured stderr).
    fn shutdown(mut self) -> (bool, String) {
        let status = Command::new(env!("CARGO_BIN_EXE_sentomist_loadgen"))
            .args(["--addr", &self.addr, "--shutdown"])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("running loadgen --shutdown");
        assert!(status.success(), "shutdown frame failed: {status:?}");
        let exit = self.child.wait().expect("waiting for daemon");
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        (exit.success(), stderr)
    }
}

impl Drop for DaemonProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn retried_mine_through_chaos_binary_is_byte_identical_and_daemon_reports_zero_leaks() {
    let dir = workdir("chaos-binary");
    let store = dir.join("corpus");
    let offline = record_corpus(&store);

    // Precondition that makes convergence deterministic, asserted so a
    // plan reshuffle fails loudly instead of flaking: within the retry
    // budget there is at least one connection the proxy leaves clean.
    let chaos_seed = 20_100_614; // the paper's ICDCS year + a nonce
    let plan = FaultPlan::new(chaos_seed, 0.5);
    assert!(
        (0..9).any(|conn| plan.fault_for(conn).fault == WireFault::None),
        "pinned seed {chaos_seed} has no clean connection in the retry budget"
    );

    let daemon = DaemonProc::spawn(&["--read-timeout-ms", "2000"]);
    let out_path = dir.join("chaos_mine.json");
    let status = Command::new(env!("CARGO_BIN_EXE_sentomist_loadgen"))
        .args([
            "--addr",
            &daemon.addr,
            "--chaos",
            &chaos_seed.to_string(),
            "--chaos-rate",
            "0.5",
            "--retries",
            "8",
            "--connect-timeout-ms",
            "1000",
            "--read-timeout-ms",
            "2000",
            "--once",
            "--job",
            "mine",
            "--store",
            store.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .status()
        .expect("running loadgen under chaos");
    assert!(status.success(), "chaos mine failed: {status:?}");
    let payload = std::fs::read(&out_path).expect("reading chaos mine output");
    assert_eq!(
        payload,
        offline.as_bytes(),
        "mine through the chaos proxy differs from offline trace mine"
    );

    let (clean_exit, stderr) = daemon.shutdown();
    assert!(clean_exit, "daemon exited unclean; stderr: {stderr}");
    assert!(
        stderr.contains("0 leaked"),
        "daemon did not report zero leaked threads: {stderr}"
    );
}

#[test]
fn loadgen_exit_codes_are_documented_contracts() {
    let loadgen = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_sentomist_loadgen"))
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .output()
            .expect("running loadgen")
    };

    let daemon = DaemonProc::spawn(&[]);

    // 0: success.
    let out = loadgen(&["--addr", &daemon.addr, "--once", "--job", "ping"]);
    assert_eq!(out.status.code(), Some(0), "ping: {out:?}");

    // 1: the daemon ran the job and answered Error.
    let out = loadgen(&["--addr", &daemon.addr, "--once", "--job", "panic"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("failure class: error-response"));

    // 1 too: a trigger parameter beside a case configures nothing, so
    // the daemon refuses the request rather than dropping the parameter.
    let out = loadgen(&[
        "--addr",
        &daemon.addr,
        "--once",
        "--job",
        "emulate",
        "--case",
        "3",
        "--period",
        "50",
    ]);
    assert_eq!(
        out.status.code(),
        Some(1),
        "emulate --case --period: {out:?}"
    );
    assert!(String::from_utf8_lossy(&out.stderr)
        .contains("--period configures the trigger experiment and cannot be combined with --case"));

    // 2: connection refused — bind a port, free it, dial it.
    let refused_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("addr").to_string()
    };
    let out = loadgen(&[
        "--addr",
        &refused_addr,
        "--once",
        "--job",
        "ping",
        "--connect-timeout-ms",
        "500",
    ]);
    assert_eq!(out.status.code(), Some(2), "refused: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("failure class: connect"));

    // 1 too: a misspelled flag is a usage error, rejected before dialing
    // (the default connect deadline would otherwise apply silently).
    let out = loadgen(&[
        "--addr",
        &refused_addr,
        "--once",
        "--job",
        "ping",
        "--conect-timeout-ms",
        "500",
    ]);
    assert_eq!(out.status.code(), Some(1), "misspelled flag: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--conect-timeout-ms`"));

    // 1 as well, before dialing: a value flag without its value, a
    // number too wide for its field and a stray argument.
    for (extra, message) in [
        (&["--out"][..], "--out wants a value"),
        (
            &["--retries", "4294967296"][..],
            "--retries wants a number, got `4294967296`",
        ),
        (&["5"][..], "unexpected argument `5`"),
    ] {
        let mut args = vec!["--addr", refused_addr.as_str(), "--once"];
        args.extend_from_slice(extra);
        let out = loadgen(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(
            !stderr.contains("failure class"),
            "{args:?} dialed: {stderr}"
        );
    }

    // 4: a wire/protocol failure — a server speaking garbage.
    let garbage_listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let garbage_addr = garbage_listener.local_addr().expect("addr").to_string();
    let speaker = std::thread::spawn(move || {
        if let Ok((mut stream, _)) = garbage_listener.accept() {
            let _ = stream.write_all(b"THIS IS NOT A FRAME AT ALL........");
        }
    });
    let out = loadgen(&[
        "--addr",
        &garbage_addr,
        "--once",
        "--job",
        "sleep", // non-idempotent: fails fast, no retry loop to wait out
        "--read-timeout-ms",
        "1000",
    ]);
    assert_eq!(out.status.code(), Some(4), "garbage server: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("failure class: wire/protocol"));
    speaker.join().expect("garbage speaker");

    daemon.shutdown();
}

#[test]
fn loadgen_overloaded_exit_code_at_the_connection_cap() {
    let daemon = DaemonProc::spawn(&["--max-connections", "1", "--read-timeout-ms", "10000"]);
    // Occupy the only slot with an idle connection.
    let holder = TcpStream::connect(daemon.addr.as_str()).expect("holder connect");
    std::thread::sleep(Duration::from_millis(150));

    let out = Command::new(env!("CARGO_BIN_EXE_sentomist_loadgen"))
        .args(["--addr", &daemon.addr, "--once", "--job", "ping"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("running loadgen at the cap");
    assert_eq!(out.status.code(), Some(3), "cap shed: {out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("failure class: overloaded"));

    drop(holder);
    std::thread::sleep(Duration::from_millis(200));
    daemon.shutdown();
}
