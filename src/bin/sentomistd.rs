//! `sentomistd` — the long-running symptom-mining daemon.
//!
//! Binds a loopback TCP port, prints `listening on ADDR` (the line CI
//! and tests parse to discover a port-0 bind), and serves emulate /
//! mine / lint / hunt jobs until a client sends a `Shutdown` frame.
//! Exit code 0 is the clean-shutdown contract the CI smoke job asserts.

use sentomist::service::{Server, ServiceConfig};
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> &'static str {
    "sentomistd — the Sentomist mining daemon

USAGE:
    sentomistd [--host H] [--port P] [--workers N] [--queue-capacity N]
               [--cache-capacity N] [--retries N] [--timeout-ms MS]
               [--mine-threads N] [--read-timeout-ms MS]
               [--write-timeout-ms MS] [--max-connections N]

OPTIONS:
    --host H              listen host (default 127.0.0.1)
    --port P              listen port; 0 picks a free port (default 7344)
    --workers N           worker threads (default 2)
    --queue-capacity N    bounded admission queue size (default 64)
    --cache-capacity N    result-cache capacity in documents (default 16)
    --retries N           retries for transient job failures (default 0)
    --timeout-ms MS       per-attempt watchdog, 0 = none (default 0)
    --mine-threads N      store-sweep threads per mine job (default 1)
    --read-timeout-ms MS  per-frame read deadline on every connection;
                          a peer gets MS ms total to deliver one request
                          frame however it chops the bytes. 0 disables
                          (default 30000)
    --write-timeout-ms MS per-write deadline toward clients, 0 disables
                          (default 10000)
    --max-connections N   concurrent-connection cap; accepts beyond it
                          are shed with a typed Overloaded frame.
                          0 disables (default 256)

The daemon prints `listening on HOST:PORT` once ready, then serves
until a client sends a Shutdown frame (`sentomist_loadgen --shutdown`),
exiting 0. At shutdown it prints a thread-accounting line to stderr
(`... 0 leaked`) — the no-thread-leak proof the chaos soak greps."
}

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected positional argument `{arg}`"));
        };
        let value = match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => {
                i += 1;
                v.clone()
            }
            _ => String::new(),
        };
        flags.insert(name.to_string(), value);
        i += 1;
    }
    Ok(flags)
}

/// Whether `--name` is `--help` or one of the flags `usage()` lists
/// under OPTIONS (the only lines that start with `--`).
fn known_flag(name: &str) -> bool {
    name == "help"
        || usage().lines().any(|line| {
            let documented = line.trim_start().strip_prefix("--");
            documented.and_then(|rest| rest.split_whitespace().next()) == Some(name)
        })
}

fn flag_u64(flags: &HashMap<String, String>, name: &str, default: u64) -> Result<u64, String> {
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("--{name} wants a number, got `{v}`")),
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    // A misspelled flag must not silently fall back to its default.
    if let Some(name) = flags.keys().filter(|name| !known_flag(name)).min() {
        return Err(format!("unknown flag `--{name}`"));
    }
    if flags.contains_key("help") {
        println!("{}", usage());
        return Ok(());
    }
    let host = flags
        .get("host")
        .cloned()
        .unwrap_or_else(|| "127.0.0.1".into());
    let port = flag_u64(&flags, "port", 7344)?;
    let timeout_ms = flag_u64(&flags, "timeout-ms", 0)?;
    let read_timeout_ms = flag_u64(&flags, "read-timeout-ms", 30_000)?;
    let write_timeout_ms = flag_u64(&flags, "write-timeout-ms", 10_000)?;
    let config = ServiceConfig {
        addr: format!("{host}:{port}"),
        workers: flag_u64(&flags, "workers", 2)? as usize,
        queue_capacity: flag_u64(&flags, "queue-capacity", 64)? as usize,
        cache_capacity: flag_u64(&flags, "cache-capacity", 16)? as usize,
        max_retries: flag_u64(&flags, "retries", 0)? as u32,
        timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        mine_threads: flag_u64(&flags, "mine-threads", 1)? as usize,
        read_timeout: (read_timeout_ms > 0).then(|| Duration::from_millis(read_timeout_ms)),
        write_timeout: (write_timeout_ms > 0).then(|| Duration::from_millis(write_timeout_ms)),
        max_connections: flag_u64(&flags, "max-connections", 256)? as usize,
    };
    let server = Server::start(config).map_err(|e| e.to_string())?;
    println!("listening on {}", server.local_addr());
    // Tests and the smoke job read this line through a pipe; make sure
    // it is not sitting in a stdio buffer while we block in wait().
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let report = server.wait();
    let leaked = report.handlers_spawned - report.handlers_joined;
    eprintln!(
        "sentomistd: shutdown complete (handlers spawned={} joined={} panicked={}, workers joined={}, {} leaked)",
        report.handlers_spawned,
        report.handlers_joined,
        report.handlers_panicked,
        report.workers_joined,
        leaked
    );
    if !report.clean() {
        return Err(format!(
            "unclean shutdown: {leaked} leaked handler thread(s), {} panicked",
            report.handlers_panicked
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}
