//! `sentomistd` — the long-running symptom-mining daemon.
//!
//! Binds a loopback TCP port, prints `listening on ADDR` (the line CI
//! and tests parse to discover a port-0 bind), and serves emulate /
//! mine / lint / hunt jobs until a client sends a `Shutdown` frame.
//! Exit code 0 is the clean-shutdown contract the CI smoke job asserts.

use sentomist::args;
use sentomist::service::{Server, ServiceConfig};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> &'static str {
    "sentomistd — the Sentomist mining daemon

USAGE:
    sentomistd [--host H] [--port P] [--workers N] [--queue-capacity N]
               [--cache-capacity N] [--retries N] [--timeout-ms MS]
               [--mine-threads N] [--read-timeout-ms MS]
               [--write-timeout-ms MS] [--max-connections N]
    sentomistd --help

Flags may come in any order. An unknown flag, a flag without its value
or a stray argument is an error.

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
    --help                print this text and exit

The daemon prints `listening on HOST:PORT` once ready, then serves
until a client sends a Shutdown frame (`sentomist_loadgen --shutdown`),
exiting 0. At shutdown it prints a thread-accounting line to stderr
(`... 0 leaked`) — the no-thread-leak proof the chaos soak greps."
}

/// The flags that take a value; `--help` is the one switch.
const VALUES: &[&str] = &[
    "host",
    "port",
    "workers",
    "queue-capacity",
    "cache-capacity",
    "retries",
    "timeout-ms",
    "mine-threads",
    "read-timeout-ms",
    "write-timeout-ms",
    "max-connections",
];
const SWITCHES: &[&str] = &["help"];

fn run(args: &[String]) -> Result<(), String> {
    let args = args::parse(args, VALUES, SWITCHES, 0)?;
    if args.has("help") {
        println!("{}", usage());
        return Ok(());
    }
    let host = args.value("host").unwrap_or("127.0.0.1");
    let port: u16 = args.number_or("port", 7344)?;
    let timeout_ms = args.number_or("timeout-ms", 0)?;
    let read_timeout_ms = args.number_or("read-timeout-ms", 30_000)?;
    let write_timeout_ms = args.number_or("write-timeout-ms", 10_000)?;
    let config = ServiceConfig {
        addr: format!("{host}:{port}"),
        workers: args.number_or("workers", 2)?,
        queue_capacity: args.number_or("queue-capacity", 64)?,
        cache_capacity: args.number_or("cache-capacity", 16)?,
        max_retries: args.number_or("retries", 0)?,
        timeout: (timeout_ms > 0).then(|| Duration::from_millis(timeout_ms)),
        mine_threads: args.number_or("mine-threads", 1)?,
        read_timeout: (read_timeout_ms > 0).then(|| Duration::from_millis(read_timeout_ms)),
        write_timeout: (write_timeout_ms > 0).then(|| Duration::from_millis(write_timeout_ms)),
        max_connections: args.number_or("max-connections", 256)?,
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// The parser accepts exactly the flags `usage()` documents: one
    /// OPTIONS line per flag, each starting with the flag's name.
    #[test]
    fn declared_flags_are_the_documented_options() {
        let (_, options) = usage().split_once("OPTIONS:").expect("an OPTIONS section");
        let documented: BTreeSet<&str> = options
            .lines()
            .filter_map(|line| line.trim_start().strip_prefix("--"))
            .filter_map(|rest| rest.split_whitespace().next())
            .collect();
        let declared: BTreeSet<&str> = VALUES.iter().chain(SWITCHES).copied().collect();
        assert_eq!(declared, documented);
    }
}
