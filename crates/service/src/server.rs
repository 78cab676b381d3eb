//! The daemon: accept loop, connection handling, supervised worker
//! fleet, and the job handlers.
//!
//! Life of a request: a tracked connection thread reads one frame
//! under the per-frame read deadline, parses the [`Request`], and
//! **tries** to admit it to the bounded queue. At capacity the job is
//! shed right there with an [`Overloaded`](Response::Overloaded) frame
//! — backpressure, never unbounded buffering. A worker pops the job
//! and runs its handler under [`supervise_once`] — the same fault
//! envelope a campaign seed gets: panic isolation, watchdog timeout,
//! deterministic retry — so a poisoned job answers with a typed error
//! instead of taking the daemon down. Mine jobs consult the
//! fingerprint-validated [`ResultCache`]
//! before touching the store.
//!
//! The wire-fault hardening (PR 10) lives at the connection layer:
//!
//! * every handler thread is registered in a connection registry —
//!   its stream kept for the shutdown kick, its `JoinHandle` reaped as
//!   connections finish and **joined** at shutdown, so the
//!   [`ShutdownReport`] can prove zero leaked threads under any fault
//!   plan;
//! * each connection carries a read deadline (per *frame*, re-armed
//!   with the remaining budget on every read, so a slow-loris drip
//!   cannot reset it) and a write deadline;
//! * connections beyond [`ServiceConfig::max_connections`] are shed
//!   with a typed `Overloaded` frame instead of an accept backlog;
//! * wire-level failures — unparseable frames, checksum mismatches,
//!   deadline expiries — answer with [`Response::Rejected`], meaning
//!   "nothing ran, safe to retry", distinct from `Error` ("your job
//!   ran and failed").

use crate::cache::{CacheKey, ResultCache};
use crate::protocol::{
    read_frame_deadline, write_frame, FrameKind, ProtocolError, Request, Response, MAX_PAYLOAD,
};
use crate::queue::{Admission, AdmissionError};
use sentomist_apps::{bundled_program, mine_corpus, CorpusMineOptions, HuntCase, Mode, Variant};
use sentomist_core::hunt::InvariantPolicy;
use sentomist_core::supervise::{supervise_once, RunContext, RunFailure, SupervisorOptions};
use sentomist_tracestore::TraceStore;
use serde::Serialize;
use std::collections::HashMap;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// How the daemon is shaped. All knobs have serving-friendly defaults.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address; port 0 picks a free port.
    pub addr: String,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Bounded admission-queue capacity (jobs beyond it are shed).
    pub queue_capacity: usize,
    /// Result-cache capacity in documents.
    pub cache_capacity: usize,
    /// Retries for transiently failing jobs (0 = fail fast).
    pub max_retries: u32,
    /// Watchdog wall-clock limit per job attempt.
    pub timeout: Option<Duration>,
    /// Threads a single mine job sweeps the store with (never affects
    /// document bytes).
    pub mine_threads: usize,
    /// Per-frame read deadline on every connection: the total time a
    /// peer gets to deliver one complete request frame, however it
    /// chops the bytes. `None` disables it (a slow-loris then holds
    /// its handler thread forever — only for tests).
    pub read_timeout: Option<Duration>,
    /// Write deadline per socket write toward a client. `None`
    /// disables it.
    pub write_timeout: Option<Duration>,
    /// Concurrent-connection cap: accepts beyond it are shed with a
    /// typed `Overloaded` frame instead of queueing an unbounded
    /// accept backlog. `0` disables the cap.
    pub max_connections: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            cache_capacity: 16,
            max_retries: 0,
            timeout: None,
            mine_threads: 1,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(10)),
            max_connections: 256,
        }
    }
}

/// A service-layer failure (distinct from per-job errors, which travel
/// back to clients as [`Response::Error`]).
#[derive(Debug)]
pub enum ServiceError {
    /// Binding or accepting on the listen socket failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(e) => write!(f, "service i/o: {e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The service counters a `Stats` request snapshots.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct StatsSnapshot {
    /// Jobs answered `Ok`.
    pub completed: u64,
    /// Jobs answered `Error` (handler failed, panicked or timed out).
    pub failed: u64,
    /// Jobs shed with `Overloaded` at admission.
    pub shed: u64,
    /// Connections accepted since start.
    pub connections: u64,
    /// Connections shed at the concurrency cap.
    pub connections_shed: u64,
    /// Connection handler threads alive right now.
    pub live_connections: u64,
    /// Requests answered `Rejected` (wire-level: bad frame, checksum
    /// mismatch, deadline expiry — the job never ran).
    pub rejected: u64,
    /// Connections cut by the per-frame read deadline mid-frame.
    pub deadline_cuts: u64,
    /// Mine documents served from the result cache.
    pub cache_hits: u64,
    /// Mine lookups that went to the store.
    pub cache_misses: u64,
    /// Jobs queued right now.
    pub queue_depth: u64,
    /// The admission queue's capacity.
    pub queue_capacity: u64,
    /// Worker threads in the fleet.
    pub workers: u64,
}

/// What shutdown proved: every thread the daemon ever spawned,
/// accounted for. `handlers_spawned == handlers_joined` (with
/// `handlers_panicked` of those joins observing a panic) is the
/// no-thread-leak guarantee the wire-fault soak asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ShutdownReport {
    /// Connection handler threads spawned over the daemon's lifetime
    /// (including cap-shed connections).
    pub handlers_spawned: u64,
    /// Handler threads joined (reaped during the run or at shutdown).
    pub handlers_joined: u64,
    /// Joined handler threads that had panicked.
    pub handlers_panicked: u64,
    /// Worker threads joined.
    pub workers_joined: u64,
}

impl ShutdownReport {
    /// True iff every spawned thread was joined and none panicked.
    pub fn clean(&self) -> bool {
        self.handlers_spawned == self.handlers_joined && self.handlers_panicked == 0
    }
}

struct Counters {
    completed: AtomicU64,
    failed: AtomicU64,
    shed: AtomicU64,
    connections: AtomicU64,
    connections_shed: AtomicU64,
    rejected: AtomicU64,
    deadline_cuts: AtomicU64,
    job_serial: AtomicU64,
}

/// A queued job: the parsed request plus the channel its response goes
/// back through to the connection thread.
struct Job {
    serial: u64,
    request: Request,
    reply: mpsc::Sender<Response>,
}

/// Bookkeeping for every connection handler thread the daemon spawns.
///
/// Invariant: a connection id lives in `streams` from accept until its
/// handler finishes (so `streams.len()` is the live-connection count
/// and the shutdown kick knows every socket), and in `handles` from
/// spawn until the handle is joined — either reaped from `finished`
/// while serving, or drained at shutdown. Nothing is ever detached.
#[derive(Default)]
struct RegistryInner {
    next_id: u64,
    streams: HashMap<u64, TcpStream>,
    handles: HashMap<u64, JoinHandle<()>>,
    finished: Vec<u64>,
    spawned: u64,
    joined: u64,
    panicked: u64,
}

#[derive(Default)]
struct ConnRegistry {
    inner: Mutex<RegistryInner>,
}

impl ConnRegistry {
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        match self.inner.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Registers a new connection's kick handle; returns its id.
    fn register(&self, stream: TcpStream) -> u64 {
        let mut inner = self.lock();
        let id = inner.next_id;
        inner.next_id += 1;
        inner.streams.insert(id, stream);
        id
    }

    /// Records the handler thread for a registered connection.
    fn attach(&self, id: u64, handle: JoinHandle<()>) {
        let mut inner = self.lock();
        inner.spawned += 1;
        inner.handles.insert(id, handle);
    }

    /// Called by a handler thread as its last act: the connection no
    /// longer needs a shutdown kick, and its handle is ready to reap.
    fn mark_finished(&self, id: u64) {
        let mut inner = self.lock();
        inner.streams.remove(&id);
        inner.finished.push(id);
    }

    fn live(&self) -> usize {
        self.lock().streams.len()
    }

    /// Joins the handlers of finished connections. Runs on the accept
    /// thread between accepts, so a long-lived daemon under connection
    /// churn holds O(live) handles, not O(ever-accepted).
    fn reap_finished(&self) {
        let ready: Vec<JoinHandle<()>> = {
            let mut inner = self.lock();
            let ids = std::mem::take(&mut inner.finished);
            ids.iter()
                .filter_map(|id| inner.handles.remove(id))
                .collect()
        };
        // Join outside the lock: these threads have already returned,
        // but a panicking unwind can still take a moment.
        for handle in ready {
            self.count_join(handle);
        }
    }

    /// Kicks every live connection so blocked reads/writes return.
    fn kick_all(&self) {
        let inner = self.lock();
        for stream in inner.streams.values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Drains and joins every remaining handle (shutdown path).
    fn join_all(&self) {
        loop {
            let remaining: Vec<JoinHandle<()>> = {
                let mut inner = self.lock();
                inner.finished.clear();
                inner.handles.drain().map(|(_, handle)| handle).collect()
            };
            if remaining.is_empty() {
                return;
            }
            for handle in remaining {
                self.count_join(handle);
            }
        }
    }

    fn count_join(&self, handle: JoinHandle<()>) {
        let panicked = handle.join().is_err();
        let mut inner = self.lock();
        inner.joined += 1;
        if panicked {
            inner.panicked += 1;
        }
    }
}

struct Shared {
    config: ServiceConfig,
    queue: Admission<Job>,
    cache: ResultCache,
    counters: Counters,
    registry: ConnRegistry,
    shutdown: AtomicBool,
    shutdown_signal: (Mutex<bool>, Condvar),
}

impl Shared {
    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            completed: self.counters.completed.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            connections: self.counters.connections.load(Ordering::Relaxed),
            connections_shed: self.counters.connections_shed.load(Ordering::Relaxed),
            live_connections: self.registry.live() as u64,
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            deadline_cuts: self.counters.deadline_cuts.load(Ordering::Relaxed),
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            queue_depth: self.queue.len() as u64,
            queue_capacity: self.queue.capacity() as u64,
            workers: self.config.workers as u64,
        }
    }

    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        let (lock, cvar) = &self.shutdown_signal;
        if let Ok(mut flagged) = lock.lock() {
            *flagged = true;
        }
        cvar.notify_all();
    }
}

/// A running daemon. Dropping the handle does not stop it; call
/// [`Server::shutdown_and_join`] (or let a client's `Shutdown` frame
/// trigger it) and then join via [`Server::wait`].
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker fleet and the accept loop, and returns
    /// immediately.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Io`] when the listen address cannot be bound.
    pub fn start(config: ServiceConfig) -> Result<Server, ServiceError> {
        let listener = TcpListener::bind(&config.addr).map_err(ServiceError::Io)?;
        let local_addr = listener.local_addr().map_err(ServiceError::Io)?;
        let workers_n = config.workers.max(1);
        let shared = Arc::new(Shared {
            queue: Admission::new(config.queue_capacity),
            cache: ResultCache::new(config.cache_capacity),
            counters: Counters {
                completed: AtomicU64::new(0),
                failed: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                connections: AtomicU64::new(0),
                connections_shed: AtomicU64::new(0),
                rejected: AtomicU64::new(0),
                deadline_cuts: AtomicU64::new(0),
                job_serial: AtomicU64::new(0),
            },
            registry: ConnRegistry::default(),
            shutdown: AtomicBool::new(false),
            shutdown_signal: (Mutex::new(false), Condvar::new()),
            config,
        });

        let mut workers = Vec::with_capacity(workers_n);
        for _ in 0..workers_n {
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }

        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::spawn(move || accept_loop(&listener, &accept_shared));

        Ok(Server {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats()
    }

    /// Blocks until shutdown is requested (by a client's `Shutdown`
    /// frame or [`Server::shutdown_and_join`]), then joins the accept
    /// loop, every connection handler, and the drained worker fleet,
    /// returning the thread accounting.
    pub fn wait(mut self) -> ShutdownReport {
        {
            let (lock, cvar) = &self.shared.shutdown_signal;
            if let Ok(mut flagged) = lock.lock() {
                while !*flagged {
                    match cvar.wait(flagged) {
                        Ok(f) => flagged = f,
                        Err(_) => break,
                    }
                }
            }
        }
        self.join()
    }

    /// Requests shutdown and joins every thread: stops admission, wakes
    /// the accept loop, kicks live connections, drains queued jobs,
    /// then returns the thread accounting.
    pub fn shutdown_and_join(mut self) -> ShutdownReport {
        self.shared.request_shutdown();
        self.join()
    }

    fn join(&mut self) -> ShutdownReport {
        self.shared.request_shutdown();
        // The accept loop blocks in accept(); a throwaway self-connect
        // wakes it so it can observe the flag and exit.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Kick every live connection: blocked frame reads return
        // immediately instead of waiting out their deadlines.
        self.shared.registry.kick_all();
        // Workers first — handler threads blocked on a job reply need
        // the drained workers to answer before they can exit.
        let mut workers_joined = 0u64;
        for handle in self.workers.drain(..) {
            if handle.join().is_ok() {
                workers_joined += 1;
            }
        }
        self.shared.registry.join_all();
        let inner = self.shared.registry.lock();
        ShutdownReport {
            handlers_spawned: inner.spawned,
            handlers_joined: inner.joined,
            handlers_panicked: inner.panicked,
            workers_joined,
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => continue,
        };
        shared.counters.connections.fetch_add(1, Ordering::Relaxed);
        // Reap finished handlers between accepts so the handle map
        // stays proportional to live connections.
        shared.registry.reap_finished();
        let cap = shared.config.max_connections;
        let at_cap = cap != 0 && shared.registry.live() >= cap;
        let Ok(kick) = stream.try_clone() else {
            // Without a kick handle the thread could not be provably
            // joined at shutdown; refuse the connection instead.
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        };
        let id = shared.registry.register(kick);
        let shared_conn = Arc::clone(shared);
        let handle = std::thread::spawn(move || {
            if at_cap {
                shared_conn
                    .counters
                    .connections_shed
                    .fetch_add(1, Ordering::Relaxed);
                shed_connection(stream);
            } else {
                handle_connection(stream, &shared_conn);
            }
            shared_conn.registry.mark_finished(id);
        });
        shared.registry.attach(id, handle);
    }
}

/// Sheds a connection accepted beyond the concurrency cap: one typed
/// `Overloaded` frame, a brief drain so the peer's in-flight request
/// bytes don't turn the close into a RST before it reads our answer,
/// then close.
fn shed_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_frame(&mut stream, FrameKind::Overloaded, &[]);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut drain = [0u8; 1024];
    let _ = (&stream).read(&mut drain);
    let _ = stream.shutdown(Shutdown::Both);
}

/// One client connection: frames in, responses out, strictly in order.
/// Runs until clean EOF, an idle read deadline, a wire-level fault
/// (answered with a `Reject` frame — then the stream is no longer
/// trustworthy and is closed), or daemon shutdown.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_write_timeout(shared.config.write_timeout);
    loop {
        let frame = match read_frame_deadline(&stream, shared.config.read_timeout) {
            Ok(frame) => frame,
            Err(ProtocolError::Truncated { got: 0, .. }) => return, // clean close
            Err(ProtocolError::Deadline { got: 0, .. }) => return,  // idle past the deadline
            Err(e) => {
                // The frame failed at the wire level: nothing ran, so
                // the answer is a retry-safe Reject, not an Error. A
                // desynced or stalling stream is not worth trusting
                // for another frame.
                if matches!(e, ProtocolError::Deadline { .. }) {
                    shared
                        .counters
                        .deadline_cuts
                        .fetch_add(1, Ordering::Relaxed);
                }
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut stream, FrameKind::Reject, e.to_string().as_bytes());
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        if frame.kind != FrameKind::Request {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            let msg = format!("expected a request frame, got {:?}", frame.kind);
            let _ = write_frame(&mut stream, FrameKind::Reject, msg.as_bytes());
            return;
        }
        let request = match Request::from_bytes(&frame.payload) {
            Ok(request) => request,
            Err(e) => {
                // Framing (and checksum) were intact; only this payload
                // was bad. Reject it and keep the connection.
                shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
                let _ = write_frame(&mut stream, FrameKind::Reject, e.to_string().as_bytes());
                continue;
            }
        };
        let response = match request {
            // Control-plane requests answer inline: they must work even
            // when the queue is saturated.
            Request::Stats => match serde_json::to_string_pretty(&shared.stats()) {
                Ok(mut json) => {
                    json.push('\n');
                    Response::Ok(json.into_bytes())
                }
                Err(e) => Response::Error(format!("serializing stats: {e}")),
            },
            Request::Shutdown => {
                let _ = write_frame(&mut stream, FrameKind::Ok, &[]);
                shared.request_shutdown();
                return;
            }
            job_request => submit_and_wait(job_request, shared),
        };
        let (kind, payload) = response.to_frame();
        if write_frame(&mut stream, kind, payload).is_err() {
            return;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
    }
}

/// Admission: try the bounded queue, shed with `Overloaded` when full,
/// otherwise block this connection thread until a worker answers.
fn submit_and_wait(request: Request, shared: &Arc<Shared>) -> Response {
    let (reply_tx, reply_rx) = mpsc::channel();
    let serial = shared.counters.job_serial.fetch_add(1, Ordering::Relaxed);
    let job = Job {
        serial,
        request,
        reply: reply_tx,
    };
    match shared.queue.try_push(job) {
        Ok(()) => {}
        Err(AdmissionError::Full(_)) => {
            shared.counters.shed.fetch_add(1, Ordering::Relaxed);
            return Response::Overloaded;
        }
        Err(AdmissionError::Closed(_)) => {
            return Response::Error("daemon is shutting down".into());
        }
    }
    match reply_rx.recv() {
        Ok(response) => response,
        Err(_) => Response::Error("worker dropped the job".into()),
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        let response = execute_supervised(job.serial, job.request, shared);
        match response {
            Response::Ok(_) => shared.counters.completed.fetch_add(1, Ordering::Relaxed),
            _ => shared.counters.failed.fetch_add(1, Ordering::Relaxed),
        };
        let _ = job.reply.send(response);
    }
}

/// Runs one job under the campaign supervisor: panics are caught, hung
/// attempts watchdogged, transient failures retried deterministically.
fn execute_supervised(serial: u64, request: Request, shared: &Arc<Shared>) -> Response {
    let options = SupervisorOptions {
        threads: 1,
        progress: false,
        max_retries: shared.config.max_retries,
        timeout: shared.config.timeout,
        cycle_budget: None,
        backoff_base_ms: 10,
        stop_after: None,
    };
    let handler_shared = Arc::clone(shared);
    let report = supervise_once(
        serial,
        &options,
        Arc::new(move |_ctx: &RunContext| handle_request(&request, &handler_shared)),
    );
    match (report.outcome, report.error) {
        (Some(bytes), _) => Response::Ok(bytes),
        (None, Some(error)) => Response::Error(format!("[{:?}] {}", error.kind, error.message)),
        (None, None) => Response::Error("job produced neither result nor error".into()),
    }
}

/// The job handlers. Semantic failures are `Fatal` (a retry cannot fix
/// a bad store path or an unknown app); only genuinely transient
/// conditions surface as `Transient`.
fn handle_request(request: &Request, shared: &Arc<Shared>) -> Result<Vec<u8>, RunFailure> {
    let fatal = |m: String| RunFailure::Fatal(m);
    match request {
        Request::Ping => Ok(b"pong\n".to_vec()),
        Request::Sleep { ms } => {
            // The deterministic load unit: hold the worker, bounded so a
            // hostile client cannot park a worker for hours.
            std::thread::sleep(Duration::from_millis((*ms).min(60_000)));
            Ok(b"slept\n".to_vec())
        }
        Request::Panic => panic!("requested panic (supervision test aid)"),
        Request::Emulate {
            case,
            period,
            seconds,
            nu,
            seed,
        } => {
            let case = if case.is_empty() {
                None
            } else {
                Some(case.as_str())
            };
            let mode = Mode::resolve(case, *period, *seconds, *nu).map_err(|e| fatal(e.0))?;
            let job = mode.supervised_traced_job().map_err(|e| fatal(e.0))?;
            // The campaign's own job and failure classes; the worker's
            // supervision envelope already surrounds this call.
            let (outcome, _) = job(&RunContext::new(*seed, 1, None))?;
            render_json(&outcome)
        }
        Request::Mine { store, quarantine } => mine_with_cache(store, *quarantine, shared),
        Request::Lint { app, fixed } => {
            let program = bundled_program(app, *fixed).map_err(|e| fatal(e.0))?;
            let report = staticlint::lint(&program);
            render_json(&report)
        }
        Request::Slice { app, fixed, pcs } => {
            // pcs travel as u64 for JSON friendliness; out-of-range
            // values become a typed slice error downstream, not a wrap.
            let pcs: Vec<u16> = pcs
                .iter()
                .map(|&pc| {
                    u16::try_from(pc).map_err(|_| fatal(format!("slice pc {pc} exceeds u16")))
                })
                .collect::<Result<_, _>>()?;
            let document =
                sentomist_apps::slice_document(app, *fixed, &pcs).map_err(|e| fatal(e.0))?;
            Ok(document.into_bytes())
        }
        Request::Hunt {
            case,
            fixed,
            seed,
            top_k,
        } => {
            let case = HuntCase::from_number(*case)
                .ok_or_else(|| fatal(format!("hunt case wants 1, 2 or 3, got {case}")))?;
            let variant = if *fixed {
                Variant::Fixed
            } else {
                Variant::Buggy
            };
            let policy = InvariantPolicy {
                top_k: (*top_k).max(1) as usize,
            };
            let (record, _traces) =
                sentomist_apps::hunt_iteration(case, variant, *seed, &policy, None)?;
            render_json(&record)
        }
        // Handled inline by the connection thread; reaching a worker is
        // a logic error worth a typed answer rather than a panic.
        Request::Stats | Request::Shutdown => {
            Err(fatal("control-plane request routed to a worker".into()))
        }
    }
}

/// The read-through mine path: fingerprint the store, consult the
/// cache, fall through to [`mine_corpus`], and cache the document iff
/// the store's fingerprint did not move while mining.
fn mine_with_cache(
    store_path: &str,
    quarantine: bool,
    shared: &Arc<Shared>,
) -> Result<Vec<u8>, RunFailure> {
    let fatal = |m: String| RunFailure::Fatal(m);
    let path = Path::new(store_path);
    let store = TraceStore::open(path).map_err(|e| fatal(e.to_string()))?;
    let key = CacheKey::new(path, quarantine);
    let fingerprint = store.fingerprint().map_err(|e| fatal(e.to_string()))?;
    if let Some(current) = fingerprint {
        if let Some(document) = shared.cache.lookup(&key, current) {
            return Ok(document.as_ref().clone());
        }
    }
    let mined = mine_corpus(
        &store,
        &CorpusMineOptions {
            threads: shared.config.mine_threads.max(1),
            progress: false,
            quarantine,
        },
    )
    .map_err(|e| fatal(e.0))?;
    let document = mined.document.into_bytes();
    if document.len() <= MAX_PAYLOAD as usize {
        // Cache only when the corpus is provably the one we mined: the
        // fingerprint must exist and must not have moved underneath us.
        if let (Some(before), Ok(Some(after))) = (fingerprint, store.fingerprint()) {
            if before == after {
                shared.cache.insert(key, after, Arc::new(document.clone()));
            }
        }
    }
    Ok(document)
}

/// Pretty JSON plus the trailing newline every CLI `--json` path prints.
fn render_json<T: Serialize>(value: &T) -> Result<Vec<u8>, RunFailure> {
    serde_json::to_string_pretty(value)
        .map(|mut s| {
            s.push('\n');
            s.into_bytes()
        })
        .map_err(|e| RunFailure::Fatal(format!("serializing response: {e}")))
}
