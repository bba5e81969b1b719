//! The service loop: a readiness-polled TCP acceptor feeding a bounded
//! job queue that a fixed worker pool drains.
//!
//! Connections are **not** thread-per-client: one poller thread owns
//! every socket in non-blocking mode, accumulates request bytes into
//! per-connection buffers, and dispatches complete lines. Thousands of
//! idle clients therefore cost a few buffers, not a few thousand
//! blocked threads, and a half-written request line cannot pin any
//! thread — it merely ages until the per-connection read deadline
//! ([`ServeConfig::read_deadline_ms`]) drops the connection.
//!
//! Flow control is explicit at every stage:
//!
//! * **Admission control** — oversized requests are rejected with code
//!   413 before any work is built; once the bounded queue is full, new
//!   jobs are shed with code 429 instead of queueing unboundedly.
//!   Request lines longer than [`ServeConfig::max_line_len`] drop the
//!   connection.
//! * **Deadlines** — a job carrying `deadline_ms` runs under a
//!   [`CancelToken`] carrying that wall-clock deadline; the simulation
//!   cooperatively aborts at the next poll boundary (the
//!   event-wheel core crosses idle stretches in microseconds, so the
//!   overshoot is small) and the client receives `"status": "timeout"`.
//! * **Graceful shutdown** — a `shutdown` request flips the service
//!   into draining: new jobs are rejected with code 503, queued and
//!   in-flight jobs complete and deliver their responses, then the
//!   acceptor and workers exit. No accepted job ever loses its
//!   response.
//!
//! Results are memoized across requests in a shared [`ReportStore`]
//! keyed by the stable `SystemConfig::config_key`, so a repeated
//! request is answered without re-simulation. By default that tier is
//! the in-process [`ResultCache`]; with [`ServeConfig::cache_dir`] set
//! it is a persistent `mcr-store` [`ResultStore`], so a warm cache
//! survives restarts (the `stats` answer reports the tier, including
//! how many entries were already on disk when the service started).

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use mcr_dram::{CancelToken, ReportStore, ResultCache, RunReport, Sweep};
use mcr_store::{ResultStore, DEFAULT_SHARDS};
use sim_json::Json;

use crate::protocol::{
    parse_request, render_error, render_job_ok, render_panic, render_pong, render_rejected,
    render_timeout, JobRequest, Request, CODE_DRAINING, CODE_QUEUE_FULL, CODE_TOO_LARGE,
};
use crate::telemetry::ServeTelemetry;

/// Service tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Worker threads draining the queue; `0` means one per core.
    pub workers: usize,
    /// Bounded queue capacity; a full queue sheds load (code 429).
    pub queue_cap: usize,
    /// Largest grid (in points) a single job may expand to (code 413),
    /// checked against the request's point count before the grid is
    /// built.
    pub max_points: usize,
    /// Largest trace length a single job may request (code 413).
    pub max_trace_len: usize,
    /// Directory for the persistent result store; `None` keeps the
    /// memo in-process only (lost on restart).
    pub cache_dir: Option<PathBuf>,
    /// How long a *partial* request line may stall before the
    /// connection is dropped. Idle connections with no buffered bytes
    /// never expire.
    pub read_deadline_ms: u64,
    /// Longest request line accepted before the connection is dropped
    /// with a protocol error.
    pub max_line_len: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_cap: 64,
            max_points: 512,
            max_trace_len: 2_000_000,
            cache_dir: None,
            read_deadline_ms: 10_000,
            max_line_len: 1 << 20,
        }
    }
}

/// The memo tier the workers publish into: in-process only, or the
/// disk-backed sharded store when a cache directory is configured.
enum CacheTier {
    /// In-process [`ResultCache`]; dies with the server.
    Memory(ResultCache),
    /// Persistent `mcr-store` [`ResultStore`]; survives restarts.
    Disk(ResultStore),
}

impl ReportStore for CacheTier {
    fn lookup(&self, key: u64) -> Option<RunReport> {
        match self {
            CacheTier::Memory(c) => c.lookup(key),
            CacheTier::Disk(s) => s.lookup(key),
        }
    }

    fn publish(&self, key: u64, report: &RunReport) {
        match self {
            CacheTier::Memory(c) => c.publish(key, report),
            CacheTier::Disk(s) => s.publish(key, report),
        }
    }
}

/// The half of a connection shared between the poller (reads) and
/// whoever owes it a reply (a worker thread, or the drain waiter).
///
/// Exactly one writer exists at a time: the poller writes only while
/// `busy` is clear, and a worker writes only while `busy` is set — the
/// flag is the hand-off. Writers temporarily flip the socket to
/// blocking mode; that is safe because the poller never touches a
/// `busy` connection.
struct ConnShared {
    stream: TcpStream,
    /// A job (or the shutdown drain) owns this connection; the poller
    /// must neither read nor write it until the reply lands.
    busy: AtomicBool,
    /// A write failed; the poller reaps the connection next pass.
    dead: AtomicBool,
}

/// Sends one reply line, restoring non-blocking mode afterwards. Any
/// failure marks the connection dead instead of panicking: a vanished
/// client loses its own response, never anyone else's.
fn write_line(conn: &ConnShared, line: &str) {
    let mut w = &conn.stream;
    let sent = conn.stream.set_nonblocking(false).is_ok()
        && writeln!(w, "{line}").and_then(|()| w.flush()).is_ok();
    let restored = conn.stream.set_nonblocking(true).is_ok();
    if !(sent && restored) {
        conn.dead.store(true, Ordering::Release);
    }
}

/// Poller-side connection state: the receive buffer and its freshness.
struct Conn {
    shared: Arc<ConnShared>,
    /// Received bytes not yet consumed as complete lines.
    buf: Vec<u8>,
    /// Leading bytes of `buf` already searched for a newline, so a line
    /// that arrives in many reads is scanned once, not once per read.
    scanned: usize,
    /// Last time the socket yielded bytes; ages partial lines toward
    /// the read deadline.
    last_data: Instant,
    /// The peer half-closed; reap once nothing is in flight.
    eof: bool,
}

/// An admitted job waiting for (or holding) a worker.
struct Job {
    req: JobRequest,
    sweep: Sweep,
    deadline: Option<Instant>,
    submitted: Instant,
    /// The connection owed the reply; `busy` is already set.
    conn: Arc<ConnShared>,
}

#[derive(Default)]
struct QueueState {
    queue: VecDeque<Job>,
    in_flight: usize,
    draining: bool,
    stopped: bool,
    /// The shutdown response left the server (or its client vanished):
    /// [`Server::run`] may now return and let the process exit.
    shutdown_acked: bool,
}

struct Shared {
    cfg: ServeConfig,
    addr: SocketAddr,
    state: Mutex<QueueState>,
    /// Signals workers: work available, or drain/stop flags changed.
    work_cv: Condvar,
    /// Signals the drain waiter: queue and in-flight both hit zero.
    idle_cv: Condvar,
    cache: CacheTier,
    /// Committed on-disk entries found when the store was opened — the
    /// warm inheritance from previous runs, announced in `stats`.
    warm_entries: u64,
    telemetry: Mutex<ServeTelemetry>,
}

/// Poison-tolerant lock: a panicking holder must not wedge the
/// service, and all guarded state stays consistent under the
/// lock-update-unlock pattern used here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn ms_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_millis()).unwrap_or(u64::MAX)
}

/// The simulation service. [`Server::bind`] reserves the address,
/// [`Server::run`] serves until a `shutdown` request drains the
/// service.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and resolves the worker count. Port `0`
    /// picks an ephemeral port; read it back with
    /// [`Server::local_addr`].
    ///
    /// # Errors
    ///
    /// Propagates the bind failure, or the store-open failure when
    /// [`ServeConfig::cache_dir`] is set.
    pub fn bind(addr: impl ToSocketAddrs, cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let workers = if cfg.workers == 0 {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        } else {
            cfg.workers
        };
        let cfg = ServeConfig { workers, ..cfg };
        let cache = match &cfg.cache_dir {
            Some(dir) => CacheTier::Disk(ResultStore::open(dir)?),
            None => CacheTier::Memory(ResultCache::new()),
        };
        let warm_entries = match &cache {
            CacheTier::Disk(store) => store.len(),
            CacheTier::Memory(_) => 0,
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                cfg,
                addr,
                state: Mutex::default(),
                work_cv: Condvar::new(),
                idle_cv: Condvar::new(),
                cache,
                warm_entries,
                telemetry: Mutex::default(),
            }),
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The resolved configuration (worker count filled in).
    pub fn config(&self) -> &ServeConfig {
        &self.shared.cfg
    }

    /// Committed entries already on disk when the store was opened.
    /// Always `0` without a [`ServeConfig::cache_dir`].
    pub fn warm_entries(&self) -> u64 {
        self.shared.warm_entries
    }

    /// Serves until a `shutdown` request drains the service, then
    /// returns the final telemetry snapshot. The calling thread is the
    /// connection poller.
    pub fn run(self) -> ServeTelemetry {
        let mut workers = Vec::with_capacity(self.shared.cfg.workers);
        for _ in 0..self.shared.cfg.workers {
            let shared = Arc::clone(&self.shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        let accepting = self.listener.set_nonblocking(true).is_ok();
        let mut conns: Vec<Conn> = Vec::new();
        loop {
            if lock(&self.shared.state).stopped {
                break;
            }
            let mut progressed = false;
            if accepting {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            progressed = true;
                            if let Some(conn) = register_conn(&self.shared, stream) {
                                conns.push(conn);
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(_) => break, // WouldBlock: nothing pending
                    }
                }
            }
            conns.retain_mut(|c| service_conn(&self.shared, c, &mut progressed));
            if !progressed {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        for w in workers {
            let _ = w.join();
        }
        // Don't exit (and tear down the process) before the shutdown
        // reply has actually been delivered to its requester.
        let mut st = lock(&self.shared.state);
        while !st.shutdown_acked {
            st = self
                .shared
                .idle_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(st);
        lock(&self.shared.telemetry).clone()
    }
}

/// Counts and configures a freshly accepted socket for polling. A
/// socket that refuses non-blocking mode is dropped on the floor — it
/// cannot be serviced safely.
fn register_conn(shared: &Shared, stream: TcpStream) -> Option<Conn> {
    lock(&shared.telemetry).connections.inc();
    stream.set_nonblocking(true).ok()?;
    // Bound worker-side reply writes so a stuck client cannot wedge a
    // worker thread in the blocking write window.
    stream
        .set_write_timeout(Some(Duration::from_secs(30)))
        .ok()?;
    Some(Conn {
        shared: Arc::new(ConnShared {
            stream,
            busy: AtomicBool::new(false),
            dead: AtomicBool::new(false),
        }),
        buf: Vec::new(),
        scanned: 0,
        last_data: Instant::now(),
        eof: false,
    })
}

/// One poller pass over a connection: drain the socket, dispatch any
/// complete lines, apply the line-length and read-deadline guards.
/// Returns `false` to reap the connection.
fn service_conn(shared: &Arc<Shared>, conn: &mut Conn, progressed: &mut bool) -> bool {
    if conn.shared.dead.load(Ordering::Acquire) {
        return false;
    }
    if conn.shared.busy.load(Ordering::Acquire) {
        return true; // a worker owns the socket until the reply lands
    }
    let mut chunk = [0u8; 4096];
    loop {
        match (&conn.shared.stream).read(&mut chunk) {
            Ok(0) => {
                conn.eof = true;
                break;
            }
            Ok(n) => {
                *progressed = true;
                conn.last_data = Instant::now();
                conn.buf.extend_from_slice(&chunk[..n]);
                if conn.buf.len() > shared.cfg.max_line_len {
                    break; // guard below reaps; stop buffering
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => return false,
        }
    }
    while !conn.shared.busy.load(Ordering::Acquire) {
        let Some(pos) = conn.buf[conn.scanned..].iter().position(|&b| b == b'\n') else {
            conn.scanned = conn.buf.len();
            break;
        };
        let pos = conn.scanned + pos;
        conn.scanned = 0;
        if pos > shared.cfg.max_line_len {
            break; // the guard below refuses it, even when it arrived whole
        }
        let rest = conn.buf.split_off(pos + 1);
        let line_bytes = std::mem::replace(&mut conn.buf, rest);
        let text = String::from_utf8_lossy(&line_bytes);
        let line = text.trim();
        if line.is_empty() {
            continue;
        }
        *progressed = true;
        handle_line(shared, &conn.shared, line);
        if conn.shared.dead.load(Ordering::Acquire) {
            return false;
        }
    }
    if conn.buf.len() > shared.cfg.max_line_len {
        let mut t = lock(&shared.telemetry);
        t.oversized_lines.inc();
        t.protocol_errors.inc();
        drop(t);
        write_line(
            &conn.shared,
            &render_error(&format!(
                "request line exceeded {} bytes",
                shared.cfg.max_line_len
            )),
        );
        return false;
    }
    if !conn.buf.is_empty() && ms_since(conn.last_data) > shared.cfg.read_deadline_ms {
        lock(&shared.telemetry).read_deadline_drops.inc();
        return false;
    }
    // A half-closed peer with no complete line left will never send
    // one; reap. (With `busy` set we never reach here, so a job's
    // reply still goes out before the reap.)
    if conn.eof {
        return false;
    }
    true
}

/// One worker: pop, simulate, respond, repeat; exit once the service
/// drains.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut st = lock(&shared.state);
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.in_flight += 1;
                    break job;
                }
                if st.draining || st.stopped {
                    return;
                }
                st = shared
                    .work_cv
                    .wait(st)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        run_job(shared, job);
        let mut st = lock(&shared.state);
        st.in_flight -= 1;
        if st.queue.is_empty() && st.in_flight == 0 {
            shared.idle_cv.notify_all();
        }
    }
}

/// Runs one admitted job to a response string and delivers it. Every
/// path answers: expired deadline, cooperative cancellation, a
/// panicking simulation (contained by `catch_unwind`, diagnosed by the
/// config_key it was holding), or success.
fn run_job(shared: &Shared, job: Job) {
    let queue_ms = ms_since(job.submitted);
    let deadline_ms = job.req.deadline_ms.unwrap_or(0);
    let reply = if job.deadline.is_some_and(|d| Instant::now() >= d) {
        lock(&shared.telemetry).timeouts.inc();
        render_timeout(job.req.id.as_deref(), deadline_ms)
    } else {
        let cancel = job
            .deadline
            .map(CancelToken::with_deadline)
            .unwrap_or_default();
        let sim_start = Instant::now();
        // Tracks the config_key the worker was simulating, so a panic
        // is attributable from the client side. `MAX` = none started.
        let active_key = AtomicU64::new(u64::MAX);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            job.sweep
                .run_budgeted_traced(&shared.cache, &cancel, &|key| {
                    active_key.store(key, Ordering::Relaxed)
                })
        }));
        let sim_ms = ms_since(sim_start);
        let service_ms = ms_since(job.submitted);
        let mut t = lock(&shared.telemetry);
        match outcome {
            Ok(Some(results)) => {
                t.completed.inc();
                t.sim_ms.record(sim_ms);
                t.service_ms.record(service_ms);
                drop(t);
                render_job_ok(&job.req, &results, queue_ms, service_ms)
            }
            Ok(None) => {
                t.timeouts.inc();
                render_timeout(job.req.id.as_deref(), deadline_ms)
            }
            Err(_) => {
                t.internal_errors.inc();
                t.worker_panics.inc();
                let key = active_key.load(Ordering::Relaxed);
                render_panic(job.req.id.as_deref(), (key != u64::MAX).then_some(key))
            }
        }
    };
    write_line(&job.conn, &reply);
    job.conn.busy.store(false, Ordering::Release);
}

/// Dispatches one parsed request line. Replies for everything except
/// jobs (and shutdown) are written inline from the poller thread.
fn handle_line(shared: &Arc<Shared>, conn: &Arc<ConnShared>, line: &str) {
    match parse_request(line) {
        Err(e) => {
            lock(&shared.telemetry).protocol_errors.inc();
            write_line(conn, &render_error(&e.to_string()));
        }
        Ok(Request::Ping) => write_line(conn, &render_pong()),
        Ok(Request::Stats) => write_line(conn, &stats_line(shared)),
        Ok(Request::Shutdown) => {
            conn.busy.store(true, Ordering::Release);
            spawn_drain_waiter(shared, Arc::clone(conn));
        }
        Ok(Request::Job(job)) => submit_job(shared, conn, *job),
    }
}

fn stats_line(shared: &Shared) -> String {
    let (depth, in_flight, draining) = {
        let st = lock(&shared.state);
        (st.queue.len() as u64, st.in_flight as u64, st.draining)
    };
    let t = lock(&shared.telemetry);
    Json::obj([
        ("status", Json::str("ok")),
        ("stats", t.to_json(depth, in_flight, draining)),
        ("store", store_json(shared)),
    ])
    .to_string()
}

/// The `store` member of a `stats` answer: which memo tier backs the
/// service, and (for the persistent tier) its occupancy and counters.
fn store_json(shared: &Shared) -> Json {
    match &shared.cache {
        CacheTier::Memory(_) => Json::obj([("backend", Json::str("memory"))]),
        CacheTier::Disk(store) => {
            let st = store.stats();
            Json::obj([
                ("backend", Json::str("disk")),
                ("shards", Json::from(DEFAULT_SHARDS as u64)),
                ("warm_entries", Json::from(shared.warm_entries)),
                ("disk_entries", Json::from(st.disk_entries())),
                ("hot_entries", Json::from(st.hot_entries as u64)),
                ("hits_hot", Json::from(st.hits_hot.get())),
                ("hits_disk", Json::from(st.hits_disk.get())),
                ("misses", Json::from(st.misses.get())),
                ("inserts", Json::from(st.inserts.get())),
                ("quarantined", Json::from(st.quarantined.get())),
                ("io_errors", Json::from(st.io_errors.get())),
            ])
        }
    }
}

/// Admission control and queueing. A rejected job is answered inline
/// from the poller; an admitted job marks the connection busy and the
/// worker that runs it writes the reply.
fn submit_job(shared: &Arc<Shared>, conn: &Arc<ConnShared>, req: JobRequest) {
    // Size limits first: cheap, and independent of queue state.
    if req.spec.point_count() > shared.cfg.max_points
        || req.spec.trace_len() > shared.cfg.max_trace_len
    {
        lock(&shared.telemetry).rejected_too_large.inc();
        write_line(conn, &render_rejected(CODE_TOO_LARGE, "too-large"));
        return;
    }
    // Jobs run single-threaded inside a worker; the pool parallelizes
    // across requests, not within one, keeping throughput fair.
    let sweep = match req.spec.sweep(Some(1)) {
        Ok(s) => s,
        Err(e) => {
            lock(&shared.telemetry).protocol_errors.inc();
            write_line(conn, &render_error(&e.to_string()));
            return;
        }
    };
    let submitted = Instant::now();
    let deadline = req
        .deadline_ms
        .and_then(|ms| submitted.checked_add(Duration::from_millis(ms)));
    {
        let mut st = lock(&shared.state);
        if st.draining || st.stopped {
            drop(st);
            lock(&shared.telemetry).rejected_draining.inc();
            write_line(conn, &render_rejected(CODE_DRAINING, "draining"));
            return;
        }
        if st.queue.len() >= shared.cfg.queue_cap {
            drop(st);
            lock(&shared.telemetry).rejected_queue_full.inc();
            write_line(conn, &render_rejected(CODE_QUEUE_FULL, "queue-full"));
            return;
        }
        let depth = st.queue.len() as u64;
        conn.busy.store(true, Ordering::Release);
        st.queue.push_back(Job {
            req,
            sweep,
            deadline,
            submitted,
            conn: Arc::clone(conn),
        });
        drop(st);
        let mut t = lock(&shared.telemetry);
        t.accepted.inc();
        t.queue_depth.record(depth);
    }
    shared.work_cv.notify_one();
}

/// The drain protocol, off the poller thread so the poller keeps
/// answering `stats` while the drain progresses: flip to draining (new
/// jobs now shed with 503), wait until queue and in-flight hit zero,
/// stop the workers and the poller, then answer the requester.
fn spawn_drain_waiter(shared: &Arc<Shared>, conn: Arc<ConnShared>) {
    let shared = Arc::clone(shared);
    std::thread::spawn(move || {
        lock(&shared.state).draining = true;
        shared.work_cv.notify_all();
        let mut st = lock(&shared.state);
        while !(st.queue.is_empty() && st.in_flight == 0) {
            st = shared
                .idle_cv
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st.stopped = true;
        drop(st);
        shared.work_cv.notify_all();
        let completed = lock(&shared.telemetry).completed.get();
        let reply = Json::obj([
            ("status", Json::str("ok")),
            ("drained", Json::from(true)),
            ("completed", Json::from(completed)),
        ])
        .to_string();
        write_line(&conn, &reply);
        conn.busy.store(false, Ordering::Release);
        lock(&shared.state).shutdown_acked = true;
        shared.idle_cv.notify_all();
    });
}
