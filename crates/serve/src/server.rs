//! The TCP estimator server: one readiness-polling event loop feeding a
//! batched worker pool.
//!
//! Threading model (`N` workers, any number of connections):
//!
//! ```text
//!            ┌─────────────── poller thread ───────────────┐
//! listener ──▶ accept ─▶ nonblocking reads ─▶ parse+admit ──try_push──▶ BoundedQueue
//!            │              per-conn line buf     │ shed/quota?       │
//!            │                                    ▼                   ▼ pop_batch
//!            │          POLLOUT re-arm ◀── ConnWriter (per-conn   worker (×N)
//!            │                              nonblocking write        │
//!            └──────────────▲ waker ◀───────  buffer)  ◀── response ─┘
//!    admin ──▶ accept ─▶ head buf ─▶ answer on the poller ─▶ ConnWriter
//! ```
//!
//! * The **poller** is a single thread owning the listener, a wake-up
//!   socket, and every client socket, multiplexed through a std-only
//!   [`poll(2)`](crate::poller) wrapper. Reads are nonblocking into a
//!   per-connection byte buffer, split on `\n` across partial reads.
//!   Idle connections cost one `pollfd` entry and their buffers — no
//!   thread, no timer, no wakeups.
//! * With [`ServerConfig::admin_addr`] set, the poller also owns the
//!   **admin listener**: each admin connection's HTTP request is answered
//!   on the poller through its `ConnWriter` — no queue, no worker.
//! * **Admission happens on the poller**: each complete line is parsed
//!   once, its model slot resolved, and its tenant's token bucket
//!   consulted. Over-quota requests answer the uniform fallback with
//!   reason `"quota"` (feedback answers an error — never a fake ack)
//!   *before* taking a queue slot; a full queue sheds with `"shed"` as
//!   before. Admitted jobs carry the parsed request and the slot handle,
//!   so workers never re-parse.
//! * **Workers** drain jobs in batches ([`BoundedQueue::pop_batch`], up
//!   to `MAX_WORKER_BATCH` per lock acquisition) and answer each batch
//!   in two passes. The *prepare* pass validates shapes, checks
//!   deadlines, probes the tenant-partitioned estimate cache through a
//!   reusable borrowed [`CacheKey`] (steady-state hits allocate nothing),
//!   and reads the model with its generation ([`ModelSlot::get`]). The
//!   *evaluate* pass groups consecutive same-model requests and answers
//!   each run with one allocation-free `estimate_into` call.
//! * **Responses** go through each connection's `ConnWriter`. A worker
//!   renders its batch's answers into reused per-connection line buffers
//!   (batch order kept) and hands each connection its lines with one
//!   send: a direct nonblocking write when the socket has room, otherwise
//!   the remainder lands in a bounded per-connection buffer and the
//!   poller re-arms the socket with `POLLOUT` to finish the flush — a
//!   slow client can never block a worker. A client whose buffer
//!   overflows 1 MiB is dropped and counted
//!   ([`ServeStats::slow_client_drops`]), not allowed to wedge the
//!   server. Data sockets run with `TCP_NODELAY`: with one write per
//!   connection per batch there is nothing left for Nagle to coalesce,
//!   and an answer never waits on the client's delayed ACK.
//!
//! Every serving count is recorded once, in the server's [`ServeStats`]
//! (and the cache's hit/miss counters): every response path counts a
//! request, degraded paths additionally count their reason (shed,
//! deadline, quota), so (requests − degraded − errors) always equals real
//! model/cache answers. Every `write(2)` a data connection's writer makes
//! is counted too ([`ServeStats::write_calls`]), so writes per answer is
//! `write_calls / requests`. `/stats`, `/metrics` and the exit summary
//! all read these. Per-tenant request and quota-shed counters ride on
//! labeled obs series (`serve.tenant_requests{tenant="…"}`).
//!
//! Every serving timing is recorded once, in an obs histogram and only
//! while obs stats are on: `serve.latency_us` when a line is answered,
//! and `serve.stage_us{stage="…"}` when a job is dequeued (`queue_wait`),
//! answered from the cache (`cache_hit`) or by its model (`estimate`), or
//! its feedback is durably appended (`wal_append`). Every sample is µs
//! since the line was received.

use crate::admin::{self, AdminView};
use crate::cache::{CacheKey, EstimateCache};
use crate::feedback::FeedbackSink;
use crate::poller::{poll, wake_pair, PollFd, Waker, POLLIN, POLLOUT};
use crate::protocol::{
    parse_line, DegradeReason, Feedback, Request, RequestLine, Response, Shape, ShapeKind,
};
use crate::queue::BoundedQueue;
use crate::registry::{uniform_fallback, ModelRegistry, ModelSlot};
use selearn_core::{
    quantize_ball_key_into, quantize_halfspace_key_into, quantize_rect_key_into,
    SharedEstimator, TrainingQuery,
};
use selearn_geom::{Ball, Halfspace, Point, Range, Rect, VolumeEstimator};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs. `Default` is sized for tests and small machines.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads evaluating models (minimum 1).
    pub workers: usize,
    /// Bounded queue capacity; the admission-control threshold.
    pub queue_capacity: usize,
    /// Estimate-cache entries **per tenant** (0 disables the cache).
    pub cache_capacity: usize,
    /// Queue-wait budget per request; `Duration::ZERO` disables deadline
    /// degradation.
    pub deadline: Duration,
    /// Default per-tenant admission quota in requests/sec (0 disables —
    /// tenants are unlimited unless [`ModelRegistry::set_quota`] says
    /// otherwise).
    pub tenant_quota_rps: f64,
    /// Token-bucket burst for the default tenant quota.
    pub tenant_quota_burst: f64,
    /// Bind address of the HTTP admin plane (`/metrics`, `/healthz`,
    /// `/readyz`, `/stats`), served by the same poller; `None` serves
    /// none.
    pub admin_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 256,
            cache_capacity: 4096,
            deadline: Duration::from_millis(100),
            tenant_quota_rps: 0.0,
            tenant_quota_burst: 64.0,
            admin_addr: None,
        }
    }
}

/// Atomic per-server accounting: the one record of every serving count,
/// read by `/stats`, `/metrics`, the server binary's exit summary and the
/// tests. All counts are lifetime totals.
#[derive(Default)]
pub struct ServeStats {
    requests: AtomicU64,
    model_answers: AtomicU64,
    cache_answers: AtomicU64,
    shed: AtomicU64,
    deadline_expired: AtomicU64,
    quota_shed: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    slow_client_drops: AtomicU64,
    feedback_acks: AtomicU64,
    rect_requests: AtomicU64,
    halfspace_requests: AtomicU64,
    ball_requests: AtomicU64,
    write_calls: AtomicU64,
}

macro_rules! stat_getters {
    ($($(#[$doc:meta])* $get:ident <- $field:ident;)*) => {
        $( $(#[$doc])* pub fn $get(&self) -> u64 { self.$field.load(Ordering::Relaxed) } )*
    };
}

impl ServeStats {
    stat_getters! {
        /// Total request lines answered (every path).
        requests <- requests;
        /// Answers computed by a model.
        model_answers <- model_answers;
        /// Answers served from the estimate cache.
        cache_answers <- cache_answers;
        /// Uniform fallbacks due to a full queue.
        shed <- shed;
        /// Uniform fallbacks due to an expired queue-wait deadline.
        deadline_expired <- deadline_expired;
        /// Uniform fallbacks due to an exhausted per-tenant quota.
        quota_shed <- quota_shed;
        /// Per-request error responses.
        errors <- errors;
        /// Connections accepted over the server's lifetime.
        connections <- connections;
        /// Connections dropped for out-running their response buffer.
        slow_client_drops <- slow_client_drops;
        /// Feedback records durably acknowledged.
        feedback_acks <- feedback_acks;
        /// Rect estimate requests that reached a worker's prepare pass.
        rect_requests <- rect_requests;
        /// Halfspace estimate requests that reached a worker's prepare pass.
        halfspace_requests <- halfspace_requests;
        /// Ball estimate requests that reached a worker's prepare pass.
        ball_requests <- ball_requests;
        /// `write(2)` calls made on data connections (direct sends and
        /// `POLLOUT` flushes; admin answers are not counted).
        write_calls <- write_calls;
    }

    /// All uniform-fallback answers, regardless of reason.
    pub fn degraded(&self) -> u64 {
        self.shed() + self.deadline_expired() + self.quota_shed()
    }

    fn count_shape(&self, kind: ShapeKind) {
        let field = match kind {
            ShapeKind::Rect => &self.rect_requests,
            ShapeKind::Halfspace => &self.halfspace_requests,
            ShapeKind::Ball => &self.ball_requests,
        };
        field.fetch_add(1, Ordering::Relaxed);
    }
}

/// The send half of one connection: a nonblocking direct-write fast path
/// backed by a bounded pending buffer that the poller drains on
/// `POLLOUT`. Shared (via `Arc`) between the poller's connection table
/// and every in-flight job for the connection, so responses outlive the
/// read half.
struct ConnWriter {
    state: Mutex<WriteHalf>,
    /// Pending bytes exist — the poller arms `POLLOUT` for this socket.
    want_write: AtomicBool,
    /// Fatal: the poller reaps the connection at its next iteration and
    /// sends become no-ops.
    doomed: AtomicBool,
    waker: Arc<Waker>,
    stats: Arc<ServeStats>,
    /// A data-port connection: its writes count in
    /// [`ServeStats::write_calls`].
    data_port: bool,
}

struct WriteHalf {
    stream: TcpStream,
    pending: Vec<u8>,
    /// Bytes of `pending` already written (drain offset — no memmove per
    /// partial flush).
    sent: usize,
}

impl ConnWriter {
    fn new(stream: TcpStream, waker: Arc<Waker>, stats: Arc<ServeStats>, data_port: bool) -> Self {
        Self {
            state: Mutex::new(WriteHalf {
                stream,
                pending: Vec::new(),
                sent: 0,
            }),
            want_write: AtomicBool::new(false),
            doomed: AtomicBool::new(false),
            waker,
            stats,
            data_port,
        }
    }

    /// One `write(2)`, counted when this is a data connection.
    fn write_once(&self, stream: &TcpStream, bytes: &[u8]) -> std::io::Result<usize> {
        if self.data_port {
            self.stats.write_calls.fetch_add(1, Ordering::Relaxed);
        }
        (&*stream).write(bytes)
    }

    fn is_doomed(&self) -> bool {
        self.doomed.load(Ordering::Acquire)
    }

    fn wants_write(&self) -> bool {
        self.want_write.load(Ordering::Acquire)
    }

    fn has_pending(&self) -> bool {
        let s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        s.sent < s.pending.len()
    }

    fn doom(&self) {
        self.doomed.store(true, Ordering::Release);
        self.waker.wake();
    }

    /// Buffer-overflow doom: the client is reading slower than it sends.
    fn doom_slow(&self) {
        self.stats.slow_client_drops.fetch_add(1, Ordering::Relaxed);
        self.doom();
    }

    /// Queues response bytes: direct nonblocking write when the buffer
    /// is empty, spillover into `pending` (waking the poller to re-arm
    /// `POLLOUT`) when the socket is full. Never blocks the caller.
    fn send(&self, line: &[u8]) {
        if self.is_doomed() {
            return;
        }
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        if s.sent >= s.pending.len() {
            s.pending.clear();
            s.sent = 0;
            let mut written = 0;
            while written < line.len() {
                match self.write_once(&s.stream, &line[written..]) {
                    Ok(0) => return self.doom(),
                    Ok(n) => written += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                    Err(_) => return self.doom(),
                }
            }
            if written == line.len() {
                return;
            }
            s.pending.extend_from_slice(&line[written..]);
        } else {
            if s.pending.len() - s.sent + line.len() > MAX_CONN_WRITE_BUFFER {
                drop(s);
                self.doom_slow();
                return;
            }
            s.pending.extend_from_slice(line);
        }
        self.want_write.store(true, Ordering::Release);
        self.waker.wake();
    }

    /// Drains `pending` as far as the socket allows. Called by the poller
    /// on `POLLOUT`; leaves `want_write` armed when the socket fills
    /// again mid-flush.
    fn flush(&self) {
        if self.is_doomed() {
            return;
        }
        let mut s = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        while s.sent < s.pending.len() {
            let sent = s.sent;
            match self.write_once(&s.stream, &s.pending[sent..]) {
                Ok(0) => return self.doom(),
                Ok(n) => s.sent += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return self.doom(),
            }
        }
        s.pending.clear();
        s.sent = 0;
        self.want_write.store(false, Ordering::Release);
    }
}

/// One admitted request: parsed on the poller, carried with its resolved
/// model slot and the connection's shared writer.
struct Job {
    kind: JobKind,
    slot: Arc<ModelSlot>,
    writer: Arc<ConnWriter>,
    received: Instant,
}

enum JobKind {
    Estimate(Request),
    Feedback(Feedback),
}

/// Cache-key quantization grid (cells per dimension).
const CACHE_GRID: u32 = 64;

/// Estimate-cache lock shards per tenant partition.
const CACHE_SHARDS: usize = 8;

/// Hard cap on one request line; longer lines end the connection.
const MAX_LINE_BYTES: usize = 64 * 1024;

/// Per-connection response buffer cap: a client that falls further behind
/// than this is dropped ([`ServeStats::slow_client_drops`]) instead of
/// buffering unboundedly.
const MAX_CONN_WRITE_BUFFER: usize = 1024 * 1024;

/// Jobs drained per [`BoundedQueue::pop_batch`] call. Bounds the worker's
/// reusable buffers and the queueing delay any single request can pick up
/// behind the rest of its batch.
const MAX_WORKER_BATCH: usize = 64;

/// Poll timeout: the gauge-tick, admin head-budget and
/// shutdown-responsiveness granularity. Idle connections sleep in the
/// kernel — this only bounds how stale the once-a-second QPS gauge can
/// go and how late past its 2 s budget a stalled admin head is answered.
const POLL_TICK_MS: i32 = 250;

/// How long shutdown keeps flushing pending response bytes to slow
/// clients before giving up on them.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(3);

// The `serve.stage_us` series, one per stage a job reaches (module docs).
const STAGE_QUEUE_WAIT: &str = "serve.stage_us{stage=\"queue_wait\"}";
const STAGE_CACHE_HIT: &str = "serve.stage_us{stage=\"cache_hit\"}";
const STAGE_ESTIMATE: &str = "serve.stage_us{stage=\"estimate\"}";
const STAGE_WAL_APPEND: &str = "serve.stage_us{stage=\"wal_append\"}";

/// Outcome of the prepare pass for one job.
enum Prepared {
    /// Answerable without evaluating a model: validation error, degraded
    /// fallback, feedback ack, or estimate-cache hit.
    Ready(Response),
    /// Needs a model evaluation over the batch lane `ranges[lane]`.
    Eval {
        id: Option<u64>,
        /// The registry name the request addressed, echoed in the answer.
        est: String,
        model: SharedEstimator,
        cache_key: Option<CacheKey>,
        tenant: u32,
        lane: usize,
    },
}

/// Everything the poller thread needs, bundled once.
struct PollerShared {
    listener: TcpListener,
    admin_listener: Option<TcpListener>,
    stop: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    queue: Arc<BoundedQueue<Job>>,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServeStats>,
    /// Read by the admin plane's `/stats`.
    cache: Arc<EstimateCache>,
    /// Read by the admin plane's `/readyz` (store, drift).
    sink: Option<Arc<dyn FeedbackSink>>,
    waker: Arc<Waker>,
    open_connections: Arc<AtomicUsize>,
}

/// One live connection as the poller sees it: the read half, the shared
/// write half, and the partial-line (or request-head) buffer.
struct Conn {
    stream: TcpStream,
    writer: Arc<ConnWriter>,
    buf: Vec<u8>,
    /// The client sent EOF (or errored), or an admin request was
    /// answered; keep the entry only while pending response bytes remain
    /// to flush.
    read_closed: bool,
    kind: ConnKind,
}

/// Which listener a connection came from.
#[derive(Clone, Copy)]
enum ConnKind {
    /// Data port: newline-delimited requests.
    Line,
    /// Admin port: one HTTP request head, accepted at this instant.
    Http(Instant),
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](ServerHandle::shutdown) leaves threads running until
/// process exit — call it for a clean stop.
pub struct ServerHandle {
    addr: SocketAddr,
    admin_addr: Option<SocketAddr>,
    registry: Arc<ModelRegistry>,
    cache: Arc<EstimateCache>,
    stats: Arc<ServeStats>,
    stop: Arc<AtomicBool>,
    drain: Arc<AtomicBool>,
    waker: Arc<Waker>,
    poller: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    queue: Arc<BoundedQueue<Job>>,
    open_connections: Arc<AtomicUsize>,
}

impl ServerHandle {
    /// The bound address (with the OS-assigned port when `addr` used `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound admin-plane address, when [`ServerConfig::admin_addr`]
    /// was set.
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.admin_addr
    }

    /// The model registry — hot-swap through this while serving.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The estimate cache (hit/miss counters live here).
    pub fn cache(&self) -> &Arc<EstimateCache> {
        &self.cache
    }

    /// Lifetime serving statistics.
    pub fn stats(&self) -> &Arc<ServeStats> {
        &self.stats
    }

    /// Data-port connections currently held by the poller (advisory;
    /// updated once per poll iteration).
    pub fn open_connections(&self) -> usize {
        self.open_connections.load(Ordering::Relaxed)
    }

    /// A closure reporting `(depth, capacity)` of the request queue —
    /// how callers watch admission control without the (private) job
    /// type escaping this module.
    pub fn queue_probe(&self) -> Box<dyn Fn() -> (usize, usize) + Send + Sync> {
        let queue = Arc::clone(&self.queue);
        Box::new(move || (queue.len(), queue.capacity()))
    }

    /// Stops accepting and reading, drains queued work through the
    /// workers, flushes buffered responses (bounded by `DRAIN_TIMEOUT`
    /// per slow client), and joins every thread.
    pub fn shutdown(mut self) {
        // Phase 1: the poller stops accepting and reading, but keeps
        // flushing response buffers while the workers finish the backlog.
        self.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Phase 2: every response has been handed to its ConnWriter —
        // tell the poller to finish the flush and exit.
        self.drain.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(p) = self.poller.take() {
            let _ = p.join();
        }
    }
}

/// Binds, spawns the poller + worker pool, and returns immediately.
/// Feedback lines answer an error; use [`start_with_feedback`] to accept
/// them.
pub fn start(config: ServerConfig, registry: Arc<ModelRegistry>) -> std::io::Result<ServerHandle> {
    start_with_feedback(config, registry, None)
}

/// [`start`], plus a [`FeedbackSink`] that feedback lines are routed to.
/// With `None`, feedback lines answer a per-request error and the
/// connection stays open.
pub fn start_with_feedback(
    config: ServerConfig,
    registry: Arc<ModelRegistry>,
    sink: Option<Arc<dyn FeedbackSink>>,
) -> std::io::Result<ServerHandle> {
    let listener = bind_nonblocking(&config.addr)?;
    let addr = listener.local_addr()?;
    let admin_listener = config.admin_addr.as_deref().map(bind_nonblocking).transpose()?;
    let admin_addr = admin_listener
        .as_ref()
        .map(TcpListener::local_addr)
        .transpose()?;
    if admin_addr.is_some() {
        selearn_obs::expo::mark_start(); // `process_uptime_seconds` counts from here
    }
    let (waker, wake_rx) = wake_pair()?;
    let waker = Arc::new(waker);

    if config.tenant_quota_rps > 0.0 {
        registry.set_default_quota(config.tenant_quota_rps, config.tenant_quota_burst);
    }

    let cache = Arc::new(EstimateCache::new(config.cache_capacity.max(1), CACHE_SHARDS));
    let stats = Arc::new(ServeStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let drain = Arc::new(AtomicBool::new(false));
    let queue = Arc::new(BoundedQueue::new(config.queue_capacity));
    let open_connections = Arc::new(AtomicUsize::new(0));

    let workers = (0..config.workers.max(1))
        .map(|_| {
            let queue = Arc::clone(&queue);
            let cache = Arc::clone(&cache);
            let stats = Arc::clone(&stats);
            let sink = sink.clone();
            let config = config.clone();
            std::thread::spawn(move || {
                worker_loop(&queue, &cache, &stats, sink.as_ref(), &config);
            })
        })
        .collect();

    let poller = {
        let shared = PollerShared {
            listener,
            admin_listener,
            stop: Arc::clone(&stop),
            drain: Arc::clone(&drain),
            queue: Arc::clone(&queue),
            registry: Arc::clone(&registry),
            stats: Arc::clone(&stats),
            cache: Arc::clone(&cache),
            sink,
            waker: Arc::clone(&waker),
            open_connections: Arc::clone(&open_connections),
        };
        std::thread::spawn(move || poller_loop(wake_rx, &shared))
    };

    Ok(ServerHandle {
        addr,
        admin_addr,
        registry,
        cache,
        stats,
        stop,
        drain,
        waker,
        poller: Some(poller),
        workers,
        queue,
        open_connections,
    })
}

/// Binds a nonblocking listener; a bind failure names the address.
fn bind_nonblocking(addr: &str) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)
        .map_err(|e| std::io::Error::new(e.kind(), format!("bind {addr}: {e}")))?;
    listener.set_nonblocking(true)?;
    Ok(listener)
}

/// The event loop: one thread, every socket. Each iteration rebuilds the
/// poll set (wake socket, listeners, one entry per connection with
/// `POLLOUT` armed only where pending bytes wait), sleeps in `poll`,
/// then dispatches readiness: accept-drain, per-connection read-drain
/// with line splitting + admission (or head collection + answer on an
/// admin connection), and write-buffer flushes.
fn poller_loop(mut wake_rx: UnixStream, sh: &PollerShared) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut chunk = vec![0u8; 16 * 1024];
    let mut last_tick = Instant::now();
    let mut last_count = 0u64;
    let mut drain_started: Option<Instant> = None;
    loop {
        // Reap: doomed writers (slow clients, write errors) and closed
        // readers whose responses are fully flushed.
        conns.retain(|c| {
            !c.writer.is_doomed() && (!c.read_closed || c.writer.has_pending())
        });
        let stopping = sh.stop.load(Ordering::SeqCst);
        if stopping {
            // Shutdown: connections with nothing buffered close now
            // (in-flight responses still reach the socket through the
            // writer's own handle); the rest stay for the final flush.
            conns.retain(|c| c.writer.has_pending());
            if sh.drain.load(Ordering::SeqCst) {
                let started = *drain_started.get_or_insert_with(Instant::now);
                if conns.is_empty() || started.elapsed() > DRAIN_TIMEOUT {
                    break;
                }
            }
        }

        fds.clear();
        fds.push(PollFd::new(wake_rx.as_raw_fd(), POLLIN));
        if !stopping {
            fds.push(PollFd::new(sh.listener.as_raw_fd(), POLLIN));
            if let Some(l) = &sh.admin_listener {
                fds.push(PollFd::new(l.as_raw_fd(), POLLIN));
            }
        }
        let conn_base = fds.len();
        let mut data_conns = 0;
        for c in &conns {
            data_conns += usize::from(matches!(c.kind, ConnKind::Line));
            let mut interest = 0i16;
            if !stopping && !c.read_closed {
                interest |= POLLIN;
            }
            if c.writer.wants_write() {
                interest |= POLLOUT;
            }
            fds.push(PollFd::new(c.stream.as_raw_fd(), interest));
        }
        sh.open_connections.store(data_conns, Ordering::Relaxed);

        if poll(&mut fds, POLL_TICK_MS).is_err() {
            // Transient poll failure (e.g. fd-table churn): back off a
            // beat instead of spinning.
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }

        if fds[0].readable() {
            sh.waker.drain(&mut wake_rx);
        }

        // Once a second, export QPS, queue-depth, and connection gauges.
        let tick = last_tick.elapsed();
        if tick >= Duration::from_secs(1) {
            let now = sh.stats.requests();
            let qps = (now - last_count) as f64 / tick.as_secs_f64();
            selearn_obs::gauge_set("serve.qps", qps);
            selearn_obs::gauge_set("serve.queue_depth", sh.queue.len() as f64);
            selearn_obs::gauge_set("serve.open_connections", data_conns as f64);
            last_count = now;
            last_tick = Instant::now();
        }

        if !stopping {
            if fds[1].readable() {
                accept_ready(&sh.listener, false, &mut conns, sh);
            }
            if let Some(l) = &sh.admin_listener {
                if fds[2].readable() {
                    accept_ready(l, true, &mut conns, sh);
                }
            }
        }

        for (i, c) in conns.iter_mut().enumerate() {
            let Some(pf) = fds.get(conn_base + i) else {
                break; // accept grew `conns` past this iteration's poll set
            };
            if pf.writable() {
                c.writer.flush();
            }
            if stopping || c.read_closed {
                continue;
            }
            let done = pf.readable() && !read_ready(c, &mut chunk, sh);
            match c.kind {
                ConnKind::Line => c.read_closed = done,
                // An admin head is answered once complete or the client
                // stops, or when its budget runs out (checked every
                // iteration, so at least once per poll tick).
                ConnKind::Http(accepted) => {
                    if done || accepted.elapsed() >= admin::HEAD_TIMEOUT {
                        answer_admin(c, sh);
                    }
                }
            }
        }
    }
}

/// Accept-drains a listener: every pending connection is registered
/// nonblocking with a fresh [`ConnWriter`]. Admin connections are not
/// counted as data-port connections.
fn accept_ready(listener: &TcpListener, admin: bool, conns: &mut Vec<Conn>, sh: &PollerShared) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                // Answers leave in one write per connection per worker
                // batch, so Nagle has nothing to coalesce and would only
                // hold each answer for the client's delayed ACK.
                if !admin && stream.set_nodelay(true).is_err() {
                    continue;
                }
                let write_half = match stream.try_clone() {
                    Ok(w) => w,
                    Err(_) => continue,
                };
                let kind = if admin {
                    ConnKind::Http(Instant::now())
                } else {
                    sh.stats.connections.fetch_add(1, Ordering::Relaxed);
                    ConnKind::Line
                };
                conns.push(Conn {
                    stream,
                    writer: Arc::new(ConnWriter::new(
                        write_half,
                        Arc::clone(&sh.waker),
                        Arc::clone(&sh.stats),
                        !admin,
                    )),
                    buf: Vec::new(),
                    read_closed: false,
                    kind,
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
}

/// Read-drains one connection: nonblocking reads into its buffer,
/// admitting every complete line (an admin connection only collects its
/// request head). Returns `false` when the connection is done reading
/// (EOF, error, overlong line, complete admin head).
fn read_ready(c: &mut Conn, chunk: &mut [u8], sh: &PollerShared) -> bool {
    loop {
        match c.stream.read(chunk) {
            Ok(0) => return false, // client closed
            Ok(n) => {
                c.buf.extend_from_slice(&chunk[..n]);
                if let ConnKind::Http(_) = c.kind {
                    if admin::head_complete(&c.buf) {
                        return false;
                    }
                    continue;
                }
                while let Some(pos) = c.buf.iter().position(|&b| b == b'\n') {
                    let mut line: Vec<u8> = c.buf.drain(..=pos).collect();
                    line.pop(); // the '\n'
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    if line.is_empty() {
                        continue;
                    }
                    admit_line(line, &c.writer, sh);
                }
                if c.buf.len() > MAX_LINE_BYTES {
                    respond_error(
                        &c.writer,
                        &sh.stats,
                        None,
                        "request line too long",
                        Instant::now(),
                    );
                    return false; // close: the stream is mid-garbage, resync is impossible
                }
                if n < chunk.len() {
                    return true; // short read: the socket is drained
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Answers an admin connection from whatever head it sent (an empty head
/// gets no reply) and marks it read-closed: the reap closes it once the
/// response is flushed.
fn answer_admin(c: &mut Conn, sh: &PollerShared) {
    let view = AdminView {
        registry: &sh.registry,
        stats: &sh.stats,
        cache: &sh.cache,
        queue: (sh.queue.len(), sh.queue.capacity()),
        sink: sh.sink.as_deref(),
    };
    if let Some(response) = view.answer(&c.buf) {
        c.writer.send(&response);
    }
    c.read_closed = true;
}

/// Poller-side admission for one complete line: parse once, resolve the
/// model slot, charge the tenant's token bucket, then enqueue — or answer
/// inline (errors, quota, shed) without ever blocking the event loop.
fn admit_line(line: Vec<u8>, writer: &Arc<ConnWriter>, sh: &PollerShared) {
    let received = Instant::now();
    let line = match String::from_utf8(line) {
        Ok(s) => s,
        Err(_) => {
            respond_error(writer, &sh.stats, None, "request is not valid UTF-8", received);
            return;
        }
    };
    let parsed = match parse_line(&line) {
        Ok(p) => p,
        Err(message) => {
            let response = error_response(&sh.stats, None, message);
            respond(writer, &sh.stats, &response, received);
            return;
        }
    };
    let (est_name, id) = match &parsed {
        RequestLine::Estimate(r) => (r.est.as_str(), r.id),
        RequestLine::Feedback(f) => (f.est.as_str(), f.id),
    };
    let Some(slot) = sh.registry.slot(est_name) else {
        let response = error_response(&sh.stats, id, format!("unknown model \"{est_name}\""));
        respond(writer, &sh.stats, &response, received);
        return;
    };
    if !slot.tenant().admit() {
        sh.stats.quota_shed.fetch_add(1, Ordering::Relaxed);
        let response = match parsed {
            // A degraded *ack* would be a lie about durability — over-quota
            // feedback answers an error so the client knows to retry.
            RequestLine::Feedback(fb) => error_response(
                &sh.stats,
                fb.id,
                "tenant over quota: feedback not recorded, retry".into(),
            ),
            RequestLine::Estimate(req) => {
                degraded_response(&req, slot.root(), DegradeReason::Quota, received)
            }
        };
        respond(writer, &sh.stats, &response, received);
        return;
    }
    let job = Job {
        kind: match parsed {
            RequestLine::Estimate(req) => JobKind::Estimate(req),
            RequestLine::Feedback(fb) => JobKind::Feedback(fb),
        },
        slot,
        writer: Arc::clone(writer),
        received,
    };
    if let Err(job) = sh.queue.try_push(job) {
        shed(job, &sh.stats);
    }
}

/// Queue-full path, run on the poller: answer with the uniform fallback
/// instead of queueing, so overload degrades accuracy, not availability.
fn shed(job: Job, stats: &ServeStats) {
    stats.shed.fetch_add(1, Ordering::Relaxed);
    let response = match &job.kind {
        // A degraded *estimate* is a sane answer; a degraded *ack* would
        // be a lie about durability — shed feedback answers an error so
        // the client knows to retry.
        JobKind::Feedback(fb) => error_response(
            stats,
            fb.id,
            "server overloaded: feedback not recorded, retry".into(),
        ),
        JobKind::Estimate(req) => {
            degraded_response(req, job.slot.root(), DegradeReason::Shed, job.received)
        }
    };
    respond(&job.writer, stats, &response, job.received);
}

/// The batched worker hot loop: drain up to [`MAX_WORKER_BATCH`] jobs,
/// prepare each (validate → deadline → cache → model handle), evaluate
/// the survivors through `estimate_into` one same-model run at a time,
/// then write the responses with one send per connection. All batch
/// buffers — including the borrowed cache-probe key and the response
/// lines — are reused across iterations, so the steady-state loop
/// performs no per-request allocation for query, key, selectivity or
/// line storage.
fn worker_loop(
    queue: &BoundedQueue<Job>,
    cache: &EstimateCache,
    stats: &ServeStats,
    sink: Option<&Arc<dyn FeedbackSink>>,
    config: &ServerConfig,
) {
    let mut jobs: Vec<Job> = Vec::with_capacity(MAX_WORKER_BATCH);
    let mut prepared: Vec<Prepared> = Vec::with_capacity(MAX_WORKER_BATCH);
    let mut ranges: Vec<Range> = Vec::with_capacity(MAX_WORKER_BATCH);
    let mut sels: Vec<f64> = Vec::with_capacity(MAX_WORKER_BATCH);
    let mut scratch = CacheKey::default();
    let mut writes = BatchWrites::default();
    while queue.pop_batch(&mut jobs, MAX_WORKER_BATCH) {
        prepared.clear();
        ranges.clear();
        for job in &jobs {
            prepared.push(prepare_job(
                job,
                cache,
                stats,
                sink,
                config,
                &mut ranges,
                &mut scratch,
            ));
        }
        sels.clear();
        sels.resize(ranges.len(), 0.0);
        // Evaluate each run of consecutive same-model requests with one
        // batch call. With a single hot model (the common case) the
        // entire batch is one `estimate_into`.
        let mut run: Option<(&SharedEstimator, usize, usize)> = None;
        for p in &prepared {
            let Prepared::Eval { model, lane, .. } = p else {
                continue;
            };
            run = match run {
                Some((m, lo, hi)) if Arc::ptr_eq(m, model) => Some((m, lo, hi + 1)),
                Some((m, lo, hi)) => {
                    m.estimate_into(&ranges[lo..hi], &mut sels[lo..hi]);
                    Some((model, *lane, lane + 1))
                }
                None => Some((model, *lane, lane + 1)),
            };
        }
        if let Some((m, lo, hi)) = run {
            m.estimate_into(&ranges[lo..hi], &mut sels[lo..hi]);
        }
        for (i, (job, p)) in jobs.iter().zip(prepared.drain(..)).enumerate() {
            let response = match p {
                Prepared::Ready(response) => response,
                Prepared::Eval {
                    id,
                    est,
                    cache_key,
                    tenant,
                    lane,
                    ..
                } => {
                    let sel = sels[lane].clamp(0.0, 1.0);
                    if let Some(key) = cache_key {
                        cache.insert(tenant, &key, sel);
                    }
                    stats.model_answers.fetch_add(1, Ordering::Relaxed);
                    let us = micros_since(job.received);
                    selearn_obs::histogram_record(STAGE_ESTIMATE, us);
                    Response::Estimate {
                        id,
                        est,
                        sel,
                        us,
                        degraded: None,
                        cached: false,
                    }
                }
            };
            // Counted before any answer goes out (see `respond`).
            stats.requests.fetch_add(1, Ordering::Relaxed);
            writes.push(&jobs, i, &response);
        }
        writes.send(&jobs);
        for job in &jobs {
            record_since("serve.latency_us", job.received);
        }
    }
}

/// A worker's write pass: the batch's response lines gathered per
/// connection, in batch order, so each connection gets one send per
/// batch. Line buffers are kept across batches; connections are named
/// by the index of their first job, so no writer outlives its batch here.
#[derive(Default)]
struct BatchWrites {
    /// Index into the batch of each connection's first job.
    conns: Vec<usize>,
    /// `lines[g]` holds the lines for `conns[g]`; spare buffers stay.
    lines: Vec<String>,
}

impl BatchWrites {
    /// Appends `response`'s line to the buffer of job `i`'s connection.
    fn push(&mut self, jobs: &[Job], i: usize, response: &Response) {
        let writer = &jobs[i].writer;
        let g = match self
            .conns
            .iter()
            .position(|&c| Arc::ptr_eq(&jobs[c].writer, writer))
        {
            Some(g) => g,
            None => {
                self.conns.push(i);
                if self.lines.len() < self.conns.len() {
                    self.lines.push(String::new());
                }
                self.conns.len() - 1
            }
        };
        let line = &mut self.lines[g];
        response.write_json(line);
        line.push('\n');
    }

    /// Hands each connection its lines with one send and empties the
    /// buffers, keeping their capacity.
    fn send(&mut self, jobs: &[Job]) {
        for (&c, line) in self.conns.iter().zip(&mut self.lines) {
            jobs[c].writer.send(line.as_bytes());
            line.clear();
        }
        self.conns.clear();
    }
}

/// The per-request prepare pass: validate → deadline check → cache →
/// model handle. Requests that need a model evaluation push their query
/// into `ranges` and defer to the worker's batched `estimate_into`;
/// feedback lines are answered inline through the sink. `scratch` is the
/// worker's reusable cache key — hits never allocate.
#[allow(clippy::too_many_arguments)]
fn prepare_job(
    job: &Job,
    cache: &EstimateCache,
    stats: &ServeStats,
    sink: Option<&Arc<dyn FeedbackSink>>,
    config: &ServerConfig,
    ranges: &mut Vec<Range>,
    scratch: &mut CacheKey,
) -> Prepared {
    record_since(STAGE_QUEUE_WAIT, job.received);
    let slot = &job.slot;
    let req = match &job.kind {
        JobKind::Estimate(req) => req,
        JobKind::Feedback(fb) => {
            return Prepared::Ready(ingest_feedback(fb, slot, stats, sink, job.received));
        }
    };
    if req.shape.dim() != slot.root().dim() {
        return Prepared::Ready(error_response(
            stats,
            req.id,
            format!(
                "model \"{}\" is {}-dimensional, request is {}-dimensional",
                req.est,
                slot.root().dim(),
                req.shape.dim()
            ),
        ));
    }
    if let Shape::Rect { lo, hi } = &req.shape {
        if lo.iter().zip(hi).any(|(l, h)| l > h) {
            return Prepared::Ready(error_response(
                stats,
                req.id,
                "\"lo\" must be <= \"hi\" per dimension".into(),
            ));
        }
    }
    stats.count_shape(req.shape.kind());
    if config.deadline > Duration::ZERO && job.received.elapsed() > config.deadline {
        stats.deadline_expired.fetch_add(1, Ordering::Relaxed);
        return Prepared::Ready(degraded_response(
            req,
            slot.root(),
            DegradeReason::Deadline,
            job.received,
        ));
    }
    let (model, generation) = slot.get();
    let tenant = slot.tenant().id();
    // Borrowed probe: refill the scratch key in place and look up by
    // reference — a hit allocates nothing; only a miss that later inserts
    // clones the key. The shape discriminant joins the key so equal cell
    // vectors from different families can never alias.
    let key_ok = config.cache_capacity > 0
        && quantize_shape_key_into(slot.root(), &req.shape, CACHE_GRID, &mut scratch.cells);
    if key_ok {
        scratch.model = slot.id();
        scratch.generation = generation;
        scratch.shape = req.shape.kind().discriminant();
        if let Some(sel) = cache.get(tenant, scratch) {
            stats.cache_answers.fetch_add(1, Ordering::Relaxed);
            let us = micros_since(job.received);
            selearn_obs::histogram_record(STAGE_CACHE_HIT, us);
            return Prepared::Ready(Response::Estimate {
                id: req.id,
                est: req.est.clone(),
                sel,
                us,
                degraded: None,
                cached: true,
            });
        }
    }
    let range = match req.shape.to_range() {
        Ok(r) => r,
        Err(message) => return Prepared::Ready(error_response(stats, req.id, message)),
    };
    let lane = ranges.len();
    ranges.push(range);
    Prepared::Eval {
        id: req.id,
        est: req.est.clone(),
        model,
        cache_key: key_ok.then(|| scratch.clone()),
        tenant,
        lane,
    }
}

/// The feedback path, run inline on the worker: validate the box against
/// the model's data space, then hand it to the sink. The returned LSN is
/// a durability token — it is only ever sent after the sink's
/// log-before-observe append succeeded.
fn ingest_feedback(
    fb: &Feedback,
    slot: &ModelSlot,
    stats: &ServeStats,
    sink: Option<&Arc<dyn FeedbackSink>>,
    received: Instant,
) -> Response {
    let Some(sink) = sink else {
        return error_response(
            stats,
            fb.id,
            "feedback not enabled: start the server with --store-dir".into(),
        );
    };
    if fb.shape.dim() != slot.root().dim() {
        return error_response(
            stats,
            fb.id,
            format!(
                "model \"{}\" is {}-dimensional, feedback is {}-dimensional",
                fb.est,
                slot.root().dim(),
                fb.shape.dim()
            ),
        );
    }
    let range = match fb.shape.to_range() {
        Ok(r) => r,
        Err(message) => return error_response(stats, fb.id, format!("bad feedback: {message}")),
    };
    match sink.observe(TrainingQuery::new(range, fb.sel)) {
        Ok(ack) => {
            stats.feedback_acks.fetch_add(1, Ordering::Relaxed);
            record_since(STAGE_WAL_APPEND, received);
            Response::Ack {
                id: fb.id,
                lsn: ack.lsn,
                generation: ack.generation,
            }
        }
        Err(e) => error_response(stats, fb.id, format!("feedback rejected: {e}")),
    }
}

fn degraded_response(
    req: &Request,
    root: &Rect,
    reason: DegradeReason,
    received: Instant,
) -> Response {
    Response::Estimate {
        id: req.id,
        est: req.est.clone(),
        sel: shape_fallback(root, &req.shape),
        us: micros_since(received),
        degraded: Some(reason),
        cached: false,
    }
}

/// Quantizes any shape into the worker's scratch cell buffer, dispatching
/// to the per-family quantizer. Returns `false` (bypass the cache) on
/// dimension mismatches, non-finite parameters, or degenerate geometry.
fn quantize_shape_key_into(root: &Rect, shape: &Shape, grid: u32, out: &mut Vec<u32>) -> bool {
    match shape {
        Shape::Rect { lo, hi } => quantize_rect_key_into(root, lo, hi, grid, out),
        Shape::Halfspace { normal, offset } => {
            quantize_halfspace_key_into(root, normal, *offset, grid, out)
        }
        Shape::Ball { center, radius } => {
            quantize_ball_key_into(root, center, *radius, grid, out)
        }
    }
}

/// QMC sample count for the degraded ball fallback in d ≥ 3 (1D/2D are
/// computed deterministically in closed form / by quadrature). Small on
/// purpose: the degraded path trades accuracy for latency by design.
const FALLBACK_BALL_QMC_SAMPLES: usize = 512;

/// The uniform-distribution fallback answer for any shape: the fraction
/// of the model's data space covered by the query. Invalid geometry
/// (dimension mismatch, non-finite parameters, inverted boxes) answers
/// 0.0 — this runs on degraded paths that may precede validation.
fn shape_fallback(root: &Rect, shape: &Shape) -> f64 {
    if shape.dim() != root.dim() {
        return 0.0;
    }
    let root_vol = root.volume();
    match shape {
        Shape::Rect { lo, hi } => uniform_fallback(root, lo, hi),
        Shape::Halfspace { normal, offset } => {
            let Ok(h) = Halfspace::try_new(normal.clone(), *offset) else {
                return 0.0;
            };
            h.intersection_fraction(root).clamp(0.0, 1.0)
        }
        Shape::Ball { center, radius } => {
            let Ok(b) = Ball::try_new(Point::new(center.clone()), *radius) else {
                return 0.0;
            };
            if root_vol <= 0.0 {
                return 0.0;
            }
            let est = VolumeEstimator::qmc(FALLBACK_BALL_QMC_SAMPLES);
            (b.intersection_volume(root, &est) / root_vol).clamp(0.0, 1.0)
        }
    }
}

fn error_response(stats: &ServeStats, id: Option<u64>, message: String) -> Response {
    stats.errors.fetch_add(1, Ordering::Relaxed);
    Response::Error { id, message }
}

fn respond_error(
    writer: &ConnWriter,
    stats: &ServeStats,
    id: Option<u64>,
    message: &str,
    received: Instant,
) {
    respond(writer, stats, &error_response(stats, id, message.to_string()), received);
}

/// Serializes one response with its terminating newline.
fn response_line(response: &Response) -> String {
    let mut line = response.to_json();
    line.push('\n');
    line
}

/// Sends one answer with the accounting every response path shares. The
/// request is counted before its answer goes out, so a client holding all
/// its answers never reads a counter that trails them; the latency sample
/// still spans the send.
fn respond(writer: &ConnWriter, stats: &ServeStats, response: &Response, received: Instant) {
    stats.requests.fetch_add(1, Ordering::Relaxed);
    writer.send(response_line(response).as_bytes());
    record_since("serve.latency_us", received);
}

/// Microseconds since `received`, the clock of every `us` answer field
/// and every serve latency sample.
fn micros_since(received: Instant) -> f64 {
    received.elapsed().as_secs_f64() * 1e6
}

/// Records [`micros_since`] `received` into histogram `name`; reads no
/// clock while obs stats are off.
fn record_since(name: &str, received: Instant) {
    if selearn_obs::enabled() {
        selearn_obs::histogram_record(name, micros_since(received));
    }
}
