//! The daemon: acceptor, bounded queue, worker pool, and the
//! per-frame admission → degradation → serve state machine.
//!
//! ```text
//!            accept()        bounded sync_channel        worker pool
//!   client ──────────▶ acceptor ──try_send──▶ [queue] ──recv──▶ worker ──▶ Registry
//!                         │ Full                                  │
//!                         └──▶ 429 queue_full + close             └──▶ frames until EOF
//! ```
//!
//! Every admitted frame walks one state machine:
//!
//! 1. **Parse** — malformed JSON or an oversized frame is a `400`;
//!    nothing downstream sees it.
//! 2. **Rate** — the tenant's token bucket is charged one token per
//!    requested answer; a drained bucket is a retryable `429
//!    qps_exceeded` costing microseconds, not an `O(n²)` prepare.
//! 3. **Degrade** — if the frames in flight exceed the watermark, a
//!    full-matrix universe large enough to matter is transparently
//!    re-addressed in coreset mode (budget never below the frame's
//!    largest `k`): under pressure the daemon sheds *precision*
//!    (bounded, measured — see `divr_core::coreset`) instead of
//!    availability. The response carries `"degraded": true`.
//! 4. **Cache quota** — the universe's estimated prepared bytes are
//!    charged to the tenant's ledger; over-quota tenants get `429
//!    cache_quota` *before* preparation, so one tenant cannot evict
//!    the whole cache behind everyone else's back.
//! 5. **Serve** — `Registry::serve_mixed_checked` does the work under
//!    its per-universe / per-request fault isolation; a panicking
//!    oracle costs exactly the requests that touched it (`500
//!    worker_panicked`) and the daemon keeps serving.
//! 6. **Record** — the frame's latency lands in the per-objective
//!    log-bucketed histograms exported by `{"op": "stats"}`.
//!
//! The whole walk runs inside one `catch_unwind` per frame
//! (`handle_connection`): a handler that panics outside the registry's
//! own boundaries — `{"op": "mutate"}` repairing a warm universe with
//! a panicking oracle — answers a non-retryable `500 worker_panicked`
//! and the worker stays in the pool.

use crate::admission::{
    estimate_prepared_bytes, estimate_universe_bytes, Admission, AdmissionConfig, Rejection,
};
use crate::histogram::LatencyStats;
use crate::json::{object, Value};
use crate::proto::{
    is_retryable_code, serve_error_status, write_frame, FrameDecoder, FrameTooLarge, Step,
};
use crate::wire::{
    instance_from_json, objective_to_str, ratio_to_json, requests_from_json, tuple_from_json,
    Frame,
};
use divr_core::coreset::CORESET_AUTO_THRESHOLD;
use divr_core::engine::{solver_counters, spare_buffers, EngineRequest, ServeError};
use divr_core::problem::ObjectiveKind;
use divr_core::Deadline;
use divr_relquery::parser::parse_query;
use divr_server::{
    Durability, QueryError, QueryFrontDoor, QuerySpec, RecoverMode, Registry, RegistryConfig,
    TenantBatch,
};
use std::convert::identity;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything that sizes one service instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port — the form
    /// tests and benches use).
    pub addr: String,
    /// Connection workers: how many tenants' frames are decoded and
    /// served concurrently.
    pub workers: usize,
    /// Accepted connections that may wait for a worker before the
    /// acceptor starts answering `429 queue_full`.
    pub accept_backlog: usize,
    /// Largest request frame the reader will buffer.
    pub max_frame_bytes: usize,
    /// Frames in flight above which new full-matrix universes are
    /// served in coreset mode instead.
    pub degrade_watermark: usize,
    /// Coreset budget used when degrading (raised to the frame's
    /// largest `k` so degradation never makes a request infeasible).
    pub degrade_budget: usize,
    /// Universes smaller than this are never degraded (their full
    /// prepare is already cheap).
    pub degrade_min_n: usize,
    /// Deadline applied to `serve`/`query` frames that do not carry
    /// their own `deadline_ms`; `None` means such frames are unbounded
    /// (the historical behavior).
    pub default_deadline_ms: Option<u64>,
    /// A connection that delivers no bytes for this long is reaped (the
    /// slow-loris guard: a dribbling or abandoned socket cannot pin a
    /// worker forever).
    pub idle_timeout: Duration,
    /// Budget for writing one response frame to a slow-reading client
    /// before the connection is dropped.
    pub write_timeout: Duration,
    /// How long [`Service::shutdown`] waits for in-flight frames to
    /// finish before closing sockets.
    pub drain_grace: Duration,
    /// Per-tenant rate and cache quotas.
    pub admission: AdmissionConfig,
    /// Sizing for the underlying registry.
    pub registry: RegistryConfig,
    /// Data directory for crash-safe durability (checksummed snapshots
    /// plus a write-ahead log; see [`divr_server::Durability`]). `None`
    /// (the default) serves purely in memory, exactly as before.
    pub data_dir: Option<PathBuf>,
    /// How a restart rebuilds warm state from the data directory:
    /// [`RecoverMode::Eager`] pays the rebuilds up front so first
    /// requests hit; [`RecoverMode::Lazy`] re-registers databases only.
    pub recover_mode: RecoverMode,
    /// Background checkpoint cadence; `None` checkpoints only on
    /// graceful shutdown and explicit `{"op": "checkpoint"}` frames.
    pub checkpoint_interval: Option<Duration>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            accept_backlog: 64,
            max_frame_bytes: 8 << 20,
            degrade_watermark: 8,
            degrade_budget: 64,
            degrade_min_n: 512,
            default_deadline_ms: None,
            idle_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(5),
            drain_grace: Duration::from_secs(2),
            admission: AdmissionConfig::default(),
            registry: RegistryConfig::default(),
            data_dir: None,
            recover_mode: RecoverMode::Eager,
            checkpoint_interval: None,
        }
    }
}

struct Shared {
    registry: Arc<Registry>,
    /// The query-keyed serving surface (`{"op": "query"}`), sharing the
    /// same registry cache — and byte budget — as universe-keyed serves.
    front: QueryFrontDoor,
    /// The durability subsystem when a data directory is configured.
    durability: Option<Arc<Durability>>,
    admission: Admission,
    latency: LatencyStats,
    stop: AtomicBool,
    /// Draining: in-flight frames finish, new work frames get a
    /// retryable `503 draining` until the grace period closes sockets.
    draining: AtomicBool,
    /// Serve frames currently between admission and response.
    depth: AtomicUsize,
    frames: AtomicU64,
    rejected_queue: AtomicU64,
    degraded: AtomicU64,
    deadline_exceeded: AtomicU64,
    reaped_idle: AtomicU64,
    draining_refused: AtomicU64,
    /// As given to [`Service::start`], `degrade_budget` clamped to ≥ 1.
    config: ServiceConfig,
}

/// A running daemon: acceptor thread + worker pool over one shared
/// [`Registry`]. Dropping (or [`Service::shutdown`]) stops accepting,
/// drains the threads and joins them.
pub struct Service {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    checkpointer: Option<JoinHandle<()>>,
}

impl Service {
    /// Binds, spawns the pool, and returns once the socket is
    /// listening (a client may connect immediately).
    pub fn start(mut config: ServiceConfig) -> io::Result<Service> {
        config.degrade_budget = config.degrade_budget.max(1);
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = Arc::new(Registry::new(config.registry));
        let front = QueryFrontDoor::new(Arc::clone(&registry));
        // Durability bring-up order matters: replay the log into the
        // live structures FIRST, attach SECOND — so the replay, which
        // runs the serving hooks, journals nothing again.
        let durability = match &config.data_dir {
            Some(dir) => {
                let d = Durability::open(dir)?;
                d.recover(&registry, &front, config.recover_mode);
                registry.attach_durability(Arc::clone(&d));
                Some(d)
            }
            None => None,
        };
        let shared = Arc::new(Shared {
            front,
            registry,
            durability,
            admission: Admission::new(config.admission),
            latency: LatencyStats::new(),
            stop: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            depth: AtomicUsize::new(0),
            frames: AtomicU64::new(0),
            rejected_queue: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            reaped_idle: AtomicU64::new(0),
            draining_refused: AtomicU64::new(0),
            config,
        });
        let config = &shared.config;

        let (tx, rx) = sync_channel::<TcpStream>(config.accept_backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::spawn(move || worker_loop(&shared, &rx))
            })
            .collect();
        let acceptor = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    match tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(mut stream)) => {
                            // Backpressure: a typed, retryable
                            // rejection instead of an unbounded queue
                            // or a silently dropped connection.
                            shared.rejected_queue.fetch_add(1, Ordering::Relaxed);
                            let frame = rejection_frame(&Rejection::QueueFull);
                            let _ = write_frame(&mut stream, frame.to_json().as_bytes());
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
            })
        };

        // Periodic checkpointer: compacts the WAL into a snapshot on a
        // cadence so recovery replay stays short. Sleeps in small
        // slices to notice the stop flag promptly.
        let checkpointer = match (config.checkpoint_interval, &shared.durability) {
            (Some(interval), Some(d)) => {
                let d = Arc::clone(d);
                let shared = Arc::clone(&shared);
                Some(std::thread::spawn(move || {
                    let mut last = Instant::now();
                    while !shared.stop.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(25));
                        if last.elapsed() >= interval {
                            let _ = d.checkpoint(&shared.registry, &shared.front);
                            last = Instant::now();
                        }
                    }
                }))
            }
            _ => None,
        };

        Ok(Service {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
            checkpointer,
        })
    }

    /// The bound address (the ephemeral port when `addr` ended in
    /// `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: flips the daemon into draining (in-flight
    /// frames finish; new work frames get a retryable `503 draining`),
    /// waits up to the configured `drain_grace` for in-flight depth to
    /// reach zero, then stops accepting and joins every thread.
    ///
    /// Drop still runs the abrupt stop (no grace wait) so tests that
    /// just let a `Service` fall out of scope stay fast.
    pub fn shutdown(mut self) {
        self.begin_drain();
        let started = Instant::now();
        while self.shared.depth.load(Ordering::SeqCst) > 0
            && started.elapsed() < self.shared.config.drain_grace
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Snapshot-on-drain: with no frames in flight, one final
        // checkpoint captures the whole warm working set, so the
        // successor restarts 100% warm with zero WAL replay.
        if let Some(d) = &self.shared.durability {
            let _ = d.checkpoint(&self.shared.registry, &self.shared.front);
        }
        self.stop_and_join();
    }

    /// Enters the draining state without stopping: in-flight frames
    /// finish, new `serve`/`query` frames get `503 draining` (`ping`
    /// and `stats` still answer, so health checks can watch the drain).
    /// [`Service::shutdown`] calls this first; exposed so tests and
    /// operators can observe a drain in progress.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    fn stop_and_join(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the acceptor's accept() with a throwaway connection.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        // The acceptor owned the sender; workers drain Disconnected
        // (or hit their poll timeout and see the stop flag).
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.checkpointer.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        // Take the receiver lock only for the dequeue, never while
        // serving, so one long connection doesn't starve the pool of
        // its queue.
        let conn = {
            let guard = rx.lock().unwrap_or_else(|p| p.into_inner());
            guard.recv_timeout(Duration::from_millis(50))
        };
        match conn {
            Ok(stream) => handle_connection(shared, stream),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// The daemon's read policy over the one [`FrameDecoder`]: read
/// timeouts mid-frame lose nothing (partial bytes stay put), so the
/// worker can poll the stop flag between steps without ever losing
/// frame sync — and the connection is reaped once no byte has arrived
/// for the configured idle timeout, so a dribbling or abandoned socket
/// (a torn frame whose rest never comes, a slow-loris prefix) cannot
/// pin a worker forever.
struct FrameReader {
    decoder: FrameDecoder,
    last_byte_at: Instant,
}

impl FrameReader {
    fn new(max_frame_bytes: usize) -> FrameReader {
        FrameReader {
            decoder: FrameDecoder::new(max_frame_bytes),
            last_byte_at: Instant::now(),
        }
    }

    fn next(&mut self, stream: &mut TcpStream, shared: &Shared) -> io::Result<Option<Vec<u8>>> {
        loop {
            if shared.stop.load(Ordering::SeqCst) {
                return Ok(None);
            }
            if self.last_byte_at.elapsed() >= shared.config.idle_timeout {
                shared.reaped_idle.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
            match self.decoder.step(stream)? {
                Step::Frame(payload) => {
                    self.last_byte_at = Instant::now();
                    return Ok(Some(payload));
                }
                Step::Progress => self.last_byte_at = Instant::now(),
                Step::Idle => {}
                Step::Eof(_) => return Ok(None),
            }
        }
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    // Slow-reader guard: a client that stops draining its socket costs
    // at most one write timeout, not a wedged worker.
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let mut reader = FrameReader::new(shared.config.max_frame_bytes);
    loop {
        let payload = match reader.next(&mut stream, shared) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) => {
                if e.get_ref().is_some_and(|inner| inner.is::<FrameTooLarge>()) {
                    let frame = error_frame(400, "frame_too_large", &e.to_string());
                    let _ = write_frame(&mut stream, frame.to_json().as_bytes());
                }
                return;
            }
        };
        // The frame-level fault boundary (module docs): a handler
        // that panics costs this frame a typed 500 and nothing more —
        // the worker keeps its connection and its place in the pool,
        // and every lock the unwind poisoned recovers on its next use.
        let response = catch_unwind(AssertUnwindSafe(|| handle_frame(shared, payload)))
            .unwrap_or_else(|_| {
                error_frame(
                    500,
                    "worker_panicked",
                    "a fault while handling this frame was contained; \
                     an edit it carried may have been applied",
                )
            });
        if write_frame(&mut stream, response.to_json().as_bytes()).is_err() {
            return;
        }
    }
}

fn error_frame(code: u16, kind: &str, detail: &str) -> Value {
    object([
        ("ok", Value::Bool(false)),
        ("code", Value::Int(i64::from(code))),
        ("kind", Value::Str(kind.to_string())),
        ("detail", Value::Str(detail.to_string())),
        ("retryable", Value::Bool(is_retryable_code(code))),
    ])
}

/// An `error_frame` carrying the `retry_after_ms` hint a backing-off
/// client feeds straight into its sleep.
fn error_frame_with_hint(code: u16, kind: &str, detail: &str, retry_after_ms: u64) -> Value {
    let Value::Object(mut fields) = error_frame(code, kind, detail) else {
        unreachable!("error_frame always builds an object");
    };
    fields.push((
        "retry_after_ms".to_string(),
        counter(retry_after_ms),
    ));
    Value::Object(fields)
}

fn rejection_frame(rejection: &Rejection) -> Value {
    match rejection {
        Rejection::QpsExceeded { retry_after_ms } => {
            error_frame_with_hint(429, rejection.kind(), &rejection.to_string(), *retry_after_ms)
        }
        _ => error_frame(429, rejection.kind(), &rejection.to_string()),
    }
}

/// The `503 draining` a work frame gets once [`Service::begin_drain`]
/// has run: retryable, hinting the client to come back after the grace
/// window (when a replacement instance is expected to hold the port).
fn draining_frame(shared: &Shared) -> Value {
    shared.draining_refused.fetch_add(1, Ordering::Relaxed);
    error_frame_with_hint(
        503,
        "draining",
        "the daemon is draining for shutdown; retry against its successor",
        shared.config.drain_grace.as_millis().try_into().unwrap_or(u64::MAX),
    )
}

/// Resolves the deadline a work frame runs under: its own
/// `deadline_ms` when present (must be a positive integer), else the
/// service-wide default, else unbounded.
fn frame_deadline(shared: &Shared, doc: &Value) -> Result<Deadline, Value> {
    match doc.get("deadline_ms") {
        None => Ok(shared
            .config
            .default_deadline_ms
            .map_or(Deadline::none(), Deadline::in_ms)),
        Some(v) => match v.as_i64().and_then(|ms| u64::try_from(ms).ok()).filter(|&ms| ms > 0) {
            Some(ms) => Ok(Deadline::in_ms(ms)),
            None => Err(error_frame(
                400,
                "bad_request",
                "deadline_ms must be a positive integer",
            )),
        },
    }
}

fn handle_frame(shared: &Shared, payload: Vec<u8>) -> Value {
    shared.frames.fetch_add(1, Ordering::Relaxed);
    let read = std::str::from_utf8(&payload).map(str::parse::<Frame>);
    // The frame owns what it decoded: the payload is freed before
    // admission and the solve run.
    drop(payload);
    let frame = match read {
        Err(_) => return error_frame(400, "bad_request", "frame payload is not UTF-8"),
        Ok(Err(e)) => return error_frame(400, "bad_request", &format!("invalid JSON: {e}")),
        Ok(Ok(frame)) => frame,
    };
    match frame.members.get("op").and_then(Value::as_str) {
        Some("ping") => object([("ok", Value::Bool(true)), ("op", Value::Str("pong".into()))]),
        Some("stats") => stats_frame(shared),
        // Work frames are refused while draining; ping/stats above
        // still answer so health checks can watch the drain happen.
        // Checkpoint stays answerable while draining — it is how the
        // drain itself persists the warm set.
        Some("serve" | "query" | "mutate") if shared.draining.load(Ordering::SeqCst) => {
            draining_frame(shared)
        }
        Some("serve") => handle_serve(shared, frame).unwrap_or_else(|refusal| refusal),
        Some("query") => handle_query(shared, frame).unwrap_or_else(|refusal| refusal),
        Some("mutate") => handle_mutate(shared, &frame.members).unwrap_or_else(|refusal| refusal),
        Some("checkpoint") => handle_checkpoint(shared),
        Some(other) => error_frame(400, "bad_request", &format!("unknown op {other:?}")),
        None => error_frame(400, "bad_request", "frame needs a string \"op\""),
    }
}

/// A required member of a work frame, decoded — read from the frame's
/// members (`doc.get(name)`) or already decoded with the frame
/// (`identity`): absent is a `400 bad_request` saying `missing`,
/// malformed one carrying the decoder's message.
fn field<V, T>(
    member: Option<V>,
    missing: &str,
    decode: impl FnOnce(V) -> Result<T, String>,
) -> Result<T, Value> {
    let v = member.ok_or_else(|| error_frame(400, "bad_request", missing))?;
    decode(v).map_err(|e| error_frame(400, "bad_request", &e))
}

/// A work-frame handler's early exit: the refusal frame to send back.
type Handled = Result<Value, Value>;

fn handle_serve(shared: &Shared, frame: Frame) -> Handled {
    let Frame { members: doc, universe, .. } = frame;
    let doc = &doc;
    let Some(tenant) = doc.get("tenant").and_then(Value::as_str) else {
        return Err(error_frame(400, "bad_request", "serve needs a string \"tenant\""));
    };
    let requests = field(doc.get("requests"), "serve needs requests", requests_from_json)?;
    let mut spec = field(universe, "serve needs a universe", identity)?;
    let deadline = frame_deadline(shared, doc)?;

    // Rate gate: microseconds spent here guard O(n²) work behind it.
    shared
        .admission
        .admit_requests(tenant, requests.len() as f64)
        .map_err(|rejection| rejection_frame(&rejection))?;

    // In-flight gauge (this frame included) drives degradation.
    let depth = DepthGuard::enter(&shared.depth);
    let mut degraded = false;
    if depth.in_flight > shared.config.degrade_watermark
        && spec.coreset().is_none()
        && spec.n() >= shared.config.degrade_min_n
    {
        let max_k = requests.iter().map(|r| r.k).max().unwrap_or(0);
        let budget = shared.config.degrade_budget.max(max_k);
        spec = spec.with_coreset(divr_server::CoresetSpec::with_budget(budget));
        shared.degraded.fetch_add(1, Ordering::Relaxed);
        degraded = true;
    }

    // Cache-byte gate, after degradation so a degraded universe is
    // charged its (far smaller) coreset footprint.
    let estimate = estimate_universe_bytes(&spec);
    shared
        .admission
        .charge_universe(tenant, &spec.key(), estimate)
        .map_err(|rejection| rejection_frame(&rejection))?;

    let started = Instant::now();
    let mut results = shared.registry.serve_mixed_checked_deadline(
        &[TenantBatch {
            spec,
            requests: requests.clone(),
        }],
        deadline,
    );
    let elapsed = started.elapsed();
    drop(depth);
    Ok(reply(
        &shared.latency,
        &shared.deadline_exceeded,
        &requests,
        elapsed,
        results.pop().unwrap_or_default(),
        ("degraded", Value::Bool(degraded)),
    ))
}

/// The one reply tail of a work frame (`serve` and `query`): records
/// the frame's latency per requested objective, counts a frame any of
/// whose answers died at the deadline (once per frame), and encodes.
/// A batch whose every request died at the deadline becomes one
/// frame-level retryable 504 (what a retrying client keys off); a
/// partial trip keeps the per-answer error objects instead. `extra`
/// is the op's own member (`degraded` / `database`).
fn reply(
    latency: &LatencyStats,
    deadline_exceeded: &AtomicU64,
    requests: &[EngineRequest],
    elapsed: Duration,
    answers: Vec<divr_server::CheckedAnswer>,
    extra: (&'static str, Value),
) -> Value {
    for request in requests {
        latency.record(request.kind, elapsed);
    }
    let tripped = answers
        .iter()
        .filter(|a| matches!(a, Err(ServeError::DeadlineExceeded)))
        .count();
    if tripped > 0 {
        deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }
    if tripped == answers.len() && tripped > 0 {
        return error_frame(
            504,
            "deadline_exceeded",
            "the frame's deadline passed before the work finished; nothing was cached",
        );
    }
    object([
        ("ok", Value::Bool(true)),
        extra,
        ("answers", answers_json(answers)),
    ])
}

/// Encodes a batch of per-request outcomes: `{"ok", "value",
/// "indices"}` on success, a typed error object (the same shape as a
/// frame-level error) per failed request.
fn answers_json(answers: Vec<divr_server::CheckedAnswer>) -> Value {
    Value::Array(
        answers
            .into_iter()
            .map(|answer| match answer {
                Ok((value, indices)) => object([
                    ("ok", Value::Bool(true)),
                    ("value", ratio_to_json(value)),
                    (
                        "indices",
                        Value::Array(
                            indices
                                .into_iter()
                                .map(|i| Value::Int(i as i64))
                                .collect(),
                        ),
                    ),
                ]),
                Err(e) => {
                    let (kind, code) = serve_error_status(&e);
                    error_frame(code, kind, &e.to_string())
                }
            })
            .collect(),
    )
}

/// The `(kind, code)` a front-door refusal maps to on the wire:
/// schema-level query failures (unknown relation, arity mismatch,
/// unsafe query) are `422 schema_mismatch` — the frame was well-formed,
/// the query just doesn't fit the shipped database; `Q(D) = ∅` is a
/// typed `422 empty_result` (never a panic, at either layer); prepare
/// failures reuse the serve-error vocabulary.
fn query_error_frame(e: &QueryError) -> Value {
    match e {
        QueryError::Query(_) => error_frame(422, "schema_mismatch", &e.to_string()),
        QueryError::EmptyResult => error_frame(422, "empty_result", &e.to_string()),
        // The front door only sees databases this handler registered.
        QueryError::UnknownDatabase(_) => error_frame(500, "worker_panicked", &e.to_string()),
        QueryError::Serve(se) => {
            let (kind, code) = serve_error_status(se);
            error_frame(code, kind, &e.to_string())
        }
    }
}

/// `{"op": "query"}` — the relational front door on the wire: the frame
/// carries the *database and a conjunctive query over it* instead of a
/// materialized universe. The daemon evaluates `Q(D)` and serves
/// diversification over it through [`QueryFrontDoor`], so semantically
/// equivalent queries (variable renamings, reordered atoms, redundant
/// atoms) hit the same prepared universe.
///
/// Admission runs **before evaluation**: the rate gate is identical to
/// `serve`, and the cache-byte gate charges an estimate driven by the
/// evaluator's cardinality *bound* (a product of relation sizes — never
/// an underestimate), so a tenant cannot make the daemon evaluate a
/// huge join it has no quota to serve. The watermark degradation of the
/// `serve` path does not apply here; instead any result past
/// [`CORESET_AUTO_THRESHOLD`] auto-escalates to a selected coreset
/// (sized by `max_k`) inside the front door itself, which bounds
/// prepared bytes without a load signal.
fn handle_query(shared: &Shared, frame: Frame) -> Handled {
    let Frame { members: doc, database, .. } = frame;
    let doc = &doc;
    let Some(tenant) = doc.get("tenant").and_then(Value::as_str) else {
        return Err(error_frame(400, "bad_request", "query needs a string \"tenant\""));
    };
    let Some(text) = doc.get("query").and_then(Value::as_str) else {
        return Err(error_frame(400, "bad_request", "query needs a string \"query\""));
    };
    // Malformed query *text* is a 400 — the frame itself is broken.
    // Schema-level mismatches against the shipped database surface
    // later as 422s.
    let query = parse_query(text)
        .map_err(|e| error_frame(400, "bad_request", &format!("malformed query: {e}")))?;
    let (db_name, db) = field(database, "query needs a database", identity)?;
    let instance =
        instance_from_json(doc, "query").map_err(|e| error_frame(400, "bad_request", &e))?;
    let requests = field(doc.get("requests"), "query needs requests", requests_from_json)?;
    let deadline = frame_deadline(shared, doc)?;

    // Rate gate, same currency as `serve`: one token per answer.
    shared
        .admission
        .admit_requests(tenant, requests.len() as f64)
        .map_err(|rejection| rejection_frame(&rejection))?;

    // Schema pre-flight, before anything is charged or prepared: an
    // unknown relation or a wrong-arity atom is a 422 here, not an
    // unbounded cardinality estimate below.
    divr_relquery::check_schema(&db, &query)
        .map_err(|e| query_error_frame(&QueryError::Query(e)))?;

    // Cardinality bound *before* evaluation — a saturating product of
    // relation sizes, never an underestimate — drives the cache-byte
    // estimate below.
    let bound = divr_relquery::cardinality_bound(&db, &query);

    let mut spec =
        QuerySpec::from_instance(query, instance).map_err(|e| query_error_frame(&e))?;
    if let Some(k) = doc.get("max_k") {
        match k.as_i64().and_then(|k| usize::try_from(k).ok()).filter(|&k| k > 0) {
            Some(k) => spec = spec.with_max_k(k),
            None => {
                return Err(error_frame(400, "bad_request", "max_k must be a positive integer"))
            }
        }
    }

    let depth = DepthGuard::enter(&shared.depth);

    // Content-addressed registration is idempotent: a name collision
    // *is* a content match, so an already-registered database keeps its
    // warm query universes (and the edits acknowledged since) instead
    // of being dropped and re-registered.
    shared.front.ensure_database(&db_name, db);

    // Cache-byte gate. The bound is clamped before the quadratic
    // estimate (past the clamp the estimate already dwarfs any real
    // quota), and a bound past the auto-escalation threshold is charged
    // at the coreset footprint it will actually prepare.
    let n_bound = usize::try_from(bound).unwrap_or(usize::MAX).min(1 << 26);
    let budget = spec.instance().coreset().map(|mode| mode.budget).or_else(|| {
        (n_bound > CORESET_AUTO_THRESHOLD).then(|| spec.auto_budget())
    });
    let key = shared
        .front
        .key_for(&db_name, &spec)
        .map_err(|e| query_error_frame(&e))?;
    shared
        .admission
        .charge_universe(tenant, &key, estimate_prepared_bytes(n_bound, budget))
        .map_err(|rejection| rejection_frame(&rejection))?;

    let started = Instant::now();
    let answers = shared
        .front
        .serve_query_deadline(&db_name, &spec, &requests, deadline)
        .map_err(|e| {
            if matches!(e, QueryError::Serve(ServeError::DeadlineExceeded)) {
                shared.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            query_error_frame(&e)
        })?;
    let elapsed = started.elapsed();
    drop(depth);
    Ok(reply(
        &shared.latency,
        &shared.deadline_exceeded,
        &requests,
        elapsed,
        answers,
        ("database", Value::Str(db_name)),
    ))
}

/// `{"op": "mutate"}` — edits one base tuple of a registered database:
/// `"action": "insert"` routes through the front door's delta-prepare
/// path (affected warm universes repaired in `O(n)` per the paper's
/// dynamic setting), `"action": "remove"` through the deletion fan-out
/// (doomed tuples swap-removed from warm `Full` entries, other
/// derivations kept). With durability on, the edit is journaled to the
/// WAL *before* the in-memory mutation is acknowledged.
///
/// The repair runs the tenant's distance oracle under the front door's
/// write lock, outside the registry's fault boundaries; if it panics,
/// the frame boundary in `handle_connection` answers `500
/// worker_panicked`. By then the edit is journaled and applied (the
/// entries under repair just stay cold), so a retry answers
/// `changed: false`.
fn handle_mutate(shared: &Shared, doc: &Value) -> Handled {
    let text = |name: &str| {
        doc.get(name).and_then(Value::as_str).ok_or_else(|| {
            error_frame(400, "bad_request", &format!("mutate needs a string {name:?}"))
        })
    };
    let (tenant, db) = (text("tenant")?, text("database")?);
    let (relation, action) = (text("relation")?, text("action")?);
    let tuple = field(doc.get("tuple"), "mutate needs a tuple", tuple_from_json)?;
    // One token per mutation — the same rate currency as answers, so a
    // tenant cannot sidestep its QPS quota by hammering the write path.
    shared
        .admission
        .admit_requests(tenant, 1.0)
        .map_err(|rejection| rejection_frame(&rejection))?;
    let values = tuple.iter().cloned().collect();
    let outcome = match action {
        "insert" => shared.front.insert_base_tuple(db, relation, values),
        "remove" => shared.front.remove_base_tuple(db, relation, values),
        other => {
            return Err(error_frame(
                400,
                "bad_request",
                &format!("unknown action {other:?} (expected \"insert\" or \"remove\")"),
            ))
        }
    };
    match outcome {
        Ok(changed) => Ok(object([("ok", Value::Bool(true)), ("changed", Value::Bool(changed))])),
        // Unlike the query path (which registers databases itself), the
        // mutate frame names a database the client claims exists — an
        // unknown name is the client's schema error, not ours.
        Err(e @ QueryError::UnknownDatabase(_)) => {
            Err(error_frame(422, "unknown_database", &e.to_string()))
        }
        Err(e) => Err(query_error_frame(&e)),
    }
}

/// `{"op": "checkpoint"}` — forces a snapshot + WAL rotation now.
/// Answered even while draining (it is how operators persist the warm
/// set before taking an instance down by force).
fn handle_checkpoint(shared: &Shared) -> Value {
    let Some(d) = &shared.durability else {
        return error_frame(
            422,
            "durability_disabled",
            "no data directory configured; start the daemon with --data-dir",
        );
    };
    match d.checkpoint(&shared.registry, &shared.front) {
        Ok(report) => object([
            ("ok", Value::Bool(true)),
            ("snapshot_bytes", counter(report.snapshot_bytes)),
            ("records", counter(report.records as u64)),
            ("cut_seq", counter(report.cut_seq)),
        ]),
        Err(e) => error_frame(500, "io_error", &format!("checkpoint failed: {e}")),
    }
}

struct DepthGuard<'a> {
    depth: &'a AtomicUsize,
    in_flight: usize,
}

impl<'a> DepthGuard<'a> {
    fn enter(depth: &'a AtomicUsize) -> Self {
        let in_flight = depth.fetch_add(1, Ordering::SeqCst) + 1;
        DepthGuard { depth, in_flight }
    }
}

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.depth.fetch_sub(1, Ordering::SeqCst);
    }
}

fn counter(value: u64) -> Value {
    Value::Int(i64::try_from(value).unwrap_or(i64::MAX))
}

fn stats_frame(shared: &Shared) -> Value {
    let latency = Value::Object(
        ObjectiveKind::ALL
            .iter()
            .map(|&kind| {
                let h = shared.latency.of(kind);
                (
                    objective_to_str(kind).to_string(),
                    object([
                        ("count", counter(h.count())),
                        ("mean_us", counter(h.mean_us())),
                        ("p50_us", counter(h.quantile_us(0.50))),
                        ("p99_us", counter(h.quantile_us(0.99))),
                    ]),
                )
            })
            .collect(),
    );
    let (admitted, rejected_qps, rejected_cache) = shared.admission.counters();
    let (tenants, ledger_rows) = shared.admission.gauges();
    let cache = shared.registry.stats();
    let (parked_buffers, parked_bytes) = spare_buffers();
    let (ms_requests, ms_pops, ms_rescans) = solver_counters();
    let durability = match &shared.durability {
        None => object([("enabled", Value::Bool(false))]),
        Some(d) => {
            let s = d.stats();
            object([
                ("enabled", Value::Bool(true)),
                ("wal_records", counter(s.wal_records)),
                ("wal_syncs", counter(s.wal_syncs)),
                ("wal_io_errors", counter(s.wal_io_errors)),
                ("snapshots_written", counter(s.snapshots_written)),
                ("last_snapshot_bytes", counter(s.last_snapshot_bytes)),
                ("skipped_unpersistable", counter(s.skipped_unpersistable)),
                ("wal_records_replayed", counter(s.wal_records_replayed)),
                ("torn_tail_dropped", counter(s.torn_tail_dropped)),
                ("snapshots_discarded", counter(s.snapshots_discarded)),
                ("recovered_entries", counter(s.recovered_entries)),
                ("recovered_databases", counter(s.recovered_databases)),
            ])
        }
    };
    object([
        ("ok", Value::Bool(true)),
        (
            "stats",
            object([
                ("latency", latency),
                (
                    "admission",
                    object([
                        ("admitted", counter(admitted)),
                        ("rejected_qps", counter(rejected_qps)),
                        ("rejected_cache", counter(rejected_cache)),
                        (
                            "rejected_queue",
                            counter(shared.rejected_queue.load(Ordering::Relaxed)),
                        ),
                        ("degraded", counter(shared.degraded.load(Ordering::Relaxed))),
                        ("tenants", counter(tenants as u64)),
                        ("ledger_rows", counter(ledger_rows)),
                    ]),
                ),
                (
                    "cache",
                    object([
                        ("hits", counter(cache.hits)),
                        ("misses", counter(cache.misses)),
                        ("evictions", counter(cache.evictions)),
                        ("prepare_us", counter(cache.prepare_us)),
                        ("entries", counter(cache.entries as u64)),
                        ("bytes", counter(cache.bytes as u64)),
                        ("spare_buffers", counter(parked_buffers as u64)),
                        ("spare_bytes", counter(parked_bytes as u64)),
                    ]),
                ),
                (
                    "robustness",
                    object([
                        (
                            "deadline_exceeded",
                            counter(shared.deadline_exceeded.load(Ordering::Relaxed)),
                        ),
                        (
                            "reaped_idle",
                            counter(shared.reaped_idle.load(Ordering::Relaxed)),
                        ),
                        (
                            "draining_refused",
                            counter(shared.draining_refused.load(Ordering::Relaxed)),
                        ),
                        (
                            "draining",
                            Value::Bool(shared.draining.load(Ordering::SeqCst)),
                        ),
                    ]),
                ),
                ("durability", durability),
                // Process-wide, like the parked buffers: every engine
                // of the process counts into them.
                (
                    "solver",
                    object([
                        ("ms_requests", counter(ms_requests)),
                        ("ms_pops", counter(ms_pops)),
                        ("ms_rescans", counter(ms_rescans)),
                    ]),
                ),
                (
                    "depth",
                    counter(shared.depth.load(Ordering::SeqCst) as u64),
                ),
                ("frames", counter(shared.frames.load(Ordering::Relaxed))),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use divr_core::Ratio;

    /// The shared reply tail, for both ops: every answer tripped ⇒ one
    /// frame-level retryable 504; a partial trip keeps per-answer
    /// objects; either way the counter moves once per frame and the
    /// latency is recorded per requested objective.
    #[test]
    fn reply_tail_is_one_for_serve_and_query() {
        let requests = [
            EngineRequest { kind: ObjectiveKind::MaxSum, k: 2 },
            EngineRequest { kind: ObjectiveKind::MaxMin, k: 2 },
        ];
        let ok = || Ok((Ratio::ONE, vec![0, 1]));
        let tripped = || Err(ServeError::DeadlineExceeded);
        let extras = [
            ("degraded", Value::Bool(false)),
            ("database", Value::Str("db-0".into())),
        ];
        for extra in extras {
            let latency = LatencyStats::new();
            let counter = AtomicU64::new(0);
            let tail = |answers| {
                reply(&latency, &counter, &requests, Duration::from_micros(7), answers, extra.clone())
            };

            let frame = tail(vec![tripped(), tripped()]);
            assert_eq!(frame.get("ok"), Some(&Value::Bool(false)), "{}", extra.0);
            assert_eq!(frame.get("code"), Some(&Value::Int(504)));
            assert_eq!(frame.get("kind").and_then(Value::as_str), Some("deadline_exceeded"));
            assert_eq!(frame.get("retryable"), Some(&Value::Bool(true)));
            assert!(frame.get("answers").is_none());
            assert_eq!(counter.load(Ordering::Relaxed), 1, "once per frame, not per answer");

            let frame = tail(vec![ok(), tripped()]);
            assert_eq!(frame.get("ok"), Some(&Value::Bool(true)));
            assert_eq!(frame.get(extra.0), Some(&extra.1));
            let answers = frame.get("answers").and_then(Value::as_array).unwrap();
            assert_eq!(answers[0].get("ok"), Some(&Value::Bool(true)));
            assert_eq!(answers[1].get("code"), Some(&Value::Int(504)));
            assert_eq!(counter.load(Ordering::Relaxed), 2);

            let frame = tail(vec![ok(), ok()]);
            assert_eq!(frame.get("ok"), Some(&Value::Bool(true)));
            assert_eq!(counter.load(Ordering::Relaxed), 2, "no trip, no count");
            assert_eq!(latency.of(ObjectiveKind::MaxSum).count(), 3);
            assert_eq!(latency.of(ObjectiveKind::Mono).count(), 0);
        }
    }
}
