//! The closed loop: each client thread owns one connection and one
//! script, sends its next frame only after the previous reply has been
//! read and judged, and records what it saw.

use crate::gen::Frame;
use crate::plan::{Workload, COLD_CHECK_EVERY};
use crate::stats::Sample;
use crate::trace::{maybe_span, Clock, Span, Tracer};
use crate::wire::{self, Answer, Conn};
use divr_service::json::Value;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Whether a frame reads (`serve`/`query`) or writes (`mutate`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Read,
    Write,
}

/// What one client saw during one pass.
#[derive(Default)]
pub struct Record {
    pub reads: Vec<Sample>,
    pub writes: Vec<Sample>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    pub request_bytes: u64,
    pub response_bytes: u64,
}

impl Record {
    pub fn fail(&mut self, why: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    pub fn absorb(&mut self, other: Record) {
        self.reads.extend(other.reads);
        self.writes.extend(other.writes);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_failure = self.first_failure.take().or(other.first_failure);
        self.request_bytes += other.request_bytes;
        self.response_bytes += other.response_bytes;
    }
}

/// One pooled frame: the encoded bytes, which pool entry it addresses
/// (tenant rules key on it), the oracle's answers, and the reply the
/// daemon gave while warming (the traced run re-encodes it).
#[derive(Clone)]
pub struct PoolFrame {
    pub frame: Frame,
    pub entry: usize,
    pub expected: Arc<Vec<Answer>>,
    pub reply: Vec<u8>,
}

/// Tenant rotation, per workload. The daemon runs its *default*
/// admission — 500 answers/s, burst 100, and a 64 MB cache ledger per
/// tenant that is never refunded — and a refused frame is a failure,
/// so each rule keeps every tenant inside all three.
pub fn pool_tenant(workload: Workload, client: usize, op: u64, entry: usize) -> u64 {
    match workload {
        // 64 tenants share 8 × 0.4 MB universes: ledger 3 MB each, and
        // the frame rate spread over 64 buckets stays under 500/s.
        Workload::WarmSmall => (op + 32 * client as u64) % 64,
        // A 32 MB universe fills half a ledger: a tenant may only ever
        // name the two universes of its own pair.
        Workload::WarmLarge => (entry as u64 / 2) * 100 + op % 16,
        _ => op % 16,
    }
}

pub struct PoolScript {
    pub workload: Workload,
    pub client: usize,
    pub frames: Vec<PoolFrame>,
    pub op: u64,
    at: usize,
}

impl PoolScript {
    pub fn new(workload: Workload, client: usize, clients: usize, frames: Vec<PoolFrame>) -> Self {
        // Clients start at different points of the same cycle.
        let at = client * frames.len() / clients.max(1);
        PoolScript {
            workload,
            client,
            frames,
            op: 0,
            at,
        }
    }
}

/// Never-seen universes: each frame is sent once. The tenant changes
/// every 4 frames — an n=1000 universe charges 8 MB to a ledger that
/// holds 64.
pub struct ColdScript {
    pub client: usize,
    pub frames: Vec<Frame>,
    pub at: usize,
    /// Replies kept for the post-window oracle check: `(frame index,
    /// answers)` for every [`COLD_CHECK_EVERY`]-th frame.
    pub kept: Vec<(usize, Vec<Answer>)>,
}

/// One database a durable client owns.
pub struct DbSlot {
    pub index: usize,
    pub queries: [Frame; 2],
    pub insert: Frame,
    pub remove: Frame,
    pub expected: [Arc<Vec<Answer>>; 2],
    /// Whether the database currently holds its extra tuple.
    pub present: bool,
    /// Acknowledged mutations: every one re-keys the query's universe,
    /// and the re-keyed universe is charged to the ledger afresh, so
    /// the tenant is `(database, version)`.
    pub version: u64,
}

impl DbSlot {
    fn tenant(&self) -> u64 {
        self.index as u64 * 10_000_000 + self.version
    }
}

/// Every 10th frame mutates (insert and remove in turn), the rest
/// query, alternating two equivalent spellings. A client only touches
/// its own databases, so each database sees one serial history and
/// every reply has exactly one right answer.
pub struct DurableScript {
    pub slots: Vec<DbSlot>,
    op: u64,
    queries: usize,
    mutations: usize,
    current: (usize, Op),
}

impl DurableScript {
    pub fn new(slots: Vec<DbSlot>) -> Self {
        DurableScript {
            slots,
            op: 0,
            queries: 0,
            mutations: 0,
            current: (0, Op::Read),
        }
    }

    /// Positions the script on the next mutation of its next database
    /// (the restart cycles send mutations only).
    pub fn next_mutation(&mut self) -> &Frame {
        let slot = self.mutations % self.slots.len();
        self.mutations += 1;
        self.current = (slot, Op::Write);
        let s = &mut self.slots[slot];
        let tenant = s.tenant();
        let frame = if s.present {
            &mut s.remove
        } else {
            &mut s.insert
        };
        frame.set_tenant(tenant);
        frame
    }
}

pub enum Script {
    Pool(PoolScript),
    Cold(ColdScript),
    Durable(DurableScript),
}

impl Script {
    /// Patches and returns the next frame, or `None` when the script
    /// has nothing left that the daemon has not seen.
    fn next(&mut self) -> Option<(&Frame, Op)> {
        match self {
            Script::Pool(s) => {
                s.at = (s.at + 1) % s.frames.len();
                s.op += 1;
                let f = &mut s.frames[s.at];
                f.frame
                    .set_tenant(pool_tenant(s.workload, s.client, s.op, f.entry));
                Some((&f.frame, Op::Read))
            }
            Script::Cold(s) => {
                let tenant = (s.client as u64) * 100_000_000 + (s.at / 4) as u64;
                let f = s.frames.get_mut(s.at)?;
                s.at += 1;
                f.set_tenant(tenant);
                Some((f, Op::Read))
            }
            Script::Durable(s) => {
                s.op += 1;
                if s.op % 10 == 0 {
                    return Some((s.next_mutation(), Op::Write));
                }
                let slot = s.queries % s.slots.len();
                let spelling = (s.queries / s.slots.len()) % 2;
                s.queries += 1;
                s.current = (slot, Op::Read);
                let db = &mut s.slots[slot];
                let tenant = db.tenant();
                db.queries[spelling].set_tenant(tenant);
                Some((&db.queries[spelling], Op::Read))
            }
        }
    }

    /// Judges the reply to the frame `next` last returned.
    pub fn judge(&mut self, reply: &Value) -> Result<(), String> {
        let describe = |reply: &Value| {
            let mut text = reply.to_json();
            text.truncate(200);
            text
        };
        let expect = |expected: &[Answer]| match wire::answers(reply) {
            Some(got) if got == expected => Ok(()),
            Some(_) => Err("answer differs from the oracle".to_string()),
            None => Err(format!("not ok: {}", describe(reply))),
        };
        match self {
            Script::Pool(s) => expect(&s.frames[s.at].expected),
            Script::Cold(s) => {
                let answers =
                    wire::answers(reply).ok_or_else(|| format!("not ok: {}", describe(reply)))?;
                let index = s.at - 1;
                if index % COLD_CHECK_EVERY == 0 {
                    s.kept.push((index, answers));
                }
                Ok(())
            }
            Script::Durable(s) => {
                let (slot, op) = s.current;
                let db = &mut s.slots[slot];
                match op {
                    Op::Read => expect(&db.expected[usize::from(db.present)]),
                    Op::Write => {
                        let changed = reply.get("changed").and_then(Value::as_bool);
                        if wire::is_ok(reply) && changed == Some(true) {
                            db.present = !db.present;
                            db.version += 1;
                            Ok(())
                        } else {
                            Err(format!("mutation not applied: {}", describe(reply)))
                        }
                    }
                }
            }
        }
    }
}

/// Sends one frame and judges its reply outside any window (warming,
/// restart checks). Returns the reply for callers that need more of it.
pub fn exchange(conn: &mut Conn, frame: &Frame, record: &mut Record) -> Option<Value> {
    record.attempted += 1;
    match conn.call(frame.wire()) {
        Ok(reply) => Some(reply),
        Err(e) => {
            record.fail(|| format!("transport: {e}"));
            None
        }
    }
}

/// Drives `script` over `conn` in a closed loop from `start` until
/// `window` has passed. With a tracer, each frame is a `client.frame`
/// span with `client.send`, `client.wait` and `client.recv_parse`
/// children.
pub fn drive(
    conn: &mut Conn,
    script: &mut Script,
    start: Instant,
    window: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Record {
    let mut record = Record::default();
    while Instant::now() < start {
        std::hint::spin_loop();
    }
    let mut frame_id = 0u32;
    while start.elapsed() < window {
        let Some((frame, op)) = script.next() else {
            break;
        };
        record.attempted += 1;
        record.request_bytes += frame.payload().len() as u64;
        let sent_at = Instant::now();
        let root = tracer
            .as_deref_mut()
            .map(|t| t.enter("client.frame", frame_id));
        let outcome = (|| {
            maybe_span(&mut tracer, "client.send", frame_id, || {
                conn.send(frame.wire())
            })?;
            let payload = maybe_span(&mut tracer, "client.wait", frame_id, || conn.recv())?;
            let answered_at = Instant::now();
            record.response_bytes += payload.len() as u64;
            let reply = maybe_span(&mut tracer, "client.recv_parse", frame_id, || {
                wire::parse(payload)
            })?;
            Ok::<_, std::io::Error>((reply, answered_at))
        })();
        if let (Some(t), Some(root)) = (tracer.as_deref_mut(), root) {
            t.exit(root);
        }
        frame_id += 1;
        let (reply, answered_at) = match outcome {
            Ok(pair) => pair,
            Err(e) => {
                // The connection is gone; this client is done.
                record.fail(|| format!("transport: {e}"));
                break;
            }
        };
        let sample = Sample {
            done_ns: answered_at.duration_since(start).as_nanos() as u64,
            latency_ns: answered_at.duration_since(sent_at).as_nanos() as u64,
        };
        match script.judge(&reply) {
            Ok(()) => match op {
                Op::Read => record.reads.push(sample),
                Op::Write => record.writes.push(sample),
            },
            Err(why) => record.fail(|| why),
        }
    }
    record
}

/// One pass of every client over its own connection, all starting at
/// the same instant. Returns the merged record and, when tracing, the
/// client spans.
pub fn pass(
    conns: &mut [Conn],
    scripts: &mut [Script],
    window: Duration,
    clock: Option<&Clock>,
) -> (Record, Vec<Span>) {
    let start = Instant::now() + Duration::from_millis(2);
    let results: Vec<(Record, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(scripts.iter_mut())
            .map(|(conn, script)| {
                scope.spawn(move || {
                    let mut tracer = clock.map(Clock::tracer);
                    let record = drive(conn, script, start, window, tracer.as_mut());
                    (record, tracer.map(Tracer::into_spans).unwrap_or_default())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let mut record = Record::default();
    let mut spans = Vec::new();
    for (r, s) in results {
        record.absorb(r);
        spans.extend(s);
    }
    (record, spans)
}
