//! One workload, start to finish: set up (spawn, generate, encode,
//! warm), warm up, measure, check — and, for a traced run, the
//! shortened wire passes plus the in-process layer replay.

use crate::daemon::Daemon;
use crate::gen::{self, Frame};
use crate::layers::{self, DbFrames, ReplayFrame, Replayed};
use crate::load::{
    self, pool_tenant, ColdScript, DbSlot, DurableScript, PoolFrame, PoolScript, Record, Script,
};
use crate::plan::{
    self, Plan, Workload, COLD_CHECK_EVERY, COLD_REPLAY_BASE, COLD_REQUESTS, DURABLE_K,
};
use crate::stats::{self, Windowed};
use crate::trace::{self, Clock, Span};
use crate::wire::{self, Conn, DaemonStats};
use divr_service::json::Value;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub struct Config {
    /// The stock daemon binary.
    pub divrd: PathBuf,
    /// Where results, traces and data directories go.
    pub out: PathBuf,
    /// Client threads = connections = daemon workers.
    pub clients: usize,
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Checkpoint → 512 mutations → SIGKILL → restart cycles.
    pub restarts: usize,
}

/// What one run of one workload produced.
pub struct Outcome {
    pub workload: Workload,
    pub traced: bool,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other notes printed beside the metrics.
    pub notes: BTreeMap<&'static str, String>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Why the run is not a number (a refused frame, an eviction in a
    /// resident pool, a window too thin for its quantiles).
    pub unresolved: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.unresolved.is_empty()
    }
}

const SLICES: usize = 6;
const MUTATIONS_PER_CYCLE: usize = 512;
const MUTATE_REPLY: &[u8] = br#"{"ok":true,"changed":true}"#;

/// A live daemon with its clients connected and their scripts ready.
struct Live {
    daemon: Daemon,
    conns: Vec<Conn>,
    scripts: Vec<Script>,
    data_dir: Option<PathBuf>,
    /// A `cold_churn` reply, for the replay's `json.encode`.
    sample_reply: Vec<u8>,
}

impl Live {
    fn teardown(mut self) {
        self.conns.clear();
        self.daemon.kill();
        if let Some(dir) = self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn stats(&mut self) -> io::Result<DaemonStats> {
        Ok(DaemonStats::of(
            &self.conns[0].call(gen::op_frame("stats").wire())?,
        ))
    }
}

fn connect_all(daemon: &Daemon, clients: usize) -> io::Result<Vec<Conn>> {
    (0..clients).map(|_| Conn::connect(daemon.addr)).collect()
}

fn fresh_dir(out: &Path, tag: &str) -> io::Result<PathBuf> {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = out.join(format!(
        "{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn expect_answers(reply: Option<Value>, expected: &[wire::Answer], record: &mut Record) {
    if let Some(reply) = reply {
        match wire::answers(&reply) {
            Some(got) if got == expected => {}
            Some(_) => record.fail(|| "warm answer differs from the oracle".into()),
            None => record.fail(|| format!("warm frame not ok: {}", reply.to_json())),
        }
    }
}

/// Set-up: spawn → pool generated, frames encoded, caches warm.
/// `budget_s` is how long the scripts must be able to run without
/// repeating a `cold_churn` universe.
fn setup(
    workload: Workload,
    plan: &Plan,
    cfg: &Config,
    budget_s: f64,
    tally: &mut Record,
) -> io::Result<Live> {
    let data_dir = match workload {
        Workload::DurableMixed => Some(fresh_dir(&cfg.out, "data")?),
        _ => None,
    };
    let daemon = Daemon::spawn(&cfg.divrd, cfg.clients, data_dir.as_deref())?;
    let mut conns = connect_all(&daemon, cfg.clients)?;
    let clients = cfg.clients;
    let mut sample_reply = Vec::new();
    let scripts = match plan {
        Plan::Pool(entries) => {
            let mut frames = Vec::new();
            for (e, entry) in entries.iter().enumerate() {
                for (requests, expected) in &entry.variants {
                    frames.push(PoolFrame {
                        frame: gen::serve_frame(&entry.rows, entry.coreset, requests),
                        entry: e,
                        expected: expected.clone(),
                        reply: Vec::new(),
                    });
                }
            }
            for (i, f) in frames.iter_mut().enumerate() {
                f.frame
                    .set_tenant(pool_tenant(workload, 0, i as u64, f.entry));
                let reply = load::exchange(&mut conns[i % clients], &f.frame, tally);
                f.reply = reply
                    .as_ref()
                    .map(|r| r.to_json().into_bytes())
                    .unwrap_or_default();
                expect_answers(reply, &f.expected, tally);
            }
            (0..clients)
                .map(|c| Script::Pool(PoolScript::new(workload, c, clients, frames.clone())))
                .collect()
        }
        Plan::Cold { seed } => {
            // Nothing to warm; a few frames on one connection size the
            // per-client supply instead (1.5× what the budget can use).
            const PROBES: usize = 8;
            let started = Instant::now();
            for i in 0..PROBES {
                let rows = plan::cold_rows(*seed, clients, i);
                let mut frame = gen::serve_frame(&rows, None, &COLD_REQUESTS);
                frame.set_tenant(900_000_000 + (i / 4) as u64);
                if let Some(reply) = load::exchange(&mut conns[0], &frame, tally) {
                    if wire::answers(&reply).is_none() {
                        tally.fail(|| format!("probe frame not ok: {}", reply.to_json()));
                    }
                    sample_reply = reply.to_json().into_bytes();
                }
            }
            let per_frame = started.elapsed().as_secs_f64() / PROBES as f64;
            let supply = (1.5 * budget_s / per_frame.max(1e-4)).ceil() as usize + 64;
            (0..clients)
                .map(|c| {
                    Script::Cold(ColdScript {
                        client: c,
                        frames: (0..supply)
                            .map(|j| {
                                gen::serve_frame(
                                    &plan::cold_rows(*seed, c, j),
                                    None,
                                    &COLD_REQUESTS,
                                )
                            })
                            .collect(),
                        at: 0,
                        kept: Vec::new(),
                    })
                })
                .collect()
        }
        Plan::Durable(dbs) => {
            let mut slots: Vec<Vec<DbSlot>> = (0..clients).map(|_| Vec::new()).collect();
            for (d, db) in dbs.iter().enumerate() {
                let mut queries = gen::SPELLINGS
                    .map(|text| gen::query_frame(&db.rows, text, &plan::both(DURABLE_K)));
                let conn = &mut conns[d % clients];
                let mut name = String::new();
                for q in &mut queries {
                    q.set_tenant(d as u64 * 10_000_000);
                    let reply = load::exchange(conn, q, tally);
                    if let Some(n) = reply.as_ref().and_then(|r| r.get("database")) {
                        name = n.as_str().unwrap_or_default().to_string();
                    }
                    if sample_reply.is_empty() {
                        sample_reply = reply
                            .as_ref()
                            .map(|r| r.to_json().into_bytes())
                            .unwrap_or_default();
                    }
                    expect_answers(reply, &db.expected[0], tally);
                }
                slots[d % clients].push(DbSlot {
                    index: d,
                    queries,
                    insert: gen::mutate_frame(&name, "insert", db.extra),
                    remove: gen::mutate_frame(&name, "remove", db.extra),
                    expected: db.expected.clone(),
                    present: false,
                    version: 0,
                });
            }
            slots
                .into_iter()
                .map(|s| Script::Durable(DurableScript::new(s)))
                .collect()
        }
    };
    Ok(Live {
        daemon,
        conns,
        scripts,
        data_dir,
        sample_reply,
    })
}

/// Untimed warm-up before a window of `seconds`: 3 s before a full
/// one (`cold_churn`'s daemon takes about that long to stop growing),
/// a fifth of a shorter one.
fn warmup_of(seconds: f64) -> f64 {
    (seconds / 5.0).min(3.0)
}

/// A pass of `seconds`, its failures and attempts folded into `tally`.
fn timed_pass(
    live: &mut Live,
    seconds: f64,
    clock: Option<&Clock>,
    tally: &mut Record,
) -> (Record, Vec<Span>) {
    let window = Duration::from_secs_f64(seconds);
    let (record, spans) = load::pass(&mut live.conns, &mut live.scripts, window, clock);
    tally.attempted += record.attempted;
    tally.failed += record.failed;
    if tally.first_failure.is_none() {
        tally.first_failure = record.first_failure.clone();
    }
    (record, spans)
}

/// Correct frames, reads and writes, completed inside the window.
fn completed_within(record: &Record, seconds: f64) -> usize {
    let window_ns = (seconds * 1e9) as u64;
    record
        .reads
        .iter()
        .chain(&record.writes)
        .filter(|s| s.done_ns < window_ns)
        .count()
}

fn quantile_us(
    samples: &[stats::Sample],
    seconds: f64,
    q: f64,
    what: &str,
    unresolved: &mut Vec<String>,
) -> (f64, String) {
    let window_ns = (seconds * 1e9) as u64;
    match stats::windowed_quantile(samples, window_ns, SLICES, q) {
        Some(Windowed {
            value_ns,
            samples,
            min_slice,
        }) => (
            value_ns / 1e3,
            format!("{samples} samples, >= {min_slice} per 1/{SLICES} window"),
        ),
        None => {
            unresolved.push(format!("{what}: a 1/{SLICES} window held no sample"));
            (0.0, "no samples".into())
        }
    }
}

/// `cold_churn` after the window: every kept reply against an oracle
/// that prepares the same universe in-process.
fn verify_cold(seed: u64, scripts: &[Script], tally: &mut Record) {
    let kept: Vec<(usize, usize, &Vec<wire::Answer>)> = scripts
        .iter()
        .filter_map(|s| match s {
            Script::Cold(s) => Some(s),
            _ => None,
        })
        .flat_map(|s| {
            s.kept
                .iter()
                .map(move |(index, got)| (s.client, *index, got))
        })
        .collect();
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wrong: usize = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes)
            .map(|lane| {
                let kept = &kept;
                scope.spawn(move || {
                    kept.iter()
                        .skip(lane)
                        .step_by(lanes)
                        .filter(|(client, index, got)| {
                            let rows = plan::cold_rows(seed, *client, *index);
                            layers::oracle_cold(&rows, &COLD_REQUESTS) != **got
                        })
                        .count()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("oracle lane panicked"))
            .sum()
    });
    for _ in 0..wrong {
        tally.fail(|| {
            format!("a cold answer differs from the oracle (1 in {COLD_CHECK_EVERY} checked)")
        });
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.metadata()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// What the restart cycles measured, one value per cycle.
#[derive(Default)]
struct Restarts {
    ready_ms: Vec<f64>,
    checkpoint_ms: Vec<f64>,
    snapshot_bytes: Vec<f64>,
    wal_bytes_per_mutation: Vec<f64>,
    replayed_records: Vec<f64>,
    recovered_entries: Vec<f64>,
    /// A copy of the data directory as the first `SIGKILL` left it.
    crashed_copy: Option<PathBuf>,
}

/// `checkpoint`, exactly 512 more mutations, `SIGKILL`, restart on the
/// same directory, one correct answer per database — `cycles` times.
/// `SIGKILL` keeps the OS page cache, so this checks replay, not
/// fsync. With `keep_copy`, the first crashed directory is copied for
/// the in-process recovery timing.
fn restart_cycles(
    live: &mut Live,
    cfg: &Config,
    cycles: usize,
    keep_copy: bool,
    tally: &mut Record,
) -> io::Result<Restarts> {
    let mut out = Restarts::default();
    let data_dir = live
        .data_dir
        .clone()
        .expect("durable_mixed has a data directory");
    let clients = live.conns.len();
    for cycle in 0..cycles {
        let started = Instant::now();
        let reply = live.conns[0].call(gen::op_frame("checkpoint").wire())?;
        out.checkpoint_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        tally.attempted += 1;
        if !wire::is_ok(&reply) {
            tally.fail(|| format!("checkpoint refused: {}", reply.to_json()));
        }
        let snapshot = reply
            .get("snapshot_bytes")
            .and_then(Value::as_i64)
            .unwrap_or(0);
        out.snapshot_bytes.push(snapshot as f64);

        let before = dir_bytes(&data_dir);
        for i in 0..MUTATIONS_PER_CYCLE {
            let c = i % clients;
            let Script::Durable(script) = &mut live.scripts[c] else {
                unreachable!("durable_mixed scripts are durable");
            };
            let frame = script.next_mutation().clone();
            if let Some(reply) = load::exchange(&mut live.conns[c], &frame, tally) {
                if let Err(why) = live.scripts[c].judge(&reply) {
                    tally.fail(|| why);
                }
            }
        }
        let grown = dir_bytes(&data_dir).saturating_sub(before);
        out.wal_bytes_per_mutation
            .push(grown as f64 / MUTATIONS_PER_CYCLE as f64);

        // Crash: no drain, no final checkpoint.
        live.conns.clear();
        live.daemon.kill();
        if keep_copy && cycle == 0 {
            let copy = fresh_dir(&cfg.out, "crashed")?;
            copy_dir(&data_dir, &copy)?;
            out.crashed_copy = Some(copy);
        }

        let respawned = Instant::now();
        live.daemon = Daemon::spawn(&cfg.divrd, cfg.clients, Some(&data_dir))?;
        live.conns = connect_all(&live.daemon, clients)?;
        for c in 0..clients {
            let Script::Durable(script) = &mut live.scripts[c] else {
                unreachable!("durable_mixed scripts are durable");
            };
            for db in &mut script.slots {
                let tenant = db.index as u64 * 10_000_000 + 9_000_000 + cycle as u64;
                db.queries[0].set_tenant(tenant);
                let reply = load::exchange(&mut live.conns[c], &db.queries[0], tally);
                // An acknowledged mutation missing after the restart
                // shows here as the other state's answers.
                expect_answers(reply, &db.expected[usize::from(db.present)], tally);
            }
        }
        out.ready_ms.push(respawned.elapsed().as_secs_f64() * 1e3);
        let after = live.stats()?;
        out.replayed_records.push(after.replayed_records as f64);
        out.recovered_entries.push(after.recovered_entries as f64);
    }
    Ok(out)
}

fn median_of(values: &[f64]) -> f64 {
    stats::median(&mut values.to_vec()).unwrap_or(0.0)
}

/// The end-to-end run: tracing off, every end-to-end metric.
pub fn run_e2e(workload: Workload, cfg: &Config) -> io::Result<Outcome> {
    let plan = Plan::draw(workload, cfg.seed);
    let warmup = warmup_of(cfg.seconds);
    let mut tally = Record::default();
    let mut unresolved = Vec::new();

    // `cfg.setups` set-ups at least; cheap ones repeat for 2.5 s in
    // all — a 20 ms set-up is mostly process spawn and wake-up
    // latency, and its median must outlast the host's slow spells,
    // which take a second or more.
    let mut setup_s = Vec::new();
    let mut live: Option<Live> = None;
    while setup_s.len() < cfg.setups.max(1) || (cfg.setups > 1 && setup_s.iter().sum::<f64>() < 2.5)
    {
        if let Some(old) = live.take() {
            old.teardown();
        }
        let started = Instant::now();
        live = Some(setup(
            workload,
            &plan,
            cfg,
            warmup + cfg.seconds,
            &mut tally,
        )?);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let mut live = live.expect("at least one set-up ran");

    timed_pass(&mut live, warmup, None, &mut tally);
    let before = live.stats()?;
    let (record, _) = timed_pass(&mut live, cfg.seconds, None, &mut tally);
    let delta = live.stats()?.since(&before);
    let rss_peak_mb = live.daemon.rss_peak_mb().unwrap_or(0.0);

    let completed = completed_within(&record, cfg.seconds);
    let mut metrics = BTreeMap::new();
    let mut notes = BTreeMap::new();
    metrics.insert("setup_s", median_of(&setup_s));
    notes.insert("setup_s", format!("median of {} set-ups", setup_s.len()));
    metrics.insert("frames_per_s", completed as f64 / cfg.seconds);
    notes.insert(
        "frames_per_s",
        format!("{completed} frames in {} s", cfg.seconds),
    );
    for (name, q) in [("frame_p50_us", 0.50), ("frame_p99_us", 0.99)] {
        let (value, note) = quantile_us(&record.reads, cfg.seconds, q, name, &mut unresolved);
        metrics.insert(name, value);
        notes.insert(name, note);
    }
    metrics.insert("rss_peak_mb", rss_peak_mb);
    resolve(workload, &delta, &mut unresolved);

    if let Plan::Cold { seed } = plan {
        verify_cold(seed, &live.scripts, &mut tally);
    }
    if workload == Workload::DurableMixed {
        for (name, q) in [("mutate_p50_us", 0.50), ("mutate_p99_us", 0.99)] {
            let (value, note) = quantile_us(&record.writes, cfg.seconds, q, name, &mut unresolved);
            metrics.insert(name, value);
            notes.insert(name, note);
        }
        let restarts = restart_cycles(&mut live, cfg, cfg.restarts, false, &mut tally)?;
        metrics.insert("restart_ready_ms", median_of(&restarts.ready_ms));
        notes.insert(
            "restart_ready_ms",
            format!("median of {} restarts", restarts.ready_ms.len()),
        );
    }
    live.teardown();
    // Last: the restart checks count in it.
    metrics.insert(
        "failed_share",
        tally.failed as f64 / tally.attempted.max(1) as f64,
    );
    notes.insert(
        "failed_share",
        format!("{} failed of {} attempted", tally.failed, tally.attempted),
    );

    Ok(Outcome {
        workload,
        traced: false,
        metrics,
        notes,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        unresolved,
    })
}

/// The admission-hygiene assertions: a run that refused or degraded a
/// frame, or lost a resident entry, measured something else.
fn resolve(workload: Workload, delta: &DaemonStats, unresolved: &mut Vec<String>) {
    if delta.rejected > 0 {
        unresolved.push(format!(
            "admission refused {} frames in the window",
            delta.rejected
        ));
    }
    if delta.degraded > 0 {
        unresolved.push(format!(
            "{} frames were degraded to coreset mode",
            delta.degraded
        ));
    }
    if workload != Workload::ColdChurn && delta.evictions > 0 {
        unresolved.push(format!(
            "{} evictions in a resident working set",
            delta.evictions
        ));
    }
    let pooled = !matches!(workload, Workload::ColdChurn | Workload::DurableMixed);
    if pooled && delta.misses > 0 {
        unresolved.push(format!("{} cache misses in a resident pool", delta.misses));
    }
    if delta.wal_io_errors > 0 {
        unresolved.push(format!("{} WAL appends failed", delta.wal_io_errors));
    }
}

/// The frames a replay walks, owned so they outlive the daemon.
enum ReplayInput {
    Serve {
        warm: Vec<(Frame, Vec<u8>)>,
        frames: Vec<(Frame, Vec<u8>)>,
    },
    Durable(Vec<(Vec<Frame>, Vec<Frame>, Vec<u8>)>),
}

const REPLAY_FRAMES: usize = 200;
const COLD_REPLAY_FRAMES: usize = 48;

fn replay_input(workload: Workload, plan: &Plan, live: &Live, clients: usize) -> ReplayInput {
    match (&live.scripts[0], plan) {
        (Script::Pool(script), _) => {
            let pool = &script.frames;
            let patched = |i: usize| {
                let f = &pool[i % pool.len()];
                let mut frame = f.frame.clone();
                frame.set_tenant(pool_tenant(workload, 0, i as u64, f.entry));
                (frame, f.reply.clone())
            };
            // The first frame of each entry makes it resident.
            let firsts: Vec<usize> = (0..pool.len())
                .filter(|&i| i == 0 || pool[i].entry != pool[i - 1].entry)
                .collect();
            ReplayInput::Serve {
                warm: firsts.into_iter().map(patched).collect(),
                frames: (0..REPLAY_FRAMES.next_multiple_of(pool.len()))
                    .map(patched)
                    .collect(),
            }
        }
        (Script::Cold(_), Plan::Cold { seed }) => ReplayInput::Serve {
            warm: Vec::new(),
            frames: (0..COLD_REPLAY_FRAMES)
                .map(|i| {
                    let rows = plan::cold_rows(*seed, clients, COLD_REPLAY_BASE + i);
                    let mut frame = gen::serve_frame(&rows, None, &COLD_REQUESTS);
                    frame.set_tenant(800_000_000 + (i / 4) as u64);
                    (frame, live.sample_reply.clone())
                })
                .collect(),
        },
        _ => {
            let slots = live.scripts.iter().flat_map(|s| match s {
                Script::Durable(s) => s.slots.iter(),
                _ => [].iter(),
            });
            let laps = REPLAY_FRAMES.div_ceil(plan::DURABLE_DBS);
            ReplayInput::Durable(
                slots
                    .map(|db| {
                        let tenant = |i: usize| db.index as u64 * 10_000_000 + 5_000_000 + i as u64;
                        let queries = (0..=laps)
                            .map(|i| {
                                let mut frame = db.queries[i % 2].clone();
                                frame.set_tenant(tenant(i));
                                frame
                            })
                            .collect();
                        let mutations = (0..4)
                            .map(|i| {
                                let mut frame = if i % 2 == 0 {
                                    db.insert.clone()
                                } else {
                                    db.remove.clone()
                                };
                                frame.set_tenant(tenant(100 + i));
                                frame
                            })
                            .collect();
                        (queries, mutations, live.sample_reply.clone())
                    })
                    .collect(),
            )
        }
    }
}

/// `wire_p50_us` sizes the replay of a resident pool: about 1.5 s of
/// frames per lane, at least one lap, at most 2048 frames (the replay
/// tenants' token buckets are not refilled by waiting).
fn replay(
    input: &ReplayInput,
    cfg: &Config,
    wire_p50_us: f64,
    crashed: Option<&Path>,
    clock: &Clock,
) -> io::Result<Replayed> {
    fn as_replay((frame, reply): &(Frame, Vec<u8>)) -> ReplayFrame<'_> {
        ReplayFrame {
            payload: frame.payload(),
            reply,
        }
    }
    match input {
        ReplayInput::Serve { warm, frames } => {
            let laps = if warm.is_empty() {
                1
            } else {
                let wanted = 1.5e6 * cfg.clients as f64 / wire_p50_us.max(1.0);
                (wanted.min(2048.0) as usize / frames.len()).max(1)
            };
            let warm: Vec<_> = warm.iter().map(as_replay).collect();
            let frames: Vec<_> = frames.iter().map(as_replay).collect();
            Ok(layers::replay_serve(
                &warm,
                &frames,
                laps,
                cfg.clients,
                clock,
            ))
        }
        ReplayInput::Durable(dbs) => {
            let dbs: Vec<DbFrames> = dbs
                .iter()
                .map(|(queries, mutations, reply)| DbFrames {
                    queries: queries
                        .iter()
                        .map(|f| ReplayFrame {
                            payload: f.payload(),
                            reply,
                        })
                        .collect(),
                    mutations: mutations
                        .iter()
                        .map(|f| ReplayFrame {
                            payload: f.payload(),
                            reply: MUTATE_REPLY,
                        })
                        .collect(),
                })
                .collect();
            let wal_dir = fresh_dir(&cfg.out, "replay-wal")?;
            let replayed = layers::replay_durable(&dbs, cfg.clients, &wal_dir, crashed, clock);
            let _ = std::fs::remove_dir_all(wal_dir);
            replayed
        }
    }
}

/// Median, over the frames that have both, of `whole − parts` (ns,
/// floored at 0): what an opaque call spent outside the pieces the
/// decomposition re-ran.
fn overhead_ns(spans: &[Span], whole: &str) -> Option<f64> {
    let mut wholes: BTreeMap<u32, u64> = BTreeMap::new();
    let mut parts: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.name == whole {
            wholes.insert(s.frame_id, s.end_ns - s.start_ns);
        } else if s.name == "decomp" {
            parts.insert(s.frame_id, s.end_ns - s.start_ns);
        }
    }
    let mut gaps: Vec<f64> = wholes
        .iter()
        .filter_map(|(f, w)| parts.get(f).map(|p| w.saturating_sub(*p) as f64))
        .collect();
    stats::median(&mut gaps)
}

/// The traced run: two shortened wire passes (untraced, then with
/// client spans), the restart cycles, and the in-process replay.
/// Prints every per-layer metric; those of layers this workload never
/// enters read 0.
pub fn run_trace(workload: Workload, cfg: &Config) -> io::Result<Outcome> {
    let plan = Plan::draw(workload, cfg.seed);
    let pass_s = cfg.seconds / 3.0;
    let warmup = warmup_of(cfg.seconds);
    let mut tally = Record::default();
    let mut unresolved = Vec::new();
    let mut live = setup(workload, &plan, cfg, warmup + 2.0 * pass_s, &mut tally)?;
    let clock = Clock::start();

    timed_pass(&mut live, warmup, None, &mut tally);
    let ping = gen::op_frame("ping");
    let mut rtts: Vec<f64> = Vec::with_capacity(200);
    for _ in 0..200 {
        let sent = Instant::now();
        live.conns[0].call(ping.wire())?;
        rtts.push(sent.elapsed().as_nanos() as f64 / 1e3);
    }

    let before = live.stats()?;
    let (plain, _) = timed_pass(&mut live, pass_s, None, &mut tally);
    let delta = live.stats()?.since(&before);
    resolve(workload, &delta, &mut unresolved);
    let (traced, mut spans) = timed_pass(&mut live, pass_s, Some(&clock), &mut tally);

    let mut restarts = Restarts::default();
    if workload == Workload::DurableMixed {
        restarts = restart_cycles(&mut live, cfg, cfg.restarts, true, &mut tally)?;
    }
    let input = replay_input(workload, &plan, &live, cfg.clients);
    live.teardown();

    let (wire_p50, wire_note) =
        quantile_us(&plain.reads, pass_s, 0.50, "wire p50", &mut unresolved);
    let replayed = replay(
        &input,
        cfg,
        wire_p50,
        restarts.crashed_copy.as_deref(),
        &clock,
    )?;
    if let Some(copy) = &restarts.crashed_copy {
        let _ = std::fs::remove_dir_all(copy);
    }
    spans.extend(replayed.spans);
    trace::write_jsonl(
        &cfg.out.join(format!("trace-{}.jsonl", workload.name())),
        &spans,
    )?;

    // ---- the layer table
    let table = trace::LayerTable::of(&spans);
    let us = |root: &str, name: &str| table.self_ns(root, name).map(|ns| ns / 1e3);
    let any = |name: &str| {
        ["frame", "decomp", "aux", "mutate"]
            .iter()
            .find_map(|r| us(r, name))
    };
    let count = |name: &str| replayed.counts.get(name).map_or(0.0, |v| median_of(v));
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut notes = BTreeMap::new();
    let frames = plain.attempted.max(1) as f64;

    m.insert(
        "service.proto.request_bytes",
        plain.request_bytes as f64 / frames,
    );
    m.insert(
        "service.proto.response_bytes",
        plain.response_bytes as f64 / frames,
    );
    m.insert("service.proto.ping_rtt_us", median_of(&rtts));
    for (metric, span) in [
        ("service.json.parse_us", "service.json.parse"),
        ("service.json.encode_us", "service.json.encode"),
        ("service.wire.decode_us", "service.wire.decode"),
        ("service.admission.gate_us", "service.admission.gate"),
        ("server.fingerprint.key_us", "server.fingerprint.key"),
        ("server.cache.lookup_us", "server.cache.lookup"),
        ("server.registry.serve_us", "server.registry.serve"),
        (
            "core.engine.select_max_sum_us",
            "core.engine.select_max_sum",
        ),
        (
            "core.engine.select_max_min_us",
            "core.engine.select_max_min",
        ),
        ("core.engine.select_mono_us", "core.engine.select_mono"),
        (
            "core.engine.rescore_max_sum_us",
            "core.engine.rescore_max_sum",
        ),
        (
            "core.engine.rescore_max_min_us",
            "core.engine.rescore_max_min",
        ),
        ("core.engine.rescore_mono_us", "core.engine.rescore_mono"),
        ("core.engine.delta_insert_us", "core.engine.delta_insert"),
        ("core.engine.delta_remove_us", "core.engine.delta_remove"),
        (
            "core.coreset.solve_max_sum_us",
            "core.coreset.solve_max_sum",
        ),
        (
            "core.coreset.solve_max_min_us",
            "core.coreset.solve_max_min",
        ),
        ("relquery.parser.parse_us", "relquery.parser.parse"),
        ("relquery.eval.eval_us", "relquery.eval.eval"),
        ("server.query.spec_us", "server.query.spec"),
        ("server.query.serve_us", "server.query.serve"),
        ("server.query.mutate_us", "server.query.mutate"),
    ] {
        m.insert(metric, any(span).unwrap_or(0.0));
    }
    m.insert(
        "server.registry.overhead_us",
        overhead_ns(&spans, "server.registry.serve").map_or(0.0, |ns| ns / 1e3),
    );
    let prepare_us = any("core.engine.prepare").unwrap_or(0.0);
    let matrix_us = any("core.engine.matrix_build").unwrap_or(0.0);
    m.insert("core.engine.prepare_ms", prepare_us / 1e3);
    m.insert("core.engine.matrix_build_ms", matrix_us / 1e3);
    m.insert("core.relevance.score_us", (prepare_us - matrix_us).max(0.0));
    m.insert(
        "core.coreset.select_ms",
        any("core.coreset.select").unwrap_or(0.0) / 1e3,
    );
    m.insert(
        "server.persist.recover_ms",
        any("server.persist.recover").unwrap_or(0.0) / 1e3,
    );
    let durable_us = any("server.persist.mutate_durable").unwrap_or(0.0);
    m.insert(
        "server.persist.wal_append_us",
        (durable_us - m["server.query.mutate_us"]).max(0.0),
    );
    for name in [
        "server.fingerprint.key_bytes",
        "core.engine.prepared_mb",
        "core.engine.allocs_per_request",
    ] {
        m.insert(name, count(name));
    }

    // Counts, from the stats frames around the untraced pass.
    m.insert("service.admission.rejected", delta.rejected as f64);
    // One of the frames counted is the closing stats frame itself.
    m.insert(
        "service.server.frames",
        delta.frames.saturating_sub(1) as f64,
    );
    notes.insert(
        "service.server.frames",
        format!("client attempted {}", plain.attempted),
    );
    m.insert("service.server.degraded", delta.degraded as f64);
    m.insert("server.cache.hits", delta.hits as f64);
    m.insert("server.cache.misses", delta.misses as f64);
    m.insert("server.cache.evictions", delta.evictions as f64);
    m.insert("server.cache.hit_ratio", delta.hit_ratio());
    m.insert(
        "server.cache.resident_mb",
        delta.resident_bytes as f64 / (1 << 20) as f64,
    );
    m.insert("server.persist.wal_records", delta.wal_records as f64);
    m.insert(
        "server.persist.wal_bytes_per_mutation",
        median_of(&restarts.wal_bytes_per_mutation),
    );
    m.insert(
        "server.persist.checkpoint_ms",
        median_of(&restarts.checkpoint_ms),
    );
    m.insert(
        "server.persist.snapshot_bytes",
        median_of(&restarts.snapshot_bytes),
    );
    m.insert(
        "server.persist.replayed_records",
        median_of(&restarts.replayed_records),
    );
    m.insert(
        "server.persist.recovered_entries",
        median_of(&restarts.recovered_entries),
    );
    m.insert("restart_ready_ms", median_of(&restarts.ready_ms));
    notes.insert(
        "restart_ready_ms",
        format!("median of {} restarts", restarts.ready_ms.len()),
    );

    // Wire quantiles of the two passes.
    let mut thin = Vec::new();
    notes.insert(
        "service.server.unattributed_us",
        format!("wire p50 {wire_p50:.1} us - replay root p50; {wire_note}"),
    );
    let (traced_p50, _) = quantile_us(
        &traced.reads,
        pass_s,
        0.50,
        "traced wire p50",
        &mut unresolved,
    );
    // The end-to-end metrics the driver only records: from the
    // untraced pass, a third of a window long.
    m.insert(
        "frames_per_s",
        completed_within(&plain, pass_s) as f64 / pass_s,
    );
    m.insert("frame_p50_us", wire_p50);
    notes.insert("frame_p50_us", wire_note.clone());
    let (wire_p99, note) = quantile_us(&plain.reads, pass_s, 0.99, "frame_p99_us", &mut thin);
    m.insert("frame_p99_us", wire_p99);
    notes.insert("frame_p99_us", note);
    for (name, q) in [("mutate_p50_us", 0.50), ("mutate_p99_us", 0.99)] {
        let (value, note) = match workload {
            Workload::DurableMixed => quantile_us(&plain.writes, pass_s, q, name, &mut thin),
            _ => (0.0, "no mutations in this workload".into()),
        };
        m.insert(name, value);
        notes.insert(name, note);
    }
    unresolved.extend(thin);
    let root_us = trace::root_duration_ns(&spans, "frame").map_or(0.0, |ns| ns / 1e3);
    let unattributed = (wire_p50 - root_us).max(0.0);
    m.insert("service.server.unattributed_us", unattributed);
    m.insert(
        "service.server.unattributed_share",
        if wire_p50 > 0.0 {
            unattributed / wire_p50
        } else {
            0.0
        },
    );
    m.insert(
        "bench.client.overhead_us",
        us("client.frame", "client.send").unwrap_or(0.0)
            + us("client.frame", "client.recv_parse").unwrap_or(0.0),
    );
    m.insert(
        "bench.trace.overhead_share",
        if wire_p50 > 0.0 {
            (traced_p50 - wire_p50) / wire_p50
        } else {
            0.0
        },
    );

    // How well the replayed layers account for the replay root: the
    // sum of the layers' medians over the median root.
    let parts: f64 = [
        "service.json.parse",
        "service.json.encode",
        "service.wire.decode",
        "service.admission.gate",
        "server.fingerprint.key",
        "relquery.parser.parse",
        "server.query.spec",
        "server.registry.serve",
        "server.query.serve",
        "frame",
    ]
    .iter()
    .filter_map(|name| us("frame", name))
    .sum();
    notes.insert(
        "server.registry.serve_us",
        format!(
            "replay root p50 {root_us:.1} us = sum of its spans' self times, frame by frame; the layers' medians sum to {:.1} % of it",
            if root_us > 0.0 {
                100.0 * parts / root_us
            } else {
                0.0
            }
        ),
    );

    Ok(Outcome {
        workload,
        traced: true,
        metrics: m,
        notes,
        attempted: tally.attempted,
        failed: tally.failed,
        first_failure: tally.first_failure,
        unresolved,
    })
}
