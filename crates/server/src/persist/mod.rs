//! Crash-safe durability: checksummed snapshots + a write-ahead log,
//! with warm restarts.
//!
//! ## Design: the book mirrors the serving state
//!
//! [`Durability`] keeps a **book** — a self-contained mirror of
//! everything warm: universe specs, registered databases, and each
//! warm query's exact universe *sequence*. Every
//! durable mutation is a record; a live hook applies the record to
//! the book and appends it to the write-ahead log **in one critical
//! section**, and recovery applies the same records through the same
//! `Book::apply_record` — so the book a replay rebuilds equals the book
//! the live process kept *by construction*: the book has exactly one
//! state-transition function, not a live one and a replay one that
//! could drift. The book mirrors the live structures rather than being
//! them, so the one decision it must make the way the front door does —
//! which tuples a base-table edit adds to or removes from each warm
//! query's universe — is not mirrored by hand: both call
//! `crate::query::plan_base_edit` and replay the ops it returns.
//!
//! Query universes are persisted as sequences, not re-evaluated on
//! recovery: a delta-repaired entry's order is *original evaluation
//! order + appended repairs*, which a fresh evaluation would not
//! reproduce, and answer tie-breaking follows index order. Restoring
//! from the sequence (a build over its first `base_len` tuples, the
//! rest patched in) rebuilds prepared state bit-identical to what the
//! crashed process was serving — the delta-conformance invariant that
//! a prepare plus the same deltas equals the delta-migrated state that
//! produced it.
//!
//! ## What is (and is not) guaranteed
//!
//! * **An acknowledgement is a `mutate` or `checkpoint` reply.** A
//!   mutation record (`BaseEdit`) is synced before its reply and
//!   survives any crash; recovery restores a **consistent prefix**
//!   of the record stream — a torn tail or corrupt frame drops
//!   everything from the first bad byte on, never a middle record with
//!   later ones kept.
//! * The other three records (`WarmUniverse`, `RegisterDb`,
//!   `WarmQuery`) are **hints**: content-addressed state that the next
//!   frame naming it re-creates. They are appended in order but pay no
//!   `fsync` of their own; the next mutation's sync (which covers the
//!   whole segment so far), the next checkpoint (which syncs the old
//!   segment before it rotates) or a drain makes them durable. A
//!   machine crash before that loses only hints nothing acknowledged
//!   depends on — the entry is cold, the database is registered again
//!   by the next query frame, never a wrong answer — and a mutation
//!   cannot outlive the registration it edits, which precedes it in
//!   the segment its sync covers. A killed process loses none of them
//!   (the page cache outlives it).
//! * Recovery never panics on arbitrary file corruption (CRC framing +
//!   total decoders + whole-or-nothing snapshot validation).
//! * Relation versions restart at zero after recovery. They exist only
//!   inside cache keys, so the recovered process is internally
//!   consistent; version numbers are not meaningful across restarts.
//! * Warmth may diverge from a never-crashed process under cache
//!   eviction or contended-`Arc` entry drops (the book cannot observe
//!   either); checkpoints reconcile by pruning entries the live
//!   process no longer holds. Content correctness never depends on
//!   this — keys are content-addressed, so a warmer-than-live entry is
//!   still the *right* entry.
//! * Oracles with unknown fingerprint tags and queries whose text does
//!   not round-trip through the parser have no durable form; their
//!   entries are skipped and counted (`skipped_unpersistable`), and
//!   the WAL never contains a record recovery could not resolve.
//!
//! ## Lock order
//!
//! Front-door hooks run under the front door's `state` lock and then
//! take the durability `inner` lock. Checkpoints therefore **never**
//! query live structures while holding `inner`: phase A clones the
//! candidate lists under `inner`, phase B checks liveness against the
//! registry/front door with `inner` released, phase C re-locks `inner`
//! to prune exactly what B saw dead, serialize the book, and rotate
//! the WAL — entries created between A and C are simply retained.

mod codec;
mod files;

use crate::fingerprint::UniverseKey;
use crate::query::{base_edit_applies, plan_base_edit, QueryFrontDoor, QuerySpec};
use crate::registry::Registry;
use crate::spec::{PreparedVariant, UniverseSpec};
use divr_core::engine::DeltaOp;
use divr_relquery::{Database, Tuple};
use std::collections::{BTreeMap, HashMap};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// How [`Durability::recover`] rebuilds warm state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoverMode {
    /// Rebuild every recovered universe and warm query before serving
    /// (restart cost up front, first requests all hit).
    Eager,
    /// Re-register databases only; entries rebuild on demand. Entries
    /// never re-demanded leave the book at the next checkpoint.
    Lazy,
}

impl std::str::FromStr for RecoverMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "eager" => Ok(RecoverMode::Eager),
            "lazy" => Ok(RecoverMode::Lazy),
            other => Err(format!("unknown recover mode {other:?} (eager|lazy)")),
        }
    }
}

/// Which prepared shape a warm query entry has — a full matrix takes a
/// removal, a coreset goes cold on one. Both restore one way
/// (`QueryFrontDoor::restore_warm_query`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WarmKind {
    Full,
    Coreset,
}

/// One warm query entry as the book tracks it: the spec plus the exact
/// universe sequence currently being served.
#[derive(Clone, Debug)]
pub(crate) struct WarmQueryRecord {
    pub(crate) spec: QuerySpec,
    pub(crate) universe: Vec<Tuple>,
    pub(crate) kind: WarmKind,
    pub(crate) base_len: usize,
}

/// One durable mutation — the single vocabulary shared by live
/// logging, snapshots, and replay.
#[derive(Debug)]
pub(crate) enum Record {
    /// A universe became warm (registry-keyed).
    WarmUniverse { spec: UniverseSpec },
    /// A database registered (or replaced) at the front door.
    RegisterDb { name: String, db: Database },
    /// A base-table insert (`insert`) or removal (fans out to warm
    /// queries on replay exactly as it did live).
    BaseEdit {
        insert: bool,
        db: String,
        relation: String,
        tuple: Tuple,
    },
    /// A query became warm (front-door-keyed).
    WarmQuery { db: String, entry: WarmQueryRecord },
}

impl Record {
    /// Whether a reply acknowledges this record, so that it must be on
    /// disk before the reply leaves; the rest are hints (module docs,
    /// § guarantees).
    fn is_acknowledged(&self) -> bool {
        matches!(self, Record::BaseEdit { .. })
    }
}

#[derive(Default)]
struct BookDb {
    db: Database,
    /// Warm queries by version-independent identity
    /// ([`codec::query_ident`]).
    warm: HashMap<Vec<u8>, WarmQueryRecord>,
}

/// The durable mirror of the serving state. All mutation goes through
/// [`Book::apply_record`] — the one transition function live hooks and
/// replay share.
#[derive(Default)]
struct Book {
    universes: HashMap<UniverseKey, UniverseSpec>,
    dbs: BTreeMap<String, BookDb>,
}

impl Book {
    fn apply_record(&mut self, rec: &Record) {
        match rec {
            Record::WarmUniverse { spec } => {
                self.universes.insert(spec.key(), spec.clone());
            }
            Record::RegisterDb { name, db } => {
                // Replacement drops the old instance's warm entries,
                // mirroring the front door.
                self.dbs.insert(
                    name.clone(),
                    BookDb {
                        db: db.clone(),
                        warm: HashMap::new(),
                    },
                );
            }
            Record::BaseEdit {
                insert,
                db,
                relation,
                tuple,
            } => self.apply_base_edit(db, relation, tuple, *insert),
            Record::WarmQuery { db, entry } => {
                let Some(bdb) = self.dbs.get_mut(db) else {
                    return;
                };
                bdb.warm
                    .insert(codec::query_ident(&entry.spec), entry.clone());
            }
        }
    }

    /// A base-table edit fans out to the warm queries reading the
    /// relation along the same [`plan_base_edit`] the front door
    /// follows, so replay repairs each sequence exactly as live did.
    fn apply_base_edit(&mut self, db: &str, relation: &str, tuple: &Tuple, insert: bool) {
        let Some(BookDb { db: base, warm }) = self.dbs.get_mut(db) else {
            return;
        };
        // Idempotent under replay: an edit that no longer applies is a
        // no-op (the live path validates before logging).
        if !matches!(base_edit_applies(base, insert, relation, tuple), Ok(true)) {
            return;
        }
        let ids: Vec<Vec<u8>> = warm
            .iter()
            .filter(|(_, q)| q.spec.relations().contains(relation))
            .map(|(id, _)| id.clone())
            .collect();
        let plans = plan_base_edit(
            base,
            insert,
            relation,
            tuple,
            ids.iter().map(|id| (warm[id].spec.query(), warm[id].universe.as_slice())),
        );
        for (id, plan) in ids.into_iter().zip(plans) {
            let q = warm.get_mut(&id).expect("collected from warm");
            // Live drops what it cannot repair — no plan, a coreset
            // asked to remove (it cannot un-derive a departed tuple's
            // contributions in O(Δ·n)), a universe shrunk to empty —
            // and so does the book.
            let repaired = plan.is_some_and(|ops| {
                (q.kind == WarmKind::Full
                    || ops.iter().all(|op| matches!(op, DeltaOp::Insert(_))))
                    && ops.iter().all(|op| op.apply_to(&mut q.universe).is_ok())
                    && !q.universe.is_empty()
            });
            if !repaired {
                warm.remove(&id);
            }
        }
    }

    /// The book as a flat record stream: applying these records to an
    /// empty book reproduces it (universes are standalone; each
    /// database precedes its warm queries).
    fn serialize(&self, skipped: &AtomicU64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut push = |rec: &Record| match codec::encode_record(rec) {
            Ok(payload) => out.push(payload),
            Err(_) => {
                skipped.fetch_add(1, Ordering::Relaxed);
            }
        };
        for spec in self.universes.values() {
            push(&Record::WarmUniverse { spec: spec.clone() });
        }
        for (name, bdb) in &self.dbs {
            push(&Record::RegisterDb {
                name: name.clone(),
                db: bdb.db.clone(),
            });
            for entry in bdb.warm.values() {
                push(&Record::WarmQuery {
                    db: name.clone(),
                    entry: entry.clone(),
                });
            }
        }
        out
    }
}

struct Inner {
    book: Book,
    wal: files::WalWriter,
    /// The sequence number the next WAL rotation will use.
    next_seq: u64,
}

/// What one recovery rebuilt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverReport {
    /// Databases re-registered at the front door.
    pub recovered_databases: usize,
    /// Universe entries rebuilt into the registry cache (eager mode).
    pub recovered_universes: usize,
    /// Warm query entries rebuilt at the front door (eager mode).
    pub recovered_queries: usize,
    /// Entries whose rebuild failed or panicked (left cold, not lost —
    /// the book still has them until a checkpoint prunes).
    pub failed_entries: usize,
}

/// What one checkpoint wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Snapshot size in bytes.
    pub snapshot_bytes: u64,
    /// Records in the snapshot.
    pub records: usize,
    /// The WAL cut: segments below this sequence were superseded.
    pub cut_seq: u64,
}

/// Counter snapshot for the wire `stats` op.
#[derive(Clone, Copy, Debug, Default)]
pub struct DurabilityStats {
    /// Records appended to the WAL this process lifetime.
    pub wal_records: u64,
    /// `fsync`s of an open WAL segment: one per mutation record, one
    /// per checkpoint — hints ride along.
    pub wal_syncs: u64,
    /// WAL appends that failed at the I/O layer (the record is NOT
    /// durable; serving continued).
    pub wal_io_errors: u64,
    /// Snapshots written.
    pub snapshots_written: u64,
    /// Size of the newest snapshot.
    pub last_snapshot_bytes: u64,
    /// Entries with no durable form, skipped at log/serialize time.
    pub skipped_unpersistable: u64,
    /// WAL records replayed at the last open.
    pub wal_records_replayed: u64,
    /// Torn/corrupt WAL tails dropped at the last open.
    pub torn_tail_dropped: u64,
    /// Invalid snapshots skipped at the last open.
    pub snapshots_discarded: u64,
    /// Universe + query entries rebuilt by the last recover.
    pub recovered_entries: u64,
    /// Databases re-registered by the last recover.
    pub recovered_databases: u64,
}

/// The durability subsystem: one per data directory. See the module
/// docs for the design; the serving hooks are `log_*`, the restart
/// path is [`Durability::open`] → [`Durability::recover`] →
/// [`Registry::attach_durability`], and [`Durability::checkpoint`]
/// compacts the log into a snapshot.
pub struct Durability {
    dir: PathBuf,
    inner: Mutex<Inner>,
    /// Serializes checkpoints (the snapshot temp file is shared).
    ckpt: Mutex<()>,
    wal_records: AtomicU64,
    wal_syncs: AtomicU64,
    wal_io_errors: AtomicU64,
    snapshots_written: AtomicU64,
    last_snapshot_bytes: AtomicU64,
    skipped_unpersistable: AtomicU64,
    wal_records_replayed: AtomicU64,
    torn_tail_dropped: AtomicU64,
    snapshots_discarded: AtomicU64,
    recovered_entries: AtomicU64,
    recovered_databases: AtomicU64,
}

impl Durability {
    /// Opens (creating if needed) a data directory: loads the newest
    /// fully-valid snapshot, replays the WAL up to the first torn or
    /// corrupt frame (the consistent prefix), and opens a fresh WAL
    /// segment — recovery never appends after a torn tail.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Arc<Durability>> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let scan = files::scan_dir(&dir)?;

        let mut book = Book::default();
        let mut discarded = 0u64;
        let mut cut = 0u64;
        for (seq, path) in &scan.snapshots {
            match Self::load_snapshot(path, *seq) {
                Some(records) => {
                    for rec in &records {
                        book.apply_record(rec);
                    }
                    cut = *seq;
                    break;
                }
                None => discarded += 1,
            }
        }

        let mut replayed = 0u64;
        let mut torn = 0u64;
        let mut expect: Option<u64> = None;
        'wal: for (seq, path) in &scan.segments {
            if *seq < cut {
                continue;
            }
            if expect.is_some_and(|e| *seq != e) {
                // A gap in the segment chain: everything after it is
                // out of order — stop at the consistent prefix.
                torn += 1;
                break;
            }
            expect = Some(*seq + 1);
            let Ok(Some((header_seq, frames, clean))) = files::read_wal_segment(path) else {
                torn += 1;
                break;
            };
            if header_seq != *seq {
                torn += 1;
                break;
            }
            for payload in frames {
                match codec::decode_record(&payload) {
                    Ok(rec) => {
                        book.apply_record(&rec);
                        replayed += 1;
                    }
                    Err(_) => {
                        torn += 1;
                        break 'wal;
                    }
                }
            }
            if !clean {
                torn += 1;
                break;
            }
        }

        let seq = scan.max_seq.max(cut) + 1;
        let wal = files::WalWriter::create(&dir, seq)?;
        let d = Durability {
            dir,
            inner: Mutex::new(Inner {
                book,
                wal,
                next_seq: seq + 1,
            }),
            ckpt: Mutex::new(()),
            wal_records: AtomicU64::new(0),
            wal_syncs: AtomicU64::new(0),
            wal_io_errors: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            last_snapshot_bytes: AtomicU64::new(0),
            skipped_unpersistable: AtomicU64::new(0),
            wal_records_replayed: AtomicU64::new(replayed),
            torn_tail_dropped: AtomicU64::new(torn),
            snapshots_discarded: AtomicU64::new(discarded),
            recovered_entries: AtomicU64::new(0),
            recovered_databases: AtomicU64::new(0),
        };
        Ok(Arc::new(d))
    }

    /// A snapshot is trusted whole or not at all: every frame must
    /// checksum, the end marker must agree, and every record must
    /// decode.
    fn load_snapshot(path: &Path, seq: u64) -> Option<Vec<Record>> {
        let (cut, frames) = files::read_snapshot(path).ok().flatten()?;
        if cut != seq {
            return None;
        }
        let mut records = Vec::with_capacity(frames.len());
        for payload in frames {
            records.push(codec::decode_record(&payload).ok()?);
        }
        Some(records)
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // The book is rebuildable bookkeeping; recover a poisoned
        // guard rather than refusing to serve.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Rebuilds live serving state from the recovered book. Call
    /// **before** [`Registry::attach_durability`] so the restore paths
    /// do not re-log what the book already holds.
    pub fn recover(
        &self,
        registry: &Registry,
        front: &QueryFrontDoor,
        mode: RecoverMode,
    ) -> RecoverReport {
        // Clone out of the book first: rebuilding prepares O(n²)
        // state and must not run under `inner` (lock-order rule — see
        // module docs).
        let (dbs, universes, queries) = {
            let inner = self.lock();
            let dbs: Vec<(String, Database)> = inner
                .book
                .dbs
                .iter()
                .map(|(name, b)| (name.clone(), b.db.clone()))
                .collect();
            let universes: Vec<UniverseSpec> = inner.book.universes.values().cloned().collect();
            let queries: Vec<(String, WarmQueryRecord)> = inner
                .book
                .dbs
                .iter()
                .flat_map(|(name, b)| b.warm.values().map(|q| (name.clone(), q.clone())))
                .collect();
            (dbs, universes, queries)
        };
        let mut report = RecoverReport::default();
        for (name, db) in dbs {
            front.register_database(name, db);
            report.recovered_databases += 1;
        }
        if mode == RecoverMode::Eager {
            for spec in universes {
                let restored = catch_unwind(AssertUnwindSafe(|| registry.restore_entry(&spec)));
                match restored {
                    Ok(Ok(())) => report.recovered_universes += 1,
                    _ => report.failed_entries += 1,
                }
            }
            for (db, q) in queries {
                let restored = catch_unwind(AssertUnwindSafe(|| {
                    front.restore_warm_query(&db, &q.spec, q.universe.clone(), q.base_len)
                }));
                match restored {
                    Ok(Some(())) => report.recovered_queries += 1,
                    _ => report.failed_entries += 1,
                }
            }
        }
        self.recovered_databases
            .store(report.recovered_databases as u64, Ordering::Relaxed);
        self.recovered_entries.store(
            (report.recovered_universes + report.recovered_queries) as u64,
            Ordering::Relaxed,
        );
        report
    }

    /// Applies a record to the book and appends it to the WAL in one
    /// critical section, syncing the segment iff a reply acknowledges
    /// the record. The caller constructs the record; gating (dedup,
    /// unresolvable-base checks) happens here under the lock.
    fn apply_and_log(&self, inner: &mut Inner, rec: &Record) {
        let payload = match codec::encode_record(rec) {
            Ok(p) => p,
            Err(_) => {
                self.skipped_unpersistable.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        inner.book.apply_record(rec);
        let mut logged = inner.wal.append(&payload);
        if logged.is_ok() && rec.is_acknowledged() {
            logged = self.sync_wal(inner);
        }
        match logged {
            Ok(()) => {
                self.wal_records.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                // Serving continues; the counter is the honesty signal
                // that this record is not durable.
                self.wal_io_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    fn sync_wal(&self, inner: &mut Inner) -> io::Result<()> {
        self.wal_syncs.fetch_add(1, Ordering::Relaxed);
        inner.wal.sync()
    }

    /// A universe became warm in the registry cache.
    pub(crate) fn log_warm_universe(&self, spec: &UniverseSpec, key: &UniverseKey) {
        let mut inner = self.lock();
        if inner.book.universes.contains_key(key) {
            return;
        }
        self.apply_and_log(&mut inner, &Record::WarmUniverse { spec: spec.clone() });
    }

    /// A database is being registered at the front door.
    pub(crate) fn log_register_db(&self, name: &str, db: &Database) {
        let mut inner = self.lock();
        self.apply_and_log(
            &mut inner,
            &Record::RegisterDb {
                name: name.to_string(),
                db: db.clone(),
            },
        );
    }

    /// A base-table insert or removal is about to happen (write-ahead:
    /// the caller validated it will succeed, logs, then mutates).
    pub(crate) fn log_base_edit(&self, db: &str, relation: &str, tuple: &Tuple, insert: bool) {
        let mut inner = self.lock();
        if !inner.book.dbs.contains_key(db) {
            return;
        }
        self.apply_and_log(
            &mut inner,
            &Record::BaseEdit {
                insert,
                db: db.to_string(),
                relation: relation.to_string(),
                tuple: tuple.clone(),
            },
        );
    }

    /// A query became warm at the front door (miss path only; hits
    /// must not pay the O(n) sequence copy). A rebuild of a query the
    /// book knows — after an eviction or a go-cold, a fresh evaluation
    /// order — replaces its row: the book follows what is served.
    pub(crate) fn log_warm_query(&self, db: &str, spec: &QuerySpec, prepared: &PreparedVariant) {
        let universe = prepared.universe().to_vec();
        let kind = match prepared {
            PreparedVariant::Full(_) => WarmKind::Full,
            PreparedVariant::Coreset(_) => WarmKind::Coreset,
        };
        let base_len = universe.len();
        let mut inner = self.lock();
        if !inner.book.dbs.contains_key(db) {
            return;
        }
        self.apply_and_log(
            &mut inner,
            &Record::WarmQuery {
                db: db.to_string(),
                entry: WarmQueryRecord {
                    spec: spec.clone(),
                    universe,
                    kind,
                    base_len,
                },
            },
        );
    }

    /// Writes a checkpoint: prunes book entries the live process no
    /// longer holds, serializes the book into a durable snapshot, and
    /// rotates the WAL (superseded segments and snapshots are deleted
    /// once the new snapshot is durable).
    ///
    /// Three phases to respect the lock order (module docs): candidate
    /// gathering under `inner`, liveness checks against the live
    /// structures with `inner` released, prune + serialize + rotate
    /// back under `inner`. Entries born between the phases are
    /// retained.
    pub fn checkpoint(
        &self,
        registry: &Registry,
        front: &QueryFrontDoor,
    ) -> io::Result<CheckpointReport> {
        let _one_at_a_time = self.ckpt.lock().unwrap_or_else(|p| p.into_inner());

        // Phase A: clone the candidate lists (brief lock).
        let (universe_keys, query_entries) = {
            let inner = self.lock();
            let universe_keys: Vec<UniverseKey> =
                inner.book.universes.keys().cloned().collect();
            let query_entries: Vec<(String, Vec<u8>, QuerySpec)> = inner
                .book
                .dbs
                .iter()
                .flat_map(|(name, b)| {
                    b.warm
                        .iter()
                        .map(|(id, q)| (name.clone(), id.clone(), q.spec.clone()))
                })
                .collect();
            (universe_keys, query_entries)
        };

        // Phase B: liveness against the live structures — `inner` is
        // NOT held (is_warm takes the front door's state lock, which
        // hooks acquire before `inner`).
        let dead_universes: Vec<UniverseKey> = universe_keys
            .into_iter()
            .filter(|k| !registry.cache().contains(k))
            .collect();
        let dead_queries: Vec<(String, Vec<u8>)> = query_entries
            .into_iter()
            .filter_map(|(db, id, spec)| match front.is_warm(&db, &spec) {
                Ok(true) => None,
                _ => Some((db, id)),
            })
            .collect();

        // Phase C: prune exactly what B saw dead, serialize, rotate.
        // Rotation and serialization share one critical section so no
        // record can land in both the snapshot and the new segment.
        let (cut_seq, records) = {
            let mut inner = self.lock();
            for key in &dead_universes {
                inner.book.universes.remove(key);
            }
            for (db, id) in &dead_queries {
                if let Some(bdb) = inner.book.dbs.get_mut(db) {
                    bdb.warm.remove(id);
                }
            }
            let records = inner.book.serialize(&self.skipped_unpersistable);
            let cut_seq = inner.next_seq;
            // Hints at the old segment's tail become durable before a
            // mutation can be acknowledged from the new one: until the
            // snapshot lands, recovery replays both.
            self.sync_wal(&mut inner)?;
            let fresh = files::WalWriter::create(&self.dir, cut_seq)?;
            inner.wal = fresh;
            inner.next_seq = cut_seq + 1;
            (cut_seq, records)
        };

        let snapshot_bytes = files::write_snapshot(&self.dir, cut_seq, &records)?;
        files::prune_superseded(&self.dir, cut_seq);
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        self.last_snapshot_bytes
            .store(snapshot_bytes, Ordering::Relaxed);
        Ok(CheckpointReport {
            snapshot_bytes,
            records: records.len(),
            cut_seq,
        })
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DurabilityStats {
        DurabilityStats {
            wal_records: self.wal_records.load(Ordering::Relaxed),
            wal_syncs: self.wal_syncs.load(Ordering::Relaxed),
            wal_io_errors: self.wal_io_errors.load(Ordering::Relaxed),
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            last_snapshot_bytes: self.last_snapshot_bytes.load(Ordering::Relaxed),
            skipped_unpersistable: self.skipped_unpersistable.load(Ordering::Relaxed),
            wal_records_replayed: self.wal_records_replayed.load(Ordering::Relaxed),
            torn_tail_dropped: self.torn_tail_dropped.load(Ordering::Relaxed),
            snapshots_discarded: self.snapshots_discarded.load(Ordering::Relaxed),
            recovered_entries: self.recovered_entries.load(Ordering::Relaxed),
            recovered_databases: self.recovered_databases.load(Ordering::Relaxed),
        }
    }
}
