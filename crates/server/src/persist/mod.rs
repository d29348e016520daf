//! Crash-safe durability: checksummed snapshots + a write-ahead log,
//! with warm restarts.
//!
//! ## Design: a snapshot is the live state; the log replays through the serving hooks
//!
//! The durable truth is `D` — every registered database — plus the
//! order each warm `Q(D)` is served in, and the serving state already
//! holds both: the front door's databases and warm index, and the
//! prepared entries in the cache. [`Durability`] keeps no second copy
//! of either. Each durable transition is a record that a serving hook
//! appends to the write-ahead log — a registration, a base-table
//! edit, a query or universe turning warm; the front door's under its
//! `state` lock, so the log order is the serving order. A checkpoint
//! writes the live state itself as the snapshot: one `RegisterDb` per
//! database, one `WarmQuery` per warm entry still resident, one
//! `WarmUniverse` per resident registry-keyed universe. Recovery
//! applies the snapshot's records and then the log's, in order,
//! through the code that served them — `register_database`, the
//! base-edit fan-out with its one repair plan, `restore_warm_query`,
//! `restore_entry` — so replay equals live because both run the same
//! transition function. A replayed edit that no longer applies changes
//! nothing (`Ok(false)`), which keeps replay idempotent.
//!
//! The one index `Durability` holds is for registry-keyed universes:
//! key → spec, because a cache entry does not carry its spec. It is the
//! warm hook's dedup set and what a checkpoint writes for them, pruned
//! to what is resident; it has no transition function.
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
//!   total decoders + whole-or-nothing snapshot validation), and each
//!   record's application runs inside its own unwind boundary.
//! * A checkpoint refuses (an `io::Error`) while records `open` decoded
//!   are still unapplied: a process that opened a non-empty directory
//!   without recovering it cannot overwrite that directory.
//! * Relation versions restart at zero after recovery. They exist only
//!   inside cache keys, so the recovered process is internally
//!   consistent; version numbers are not meaningful across restarts.
//! * Warmth may diverge from a never-crashed process: eviction is not
//!   journaled, so an eager replay restores entries the live process
//!   had since dropped; a checkpoint writes only what is resident.
//!   Content correctness never depends on this — keys are
//!   content-addressed, so a warmer-than-live entry is still the
//!   *right* entry.
//! * Oracles with unknown fingerprint tags and queries whose text does
//!   not round-trip through the parser have no durable form; their
//!   entries are skipped and counted (`skipped_unpersistable`), and
//!   the WAL never contains a record recovery could not resolve.
//!
//! ## Lock order
//!
//! `state → inner → cache shard`. Front-door hooks run under the front
//! door's `state` lock and then take the durability `inner` lock; a
//! checkpoint takes `state` (read) and then `inner`, and peeks at cache
//! shards under both. No path holds a shard lock while taking `inner`
//! or `state`: the cache runs builds and drops what it unlinks with its
//! shard released, and calls nothing else under it. Recovery takes
//! `inner` only briefly and never while calling into the front door.

mod codec;
mod files;

use crate::fingerprint::UniverseKey;
use crate::query::{QueryFrontDoor, QuerySpec};
use crate::registry::Registry;
use crate::spec::{PreparedVariant, UniverseSpec};
use divr_relquery::{Database, Tuple};
use std::collections::HashMap;
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
    /// Re-register databases (and replay their edits) only; entries
    /// rebuild on demand. Entries never re-demanded are not in the
    /// next checkpoint.
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

/// One warm query entry as a record carries it: the spec plus the
/// exact universe sequence being served.
#[derive(Clone, Debug)]
pub(crate) struct WarmQueryRecord {
    pub(crate) spec: QuerySpec,
    pub(crate) universe: Vec<Tuple>,
    pub(crate) kind: WarmKind,
    pub(crate) base_len: usize,
}

impl WarmQueryRecord {
    /// The record of a served entry, built over its first `base_len`
    /// rows (an `O(n)` copy of the sequence, dropped once encoded).
    fn of(spec: &QuerySpec, prepared: &PreparedVariant, base_len: usize) -> Self {
        WarmQueryRecord {
            spec: spec.clone(),
            universe: prepared.universe().to_vec(),
            kind: match prepared {
                PreparedVariant::Full(_) => WarmKind::Full,
                PreparedVariant::Coreset(_) => WarmKind::Coreset,
            },
            base_len,
        }
    }
}

/// One durable mutation — the single vocabulary shared by live
/// logging, snapshots, and replay.
#[derive(Debug)]
pub(crate) enum Record {
    /// A universe became warm (registry-keyed).
    WarmUniverse { spec: UniverseSpec },
    /// A database registered (or replaced) at the front door.
    RegisterDb { name: String, db: Database },
    /// A base-table insert (`insert`) or removal (replays through the
    /// live fan-out to warm queries).
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

struct Inner {
    /// Registry-keyed universes the log holds a `WarmUniverse` for
    /// (module docs): the hook's dedup set, pruned at each checkpoint
    /// to what is resident.
    universes: HashMap<UniverseKey, UniverseSpec>,
    /// Records `open` decoded, held until `recover` applies them.
    pending: Vec<Record>,
    wal: files::WalWriter,
    /// The sequence number the next WAL rotation will use.
    next_seq: u64,
}

/// What one recovery rebuilt.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverReport {
    /// Databases registered at the front door after the replay.
    pub recovered_databases: usize,
    /// Universe entries resident in the registry cache after the
    /// replay (eager mode).
    pub recovered_universes: usize,
    /// Warm query entries resident at the front door after the replay
    /// (eager mode).
    pub recovered_queries: usize,
    /// Records whose application panicked or was refused — an entry
    /// that could not be rebuilt (left cold), an edit naming no
    /// registered database.
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
    /// Entries with no durable form, skipped at log/checkpoint time.
    pub skipped_unpersistable: u64,
    /// WAL records decoded at the last open (applied by `recover`).
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
    /// Opens (creating if needed) a data directory: decodes the newest
    /// fully-valid snapshot, then the WAL up to the first torn or
    /// corrupt frame (the consistent prefix), holds those records for
    /// [`Durability::recover`], and opens a fresh WAL segment —
    /// recovery never appends after a torn tail.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Arc<Durability>> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let scan = files::scan_dir(&dir)?;

        let mut pending = Vec::new();
        let mut discarded = 0u64;
        let mut cut = 0u64;
        for (seq, path) in &scan.snapshots {
            match Self::load_snapshot(path, *seq) {
                Some(records) => {
                    pending = records;
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
                        pending.push(rec);
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
                universes: HashMap::new(),
                pending,
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
        // The index is rebuildable bookkeeping; recover a poisoned
        // guard rather than refusing to serve.
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Applies the records [`Durability::open`] decoded, in order,
    /// through the serving code that wrote them (module docs): a
    /// registration registers, an edit runs the live base-edit path,
    /// and in eager mode a warm record rebuilds its entry. Call
    /// **before** [`Registry::attach_durability`], so nothing replayed
    /// is journaled again.
    pub fn recover(
        &self,
        registry: &Registry,
        front: &QueryFrontDoor,
        mode: RecoverMode,
    ) -> RecoverReport {
        let records = std::mem::take(&mut self.lock().pending);
        let eager = mode == RecoverMode::Eager;
        let mut failed_entries = 0;
        for rec in records {
            let applied = catch_unwind(AssertUnwindSafe(|| match rec {
                Record::RegisterDb { name, db } => {
                    front.register_database(name, db);
                    true
                }
                Record::BaseEdit {
                    insert,
                    db,
                    relation,
                    tuple,
                } => front.edit_base_tuple(&db, &relation, tuple, insert).is_ok(),
                Record::WarmQuery { db, entry } => {
                    !eager
                        || front
                            .restore_warm_query(&db, &entry.spec, entry.universe, entry.base_len)
                            .is_some()
                }
                Record::WarmUniverse { spec } => {
                    let restored = !eager || registry.restore_entry(&spec).is_ok();
                    self.lock().universes.insert(spec.key(), spec);
                    restored
                }
            }));
            if !matches!(applied, Ok(true)) {
                failed_entries += 1;
            }
        }
        let (recovered_databases, recovered_queries) = {
            let live = front.live_state();
            (live.databases().count(), live.resident_queries().count())
        };
        let recovered_universes = {
            let inner = self.lock();
            let resident = |key: &&UniverseKey| registry.cache().contains(key);
            inner.universes.keys().filter(resident).count()
        };
        self.recovered_databases
            .store(recovered_databases as u64, Ordering::Relaxed);
        self.recovered_entries.store(
            (recovered_universes + recovered_queries) as u64,
            Ordering::Relaxed,
        );
        RecoverReport {
            recovered_databases,
            recovered_universes,
            recovered_queries,
            failed_entries,
        }
    }

    /// The record's payload, or `None` — counted — if it has no
    /// durable form.
    fn encode(&self, rec: &Record) -> Option<Vec<u8>> {
        let payload = codec::encode_record(rec).ok();
        if payload.is_none() {
            self.skipped_unpersistable.fetch_add(1, Ordering::Relaxed);
        }
        payload
    }

    /// Appends a record to the WAL, syncing the segment iff a reply
    /// acknowledges the record. `false` if it has no durable form.
    fn append(&self, inner: &mut Inner, rec: &Record) -> bool {
        let Some(payload) = self.encode(rec) else {
            return false;
        };
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
        true
    }

    fn sync_wal(&self, inner: &mut Inner) -> io::Result<()> {
        self.wal_syncs.fetch_add(1, Ordering::Relaxed);
        inner.wal.sync()
    }

    /// A universe became warm in the registry cache.
    pub(crate) fn log_warm_universe(&self, spec: &UniverseSpec, key: &UniverseKey) {
        let mut inner = self.lock();
        if inner.universes.contains_key(key) {
            return;
        }
        if self.append(&mut inner, &Record::WarmUniverse { spec: spec.clone() }) {
            inner.universes.insert(key.clone(), spec.clone());
        }
    }

    /// A database is being registered at the front door.
    pub(crate) fn log_register_db(&self, name: &str, db: &Database) {
        let rec = Record::RegisterDb {
            name: name.to_string(),
            db: db.clone(),
        };
        self.append(&mut self.lock(), &rec);
    }

    /// A base-table insert or removal is about to happen (write-ahead:
    /// the caller validated it will succeed, logs, then mutates).
    pub(crate) fn log_base_edit(&self, db: &str, relation: &str, tuple: &Tuple, insert: bool) {
        let rec = Record::BaseEdit {
            insert,
            db: db.to_string(),
            relation: relation.to_string(),
            tuple: tuple.clone(),
        };
        self.append(&mut self.lock(), &rec);
    }

    /// A query became warm at the front door (miss path only; hits
    /// must not pay the O(n) sequence copy). A later record for the
    /// same query — a rebuild after an eviction or a go-cold, a fresh
    /// evaluation order — replaces the earlier one on replay.
    pub(crate) fn log_warm_query(&self, db: &str, spec: &QuerySpec, prepared: &PreparedVariant) {
        let rec = Record::WarmQuery {
            db: db.to_string(),
            entry: WarmQueryRecord::of(spec, prepared, prepared.n()),
        };
        self.append(&mut self.lock(), &rec);
    }

    /// Writes a checkpoint: the live state as a durable snapshot, then
    /// the WAL rotated past it (superseded segments and snapshots are
    /// deleted once the new snapshot is durable). Refused while records
    /// [`Durability::open`] decoded are unapplied (module docs).
    ///
    /// One critical section under the front door's `state` read lock
    /// and then `inner` (the lock order every hook uses): one
    /// `RegisterDb` per database, one `WarmQuery` per warm entry still
    /// resident, the universe index pruned to the cache and written,
    /// the old segment synced and the new one opened — so no record
    /// lands in both the snapshot and the new segment.
    pub fn checkpoint(
        &self,
        registry: &Registry,
        front: &QueryFrontDoor,
    ) -> io::Result<CheckpointReport> {
        let _one_at_a_time = self.ckpt.lock().unwrap_or_else(|p| p.into_inner());
        let (cut_seq, records) = {
            let live = front.live_state();
            let mut inner = self.lock();
            if !inner.pending.is_empty() {
                return Err(io::Error::other(
                    "the data directory holds records not yet recovered",
                ));
            }
            let mut records = Vec::new();
            for (name, db) in live.databases() {
                let (name, db) = (name.to_string(), db.clone());
                records.extend(self.encode(&Record::RegisterDb { name, db }));
            }
            for (db, spec, prepared, base_len) in live.resident_queries() {
                let entry = WarmQueryRecord::of(spec, &prepared, base_len);
                records.extend(self.encode(&Record::WarmQuery { db: db.to_string(), entry }));
            }
            inner.universes.retain(|key, _| registry.cache().contains(key));
            for spec in inner.universes.values() {
                records.extend(self.encode(&Record::WarmUniverse { spec: spec.clone() }));
            }
            let cut_seq = inner.next_seq;
            // Hints at the old segment's tail become durable before a
            // mutation can be acknowledged from the new one: until the
            // snapshot lands, recovery replays both.
            self.sync_wal(&mut inner)?;
            inner.wal = files::WalWriter::create(&self.dir, cut_seq)?;
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
