//! On-disk formats and fsync discipline.
//!
//! Two file kinds live in the data directory:
//!
//! * `wal-<seq>.log` — an append-only segment: an 16-byte header
//!   (`DIVRWAL1` magic + `u64` seq) followed by CRC-framed records,
//!   each `[len:u32][crc32:u32][payload]`. Every append is one
//!   `write_all` + `sync_data`, so a record is either durably whole or
//!   detectably torn — the reader stops at the first frame whose length
//!   or checksum disagrees and reports the tail as torn.
//! * `snapshot-<seq>.snap` — a checkpoint: `DIVRSNP1` magic + the
//!   `u64` cut sequence (the first WAL segment *not* covered by this
//!   snapshot), CRC-framed records, then an end-marker frame carrying
//!   the record count. A snapshot missing its end marker — a torn write
//!   that `rename(2)` should have made impossible — is invalid in its
//!   entirety; recovery falls back to the next-older snapshot.
//!
//! Snapshots are written to a temp file, `fsync`ed, renamed into place,
//! and the directory is `fsync`ed — the atomic-publish discipline.
//! Crash points (`DIVR_CRASH_POINT`) abort the process at the seams
//! between those steps so the recovery matrix can exercise every torn
//! state a real crash could leave behind.

use divr_core::{crc32, ByteReader, ByteWriter};
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

pub(super) const WAL_MAGIC: &[u8; 8] = b"DIVRWAL1";
pub(super) const SNAP_MAGIC: &[u8; 8] = b"DIVRSNP1";

/// Whether the crash-injection env var selects this abort point.
fn crash_point_is(point: &str) -> bool {
    std::env::var("DIVR_CRASH_POINT").as_deref() == Ok(point)
}

/// Aborts the process (no unwinding, no destructors — as close to
/// `SIGKILL` as the process can do to itself) when the crash-injection
/// env var names this point.
pub(super) fn maybe_crash(point: &str) {
    if crash_point_is(point) {
        std::process::abort();
    }
}

/// `fsync` on the directory itself — renames and creations are
/// directory mutations and are only durable once the directory inode
/// is.
fn sync_dir(dir: &Path) -> io::Result<()> {
    File::open(dir)?.sync_all()
}

pub(super) fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:016}.log"))
}

pub(super) fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snapshot-{seq:016}.snap"))
}

/// One open write-ahead-log segment.
pub(super) struct WalWriter {
    file: File,
}

impl WalWriter {
    /// Creates segment `seq`, writes its header durably, and makes the
    /// creation itself durable (directory fsync).
    pub(super) fn create(dir: &Path, seq: u64) -> io::Result<WalWriter> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(wal_path(dir, seq))?;
        let mut w = WalWriter { file };
        let mut header = Vec::with_capacity(16);
        header.extend_from_slice(WAL_MAGIC);
        header.extend_from_slice(&seq.to_le_bytes());
        w.file.write_all(&header)?;
        w.file.sync_data()?;
        sync_dir(dir)?;
        Ok(w)
    }

    /// Appends one CRC-framed record to the segment **without**
    /// syncing: it survives the process dying (the page cache does) but
    /// not yet the machine; the next [`WalWriter::sync`] makes it and
    /// everything appended before it durable.
    pub(super) fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        let frame = frame(payload);
        if crash_point_is("wal-append") {
            // A torn append: half the frame reaches the kernel (page
            // cache survives process death), then the process dies
            // before the rest. Recovery must treat it as absent.
            let _ = self.file.write_all(&frame[..frame.len() / 2]);
            let _ = self.file.sync_data();
            std::process::abort();
        }
        self.file.write_all(&frame)
    }

    /// Makes every record appended so far durable — the whole prefix,
    /// in order: `fdatasync` covers the file, not the last write.
    pub(super) fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }
}

/// One record as both file kinds store it: `[len:u32][crc32:u32][payload]`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

fn write_frame(file: &mut File, payload: &[u8]) -> io::Result<usize> {
    let frame = frame(payload);
    file.write_all(&frame)?;
    Ok(frame.len())
}

/// Splits a byte run into CRC-validated frame payloads. `clean` is
/// `false` when a short or checksum-failing frame stopped the scan —
/// everything before it is intact, everything after is untrusted.
pub(super) fn read_frames(mut bytes: &[u8]) -> (Vec<Vec<u8>>, bool) {
    let mut out = Vec::new();
    loop {
        if bytes.is_empty() {
            return (out, true);
        }
        if bytes.len() < 8 {
            return (out, false);
        }
        let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        let Some(rest) = bytes.get(8..) else {
            return (out, false);
        };
        if rest.len() < len {
            return (out, false);
        }
        let payload = &rest[..len];
        if crc32(payload) != crc {
            return (out, false);
        }
        out.push(payload.to_vec());
        bytes = &rest[len..];
    }
}

/// Reads one WAL segment: `Ok(None)` when the header is unreadable
/// (the whole segment is untrusted), otherwise the validated frame
/// payloads plus whether the segment ended cleanly.
#[allow(clippy::type_complexity)]
pub(super) fn read_wal_segment(path: &Path) -> io::Result<Option<(u64, Vec<Vec<u8>>, bool)>> {
    let bytes = fs::read(path)?;
    if bytes.len() < 16 || &bytes[0..8] != WAL_MAGIC {
        return Ok(None);
    }
    let seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let (frames, clean) = read_frames(&bytes[16..]);
    Ok(Some((seq, frames, clean)))
}

/// Writes a snapshot durably: temp file → fsync → rename → directory
/// fsync. Returns the byte size. Never leaves a partial file under the
/// final name.
pub(super) fn write_snapshot(dir: &Path, cut_seq: u64, records: &[Vec<u8>]) -> io::Result<u64> {
    let tmp = dir.join("snapshot.tmp");
    let mut file = File::create(&tmp)?;
    let mut written: u64 = 16;
    let mut header = Vec::with_capacity(16);
    header.extend_from_slice(SNAP_MAGIC);
    header.extend_from_slice(&cut_seq.to_le_bytes());
    file.write_all(&header)?;
    let mid = records.len() / 2;
    for (i, payload) in records.iter().enumerate() {
        if i == mid && crash_point_is("snapshot-mid-write") {
            let _ = file.sync_data();
            std::process::abort();
        }
        written += write_frame(&mut file, payload)? as u64;
    }
    // The end marker proves the snapshot is complete: tag 0 plus the
    // record count. Without it the file is rejected wholesale.
    let mut end = ByteWriter::new();
    end.write_u8(0);
    end.write_u64(records.len() as u64);
    written += write_frame(&mut file, end.bytes())? as u64;
    file.sync_data()?;
    drop(file);
    maybe_crash("snapshot-pre-rename");
    fs::rename(&tmp, snapshot_path(dir, cut_seq))?;
    sync_dir(dir)?;
    maybe_crash("snapshot-post-rename");
    Ok(written)
}

/// Reads and fully validates one snapshot: header, every frame CRC,
/// and the end marker. Any defect returns `Ok(None)` — a snapshot is
/// trusted whole or not at all.
pub(super) fn read_snapshot(path: &Path) -> io::Result<Option<(u64, Vec<Vec<u8>>)>> {
    let bytes = fs::read(path)?;
    if bytes.len() < 16 || &bytes[0..8] != SNAP_MAGIC {
        return Ok(None);
    }
    let cut_seq = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
    let (mut frames, clean) = read_frames(&bytes[16..]);
    if !clean {
        return Ok(None);
    }
    let Some(end) = frames.pop() else {
        return Ok(None);
    };
    let mut r = ByteReader::new(&end);
    match (r.read_u8(), r.read_u64()) {
        (Ok(0), Ok(count)) if count as usize == frames.len() && r.is_empty() => {}
        _ => return Ok(None),
    }
    Ok(Some((cut_seq, frames)))
}

/// What the data directory currently holds.
pub(super) struct DirScan {
    /// Snapshots, newest sequence first.
    pub(super) snapshots: Vec<(u64, PathBuf)>,
    /// WAL segments, ascending sequence.
    pub(super) segments: Vec<(u64, PathBuf)>,
    /// The largest sequence number seen anywhere (0 when empty).
    pub(super) max_seq: u64,
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

pub(super) fn scan_dir(dir: &Path) -> io::Result<DirScan> {
    let mut snapshots = Vec::new();
    let mut segments = Vec::new();
    let mut max_seq = 0u64;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = parse_seq(name, "snapshot-", ".snap") {
            max_seq = max_seq.max(seq);
            snapshots.push((seq, entry.path()));
        } else if let Some(seq) = parse_seq(name, "wal-", ".log") {
            max_seq = max_seq.max(seq);
            segments.push((seq, entry.path()));
        }
    }
    snapshots.sort_by_key(|s| std::cmp::Reverse(s.0));
    segments.sort_by_key(|s| s.0);
    Ok(DirScan {
        snapshots,
        segments,
        max_seq,
    })
}

/// Deletes WAL segments and snapshots made redundant by a durable
/// snapshot at `cut_seq`. Best-effort: a file that will not delete is
/// harmless (recovery ignores superseded sequences) and must not fail
/// the checkpoint that already committed.
pub(super) fn prune_superseded(dir: &Path, cut_seq: u64) {
    let Ok(scan) = scan_dir(dir) else { return };
    for (seq, path) in scan.segments {
        if seq < cut_seq {
            let _ = fs::remove_file(path);
        }
    }
    for (seq, path) in scan.snapshots {
        if seq < cut_seq {
            let _ = fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "divr-files-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn wal_append_and_read_back() {
        let dir = tmpdir("wal");
        let mut w = WalWriter::create(&dir, 7).unwrap();
        w.append(b"alpha").unwrap();
        w.append(b"").unwrap();
        w.append(&[0xFF; 300]).unwrap();
        let (seq, frames, clean) = read_wal_segment(&wal_path(&dir, 7)).unwrap().unwrap();
        assert_eq!(seq, 7);
        assert!(clean);
        assert_eq!(frames, vec![b"alpha".to_vec(), Vec::new(), vec![0xFF; 300]]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_keeps_the_prefix() {
        let dir = tmpdir("torn");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        w.append(b"keep-me").unwrap();
        w.append(b"tear-me").unwrap();
        let path = wal_path(&dir, 1);
        let bytes = fs::read(&path).unwrap();
        // Truncate at every byte position inside the second frame: the
        // first record must always survive, the scan is never clean.
        let second_frame_start = 16 + 8 + b"keep-me".len();
        for cut in second_frame_start + 1..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let (_, frames, clean) = read_wal_segment(&path).unwrap().unwrap();
            assert_eq!(frames, vec![b"keep-me".to_vec()], "cut at {cut}");
            assert!(!clean);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_byte_invalidates_exactly_one_suffix() {
        let dir = tmpdir("flip");
        let mut w = WalWriter::create(&dir, 1).unwrap();
        w.append(b"first").unwrap();
        w.append(b"second").unwrap();
        let path = wal_path(&dir, 1);
        let bytes = fs::read(&path).unwrap();
        // Flip one payload byte of the first frame: CRC catches it and
        // the whole tail (including the intact second frame) is
        // dropped — consistent prefix, never a resurrected suffix.
        let mut corrupt = bytes.clone();
        corrupt[16 + 8] ^= 0x01;
        fs::write(&path, &corrupt).unwrap();
        let (_, frames, clean) = read_wal_segment(&path).unwrap().unwrap();
        assert!(frames.is_empty());
        assert!(!clean);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_round_trip_and_total_rejection() {
        let dir = tmpdir("snap");
        let records = vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()];
        write_snapshot(&dir, 9, &records).unwrap();
        let path = snapshot_path(&dir, 9);
        let (cut, loaded) = read_snapshot(&path).unwrap().unwrap();
        assert_eq!(cut, 9);
        assert_eq!(loaded, records);
        // Any truncation invalidates the whole snapshot (missing end
        // marker), not just a suffix.
        let bytes = fs::read(&path).unwrap();
        for cut in 0..bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            assert!(read_snapshot(&path).unwrap().is_none(), "cut at {cut}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_orders_and_prunes() {
        let dir = tmpdir("scan");
        WalWriter::create(&dir, 3).unwrap();
        WalWriter::create(&dir, 1).unwrap();
        write_snapshot(&dir, 2, &[]).unwrap();
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(
            scan.segments.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(scan.snapshots[0].0, 2);
        assert_eq!(scan.max_seq, 3);
        prune_superseded(&dir, 2);
        let scan = scan_dir(&dir).unwrap();
        assert_eq!(
            scan.segments.iter().map(|s| s.0).collect::<Vec<_>>(),
            vec![3]
        );
        assert_eq!(scan.snapshots.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
