//! What one warm frame holds at its peak: an inline universe is read
//! straight from the payload into its key bytes, so neither a JSON tree
//! of it nor its tuples exist on a warm frame's path — payload, then key
//! bytes.
//!
//! One in-process [`Service`], one worker, one 20 000-row coreset
//! `serve` frame sent twice over a real socket. The second (warm) frame
//! prepares nothing, so the live bytes and the allocations it adds on
//! top of the resident state are the frame's own. Its peak must stay
//! below the universe's tuples alone, which the frame path built before
//! it read rows into key bytes (2.53 MB at its peak then, against
//! 1.28 MB of tuples); and it must allocate a handful of times, not once
//! a row.
//!
//! The cold frame that precedes it leaves one coreset entry resident,
//! and that entry holds the universe's rows once: as the cache key's own
//! bytes, beside `O(n)` float columns and the `m × m` matrix — no tuple
//! and no exact score per row (3.9 MB resident when it held both).
//!
//! Live bytes are a property of the process, so this file is its own
//! test binary and its cells share one measurement, taken once; the
//! counts are `Layout` sizes and calls, the same in debug and release
//! builds.

use divr_service::json::{self, Value};
use divr_service::proto::{read_frame, write_frame};
use divr_service::{wire, Service, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
/// Calls that asked the allocator for a block (`alloc`, `alloc_zeroed`,
/// `realloc`).
static CALLS: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    CALLS.fetch_add(1, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

struct Metering;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the two counters touch no
// allocator state.
unsafe impl GlobalAlloc for Metering {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Old and new block may both exist while the bytes move.
        grew(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: Metering = Metering;

fn live() -> usize {
    LIVE.load(Ordering::Relaxed)
}

const N: i64 = 20_000;
/// The frame's coreset budget `m`.
const M: usize = 256;

/// A `serve` frame over `N` tuples `[position, score]` in coreset mode.
fn frame_text() -> String {
    let tuples: Vec<String> = (0..N)
        .map(|i| format!("[{},{}]", (i * 7919) % 1_000_003, i % 11))
        .collect();
    format!(
        r#"{{"op":"serve","tenant":"t","universe":{{"tuples":[{}],"relevance":{{"kind":"attribute","attr":1}},"distance":{{"kind":"numeric","attr":0}},"lambda":[1,2],"coreset":{{"budget":{M}}}}},"requests":[{{"objective":"max_sum","k":10}},{{"objective":"max_min","k":10}}]}}"#,
        tuples.join(","),
        M = M
    )
}

/// One warm frame, measured once for every cell of this file.
struct WarmFrame {
    /// Live bytes the warm frame added at its peak.
    peak: usize,
    /// Allocator calls the warm frame made.
    calls: usize,
    /// The frame's universe as tuples, decoded from its JSON tree.
    universe: usize,
    /// Live bytes the cold frame left behind: the resident entry.
    cold_resident: usize,
    /// The universe's rows in their canonical encoding.
    rows: usize,
}

fn warm_frame() -> &'static WarmFrame {
    static MEASURED: OnceLock<WarmFrame> = OnceLock::new();
    MEASURED.get_or_init(|| {
        let text = frame_text();

        // The size the peak is bounded by, measured while no other
        // thread allocates (a second cell waits on this lock).
        let tree = json::parse(&text).unwrap();
        let rows = tree.get("universe").and_then(|u| u.get("tuples")).unwrap();
        let before = live();
        let tuples: Vec<_> =
            rows.as_array().unwrap().iter().map(|row| wire::tuple_from_json(row).unwrap()).collect();
        let universe = live() - before;
        assert_eq!(tuples.len(), N as usize);
        let mut encoded = divr_core::ByteWriter::new();
        encoded.write_tuples(&tuples);
        let rows = encoded.bytes().len();
        drop((tuples, tree, encoded));

        let service = Service::start(ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        })
        .unwrap();
        let mut stream = TcpStream::connect(service.local_addr()).unwrap();
        let send = |stream: &mut TcpStream| {
            write_frame(stream, text.as_bytes()).unwrap();
            let reply = read_frame(stream, 1 << 20).unwrap().expect("a reply frame");
            let reply = json::parse(std::str::from_utf8(&reply).unwrap()).unwrap();
            let ok = reply.get("ok").and_then(Value::as_bool);
            assert_eq!(ok, Some(true), "{}", reply.to_json());
        };

        // Cold: selects the coreset and leaves it resident.
        let idle = live();
        send(&mut stream);
        // Warm: everything allocated from here on is the frame's own.
        let resident = live();
        PEAK.store(resident, Ordering::Relaxed);
        let calls = CALLS.load(Ordering::Relaxed);
        send(&mut stream);
        let measured = WarmFrame {
            peak: PEAK.load(Ordering::Relaxed) - resident,
            calls: CALLS.load(Ordering::Relaxed) - calls,
            universe,
            cold_resident: resident - idle,
            rows,
        };
        service.shutdown();
        println!(
            "warm frame: peak {} B, {} allocator calls; the universe's tuples {} B; \
             the cold frame left {} B resident over {} B of rows",
            measured.peak, measured.calls, measured.universe, measured.cold_resident, measured.rows
        );
        measured
    })
}

#[test]
fn a_warm_frame_peaks_below_the_universe_alone() {
    let frame = warm_frame();
    assert!(
        frame.peak < frame.universe,
        "a warm frame peaked at {} B, above the {} B of tuples it no longer builds",
        frame.peak,
        frame.universe
    );
}

#[test]
fn a_warm_frame_allocates_far_fewer_times_than_it_has_rows() {
    let calls = warm_frame().calls;
    assert!(
        calls < N as usize / 100,
        "a warm frame over {N} rows made {calls} allocator calls: rows allocate again"
    );
}

#[test]
fn a_coreset_entry_holds_its_rows_once() {
    let frame = warm_frame();
    let bound = frame.rows + N as usize * 40 + M * M * 8 + (64 << 10);
    assert!(
        frame.cold_resident <= bound,
        "the cold frame left {} B resident, above {bound} B: the rows once ({} B), \
         40 B a row and the {M} × {M} matrix",
        frame.cold_resident,
        frame.rows
    );
}
