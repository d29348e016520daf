//! What one frame holds at its peak: an inline universe is read straight
//! from the payload into tuples, so no tree of it exists on the frame
//! path — payload, then tuples.
//!
//! One in-process [`Service`], one worker, one 20 000-row coreset
//! `serve` frame sent twice over a real socket. The second (warm) frame
//! prepares nothing, so the live bytes it adds on top of the resident
//! state are the frame's own: they must peak above the decoded universe
//! it has to build and below the JSON tree of the frame alone, which the
//! frame path used to build first (3.93 MB at its peak then, against a
//! 3.61 MB tree).
//!
//! Live bytes are a property of the process, so this file holds exactly
//! one test and is its own test binary; the counts are `Layout` sizes,
//! the same in debug and release builds.

use divr_service::json::{self, Value};
use divr_service::proto::{read_frame, write_frame};
use divr_service::{wire, Service, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
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

/// A `serve` frame over `N` tuples `[position, score]` in coreset mode.
fn frame_text() -> String {
    let tuples: Vec<String> = (0..N)
        .map(|i| format!("[{},{}]", (i * 7919) % 1_000_003, i % 11))
        .collect();
    format!(
        r#"{{"op":"serve","tenant":"t","universe":{{"tuples":[{}],"relevance":{{"kind":"attribute","attr":1}},"distance":{{"kind":"numeric","attr":0}},"lambda":[1,2],"coreset":{{"budget":256}}}},"requests":[{{"objective":"max_sum","k":10}},{{"objective":"max_min","k":10}}]}}"#,
        tuples.join(",")
    )
}

#[test]
fn a_warm_frame_peaks_below_the_tree_alone() {
    let text = frame_text();

    // The two sizes the bounds are stated in, measured on this thread
    // before any other thread exists.
    let before = live();
    let tree = json::parse(&text).unwrap();
    let tree_bytes = live() - before;
    let before = live();
    let spec = wire::universe_from_json(tree.get("universe").unwrap()).unwrap();
    let universe_bytes = live() - before;
    assert_eq!(spec.universe().len(), N as usize);
    drop((spec, tree));

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
        assert_eq!(reply.get("ok").and_then(Value::as_bool), Some(true), "{}", reply.to_json());
    };

    // Cold: selects the coreset and leaves it resident.
    send(&mut stream);
    // Warm: everything allocated from here on is the frame's own.
    let resident = live();
    PEAK.store(resident, Ordering::Relaxed);
    send(&mut stream);
    let frame_peak = PEAK.load(Ordering::Relaxed) - resident;
    println!("warm frame peak {frame_peak} B; tree {tree_bytes} B, universe {universe_bytes} B");

    assert!(
        frame_peak > universe_bytes,
        "a warm frame decodes its universe ({universe_bytes} B) yet peaked at {frame_peak} B"
    );
    assert!(
        frame_peak < tree_bytes,
        "a warm frame peaked at {frame_peak} B, above the JSON tree of the frame \
         ({tree_bytes} B) it no longer builds"
    );
    service.shutdown();
}
