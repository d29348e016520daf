//! Spans recorded from the benchmark's own files: `{name, frame_id,
//! parent, start_ns, end_ns}` pushed to an in-memory `Vec` and written
//! out when the run ends. A layer's number is the median over frames
//! of its span's *self* time — duration minus what child spans cover.

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub frame_id: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// What the tracers of one traced run share: the epoch, so their
/// timestamps are comparable, and the next unused lane, so no two of
/// them can hand out the same span id however many threads or phases
/// the run has.
pub struct Clock {
    epoch: Instant,
    next_lane: AtomicU32,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            epoch: Instant::now(),
            next_lane: AtomicU32::new(0),
        }
    }

    /// A recorder on a lane of its own: 16 M span ids no other tracer
    /// of this clock hands out.
    pub fn tracer(&self) -> Tracer {
        let lane = self.next_lane.fetch_add(1, Ordering::Relaxed);
        assert!(lane < 1 << 8, "a traced run has at most 256 tracers");
        Tracer {
            epoch: self.epoch,
            base: lane << 24,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

/// One thread's span recorder. Ids are `base + index`, so recorders
/// of one [`Clock`] merge into one file without renumbering.
pub struct Tracer {
    epoch: Instant,
    base: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under whichever span is open on this
    /// tracer; pair with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, frame_id: u32) -> usize {
        let index = self.spans.len();
        let id = self.base + index as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            frame_id,
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[index].start_ns = self.now_ns();
        self.spans[index].end_ns = self.spans[index].start_ns;
        index
    }

    /// Closes the span `enter` returned `index` for.
    pub fn exit(&mut self, index: usize) {
        self.spans[index].end_ns = self.now_ns();
        self.open.pop();
    }

    /// Runs `f` as a span named `name` and returns `f`'s result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        frame_id: u32,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.enter(name, frame_id);
        let result = f(self);
        self.exit(index);
        result
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time of every span, in input order: its duration minus the
/// part of its interval its direct children cover. Children are
/// clipped to the parent and overlapping children are counted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index_of: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(&p) = s.parent.as_ref().and_then(|p| index_of.get(p)) {
            let start = s.start_ns.max(spans[p].start_ns);
            let end = s.end_ns.min(spans[p].end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Runs `f` as a span when there is a tracer, plainly when not — for
/// code that runs both traced and untraced.
pub fn maybe_span<R>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    frame_id: u32,
    f: impl FnOnce() -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, frame_id, |_| f()),
        None => f(),
    }
}

/// The root span (`parent == None`) each span hangs under.
fn root_names(spans: &[Span]) -> Vec<&'static str> {
    let index_of: BTreeMap<u32, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    spans
        .iter()
        .map(|s| {
            let mut at = s;
            while let Some(&p) = at.parent.as_ref().and_then(|p| index_of.get(p)) {
                at = &spans[p];
            }
            at.name
        })
        .collect()
}

/// Self times aggregated once over a run's spans: per `(root, layer)`,
/// the self time each frame spent in spans of that name under a root
/// of that name.
pub struct LayerTable {
    per_frame: BTreeMap<(&'static str, &'static str), BTreeMap<u32, u64>>,
}

impl LayerTable {
    pub fn of(spans: &[Span]) -> LayerTable {
        let mut per_frame: BTreeMap<_, BTreeMap<u32, u64>> = BTreeMap::new();
        let roots = root_names(spans);
        for ((s, own), root) in spans.iter().zip(self_times(spans)).zip(roots) {
            *per_frame
                .entry((root, s.name))
                .or_default()
                .entry(s.frame_id)
                .or_default() += own;
        }
        LayerTable { per_frame }
    }

    /// Median over frames, in ns, of the summed self time of the spans
    /// named `name` under a root named `root`; `None` if no frame has
    /// such a span.
    pub fn self_ns(&self, root: &str, name: &str) -> Option<f64> {
        let (_, frames) = self
            .per_frame
            .iter()
            .find(|((r, n), _)| *r == root && *n == name)?;
        let mut values: Vec<f64> = frames.values().map(|&v| v as f64).collect();
        stats::median(&mut values)
    }
}

/// Median duration, in ns, of the root spans named `root`.
pub fn root_duration_ns(spans: &[Span], root: &str) -> Option<f64> {
    let mut values: Vec<f64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|s| (s.end_ns - s.start_ns) as f64)
        .collect();
    stats::median(&mut values)
}

/// One JSON object per line, in recording order.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"frame_id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.name, s.frame_id, parent, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        frame_id: u32,
        t: (u64, u64),
    ) -> Span {
        Span {
            id,
            parent,
            name,
            frame_id,
            start_ns: t.0,
            end_ns: t.1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(0, None, "frame", 0, (0, 100)),
            // Two adjacent children…
            span(1, Some(0), "parse", 0, (10, 30)),
            span(2, Some(0), "gate", 0, (30, 70)),
            // …one of which has a child of its own.
            span(3, Some(2), "key", 0, (40, 60)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 20, 20]);
        // Self times of a tree sum to its root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            span(0, None, "frame", 0, (100, 200)),
            span(1, Some(0), "a", 0, (110, 150)),
            span(2, Some(0), "b", 0, (140, 160)), // overlaps a by 10
            span(3, Some(0), "c", 0, (190, 250)), // overhangs the parent
        ];
        // Covered: 110..160 (50) + 190..200 (10).
        assert_eq!(self_times(&spans)[0], 40);
    }

    #[test]
    fn layer_numbers_are_medians_over_frames_per_root() {
        let mut spans = Vec::new();
        for (frame, key_ns) in [(0u32, 10u64), (1, 30), (2, 20)] {
            let id = frame * 10;
            spans.push(span(id, None, "frame", frame, (0, 100)));
            // The same layer twice in one frame is summed for that frame.
            spans.push(span(id + 1, Some(id), "key", frame, (0, key_ns)));
            spans.push(span(id + 2, Some(id), "key", frame, (50, 50 + key_ns)));
            spans.push(span(id + 3, None, "decomp", frame, (100, 200)));
            spans.push(span(id + 4, Some(id + 3), "key", frame, (100, 101)));
        }
        let table = LayerTable::of(&spans);
        assert_eq!(table.self_ns("frame", "key"), Some(40.0));
        assert_eq!(table.self_ns("decomp", "key"), Some(1.0));
        assert_eq!(table.self_ns("frame", "absent"), None);
        assert_eq!(root_duration_ns(&spans, "frame"), Some(100.0));
    }

    #[test]
    fn tracer_nests_by_call_structure() {
        let clock = Clock::start();
        for _ in 0..3 {
            clock.tracer();
        }
        let mut t = clock.tracer();
        let out = t.span("frame", 7, |t| {
            t.span("parse", 7, |_| ());
            t.span("gate", 7, |t| t.span("key", 7, |_| 42))
        });
        assert_eq!(out, 42);
        let spans = t.into_spans();
        let base = 3 << 24;
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.id, s.parent)).collect();
        assert_eq!(
            shape,
            vec![
                ("frame", base, None),
                ("parse", base + 1, Some(base)),
                ("gate", base + 2, Some(base)),
                ("key", base + 3, Some(base + 2)),
            ]
        );
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.frame_id == 7));
    }
}
