//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end and the span that caused it. Spans
//! are kept in memory while the run measures and written out once at the
//! end, in Chrome `trace_event` form (loadable in Perfetto or
//! `chrome://tracing`). When tracing is off every call is a no-op, so the
//! untraced run pays nothing for them.

use hintm::Json;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Most spans one run keeps; later ones are counted but dropped.
const MAX_SPANS: usize = 200_000;

struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
    lane: u64,
}

/// An open span: close it with [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open {
    /// The span's id (0 when tracing is off), for children's `parent`.
    pub id: u64,
    start: Instant,
}

/// The span store of one run.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    dropped: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            dropped: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span now.
    pub fn start(&self) -> Open {
        let id = if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        };
        Open {
            id,
            start: Instant::now(),
        }
    }

    /// Closes `open` now under `name`, as a child of span `parent` (0 for
    /// a root) on display lane `lane`.
    pub fn end(&self, open: Open, name: &str, parent: u64, lane: u64) {
        self.record(open.id, name, parent, lane, open.start, Instant::now());
    }

    /// Records a finished span with explicit bounds; `id` 0 allocates one.
    pub fn record(
        &self,
        id: u64,
        name: &str,
        parent: u64,
        lane: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let id = if id == 0 {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            id
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        if spans.len() >= MAX_SPANS {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: ns(start),
            end_ns: ns(end),
            lane,
        });
    }

    /// Writes every kept span to `path` as a Chrome trace, with `meta`
    /// (host record, seed, workload) under `otherData`.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the file cannot be written.
    pub fn write(&self, path: &Path, meta: Vec<(String, Json)>) -> io::Result<usize> {
        let spans = self.spans.lock().expect("span store poisoned");
        let events: Vec<Json> = spans
            .iter()
            .map(|s| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.clone())),
                    ("ph".into(), Json::Str("X".into())),
                    ("ts".into(), Json::f64(s.start_ns as f64 / 1e3)),
                    (
                        "dur".into(),
                        Json::f64(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3),
                    ),
                    ("pid".into(), Json::u64(1)),
                    ("tid".into(), Json::u64(s.lane)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("id".into(), Json::u64(s.id)),
                            ("parent".into(), Json::u64(s.parent)),
                        ]),
                    ),
                ])
            })
            .collect();
        let mut other = meta;
        other.push((
            "dropped_spans".into(),
            Json::u64(self.dropped.load(Ordering::Relaxed)),
        ));
        let doc = Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("otherData".into(), Json::Obj(other)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.to_string())?;
        Ok(spans.len())
    }
}
