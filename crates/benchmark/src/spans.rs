//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls into
//! each layer; nothing inside the engines is instrumented. Each thread
//! records into its own [`Track`] (no lock on the hot path) and hands the
//! spans to the shared [`Recorder`] when the track is dropped. The
//! recorder writes them out once, when the run ends.

use cannikin::telemetry::Json;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span. `id` is unique within the recorder; `parent` is the
/// id of the span that caused this one, on this track or — for the first
/// span of a spawned thread — on the track that spawned it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub name: &'static str,
    pub thread: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Collects the spans of every track of one traced run.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A track for the calling thread; `thread` labels its spans and
    /// `parent` is the span, on another track, that caused them.
    pub fn track(&self, thread: u32, parent: Option<usize>) -> Track<'_> {
        Track {
            recorder: self,
            thread,
            root: parent,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Every span of every dropped track, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self.spans.lock().expect("a track panicked while merging").clone();
        spans.sort_by_key(|s| s.id);
        spans
    }

    /// Write one JSON object per span: id, parent, thread, name, start,
    /// end and the workload the spans belong to.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans() {
            let line = Json::Obj(vec![
                ("workload".into(), Json::Str(workload.into())),
                ("id".into(), Json::num(span.id as f64)),
                ("parent".into(), span.parent.map_or(Json::Null, |p| Json::num(p as f64))),
                ("thread".into(), Json::num(f64::from(span.thread))),
                ("name".into(), Json::Str(span.name.into())),
                ("start_ns".into(), Json::num(span.start_ns as f64)),
                ("end_ns".into(), Json::num(span.end_ns as f64)),
            ]);
            writeln!(out, "{}", line.to_string_compact())?;
        }
        out.flush()
    }
}

/// One thread's span stack. Spans nest by closure scope.
pub struct Track<'r> {
    recorder: &'r Recorder,
    thread: u32,
    root: Option<usize>,
    spans: Vec<Span>,
    /// Positions in `spans` of the spans still open, outermost first.
    open: Vec<usize>,
}

impl Track<'_> {
    /// Run `f` inside a span named `name`, child of the innermost open
    /// span of this track.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        // The counter only hands out distinct ids; it publishes no data.
        let id = self.recorder.next_id.fetch_add(1, Ordering::Relaxed);
        let at = self.spans.len();
        let start_ns = self.recorder.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            thread: self.thread,
            start_ns,
            end_ns: start_ns,
            parent: self.current(),
        });
        self.open.push(at);
        let out = f(self);
        self.open.pop();
        self.spans[at].end_ns = self.recorder.origin.elapsed().as_nanos() as u64;
        out
    }

    /// Id of the innermost open span: the parent to give a track on a
    /// thread spawned from here.
    pub fn current(&self) -> Option<usize> {
        self.open.last().map(|&at| self.spans[at].id).or(self.root)
    }

    /// Durations, s, of this track's closed spans named `name`.
    pub fn seconds_of(&self, name: &str) -> Vec<f64> {
        durations(&self.spans, name)
    }
}

/// Run `f` inside a span of `track` when there is one (the traced run)
/// and bare when there is none (the untraced run), so one loop serves
/// both.
pub fn in_span<'r, R>(
    track: Option<&mut Track<'r>>,
    name: &'static str,
    f: impl FnOnce(Option<&mut Track<'r>>) -> R,
) -> R {
    match track {
        Some(t) => t.span(name, |t| f(Some(t))),
        None => f(None),
    }
}

impl Drop for Track<'_> {
    fn drop(&mut self) {
        // A poisoned lock means another track panicked; the run is lost
        // anyway and Drop must not panic a second time.
        if let Ok(mut all) = self.recorder.spans.lock() {
            all.append(&mut self.spans);
        }
    }
}

/// Self time of every span, ns: its duration minus the part of that
/// interval its child spans cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: HashMap<usize, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(&p) = span.parent.and_then(|id| index.get(&id)) {
            let (lo, hi) = (span.start_ns.max(spans[p].start_ns), span.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start_ns);
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Durations, s, of every span named `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::seconds).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            id,
            name: "s",
            thread: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span(7, 0, 100, None),
            span(8, 10, 30, Some(7)),
            span(9, 20, 50, Some(7)), // overlaps the first child: union is 10..50
            span(11, 60, 70, Some(7)),
            span(12, 25, 28, Some(9)),
            span(13, 90, 120, Some(7)), // sticks out of the parent: clipped to 90..100
            span(14, 0, 5, Some(99)),   // parent on a track not merged yet
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10 - 10, 20, 30 - 3, 10, 3, 30, 5]);
    }

    #[test]
    fn tracks_nest_and_spawned_threads_hang_under_their_cause() {
        let recorder = Recorder::new();
        {
            let mut a = recorder.track(0, None);
            a.span("outer", |t| {
                t.span("inner", |_| ());
                let cause = t.current();
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let mut b = recorder.track(1, cause);
                        b.span("rank", |t| t.span("leaf", |_| ()));
                    });
                });
                assert_eq!(recorder.spans().len(), 2, "the spawned track merged when it dropped");
            });
            assert_eq!(a.seconds_of("inner").len(), 1);
        }
        let spans = recorder.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.id, s.name, s.thread, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                (0, "outer", 0, None),
                (1, "inner", 0, Some(0)),
                (2, "rank", 1, Some(0)),
                (3, "leaf", 1, Some(2))
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
        assert_eq!(self_times(&spans).len(), 4);
    }
}
