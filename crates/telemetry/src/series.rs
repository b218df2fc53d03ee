//! In-memory time series over the event stream: ring-buffer storage,
//! windowed aggregation, quantile queries, and Prometheus-style text
//! exposition.
//!
//! The store is deliberately *outside* the hot path: training code keeps
//! emitting through the recorder's thread-local buffers (a single relaxed
//! atomic load when telemetry is off), and a [`SeriesRecorder`] subscriber
//! folds flushed batches into a [`SeriesStore`] on the emitting thread's
//! flush boundary. Nothing here allocates per `emit` call.
//!
//! Three point kinds are supported, keyed by `(metric name, label set)`:
//!
//! - **counters** — monotone totals (`fleet_admissions_total{job="…"}`),
//!   with a ring of recent cumulative values for windowed rates;
//! - **gauges** — last-value-wins samples with a ring of recent values
//!   (`fleet_queue_depth`, `fleet_job_granted{job="…"}`);
//! - **histograms** — fixed-bucket [`Histogram`]s with quantile queries
//!   (`fleet_queue_wait_seconds`), rendered as Prometheus summaries.
//!
//! Everything the store exposes is a pure function of the ingested record
//! sequence — no wall-clock reads — so same-seed runs render byte-identical
//! expositions.
//!
//! ## Example
//!
//! ```
//! use cannikin_telemetry::series::{Labels, SeriesStore};
//!
//! let store = SeriesStore::new(256);
//! let job = Labels::new().with("job", "cifar-0");
//! store.counter_add("fleet_admissions_total", job.clone(), 1.0);
//! store.gauge_set("fleet_job_granted", job.clone(), 3.0);
//! assert_eq!(store.last("fleet_job_granted", &job), Some(3.0));
//! let text = store.render_prometheus();
//! assert!(text.contains("fleet_admissions_total{job=\"cifar-0\"} 1"));
//! ```

use crate::event::{Event, Record};
use crate::hist::Histogram;
use crate::recorder::{subscribe, Subscriber, SubscriberGuard};
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// A sorted, deduplicated label set (`{job="cifar-0",node="a100-1"}`).
///
/// Labels are kept sorted by key so equal sets compare equal regardless
/// of insertion order, and so the Prometheus rendering is deterministic.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    /// The empty label set.
    pub fn new() -> Labels {
        Labels(Vec::new())
    }

    /// Add (or replace) one label, keeping keys sorted.
    pub fn with(mut self, key: impl Into<String>, value: impl Into<String>) -> Labels {
        let key = key.into();
        let value = value.into();
        match self.0.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (key, value)),
        }
        self
    }

    /// Look one label up by key.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0.binary_search_by(|(k, _)| k.as_str().cmp(key)).ok().map(|i| self.0[i].1.as_str())
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Prometheus exposition form: `{k="v",…}`, or `""` when empty. An
    /// extra pair (the `quantile` pseudo-label) can be appended.
    fn render(&self, extra: Option<(&str, &str)>) -> String {
        let mut pairs: Vec<(&str, &str)> = self.0.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        if let Some(pair) = extra {
            pairs.push(pair);
        }
        if pairs.is_empty() {
            return String::new();
        }
        let mut out = String::from("{");
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        out.push('}');
        out
    }
}

fn escape_label(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Aggregates over the most recent samples of one series
/// (see [`SeriesStore::window`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Samples in the window (≤ requested, ≤ ring capacity).
    pub count: usize,
    /// Smallest sample in the window.
    pub min: f64,
    /// Largest sample in the window.
    pub max: f64,
    /// Mean of the window.
    pub mean: f64,
    /// Sum of the window.
    pub sum: f64,
    /// Most recent sample.
    pub last: f64,
}

/// Fixed-capacity ring of `(ingest sequence, value)` samples.
#[derive(Debug)]
struct Ring {
    cap: usize,
    samples: VecDeque<(u64, f64)>,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring { cap, samples: VecDeque::with_capacity(cap.min(64)) }
    }

    fn push(&mut self, seq: u64, value: f64) {
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back((seq, value));
    }

    fn last(&self) -> Option<f64> {
        self.samples.back().map(|&(_, v)| v)
    }

    fn window(&self, last_n: usize) -> Option<WindowStats> {
        let n = last_n.min(self.samples.len());
        if n == 0 {
            return None;
        }
        let tail = self.samples.iter().skip(self.samples.len() - n).map(|&(_, v)| v);
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        let mut sum = 0.0;
        let mut last = 0.0;
        for v in tail {
            min = min.min(v);
            max = max.max(v);
            sum += v;
            last = v;
        }
        Some(WindowStats { count: n, min, max, mean: sum / n as f64, sum, last })
    }

    /// Nearest-rank quantile over the newest `last_n` samples.
    fn quantile(&self, q: f64, last_n: usize) -> Option<f64> {
        let n = last_n.min(self.samples.len());
        if n == 0 {
            return None;
        }
        let mut values: Vec<f64> =
            self.samples.iter().skip(self.samples.len() - n).map(|&(_, v)| v).collect();
        values.sort_by(f64::total_cmp);
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        Some(values[rank - 1])
    }
}

#[derive(Debug)]
enum SeriesData {
    Counter { total: f64, ring: Ring },
    Gauge { ring: Ring },
    Hist(Histogram),
}

impl SeriesData {
    fn type_name(&self) -> &'static str {
        match self {
            SeriesData::Counter { .. } => "counter",
            SeriesData::Gauge { .. } => "gauge",
            SeriesData::Hist(_) => "summary",
        }
    }
}

/// One series' identity and per-series update count.
#[derive(Debug)]
struct Entry {
    data: SeriesData,
    /// Samples ever written, independent of ring capacity.
    updates: u64,
}

struct Inner {
    capacity: usize,
    seq: u64,
    series: BTreeMap<(String, Labels), Entry>,
}

/// The ring-buffer time-series store. Cheap interior mutability via one
/// `parking_lot` mutex: writes happen on subscriber flush boundaries, not
/// per event, so contention is negligible.
pub struct SeriesStore {
    inner: Mutex<Inner>,
}

impl SeriesStore {
    /// Default per-series ring capacity.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A store whose rings hold the newest `capacity` samples per series.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> SeriesStore {
        assert!(capacity > 0, "series ring capacity must be positive");
        SeriesStore { inner: Mutex::new(Inner { capacity, seq: 0, series: BTreeMap::new() }) }
    }

    /// Add `delta` to a counter series (creating it at zero). Non-finite
    /// deltas, and calls against an existing series of a different kind,
    /// are ignored.
    pub fn counter_add(&self, name: &str, labels: Labels, delta: f64) {
        if !delta.is_finite() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;
        let capacity = inner.capacity;
        let entry = inner
            .series
            .entry((name.to_string(), labels))
            .or_insert_with(|| Entry { data: SeriesData::Counter { total: 0.0, ring: Ring::new(capacity) }, updates: 0 });
        if let SeriesData::Counter { total, ring } = &mut entry.data {
            *total += delta;
            let cumulative = *total;
            ring.push(seq, cumulative);
            entry.updates += 1;
        }
    }

    /// Set a gauge series to `value`. Non-finite values, and calls against
    /// an existing series of a different kind, are ignored.
    pub fn gauge_set(&self, name: &str, labels: Labels, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let seq = inner.seq;
        let capacity = inner.capacity;
        let entry = inner
            .series
            .entry((name.to_string(), labels))
            .or_insert_with(|| Entry { data: SeriesData::Gauge { ring: Ring::new(capacity) }, updates: 0 });
        if let SeriesData::Gauge { ring } = &mut entry.data {
            ring.push(seq, value);
            entry.updates += 1;
        }
    }

    /// Record one observation into a histogram series (exponential
    /// buckets from 1 µs, ×2, 32 buckets — microseconds to hours).
    /// Non-finite values, and calls against an existing series of a
    /// different kind, are ignored.
    pub fn observe(&self, name: &str, labels: Labels, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut inner = self.inner.lock();
        inner.seq += 1;
        let entry = inner
            .series
            .entry((name.to_string(), labels))
            .or_insert_with(|| Entry { data: SeriesData::Hist(Histogram::exponential(1e-6, 2.0, 32)), updates: 0 });
        if let SeriesData::Hist(hist) = &mut entry.data {
            hist.record(value);
            entry.updates += 1;
        }
    }

    /// A counter's running total.
    pub fn counter_total(&self, name: &str, labels: &Labels) -> Option<f64> {
        let inner = self.inner.lock();
        match inner.series.get(&(name.to_string(), labels.clone()))?.data {
            SeriesData::Counter { total, .. } => Some(total),
            _ => None,
        }
    }

    /// The most recent value of a counter (cumulative) or gauge series.
    pub fn last(&self, name: &str, labels: &Labels) -> Option<f64> {
        let inner = self.inner.lock();
        match &inner.series.get(&(name.to_string(), labels.clone()))?.data {
            SeriesData::Counter { ring, .. } | SeriesData::Gauge { ring } => ring.last(),
            SeriesData::Hist(h) => h.mean(),
        }
    }

    /// Samples ever written into a series (not capped by ring capacity).
    pub fn updates(&self, name: &str, labels: &Labels) -> Option<u64> {
        let inner = self.inner.lock();
        inner.series.get(&(name.to_string(), labels.clone())).map(|e| e.updates)
    }

    /// Windowed aggregates over the newest `last_n` samples of a counter
    /// or gauge ring (`None` for histograms or unknown series).
    pub fn window(&self, name: &str, labels: &Labels, last_n: usize) -> Option<WindowStats> {
        let inner = self.inner.lock();
        match &inner.series.get(&(name.to_string(), labels.clone()))?.data {
            SeriesData::Counter { ring, .. } | SeriesData::Gauge { ring } => ring.window(last_n),
            SeriesData::Hist(_) => None,
        }
    }

    /// The `q`-quantile of a series: interpolated for histogram series,
    /// nearest-rank over the retained ring for counters/gauges.
    pub fn quantile(&self, name: &str, labels: &Labels, q: f64) -> Option<f64> {
        let inner = self.inner.lock();
        match &inner.series.get(&(name.to_string(), labels.clone()))?.data {
            SeriesData::Counter { ring, .. } | SeriesData::Gauge { ring } => ring.quantile(q, usize::MAX),
            SeriesData::Hist(h) => h.quantile(q),
        }
    }

    /// Distinct metric names, sorted.
    pub fn names(&self) -> Vec<String> {
        let inner = self.inner.lock();
        let mut names: Vec<String> = inner.series.keys().map(|(n, _)| n.clone()).collect();
        names.dedup();
        names
    }

    /// Fold one record into the store. This is the event→series mapping
    /// the [`SeriesRecorder`] subscriber applies online; offline analyses
    /// can feed a drained trace through it to reconstruct the same store.
    pub fn ingest(&self, record: &Record) {
        match &record.event {
            Event::StepTiming(e) => {
                let rank = Labels::new().with("rank", e.rank.to_string());
                self.observe("step_compute_seconds", rank.clone(), e.t_compute);
                self.observe("step_comm_seconds", rank, e.t_comm);
            }
            Event::AllReduceBucket(e) => {
                self.observe("all_reduce_seconds", Labels::new(), e.wall_ns as f64 * 1e-9);
            }
            Event::SolverInvocation(e) => {
                self.observe("solver_seconds", Labels::new(), e.wall_ns as f64 * 1e-9);
            }
            Event::GnsEstimated(e) => {
                self.gauge_set("gns_b_noise", Labels::new(), e.b_noise);
            }
            Event::GoodputEval(e) => {
                self.gauge_set("goodput_predicted", Labels::new(), e.goodput);
                self.gauge_set("batch_total", Labels::new(), e.total as f64);
            }
            Event::FleetDecision(e) => {
                self.counter_add("fleet_decisions_total", Labels::new(), 1.0);
                self.counter_add("fleet_reassigned_total", Labels::new(), f64::from(e.reassigned));
                self.gauge_set("fleet_running", Labels::new(), f64::from(e.running));
                self.gauge_set("fleet_queued", Labels::new(), f64::from(e.queued));
                self.gauge_set("fleet_pool", Labels::new(), f64::from(e.pool));
            }
            Event::FleetJobSample(e) => {
                let job = Labels::new().with("job", e.job.clone());
                self.gauge_set("fleet_job_granted", job.clone(), f64::from(e.granted));
                self.gauge_set("fleet_job_demanded", job.clone(), f64::from(e.demanded));
                self.gauge_set("fleet_job_weighted_service", job, e.weighted_service);
            }
            Event::JobAdmitted(e) => {
                self.counter_add("fleet_admissions_total", Labels::new().with("job", e.job.clone()), 1.0);
                self.observe("fleet_queue_wait_seconds", Labels::new(), e.queued_s);
            }
            Event::JobPreempted(e) => {
                let labels = Labels::new().with("job", e.job.clone()).with("reason", e.reason.as_str());
                self.counter_add("fleet_preemptions_total", labels, 1.0);
            }
            Event::NodeGranted(e) => {
                self.counter_add("fleet_node_grants_total", Labels::new().with("job", e.job.clone()), 1.0);
            }
            Event::FaultInjected(e) => {
                self.counter_add("faults_total", Labels::new().with("kind", e.kind.as_str()), 1.0);
            }
            Event::RecoveryAction(e) => {
                self.counter_add("recoveries_total", Labels::new().with("kind", e.kind.as_str()), 1.0);
            }
            Event::AnomalyDetected(e) => {
                self.counter_add("anomalies_total", Labels::new().with("kind", e.kind.as_str()), 1.0);
            }
            Event::SloViolation(e) => {
                self.counter_add("slo_violations_total", Labels::new().with("rule", e.rule.clone()), 1.0);
            }
            Event::Counter(e) => {
                self.gauge_set(&e.name, Labels::new(), e.value);
            }
            Event::PolicyDecision(e) => {
                self.counter_add("policy_decisions_total", Labels::new().with("policy", e.policy.clone()), 1.0);
            }
            Event::SplitDecision(_) | Event::SpanBegin(_) | Event::SpanEnd(_) => {}
        }
    }

    /// The Prometheus text exposition of the whole store: `# TYPE` header
    /// per metric, series sorted by `(name, labels)`, histograms rendered
    /// as summaries (`quantile` pseudo-label plus `_sum`/`_count`). No
    /// timestamps, so same inputs render byte-identical text.
    pub fn render_prometheus(&self) -> String {
        let inner = self.inner.lock();
        let mut out = String::new();
        let mut last_name: Option<&str> = None;
        for ((name, labels), entry) in &inner.series {
            if last_name != Some(name.as_str()) {
                let _ = writeln!(out, "# TYPE {name} {}", entry.data.type_name());
                last_name = Some(name.as_str());
            }
            match &entry.data {
                SeriesData::Counter { total, .. } => {
                    let _ = writeln!(out, "{name}{} {total}", labels.render(None));
                }
                SeriesData::Gauge { ring } => {
                    if let Some(v) = ring.last() {
                        let _ = writeln!(out, "{name}{} {v}", labels.render(None));
                    }
                }
                SeriesData::Hist(h) => {
                    for (q, tag) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                        if let Some(v) = h.quantile(q) {
                            let _ = writeln!(out, "{name}{} {v}", labels.render(Some(("quantile", tag))));
                        }
                    }
                    let count = h.count();
                    let sum = h.mean().map_or(0.0, |m| m * count as f64);
                    let _ = writeln!(out, "{name}_sum{} {sum}", labels.render(None));
                    let _ = writeln!(out, "{name}_count{} {count}", labels.render(None));
                }
            }
        }
        out
    }
}

impl std::fmt::Debug for SeriesStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("SeriesStore")
            .field("capacity", &inner.capacity)
            .field("series", &inner.series.len())
            .finish()
    }
}

/// Bridges the recorder's subscriber API into a [`SeriesStore`]: every
/// flushed batch is folded through [`SeriesStore::ingest`]. Dropping the
/// recorder unsubscribes; the store (an `Arc`) outlives it if shared.
pub struct SeriesRecorder {
    store: Arc<SeriesStore>,
    _guard: SubscriberGuard,
}

struct Tap {
    store: Arc<SeriesStore>,
}

impl Subscriber for Tap {
    fn on_records(&self, batch: &[Record]) {
        for record in batch {
            self.store.ingest(record);
        }
    }
}

impl SeriesRecorder {
    /// Install a series subscriber with the default ring capacity on the
    /// sessions the calling thread starts.
    pub fn install() -> SeriesRecorder {
        let store = Arc::new(SeriesStore::new(SeriesStore::DEFAULT_CAPACITY));
        let guard = subscribe(Arc::new(Tap { store: Arc::clone(&store) }));
        SeriesRecorder { store, _guard: guard }
    }

    /// The underlying store (shared; remains valid after the recorder
    /// drops).
    pub fn store(&self) -> Arc<SeriesStore> {
        Arc::clone(&self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Counter, FleetDecision, FleetJobSample, JobAdmitted, SloViolation};

    fn rec(event: Event) -> Record {
        Record { ts_ns: 0, node: 0, rank: 0, event }
    }

    #[test]
    fn counters_accumulate_and_windows_aggregate() {
        let store = SeriesStore::new(8);
        let job = Labels::new().with("job", "a");
        for _ in 0..5 {
            store.counter_add("grants", job.clone(), 2.0);
        }
        assert_eq!(store.counter_total("grants", &job), Some(10.0));
        assert_eq!(store.updates("grants", &job), Some(5));
        let w = store.window("grants", &job, 3).unwrap();
        assert_eq!(w.count, 3);
        assert_eq!(w.last, 10.0); // cumulative values: 6, 8, 10
        assert_eq!(w.min, 6.0);
        assert_eq!(w.sum, 24.0);
    }

    #[test]
    fn gauges_keep_last_value_and_rings_evict() {
        let store = SeriesStore::new(4);
        let l = Labels::new();
        for i in 0..10 {
            store.gauge_set("depth", l.clone(), i as f64);
        }
        assert_eq!(store.last("depth", &l), Some(9.0));
        assert_eq!(store.updates("depth", &l), Some(10));
        // Ring holds only the newest 4 samples: 6, 7, 8, 9.
        let w = store.window("depth", &l, 100).unwrap();
        assert_eq!(w.count, 4);
        assert_eq!(w.min, 6.0);
        assert_eq!(w.max, 9.0);
        // Nearest-rank median of {6,7,8,9}: rank ceil(0.5*4) = 2 -> 7.
        assert_eq!(store.quantile("depth", &l, 0.5), Some(7.0));
    }

    #[test]
    fn histogram_series_answer_quantiles() {
        let store = SeriesStore::new(8);
        for i in 1..=100 {
            store.observe("wait_s", Labels::new(), i as f64 * 0.01);
        }
        let p95 = store.quantile("wait_s", &Labels::new(), 0.95).unwrap();
        assert!(p95 > 0.5 && p95 < 1.5, "p95={p95}");
        assert!(store.window("wait_s", &Labels::new(), 10).is_none(), "histograms have no ring window");
    }

    #[test]
    fn kind_mismatch_and_non_finite_samples_are_ignored() {
        let store = SeriesStore::new(8);
        let l = Labels::new();
        store.gauge_set("x", l.clone(), 1.0);
        store.counter_add("x", l.clone(), 5.0); // wrong kind: ignored
        store.gauge_set("x", l.clone(), f64::NAN); // non-finite: ignored
        assert_eq!(store.last("x", &l), Some(1.0));
        assert_eq!(store.updates("x", &l), Some(1));
        assert_eq!(store.counter_total("x", &l), None);
    }

    #[test]
    fn labels_sort_dedupe_and_escape() {
        let a = Labels::new().with("b", "2").with("a", "1");
        let b = Labels::new().with("a", "0").with("b", "2").with("a", "1");
        assert_eq!(a, b, "label sets compare by content, not insertion order");
        assert_eq!(a.get("a"), Some("1"));
        let tricky = Labels::new().with("job", "a\"b\\c");
        assert_eq!(tricky.render(None), r#"{job="a\"b\\c"}"#);
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_typed() {
        let store = SeriesStore::new(8);
        store.gauge_set("fleet_running", Labels::new(), 3.0);
        store.counter_add("grants", Labels::new().with("job", "b"), 1.0);
        store.counter_add("grants", Labels::new().with("job", "a"), 2.0);
        store.observe("wait_s", Labels::new(), 0.25);
        let text = store.render_prometheus();
        let a = text.find(r#"grants{job="a"} 2"#).expect("job=a line");
        let b = text.find(r#"grants{job="b"} 1"#).expect("job=b line");
        assert!(a < b, "series sorted by labels");
        assert!(text.contains("# TYPE grants counter"));
        assert!(text.contains("# TYPE fleet_running gauge"));
        assert!(text.contains("# TYPE wait_s summary"));
        assert!(text.contains("wait_s_count 1"));
        // Deterministic: rendering twice is byte-identical.
        assert_eq!(text, store.render_prometheus());
    }

    #[test]
    fn ingest_maps_fleet_events_to_series() {
        let store = SeriesStore::new(16);
        store.ingest(&rec(Event::FleetDecision(FleetDecision {
            decision: 0,
            running: 2,
            queued: 1,
            reassigned: 3,
            pool: 8,
        })));
        store.ingest(&rec(Event::FleetJobSample(FleetJobSample {
            decision: 0,
            job: "a".into(),
            granted: 3,
            demanded: 5,
            weighted_service: 12.5,
        })));
        store.ingest(&rec(Event::JobAdmitted(JobAdmitted { job: "a".into(), nodes: 3, queued_s: 7.5 })));
        store.ingest(&rec(Event::SloViolation(SloViolation {
            rule: "goodput_floor".into(),
            job: None,
            threshold: 1.0,
            observed: 0.5,
            at: 4,
        })));
        store.ingest(&rec(Event::Counter(Counter { name: "fleet_goodput".into(), value: 42.0 })));
        let job = Labels::new().with("job", "a");
        assert_eq!(store.last("fleet_running", &Labels::new()), Some(2.0));
        assert_eq!(store.last("fleet_job_granted", &job), Some(3.0));
        assert_eq!(store.last("fleet_job_demanded", &job), Some(5.0));
        assert_eq!(store.counter_total("fleet_admissions_total", &job), Some(1.0));
        assert_eq!(
            store.counter_total("slo_violations_total", &Labels::new().with("rule", "goodput_floor")),
            Some(1.0)
        );
        assert_eq!(store.last("fleet_goodput", &Labels::new()), Some(42.0));
        assert!(store.quantile("fleet_queue_wait_seconds", &Labels::new(), 0.5).is_some());
    }

    #[test]
    fn series_recorder_folds_flushed_batches() {
        use crate::recorder::{emit, flush_thread, Session};
        let recorder = SeriesRecorder::install();
        let session = Session::start();
        emit(Event::Counter(Counter { name: "tick".into(), value: 1.5 }));
        emit(Event::FleetDecision(FleetDecision { decision: 0, running: 1, queued: 0, reassigned: 1, pool: 4 }));
        flush_thread();
        let store = recorder.store();
        assert_eq!(store.last("tick", &Labels::new()), Some(1.5));
        assert_eq!(store.last("fleet_running", &Labels::new()), Some(1.0));
        drop(session);
    }
}
