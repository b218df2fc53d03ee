//! The anomaly detectors — one pass over a recorded [`Record`] stream.
//!
//! Every detector is a small incremental pass over one event kind:
//!
//! * **Straggler** — not a model of its own: the analyzer in
//!   `cannikin-core` is the one place that decides a node's `t = c·b + d`
//!   law changed (a >30% deviation at a warm batch size, five batches in a
//!   row, clears the node's history). Each `RegimeChange` it emits in
//!   which the node got slower is reported as one straggler, stamped with
//!   the last step seen; a node that got faster is not a straggler.
//! * **Calibration** — each `SplitDecision` carries the solver's
//!   `predicted_t`; the realized step times under that plan are averaged
//!   and compared against the prediction when the *next* decision
//!   arrives. OptPerf error beyond `CALIBRATION_BAND` fires.
//! * **GNS drift** — an EWMA over `GnsEstimated.b_noise`; estimates that
//!   jump relative to the smoothed trajectory for `GNS_PATIENCE`
//!   consecutive observations fire.
//! * **Bucket imbalance** — ns/element of each `AllReduceBucket` against
//!   the cluster-wide running mean; a bucket persistently slower by
//!   `BUCKET_FACTOR`× fires.
//!
//! Determinism matters: the same record sequence must produce the same
//! anomalies whether it is a drained session or the parsed JSONL export
//! of one. Detectors therefore keep no wall-clock state.

use cannikin_telemetry::{Event, Record};
use std::collections::BTreeMap;

/// The class of misbehavior an [`AnomalyDetected`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnomalyKind {
    /// The analyzer reported a `RegimeChange` in which the node got slower.
    Straggler,
    /// The realized batch time drifted beyond the calibration band around
    /// the solver's `SplitDecision::predicted_t`.
    CalibrationDrift,
    /// The gradient-noise-scale series jumped relative to its smoothed
    /// trajectory.
    GnsDrift,
    /// One all-reduce bucket is persistently slower per element than the
    /// cluster-wide average.
    BucketImbalance,
}

impl AnomalyKind {
    /// Stable string tag (the reports print it).
    pub fn as_str(self) -> &'static str {
        match self {
            AnomalyKind::Straggler => "straggler",
            AnomalyKind::CalibrationDrift => "calibration_drift",
            AnomalyKind::GnsDrift => "gns_drift",
            AnomalyKind::BucketImbalance => "bucket_imbalance",
        }
    }
}

/// A detector's verdict that the run left its expected envelope (a
/// straggler is the report of a slowing `RegimeChange`).
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyDetected {
    /// What kind of anomaly fired.
    pub kind: AnomalyKind,
    /// Affected node, when the anomaly is node-scoped (`None` for
    /// cluster-wide anomalies such as calibration or GNS drift).
    pub node: Option<u32>,
    /// Step index of the triggering observation.
    pub step: u64,
    /// What the detector's model expected (seconds, noise scale,
    /// ns/element — unit depends on `kind`).
    pub expected: f64,
    /// What was observed instead (same unit as `expected`).
    pub observed: f64,
    /// `observed / expected` — the "how bad" scalar.
    pub severity: f64,
}

// Detection thresholds. They are deliberately loose: every band is far
// wider than the simulator's measurement noise, so a healthy run stays
// silent while a genuine drift fires within a few observations.

/// Relative OptPerf prediction error before
/// [`AnomalyKind::CalibrationDrift`] fires.
const CALIBRATION_BAND: f64 = 0.35;
/// Relative deviation from the GNS EWMA that counts as a jump.
const GNS_BAND: f64 = 1.0;
/// GNS observations absorbed before drift is judged.
const GNS_WARMUP: u32 = 5;
/// Consecutive GNS jumps before [`AnomalyKind::GnsDrift`] fires.
const GNS_PATIENCE: u32 = 2;
/// Factor over the mean ns/element before a bucket counts as slow.
const BUCKET_FACTOR: f64 = 4.0;
/// Bucket observations absorbed before imbalance is judged.
const BUCKET_WARMUP: u64 = 64;
/// Consecutive slow observations of one bucket before
/// [`AnomalyKind::BucketImbalance`] fires.
const BUCKET_PATIENCE: u32 = 3;

/// The parameter of [`crate::analyze`]: it holds nothing, because the
/// detection thresholds are constants of this module that no caller ever
/// set. It stays only so that `analyze(&records, InsightConfig::default())`
/// keeps compiling in the frozen benchmark; ROADMAP item 8 drops it with
/// the next change to the benchmark.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InsightConfig {}

/// Plan-calibration state: the pending prediction and the realized step
/// aggregates accumulated under it (under any plan, predicted or not:
/// the replay table prints every plan's realized time).
#[derive(Debug, Clone, Default)]
struct CalibrationTrack {
    /// `predicted_t` of the plan currently being executed.
    pending: Option<f64>,
    /// Per-step realized aggregates since the pending plan was announced.
    steps: BTreeMap<u64, StepAgg>,
}

#[derive(Debug, Clone, Default)]
struct StepAgg {
    max_compute: f64,
    max_comm: f64,
    sum_overlap: f64,
    count: u64,
}

impl CalibrationTrack {
    fn observe_step(&mut self, step: u64, t_compute: f64, t_comm: f64, overlap: f64) {
        let agg = self.steps.entry(step).or_default();
        agg.max_compute = agg.max_compute.max(t_compute);
        agg.max_comm = agg.max_comm.max(t_comm);
        agg.sum_overlap += overlap;
        agg.count += 1;
    }

    /// Mean realized batch time of the accumulated steps: straggler
    /// compute plus the non-overlapped share of synchronization (the
    /// Eq. (7) shape without bucket-level detail).
    fn realized(&self) -> Option<(f64, u64)> {
        if self.steps.is_empty() {
            return None;
        }
        let mut total = 0.0;
        for agg in self.steps.values() {
            let overlap = if agg.count > 0 { agg.sum_overlap / agg.count as f64 } else { 0.0 };
            total += agg.max_compute + (1.0 - overlap.clamp(0.0, 1.0)) * agg.max_comm;
        }
        let last_step = *self.steps.keys().next_back().expect("non-empty");
        Some((total / self.steps.len() as f64, last_step))
    }
}

/// EWMA drift tracking over the GNS series.
#[derive(Debug, Clone, Default)]
struct GnsTrack {
    ewma: Option<f64>,
    seen: u32,
    streak: u32,
}

/// Cluster-wide ns/element baseline with per-bucket slow streaks.
#[derive(Debug, Clone, Default)]
struct BucketTrack {
    count: u64,
    mean_npe: f64,
    streaks: BTreeMap<u32, u32>,
}

/// The full detector suite: feed it every record, collect anomalies.
#[derive(Debug, Clone, Default)]
pub(crate) struct DetectorSet {
    calibration: CalibrationTrack,
    gns: GnsTrack,
    buckets: BucketTrack,
    /// Most recent step index seen, stamped on anomalies whose trigger
    /// event carries no step of its own.
    last_step: u64,
}

impl DetectorSet {
    /// Mean realized batch time of the steps since the last
    /// `SplitDecision` — the plan the next decision closes.
    pub(crate) fn open_plan_realized(&self) -> Option<f64> {
        self.calibration.realized().map(|(realized, _)| realized)
    }

    /// Feed one record through every detector; returns the anomalies it
    /// triggered (usually none).
    pub(crate) fn observe(&mut self, record: &Record) -> Vec<AnomalyDetected> {
        let mut out = Vec::new();
        match &record.event {
            Event::StepTiming(t) => {
                self.last_step = t.step;
                self.calibration.observe_step(t.step, t.t_compute, t.t_comm, t.overlap);
            }
            Event::RegimeChange(r) if r.observed > r.expected => out.push(AnomalyDetected {
                kind: AnomalyKind::Straggler,
                node: Some(r.node),
                step: self.last_step,
                expected: r.expected,
                observed: r.observed,
                severity: r.observed / r.expected,
            }),
            Event::SplitDecision(d) => {
                self.evaluate_calibration(&mut out);
                self.calibration.pending = d.predicted_t;
                self.calibration.steps.clear();
            }
            Event::GnsEstimated(g) => self.observe_gns(g.b_noise, &mut out),
            Event::AllReduceBucket(b) => self.observe_bucket(record.rank, b.bucket, b.elems, b.wall_ns, &mut out),
            // Counters, spans, solver and goodput events carry nothing the
            // detectors model.
            _ => {}
        }
        out
    }

    fn evaluate_calibration(&mut self, out: &mut Vec<AnomalyDetected>) {
        let (Some(predicted), Some((realized, last_step))) =
            (self.calibration.pending, self.calibration.realized())
        else {
            return;
        };
        let Some(rel_err) = relative_error(predicted, realized) else {
            return;
        };
        if rel_err > CALIBRATION_BAND {
            out.push(AnomalyDetected {
                kind: AnomalyKind::CalibrationDrift,
                node: None,
                step: last_step,
                expected: predicted,
                observed: realized,
                severity: realized / predicted,
            });
        }
    }

    fn observe_gns(&mut self, b_noise: f64, out: &mut Vec<AnomalyDetected>) {
        if !b_noise.is_finite() || b_noise <= 0.0 {
            return;
        }
        let Some(ewma) = self.gns.ewma else {
            self.gns.ewma = Some(b_noise);
            self.gns.seen = 1;
            return;
        };
        if self.gns.seen < GNS_WARMUP {
            self.gns.seen += 1;
            self.gns.ewma = Some(ewma + 0.3 * (b_noise - ewma));
            return;
        }
        let rel_dev = (b_noise - ewma).abs() / ewma;
        if rel_dev > GNS_BAND {
            self.gns.streak += 1;
            if self.gns.streak >= GNS_PATIENCE {
                out.push(AnomalyDetected {
                    kind: AnomalyKind::GnsDrift,
                    node: None,
                    step: self.last_step,
                    expected: ewma,
                    observed: b_noise,
                    severity: b_noise / ewma,
                });
                // Re-baseline on the new regime.
                self.gns.ewma = Some(b_noise);
                self.gns.streak = 0;
            }
        } else {
            self.gns.streak = 0;
            self.gns.ewma = Some(ewma + 0.3 * (b_noise - ewma));
        }
    }

    fn observe_bucket(&mut self, rank: u32, bucket: u32, elems: u64, wall_ns: u64, out: &mut Vec<AnomalyDetected>) {
        if elems == 0 {
            return;
        }
        let npe = wall_ns as f64 / elems as f64;
        if self.buckets.count >= BUCKET_WARMUP && npe > BUCKET_FACTOR * self.buckets.mean_npe
        {
            let streak = self.buckets.streaks.entry(bucket).or_insert(0);
            *streak += 1;
            if *streak >= BUCKET_PATIENCE {
                out.push(AnomalyDetected {
                    kind: AnomalyKind::BucketImbalance,
                    node: Some(rank),
                    step: self.last_step,
                    expected: self.buckets.mean_npe,
                    observed: npe,
                    severity: npe / self.buckets.mean_npe,
                });
                *streak = 0;
            }
            // Slow observations stay out of the baseline, mirroring the
            // analyzer's outlier gating.
            return;
        }
        self.buckets.streaks.insert(bucket, 0);
        self.buckets.count += 1;
        self.buckets.mean_npe += (npe - self.buckets.mean_npe) / self.buckets.count as f64;
    }
}

/// OptPerf's relative prediction error, `|realized − predicted| /
/// predicted`; none for a non-positive prediction.
pub(crate) fn relative_error(predicted: f64, realized: f64) -> Option<f64> {
    (predicted > 0.0).then(|| (realized - predicted).abs() / predicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cannikin_telemetry::{AllReduceBucket, GnsEstimated, RegimeChange, SplitDecision, SplitSource, StepTiming};

    fn rec(event: Event) -> Record {
        Record { ts_ns: 0, node: 0, rank: 0, event }
    }

    fn timing(step: u64, rank: u32, b: u64, t: f64) -> Record {
        rec(Event::StepTiming(StepTiming { step, rank, b_i: b, t_compute: t, t_comm: 0.0, overlap: 0.0 }))
    }

    fn regime(node: u32, expected: f64, observed: f64) -> Record {
        rec(Event::RegimeChange(RegimeChange { node, b_i: 32, expected, observed }))
    }

    /// The analyzer's verdict that a node slowed is one straggler, stamped
    /// with the last step seen before it.
    #[test]
    fn a_slower_regime_is_one_straggler_at_the_last_step() {
        let mut set = DetectorSet::default();
        for step in 0..7u64 {
            assert!(set.observe(&timing(step, 1, 32, 0.37)).is_empty());
        }
        let fired = set.observe(&regime(1, 0.37, 0.74));
        assert_eq!(
            fired,
            [AnomalyDetected {
                kind: AnomalyKind::Straggler,
                node: Some(1),
                step: 6,
                expected: 0.37,
                observed: 0.74,
                severity: 2.0,
            }]
        );
    }

    /// A node whose law changed because it got faster is not a straggler.
    #[test]
    fn a_faster_regime_raises_nothing() {
        let mut set = DetectorSet::default();
        assert!(set.observe(&timing(3, 0, 32, 0.74)).is_empty());
        assert!(set.observe(&regime(0, 0.74, 0.37)).is_empty());
    }

    fn decision(predicted: Option<f64>) -> Record {
        rec(Event::SplitDecision(SplitDecision {
            total: 64,
            local: vec![32, 32],
            predicted_t: predicted,
            source: SplitSource::Solver,
        }))
    }

    #[test]
    fn calibration_drift_fires_when_realized_leaves_the_band() {
        let mut set = DetectorSet::default();
        // Plan predicts 0.4 s/batch; realized is 0.39 — calibrated.
        assert!(set.observe(&decision(Some(0.4))).is_empty());
        for step in 0..5 {
            set.observe(&timing(step, 0, 32, 0.39));
        }
        // Next plan evaluates the previous one: within the band, silent.
        assert!(set.observe(&decision(Some(0.4))).is_empty());
        // Under the second plan the cluster is 2x slower than predicted.
        for step in 0..5 {
            set.observe(&timing(step, 0, 32, 0.8));
        }
        let fired = set.observe(&decision(Some(0.4)));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::CalibrationDrift);
        assert_eq!(fired[0].node, None);
        assert!((fired[0].severity - 2.0).abs() < 0.05);
    }

    #[test]
    fn model_free_plans_do_not_evaluate_calibration() {
        let mut set = DetectorSet::default();
        assert!(set.observe(&decision(None)).is_empty());
        for step in 0..5 {
            set.observe(&timing(step, 0, 32, 0.9));
        }
        assert!(set.observe(&decision(Some(0.4))).is_empty(), "no prediction, nothing to calibrate");
    }

    fn gns(b_noise: f64) -> Record {
        rec(Event::GnsEstimated(GnsEstimated { b_noise, grad_sq: 1.0, variance: b_noise, weights: vec![1.0] }))
    }

    #[test]
    fn gns_drift_needs_a_sustained_jump() {
        let mut set = DetectorSet::default();
        for _ in 0..8 {
            assert!(set.observe(&gns(300.0)).is_empty());
        }
        // One wild estimate: streak 1 of 2 — silent.
        assert!(set.observe(&gns(900.0)).is_empty());
        // Second in a row fires and re-baselines.
        let fired = set.observe(&gns(950.0));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::GnsDrift);
        assert!(fired[0].severity > 2.0);
        // The new regime is now the baseline: more ~950s stay silent.
        for _ in 0..5 {
            assert!(set.observe(&gns(940.0)).is_empty());
        }
    }

    fn bucket(rank: u32, bucket_ix: u32, elems: u64, wall_ns: u64) -> Record {
        let mut r = rec(Event::AllReduceBucket(AllReduceBucket { bucket: bucket_ix, elems, wall_ns, bytes: elems * 4 }));
        r.rank = rank;
        r
    }

    #[test]
    fn bucket_imbalance_flags_a_persistently_slow_bucket() {
        let mut set = DetectorSet::default();
        // Healthy baseline: 1 ns/elem across 3 buckets.
        for i in 0..70u64 {
            assert!(set.observe(&bucket(0, (i % 3) as u32, 1_000, 1_000)).is_empty());
        }
        // Bucket 1 turns 10x slow; patience is 3.
        let mut fired = Vec::new();
        for _ in 0..3 {
            fired.extend(set.observe(&bucket(0, 1, 1_000, 10_000)));
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].kind, AnomalyKind::BucketImbalance);
        assert!(fired[0].severity > 5.0);
    }

    /// Determinism: two suites fed the same sequence agree exactly.
    #[test]
    fn identical_streams_produce_identical_anomalies() {
        let mut records = vec![decision(Some(0.4))];
        let law = |b: f64| 0.01 * b + 0.05;
        for step in 0..20u64 {
            let b = if step % 2 == 0 { 32 } else { 48 };
            let slow = if step >= 14 { 2.5 } else { 1.0 };
            records.push(timing(step, 0, b, slow * law(b as f64)));
        }
        records.push(regime(0, law(32.0), 2.5 * law(32.0)));
        records.push(decision(Some(0.4)));
        let run = |records: &[Record]| {
            let mut set = DetectorSet::default();
            records.iter().flat_map(|r| set.observe(r)).collect::<Vec<_>>()
        };
        let a = run(&records);
        let b = run(&records);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}
