//! The anomaly detectors — one pass over a [`Record`] stream, online or
//! offline.
//!
//! Every detector is a small incremental model over one event kind:
//!
//! * **Straggler** — per-node least-squares fit of the paper's
//!   `t = c·b + d` compute law over `StepTiming` observations; an
//!   observation far above the fitted line starts a streak, and a streak
//!   of `straggler_patience` consecutive outliers fires (so a sustained
//!   slowdown is flagged within `straggler_patience` steps while an
//!   isolated GC-pause spike is not).
//! * **Calibration** — each `SplitDecision` carries the solver's
//!   `predicted_t`; the realized step times under that plan are averaged
//!   and compared against the prediction when the *next* decision
//!   arrives. OptPerf error beyond `calibration_band` fires.
//! * **GNS drift** — an EWMA over `GnsEstimated.b_noise`; estimates that
//!   jump relative to the smoothed trajectory for `gns_patience`
//!   consecutive observations fire.
//! * **Bucket imbalance** — ns/element of each `AllReduceBucket` against
//!   the cluster-wide running mean; a bucket persistently slower by
//!   `bucket_factor`× fires.
//!
//! Determinism matters: the same record sequence must produce the same
//! anomalies whether the detectors run inside a live [`crate::Monitor`]
//! or over a parsed JSONL trace — the round-trip tests assert exactly
//! that. Detectors therefore keep no wall-clock state and ignore
//! `AnomalyDetected` records (a replayed trace already contains the
//! online verdicts).

use cannikin_telemetry::{AnomalyDetected, AnomalyKind, Event, Record};
use std::collections::BTreeMap;

/// Detection thresholds. The defaults are deliberately loose: every band
/// is far wider than the simulator's measurement noise, so a healthy run
/// stays silent while a genuine regime change (the §6 contention
/// scenario) fires within a few steps.
#[derive(Debug, Clone, PartialEq)]
pub struct InsightConfig {
    /// Relative band above the fitted compute law before a `StepTiming`
    /// counts as an outlier.
    pub straggler_band: f64,
    /// Consecutive outlier steps before a [`AnomalyKind::Straggler`]
    /// fires (the "detect within N steps" bound).
    pub straggler_patience: u32,
    /// Observations a node's fit needs (at two or more distinct batch
    /// sizes) before it can judge outliers.
    pub straggler_min_points: usize,
    /// Relative OptPerf prediction error before
    /// [`AnomalyKind::CalibrationDrift`] fires.
    pub calibration_band: f64,
    /// Relative deviation from the GNS EWMA that counts as a jump.
    pub gns_band: f64,
    /// GNS observations absorbed before drift is judged.
    pub gns_warmup: u32,
    /// Consecutive GNS jumps before [`AnomalyKind::GnsDrift`] fires.
    pub gns_patience: u32,
    /// Factor over the mean ns/element before a bucket counts as slow.
    pub bucket_factor: f64,
    /// Bucket observations absorbed before imbalance is judged.
    pub bucket_warmup: u64,
    /// Consecutive slow observations of one bucket before
    /// [`AnomalyKind::BucketImbalance`] fires.
    pub bucket_patience: u32,
}

impl Default for InsightConfig {
    fn default() -> Self {
        InsightConfig {
            straggler_band: 0.40,
            straggler_patience: 3,
            straggler_min_points: 8,
            calibration_band: 0.35,
            gns_band: 1.0,
            gns_warmup: 5,
            gns_patience: 2,
            bucket_factor: 4.0,
            bucket_warmup: 64,
            bucket_patience: 3,
        }
    }
}

/// Incremental least-squares fit of `t_compute = c·b + d` for one node,
/// with an outlier streak counter.
#[derive(Debug, Clone, Default)]
struct StragglerFit {
    n: f64,
    sum_b: f64,
    sum_bb: f64,
    sum_t: f64,
    sum_bt: f64,
    b_min: f64,
    b_max: f64,
    streak: u32,
}

impl StragglerFit {
    fn absorb(&mut self, b: f64, t: f64) {
        if self.n == 0.0 {
            self.b_min = b;
            self.b_max = b;
        } else {
            self.b_min = self.b_min.min(b);
            self.b_max = self.b_max.max(b);
        }
        self.n += 1.0;
        self.sum_b += b;
        self.sum_bb += b * b;
        self.sum_t += t;
        self.sum_bt += b * t;
    }

    /// Predicted compute time at batch size `b`, once the fit has enough
    /// leverage (two distinct sizes) and is physically plausible.
    fn predict(&self, b: f64, min_points: usize) -> Option<f64> {
        if self.n < min_points as f64 || self.b_max <= self.b_min {
            return None;
        }
        let denom = self.n * self.sum_bb - self.sum_b * self.sum_b;
        if denom.abs() < 1e-12 {
            return None;
        }
        let slope = (self.n * self.sum_bt - self.sum_b * self.sum_t) / denom;
        let intercept = (self.sum_t - slope * self.sum_b) / self.n;
        let pred = slope * b + intercept;
        (pred > 0.0).then_some(pred)
    }

    fn reset(&mut self) {
        *self = StragglerFit::default();
    }
}

/// Plan-calibration state: the pending prediction and the realized step
/// aggregates accumulated under it.
#[derive(Debug, Clone, Default)]
struct CalibrationTrack {
    /// `predicted_t` of the plan currently being executed.
    pending: Option<f64>,
    /// Per-step realized aggregates since the pending plan was announced.
    steps: BTreeMap<u64, StepAgg>,
    /// Relative error of the most recently evaluated plan.
    last_error: Option<f64>,
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
#[derive(Debug, Clone)]
pub struct DetectorSet {
    config: InsightConfig,
    stragglers: BTreeMap<u32, StragglerFit>,
    calibration: CalibrationTrack,
    gns: GnsTrack,
    buckets: BucketTrack,
    /// Most recent step index seen, stamped on anomalies whose trigger
    /// event carries no step of its own.
    last_step: u64,
}

impl DetectorSet {
    /// A fresh suite with the given thresholds.
    pub fn new(config: InsightConfig) -> Self {
        DetectorSet {
            config,
            stragglers: BTreeMap::new(),
            calibration: CalibrationTrack::default(),
            gns: GnsTrack::default(),
            buckets: BucketTrack::default(),
            last_step: 0,
        }
    }

    /// The thresholds this suite runs under.
    pub fn config(&self) -> &InsightConfig {
        &self.config
    }

    /// Relative OptPerf error of the most recently completed plan.
    pub fn latest_calibration_error(&self) -> Option<f64> {
        self.calibration.last_error
    }

    /// The smoothed gradient-noise-scale trajectory.
    pub fn smoothed_noise_scale(&self) -> Option<f64> {
        self.gns.ewma
    }

    /// Feed one record through every detector; returns the anomalies it
    /// triggered (usually none).
    pub fn observe(&mut self, record: &Record) -> Vec<AnomalyDetected> {
        let mut out = Vec::new();
        match &record.event {
            Event::StepTiming(t) => {
                self.last_step = t.step;
                self.calibration.observe_step(t.step, t.t_compute, t.t_comm, t.overlap);
                self.observe_compute(t.rank, t.step, t.b_i as f64, t.t_compute, &mut out);
            }
            Event::SplitDecision(d) => {
                self.evaluate_calibration(&mut out);
                self.calibration.pending = d.predicted_t;
                self.calibration.steps.clear();
            }
            Event::GnsEstimated(g) => self.observe_gns(g.b_noise, &mut out),
            Event::AllReduceBucket(b) => self.observe_bucket(record.rank, b.bucket, b.elems, b.wall_ns, &mut out),
            // Anomalies (replayed traces carry the online verdicts),
            // counters, spans, solver and goodput events carry nothing the
            // detectors model.
            _ => {}
        }
        out
    }

    fn observe_compute(&mut self, rank: u32, step: u64, b: f64, t: f64, out: &mut Vec<AnomalyDetected>) {
        if b <= 0.0 || !t.is_finite() || t <= 0.0 {
            return;
        }
        let band = self.config.straggler_band;
        let patience = self.config.straggler_patience;
        let min_points = self.config.straggler_min_points;
        let fit = self.stragglers.entry(rank).or_default();
        match fit.predict(b, min_points) {
            Some(pred) if t > pred * (1.0 + band) => {
                // Outside the band: extend the streak without letting the
                // outlier drag the fit toward the new regime.
                fit.streak += 1;
                if fit.streak >= patience {
                    out.push(AnomalyDetected {
                        kind: AnomalyKind::Straggler,
                        node: Some(rank),
                        step,
                        expected: pred,
                        observed: t,
                        severity: t / pred,
                    });
                    // The old law is dead; relearn in the new regime.
                    fit.reset();
                    fit.absorb(b, t);
                }
            }
            _ => {
                fit.streak = 0;
                fit.absorb(b, t);
            }
        }
    }

    fn evaluate_calibration(&mut self, out: &mut Vec<AnomalyDetected>) {
        let (Some(predicted), Some((realized, last_step))) =
            (self.calibration.pending, self.calibration.realized())
        else {
            return;
        };
        if predicted <= 0.0 {
            return;
        }
        let rel_err = (realized - predicted).abs() / predicted;
        self.calibration.last_error = Some(rel_err);
        if rel_err > self.config.calibration_band {
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
        if self.gns.seen < self.config.gns_warmup {
            self.gns.seen += 1;
            self.gns.ewma = Some(ewma + 0.3 * (b_noise - ewma));
            return;
        }
        let rel_dev = (b_noise - ewma).abs() / ewma;
        if rel_dev > self.config.gns_band {
            self.gns.streak += 1;
            if self.gns.streak >= self.config.gns_patience {
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
        if self.buckets.count >= self.config.bucket_warmup && npe > self.config.bucket_factor * self.buckets.mean_npe
        {
            let streak = self.buckets.streaks.entry(bucket).or_insert(0);
            *streak += 1;
            if *streak >= self.config.bucket_patience {
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
            // straggler fit's outlier gating.
            return;
        }
        self.buckets.streaks.insert(bucket, 0);
        self.buckets.count += 1;
        self.buckets.mean_npe += (npe - self.buckets.mean_npe) / self.buckets.count as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cannikin_telemetry::{
        AllReduceBucket, GnsEstimated, SplitDecision, SplitSource, StepTiming,
    };

    fn rec(event: Event) -> Record {
        Record { ts_ns: 0, node: 0, rank: 0, event }
    }

    fn timing(step: u64, rank: u32, b: u64, t: f64) -> Record {
        rec(Event::StepTiming(StepTiming { step, rank, b_i: b, t_compute: t, t_comm: 0.0, overlap: 0.0 }))
    }

    /// Feed a clean linear law at two batch sizes, then slow the node 2x:
    /// the straggler must fire on exactly the `straggler_patience`-th
    /// slowed step.
    #[test]
    fn straggler_fires_within_patience_steps() {
        let mut set = DetectorSet::new(InsightConfig::default());
        let law = |b: f64| 0.01 * b + 0.05;
        let mut step = 0u64;
        for _ in 0..6 {
            for b in [32u64, 48] {
                assert!(set.observe(&timing(step, 0, b, law(b as f64))).is_empty());
                step += 1;
            }
        }
        // Node slows down 2x.
        let mut fired_at = None;
        for i in 0..5u64 {
            let anomalies = set.observe(&timing(step, 0, 32, 2.0 * law(32.0)));
            step += 1;
            if !anomalies.is_empty() {
                fired_at = Some((i + 1, anomalies));
                break;
            }
        }
        let (slow_steps, anomalies) = fired_at.expect("straggler must fire");
        assert_eq!(slow_steps, 3, "fires on the patience-th slowed step");
        assert_eq!(anomalies.len(), 1);
        let a = &anomalies[0];
        assert_eq!(a.kind, AnomalyKind::Straggler);
        assert_eq!(a.node, Some(0));
        assert!((a.severity - 2.0).abs() < 0.1, "severity {} should be near 2x", a.severity);
    }

    /// One isolated spike (a GC pause) must not fire, and must not poison
    /// the fit for subsequent healthy steps.
    #[test]
    fn isolated_spike_does_not_fire() {
        let mut set = DetectorSet::new(InsightConfig::default());
        let law = |b: f64| 0.01 * b + 0.05;
        let mut step = 0u64;
        for _ in 0..6 {
            for b in [32u64, 48] {
                assert!(set.observe(&timing(step, 0, b, law(b as f64))).is_empty());
                step += 1;
            }
        }
        assert!(set.observe(&timing(step, 0, 32, 3.0 * law(32.0))).is_empty(), "one spike is not a straggler");
        for i in 0..10u64 {
            let b = if i % 2 == 0 { 32 } else { 48 };
            assert!(set.observe(&timing(step + 1 + i, 0, b, law(b as f64))).is_empty());
        }
    }

    /// Per-node isolation: slowing node 1 must not implicate node 0.
    #[test]
    fn stragglers_are_tracked_per_node() {
        let mut set = DetectorSet::new(InsightConfig::default());
        let mut step = 0u64;
        for _ in 0..6 {
            for b in [32u64, 48] {
                for rank in 0..2u32 {
                    let t = (0.01 + 0.005 * f64::from(rank)) * b as f64 + 0.05;
                    assert!(set.observe(&timing(step, rank, b, t)).is_empty());
                }
                step += 1;
            }
        }
        let mut fired = Vec::new();
        for _ in 0..4 {
            assert!(set.observe(&timing(step, 0, 32, 0.01 * 32.0 + 0.05)).is_empty());
            fired.extend(set.observe(&timing(step, 1, 32, 3.0 * (0.015 * 32.0 + 0.05))));
            step += 1;
        }
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].node, Some(1));
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
        let mut set = DetectorSet::new(InsightConfig::default());
        // Plan predicts 0.4 s/batch; realized is 0.39 — calibrated.
        assert!(set.observe(&decision(Some(0.4))).is_empty());
        for step in 0..5 {
            set.observe(&timing(step, 0, 32, 0.39));
        }
        // Next plan evaluates the previous one: within the band, silent.
        assert!(set.observe(&decision(Some(0.4))).is_empty());
        assert!(set.latest_calibration_error().unwrap() < 0.05);
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
        let mut set = DetectorSet::new(InsightConfig::default());
        assert!(set.observe(&decision(None)).is_empty());
        for step in 0..5 {
            set.observe(&timing(step, 0, 32, 0.9));
        }
        assert!(set.observe(&decision(Some(0.4))).is_empty(), "no prediction, nothing to calibrate");
        assert_eq!(set.latest_calibration_error(), None);
    }

    fn gns(b_noise: f64) -> Record {
        rec(Event::GnsEstimated(GnsEstimated { b_noise, grad_sq: 1.0, variance: b_noise, weights: vec![1.0] }))
    }

    #[test]
    fn gns_drift_needs_a_sustained_jump() {
        let mut set = DetectorSet::new(InsightConfig::default());
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
        let mut set = DetectorSet::new(InsightConfig::default());
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

    /// Determinism: two suites fed the same sequence agree exactly — the
    /// property the online/offline round trip rests on.
    #[test]
    fn identical_streams_produce_identical_anomalies() {
        let mut records = vec![decision(Some(0.4))];
        let law = |b: f64| 0.01 * b + 0.05;
        for step in 0..20u64 {
            let b = if step % 2 == 0 { 32 } else { 48 };
            let slow = if step >= 14 { 2.5 } else { 1.0 };
            records.push(timing(step, 0, b, slow * law(b as f64)));
        }
        records.push(decision(Some(0.4)));
        let run = |records: &[Record]| {
            let mut set = DetectorSet::new(InsightConfig::default());
            records.iter().flat_map(|r| set.observe(r)).collect::<Vec<_>>()
        };
        let a = run(&records);
        let b = run(&records);
        assert!(!a.is_empty());
        assert_eq!(a, b);
    }
}
