//! The SLO engine: evaluates declarative [`SloRule`]s against the event
//! stream, online (as a recorder [`Subscriber`]) and offline (over a
//! drained trace), with byte-identical verdicts.
//!
//! ## Determinism contract
//!
//! The engine reacts to a *closed* input set — the `fleet_goodput` and
//! `fleet_fairness` counters, `JobAdmitted`, node-crash
//! `FaultInjected` and group-shrink/replan `RecoveryAction` records —
//! and every judged value is a pure function of that sequence. Record
//! timestamps are never read (they are wall-clock and differ between
//! same-seed runs); a violation's `at` field is the ordinal of the
//! triggering observation within the rule's input stream instead.
//!
//! Records *injected* into the stream (previous [`SloViolation`]s,
//! `AnomalyDetected`, the `insight_anomalies` counter) are ignored: the
//! recorder delivers injected records to the sink but not to online
//! subscribers, so an engine that reacted to them could never agree with
//! its offline rerun over the drained trace.
//!
//! Floor/ceiling rules over running aggregates (goodput, fairness, queue
//! p95) fire on *crossings* — the first observation that enters violation
//! after a healthy one — so a persistently-degraded metric produces one
//! violation, not one per tick. Per-event rules (a single admission over
//! its job's ceiling, a single slow crash recovery) fire per offending
//! event.

use cannikin_telemetry::{
    self as telemetry, Event, FaultKind, Record, RecoveryKind, SloRule, SloViolation, Subscriber,
};
use parking_lot::Mutex;
use std::sync::Arc;

/// Evaluates a rule set against a record sequence. Feed records in
/// emission order via [`SloEngine::observe`]; equal sequences produce
/// equal violation sequences.
#[derive(Debug)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    /// Per-rule "currently violating" flag (crossing detection).
    violating: Vec<bool>,
    /// Admission waits so far, kept sorted for the nearest-rank p95.
    sorted_waits: Vec<f64>,
    admissions: u64,
    goodput_samples: u64,
    fairness_samples: u64,
    recoveries: u64,
    /// Step of the most recent unrecovered node crash.
    pending_crash: Option<u64>,
}

impl SloEngine {
    /// An engine over `rules`.
    pub fn new(rules: Vec<SloRule>) -> SloEngine {
        let violating = vec![false; rules.len()];
        SloEngine {
            rules,
            violating,
            sorted_waits: Vec::new(),
            admissions: 0,
            goodput_samples: 0,
            fairness_samples: 0,
            recoveries: 0,
            pending_crash: None,
        }
    }

    /// The rules the engine evaluates.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Feed one record; returns the violations it triggered (usually
    /// empty).
    pub fn observe(&mut self, record: &Record) -> Vec<SloViolation> {
        match &record.event {
            Event::Counter(c) if c.name == "fleet_goodput" => {
                // Zero goodput before any job finishes an epoch is "no
                // data yet", not a breach.
                if c.value > 0.0 {
                    self.goodput_samples += 1;
                    let at = self.goodput_samples;
                    self.judge_crossings(|rule| matches!(rule, SloRule::GoodputFloor { .. }), c.value, at, |v, t| v < t)
                } else {
                    Vec::new()
                }
            }
            Event::Counter(c) if c.name == "fleet_fairness" => {
                self.fairness_samples += 1;
                let at = self.fairness_samples;
                self.judge_crossings(|rule| matches!(rule, SloRule::FairnessFloor { .. }), c.value, at, |v, t| v < t)
            }
            Event::JobAdmitted(a) => {
                self.admissions += 1;
                let at = self.admissions;
                let idx = self.sorted_waits.partition_point(|&w| w <= a.queued_s);
                self.sorted_waits.insert(idx, a.queued_s);
                let p95 = nearest_rank(&self.sorted_waits, 0.95);
                let mut fired =
                    self.judge_crossings(|rule| matches!(rule, SloRule::QueueP95Ceiling { .. }), p95, at, |v, t| v > t);
                // Per-admission job ceilings fire per offending event.
                for rule in &self.rules {
                    if let SloRule::JobQueueCeiling { job, ceiling_s } = rule {
                        if *job == a.job && a.queued_s > *ceiling_s {
                            fired.push(SloViolation {
                                rule: rule.id().to_string(),
                                job: Some(job.clone()),
                                threshold: *ceiling_s,
                                observed: a.queued_s,
                                at,
                            });
                        }
                    }
                }
                fired
            }
            Event::FaultInjected(f) if f.kind == FaultKind::NodeCrash => {
                self.pending_crash = Some(f.step);
                Vec::new()
            }
            Event::RecoveryAction(r)
                if matches!(r.kind, RecoveryKind::GroupShrink | RecoveryKind::Replan) =>
            {
                let Some(crash_step) = self.pending_crash.take() else {
                    return Vec::new();
                };
                self.recoveries += 1;
                let at = self.recoveries;
                // Steps index within an epoch, so a recovery that lands in
                // the next epoch can read lower than the crash; saturating
                // to 0 treats that (sub-epoch) distance as immediate.
                let observed = r.step.saturating_sub(crash_step) as f64;
                let mut fired = Vec::new();
                for rule in &self.rules {
                    if let SloRule::RecoveryCeiling { max_steps } = rule {
                        if observed > *max_steps as f64 {
                            fired.push(SloViolation {
                                rule: rule.id().to_string(),
                                job: None,
                                threshold: *max_steps as f64,
                                observed,
                                at,
                            });
                        }
                    }
                }
                fired
            }
            _ => Vec::new(),
        }
    }

    /// Crossing detection over every rule matched by `select`: fire when a
    /// previously-healthy rule's `breach(observed, threshold)` turns true,
    /// reset silently when it turns false.
    fn judge_crossings(
        &mut self,
        select: impl Fn(&SloRule) -> bool,
        observed: f64,
        at: u64,
        breach: impl Fn(f64, f64) -> bool,
    ) -> Vec<SloViolation> {
        let mut fired = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            if !select(rule) {
                continue;
            }
            let now = breach(observed, rule.threshold());
            if now && !self.violating[i] {
                fired.push(SloViolation {
                    rule: rule.id().to_string(),
                    job: None,
                    threshold: rule.threshold(),
                    observed,
                    at,
                });
            }
            self.violating[i] = now;
        }
        fired
    }
}

/// Nearest-rank quantile over an already-sorted slice.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

struct SloState {
    engine: SloEngine,
    violations: Vec<SloViolation>,
    fresh: Vec<SloViolation>,
}

struct SloInner {
    state: Mutex<SloState>,
}

impl Subscriber for SloInner {
    fn on_records(&self, batch: &[Record]) {
        let mut state = self.state.lock();
        for record in batch {
            for violation in state.engine.observe(record) {
                // `inject`, not `emit`: callbacks may run during a
                // thread-exit flush, and injected records must not loop
                // back through subscribers (see the module docs).
                telemetry::inject(record.node, record.rank, Event::SloViolation(violation.clone()));
                state.violations.push(violation.clone());
                state.fresh.push(violation);
            }
        }
    }
}

/// The live SLO tap: runs an [`SloEngine`] over every flushed batch and
/// injects violations back into the stream as typed [`SloViolation`]
/// records, so exported traces carry the online verdicts. Cheap to clone;
/// the subscription lasts until the last clone drops.
#[derive(Clone)]
pub struct SloMonitor {
    inner: Arc<SloInner>,
    _guard: Arc<telemetry::SubscriberGuard>,
}

impl SloMonitor {
    /// Register a monitor over `rules`; it judges the sessions the calling
    /// thread starts.
    pub fn install(rules: Vec<SloRule>) -> SloMonitor {
        let inner = Arc::new(SloInner {
            state: Mutex::new(SloState { engine: SloEngine::new(rules), violations: Vec::new(), fresh: Vec::new() }),
        });
        let guard = telemetry::subscribe(inner.clone() as Arc<dyn Subscriber>);
        SloMonitor { inner, _guard: Arc::new(guard) }
    }

    /// Violations since the previous call. Call
    /// `telemetry::flush_thread()` first so buffered events have reached
    /// the engine.
    pub fn drain_new(&self) -> Vec<SloViolation> {
        std::mem::take(&mut self.inner.state.lock().fresh)
    }

    /// Every violation since installation, in detection order.
    pub fn violations(&self) -> Vec<SloViolation> {
        self.inner.state.lock().violations.clone()
    }
}

impl std::fmt::Debug for SloMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.lock();
        write!(f, "SloMonitor({} rules, {} violations)", state.engine.rules.len(), state.violations.len())
    }
}

/// The offline verdicts next to the online ones found in the trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The rules evaluated.
    pub rules: Vec<SloRule>,
    /// Violations from rerunning the engine over the trace.
    pub offline: Vec<SloViolation>,
    /// `SloViolation` records found *in* the trace (the online verdicts).
    pub online: Vec<SloViolation>,
}

impl SloReport {
    /// Whether the offline rerun reproduced the online verdicts exactly.
    /// Vacuously true for traces recorded without a live [`SloMonitor`]
    /// (no online records at all) only when offline found nothing either.
    pub fn verdicts_match(&self) -> bool {
        self.offline == self.online
    }

    /// Offline violation count for one rule id (compliance tables).
    pub fn count_for(&self, rule_id: &str, job: Option<&str>) -> usize {
        self.offline.iter().filter(|v| v.rule == rule_id && v.job.as_deref() == job).count()
    }

    /// A short text rendering (the CLI's SLO section).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "slo: {} rules, {} offline / {} online violations ({})",
            self.rules.len(),
            self.offline.len(),
            self.online.len(),
            if self.verdicts_match() { "verdicts agree" } else { "VERDICT MISMATCH" }
        );
        for rule in &self.rules {
            let n = self.count_for(rule.id(), rule.job());
            let _ = writeln!(
                out,
                "  [{}] {} — {}",
                if n == 0 { "ok" } else { "violated" },
                rule.describe(),
                if n == 0 { "0 violations".to_string() } else { format!("{n} violations") }
            );
        }
        for v in &self.offline {
            let _ = writeln!(
                out,
                "  {} at #{}: observed {:.4} vs threshold {:.4}{}",
                v.rule,
                v.at,
                v.observed,
                v.threshold,
                v.job.as_deref().map_or_else(String::new, |j| format!(" (job {j})"))
            );
        }
        out
    }
}

/// Rerun the rules over a drained/parsed trace and collect the online
/// verdicts stored in it. The engine ignores `SloViolation` records, so
/// feeding a trace that already carries online verdicts is safe.
pub fn replay_slos(records: &[Record], rules: &[SloRule]) -> SloReport {
    let mut engine = SloEngine::new(rules.to_vec());
    let mut offline = Vec::new();
    let mut online = Vec::new();
    for record in records {
        if let Event::SloViolation(v) = &record.event {
            online.push(v.clone());
        }
        offline.extend(engine.observe(record));
    }
    SloReport { rules: rules.to_vec(), offline, online }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cannikin_telemetry::{Counter, FaultInjected, JobAdmitted, RecoveryAction, Session};

    fn rec(event: Event) -> Record {
        Record { ts_ns: 0, node: 0, rank: 0, event }
    }

    fn goodput(value: f64) -> Record {
        rec(Event::Counter(Counter { name: "fleet_goodput".into(), value }))
    }

    fn admitted(job: &str, queued_s: f64) -> Record {
        rec(Event::JobAdmitted(JobAdmitted { job: job.into(), nodes: 2, queued_s }))
    }

    #[test]
    fn goodput_floor_fires_on_crossings_only() {
        let mut engine = SloEngine::new(vec![SloRule::GoodputFloor { floor: 1.0 }]);
        let mut fired = Vec::new();
        for v in [5.0, 0.5, 0.4, 5.0, 0.3] {
            fired.extend(engine.observe(&goodput(v)));
        }
        assert_eq!(fired.len(), 2, "one violation per excursion, not per sample: {fired:?}");
        assert_eq!(fired[0].at, 2);
        assert_eq!(fired[0].observed, 0.5);
        assert_eq!(fired[1].at, 5);
        // Zero samples (no progress yet) are not judged.
        let mut quiet = SloEngine::new(vec![SloRule::GoodputFloor { floor: 1.0 }]);
        assert!(quiet.observe(&goodput(0.0)).is_empty());
    }

    #[test]
    fn queue_p95_and_per_job_ceilings() {
        let rules = vec![
            SloRule::QueueP95Ceiling { ceiling_s: 10.0 },
            SloRule::JobQueueCeiling { job: "bert".into(), ceiling_s: 2.0 },
        ];
        let mut engine = SloEngine::new(rules);
        assert!(engine.observe(&admitted("cifar", 1.0)).is_empty());
        // bert waits 5 s: under the p95 ceiling, over its own 2 s ceiling.
        let fired = engine.observe(&admitted("bert", 5.0));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "job_queue_ceiling");
        assert_eq!(fired[0].job.as_deref(), Some("bert"));
        assert_eq!(fired[0].at, 2);
        // A 50 s wait pushes the p95 (max of 3 samples) over 10 s.
        let fired = engine.observe(&admitted("cifar", 50.0));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].rule, "queue_p95_ceiling");
        assert_eq!(fired[0].observed, 50.0);
    }

    #[test]
    fn recovery_ceiling_measures_crash_to_shrink_distance() {
        let mut engine = SloEngine::new(vec![SloRule::RecoveryCeiling { max_steps: 3 }]);
        let crash = |step| {
            rec(Event::FaultInjected(FaultInjected {
                kind: FaultKind::NodeCrash,
                node: Some(1),
                step,
                attempts: 1,
                magnitude: 0.0,
            }))
        };
        let shrink = |step| {
            rec(Event::RecoveryAction(RecoveryAction {
                kind: RecoveryKind::GroupShrink,
                node: Some(1),
                step,
                attempt: 0,
                backoff_ns: 0,
            }))
        };
        assert!(engine.observe(&crash(10)).is_empty());
        assert!(engine.observe(&shrink(12)).is_empty(), "2 steps <= ceiling");
        assert!(engine.observe(&crash(20)).is_empty());
        let fired = engine.observe(&shrink(30));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].observed, 10.0);
        assert_eq!(fired[0].at, 2);
        // A shrink without a pending crash (e.g. a scheduled leave) is ignored.
        assert!(engine.observe(&shrink(31)).is_empty());
    }

    #[test]
    fn replay_reproduces_online_verdicts_and_detects_tampering() {
        let rules = vec![SloRule::GoodputFloor { floor: 1.0 }];
        // Build the trace the way the online path would: engine-fired
        // violations appear as records after their trigger.
        let mut engine = SloEngine::new(rules.clone());
        let mut trace = Vec::new();
        for v in [5.0, 0.2, 4.0] {
            let r = goodput(v);
            let fired = engine.observe(&r);
            trace.push(r);
            trace.extend(fired.into_iter().map(|v| rec(Event::SloViolation(v))));
        }
        let report = replay_slos(&trace, &rules);
        assert_eq!(report.offline.len(), 1);
        assert_eq!(report.online.len(), 1);
        assert!(report.verdicts_match());
        assert_eq!(report.count_for("goodput_floor", None), 1);
        assert!(report.render().contains("verdicts agree"));
        // Drop the online record: the replay notices.
        let stripped: Vec<Record> =
            trace.iter().filter(|r| !matches!(r.event, Event::SloViolation(_))).cloned().collect();
        assert!(!replay_slos(&stripped, &rules).verdicts_match());
    }

    #[test]
    fn monitor_injects_violations_online() {
        let monitor = SloMonitor::install(vec![SloRule::GoodputFloor { floor: 1.0 }]);
        let session = Session::start();
        {
            let _id = telemetry::set_thread_identity(3, 5);
            telemetry::emit(Event::Counter(Counter { name: "fleet_goodput".into(), value: 8.0 }));
            telemetry::emit(Event::Counter(Counter { name: "fleet_goodput".into(), value: 0.25 }));
            telemetry::flush_thread();
        }
        let fresh = monitor.drain_new();
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].rule, "goodput_floor");
        assert!(monitor.drain_new().is_empty(), "drain_new must not replay");
        assert_eq!(monitor.violations(), fresh);
        let records = session.drain();
        // The verdict is stamped with its trigger's identity.
        let online: Vec<(u32, u32, &SloViolation)> = records
            .iter()
            .filter_map(|r| match &r.event {
                Event::SloViolation(v) => Some((r.node, r.rank, v)),
                _ => None,
            })
            .collect();
        assert_eq!(online, [(3, 5, &fresh[0])]);
    }
}
