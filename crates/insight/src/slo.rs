//! Service-level objectives over the fleet event stream: the declarative
//! [`SloRule`]s and the engine that judges them over a drained or parsed
//! trace ([`replay_slos`]).
//!
//! ## Determinism contract
//!
//! Every rule watches a *closed* input set — the `fleet_goodput` and
//! `fleet_fairness` counters, `JobAdmitted`, node-crash
//! `FaultInjected` and group-shrink/replan `RecoveryAction` records —
//! and every judged value is a pure function of that sequence. Record
//! timestamps are never read (they are wall-clock and differ between
//! same-seed runs); a violation's `at` field is the ordinal of the
//! triggering observation within the rule's input stream instead.
//!
//! Floor/ceiling rules over running aggregates (goodput, fairness, queue
//! p95) fire on *crossings* — the first observation that enters violation
//! after a healthy one — so a persistently-degraded metric produces one
//! violation, not one per tick. Per-event rules (a single admission over
//! its job's ceiling, a single slow crash recovery) fire per offending
//! event.

use cannikin_telemetry::{Event, FaultKind, Record, RecoveryKind};

/// One service-level objective.
#[derive(Debug, Clone, PartialEq)]
pub enum SloRule {
    /// Fleet-wide useful-work rate (the `fleet_goodput` counter,
    /// effective samples per simulated second) must stay at or above
    /// `floor`. Zero-goodput samples before any job makes progress are
    /// not judged.
    GoodputFloor {
        /// Minimum acceptable goodput, effective samples/s.
        floor: f64,
    },
    /// The p95 (nearest-rank) of admission-queue waits across all
    /// admissions so far must stay at or below `ceiling_s`.
    QueueP95Ceiling {
        /// Maximum acceptable p95 queue wait, seconds.
        ceiling_s: f64,
    },
    /// Jain's fairness index over priority-weighted service (the
    /// `fleet_fairness` counter) must stay at or above `floor`.
    FairnessFloor {
        /// Minimum acceptable Jain index, in `(0, 1]`.
        floor: f64,
    },
    /// After a node crash, the matching group-shrink/replan recovery must
    /// land within `max_steps` training steps.
    RecoveryCeiling {
        /// Maximum acceptable crash-to-recovery distance, steps.
        max_steps: u64,
    },
    /// One job's admission-queue waits must each stay at or below
    /// `ceiling_s` (judged per admission, not in aggregate).
    JobQueueCeiling {
        /// The job the rule is scoped to.
        job: String,
        /// Maximum acceptable queue wait for one admission, seconds.
        ceiling_s: f64,
    },
}

impl SloRule {
    /// Stable rule id (the `rule` field of a [`SloViolation`]).
    pub fn id(&self) -> &'static str {
        match self {
            SloRule::GoodputFloor { .. } => "goodput_floor",
            SloRule::QueueP95Ceiling { .. } => "queue_p95_ceiling",
            SloRule::FairnessFloor { .. } => "fairness_floor",
            SloRule::RecoveryCeiling { .. } => "recovery_ceiling",
            SloRule::JobQueueCeiling { .. } => "job_queue_ceiling",
        }
    }

    /// The job the rule is scoped to, when per-job.
    pub fn job(&self) -> Option<&str> {
        match self {
            SloRule::JobQueueCeiling { job, .. } => Some(job),
            _ => None,
        }
    }

    /// The configured threshold (floor or ceiling, unit per rule).
    pub fn threshold(&self) -> f64 {
        match *self {
            SloRule::GoodputFloor { floor } | SloRule::FairnessFloor { floor } => floor,
            SloRule::QueueP95Ceiling { ceiling_s } | SloRule::JobQueueCeiling { ceiling_s, .. } => ceiling_s,
            SloRule::RecoveryCeiling { max_steps } => max_steps as f64,
        }
    }

    /// A one-line human description (report tables).
    pub fn describe(&self) -> String {
        match self {
            SloRule::GoodputFloor { floor } => format!("fleet goodput >= {floor} samples/s"),
            SloRule::QueueP95Ceiling { ceiling_s } => format!("admission-queue p95 <= {ceiling_s} s"),
            SloRule::FairnessFloor { floor } => format!("Jain fairness >= {floor}"),
            SloRule::RecoveryCeiling { max_steps } => format!("crash recovery <= {max_steps} steps"),
            SloRule::JobQueueCeiling { job, ceiling_s } => format!("job `{job}` queue wait <= {ceiling_s} s"),
        }
    }
}

/// The default fleet-wide objectives: deliberately loose floors that only
/// trip on pathological schedules. A caller judging per-job waits appends
/// one [`SloRule::JobQueueCeiling`] per job.
pub fn default_fleet_slos() -> Vec<SloRule> {
    vec![
        SloRule::GoodputFloor { floor: 1.0 },
        SloRule::QueueP95Ceiling { ceiling_s: 600.0 },
        SloRule::FairnessFloor { floor: 0.2 },
        SloRule::RecoveryCeiling { max_steps: 8 },
    ]
}

/// A service-level objective was breached.
#[derive(Debug, Clone, PartialEq)]
pub struct SloViolation {
    /// Stable rule id (e.g. `goodput_floor`, `queue_p95_ceiling`).
    pub rule: String,
    /// Job the rule is scoped to (`None` for fleet-wide rules).
    pub job: Option<String>,
    /// The configured threshold.
    pub threshold: f64,
    /// The observed value that breached it.
    pub observed: f64,
    /// Ordinal of the triggering observation within the rule's input
    /// stream (deterministic, unlike the record timestamp).
    pub at: u64,
}

/// Evaluates a rule set against a record sequence. Feed records in
/// emission order via [`SloEngine::observe`]; equal sequences produce
/// equal violation sequences.
#[derive(Debug)]
pub(crate) struct SloEngine {
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
    pub(crate) fn new(rules: Vec<SloRule>) -> SloEngine {
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

    /// Feed one record; returns the violations it triggered (usually
    /// empty).
    pub(crate) fn observe(&mut self, record: &Record) -> Vec<SloViolation> {
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

/// The `q`-quantile of an ascending slice by nearest rank: the sample at
/// rank `⌈q·n⌉` (at least 1), so the answer is always a recorded value.
/// The one quantile rule of the diagnostics: the queue p95 here, the
/// per-node compute quantiles of [`crate::analyze`], and the span table
/// of `figures telemetry`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "nearest_rank needs at least one sample");
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The rules and the violations the engine finds over a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The rules evaluated.
    pub rules: Vec<SloRule>,
    /// Every violation, in trace order.
    pub violations: Vec<SloViolation>,
}

impl SloReport {
    /// Violation count for one rule id (compliance tables).
    pub fn count_for(&self, rule_id: &str, job: Option<&str>) -> usize {
        self.violations.iter().filter(|v| v.rule == rule_id && v.job.as_deref() == job).count()
    }

    /// A short text rendering (the CLI's SLO section).
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "slo: {} rules, {} violations", self.rules.len(), self.violations.len());
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
        for v in &self.violations {
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

/// Run the rules over a drained or parsed trace, in record order.
pub fn replay_slos(records: &[Record], rules: &[SloRule]) -> SloReport {
    let mut engine = SloEngine::new(rules.to_vec());
    let violations = records.iter().flat_map(|record| engine.observe(record)).collect();
    SloReport { rules: rules.to_vec(), violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cannikin_telemetry::{Counter, FaultInjected, JobAdmitted, RecoveryAction};

    #[test]
    fn rule_ids_are_distinct_and_stable() {
        let rules = [
            SloRule::GoodputFloor { floor: 1.0 },
            SloRule::QueueP95Ceiling { ceiling_s: 1.0 },
            SloRule::FairnessFloor { floor: 0.5 },
            SloRule::RecoveryCeiling { max_steps: 4 },
            SloRule::JobQueueCeiling { job: "a".into(), ceiling_s: 1.0 },
        ];
        let ids: std::collections::HashSet<&str> = rules.iter().map(SloRule::id).collect();
        assert_eq!(ids.len(), rules.len());
        assert_eq!(rules[0].id(), "goodput_floor");
        assert_eq!(rules[4].job(), Some("a"));
        assert_eq!(rules[3].threshold(), 4.0);
    }

    #[test]
    fn defaults_are_fleet_wide() {
        let defaults = default_fleet_slos();
        assert_eq!(defaults.len(), 4);
        assert!(defaults.iter().all(|r| r.job().is_none()));
    }

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
}
