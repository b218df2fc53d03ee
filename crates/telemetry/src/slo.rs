//! Declarative service-level objectives over the fleet event stream.
//!
//! This module holds only the rule *specifications* — plain data a
//! [`crate::event::FleetJobSample`]-emitting control plane (`cannikin-fleet`)
//! can attach to job specs without depending on the evaluation machinery.
//! The engine that evaluates rules over drained or parsed traces lives in
//! `cannikin-insight::slo` (the dependency arrow runs fleet → telemetry ←
//! insight, never fleet → insight).
//!
//! Every rule watches a *closed* input set — named fleet counters,
//! admissions, faults and recoveries — and judges values that are pure
//! functions of the deterministic simulation, so two same-seed traces
//! produce byte-identical verdicts.

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
    /// Stable rule id (the `rule` field of the `SloViolation`s
    /// `cannikin-insight` reports).
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
/// trip on pathological schedules, suitable as a starting point for
/// `FleetJobSpec`-level tightening.
pub fn default_fleet_slos() -> Vec<SloRule> {
    vec![
        SloRule::GoodputFloor { floor: 1.0 },
        SloRule::QueueP95Ceiling { ceiling_s: 600.0 },
        SloRule::FairnessFloor { floor: 0.2 },
        SloRule::RecoveryCeiling { max_steps: 8 },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
