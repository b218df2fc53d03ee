//! Capability-tagged registry of scenarios and subjects.
//!
//! A [`ScenarioSpec`] names a cluster condition and lists the
//! [`Capability`] set a subject must *provide* to run under it; a
//! [`SubjectSpec`] names a trainer and lists what it provides. The
//! evaluation matrix is the filtered cross-product ([`matrix`]):
//! `requires ⊆ provides`, nothing else. Tags do all the filtering — a
//! sim-only scenario requires [`Capability::SimDriven`], which no real
//! trainer declares, so kind mismatches can never pair up.

use cannikin_collectives::{Codec, CommFaultPlan};
use hetsim::catalog::Gpu;
use hetsim::cluster::NodeSpec;
use hetsim::FaultPlan;

/// One trait a subject may provide and a scenario may demand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Capability {
    /// Runs on the [`hetsim::Simulator`] and accepts a [`FaultPlan`].
    SimDriven,
    /// Runs real gradient exchanges over a collectives transport.
    RealComm,
    /// Tolerates *stretching* faults (contention, slowdown bursts): the
    /// subject steps the simulator, so mutated ground truth reaches it.
    FaultInjection,
    /// Survives membership changes — evicts crashed or departing nodes,
    /// admits joiners, and re-plans mid-epoch.
    Elastic,
    /// Retries or discards a failed gradient exchange instead of silently
    /// counting the lost step as statistical progress.
    CommRetry,
    /// Compresses gradients on the wire (codec with error feedback).
    Compression,
    /// Adapts the total batch size to the measured noise scale.
    AdaptiveBatch,
}

impl Capability {
    /// Stable lowercase label (JSON and table output).
    pub fn label(self) -> &'static str {
        match self {
            Capability::SimDriven => "sim-driven",
            Capability::RealComm => "real-comm",
            Capability::FaultInjection => "fault-injection",
            Capability::Elastic => "elastic",
            Capability::CommRetry => "comm-retry",
            Capability::Compression => "compression",
            Capability::AdaptiveBatch => "adaptive-batch",
        }
    }

    /// Every capability, in declaration order (property tests enumerate
    /// subsets of this).
    pub fn all() -> Vec<Capability> {
        vec![
            Capability::SimDriven,
            Capability::RealComm,
            Capability::FaultInjection,
            Capability::Elastic,
            Capability::CommRetry,
            Capability::Compression,
            Capability::AdaptiveBatch,
        ]
    }
}

/// How a scenario drives its cell.
#[derive(Debug, Clone)]
pub enum ScenarioKind {
    /// Simulator-driven: an optional fault plan (seeded per cell), a
    /// target in effective epochs, and an epoch cap.
    Sim {
        /// Constructs the plan from the cell seed; `None` = calm cluster.
        plan: Option<fn(u64) -> FaultPlan>,
        /// Effective epochs to reach.
        target: f64,
        /// Hard cap on epochs (a subject that cannot converge stops here).
        max_epochs: usize,
    },
    /// Real-gradient: an optional injected comm-fault plan and a fixed
    /// epoch count.
    Real {
        /// Constructs the comm-fault plan from the cell seed.
        faults: Option<fn(u64) -> CommFaultPlan>,
        /// Epochs to run (fixed, so byte counts are comparable).
        epochs: usize,
    },
}

/// A named cluster condition plus the capabilities it demands.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Stable id (JSON key, CLI argument).
    pub name: &'static str,
    /// One-line description for `scenarios --list`.
    pub description: &'static str,
    /// Capabilities a subject must provide to enter this scenario.
    pub requires: Vec<Capability>,
    /// How the runner drives the cell.
    pub kind: ScenarioKind,
}

/// Which simulator-driven trainer a subject constructs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimSystem {
    /// Cannikin with adaptive batch sizing (the paper's full system).
    Cannikin,
    /// Cannikin with the batch pinned (adaptive split, static total).
    CannikinFixed,
    /// AdaptDL/Pollux: adaptive total, homogeneous even split.
    AdaptDl,
    /// PyTorch DDP: fixed total, even split.
    Ddp,
    /// LB-BSP: fixed total, iteratively tuned split.
    LbBsp,
    /// HetPipe: pipelined model parallelism, analytic batch time.
    HetPipe,
    /// The Cannikin engine planning through the seeded bandit policy
    /// ([`cannikin_core::policy::RlBatchPolicy`]) — the one shipped policy
    /// with no baseline twin (`Even` is [`SimSystem::AdaptDl`], `LbBsp`
    /// is [`SimSystem::LbBsp`], `OptPerf` is [`SimSystem::Cannikin`]).
    Rl,
}

/// How a subject is constructed.
#[derive(Debug, Clone)]
pub enum SubjectKind {
    /// A simulator-driven trainer.
    Sim(SimSystem),
    /// A real [`ParallelTrainer`](cannikin_core::engine::ParallelTrainer):
    /// `tcp` picks the loopback-TCP transport over in-process channels.
    Real {
        /// Loopback TCP instead of in-process channels.
        tcp: bool,
        /// Gradient codec on the wire.
        codec: Codec,
    },
}

/// A trainer under evaluation plus the capabilities it declares.
#[derive(Debug, Clone)]
pub struct SubjectSpec {
    /// Stable id (JSON key, CLI argument).
    pub name: &'static str,
    /// One-line description for `scenarios --list`.
    pub description: &'static str,
    /// Capabilities this subject provides.
    pub provides: Vec<Capability>,
    /// How the runner constructs it.
    pub kind: SubjectKind,
}

use Capability::{AdaptiveBatch, CommRetry, Compression, Elastic, FaultInjection, RealComm, SimDriven};

fn plan_spot_preemption(seed: u64) -> FaultPlan {
    // Node 1 (the V100) is preempted at step 150; a replacement V100
    // arrives 150 steps later — the classic spot-instance life cycle.
    FaultPlan::spot_preemption(seed, 1, 150, 300, NodeSpec::new("v100-replacement", Gpu::V100))
}

fn plan_diurnal_contention(seed: u64) -> FaultPlan {
    // From step 20, node 1 alternates every 40 steps between full speed
    // and half of its compute: the shared-cluster day/night pattern.
    FaultPlan::diurnal_contention(seed, 1, 40, 0.5, 20)
}

fn plan_straggler_onset(seed: u64) -> FaultPlan {
    // Node 2 permanently slows 2.5x at step 100 (thermal throttling).
    FaultPlan::straggler_onset(seed, 2, 100, 2.5)
}

fn plan_flaky_network(seed: u64) -> FaultPlan {
    // 5% of gradient syncs fail, two attempts before the step is lost.
    FaultPlan::flaky_network(seed, 0.05, 2)
}

fn plan_cluster_churn(seed: u64) -> FaultPlan {
    // Node 2 leaves gracefully at step 120; a different machine joins at
    // step 240 — fleet reallocation without any failure.
    FaultPlan::cluster_churn(seed, 2, 120, NodeSpec::new("rtx-join", Gpu::Rtx6000), 240)
}

fn comm_lossy(seed: u64) -> CommFaultPlan {
    // 15% of the first 64 collectives fail once (always recoverable by a
    // single retry) — enough loss to exercise error-feedback state.
    CommFaultPlan::lossy(seed, 64, 0.15)
}

/// Every scenario, in report order.
pub fn registry() -> Vec<ScenarioSpec> {
    let sim_target = 3.0;
    let sim_cap = 60;
    vec![
        ScenarioSpec {
            name: "calm-baseline",
            description: "healthy heterogeneous cluster, no faults",
            requires: vec![SimDriven],
            kind: ScenarioKind::Sim { plan: None, target: sim_target, max_epochs: sim_cap },
        },
        ScenarioSpec {
            name: "diurnal-contention",
            description: "node 1 flaps to half speed every 40 steps",
            requires: vec![SimDriven, FaultInjection],
            kind: ScenarioKind::Sim { plan: Some(plan_diurnal_contention), target: sim_target, max_epochs: sim_cap },
        },
        ScenarioSpec {
            name: "straggler-onset",
            description: "node 2 permanently slows 2.5x at step 100",
            requires: vec![SimDriven, FaultInjection],
            kind: ScenarioKind::Sim { plan: Some(plan_straggler_onset), target: sim_target, max_epochs: sim_cap },
        },
        ScenarioSpec {
            name: "flaky-network",
            description: "5% of gradient syncs fail (2 attempts each)",
            requires: vec![SimDriven, CommRetry],
            kind: ScenarioKind::Sim { plan: Some(plan_flaky_network), target: sim_target, max_epochs: sim_cap },
        },
        ScenarioSpec {
            name: "spot-preemption",
            description: "node 1 preempted at step 150, replacement joins at 300",
            requires: vec![SimDriven, Elastic],
            kind: ScenarioKind::Sim { plan: Some(plan_spot_preemption), target: sim_target, max_epochs: sim_cap },
        },
        ScenarioSpec {
            name: "cluster-churn",
            description: "node 2 leaves at step 120, a new node joins at 240",
            requires: vec![SimDriven, Elastic],
            kind: ScenarioKind::Sim { plan: Some(plan_cluster_churn), target: sim_target, max_epochs: sim_cap },
        },
        ScenarioSpec {
            name: "lan-clean",
            description: "real gradient exchange, clean links",
            requires: vec![RealComm],
            // One epoch exactly: the first epoch plans from the
            // deterministic bootstrap split, while later epochs re-plan
            // from *measured wall times* — which would leak the machine's
            // clock into the loss trajectory and break the byte-identical
            // report contract.
            kind: ScenarioKind::Real { faults: None, epochs: 1 },
        },
        ScenarioSpec {
            name: "codec-under-loss",
            description: "compressed gradients over a lossy link (15% one-shot failures)",
            requires: vec![RealComm, CommRetry, Compression],
            kind: ScenarioKind::Real { faults: Some(comm_lossy), epochs: 1 },
        },
    ]
}

/// Every subject, in report order.
pub fn subjects() -> Vec<SubjectSpec> {
    vec![
        SubjectSpec {
            name: "cannikin",
            description: "full system: adaptive batch + optimal split + elastic recovery",
            provides: vec![SimDriven, FaultInjection, Elastic, CommRetry, AdaptiveBatch],
            kind: SubjectKind::Sim(SimSystem::Cannikin),
        },
        SubjectSpec {
            name: "cannikin-fixed",
            description: "Cannikin with the total batch pinned (static reference)",
            provides: vec![SimDriven, FaultInjection, Elastic, CommRetry],
            kind: SubjectKind::Sim(SimSystem::CannikinFixed),
        },
        SubjectSpec {
            name: "adaptdl",
            description: "AdaptDL/Pollux: adaptive total, even split",
            provides: vec![SimDriven, FaultInjection, AdaptiveBatch],
            kind: SubjectKind::Sim(SimSystem::AdaptDl),
        },
        SubjectSpec {
            name: "ddp",
            description: "PyTorch DDP: fixed total, even split",
            provides: vec![SimDriven, FaultInjection],
            kind: SubjectKind::Sim(SimSystem::Ddp),
        },
        SubjectSpec {
            name: "lbbsp",
            description: "LB-BSP: fixed total, tuned split",
            provides: vec![SimDriven, FaultInjection],
            kind: SubjectKind::Sim(SimSystem::LbBsp),
        },
        SubjectSpec {
            name: "hetpipe",
            description: "HetPipe: pipelined model parallelism (analytic batch time)",
            provides: vec![SimDriven],
            kind: SubjectKind::Sim(SimSystem::HetPipe),
        },
        SubjectSpec {
            name: "policy-rl",
            description: "Cannikin engine planning through the seeded bandit policy",
            provides: vec![SimDriven, FaultInjection, AdaptiveBatch],
            kind: SubjectKind::Sim(SimSystem::Rl),
        },
        SubjectSpec {
            name: "parallel-inproc",
            description: "real trainer, in-process ring, raw f32 gradients",
            provides: vec![RealComm, CommRetry],
            kind: SubjectKind::Real { tcp: false, codec: Codec::None },
        },
        SubjectSpec {
            name: "parallel-tcp",
            description: "real trainer, loopback-TCP ring, raw f32 gradients",
            provides: vec![RealComm, CommRetry],
            kind: SubjectKind::Real { tcp: true, codec: Codec::None },
        },
        SubjectSpec {
            name: "parallel-bf16",
            description: "real trainer, in-process ring, bf16 codec",
            provides: vec![RealComm, CommRetry, Compression],
            kind: SubjectKind::Real { tcp: false, codec: Codec::Bf16 },
        },
        SubjectSpec {
            name: "parallel-topk",
            description: "real trainer, in-process ring, top-10% sparsifier",
            provides: vec![RealComm, CommRetry, Compression],
            kind: SubjectKind::Real { tcp: false, codec: Codec::TopK { permille: 100 } },
        },
    ]
}

/// Whether `subject` may run under `scenario`: every required capability
/// is declared. This is the *only* filter — soundness (a subject is never
/// handed a scenario demanding something it did not declare) follows by
/// construction, and the property test in `tests/scenarios.rs` holds it
/// there.
pub fn compatible(scenario: &ScenarioSpec, subject: &SubjectSpec) -> bool {
    scenario.requires.iter().all(|cap| subject.provides.contains(cap))
}

/// The evaluation matrix: every compatible (scenario, subject) pair, in
/// registry × subject order (deterministic).
pub fn matrix() -> Vec<(ScenarioSpec, SubjectSpec)> {
    let mut cells = Vec::new();
    for scenario in registry() {
        for subject in subjects() {
            if compatible(&scenario, &subject) {
                cells.push((scenario.clone(), subject.clone()));
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = registry().iter().map(|s| s.name).collect();
        names.extend(subjects().iter().map(|s| s.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "scenario/subject names must be unique");
    }

    #[test]
    fn matrix_meets_the_acceptance_floor() {
        let cells = matrix();
        assert!(cells.len() >= 20, "matrix has {} cells, need >= 20", cells.len());
        let mut scenarios: Vec<&str> = cells.iter().map(|(s, _)| s.name).collect();
        scenarios.sort_unstable();
        scenarios.dedup();
        assert!(scenarios.len() >= 5, "{} scenarios produce cells, need >= 5", scenarios.len());
        let mut subs: Vec<&str> = cells.iter().map(|(_, s)| s.name).collect();
        subs.sort_unstable();
        subs.dedup();
        assert!(subs.len() >= 4, "{} subjects produce cells, need >= 4", subs.len());
    }

    #[test]
    fn every_cell_is_sound() {
        for (scenario, subject) in matrix() {
            for cap in &scenario.requires {
                assert!(
                    subject.provides.contains(cap),
                    "{}/{} pairs without providing {:?}",
                    scenario.name,
                    subject.name,
                    cap
                );
            }
        }
    }

    #[test]
    fn kinds_never_cross() {
        // SimDriven/RealComm tags alone must keep sim scenarios off real
        // subjects and vice versa.
        for (scenario, subject) in matrix() {
            match (&scenario.kind, &subject.kind) {
                (ScenarioKind::Sim { .. }, SubjectKind::Sim(_)) => {}
                (ScenarioKind::Real { .. }, SubjectKind::Real { .. }) => {}
                other => panic!("{}/{} crossed kinds: {other:?}", scenario.name, subject.name),
            }
        }
    }

    #[test]
    fn elastic_scenarios_exclude_non_elastic_subjects() {
        let cells = matrix();
        for name in ["spot-preemption", "cluster-churn"] {
            let subs: Vec<&str> =
                cells.iter().filter(|(s, _)| s.name == name).map(|(_, s)| s.name).collect();
            assert_eq!(subs, vec!["cannikin", "cannikin-fixed"], "{name} must only run elastic subjects");
        }
    }

    #[test]
    fn capability_labels_are_unique() {
        let mut labels: Vec<&str> = Capability::all().into_iter().map(Capability::label).collect();
        let total = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), total);
    }
}
