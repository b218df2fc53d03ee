//! Job submissions: what a tenant hands the fleet control plane.

use cannikin_core::engine::{LinearNoiseGrowth, TrainerConfig};
use cannikin_core::policy::PolicyKind;
use hetsim::job::JobSpec;
use hetsim::FaultPlan;

/// Priority class of a fleet job. Classes map to fair-share weights: a
/// `Production` job is entitled to 4× the service of a `BestEffort` job
/// under contention (weighted max-min, see [`crate::alloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Opportunistic: runs on leftovers, first to be preempted.
    BestEffort,
    /// The default class.
    Standard,
    /// Latency-sensitive: largest share, last to be preempted.
    Production,
}

impl Priority {
    /// The class's fair-share weight.
    pub fn weight(self) -> f64 {
        match self {
            Priority::BestEffort => 1.0,
            Priority::Standard => 2.0,
            Priority::Production => 4.0,
        }
    }

    /// Stable string tag (reports and logs).
    pub fn as_str(self) -> &'static str {
        match self {
            Priority::BestEffort => "best_effort",
            Priority::Standard => "standard",
            Priority::Production => "production",
        }
    }
}

/// One submission in the fleet's job stream.
///
/// Construct with [`FleetJobSpec::new`] and chain the setters; every
/// field has a sensible default (Standard priority, arrival at t = 0,
/// node range `[1, pool]`, the workload profiles' linear GNS growth).
/// A spec holds no service-level objective: a per-job queue ceiling is a
/// `JobQueueCeiling` rule the caller hands `cannikin_insight::replay_slos`
/// with the recorded trace.
#[derive(Debug)]
pub struct FleetJobSpec {
    /// Job name — must be unique within one controller.
    pub name: String,
    /// The simulated workload.
    pub job: JobSpec,
    /// Trainer configuration (dataset size, batch range, aggregation).
    pub config: TrainerConfig,
    /// Gradient-noise evolution model driving the job's batch demand.
    pub noise: LinearNoiseGrowth,
    /// Statistical progress at which the job completes.
    pub target_effective_epochs: f64,
    /// Priority class (fair-share weight).
    pub priority: Priority,
    /// Fleet wall-clock time at which the job arrives, s.
    pub arrival: f64,
    /// Fewest nodes the job will accept at admission.
    pub min_nodes: usize,
    /// Most nodes the job can use (clamped to the pool and to
    /// `config.base_batch`, since every node needs at least one sample).
    pub max_nodes: usize,
    /// Seed of the job's private simulator.
    pub seed: u64,
    /// Optional fault schedule, injected into the job's *first*
    /// allocation (a rebuilt post-eviction simulator runs fault-free).
    pub fault_plan: Option<FaultPlan>,
    /// Adaptation policy the job's trainer plans with (default: the
    /// paper's OptPerf + goodput planner).
    pub policy: PolicyKind,
}

impl FleetJobSpec {
    /// A submission with default priority/arrival/node-range/noise.
    pub fn new(
        name: impl Into<String>,
        job: JobSpec,
        config: TrainerConfig,
        target_effective_epochs: f64,
    ) -> Self {
        FleetJobSpec {
            name: name.into(),
            job,
            config,
            noise: LinearNoiseGrowth { initial: 400.0, rate: 0.5 },
            target_effective_epochs,
            priority: Priority::Standard,
            arrival: 0.0,
            min_nodes: 1,
            max_nodes: usize::MAX,
            seed: 0,
            fault_plan: None,
            policy: PolicyKind::OptPerf,
        }
    }

    /// Set the priority class.
    pub fn priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Set the GNS growth model (φ(t) = initial·(1 + rate·t)).
    pub fn noise(mut self, initial: f64, rate: f64) -> Self {
        self.noise = LinearNoiseGrowth { initial, rate };
        self
    }

    /// Set the arrival time (fleet wall-clock seconds).
    pub fn arrival(mut self, arrival: f64) -> Self {
        self.arrival = arrival;
        self
    }

    /// Set the admissible node range.
    ///
    /// # Panics
    ///
    /// Panics if `min == 0` or `min > max`.
    pub fn node_range(mut self, min: usize, max: usize) -> Self {
        assert!(min >= 1 && min <= max, "node range must satisfy 1 <= min <= max");
        self.min_nodes = min;
        self.max_nodes = max;
        self
    }

    /// Set the job's simulator seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Set the adaptation policy the job's trainer plans with.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a fault schedule to the job's first allocation.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }
}

/// splitmix64 — a tiny deterministic generator so traces need no RNG
/// dependency (and stay bitwise reproducible forever).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn uniform(state: &mut u64) -> f64 {
    (splitmix(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// A seeded synthetic arrival trace: `jobs` submissions sampled from the
/// paper's Table-5 workloads (shrunk datasets so fleets simulate in
/// seconds), with splitmix-driven template choice, priorities and
/// inter-arrival gaps of mean `mean_gap_s`. Same seed → identical trace.
pub fn synthetic_trace(seed: u64, jobs: usize, mean_gap_s: f64) -> Vec<FleetJobSpec> {
    // (label, workload, config, target effective epochs, GNS initial/rate)
    type Template = (&'static str, fn() -> JobSpec, TrainerConfig, f64, (f64, f64));
    let templates: [Template; 4] = [
        ("cifar", JobSpec::resnet18_cifar10, TrainerConfig::new(6_400, 64, 512), 3.0, (300.0, 1.0)),
        ("imagenet", JobSpec::resnet50_imagenet, TrainerConfig::new(12_800, 128, 1_024), 4.0, (400.0, 0.8)),
        ("neumf", JobSpec::neumf_movielens, TrainerConfig::new(6_400, 64, 512), 2.0, (250.0, 1.2)),
        ("bert", JobSpec::bert_squad, TrainerConfig::new(6_400, 64, 512), 2.5, (500.0, 0.6)),
    ];
    let priorities = [Priority::BestEffort, Priority::Standard, Priority::Standard, Priority::Production];
    // Fixed salt ("cannikin" LE) so seed 0 is not the all-zeros stream.
    let mut state = seed ^ 0x6e69_6b69_6e6e_6163;
    let mut arrival = 0.0;
    (0..jobs)
        .map(|i| {
            let t = &templates[(splitmix(&mut state) % templates.len() as u64) as usize];
            let priority = priorities[(splitmix(&mut state) % priorities.len() as u64) as usize];
            // Exponential-ish inter-arrival gaps (inverse-CDF of a capped
            // exponential keeps the trace short without a long tail).
            if i > 0 {
                arrival += (-(1.0 - uniform(&mut state)).ln()).min(3.0) * mean_gap_s;
            }
            FleetJobSpec::new(format!("{}-{i}", t.0), t.1(), t.2.clone(), t.3)
                .noise(t.4 .0, t.4 .1)
                .priority(priority)
                .arrival(arrival)
                .seed(seed.wrapping_mul(31).wrapping_add(i as u64))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_deterministic_and_sorted_by_arrival() {
        let a = synthetic_trace(7, 6, 10.0);
        let b = synthetic_trace(7, 6, 10.0);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.seed, y.seed);
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            assert_eq!(x.priority, y.priority);
        }
        for pair in a.windows(2) {
            assert!(pair[1].arrival >= pair[0].arrival, "arrivals are monotone");
        }
        assert!((a[0].arrival - 0.0).abs() < 1e-12, "first job arrives at t=0");
    }

    #[test]
    fn different_seeds_differ() {
        let a = synthetic_trace(1, 5, 10.0);
        let b = synthetic_trace(2, 5, 10.0);
        assert!(
            a.iter().zip(&b).any(|(x, y)| x.name != y.name || x.arrival != y.arrival),
            "two seeds should not produce the same trace"
        );
    }

    #[test]
    fn priority_weights_are_ordered() {
        assert!(Priority::Production.weight() > Priority::Standard.weight());
        assert!(Priority::Standard.weight() > Priority::BestEffort.weight());
    }
}
