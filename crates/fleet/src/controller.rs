//! The fleet controller: admission, allocation, epoch-boundary preemption.
//!
//! One [`FleetController`] owns a [`NodePool`] and a stream of
//! [`FleetJobSpec`] submissions. Time is *fleet time*: the simulated
//! seconds accumulated by the jobs' own epoch clocks (`epoch_time` sums —
//! never host wall time, so a schedule is bitwise reproducible). Each job
//! carries a *frontier*, the fleet time at which its last epoch
//! completed; the controller always steps the running job with the
//! earliest frontier, which makes the interleaving of asynchronous
//! per-job epochs deterministic.
//!
//! Every epoch boundary is a decision point:
//!
//! 1. pending submissions whose arrival time has passed join the queue;
//! 2. the allocator ([`crate::alloc::targets`]) recomputes per-job node
//!    targets from GNS-driven demands;
//! 3. shrinks run first (through `Simulator::remove_node` +
//!    `CannikinTrainer::on_cluster_change`, slowest nodes released
//!    first), then grants (`add_node`, fastest free nodes first), then
//!    admissions (a fresh trainer on the granted sub-cluster);
//! 4. a fully evicted job checkpoints its *statistical* progress
//!    (effective epochs, wall clock, epoch count) and re-enters the
//!    queue; on re-admission [`CannikinTrainer::restore_progress`]
//!    resumes the count while the new node set re-profiles through the
//!    Eq. (8) bootstrap. Performance models are deliberately not
//!    checkpointed — they describe the *old* node set.
//!
//! Node crashes from a job's [`FaultPlan`](hetsim::FaultPlan) are
//! reconciled after each epoch: the trainer's fault-aware loop evicts
//! dead nodes from its own simulator mid-epoch, and the controller diffs
//! the simulator's surviving node names against the job's granted pool
//! ids, marking the difference dead in the pool (dead nodes never return
//! to the free list).

use crate::alloc::{self, AllocPolicy, JobDemand};
use crate::demand;
use crate::metrics::{jain_fairness, FleetReport, JobOutcome};
use crate::pool::NodePool;
use crate::spec::FleetJobSpec;

use cannikin_core::engine::{CannikinTrainer, EpochRecord, NoiseModel};
use cannikin_core::error::CannikinError;
use cannikin_telemetry::{
    self as telemetry, Event, FleetDecision, FleetJobSample, JobAdmitted, JobPreempted, NodeGranted, PreemptKind, SloRule,
};
use hetsim::cluster::{ClusterSpec, NodeSpec};
use hetsim::Simulator;

/// A free node replaces a held one only when it is at least this much
/// faster (effective flops ratio): a swap costs the job a bootstrap
/// re-profile, so marginal upgrades are not worth the churn. 1.25 admits
/// every cross-tier move in the Table 1 catalog (V100 → A100 is 2.5×)
/// while rejecting same-tier shuffling.
const UPGRADE_MARGIN: f64 = 1.25;

/// Why a fleet run could not proceed.
#[derive(Debug)]
pub enum FleetError {
    /// A job's trainer failed (solver infeasibility, bad batch range).
    Train(CannikinError),
    /// The submission stream or pool is malformed.
    InvalidSpec(String),
    /// The fleet can make no further progress (jobs stuck in the queue
    /// that no allocation can ever admit, or the epoch budget ran out).
    Stalled {
        /// Human-readable diagnosis.
        detail: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::Train(e) => write!(f, "job trainer failed: {e}"),
            FleetError::InvalidSpec(s) => write!(f, "invalid fleet spec: {s}"),
            FleetError::Stalled { detail } => write!(f, "fleet stalled: {detail}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Train(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CannikinError> for FleetError {
    fn from(e: CannikinError) -> Self {
        FleetError::Train(e)
    }
}

/// Lifecycle of one managed job.
enum JobState {
    /// Submitted but not yet arrived.
    Pending,
    /// Arrived, waiting for nodes (fresh or evicted).
    Queued,
    /// Training on its granted sub-cluster.
    Running(Box<CannikinTrainer>),
    /// Reached its target effective epochs.
    Finished,
}

struct ManagedJob {
    spec: FleetJobSpec,
    state: JobState,
    /// Fleet time of the job's last completed epoch.
    frontier: f64,
    /// When the job last entered the queue (arrival or eviction time).
    queued_since: f64,
    /// First node grant (queueing-delay accounting).
    admitted_at: Option<f64>,
    finished_at: f64,
    /// Node-seconds of service received.
    service: f64,
    preemptions: usize,
    /// Granted pool ids, in the job's *simulator node order* — the
    /// controller keeps this list aligned with `sim.cluster().nodes`.
    node_ids: Vec<usize>,
    /// Checkpointed (effective_epochs, cumulative_time, epochs_run)
    /// surviving a full eviction.
    saved: (f64, f64, usize),
    final_effective: f64,
    final_epochs: usize,
    records: Vec<EpochRecord>,
    fifo_rank: usize,
    slice: usize,
    /// Measured time-to-target per node count (entry `k - 1` = `k`
    /// nodes), profiled once on first demand and cached — the realized
    /// scaling knee that caps the job's GNS-driven ask.
    scaling_curve: Option<Vec<f64>>,
    /// The last [`demand::profiled_nodes`] answer, with what it was asked.
    profiled: Option<ProfiledDemand>,
}

/// One [`demand::profiled_nodes`] answer and every argument of the call
/// that can change within a controller's life (the job and its trainer
/// configuration cannot): while a job's φ has not moved and no node has
/// died, asking again would only repeat up to `cap` cold solver sweeps.
struct ProfiledDemand {
    phi_bits: u64,
    min_nodes: usize,
    cap: usize,
    /// Pool ids of the live nodes, fastest first.
    ranked: Vec<usize>,
    want: usize,
}

impl ManagedJob {
    /// GNS-justified node demand at noise scale `phi` — `ranked` are the
    /// specs of the pool nodes `ranked_ids`.
    fn profiled_nodes(
        &mut self,
        ranked_ids: &[usize],
        ranked: &[NodeSpec],
        phi: f64,
        min_nodes: usize,
        cap: usize,
    ) -> usize {
        let phi_bits = phi.to_bits();
        if let Some(p) = &self.profiled {
            if p.phi_bits == phi_bits && p.min_nodes == min_nodes && p.cap == cap && p.ranked == ranked_ids {
                return p.want;
            }
        }
        let want = demand::profiled_nodes(&self.spec.job, &self.spec.config, ranked, phi, min_nodes, cap);
        self.profiled = Some(ProfiledDemand { phi_bits, min_nodes, cap, ranked: ranked_ids.to_vec(), want });
        want
    }
}

/// The multi-tenant control plane (see the [module docs](self)).
pub struct FleetController {
    pool: NodePool,
    jobs: Vec<ManagedJob>,
    policy: AllocPolicy,
    clock: f64,
    decisions: u64,
    schedule_log: Vec<String>,
    assignment_history: Vec<Vec<Option<usize>>>,
}

impl FleetController {
    /// Build a controller over a node pool and a submission stream.
    ///
    /// # Errors
    ///
    /// Rejects an empty pool, duplicate job names, non-positive targets,
    /// a `min_nodes` no allocation could ever satisfy, and a `min_nodes`
    /// larger than the job's base batch (every node needs ≥ 1 sample).
    pub fn new(
        nodes: Vec<NodeSpec>,
        specs: Vec<FleetJobSpec>,
        policy: AllocPolicy,
    ) -> Result<Self, FleetError> {
        if nodes.is_empty() {
            return Err(FleetError::InvalidSpec("the pool needs at least one node".into()));
        }
        let pool = NodePool::new(nodes);
        let mut names: Vec<&str> = specs.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        if names.windows(2).any(|w| w[0] == w[1]) {
            return Err(FleetError::InvalidSpec("job names must be unique".into()));
        }
        for s in &specs {
            if s.min_nodes > pool.len() {
                return Err(FleetError::InvalidSpec(format!(
                    "job {} needs {} nodes but the pool has {}",
                    s.name,
                    s.min_nodes,
                    pool.len()
                )));
            }
            if s.min_nodes as u64 > s.config.base_batch {
                return Err(FleetError::InvalidSpec(format!(
                    "job {}: min_nodes {} exceeds base batch {}",
                    s.name, s.min_nodes, s.config.base_batch
                )));
            }
            // NaN-safe: only a strictly positive finite target passes.
            if s.target_effective_epochs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(FleetError::InvalidSpec(format!(
                    "job {}: target effective epochs must be positive",
                    s.name
                )));
            }
            // The trainer runs without gradient accumulation, so a job
            // whose base batch cannot fit in the entire pool's memory
            // (at most `max_nodes` nodes of it) can never step.
            let mut caps: Vec<u64> = (0..pool.len())
                .map(|id| s.job.max_local_batch(pool.spec(id).effective_memory_bytes()))
                .collect();
            caps.sort_unstable_by(|a, b| b.cmp(a));
            let reachable: u64 = caps.iter().take(s.max_nodes.min(pool.len())).sum();
            if reachable < s.config.base_batch {
                return Err(FleetError::InvalidSpec(format!(
                    "job {}: base batch {} exceeds the pool's reachable memory capacity {}",
                    s.name, s.config.base_batch, reachable
                )));
            }
        }
        // FIFO ranks by (arrival, name); static slices partition the pool
        // over *all* trace jobs in that order, earliest jobs taking the
        // remainder — fixed for the whole run, the classic baseline.
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by(|&a, &b| {
            specs[a]
                .arrival
                .total_cmp(&specs[b].arrival)
                .then_with(|| specs[a].name.cmp(&specs[b].name))
        });
        let mut rank = vec![0usize; specs.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        let m = specs.len().max(1);
        let (slice_base, slice_extra) = (pool.len() / m, pool.len() % m);
        let jobs = specs
            .into_iter()
            .enumerate()
            .map(|(i, spec)| ManagedJob {
                queued_since: spec.arrival,
                frontier: spec.arrival,
                spec,
                state: JobState::Pending,
                admitted_at: None,
                finished_at: 0.0,
                service: 0.0,
                preemptions: 0,
                node_ids: Vec::new(),
                saved: (0.0, 0.0, 0),
                final_effective: 0.0,
                final_epochs: 0,
                records: Vec::new(),
                fifo_rank: rank[i],
                slice: slice_base + usize::from(rank[i] < slice_extra),
                scaling_curve: None,
                profiled: None,
            })
            .collect();
        Ok(FleetController {
            pool,
            jobs,
            policy,
            clock: 0.0,
            decisions: 0,
            schedule_log: Vec::new(),
            assignment_history: Vec::new(),
        })
    }

    /// The allocation policy under which this fleet runs.
    pub fn policy(&self) -> AllocPolicy {
        self.policy
    }

    /// Current fleet time, s.
    pub fn clock(&self) -> f64 {
        self.clock
    }

    /// Allocation decisions taken so far.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// The shared node pool (inspection/tests).
    pub fn pool(&self) -> &NodePool {
        &self.pool
    }

    /// One line per allocation decision: fleet time plus every job's
    /// granted node names. Bitwise identical across same-seed runs — the
    /// determinism tests compare these logs verbatim.
    pub fn schedule_log(&self) -> &[String] {
        &self.schedule_log
    }

    /// Pool-assignment snapshot (`node id → owning job`) after each
    /// decision, aligned with [`FleetController::schedule_log`].
    pub fn assignment_history(&self) -> &[Vec<Option<usize>>] {
        &self.assignment_history
    }

    /// The epoch records a job has produced so far (across preemptions).
    pub fn job_records(&self, name: &str) -> Option<&[EpochRecord]> {
        self.jobs.iter().find(|j| j.spec.name == name).map(|j| j.records.as_slice())
    }

    /// Every service-level objective the fleet should be judged against:
    /// the fleet-wide defaults followed by each job's own rules, in
    /// submission order. Feed this to `SloMonitor::install` (online) and
    /// `replay_slos` (offline) so both sides see the same rule list.
    pub fn slo_rules(&self) -> Vec<SloRule> {
        let mut rules = cannikin_telemetry::default_fleet_slos();
        for job in &self.jobs {
            rules.extend(job.spec.slos.iter().cloned());
        }
        rules
    }

    /// Advance the fleet by one event: move the clock to the next epoch
    /// boundary (or arrival), re-run the allocator, and execute one epoch
    /// of the earliest-frontier job. Returns `Ok(false)` once every job
    /// has finished.
    ///
    /// # Errors
    ///
    /// [`FleetError::Train`] if a job's trainer fails;
    /// [`FleetError::Stalled`] if queued jobs remain that no allocation
    /// can ever admit.
    pub fn step(&mut self) -> Result<bool, FleetError> {
        if self.jobs.iter().all(|j| matches!(j.state, JobState::Finished)) {
            return Ok(false);
        }
        // The clock jumps to the earliest running frontier; with nothing
        // running, to the next arrival (decisions happen at epoch
        // boundaries, so arrivals are absorbed at the next boundary).
        let next_frontier = self
            .jobs
            .iter()
            .filter(|j| matches!(j.state, JobState::Running(_)))
            .map(|j| j.frontier)
            .min_by(f64::total_cmp);
        match next_frontier {
            Some(t) => self.clock = self.clock.max(t),
            None => {
                if let Some(t) = self
                    .jobs
                    .iter()
                    .filter(|j| matches!(j.state, JobState::Pending))
                    .map(|j| j.spec.arrival)
                    .min_by(f64::total_cmp)
                {
                    self.clock = self.clock.max(t);
                }
            }
        }
        for job in &mut self.jobs {
            if matches!(job.state, JobState::Pending) && job.spec.arrival <= self.clock {
                job.state = JobState::Queued;
                job.queued_since = job.spec.arrival;
            }
        }
        self.decide()?;
        let run_idx = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| matches!(j.state, JobState::Running(_)))
            .min_by(|(ai, a), (bi, b)| a.frontier.total_cmp(&b.frontier).then(ai.cmp(bi)))
            .map(|(i, _)| i);
        let Some(i) = run_idx else {
            if self.jobs.iter().any(|j| matches!(j.state, JobState::Pending)) {
                return Ok(true); // idle until the next arrival
            }
            if self.jobs.iter().any(|j| matches!(j.state, JobState::Queued)) {
                return Err(FleetError::Stalled {
                    detail: format!(
                        "queued jobs cannot be admitted on {} live nodes",
                        self.pool.live()
                    ),
                });
            }
            return Ok(false);
        };
        self.run_one_epoch(i)?;
        Ok(true)
    }

    /// Run the whole stream to completion and return the fleet report.
    ///
    /// # Errors
    ///
    /// As [`FleetController::step`]; additionally stalls if the stream
    /// does not drain within `max_epochs` controller steps.
    pub fn run_to_completion(&mut self, max_epochs: usize) -> Result<FleetReport, FleetError> {
        let mut steps = 0usize;
        while self.step()? {
            steps += 1;
            if steps > max_epochs {
                return Err(FleetError::Stalled {
                    detail: format!("stream did not drain within {max_epochs} steps"),
                });
            }
        }
        Ok(self.report())
    }

    /// The fleet report over the jobs' current state (complete once
    /// [`FleetController::run_to_completion`] returns).
    pub fn report(&self) -> FleetReport {
        let jobs: Vec<JobOutcome> = self
            .jobs
            .iter()
            .map(|j| JobOutcome {
                name: j.spec.name.clone(),
                priority: j.spec.priority.as_str(),
                arrival: j.spec.arrival,
                admitted_at: j.admitted_at.unwrap_or(j.spec.arrival),
                finished_at: j.finished_at,
                effective_epochs: j.final_effective,
                epochs_run: j.final_epochs,
                service: j.service,
                preemptions: j.preemptions,
            })
            .collect();
        let makespan = jobs.iter().map(|j| j.finished_at).fold(0.0, f64::max);
        let useful: f64 = self
            .jobs
            .iter()
            .map(|j| j.final_effective * j.spec.config.dataset_size as f64)
            .sum();
        let mean_queue_delay = if jobs.is_empty() {
            0.0
        } else {
            jobs.iter().map(JobOutcome::queue_delay).sum::<f64>() / jobs.len() as f64
        };
        let weighted: Vec<f64> =
            self.jobs.iter().map(|j| j.service / j.spec.priority.weight()).collect();
        FleetReport {
            policy: self.policy,
            makespan,
            aggregate_goodput: if makespan > 0.0 { useful / makespan } else { 0.0 },
            mean_queue_delay,
            fairness: jain_fairness(&weighted),
            decisions: self.decisions,
            jobs,
        }
    }

    /// One allocation decision: demands → targets → shrinks → grants →
    /// admissions, with telemetry and the schedule-log line.
    fn decide(&mut self) -> Result<(), FleetError> {
        // Node deaths can strand a running job below memory feasibility
        // (surviving caps < base batch — the trainer cannot step). Such
        // a job is checkpointed and requeued; it re-enters when a
        // feasible grant exists.
        for i in 0..self.jobs.len() {
            let job = &self.jobs[i];
            if !matches!(job.state, JobState::Running(_)) {
                continue;
            }
            let cap_sum: u64 = job
                .node_ids
                .iter()
                .map(|&id| job.spec.job.max_local_batch(self.pool.spec(id).effective_memory_bytes()))
                .sum();
            if cap_sum < job.spec.config.base_batch {
                self.shrink(i, 0, PreemptKind::NodeFailure);
            }
        }
        // Reference ranking for the demand profiler: the pool's live
        // nodes fastest-first, independent of current ownership, so a
        // job's demand doesn't wobble with who holds what.
        let ranked_ids = self.pool.ranked_live();
        let ranked: Vec<_> = ranked_ids.iter().map(|&id| self.pool.spec(id).clone()).collect();
        // Profile each admitted job's realized scaling curve once (only
        // the adaptive policy reads `want`; the baselines skip the cost).
        if self.policy == AllocPolicy::Cannikin {
            for i in 0..self.jobs.len() {
                let job = &self.jobs[i];
                if !matches!(job.state, JobState::Queued | JobState::Running(_))
                    || job.scaling_curve.is_some()
                {
                    continue;
                }
                let cap = job
                    .spec
                    .max_nodes
                    .min(self.pool.len())
                    .min(job.spec.config.base_batch as usize)
                    .max(1);
                let curve = demand::measured_scaling_curve(
                    &job.spec.job,
                    &job.spec.config,
                    job.spec.noise,
                    job.spec.seed,
                    job.spec.target_effective_epochs,
                    &ranked,
                    cap,
                );
                self.jobs[i].scaling_curve = Some(curve);
            }
        }
        let mut demands: Vec<JobDemand> = Vec::new();
        for (i, job) in self.jobs.iter_mut().enumerate() {
            let (phi, held, running) = match &job.state {
                JobState::Queued => (job.spec.noise.noise_scale(job.saved.0), 0, false),
                JobState::Running(t) => (t.noise_scale_now(), job.node_ids.len(), true),
                _ => continue,
            };
            let cap = job
                .spec
                .max_nodes
                .min(self.pool.len())
                .min(job.spec.config.base_batch as usize)
                .max(1);
            // A running job's floor is what it still holds: node deaths
            // below the spec minimum shrink the floor rather than forcing
            // an eviction of the survivors.
            let min_eff = if running {
                job.spec.min_nodes.min(held).max(1).min(cap)
            } else {
                job.spec.min_nodes.min(cap)
            };
            // GNS-justified parallelism, capped by the measured knee:
            // never ask past what the noise scale can absorb, nor past
            // where realized scaling stopped paying.
            let statistical = job.profiled_nodes(&ranked_ids, &ranked, phi, min_eff, cap);
            let want = match &job.scaling_curve {
                Some(curve) => statistical.min(demand::scaling_knee(curve, min_eff, cap)),
                None => statistical,
            };
            demands.push(JobDemand {
                job: i,
                weight: job.spec.priority.weight(),
                arrival: job.spec.arrival,
                min_nodes: min_eff,
                max_nodes: cap,
                want,
                held,
                slice: job.slice,
                fifo_rank: job.fifo_rank,
            });
        }
        if demands.is_empty() {
            return Ok(());
        }
        let targets = alloc::targets(self.policy, &demands, &self.pool);

        // Hysteresis: every membership change costs the affected job a
        // bootstrap re-profile (a few epochs of suboptimal splits), so a
        // reallocation has to pay for itself. A running job keeps a small
        // surplus over its target unless a queued admission needs nodes
        // that free capacity (plus deliberate evictions) cannot cover, or
        // the surplus is large enough to be a genuine imbalance. Full
        // evictions (target 0) are deliberate preemptions and stand.
        const RELEASE_SURPLUS: usize = 2;
        let free = self.pool.free_ids().len();
        let queued_need: usize = demands
            .iter()
            .zip(&targets)
            .filter(|(d, &t)| d.held == 0 && t > 0)
            .map(|(_, &t)| t)
            .sum();
        let evicted: usize = demands
            .iter()
            .zip(&targets)
            .filter(|(d, &t)| d.held > 0 && t == 0)
            .map(|(d, _)| d.held)
            .sum();
        let mut deficit = queued_need.saturating_sub(free + evicted);
        let mut adjusted = targets.clone();
        let mut holders: Vec<usize> = (0..demands.len())
            .filter(|&k| demands[k].held > 0 && targets[k] > 0 && targets[k] < demands[k].held)
            .collect();
        // Lightest class releases first; among equals, newest arrival.
        holders.sort_by(|&a, &b| {
            demands[a]
                .weight
                .total_cmp(&demands[b].weight)
                .then(demands[b].arrival.total_cmp(&demands[a].arrival))
                .then(b.cmp(&a))
        });
        for k in holders {
            let surplus = demands[k].held - targets[k];
            if surplus >= RELEASE_SURPLUS {
                deficit = deficit.saturating_sub(surplus);
            } else {
                let give = surplus.min(deficit);
                adjusted[k] = demands[k].held - give;
                deficit -= give;
            }
        }

        let mut reassigned = 0u32;
        // Shrinks first, so freed capacity is available to the grants.
        for (d, &t) in demands.iter().zip(&adjusted) {
            if d.held > 0 && t < d.held {
                // Losing nodes while a heavier job waits in the queue is a
                // priority eviction; otherwise plain fair-share rebalance.
                let for_priority = demands
                    .iter()
                    .zip(&targets)
                    .any(|(o, &ot)| o.held == 0 && ot > 0 && o.weight > d.weight);
                let reason = if for_priority {
                    PreemptKind::PriorityEviction
                } else {
                    PreemptKind::FairShare
                };
                reassigned += (d.held - t) as u32;
                self.shrink(d.job, t, reason);
            }
        }
        // Grants: queued jobs are admitted before running jobs grow (so
        // growth never starves an admission), heaviest class first.
        let mut grant_order: Vec<usize> = (0..demands.len()).collect();
        grant_order.sort_by(|&a, &b| {
            let queued_a = matches!(self.jobs[demands[a].job].state, JobState::Queued);
            let queued_b = matches!(self.jobs[demands[b].job].state, JobState::Queued);
            queued_b
                .cmp(&queued_a)
                .then(demands[b].weight.total_cmp(&demands[a].weight))
                .then(demands[a].arrival.total_cmp(&demands[b].arrival))
                .then(a.cmp(&b))
        });
        for k in grant_order {
            let (d, t) = (&demands[k], adjusted[k]);
            let held = self.jobs[d.job].node_ids.len();
            if matches!(self.jobs[d.job].state, JobState::Running(_)) && t > held {
                reassigned += self.grow(d.job, t) as u32;
            } else if matches!(self.jobs[d.job].state, JobState::Queued) && t > 0 {
                reassigned += self.admit(d.job, t, d.min_nodes)? as u32;
            }
        }

        // Upgrade pass (adaptive policy only): with admissions and grows
        // served, running jobs trade their slowest nodes for strictly
        // faster leftover free nodes — one membership change per job, so
        // a single re-profile buys the whole swap set. This is what keeps
        // a long tail job off a slow node while fast ones sit idle.
        if self.policy == AllocPolicy::Cannikin {
            let mut order: Vec<usize> = (0..self.jobs.len())
                .filter(|&i| matches!(self.jobs[i].state, JobState::Running(_)))
                .collect();
            order.sort_by(|&a, &b| {
                self.jobs[b]
                    .spec
                    .priority
                    .weight()
                    .total_cmp(&self.jobs[a].spec.priority.weight())
                    .then(self.jobs[a].spec.arrival.total_cmp(&self.jobs[b].spec.arrival))
                    .then(a.cmp(&b))
            });
            for i in order {
                reassigned += self.upgrade(i) as u32;
            }
        }

        self.decisions += 1;
        let running = self.jobs.iter().filter(|j| matches!(j.state, JobState::Running(_))).count();
        let queued = self.jobs.iter().filter(|j| matches!(j.state, JobState::Queued)).count();
        telemetry::emit(Event::FleetDecision(FleetDecision {
            decision: self.decisions,
            running: running as u32,
            queued: queued as u32,
            reassigned,
            pool: self.pool.live() as u32,
        }));
        // Mission-control gauges and per-job allocation samples. Every
        // value derives from deterministic fleet state (decision counter,
        // simulated clock, node counts) — never wall time — so same-seed
        // runs export identical series.
        let live = self.pool.live();
        let free_now = self.pool.free_ids().len();
        telemetry::counter(
            "fleet_pool_util",
            if live > 0 { (live - free_now) as f64 / live as f64 } else { 0.0 },
        );
        telemetry::counter("fleet_queue_depth", queued as f64);
        let useful: f64 =
            self.jobs.iter().map(|j| j.final_effective * j.spec.config.dataset_size as f64).sum();
        telemetry::counter("fleet_goodput", if self.clock > 0.0 { useful / self.clock } else { 0.0 });
        let weighted: Vec<f64> =
            self.jobs.iter().map(|j| j.service / j.spec.priority.weight()).collect();
        telemetry::counter("fleet_fairness", jain_fairness(&weighted));
        for d in &demands {
            let job = &self.jobs[d.job];
            telemetry::emit(Event::FleetJobSample(FleetJobSample {
                decision: self.decisions,
                job: job.spec.name.clone(),
                granted: job.node_ids.len() as u32,
                demanded: d.want as u32,
                weighted_service: job.service / job.spec.priority.weight(),
            }));
        }
        let holds: Vec<String> = self
            .jobs
            .iter()
            .map(|j| {
                let names: Vec<&str> =
                    j.node_ids.iter().map(|&id| self.pool.spec(id).name.as_str()).collect();
                format!("{}={names:?}", j.spec.name)
            })
            .collect();
        self.schedule_log.push(format!("d{} t={:.9} {}", self.decisions, self.clock, holds.join(" ")));
        self.assignment_history.push(self.pool.assignments());
        Ok(())
    }

    /// Shrink a running job to `target` nodes (0 = full eviction back to
    /// the queue, with its statistical progress checkpointed).
    fn shrink(&mut self, i: usize, target: usize, reason: PreemptKind) {
        let held = self.jobs[i].node_ids.len();
        let lost = held - target;
        if target == 0 {
            let clock = self.clock;
            let job = &mut self.jobs[i];
            let prev = std::mem::replace(&mut job.state, JobState::Queued);
            if let JobState::Running(trainer) = prev {
                job.saved =
                    (trainer.effective_epochs(), trainer.cumulative_time(), trainer.epochs_run());
            }
            job.queued_since = clock;
            let ids = std::mem::take(&mut job.node_ids);
            for id in ids {
                self.pool.release(id);
            }
        } else {
            // Victims: slowest first (ascending effective FLOPS, name as
            // tie-break) — keep the productive nodes on the job.
            let ids = self.jobs[i].node_ids.clone();
            let mut pos: Vec<usize> = (0..ids.len()).collect();
            pos.sort_by(|&a, &b| {
                self.pool
                    .spec(ids[a])
                    .effective_flops()
                    .total_cmp(&self.pool.spec(ids[b]).effective_flops())
                    .then_with(|| self.pool.spec(ids[a]).name.cmp(&self.pool.spec(ids[b]).name))
            });
            let mut victims: Vec<usize> = pos.into_iter().take(lost).collect();
            // Never shrink past memory feasibility: the kept caps must
            // still cover the base batch (no gradient accumulation).
            // Victims are slowest-first, so popping returns the fastest
            // (largest-memory) victims to the job first.
            {
                let spec = &self.jobs[i].spec;
                let cap_of = |id: usize| {
                    spec.job.max_local_batch(self.pool.spec(id).effective_memory_bytes())
                };
                let total_cap: u64 = ids.iter().map(|&id| cap_of(id)).sum();
                let mut victim_cap: u64 = victims.iter().map(|&p| cap_of(ids[p])).sum();
                while let Some(&p) = victims.last() {
                    if total_cap - victim_cap >= spec.config.base_batch {
                        break;
                    }
                    victim_cap -= cap_of(ids[p]);
                    victims.pop();
                }
            }
            if victims.is_empty() {
                return;
            }
            // Remove by descending simulator position: `remove_node`
            // renumbers everything after the hole.
            victims.sort_unstable_by(|a, b| b.cmp(a));
            let lost = victims.len();
            let job = &mut self.jobs[i];
            if let JobState::Running(trainer) = &mut job.state {
                for &p in &victims {
                    trainer.simulator_mut().remove_node(p);
                    let id = job.node_ids.remove(p);
                    self.pool.release(id);
                }
                trainer.on_cluster_change();
            }
            telemetry::emit(Event::JobPreempted(JobPreempted {
                job: self.jobs[i].spec.name.clone(),
                nodes_lost: lost as u32,
                reason,
            }));
            self.jobs[i].preemptions += 1;
            return;
        }
        telemetry::emit(Event::JobPreempted(JobPreempted {
            job: self.jobs[i].spec.name.clone(),
            nodes_lost: lost as u32,
            reason,
        }));
        self.jobs[i].preemptions += 1;
    }

    /// Grow a running job toward `target` nodes from the free pool.
    /// Returns how many nodes were actually granted.
    fn grow(&mut self, i: usize, target: usize) -> usize {
        let held = self.jobs[i].node_ids.len();
        let take: Vec<usize> = self.pool.free_ids().into_iter().take(target - held).collect();
        if take.is_empty() {
            return 0;
        }
        for &id in &take {
            self.pool.assign(id, i);
        }
        let specs: Vec<NodeSpec> = take.iter().map(|&id| self.pool.spec(id).clone()).collect();
        let job = &mut self.jobs[i];
        if let JobState::Running(trainer) = &mut job.state {
            for (&id, spec) in take.iter().zip(specs) {
                telemetry::emit(Event::NodeGranted(NodeGranted {
                    node: spec.name.clone(),
                    job: job.spec.name.clone(),
                }));
                trainer.simulator_mut().add_node(spec);
                job.node_ids.push(id);
            }
            trainer.on_cluster_change();
        }
        take.len()
    }

    /// Swap a running job's slowest nodes for strictly faster free ones
    /// (each incoming node at least [`UPGRADE_MARGIN`]× the flops of the
    /// node it replaces), as one membership change. Returns the number
    /// of nodes swapped in.
    fn upgrade(&mut self, i: usize) -> usize {
        let free = self.pool.free_ids();
        if free.is_empty() {
            return 0;
        }
        let ids = self.jobs[i].node_ids.clone();
        // Held nodes slowest-first; free nodes are already fastest-first.
        let mut pos: Vec<usize> = (0..ids.len()).collect();
        pos.sort_by(|&a, &b| {
            self.pool
                .spec(ids[a])
                .effective_flops()
                .total_cmp(&self.pool.spec(ids[b]).effective_flops())
                .then_with(|| self.pool.spec(ids[a]).name.cmp(&self.pool.spec(ids[b]).name))
        });
        // Greedy pairing: fastest free against slowest held. Both lists
        // are monotone, so the first failing pair ends the scan.
        let mut swaps: Vec<(usize, usize)> = Vec::new();
        for (&p, &f) in pos.iter().zip(&free) {
            let held_flops = self.pool.spec(ids[p]).effective_flops();
            if self.pool.spec(f).effective_flops() >= UPGRADE_MARGIN * held_flops {
                swaps.push((p, f));
            } else {
                break;
            }
        }
        // Keep the post-swap node set memory-feasible (drop the least
        // beneficial swaps first — the list is best-first).
        {
            let spec = &self.jobs[i].spec;
            let cap_of =
                |id: usize| spec.job.max_local_batch(self.pool.spec(id).effective_memory_bytes());
            loop {
                let out: u64 = swaps.iter().map(|&(p, _)| cap_of(ids[p])).sum();
                let inn: u64 = swaps.iter().map(|&(_, f)| cap_of(f)).sum();
                let total: u64 = ids.iter().map(|&id| cap_of(id)).sum::<u64>() + inn - out;
                if total >= spec.config.base_batch || swaps.is_empty() {
                    break;
                }
                swaps.pop();
            }
        }
        if swaps.is_empty() {
            return 0;
        }
        for &(p, f) in &swaps {
            self.pool.release(ids[p]);
            self.pool.assign(f, i);
            telemetry::emit(Event::NodeGranted(NodeGranted {
                node: self.pool.spec(f).name.clone(),
                job: self.jobs[i].spec.name.clone(),
            }));
        }
        let incoming: Vec<(usize, NodeSpec)> =
            swaps.iter().map(|&(_, f)| (f, self.pool.spec(f).clone())).collect();
        // Remove by descending simulator position (`remove_node`
        // renumbers), then append the replacements.
        let mut victims: Vec<usize> = swaps.iter().map(|&(p, _)| p).collect();
        victims.sort_unstable_by(|a, b| b.cmp(a));
        let count = swaps.len();
        let job = &mut self.jobs[i];
        if let JobState::Running(trainer) = &mut job.state {
            // Add before removing: the simulator refuses to go empty,
            // and appending keeps the victims' positions valid.
            for (f, spec) in incoming {
                trainer.simulator_mut().add_node(spec);
                job.node_ids.push(f);
            }
            for &p in &victims {
                trainer.simulator_mut().remove_node(p);
                job.node_ids.remove(p);
            }
            trainer.on_cluster_change();
        }
        count
    }

    /// Admit a queued job on up to `target` free nodes (at least
    /// `min_needed`, else it stays queued). Returns the grant size.
    fn admit(&mut self, i: usize, target: usize, min_needed: usize) -> Result<usize, FleetError> {
        let free = self.pool.free_ids();
        let mut k = target.min(free.len());
        if k == 0 || k < min_needed {
            return Ok(0);
        }
        // Memory-feasibility pad: the trainer runs without gradient
        // accumulation, so the granted caps must cover the base batch.
        // Extend the grant with further free nodes until they do; if
        // even every free node cannot, the job stays queued.
        {
            let spec = &self.jobs[i].spec;
            let cap_of = |id: usize| spec.job.max_local_batch(self.pool.spec(id).effective_memory_bytes());
            let mut cap_sum: u64 = free[..k].iter().map(|&id| cap_of(id)).sum();
            while cap_sum < spec.config.base_batch && k < free.len().min(spec.max_nodes) {
                cap_sum += cap_of(free[k]);
                k += 1;
            }
            if cap_sum < spec.config.base_batch {
                return Ok(0);
            }
        }
        let take = &free[..k];
        let specs: Vec<NodeSpec> = take.iter().map(|&id| self.pool.spec(id).clone()).collect();
        for &id in take {
            self.pool.assign(id, i);
        }
        let clock = self.clock;
        let job = &mut self.jobs[i];
        let cluster = ClusterSpec::new(format!("fleet-{}", job.spec.name), specs.clone());
        let mut sim = Simulator::new(cluster, job.spec.job.clone(), job.spec.seed);
        if let Some(plan) = job.spec.fault_plan.take() {
            sim = sim.with_fault_plan(plan);
        }
        let mut trainer = CannikinTrainer::builder()
            .simulator(sim)
            .noise(job.spec.noise)
            .config(job.spec.config.clone())
            .policy(job.spec.policy)
            .build()
            .map_err(FleetError::Train)?;
        if job.saved.2 > 0 {
            trainer.restore_progress(job.saved.0, job.saved.1, job.saved.2);
        }
        job.node_ids = take.to_vec();
        job.frontier = clock;
        if job.admitted_at.is_none() {
            job.admitted_at = Some(clock);
        }
        let queued_s = (clock - job.queued_since).max(0.0);
        job.state = JobState::Running(Box::new(trainer));
        telemetry::emit(Event::JobAdmitted(JobAdmitted {
            job: job.spec.name.clone(),
            nodes: k as u32,
            queued_s,
        }));
        for spec in &specs {
            telemetry::emit(Event::NodeGranted(NodeGranted {
                node: spec.name.clone(),
                job: job.spec.name.clone(),
            }));
        }
        Ok(k)
    }

    /// Run one epoch of job `i`, advance its frontier, reconcile node
    /// deaths into the pool, and retire it if it reached its target.
    fn run_one_epoch(&mut self, i: usize) -> Result<(), FleetError> {
        let held = self.jobs[i].node_ids.len();
        let target = self.jobs[i].spec.target_effective_epochs;
        let mut dead_ids: Vec<usize> = Vec::new();
        let done;
        {
            let job = &mut self.jobs[i];
            let JobState::Running(trainer) = &mut job.state else {
                return Ok(());
            };
            let record = trainer.run_epoch().map_err(FleetError::Train)?;
            job.frontier += record.epoch_time;
            job.service += held as f64 * record.epoch_time;
            job.final_effective = trainer.effective_epochs();
            job.final_epochs = trainer.epochs_run();
            done = trainer.effective_epochs() >= target;
            // Death reconciliation: the fault-aware loop may have evicted
            // crashed nodes from the job's simulator mid-epoch; mirror
            // that into the pool by diffing surviving node names.
            let alive: Vec<String> =
                trainer.simulator_mut().cluster().nodes.iter().map(|n| n.name.clone()).collect();
            let mut kept = Vec::with_capacity(job.node_ids.len());
            for &id in &job.node_ids {
                if alive.iter().any(|n| *n == self.pool.spec(id).name) {
                    kept.push(id);
                } else {
                    dead_ids.push(id);
                }
            }
            job.node_ids = kept;
            job.records.push(record);
        }
        if !dead_ids.is_empty() {
            for &id in &dead_ids {
                self.pool.mark_dead(id);
            }
            telemetry::emit(Event::JobPreempted(JobPreempted {
                job: self.jobs[i].spec.name.clone(),
                nodes_lost: dead_ids.len() as u32,
                reason: PreemptKind::NodeFailure,
            }));
            self.jobs[i].preemptions += 1;
        }
        if done {
            let job = &mut self.jobs[i];
            job.finished_at = job.frontier;
            job.state = JobState::Finished;
            let ids = std::mem::take(&mut job.node_ids);
            for id in ids {
                self.pool.release(id);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Priority;
    use cannikin_core::engine::TrainerConfig;
    use hetsim::catalog::Gpu;
    use hetsim::job::JobSpec;

    fn nodes4() -> Vec<NodeSpec> {
        vec![
            NodeSpec::new("a100-0", Gpu::A100),
            NodeSpec::new("a100-1", Gpu::A100),
            NodeSpec::new("v100-0", Gpu::V100),
            NodeSpec::new("rtx-0", Gpu::Rtx6000),
        ]
    }

    fn two_jobs() -> Vec<FleetJobSpec> {
        vec![
            FleetJobSpec::new(
                "cifar",
                JobSpec::resnet18_cifar10(),
                TrainerConfig::new(6_400, 64, 512),
                1.5,
            )
            .priority(Priority::Production)
            .seed(1),
            FleetJobSpec::new(
                "neumf",
                JobSpec::neumf_movielens(),
                TrainerConfig::new(6_400, 64, 512),
                1.0,
            )
            .arrival(20.0)
            .seed(2),
        ]
    }

    #[test]
    fn stream_drains_and_reports() {
        let mut fleet = FleetController::new(nodes4(), two_jobs(), AllocPolicy::Cannikin).unwrap();
        let report = fleet.run_to_completion(2_000).unwrap();
        assert_eq!(report.jobs.len(), 2);
        assert!(report.makespan > 0.0);
        assert!(report.aggregate_goodput > 0.0);
        for job in &report.jobs {
            assert!(job.effective_epochs > 0.0, "{} made progress", job.name);
            assert!(job.finished_at > 0.0, "{} finished", job.name);
            assert!(job.service > 0.0);
        }
        assert!(report.fairness > 0.0 && report.fairness <= 1.0 + 1e-12);
        // All nodes returned to the pool at the end.
        assert!(fleet.pool().assignments().iter().all(Option::is_none));
    }

    #[test]
    fn late_arrival_waits_for_its_clock() {
        let mut fleet = FleetController::new(nodes4(), two_jobs(), AllocPolicy::Cannikin).unwrap();
        let report = fleet.run_to_completion(2_000).unwrap();
        let neumf = report.jobs.iter().find(|j| j.name == "neumf").unwrap();
        assert!(neumf.admitted_at >= 20.0, "admitted at {} >= arrival", neumf.admitted_at);
    }

    #[test]
    fn all_three_policies_drain() {
        for policy in [AllocPolicy::Cannikin, AllocPolicy::Fifo, AllocPolicy::Static] {
            let mut fleet = FleetController::new(nodes4(), two_jobs(), policy).unwrap();
            let report = fleet.run_to_completion(4_000).unwrap();
            assert!(report.jobs.iter().all(|j| j.finished_at > 0.0), "{policy:?} drains");
        }
    }

    #[test]
    fn per_job_adaptation_policies_drain() {
        use cannikin_core::policy::PolicyKind;
        let specs = vec![
            FleetJobSpec::new("opt", JobSpec::resnet18_cifar10(), TrainerConfig::new(6_400, 64, 512), 1.0)
                .seed(1),
            FleetJobSpec::new("even", JobSpec::resnet18_cifar10(), TrainerConfig::new(6_400, 64, 512), 1.0)
                .policy(PolicyKind::Even)
                .seed(2),
            FleetJobSpec::new("rl", JobSpec::neumf_movielens(), TrainerConfig::new(6_400, 64, 512), 1.0)
                .policy(PolicyKind::Rl)
                .seed(3),
        ];
        let mut fleet = FleetController::new(nodes4(), specs, AllocPolicy::Cannikin).unwrap();
        let report = fleet.run_to_completion(4_000).unwrap();
        assert_eq!(report.jobs.len(), 3);
        assert!(report.jobs.iter().all(|j| j.finished_at > 0.0), "all policies drain");
    }

    /// `SolverInvocation` records ahead of the first `FleetDecision` (all
    /// of them when there is none): within one `step()`, the solves the
    /// demand profiler made — the epoch's own come after the decision.
    fn profiling_solves(records: &[telemetry::Record]) -> usize {
        records
            .iter()
            .take_while(|r| !matches!(r.event, Event::FleetDecision(_)))
            .filter(|r| matches!(r.event, Event::SolverInvocation(_)))
            .count()
    }

    #[test]
    fn demand_is_reprofiled_only_for_the_job_whose_inputs_moved() {
        let mut jobs = two_jobs();
        jobs[1].arrival = 0.0;
        let mut fleet = FleetController::new(nodes4(), jobs, AllocPolicy::Cannikin).unwrap();
        let session = telemetry::Session::start();
        // Tick 1 profiles both arrivals and runs cifar's first epoch;
        // tick 2 finds cifar's φ moved and neumf's where it was.
        assert!(fleet.step().unwrap());
        let first = profiling_solves(&session.drain());
        assert!(fleet.step().unwrap());
        let second = profiling_solves(&session.drain());

        let ranked: Vec<NodeSpec> =
            fleet.pool.ranked_live().into_iter().map(|id| fleet.pool.spec(id).clone()).collect();
        // What one call of the pure function costs, replayed from a key.
        let price = |job: &ManagedJob, phi: f64| {
            let asked = job.profiled.as_ref().expect("profiled on its first tick");
            demand::profiled_nodes(&job.spec.job, &job.spec.config, &ranked, phi, asked.min_nodes, asked.cap);
            profiling_solves(&session.drain())
        };
        let [cifar, neumf] = &fleet.jobs[..] else { panic!("two jobs") };
        let moved = f64::from_bits(cifar.profiled.as_ref().unwrap().phi_bits);
        assert_ne!(moved, cifar.spec.noise.noise_scale(0.0), "cifar's key follows its φ");
        let held = f64::from_bits(neumf.profiled.as_ref().unwrap().phi_bits);
        assert_eq!(held, neumf.spec.noise.noise_scale(0.0), "neumf's key is still its admission φ");
        assert_eq!(first, price(cifar, cifar.spec.noise.noise_scale(0.0)) + price(neumf, held));
        assert_eq!(second, price(cifar, moved), "tick 2 profiled cifar and nobody else");
        assert!(second > 0 && price(neumf, held) > 0);
    }

    #[test]
    fn every_input_of_the_demand_key_forces_a_miss() {
        let mut fleet = FleetController::new(nodes4(), two_jobs(), AllocPolicy::Cannikin).unwrap();
        let ids = fleet.pool.ranked_live();
        let ranked: Vec<NodeSpec> = ids.iter().map(|&id| fleet.pool.spec(id).clone()).collect();
        let session = telemetry::Session::start();
        let job = &mut fleet.jobs[0];
        let mut solves = |ids: &[usize], phi: f64, min_nodes: usize, cap: usize| {
            job.profiled_nodes(ids, &ranked[..ids.len()], phi, min_nodes, cap);
            profiling_solves(&session.drain())
        };
        assert!(solves(&ids, 300.0, 1, 4) > 0, "nothing cached yet");
        assert_eq!(solves(&ids, 300.0, 1, 4), 0, "same inputs, same answer, no solve");
        assert!(solves(&ids, 300.5, 1, 4) > 0, "φ moved");
        assert!(solves(&ids, 300.5, 2, 4) > 0, "the floor moved");
        assert!(solves(&ids, 300.5, 2, 3) > 0, "the cap moved");
        assert!(solves(&ids[..3], 300.5, 2, 3) > 0, "a node left the ranking");
        assert_eq!(solves(&ids[..3], 300.5, 2, 3), 0);
    }

    #[test]
    fn duplicate_names_rejected() {
        let specs = vec![
            FleetJobSpec::new("x", JobSpec::resnet18_cifar10(), TrainerConfig::new(6_400, 64, 512), 1.0),
            FleetJobSpec::new("x", JobSpec::neumf_movielens(), TrainerConfig::new(6_400, 64, 512), 1.0),
        ];
        assert!(matches!(
            FleetController::new(nodes4(), specs, AllocPolicy::Cannikin),
            Err(FleetError::InvalidSpec(_))
        ));
    }

    #[test]
    fn impossible_minimum_rejected() {
        let specs = vec![FleetJobSpec::new(
            "big",
            JobSpec::resnet18_cifar10(),
            TrainerConfig::new(6_400, 64, 512),
            1.0,
        )
        .node_range(9, 9)];
        assert!(matches!(
            FleetController::new(nodes4(), specs, AllocPolicy::Cannikin),
            Err(FleetError::InvalidSpec(_))
        ));
    }
}
