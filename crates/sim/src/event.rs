//! Event-driven simulation of one synchronized data-parallel batch.
//!
//! The simulation advances bucket by bucket:
//!
//! 1. node `i` finishes `a_i` (load + forward + update), then runs
//!    backpropagation; gradient bucket `j` (in reduction order) is ready at
//!    `syncStart_i + j·(1−γ)·P_i/(K−1)`;
//! 2. bucket `j`'s ring all-reduce starts when *every* node has produced it
//!    **and** bucket `j−1`'s all-reduce has finished (bucket reductions
//!    serialize on the ring), and takes `T_comm/K`;
//! 3. the batch completes when the last bucket's all-reduce finishes.
//!
//! With noise disabled this recurrence evaluates *exactly* to the paper's
//! Eq. (7) — `max_i max(t_compute^i + T_u, syncStart_i + T_comm)` — because
//! for each node the makespan as a function of the blocking bucket index is
//! linear and therefore maximized at one of the two endpoints. A unit test
//! (`event_sim_matches_eq7`) pins this equivalence down.
//!
//! A noisy step draws from the simulator's generator in a fixed order,
//! which `tests/golden/batch_digests.txt` pins: per node in index order a
//! straggler uniform (only when stragglers are enabled), then the
//! log-normals of `a_i` and `P_i`; then one log-normal per bucket in
//! reduction order; then per node in index order the log-normals of its
//! `γ`, `T_comm` and `T_u` measurements. A log-normal with `σ = 0` draws
//! nothing. Every seeded result in the workspace is a function of this
//! order, so a change that moves it re-blesses every golden.
//!
//! Read as generator words — a uniform is one word, and so is a
//! log-normal, the inverse normal CDF of one uniform — a batch on `n`
//! nodes and `K` buckets draws
//!
//! ```text
//! n·(s + 2·c) + K·m + Σ_i 3·[σ_i ≠ 0]
//! ```
//!
//! where `s` is 1 when stragglers are enabled, `c` is 1 when the compute
//! noise is not zero and `m` is 1 when the communication noise is not
//! zero. None of these depends on a drawn value, so a fault-free step
//! draws a count fixed before it starts. That makes a seam
//! between steps exact: a generator stepped forward by whole steps' worth
//! of words is the generator the serial run would hold there, and
//! [`Simulator::simulate_run`] simulates the parts of a run of steps on
//! every core while the caller visits them in order, with every bit of the
//! stream unchanged. Each part's start is checked against the end of the
//! part before it when the caller visits it. A fault plan draws from its
//! own generator but can change the membership between steps, so a
//! simulator with one attached steps one at a time.

use crate::cluster::ClusterSpec;
use crate::fault::{CommOutcome, FaultPlan, FaultState};
use crate::job::JobSpec;
use crate::stream::{Draw, Run};
use crate::timing::{comm_times, node_coefficients, ComputeCoeffs};
use crate::trace::{BatchTrace, EpochTrace, NodeObservation};

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::thread;

/// Node-batches a run must hold per thread before it runs on more than
/// one; a node-batch is one node's share of one simulated batch, so a step
/// is one of them per node. Workers start once per run: on the two-core
/// x86-64 host this was sized on, a scoped spawn + join
/// took 20–50 µs and a node-batch 0.20–0.31 µs of simulation, so a thread's
/// share carries three to five times its spawn; a threshold and part a
/// third larger measured the same. Every `fleet-stream` epoch
/// (at most 800 node-batches) and the 64-step, 16-node probe behind
/// `sim.simulate_us_per_step` stay on one thread.
pub const THREAD_NODE_BATCHES: usize = 850;

/// Node-batches of the contiguous part of a run a thread claims at a time,
/// rounded down to whole steps and at least one: about 20–35 µs of
/// simulation against one atomic claim, and the unit the window of traces
/// is counted in.
pub const PART_NODE_BATCHES: usize = 106;

/// Parts each thread of a run may simulate ahead of the caller's visits:
/// enough that a worker seldom waits on a visit, few enough that the
/// window stays in cache (16 nodes on two threads: 8 parts of 6 steps,
/// ≈ 60 KB of observations). A run on one thread holds one part.
pub const WINDOW_PARTS_PER_THREAD: usize = 4;

/// Ground-truth simulator for one (cluster, job) pair.
///
/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Simulator {
    cluster: ClusterSpec,
    job: JobSpec,
    coeffs: Vec<ComputeCoeffs>,
    t_comm: f64,
    t_u: f64,
    compute_noise: f64,
    comm_noise: f64,
    straggler_prob: f64,
    straggler_factor: f64,
    rng: StdRng,
    faults: Option<FaultState>,
}

impl Simulator {
    /// Create a simulator with default noise levels (2% compute jitter,
    /// 5% communication jitter).
    ///
    /// # Panics
    ///
    /// Panics if the job has no gradient bucket (`num_buckets == 0`): its
    /// gradients would never be exchanged and every batch would be free.
    pub fn new(cluster: ClusterSpec, job: JobSpec, seed: u64) -> Self {
        assert!(job.num_buckets >= 1, "a job needs at least one gradient bucket");
        let coeffs = cluster.nodes.iter().map(|n| node_coefficients(n, &job)).collect();
        let (t_comm, _t_o, t_u) = comm_times(&cluster, &job);
        Simulator {
            cluster,
            job,
            coeffs,
            t_comm,
            t_u,
            compute_noise: 0.02,
            comm_noise: 0.05,
            straggler_prob: 0.0,
            straggler_factor: 3.0,
            rng: StdRng::seed_from_u64(seed),
            faults: None,
        }
    }

    /// Attach a seeded [`FaultPlan`] (builder style). Fault randomness is
    /// drawn from the plan's own RNG, so attaching a plan does not perturb
    /// the noise stream of healthy batches.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(FaultState::new(plan, self.cluster.len()));
        self
    }

    /// Node specs whose scheduled join has fired but which have not been
    /// admitted yet; draining this is the engine's cue to call
    /// [`Simulator::add_node`] and replan.
    pub fn take_pending_joins(&mut self) -> Vec<crate::cluster::NodeSpec> {
        self.faults.as_mut().map(FaultState::take_pending_joins).unwrap_or_default()
    }

    /// Enable transient stragglers (builder style): with probability
    /// `prob` per node per batch, that node's compute for the batch is
    /// stretched by `factor` — the GC pauses, page faults and preemption
    /// spikes of real clusters, which the analyzer must tolerate without
    /// mistaking them for regime changes.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= prob < 1` and `1 <= factor < ∞`.
    #[must_use]
    pub fn with_stragglers(mut self, prob: f64, factor: f64) -> Self {
        assert!((0.0..1.0).contains(&prob), "straggler probability must be in [0, 1)");
        assert!((1.0..f64::INFINITY).contains(&factor), "straggler factor must be >= 1");
        self.straggler_prob = prob;
        self.straggler_factor = factor;
        self
    }

    /// Override the noise levels (builder style). Zero disables noise.
    ///
    /// # Panics
    ///
    /// Panics if either value is negative or not finite.
    #[must_use]
    pub fn with_noise(mut self, compute: f64, comm: f64) -> Self {
        let level = 0.0..f64::INFINITY;
        assert!(level.contains(&compute) && level.contains(&comm), "noise levels must be non-negative");
        self.compute_noise = compute;
        self.comm_noise = comm;
        self
    }

    /// The simulated cluster.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The simulated job.
    pub fn job(&self) -> &JobSpec {
        &self.job
    }

    /// Ground-truth compute coefficients of a node (test/oracle use only —
    /// Cannikin itself must learn these from traces).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn true_coefficients(&self, node: usize) -> ComputeCoeffs {
        self.coeffs[node]
    }

    /// Ground-truth `(T_comm, T_o, T_u)`.
    pub fn true_comm(&self) -> (f64, f64, f64) {
        (self.t_comm, self.t_comm - self.t_u, self.t_u)
    }

    /// Largest local batch that fits in node `node`'s memory.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn max_local_batch(&self, node: usize) -> u64 {
        self.job.max_local_batch(self.cluster.nodes[node].effective_memory_bytes())
    }

    /// Change a node's contention factor mid-run (the cluster-C
    /// experiment) and recompute its ground-truth coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or the fraction is not in `(0, 1]`.
    pub fn set_contention(&mut self, node: usize, fraction: f64) {
        assert!(fraction > 0.0 && fraction <= 1.0, "available fraction must be in (0, 1]");
        self.cluster.nodes[node].available_fraction = fraction;
        self.coeffs[node] = node_coefficients(&self.cluster.nodes[node], &self.job);
    }

    /// Add a node to the cluster mid-run (elastic scheduling, §6):
    /// ground-truth coefficients and the communication constants (the ring
    /// grows) are recomputed.
    pub fn add_node(&mut self, node: crate::cluster::NodeSpec) {
        self.coeffs.push(node_coefficients(&node, &self.job));
        self.cluster.nodes.push(node);
        let (t_comm, _, t_u) = comm_times(&self.cluster, &self.job);
        self.t_comm = t_comm;
        self.t_u = t_u;
        if let Some(state) = self.faults.as_mut() {
            state.on_node_added();
        }
    }

    /// Remove a node from the cluster mid-run.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range or it is the last node.
    pub fn remove_node(&mut self, node: usize) {
        assert!(self.cluster.len() > 1, "cannot remove the last node");
        assert!(node < self.cluster.len(), "node index out of range");
        self.cluster.nodes.remove(node);
        self.coeffs.remove(node);
        let (t_comm, _, t_u) = comm_times(&self.cluster, &self.job);
        self.t_comm = t_comm;
        self.t_u = t_u;
        // Every per-node structure indexed by position must shift with the
        // removal, or faults scheduled for "node 2" would start hitting
        // whatever machine inherited index 2.
        if let Some(state) = self.faults.as_mut() {
            state.on_node_removed(node);
        }
    }

    /// Deterministic (noise-free) batch time for a local-batch assignment —
    /// the oracle used to grade OptPerf predictions.
    ///
    /// # Panics
    ///
    /// Panics if `local.len()` differs from the node count.
    pub fn ideal_batch_time(&self, local: &[u64]) -> f64 {
        assert_eq!(local.len(), self.cluster.len(), "one local batch per node");
        let t_bucket = self.t_comm / self.job.num_buckets as f64;
        let nodes = self.coeffs.iter().zip(local).map(|(c, &b)| (c.a(b as f64), c.p(b as f64)));
        bucket_schedule(nodes, self.job.gamma, self.job.num_buckets, || t_bucket, |_| {})
    }

    /// The paper's Eq. (7) closed form on the ground-truth coefficients —
    /// equal to [`Simulator::ideal_batch_time`]; kept separate so tests can
    /// assert the equivalence.
    pub fn eq7_batch_time(&self, local: &[u64]) -> f64 {
        assert_eq!(local.len(), self.cluster.len(), "one local batch per node");
        let gamma = self.job.gamma;
        let mut t = 0.0f64;
        for (c, &b) in self.coeffs.iter().zip(local) {
            let b = b as f64;
            t = t.max(c.compute(b) + self.t_u).max(c.sync_start(b, gamma) + self.t_comm);
        }
        t
    }

    /// Simulate one batch with noise, producing per-node observations.
    ///
    /// With a [`FaultPlan`] attached, the plan's faults for this batch are
    /// applied and surfaced in [`BatchTrace::faults`]: crashed members or
    /// an exhausted communication-retry budget fail the batch (empty
    /// observations, stretched batch time), recovered communication
    /// failures and slowdown bursts stretch it, flapping contention
    /// mutates the ground-truth coefficients at toggle boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `local.len()` differs from the node count.
    pub fn simulate_batch(&mut self, local: &[u64]) -> BatchTrace {
        assert_eq!(local.len(), self.cluster.len(), "one local batch per node");
        let n = self.cluster.len();
        let t_comm = self.t_comm;
        let fx = match self.faults.as_mut() {
            None => return self.drawing(|sim, rng| sim.batch(rng, local, None)),
            Some(state) => state.on_batch_start(n, t_comm),
        };
        for &(node, fraction) in &fx.toggles {
            self.set_contention(node, fraction);
        }
        if !fx.crashed.is_empty() {
            // The survivors block until the failure detector gives up on
            // the dead rank; the step's gradients are lost.
            let batch_time = crate::fault::DETECT_TIMEOUT_FACTOR * self.ideal_batch_time(local);
            return BatchTrace { observations: Vec::new(), batch_time, bucket_sync_end: Vec::new(), faults: fx.faults };
        }
        let mut trace = self.drawing(|sim, rng| sim.batch(rng, local, Some(&fx.slowdown)));
        match fx.comm {
            CommOutcome::Clean => {}
            CommOutcome::Recovered { penalty, .. } => trace.batch_time += penalty,
            CommOutcome::Exhausted { penalty, .. } => {
                trace.batch_time += penalty;
                trace.observations.clear();
                trace.bucket_sync_end.clear();
            }
        }
        trace.faults = fx.faults;
        trace
    }

    /// The fault-free batch shared by the healthy and faulty paths, written
    /// over `trace`, a [`Simulator::shell`]; `slowdown` optionally
    /// stretches per-node compute. One pass per phase, each writing straight
    /// into what is returned — the draw order is the module header's.
    fn fill_batch(&self, rng: &mut StdRng, local: &[u64], slowdown: Option<&[f64]>, trace: &mut BatchTrace) {
        let gamma = self.job.gamma;
        let k = self.job.num_buckets;
        trace.observations.clear();
        trace.bucket_sync_end.clear();

        // Per-node noisy realizations of a_i and P_i, with occasional
        // transient straggler spikes. The three measurement fields are
        // filled by the last pass, once the buckets have been reduced.
        let observations = &mut trace.observations;
        for (i, (c, &b)) in self.coeffs.iter().zip(local).enumerate() {
            let spike = if self.straggler_prob > 0.0 && uniform(rng) < self.straggler_prob {
                self.straggler_factor
            } else {
                1.0
            };
            let stretch = slowdown.map_or(1.0, |s| s[i]);
            let a = c.a(b as f64) * lognormal(rng, self.compute_noise) * spike * stretch;
            let p = c.p(b as f64) * lognormal(rng, self.compute_noise) * spike * stretch;
            let sigma = self.cluster.nodes[i].measurement_sigma;
            observations.push(NodeObservation {
                node: i,
                local_batch: b,
                a_time: a,
                p_time: p,
                sync_start: a + gamma * p,
                gamma_obs: 0.0,
                t_comm_obs: 0.0,
                t_u_obs: 0.0,
                rel_variance: sigma * sigma,
            });
        }

        // Bucket all-reduces serialize; each takes a noisy T_comm/K.
        let t_bucket_base = self.t_comm / k as f64;
        let comm_noise = self.comm_noise;
        let bucket_end = &mut trace.bucket_sync_end;
        let mut total_comm = 0.0;
        let mut last_bucket_time = 0.0;
        trace.batch_time = bucket_schedule(
            observations.iter().map(|o| (o.a_time, o.p_time)),
            gamma,
            k,
            || {
                last_bucket_time = t_bucket_base * lognormal(rng, comm_noise);
                total_comm += last_bucket_time;
                last_bucket_time
            },
            |end| bucket_end.push(end),
        );

        // γ and T_comm observations carry per-node measurement noise on
        // top of the physical realization.
        for (obs, node) in observations.iter_mut().zip(&self.cluster.nodes) {
            let sigma = node.measurement_sigma;
            let bias = 1.0 + node.measurement_bias;
            obs.gamma_obs = gamma * bias * lognormal(rng, sigma);
            obs.t_comm_obs = total_comm * bias * lognormal(rng, sigma);
            obs.t_u_obs = last_bucket_time * bias * lognormal(rng, sigma);
        }
    }

    /// An empty trace with room for one batch's observations and bucket
    /// ends, that a step fills in place.
    pub(crate) fn shell(&self) -> BatchTrace {
        BatchTrace {
            observations: Vec::with_capacity(self.cluster.len()),
            batch_time: 0.0,
            bucket_sync_end: Vec::with_capacity(self.job.num_buckets),
            faults: Vec::new(),
        }
    }

    fn batch(&self, rng: &mut StdRng, local: &[u64], slowdown: Option<&[f64]>) -> BatchTrace {
        let mut trace = self.shell();
        self.fill_batch(rng, local, slowdown, &mut trace);
        trace
    }

    /// Run `step` on this simulator with its generator held apart, so the
    /// step reads the physics through `&self` while it draws.
    fn drawing<R>(&mut self, step: impl FnOnce(&Self, &mut StdRng) -> R) -> R {
        let mut rng = self.rng.clone();
        let out = step(self, &mut rng);
        self.rng = rng;
        out
    }

    /// Simulate the next steps of a run under a fixed local-batch
    /// assignment and hand each step's batch to `visit`, in order — every
    /// bit what the same sequence of [`Simulator::simulate_batch`] calls
    /// returns; the generator ends where theirs would. The traces are
    /// borrowed from a window that is refilled in place from step to step.
    ///
    /// Returns how many steps it visited, `1 ≤ s ≤ steps`, so the caller
    /// loops until its run is done:
    /// - with a [`FaultPlan`] attached, `s` is 1, so a membership change
    ///   lands before the next step is drawn;
    /// - otherwise `s` is `steps`, and a run of at least
    ///   [`THREAD_NODE_BATCHES`] node-batches per thread is simulated on up
    ///   to [`cores`] threads while this one visits (see
    ///   [`Simulator::simulate_run_on`]).
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero or the assignment length is wrong.
    pub fn simulate_run(&mut self, local: &[u64], steps: usize, visit: impl FnMut(&BatchTrace)) -> usize {
        let node_batches = local.len() * steps;
        let threads = cores().min(node_batches / THREAD_NODE_BATCHES).max(1);
        self.simulate_run_on(threads, local, steps, visit)
    }

    /// [`Simulator::simulate_run`] on `threads` threads — the caller's and
    /// scoped workers — whatever the run's length or the core count, so the
    /// equivalence can be tested at any. The fault-free steps are cut into
    /// contiguous parts of about [`PART_NODE_BATCHES`] node-batches. A thread
    /// claims the next part only while it lies within a window of parts
    /// ahead of the next one to visit, and starts it from the caller's
    /// generator stepped forward by the whole steps before it; the caller
    /// visits the parts in order and simulates one itself whenever the next
    /// is not ready. Workers start once and are joined once per call.
    ///
    /// # Panics
    ///
    /// As [`Simulator::simulate_run`], and if `threads` is zero. Panics
    /// naming the part and the run if a part starts in a generator state
    /// other than the one the part before it ended in: the stream would
    /// then differ from the serial one, and that is never visited.
    #[doc(hidden)]
    pub fn simulate_run_on(
        &mut self,
        threads: usize,
        local: &[u64],
        steps: usize,
        mut visit: impl FnMut(&BatchTrace),
    ) -> usize {
        assert!(threads >= 1 && steps >= 1, "a run needs a thread and a step of a batch");
        assert_eq!(local.len(), self.cluster.len(), "one local batch per node");
        if self.faults.is_some() {
            visit(&self.simulate_batch(local));
            return 1;
        }
        let words = self.step_words();
        self.stream(threads, local, steps, words, &mut visit);
        steps
    }

    /// Generator words one fault-free step draws: the module header's
    /// count, from its draw order.
    fn step_words(&self) -> usize {
        let drawn = |sigma: f64| usize::from(sigma != 0.0);
        let per_node = usize::from(self.straggler_prob > 0.0) + 2 * drawn(self.compute_noise);
        let buckets = self.job.num_buckets * drawn(self.comm_noise);
        let measurements: usize = self.cluster.nodes.iter().map(|node| 3 * drawn(node.measurement_sigma)).sum();
        self.cluster.len() * per_node + buckets + measurements
    }

    /// The fault-free run of [`Simulator::simulate_run_on`] with the words
    /// per step given, so a test can break the count and watch a seam
    /// catch it.
    fn stream(
        &mut self,
        threads: usize,
        local: &[u64],
        steps: usize,
        words: usize,
        visit: &mut dyn FnMut(&BatchTrace),
    ) {
        let start = self.rng.clone();
        let draw = Draw { sim: self, local, start: &start, words };
        let run = Run::new(&draw, threads, steps);
        let end = if run.threads == 1 {
            run.visit_all(&draw, visit)
        } else {
            thread::scope(|scope| {
                let workers: Vec<_> = (1..run.threads).map(|_| scope.spawn(|| run.work(&draw))).collect();
                let end = run.visit_all(&draw, visit);
                for worker in workers {
                    worker.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                }
                end
            })
        };
        self.rng = end.expect("a run halts only when one of its threads panics");
    }

    /// Refills `traces`, [`Simulator::shell`]s, in place with one step each
    /// drawn from `rng`.
    pub(crate) fn run_steps(&self, rng: &mut StdRng, local: &[u64], traces: &mut [BatchTrace]) {
        for batch in traces {
            self.fill_batch(rng, local, None, batch);
        }
    }

    /// Simulate `steps` consecutive batches (one epoch) under a fixed
    /// local-batch assignment: [`Simulator::simulate_run`] until the epoch
    /// is done, each batch collected.
    ///
    /// # Panics
    ///
    /// Panics if `steps == 0` or the assignment length is wrong.
    pub fn simulate_epoch(&mut self, local: &[u64], steps: usize) -> EpochTrace {
        assert!(steps > 0, "epoch needs at least one step");
        let mut batches = Vec::with_capacity(steps);
        while batches.len() < steps {
            self.simulate_run(local, steps - batches.len(), |batch| batches.push(batch.clone()));
        }
        let epoch_time = batches.iter().map(|b| b.batch_time).sum();
        EpochTrace { batches, epoch_time }
    }
}

/// The machine's core count, read once: it sizes how many threads a run or
/// a fan-out uses, never what they compute.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// The batch recurrence, shared by the noisy step and the noise-free
/// oracle. `nodes` yields each node's realized `(a_i, P_i)`; bucket `j` of
/// `k` is ready on a node at `syncStart_i + j·(1−γ)·P_i/(K−1)` (at
/// `a_i + P_i` when there is one bucket), its all-reduce starts when every
/// node has produced it and bucket `j−1`'s has finished, and takes
/// `bucket_time()`. `bucket_end` sees each bucket's finish; the last one,
/// the batch time, is returned.
fn bucket_schedule(
    nodes: impl Iterator<Item = (f64, f64)> + Clone,
    gamma: f64,
    k: usize,
    mut bucket_time: impl FnMut() -> f64,
    mut bucket_end: impl FnMut(f64),
) -> f64 {
    let mut end = 0.0f64;
    for j in 0..k {
        let all_ready = nodes
            .clone()
            .map(|(a, p)| if k == 1 { a + p } else { (a + gamma * p) + j as f64 * ((1.0 - gamma) * p) / (k as f64 - 1.0) })
            .fold(0.0, f64::max);
        end = all_ready.max(end) + bucket_time();
        bucket_end(end);
    }
    end
}

fn uniform(rng: &mut StdRng) -> f64 {
    use rand::RngExt;
    rng.random::<f64>()
}

/// `exp(σ·z)` for a standard normal `z` drawn from one generator word;
/// `σ = 0` draws nothing.
fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    use rand::Rng;
    if sigma == 0.0 {
        return 1.0;
    }
    (sigma * standard_normal(rng.next_u64())).exp()
}

/// The standard normal quantile of `u = (k + ½)·2⁻⁵³ ∈ (0, 1)`, where `k`
/// is the word's top 53 bits. The upper half is drawn as the mirror of the
/// lower one — `k` and `2⁵³ − 1 − k` give `−z` and `z` — so `u` is never
/// rounded to 1 and both tails end at `|z| ≈ 8.29`.
fn standard_normal(word: u64) -> f64 {
    const HALF: u64 = 1 << 52;
    let k = word >> 11;
    let upper = k / HALF;
    let lower = if upper == 1 { 2 * HALF - 1 - k } else { k };
    let z = inverse_normal_cdf((lower as f64 + 0.5) / (2 * HALF) as f64);
    f64::from_bits(z.to_bits() ^ (upper << 63))
}

/// `Φ⁻¹(p)` for `p ∈ (0, 1)`: Wichura's AS 241 (PPND16), about 1e-16
/// relative. One rational function of `(p − ½)²` covers the central 85 %
/// of `p`; in the tails two more are in `√(−ln min(p, 1 − p))`.
fn inverse_normal_cdf(p: f64) -> f64 {
    const A: [f64; 8] = [
        3.3871328727963665,
        133.14166789178438,
        1971.5909503065513,
        13731.69376550946,
        45921.95393154987,
        67265.7709270087,
        33430.57558358813,
        2509.0809287301227,
    ];
    const B: [f64; 8] = [
        1.0,
        42.31333070160091,
        687.1870074920579,
        5394.196021424751,
        21213.794301586597,
        39307.89580009271,
        28729.085735721943,
        5226.495278852854,
    ];
    const C: [f64; 8] = [
        1.4234371107496835,
        4.630337846156546,
        5.769497221460691,
        3.6478483247632045,
        1.2704582524523684,
        0.2417807251774506,
        0.022723844989269184,
        0.0007745450142783414,
    ];
    const D: [f64; 8] = [
        1.0,
        2.053191626637759,
        1.6763848301838038,
        0.6897673349851,
        0.14810397642748008,
        0.015198666563616457,
        0.0005475938084995345,
        1.0507500716444169e-9,
    ];
    const E: [f64; 8] = [
        6.657904643501103,
        5.463784911164114,
        1.7848265399172913,
        0.29656057182850487,
        0.026532189526576124,
        0.0012426609473880784,
        2.7115555687434876e-5,
        2.0103343992922881e-7,
    ];
    const F: [f64; 8] = [
        1.0,
        0.599832206555888,
        0.1369298809227358,
        0.014875361290850615,
        0.0007868691311456133,
        1.8463183175100548e-5,
        1.421511758316446e-7,
        2.0442631033899397e-15,
    ];
    let rational = |num: &[f64; 8], den: &[f64; 8], r: f64| {
        let horner = |c: &[f64; 8]| c[..7].iter().rev().fold(c[7], |acc, &ci| acc * r + ci);
        horner(num) / horner(den)
    };
    let q = p - 0.5;
    if q.abs() <= 0.425 {
        return q * rational(&A, &B, 0.180625 - q * q);
    }
    let r = (-(if q < 0.0 { p } else { 1.0 - p }).ln()).sqrt();
    let x = if r <= 5.0 { rational(&C, &D, r - 1.6) } else { rational(&E, &F, r - 5.0) };
    if q < 0.0 {
        -x
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Gpu;
    use crate::cluster::NodeSpec;
    use rand::Rng;

    fn small_cluster() -> ClusterSpec {
        ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a100", Gpu::A100),
                NodeSpec::new("v100", Gpu::V100),
                NodeSpec::new("rtx", Gpu::Rtx6000),
            ],
        )
    }

    #[test]
    fn event_sim_matches_eq7() {
        let sim = Simulator::new(small_cluster(), JobSpec::resnet50_imagenet(), 1).with_noise(0.0, 0.0);
        for local in [[40u64, 20, 12], [1, 1, 1], [100, 100, 100], [64, 32, 16]] {
            let ev = sim.ideal_batch_time(&local);
            let eq7 = sim.eq7_batch_time(&local);
            assert!((ev - eq7).abs() / eq7 < 1e-9, "event {ev} vs eq7 {eq7} for {local:?}");
        }
    }

    #[test]
    fn noise_free_simulation_equals_ideal() {
        let mut sim = Simulator::new(small_cluster(), JobSpec::resnet18_cifar10(), 2).with_noise(0.0, 0.0);
        let local = [32u64, 16, 8];
        let trace = sim.simulate_batch(&local);
        let ideal = sim.ideal_batch_time(&local);
        assert!((trace.batch_time - ideal).abs() < 1e-12);
    }

    #[test]
    fn larger_batches_take_longer() {
        let sim = Simulator::new(small_cluster(), JobSpec::resnet50_imagenet(), 3).with_noise(0.0, 0.0);
        let t1 = sim.ideal_batch_time(&[8, 8, 8]);
        let t2 = sim.ideal_batch_time(&[64, 64, 64]);
        assert!(t2 > t1);
    }

    #[test]
    fn balancing_toward_fast_node_helps() {
        // Moving work from the slow RTX6000 to the A100 must beat the even
        // split for a comm-light job.
        let sim = Simulator::new(small_cluster(), JobSpec::resnet50_imagenet(), 4).with_noise(0.0, 0.0);
        let even = sim.ideal_batch_time(&[32, 32, 32]);
        let skewed = sim.ideal_batch_time(&[56, 24, 16]);
        assert!(skewed < even, "skewed {skewed} vs even {even}");
    }

    #[test]
    fn noisy_batch_times_jitter_around_ideal() {
        let mut sim = Simulator::new(small_cluster(), JobSpec::resnet18_cifar10(), 5);
        let local = [32u64, 16, 8];
        let ideal = sim.ideal_batch_time(&local);
        let times: Vec<f64> = (0..200).map(|_| sim.simulate_batch(&local).batch_time).collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        assert!((mean / ideal - 1.0).abs() < 0.05, "mean {mean} vs ideal {ideal}");
        let distinct: std::collections::HashSet<u64> = times.iter().map(|t| t.to_bits()).collect();
        assert!(distinct.len() > 100, "noise should vary batch times");
    }

    #[test]
    fn observations_reflect_local_batches() {
        let mut sim = Simulator::new(small_cluster(), JobSpec::resnet50_imagenet(), 6).with_noise(0.0, 0.0);
        let trace = sim.simulate_batch(&[48, 24, 12]);
        assert_eq!(trace.observations.len(), 3);
        // The A100 with 4x the RTX's batch should still compute faster or
        // comparable; more importantly a_time must equal the model exactly
        // with noise off.
        for (i, obs) in trace.observations.iter().enumerate() {
            let c = sim.true_coefficients(i);
            assert!((obs.a_time - c.a(obs.local_batch as f64)).abs() < 1e-12);
            assert!((obs.p_time - c.p(obs.local_batch as f64)).abs() < 1e-12);
        }
    }

    #[test]
    fn bucket_ends_are_monotone() {
        let mut sim = Simulator::new(small_cluster(), JobSpec::bert_squad(), 7);
        let trace = sim.simulate_batch(&[12, 6, 3]);
        for pair in trace.bucket_sync_end.windows(2) {
            assert!(pair[1] > pair[0]);
        }
        assert_eq!(trace.bucket_sync_end.len(), sim.job().num_buckets);
        assert_eq!(*trace.bucket_sync_end.last().unwrap(), trace.batch_time);
    }

    #[test]
    fn epoch_time_is_sum_of_batches() {
        let mut sim = Simulator::new(small_cluster(), JobSpec::resnet18_cifar10(), 8);
        let epoch = sim.simulate_epoch(&[16, 8, 4], 10);
        let sum: f64 = epoch.batches.iter().map(|b| b.batch_time).sum();
        assert!((epoch.epoch_time - sum).abs() < 1e-12);
        assert_eq!(epoch.batches.len(), 10);
    }

    #[test]
    fn contention_change_slows_node() {
        // Use the compute-heavy BERT job so compute (not the all-reduce)
        // dominates the batch time.
        let mut sim = Simulator::new(small_cluster(), JobSpec::bert_squad(), 9).with_noise(0.0, 0.0);
        let before = sim.ideal_batch_time(&[1, 1, 32]);
        let k_before = sim.true_coefficients(2).k;
        sim.set_contention(2, 0.5);
        let after = sim.ideal_batch_time(&[1, 1, 32]);
        let k_after = sim.true_coefficients(2).k;
        assert!(after > before * 1.5, "after {after} vs before {before}");
        assert!((k_after / k_before - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_bucket_job_has_no_overlap() {
        let mut job = JobSpec::neumf_movielens();
        job.num_buckets = 1;
        let sim = Simulator::new(small_cluster(), job, 10).with_noise(0.0, 0.0);
        // With one bucket, T = max_i compute + T_comm (no overlap at all).
        let local = [64u64, 32, 16];
        let t = sim.ideal_batch_time(&local);
        let expected = (0..3)
            .map(|i| sim.true_coefficients(i).compute(local[i] as f64))
            .fold(0.0f64, f64::max)
            + sim.true_comm().0;
        assert!((t - expected).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "a job needs at least one gradient bucket")]
    fn a_job_without_buckets_is_rejected() {
        let mut job = JobSpec::resnet18_cifar10();
        job.num_buckets = 0;
        let _ = Simulator::new(small_cluster(), job, 12);
    }

    #[test]
    fn step_words_are_what_a_step_draws() {
        for (stragglers, compute, comm) in [(false, 0.02, 0.05), (true, 0.0, 0.05), (true, 0.02, 0.0), (false, 0.0, 0.0)] {
            let cluster = small_cluster();
            let mut sim = Simulator::new(cluster, JobSpec::bert_squad(), 13).with_noise(compute, comm);
            if stragglers {
                sim = sim.with_stragglers(0.1, 2.0);
            }
            sim.cluster.nodes[1].measurement_sigma = 0.0;
            let mut skipped = sim.rng.clone();
            for _ in 0..sim.step_words() {
                skipped.next_u64();
            }
            sim.simulate_batch(&[8, 8, 8]);
            assert_eq!(sim.rng, skipped, "stragglers {stragglers}, noise ({compute}, {comm})");
        }
    }

    #[test]
    #[should_panic(expected = "noise-stream seam mismatch at part 1 of the run of 200 steps (3 nodes, 2 threads): \
                               the part from step 35 does not start")]
    fn a_miscounted_seam_panics_naming_the_part() {
        let mut sim = Simulator::new(small_cluster(), JobSpec::resnet18_cifar10(), 14);
        let words = sim.step_words();
        sim.stream(2, &[8, 8, 8], 200, words + 1, &mut |_| {});
    }

    #[test]
    #[should_panic(expected = "noise levels must be non-negative")]
    fn infinite_noise_is_rejected() {
        let _ = Simulator::new(small_cluster(), JobSpec::resnet18_cifar10(), 15).with_noise(0.02, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "straggler factor must be >= 1")]
    fn infinite_straggler_factor_is_rejected() {
        let _ = Simulator::new(small_cluster(), JobSpec::resnet18_cifar10(), 16).with_stragglers(0.1, f64::INFINITY);
    }

    #[test]
    fn inverse_normal_cdf_matches_reference_quantiles() {
        // Φ⁻¹ of each f64 `p` exactly, to 25 digits (mpmath, 50-digit
        // arithmetic), rounded to the nearest f64.
        let phi_of_one = 0.8413447460685429;
        for (p, reference) in [
            (1e-10, -6.361340902404056),
            (1e-3, -3.0902323061678136),
            (0.025, -1.9599639845400543),
            (0.7, 0.5244005127080407),
            (0.975, 1.9599639845400538),
            (0.999, 3.090232306167813),
            (phi_of_one, 0.9999999999999999),
        ] {
            let z = inverse_normal_cdf(p);
            assert!(((z - reference) / reference).abs() <= 4e-16, "Φ⁻¹({p}) = {z}, reference {reference}");
        }
    }

    #[test]
    fn extreme_words_give_finite_mirrored_tails() {
        let (low, high) = (standard_normal(0), standard_normal(u64::MAX));
        assert!(low.is_finite() && low < -8.0 && low > -8.6, "word 0 gives {low}");
        assert_eq!(high, -low, "the top word mirrors the bottom one");
        assert_eq!(standard_normal(0x8000_0000_0000_0000), -standard_normal(0x7FFF_FFFF_FFFF_FFFF));
    }

    #[test]
    fn a_million_draws_have_the_normal_moments() {
        // Bounds are five standard errors at n = 10⁶: the mean's is 1e-3,
        // the variance's √2·1e-3, and exp(σz)'s mean's ≈ σ·1e-3.
        let mut rng = StdRng::seed_from_u64(17);
        let (n, sigma) = (1_000_000, 0.05);
        let (mut sum, mut sum_sq, mut sum_exp) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let z = standard_normal(rng.next_u64());
            sum += z;
            sum_sq += z * z;
            sum_exp += (sigma * z).exp();
        }
        let mean = sum / n as f64;
        let variance = sum_sq / n as f64 - mean * mean;
        let exp_mean = sum_exp / n as f64;
        assert!(mean.abs() < 5e-3, "mean {mean}");
        assert!((variance - 1.0).abs() < 7.1e-3, "variance {variance}");
        let lognormal_mean = (sigma * sigma / 2.0).exp();
        assert!((exp_mean / lognormal_mean - 1.0).abs() < 2.5e-4, "E[exp(σz)] {exp_mean} vs {lognormal_mean}");
    }

    #[test]
    fn comm_bound_at_tiny_batches() {
        // At batch 1 per node, a heavy-model job should be communication
        // bound: T ≈ max syncStart + T_comm.
        let sim = Simulator::new(small_cluster(), JobSpec::bert_squad(), 11).with_noise(0.0, 0.0);
        let local = [1u64, 1, 1];
        let t = sim.ideal_batch_time(&local);
        let (t_comm, _, _) = sim.true_comm();
        let max_ss = (0..3)
            .map(|i| sim.true_coefficients(i).sync_start(1.0, sim.job().gamma))
            .fold(0.0f64, f64::max);
        assert!((t - (max_ss + t_comm)).abs() / t < 1e-9);
    }
}

#[cfg(test)]
mod straggler_tests {
    use super::*;
    use crate::catalog::Gpu;
    use crate::cluster::{ClusterSpec, NodeSpec};

    fn cluster() -> ClusterSpec {
        ClusterSpec::new(
            "t",
            vec![NodeSpec::new("a", Gpu::A100), NodeSpec::new("b", Gpu::V100)],
        )
    }

    #[test]
    fn stragglers_produce_heavy_tail() {
        let job = JobSpec::resnet50_imagenet();
        let mut clean = Simulator::new(cluster(), job.clone(), 5).with_noise(0.0, 0.0);
        let ideal = clean.simulate_batch(&[32, 32]).batch_time;
        let mut spiky = Simulator::new(cluster(), job, 5).with_noise(0.0, 0.0).with_stragglers(0.1, 4.0);
        let times: Vec<f64> = (0..300).map(|_| spiky.simulate_batch(&[32, 32]).batch_time).collect();
        let spikes = times.iter().filter(|&&t| t > ideal * 1.5).count();
        // P(at least one of two nodes spikes) ≈ 19% per batch.
        assert!(spikes > 30 && spikes < 100, "{spikes} spikes in 300 batches");
        // Non-spiked batches still match the ideal.
        let clean_batches = times.iter().filter(|&&t| t < ideal * 1.01).count();
        assert!(clean_batches > 150, "{clean_batches} clean batches");
    }

    #[test]
    fn zero_probability_is_identical_to_clean() {
        let job = JobSpec::resnet18_cifar10();
        let mut a = Simulator::new(cluster(), job.clone(), 6);
        let mut b = Simulator::new(cluster(), job, 6).with_stragglers(0.0, 5.0);
        for _ in 0..20 {
            assert_eq!(a.simulate_batch(&[16, 16]).batch_time, b.simulate_batch(&[16, 16]).batch_time);
        }
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::catalog::Gpu;
    use crate::cluster::{ClusterSpec, NodeSpec};
    use crate::fault::FaultPlan;
    use cannikin_telemetry::FaultKind;

    fn cluster3() -> ClusterSpec {
        ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a", Gpu::A100),
                NodeSpec::new("b", Gpu::V100),
                NodeSpec::new("c", Gpu::Rtx6000),
            ],
        )
    }

    #[test]
    fn crash_fails_the_batch_until_eviction() {
        let plan = FaultPlan::new(1).crash_at(2, 1);
        let mut sim = Simulator::new(cluster3(), JobSpec::resnet18_cifar10(), 3).with_noise(0.0, 0.0).with_fault_plan(plan);
        let local = [16u64, 8, 4];
        let ideal = sim.ideal_batch_time(&local);
        for _ in 0..2 {
            let t = sim.simulate_batch(&local);
            assert!(!t.is_failed());
            assert_eq!(t.observations.len(), 3);
        }
        let failed = sim.simulate_batch(&local);
        assert!(failed.is_failed());
        assert!(failed.observations.is_empty(), "a failed batch yields no usable gradients");
        assert!(failed.batch_time > ideal, "failure detection costs time: {} vs {ideal}", failed.batch_time);
        assert!(failed.faults.iter().any(|f| f.kind == FaultKind::NodeCrash && f.node == Some(1)));
        // After eviction the survivors train on.
        sim.remove_node(1);
        let healthy = sim.simulate_batch(&[16, 4]);
        assert!(!healthy.is_failed());
        assert_eq!(healthy.observations.len(), 2);
    }

    #[test]
    fn fault_plan_does_not_perturb_healthy_noise_stream() {
        let job = JobSpec::resnet50_imagenet();
        let mut clean = Simulator::new(cluster3(), job.clone(), 11);
        // A plan whose first fault fires far in the future: until then
        // every batch must be bit-identical to the plan-free simulator.
        let mut planned =
            Simulator::new(cluster3(), job, 11).with_fault_plan(FaultPlan::new(99).crash_at(1_000, 0));
        for _ in 0..20 {
            let a = clean.simulate_batch(&[16, 8, 4]);
            let b = planned.simulate_batch(&[16, 8, 4]);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn same_seed_same_faulty_trace() {
        let run = || {
            let plan = FaultPlan::new(7).transient_comm(0.2, 3).burst_at(4, 2, 3, 2.5).flapping(0, 5, 0.6, 2);
            let mut sim = Simulator::new(cluster3(), JobSpec::resnet18_cifar10(), 5).with_fault_plan(plan);
            sim.simulate_epoch(&[16, 8, 4], 30)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn remove_node_keeps_fault_state_index_stable() {
        // Regression: a burst scheduled for node 2 ("c") must keep hitting
        // "c" after node 1 is removed, and removed-node state must not
        // leak onto the machine that inherits its index.
        let plan = FaultPlan::new(3).burst_at(5, 2, 2, 10.0);
        let mut sim = Simulator::new(cluster3(), JobSpec::resnet18_cifar10(), 9).with_noise(0.0, 0.0).with_fault_plan(plan);
        sim.remove_node(1); // "c" is now index 1
        assert_eq!(sim.cluster().nodes[1].name, "c");
        let local = [16u64, 8];
        for _ in 0..5 {
            assert!(sim.simulate_batch(&local).faults.is_empty());
        }
        let burst = sim.simulate_batch(&local);
        let f = burst.faults.first().expect("burst fires");
        assert_eq!(f.kind, FaultKind::SlowdownBurst);
        assert_eq!(f.node, Some(1), "the burst follows the machine to its new index");
        let c = sim.true_coefficients(1);
        let obs = &burst.observations[1];
        assert!((obs.a_time - 10.0 * c.a(8.0)).abs() < 1e-9, "slowdown applies to the surviving machine");
        assert!((burst.observations[0].a_time - sim.true_coefficients(0).a(16.0)).abs() < 1e-12);
    }

    #[test]
    fn flapping_contention_mutates_ground_truth_and_recovers() {
        let plan = FaultPlan::new(2).flapping(1, 3, 0.5, 0);
        let mut sim = Simulator::new(cluster3(), JobSpec::bert_squad(), 4).with_noise(0.0, 0.0).with_fault_plan(plan);
        let k0 = sim.true_coefficients(1).k;
        let mut toggles = Vec::new();
        // period 3 from step 0: contended at steps 3..6 and 9..12, so the
        // fourth toggle (back to full speed) fires at step 12.
        for _ in 0..13 {
            let t = sim.simulate_batch(&[4, 4, 4]);
            for f in &t.faults {
                assert_eq!(f.kind, FaultKind::ContentionFlap);
                toggles.push(f.magnitude);
            }
        }
        assert_eq!(toggles, vec![0.5, 1.0, 0.5, 1.0]);
        // After an even number of toggles the node is back to full speed.
        assert!((sim.true_coefficients(1).k - k0).abs() < 1e-12);
    }

    #[test]
    fn comm_timeout_loses_the_step() {
        // prob close to 1 with a single attempt: every batch exhausts.
        let plan = FaultPlan::new(6).transient_comm(0.99, 1);
        let mut sim = Simulator::new(cluster3(), JobSpec::resnet18_cifar10(), 8).with_fault_plan(plan);
        let mut exhausted = 0;
        for _ in 0..20 {
            let t = sim.simulate_batch(&[8, 8, 8]);
            if t.is_failed() {
                exhausted += 1;
                assert!(t.observations.is_empty());
                assert!(t.faults.iter().any(|f| f.kind == FaultKind::CommTimeout));
            }
        }
        assert!(exhausted >= 15, "{exhausted} exhausted batches of 20");
    }
}

#[cfg(test)]
mod monotonicity_tests {
    use super::*;
    use crate::catalog::Gpu;
    use crate::cluster::{ClusterSpec, NodeSpec};

    fn sim3() -> Simulator {
        let cluster = ClusterSpec::new(
            "t",
            vec![
                NodeSpec::new("a", Gpu::A100),
                NodeSpec::new("b", Gpu::V100),
                NodeSpec::new("c", Gpu::Rtx6000),
            ],
        );
        Simulator::new(cluster, JobSpec::resnet50_imagenet(), 0).with_noise(0.0, 0.0)
    }

    /// Growing any single node's local batch can never make the batch
    /// finish earlier — the physical monotonicity every optimizer result
    /// implicitly relies on.
    #[test]
    fn batch_time_is_monotone_in_every_local_batch() {
        let sim = sim3();
        for base in [[10u64, 10, 10], [40, 20, 8], [5, 60, 30]] {
            let t0 = sim.ideal_batch_time(&base);
            for node in 0..3 {
                let mut grown = base;
                grown[node] += 7;
                let t1 = sim.ideal_batch_time(&grown);
                assert!(t1 >= t0 - 1e-15, "growing node {node} of {base:?} shrank time: {t0} -> {t1}");
            }
        }
    }

    /// Noisy batch-time realizations average to (approximately) the ideal:
    /// the log-normal factors have median 1 and small σ, so the mean bias
    /// is below a percent.
    #[test]
    fn noisy_mean_tracks_ideal_within_bias_bound() {
        let cluster = sim3().cluster().clone();
        let mut noisy = Simulator::new(cluster, JobSpec::resnet50_imagenet(), 7);
        let ideal = sim3().ideal_batch_time(&[32, 16, 8]);
        let n = 400;
        let mean: f64 = (0..n).map(|_| noisy.simulate_batch(&[32, 16, 8]).batch_time).sum::<f64>() / n as f64;
        assert!((mean / ideal - 1.0).abs() < 0.03, "mean {mean} vs ideal {ideal}");
    }

    /// A faster network can never slow the batch down.
    #[test]
    fn faster_network_is_never_worse() {
        let slow = sim3();
        let cluster = slow.cluster().clone().with_network(crate::cluster::NetworkSpec::twenty_five_gbe());
        let fast = Simulator::new(cluster, JobSpec::resnet50_imagenet(), 0).with_noise(0.0, 0.0);
        for local in [[8u64, 8, 8], [64, 32, 16], [200, 100, 50]] {
            assert!(fast.ideal_batch_time(&local) <= slow.ideal_batch_time(&local) + 1e-15);
        }
    }
}
