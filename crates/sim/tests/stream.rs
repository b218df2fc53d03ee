//! A streamed run visits the serial calls' traces, bit for bit.
//!
//! `Simulator::simulate_run` cuts a run of fault-free steps into parts,
//! simulates them on every core — each part from the caller's generator
//! stepped forward by the words of the steps before it — and hands them to
//! a visitor, step by step, in order. Every seeded result in the workspace
//! rests on that being exact, so this checks it over drawn configurations
//! — every noise source on and off, one node that measures without noise —
//! on one to four threads, over step counts that are no whole number of
//! parts: the visitor sees the traces the same sequence of
//! `simulate_batch` calls returns, and the generator ends where theirs
//! does. The `policy` stage of
//! `scripts/tier1.sh` also runs it on one CPU, where a thread waiting for
//! room in the window must give the core back to the one that visits.

use hetsim::catalog::Gpu;
use hetsim::cluster::{ClusterSpec, NodeSpec};
use hetsim::job::JobSpec;
use hetsim::event::PART_NODE_BATCHES;
use hetsim::trace::BatchTrace;
use hetsim::{FaultPlan, Simulator};
use propcheck::{check, Gen};

/// Every bit of a trace, so a `NaN` anywhere would still compare equal to
/// itself.
fn bits(trace: &BatchTrace) -> Vec<u64> {
    let mut out = vec![trace.batch_time.to_bits(), trace.faults.len() as u64];
    out.extend(trace.bucket_sync_end.iter().map(|end| end.to_bits()));
    for o in &trace.observations {
        out.extend([o.node as u64, o.local_batch]);
        for v in [
            o.a_time,
            o.p_time,
            o.sync_start,
            o.gamma_obs,
            o.t_comm_obs,
            o.t_u_obs,
            o.rel_variance,
        ] {
            out.push(v.to_bits());
        }
    }
    out
}

fn all_bits(traces: &[BatchTrace]) -> Vec<Vec<u64>> {
    traces.iter().map(bits).collect()
}

/// A drawn simulator: its configuration, seed and assignment.
struct Case {
    cluster: ClusterSpec,
    job: JobSpec,
    seed: u64,
    stragglers: bool,
    noise: (f64, f64),
    local: Vec<u64>,
}

impl Case {
    fn draw(g: &mut Gen) -> Case {
        let n = g.usize(1..7);
        let gpus = [Gpu::A100, Gpu::V100, Gpu::Rtx6000, Gpu::P100];
        let quiet = if g.bool() { Some(g.usize(0..n)) } else { None };
        let nodes = (0..n)
            .map(|i| {
                let node = NodeSpec::new(format!("n{i}"), gpus[i % gpus.len()])
                    .with_measurement_bias(0.05 * (i % 2) as f64);
                if quiet == Some(i) {
                    node.with_measurement_sigma(0.0)
                } else {
                    node
                }
            })
            .collect();
        let mut job = JobSpec::resnet18_cifar10();
        job.num_buckets = g.usize(1..6);
        Case {
            cluster: ClusterSpec::new("stream", nodes),
            job,
            seed: g.u64(0..u64::MAX),
            stragglers: g.bool(),
            noise: (
                if g.bool() { 0.0 } else { 0.02 },
                if g.bool() { 0.0 } else { 0.05 },
            ),
            local: (0..n).map(|_| g.u64(1..64)).collect(),
        }
    }

    fn simulator(&self) -> Simulator {
        let sim = Simulator::new(self.cluster.clone(), self.job.clone(), self.seed)
            .with_noise(self.noise.0, self.noise.1);
        if self.stragglers {
            sim.with_stragglers(0.1, 3.0)
        } else {
            sim
        }
    }
}

/// What the serial calls return for `steps` steps, then the batch after
/// them: the witness of where the generator ended.
fn serial(sim: &mut Simulator, local: &[u64], steps: usize) -> (Vec<BatchTrace>, BatchTrace) {
    let traces = (0..steps).map(|_| sim.simulate_batch(local)).collect();
    (traces, sim.simulate_batch(local))
}

/// The bits of every step `visit` is handed, and how many steps the call
/// says it visited.
fn visited(sim: &mut Simulator, threads: Option<usize>, local: &[u64], steps: usize) -> (Vec<Vec<u64>>, usize) {
    let mut got = Vec::new();
    let mut visit = |batch: &BatchTrace| got.push(bits(batch));
    let count = match threads {
        Some(threads) => sim.simulate_run_on(threads, local, steps, &mut visit),
        None => sim.simulate_run(local, steps, &mut visit),
    };
    (got, count)
}

#[test]
fn a_streamed_run_on_any_thread_count_is_the_serial_stream() {
    check(100, |g| {
        let case = Case::draw(g);
        let local = &case.local;
        // Steps per part, as the run sizes them; the count is no multiple.
        let part = (PART_NODE_BATCHES / local.len()).max(1);
        let mut steps = g.usize(1..601);
        if part > 1 && steps % part == 0 {
            steps += 1;
        }
        // Start mid-stream, so no part begins at the seed.
        let lead = g.usize(0..3);
        let fresh = || {
            let mut sim = case.simulator();
            for _ in 0..lead {
                sim.simulate_batch(local);
            }
            sim
        };
        let (want, want_next) = serial(&mut fresh(), local, steps);
        let (want, want_next) = (all_bits(&want), bits(&want_next));
        for threads in [Some(1), Some(2), Some(3), Some(4), None] {
            let mut sim = fresh();
            let (got, count) = visited(&mut sim, threads, local, steps);
            assert_eq!(count, steps, "a fault-free run is visited in one call");
            assert_eq!(got, want, "{steps} steps on {threads:?} threads");
            assert_eq!(bits(&sim.simulate_batch(local)), want_next, "{threads:?} threads left the generator elsewhere");
        }
    });
}

#[test]
fn a_simulator_with_a_fault_plan_visits_one_step_per_call() {
    check(10, |g| {
        let case = Case::draw(g);
        let plan = || FaultPlan::new(3).burst_at(4, 0, 3, 2.5).transient_comm(0.2, 3);
        let local = &case.local;
        let mut sim = case.simulator().with_fault_plan(plan());
        let mut twin = case.simulator().with_fault_plan(plan());
        for call in 0..12 {
            // Long enough to split into parts on every thread if it could.
            let (got, count) = visited(&mut sim, Some(4), local, 5_000);
            assert_eq!(count, 1, "call {call} visited {count} steps");
            let want = [twin.simulate_batch(local)];
            assert_eq!(got, all_bits(&want), "call {call} is not the serial step");
        }
    });
}

#[test]
#[should_panic(expected = "the visitor stops here")]
fn a_visitor_that_panics_stops_the_workers() {
    let nodes = vec![NodeSpec::new("a", Gpu::A100), NodeSpec::new("b", Gpu::V100)];
    let mut sim = Simulator::new(ClusterSpec::new("stream", nodes), JobSpec::resnet18_cifar10(), 7);
    let mut seen = 0;
    sim.simulate_run_on(3, &[16, 8], 3_000, |_| {
        seen += 1;
        assert!(seen < 100, "the visitor stops here");
    });
}
