//! A block of steps is the serial calls, bit for bit.
//!
//! `Simulator::simulate_steps` cuts a run of fault-free steps into parts
//! and simulates them on every core, each part from the caller's generator
//! stepped forward by the words of the steps before it. Every seeded result
//! in the workspace rests on that being exact, so this checks it over drawn
//! configurations — every noise source on and off, one node that measures
//! without noise — on one to four threads: the traces are
//! the ones the same sequence of `simulate_microbatch` / `simulate_batch`
//! calls returns, and the generator ends where theirs does.

use hetsim::catalog::Gpu;
use hetsim::cluster::{ClusterSpec, NodeSpec};
use hetsim::job::JobSpec;
use hetsim::trace::BatchTrace;
use hetsim::Simulator;
use propcheck::{check, Gen};

/// Every bit of a trace, `NaN` included (the micro-batch's communication
/// estimates are `NaN`, so `==` would call equal traces different).
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
            cluster: ClusterSpec::new("blocks", nodes),
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
fn serial(
    sim: &mut Simulator,
    local: &[u64],
    accumulation: usize,
    steps: usize,
) -> (Vec<BatchTrace>, BatchTrace) {
    let mut traces = Vec::new();
    for _ in 0..steps {
        for _ in 1..accumulation {
            traces.push(sim.simulate_microbatch(local));
        }
        traces.push(sim.simulate_batch(local));
    }
    (traces, sim.simulate_batch(local))
}

#[test]
fn blocks_on_any_thread_count_are_the_serial_stream() {
    check(100, |g| {
        let case = Case::draw(g);
        let accumulation = g.usize(1..4);
        let steps = g.usize(1..601);
        // Start mid-stream, so no part begins at the seed.
        let lead = g.usize(0..3);
        let local = &case.local;
        let fresh = || {
            let mut sim = case.simulator();
            for _ in 0..lead {
                sim.simulate_batch(local);
            }
            sim
        };
        let (want, want_next) = serial(&mut fresh(), local, accumulation, steps);
        let (want, want_next) = (all_bits(&want), bits(&want_next));
        for threads in 1..=4 {
            let mut sim = fresh();
            let got = sim.simulate_steps_on(threads, local, accumulation, steps);
            assert_eq!(
                all_bits(&got),
                want,
                "{steps} steps on {threads} threads at accumulation {accumulation}"
            );
            assert_eq!(
                bits(&sim.simulate_batch(local)),
                want_next,
                "{threads} threads left the generator elsewhere"
            );
        }
        // The public call, looped as its callers loop it.
        let mut sim = fresh();
        let mut got = Vec::new();
        while got.len() < steps * accumulation {
            let left = steps - got.len() / accumulation;
            got.extend(sim.simulate_steps(local, accumulation, left));
        }
        assert_eq!(
            all_bits(&got),
            want,
            "simulate_steps over {steps} steps at accumulation {accumulation}"
        );
        assert_eq!(
            bits(&sim.simulate_batch(local)),
            want_next,
            "simulate_steps left the generator elsewhere"
        );
    });
}
