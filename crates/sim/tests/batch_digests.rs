//! The simulated step, bit for bit.
//!
//! Every deterministic result in the workspace — the trainer goldens, both
//! `BENCH_*.json`, the fleet's admission curves — is a function of the
//! floats `Simulator::simulate_batch` returns and of the order in which it
//! draws from its generator. `tests/golden/batch_digests.txt` holds one
//! digest per configuration over every bit pattern of 200 consecutive
//! steps plus the noise-free `ideal_batch_time`. The fixture was written by
//! the simulator that still had a no-sync micro-batch step, with this file
//! copied in; a change to the step must reproduce it, and
//! `CANNIKIN_BLESS=1` only makes sense from a checkout of a simulator you
//! trust with this file copied in.

use hetsim::catalog::Gpu;
use hetsim::cluster::{ClusterSpec, NodeSpec};
use hetsim::job::JobSpec;
use hetsim::trace::BatchTrace;
use hetsim::{FaultPlan, Simulator};

const STEPS: usize = 200;

/// FNV-1a, one `u64` word at a time.
fn fnv1a(hash: &mut u64, word: u64) {
    *hash = (*hash ^ word).wrapping_mul(0x0100_0000_01B3);
}

fn absorb(hash: &mut u64, trace: &BatchTrace) {
    fnv1a(hash, trace.batch_time.to_bits());
    fnv1a(hash, trace.bucket_sync_end.len() as u64);
    for end in &trace.bucket_sync_end {
        fnv1a(hash, end.to_bits());
    }
    fnv1a(hash, trace.observations.len() as u64);
    for o in &trace.observations {
        fnv1a(hash, o.node as u64);
        fnv1a(hash, o.local_batch);
        for v in [o.a_time, o.p_time, o.sync_start, o.gamma_obs, o.t_comm_obs, o.t_u_obs, o.rel_variance] {
            fnv1a(hash, v.to_bits());
        }
    }
    fnv1a(hash, trace.faults.len() as u64);
    for f in &trace.faults {
        for byte in format!("{:?}", f.kind).bytes() {
            fnv1a(hash, u64::from(byte));
        }
        fnv1a(hash, f.node.map_or(u64::MAX, u64::from));
        fnv1a(hash, f.step);
        fnv1a(hash, u64::from(f.attempts));
        fnv1a(hash, f.magnitude.to_bits());
    }
}

/// `n` nodes cycling through the catalog, no two with the same host speed
/// or measurement quality, so every per-node factor of the step shows.
fn cluster(n: usize) -> ClusterSpec {
    let gpus = [Gpu::A100, Gpu::V100, Gpu::Rtx6000, Gpu::P100, Gpu::RtxA5000];
    let nodes = (0..n)
        .map(|i| {
            NodeSpec::new(format!("n{i}"), gpus[i % gpus.len()])
                .with_cpu_factor(1.0 + 0.125 * (i % 4) as f64)
                .with_measurement_sigma(0.01 * (i % 3) as f64)
                .with_measurement_bias(0.05 * (i % 2) as f64)
        })
        .collect();
    ClusterSpec::new("digest", nodes)
}

fn digest(n: usize, buckets: usize, stragglers: bool, faults: bool) -> (u64, u64) {
    let mut job = JobSpec::resnet18_cifar10();
    job.num_buckets = buckets;
    let mut sim = Simulator::new(cluster(n), job, 0xD16E57 + (n * 100 + buckets) as u64);
    if stragglers {
        sim = sim.with_stragglers(0.05, 3.0);
    }
    if faults {
        sim = sim.with_fault_plan(FaultPlan::new(29).burst_at(40, n / 2, 25, 2.5).transient_comm(0.1, 2));
    }
    let local: Vec<u64> = (0..n).map(|i| 48 - 2 * (i as u64 % 8)).collect();
    let mut hash = 0xCBF2_9CE4_8422_2325;
    for _ in 0..STEPS {
        let trace = sim.simulate_batch(&local);
        absorb(&mut hash, &trace);
    }
    (hash, sim.ideal_batch_time(&local).to_bits())
}

#[test]
fn simulated_steps_match_the_golden_digests() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/batch_digests.txt");
    let mut text = String::new();
    for n in [1usize, 3, 8, 16] {
        for buckets in [1usize, 4, 10, 24] {
            for (stragglers, faults) in [(false, false), (true, false), (false, true), (true, true)] {
                let (steps, ideal) = digest(n, buckets, stragglers, faults);
                text.push_str(&format!(
                    "n={n} K={buckets} stragglers={stragglers} faults={faults} steps={steps:016x} ideal={ideal:016x}\n"
                ));
            }
        }
    }
    if std::env::var_os("CANNIKIN_BLESS").is_some() {
        std::fs::write(&path, &text).expect("write golden fixture");
    }
    let golden = std::fs::read_to_string(&path).expect("committed fixture");
    for (line, (got, want)) in text.lines().zip(golden.lines()).enumerate() {
        assert_eq!(got, want, "line {} of {} departs", line + 1, path.display());
    }
    assert_eq!(text.lines().count(), golden.lines().count(), "{} has a different line count", path.display());
}
