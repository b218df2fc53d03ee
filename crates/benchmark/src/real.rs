//! `real-compute` and `real-comm`: the thread-parallel [`ParallelTrainer`]
//! on real tensors, driven closed-loop one epoch at a time.
//!
//! The two workloads share every line of code below and differ only in
//! their [`Shape`]: `real-compute` is a large-batch step over in-process
//! channels where `dnn` does most of the work; `real-comm` is a
//! tiny-batch step of a 4× larger model over TCP with a lossy codec and
//! per-layer overlap, where the exchange dominates.

use crate::inputs::blobs;
use crate::metrics::Outcome;
use crate::spans::{in_span, Recorder, Span, Track};
use crate::stats::{mean, median, minimum, quiet_total, tail_or_median, Laps};
use crate::sys::time_per_call;
use crate::Budget;

use cannikin::collectives::{Codec, ErrorFeedback};
use cannikin::core::gns::{estimate_gns, Aggregation, GradientSample};
use cannikin::dnn::data::ClassificationDataset;
use cannikin::dnn::layers::{
    assign_grads_from, assign_values, flatten_grads_into, flatten_values, zero_grads, Layer, Sequential,
};
use cannikin::dnn::loss::{Loss, SoftmaxCrossEntropy};
use cannikin::dnn::models::{accuracy, mlp_classifier};
use cannikin::dnn::optim::{Optimizer, Sgd};
use cannikin::dnn::tensor::{gemm, threads};
use cannikin::prelude::*;

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// World size is fixed: slow ranks sleep, so balanced demand is
/// Σ1/s = 1.75 busy cores, which fits the two cores the sandbox has.
const SLOWDOWNS: [f64; 3] = [1.0, 2.0, 4.0];
const CLASSES: usize = 10;
/// Epochs before the timed region: epoch 0 splits evenly, epoch 1 runs the
/// bootstrap split, epoch 2 is the first the fitted model may plan.
const WARMUP_EPOCHS: usize = 3;
/// Set-ups per untraced run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 3;
/// Probe steps discarded before medians are taken (cold caches, first
/// socket writes).
const PROBE_WARMUP_STEPS: usize = 2;

/// Everything that distinguishes the two real workloads.
#[derive(Debug, Clone)]
pub struct Shape {
    pub samples: usize,
    pub dim: usize,
    pub hidden: usize,
    pub batch: u64,
    /// Class-centre scale of the generated blobs (see [`blobs`]).
    pub separation: f32,
    pub base_lr: f64,
    /// `true`: TCP sockets and the bf16 codec with error feedback.
    /// `false`: in-process channels and raw f32.
    pub networked: bool,
    /// Reduce per-layer buckets behind a comm worker while backward still
    /// runs. Off in both workloads: overlapped epochs flip between a fast
    /// and a slow scheduling pattern for tens of seconds at a time (±13 %
    /// run to run on 2 cores, against ±3 % without), which no statistic
    /// of a 20 s run steadies. The traced run of `real-comm` measures it
    /// on the side (`collectives.overlap_speedup`, `hidden_s_per_epoch`).
    pub overlap: bool,
}

impl Shape {
    pub fn real_compute(smoke: bool) -> Shape {
        if smoke {
            return Shape {
                samples: 256,
                dim: 16,
                hidden: 32,
                batch: 64,
                separation: 1.0,
                base_lr: 0.1,
                networked: false,
                overlap: false,
            };
        }
        Shape {
            samples: 4096,
            dim: 128,
            hidden: 512,
            batch: 512,
            separation: 0.25,
            base_lr: 0.05,
            networked: false,
            overlap: false,
        }
    }

    pub fn real_comm(smoke: bool) -> Shape {
        if smoke {
            return Shape {
                samples: 96,
                dim: 16,
                hidden: 32,
                batch: 24,
                separation: 1.0,
                base_lr: 0.05,
                networked: true,
                overlap: false,
            };
        }
        Shape {
            samples: 192,
            dim: 256,
            hidden: 1024,
            batch: 24,
            separation: 0.25,
            base_lr: 0.002,
            networked: true,
            overlap: false,
        }
    }

    fn overlapped(&self) -> Shape {
        Shape {
            overlap: true,
            ..self.clone()
        }
    }

    fn transport(&self) -> TransportKind {
        if self.networked {
            TransportKind::tcp()
        } else {
            TransportKind::InProcess
        }
    }

    fn codec(&self) -> Codec {
        if self.networked {
            Codec::Bf16
        } else {
            Codec::None
        }
    }

    fn factory(&self) -> impl Fn(u64) -> Sequential + Send + Sync + Clone + 'static {
        let (dim, hidden) = (self.dim, self.hidden);
        move |seed| mlp_classifier(dim, hidden, CLASSES, seed)
    }

    /// Steps the trainer's alternating-split loader cuts an epoch into.
    fn steps_per_epoch(&self) -> usize {
        2 * (self.samples / (2 * self.batch as usize))
    }

    fn samples_per_epoch(&self) -> f64 {
        (self.steps_per_epoch() as u64 * self.batch) as f64
    }

    fn trainer(
        &self,
        dataset: ClassificationDataset,
        seed: u64,
        slowdowns: &[f64],
    ) -> Result<ParallelTrainer, CannikinError> {
        ParallelTrainer::builder()
            .dataset(dataset)
            .model(self.factory())
            .slowdowns(slowdowns.to_vec())
            .batch_range(self.batch, self.batch)
            .adaptive(false)
            .base_lr(self.base_lr)
            .seed(seed)
            .policy(PolicyKind::OptPerf)
            .transport(self.transport())
            .codec(self.codec())
            .overlap(self.overlap)
            .build()
    }
}

/// Run one epoch, count it, and apply the per-epoch output checks. An
/// `Err` from the trainer is a failed operation, never a panic.
fn epoch(trainer: &mut ParallelTrainer, out: &mut Outcome) -> Option<(ParallelEpochReport, f64)> {
    out.attempted += 1;
    let started = Instant::now();
    let result = trainer.run_epoch();
    let wall = started.elapsed().as_secs_f64();
    match result {
        Ok(report) => {
            let split: u64 = report.local_batches.iter().sum();
            if split != report.total_batch {
                out.fail(format!(
                    "epoch {}: split sums to {split}, total batch is {}",
                    report.epoch, report.total_batch
                ));
            } else if !report.mean_loss.is_finite() {
                out.fail(format!("epoch {}: mean loss is {}", report.epoch, report.mean_loss));
            } else if report.comm_bytes == 0 && report.local_batches.len() > 1 {
                out.fail(format!("epoch {}: no bytes on the wire", report.epoch));
            }
            Some((report, wall))
        }
        Err(e) => {
            out.fail(format!("run_epoch: {e}"));
            None
        }
    }
}

/// A trainer past its warm-up and the wall time of each set-up step.
struct Ready {
    trainer: ParallelTrainer,
    steps: Vec<f64>,
}

/// Generate the inputs, build the trainer and run the warm-up epochs: what
/// `setup_s` times, one lap for the build and one per epoch.
fn set_up(shape: &Shape, seed: u64, slowdowns: &[f64], out: &mut Outcome) -> Result<Ready, String> {
    let mut laps = Laps::start();
    let dataset = blobs(shape.samples, CLASSES, shape.dim, shape.separation, seed);
    let mut trainer = shape
        .trainer(dataset, seed, slowdowns)
        .map_err(|e| format!("trainer build: {e}"))?;
    laps.lap();
    for _ in 0..WARMUP_EPOCHS {
        epoch(&mut trainer, out);
        laps.lap();
    }
    Ok(Ready {
        trainer,
        steps: laps.walls,
    })
}

/// Epochs until `budget` has passed (at least one): reports and walls.
fn epochs_for(
    trainer: &mut ParallelTrainer,
    budget: Duration,
    out: &mut Outcome,
    mut track: Option<&mut Track<'_>>,
) -> Vec<(ParallelEpochReport, f64)> {
    let started = Instant::now();
    let mut done = Vec::new();
    while done.is_empty() || started.elapsed() < budget {
        let result = in_span(track.as_deref_mut(), "core.engine.run_epoch", |_| epoch(trainer, out));
        match result {
            Some(r) => done.push(r),
            // A trainer that errors will keep erroring; do not spin.
            None if out.failed > 3 => break,
            None => {}
        }
    }
    done
}

fn last_accuracy_check(epochs: &[(ParallelEpochReport, f64)], out: &mut Outcome) -> f64 {
    let accuracy = epochs.last().map_or(0.0, |(r, _)| r.accuracy);
    if accuracy < 0.9 {
        out.violate(format!("last timed epoch has train accuracy {accuracy:.3} < 0.9"));
    }
    accuracy
}

/// The split the probe rig replays: each rank's median local batch over
/// the traced epochs (one epoch's split jitters with that epoch's timing
/// noise), with rank 0 absorbing the rounding so the sum is the batch.
fn typical_split(epochs: &[(ParallelEpochReport, f64)], batch: u64) -> Vec<u64> {
    let mut split: Vec<u64> = (0..SLOWDOWNS.len())
        .map(|rank| {
            median(
                &epochs
                    .iter()
                    .map(|(r, _)| r.local_batches[rank] as f64)
                    .collect::<Vec<_>>(),
            )
            .round()
            .max(1.0) as u64
        })
        .collect();
    let rest: u64 = split[1..].iter().sum();
    split[0] = batch.saturating_sub(rest).max(1);
    split
}

/// The untraced run: end-to-end metrics only.
pub fn run(shape: &Shape, seed: u64, budget: &Budget) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut ready = set_up(shape, seed, &SLOWDOWNS, &mut out)?;
    for _ in 1..SETUP_REPEATS {
        setups.push(std::mem::take(&mut ready.steps));
        ready = set_up(shape, seed, &SLOWDOWNS, &mut out)?;
    }
    setups.push(std::mem::take(&mut ready.steps));
    let mut trainer = ready.trainer;

    let epochs = epochs_for(&mut trainer, budget.measure, &mut out, None);
    let walls: Vec<f64> = epochs.iter().map(|(_, w)| *w).collect();
    // Epochs are not exact repeats (the split follows measured timings),
    // but they are the finest closed-loop unit, and their fastest is the
    // only statistic the sandbox's interference leaves standing.
    let samples_per_s = shape.samples_per_epoch() / minimum(&walls);
    let accuracy = last_accuracy_check(&epochs, &mut out);
    let wire: u64 = epochs.iter().map(|(r, _)| r.comm_bytes).sum();
    let samples = shape.samples_per_epoch() * epochs.len() as f64;

    out.set(
        "setup_s",
        quiet_total(&setups).ok_or("set-up repeats ran different steps")?,
    );
    out.set("work_per_s", samples_per_s);
    // Own clock: the optimizer step. Correctly classified samples each
    // step consumes — no wall time, so it repeats.
    out.set("result_goodput", shape.batch as f64 * accuracy);
    out.note(
        format!("samples_per_s (fastest of {} epochs)", walls.len()),
        samples_per_s,
        "samples/s",
    );
    out.note(
        "samples_per_s at the median epoch",
        shape.samples_per_epoch() / median(&walls),
        "samples/s",
    );
    out.note("epoch_ms_p50", median(&walls) * 1e3, "ms");
    out.note("epoch_ms_tail", tail_or_median(&walls, 0.90) * 1e3, "ms");
    out.note("train_accuracy", accuracy, "fraction");
    out.note("wire_bytes_per_sample", wire as f64 / samples, "bytes");
    out.note(
        "last_mean_loss",
        epochs.last().map_or(f64::NAN, |(r, _)| r.mean_loss),
        "nats",
    );
    Ok(out)
}

/// The traced run: per-layer metrics from spans recorded around the
/// public calls — trainer epochs, the probe rig, a single-worker baseline
/// and the micro-probes.
pub fn run_traced(shape: &Shape, seed: u64, budget: &Budget, recorder: &Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut track = recorder.track(0, None);
    let mut trainer = track
        .span("setup", |_| set_up(shape, seed, &SLOWDOWNS, &mut out))?
        .trainer;
    // The trainer took its dataset by value; the probe rig and the
    // evaluation probe read this second, identical copy.
    let dataset = blobs(shape.samples, CLASSES, shape.dim, shape.separation, seed);
    let steps_per_epoch = shape.steps_per_epoch();

    // Trainer epochs with recording off inside the program: the engine
    // numbers the probe's step budget is held against.
    let epochs = epochs_for(&mut trainer, budget.measure.mul_f64(0.25), &mut out, Some(&mut track));
    let walls: Vec<f64> = epochs.iter().map(|(_, w)| *w).collect();
    let epoch_wall = median(&walls);
    let wire: u64 = epochs.iter().map(|(r, _)| r.comm_bytes).sum();
    let total_steps = (epochs.len() * steps_per_epoch) as f64;
    let local = typical_split(&epochs, shape.batch);

    // The same epochs with a telemetry session open: what recording costs
    // and how many events an epoch emits.
    let (session_walls, events, accuracy) = {
        let session = Session::start();
        let recorded = epochs_for(&mut trainer, budget.measure.mul_f64(0.10), &mut out, Some(&mut track));
        let accuracy = last_accuracy_check(&recorded, &mut out);
        (
            recorded.iter().map(|(_, w)| *w).collect::<Vec<_>>(),
            session.drain().len(),
            accuracy,
        )
    };

    // Probe rig: the trainer's step, issued call by call under spans.
    let probe_steps = ((budget.measure.as_secs_f64() * 0.22) / (epoch_wall / steps_per_epoch as f64)).ceil() as usize;
    let probe_steps = probe_steps.max(PROBE_WARMUP_STEPS + 4);
    let group_setup = probe_rig(recorder, &mut track, shape, &dataset, &local, probe_steps, seed)?;
    let probe = ProbeSummary::from_spans(&recorder.spans(), SLOWDOWNS.len());

    // A plain single-worker run of the same task: the baseline that
    // `hetero_efficiency` is a ratio to.
    let single = {
        let mut solo = track
            .span("setup.single_worker", |_| set_up(shape, seed, &[1.0], &mut out))?
            .trainer;
        let solo_epochs = epochs_for(&mut solo, budget.measure.mul_f64(0.10), &mut out, None);
        shape.samples_per_epoch() / median(&solo_epochs.iter().map(|(_, w)| *w).collect::<Vec<_>>())
    };

    // The same trainer with per-layer overlap, where the exchange is worth
    // hiding: what overlap hides per epoch and what it buys, fastest epoch
    // against fastest epoch.
    let (hidden_per_epoch, overlap_speedup) = if shape.networked {
        let mut overlapped = track
            .span("setup.overlapped", |_| {
                set_up(&shape.overlapped(), seed, &SLOWDOWNS, &mut out)
            })?
            .trainer;
        let runs = epochs_for(
            &mut overlapped,
            budget.measure.mul_f64(0.10),
            &mut out,
            Some(&mut track),
        );
        let fastest = minimum(&runs.iter().map(|(_, w)| *w).collect::<Vec<_>>());
        (
            mean(&runs.iter().map(|(r, _)| r.comm_overlap).collect::<Vec<_>>()),
            minimum(&walls) / fastest,
        )
    } else {
        (0.0, 0.0)
    };
    let samples_per_s = shape.samples_per_epoch() / epoch_wall;
    let capacity: f64 = SLOWDOWNS.iter().map(|s| 1.0 / s).sum();

    let params: usize = (shape.factory())(seed).parameters().iter().map(|p| p.len()).sum();
    let payload_bytes = (params * 4) as f64;
    let world = SLOWDOWNS.len() as f64;
    let micro = micro_probes(&mut track, shape, &dataset, &local, params, budget, seed);

    // Amortise the per-epoch group set-up over the epoch's steps so the
    // shares below describe one step of a real epoch.
    let setup_per_step = group_setup / steps_per_epoch as f64;
    let step = probe.step_critical + setup_per_step;
    let attributed = probe.step_critical * steps_per_epoch as f64 + group_setup;

    out.set("dnn.gemm_gflops", micro.gemm_gflops);
    out.set("dnn.gemm_skinny_gflops", micro.gemm_skinny_gflops);
    out.set("dnn.batch_load_us_per_step", probe.batch_load * 1e6);
    out.set("dnn.forward_ms_per_step", probe.forward * 1e3);
    out.set("dnn.backward_ms_per_step", probe.backward * 1e3);
    out.set("dnn.flatten_ms_per_step", probe.flatten * 1e3);
    out.set("dnn.optimizer_ms_per_step", probe.optimizer * 1e3);
    out.set("dnn.eval_ms_per_epoch", micro.eval * 1e3);
    out.set("dnn.model_build_ms", micro.model_build * 1e3);
    out.set("dnn.step_share", probe.dnn_rank0 / step);
    out.set("dnn.train_accuracy", accuracy);
    out.set("collectives.allreduce_ms_per_step", probe.transfer * 1e3);
    let gbps = 2.0 * (world - 1.0) / world * payload_bytes / probe.transfer / 1e9;
    out.set("collectives.allreduce_gbps", gbps);
    out.set("collectives.allreduce_vs_memcpy", gbps / micro.memcpy_gbps);
    out.set("collectives.wire_bytes_per_step", wire as f64 / total_steps);
    out.set(
        "collectives.wire_bytes_per_sample",
        wire as f64 / (total_steps * shape.batch as f64),
    );
    // One flat all-reduce and one gather, as the probe issues them.
    out.set("collectives.calls_per_step", 2.0);
    out.set("collectives.codec_encode_gbps", micro.encode_gbps);
    out.set("collectives.codec_decode_gbps", micro.decode_gbps);
    out.set("collectives.group_setup_ms", group_setup * 1e3);
    out.set("collectives.gather_us_per_step", probe.gather * 1e6);
    out.set("collectives.exposed_ms_per_step", probe.exposed * 1e3);
    out.set("collectives.hidden_s_per_epoch", hidden_per_epoch);
    out.set("collectives.overlap_speedup", overlap_speedup);
    out.set(
        "collectives.step_share",
        (probe.transfer + probe.gather + setup_per_step) / step,
    );
    out.set("core.engine.epoch_ms_p50", epoch_wall * 1e3);
    out.set("core.engine.epoch_ms_tail", tail_or_median(&walls, 0.90) * 1e3);
    out.set("core.engine.straggler_wait_share", probe.wait_share);
    out.set("core.engine.unattributed_share", 1.0 - attributed / epoch_wall);
    out.set("core.engine.hetero_efficiency", samples_per_s / (single * capacity));
    out.set("core.gns.estimate_us", micro.gns_estimate * 1e6);
    let session_epochs = session_walls.len().max(1) as f64;
    out.set("telemetry.events_per_epoch", events as f64 / session_epochs);
    out.set(
        "telemetry.session_overhead_pct",
        (median(&session_walls) / epoch_wall - 1.0) * 100.0,
    );

    out.note("samples_per_s", samples_per_s, "samples/s");
    out.note("single_worker_samples_per_s", single, "samples/s");
    out.note(format!("probe steps (split {local:?})"), probe_steps as f64, "count");
    out.note("probe step critical path", probe.step_critical * 1e3, "ms");
    out.note(
        "trainer step (epoch wall / steps)",
        epoch_wall / steps_per_epoch as f64 * 1e3,
        "ms",
    );
    out.note(
        "longest emulated sleep share of step",
        probe.sleep_max / step,
        "fraction",
    );
    Ok(out)
}

/// One rank of the probe rig: the calls `ParallelTrainer`'s rank thread
/// makes for one step without overlap, each under its own span.
#[allow(clippy::too_many_arguments)]
fn probe_rank(
    recorder: &Recorder,
    shape: &Shape,
    dataset: &ClassificationDataset,
    comm: Communicator,
    local: &[u64],
    steps: usize,
    seed: u64,
    cause: Option<usize>,
) {
    let rank = comm.rank();
    let mut track = recorder.track(rank as u32 + 1, cause);
    let _budget = threads::ThreadBudgetGuard::new(threads::replica_share(local.len()));
    let factory = shape.factory();
    let mut model = track.span("dnn.model_build", |_| {
        let mut model = factory(seed);
        let flat = flatten_values(&model.parameters());
        assign_values(&mut model.parameters_mut(), &flat);
        model
    });
    let mut opt = Sgd::new(shape.base_lr).momentum(0.9);
    let total: u64 = local.iter().sum();
    let offset: u64 = local[..rank].iter().sum();
    let ratio = local[rank] as f32 / total as f32;
    let slowdown = SLOWDOWNS[rank];

    let params: usize = model.parameters().iter().map(|p| p.len()).sum();
    let mut feedback = comm.codec().is_lossy().then(|| ErrorFeedback::new(params));
    let mut g: Vec<f32> = Vec::with_capacity(params);

    for step in 0..steps {
        let first = (step as u64 * total + offset) as usize;
        let indices: Vec<usize> = (0..local[rank] as usize).map(|i| (first + i) % dataset.len()).collect();
        track.span("probe.step", |t| {
            let compute = Instant::now();
            let (x, y) = t.span("dnn.batch_load", |_| dataset.batch(&indices));
            let logits = t.span("dnn.forward", |_| model.forward(&x, true));
            let (_, grad) = t.span("dnn.loss", |_| SoftmaxCrossEntropy.loss(&logits, &y));
            t.span("dnn.backward", |_| {
                zero_grads(&mut model.parameters_mut());
                model.backward(&grad)
            });
            if slowdown > 1.0 {
                let extra = compute.elapsed().as_secs_f64() * (slowdown - 1.0);
                t.span("engine.emulated_sleep", |_| {
                    std::thread::sleep(Duration::from_secs_f64(extra))
                });
            }
            t.span("dnn.flatten", |_| flatten_grads_into(&model.parameters(), &mut g));
            let local_sq: f64 = g.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
            t.span("collectives.allreduce", |_| {
                comm.weighted_all_reduce_ef(&mut g, ratio, feedback.as_mut())
            });
            let global_sq: f64 = g.iter().map(|&v| f64::from(v) * f64::from(v)).sum();
            let rows = t.span("collectives.gather", |_| {
                comm.all_gather_vec(&[local[rank] as f64, local_sq])
            });
            if rank == 0 {
                let samples: Vec<GradientSample> = rows
                    .iter()
                    .map(|r| GradientSample {
                        local_batch: r[0] as u64,
                        local_sq_norm: r[1],
                    })
                    .collect();
                t.span("core.gns.estimate", |_| {
                    estimate_gns(&samples, global_sq, Aggregation::MinimumVariance).ok()
                });
            }
            t.span("dnn.assign", |_| assign_grads_from(&mut model.parameters_mut(), &g));
            t.span("dnn.optimizer", |_| opt.step(&mut model.parameters_mut()));
        });
    }
}

/// Build the group the way the trainer does each epoch, run every rank of
/// the probe, and return the median group set-up time, s.
fn probe_rig(
    recorder: &Recorder,
    track: &mut Track<'_>,
    shape: &Shape,
    dataset: &ClassificationDataset,
    local: &[u64],
    steps: usize,
    seed: u64,
) -> Result<f64, String> {
    let build = |t: &mut Track<'_>| {
        t.span("collectives.group_setup", |_| {
            CommGroup::with_options(local.len(), &shape.transport(), None, shape.codec())
        })
        .map_err(|e| format!("comm group: {e}"))
    };
    // Nine groups built and dropped, the tenth kept for the probe.
    for _ in 0..9 {
        drop(build(track)?);
    }
    let comms = build(track)?;
    track.span("probe", |t| {
        let cause = t.current();
        std::thread::scope(|s| {
            for comm in comms {
                s.spawn(move || probe_rank(recorder, shape, dataset, comm, local, steps, seed, cause));
            }
        });
    });
    Ok(median(&track.seconds_of("collectives.group_setup")))
}

/// Per-step medians over the probe's spans, s, and the shares the
/// workloads were chosen for.
#[derive(Debug, Default)]
struct ProbeSummary {
    batch_load: f64,
    forward: f64,
    backward: f64,
    flatten: f64,
    optimizer: f64,
    /// Transfer only: the shortest all-reduce span across ranks (the last
    /// arriver's).
    transfer: f64,
    gather: f64,
    /// Step critical path minus the longest compute (sleep included).
    exposed: f64,
    /// Longest step span across ranks.
    step_critical: f64,
    /// Mean over ranks and steps of (all-reduce span − transfer) ÷ step.
    wait_share: f64,
    /// Rank 0's time in `dnn` calls per step (it never sleeps and holds
    /// the largest share of the batch).
    dnn_rank0: f64,
    sleep_max: f64,
}

/// One rank's view of one step: seconds per child span name.
#[derive(Debug, Default, Clone)]
struct StepRow {
    total: f64,
    allreduce: f64,
    gather: f64,
    named: Vec<(&'static str, f64)>,
}

impl StepRow {
    fn get(&self, name: &str) -> f64 {
        self.named.iter().filter(|(n, _)| *n == name).map(|(_, d)| d).sum()
    }

    fn dnn(&self) -> f64 {
        self.named
            .iter()
            .filter(|(n, _)| n.starts_with("dnn."))
            .map(|(_, d)| d)
            .sum()
    }

    fn compute(&self) -> f64 {
        self.total - self.allreduce - self.gather
    }
}

impl ProbeSummary {
    fn from_spans(spans: &[Span], ranks: usize) -> ProbeSummary {
        // rows[rank][step]
        let mut rows: Vec<Vec<StepRow>> = vec![Vec::new(); ranks];
        // Span id of each `probe.step` -> (rank, step); spans come ordered
        // by id, so a step precedes its children.
        let mut step_of: HashMap<usize, (usize, usize)> = HashMap::new();
        for span in spans {
            let rank = span.thread as usize;
            if rank == 0 || rank > ranks {
                continue;
            }
            if span.name == "probe.step" {
                rows[rank - 1].push(StepRow {
                    total: span.seconds(),
                    ..StepRow::default()
                });
                step_of.insert(span.id, (rank - 1, rows[rank - 1].len() - 1));
            } else if let Some(&(r, s)) = span.parent.and_then(|p| step_of.get(&p)) {
                match span.name {
                    "collectives.allreduce" => rows[r][s].allreduce = span.seconds(),
                    "collectives.gather" => rows[r][s].gather = span.seconds(),
                    name => rows[r][s].named.push((name, span.seconds())),
                }
            }
        }
        let steps = rows.iter().map(Vec::len).min().unwrap_or(0);
        if steps <= PROBE_WARMUP_STEPS {
            return ProbeSummary::default();
        }
        let kept = PROBE_WARMUP_STEPS..steps;
        let per_step = |f: &dyn Fn(usize) -> f64| -> Vec<f64> { kept.clone().map(f).collect() };
        let min_across =
            |s: usize, f: &dyn Fn(&StepRow) -> f64| rows.iter().map(|r| f(&r[s])).fold(f64::INFINITY, f64::min);
        let max_across = |s: usize, f: &dyn Fn(&StepRow) -> f64| rows.iter().map(|r| f(&r[s])).fold(0.0, f64::max);
        let transfer_of = |s: usize| min_across(s, &|row| row.allreduce);
        let critical = per_step(&|s| max_across(s, &|row| row.total));
        let waits = per_step(&|s| {
            let transfer = transfer_of(s);
            let step = max_across(s, &|row| row.total);
            rows.iter().map(|r| (r[s].allreduce - transfer) / step).sum::<f64>() / ranks as f64
        });
        let rank0 = |name: &'static str| median(&per_step(&|s| rows[0][s].get(name)));
        ProbeSummary {
            batch_load: rank0("dnn.batch_load"),
            forward: median(&per_step(&|s| {
                rows[0][s].get("dnn.forward") + rows[0][s].get("dnn.loss")
            })),
            backward: rank0("dnn.backward"),
            flatten: median(&per_step(&|s| {
                rows[0][s].get("dnn.flatten") + rows[0][s].get("dnn.assign")
            })),
            optimizer: rank0("dnn.optimizer"),
            transfer: median(&per_step(&transfer_of)),
            gather: median(&per_step(&|s| min_across(s, &|row| row.gather))),
            exposed: median(&per_step(&|s| {
                max_across(s, &|row| row.total) - max_across(s, &StepRow::compute)
            })),
            step_critical: median(&critical),
            wait_share: mean(&waits),
            dnn_rank0: median(&per_step(&|s| rows[0][s].dnn())),
            sleep_max: median(&per_step(&|s| max_across(s, &|row| row.get("engine.emulated_sleep")))),
        }
    }
}

#[derive(Debug)]
struct Micro {
    gemm_gflops: f64,
    gemm_skinny_gflops: f64,
    eval: f64,
    model_build: f64,
    encode_gbps: f64,
    decode_gbps: f64,
    memcpy_gbps: f64,
    gns_estimate: f64,
}

/// Single-call probes of `dnn`, the codec and the GNS estimator, on the
/// driver thread with a one-thread kernel budget (what a rank gets).
fn micro_probes(
    track: &mut Track<'_>,
    shape: &Shape,
    dataset: &ClassificationDataset,
    local: &[u64],
    params: usize,
    budget: &Budget,
    seed: u64,
) -> Micro {
    let _one_thread = threads::ThreadBudgetGuard::new(1);
    let slice = budget.measure.mul_f64(0.015);
    let gflops = |track: &mut Track<'_>, name: &'static str, m: usize, k: usize, n: usize| {
        let (a, b) = (vec![0.5f32; m * k], vec![0.25f32; k * n]);
        let mut c = vec![0f32; m * n];
        let per_call = time_per_call(track, name, slice, || gemm(m, n, k, &a, &b, &mut c, false));
        2.0 * (m * k * n) as f64 / per_call / 1e9
    };
    let gemm_gflops = gflops(track, "dnn.gemm", 256, 256, 256);
    // Rank 0's local batch against the networked model's hidden layer.
    let gemm_skinny_gflops = gflops(track, "dnn.gemm_skinny", local[0].max(1) as usize, 1024, 1024);

    let factory = shape.factory();
    let model_build = time_per_call(track, "dnn.model_build", slice, || {
        let mut model = factory(seed);
        let flat = flatten_values(&model.parameters());
        assign_values(&mut model.parameters_mut(), &flat);
        model
    });
    // What the trainer evaluates after every epoch: the first 512 samples.
    let mut model = factory(seed);
    let head: Vec<usize> = (0..dataset.len().min(512)).collect();
    let eval = time_per_call(track, "dnn.evaluate", slice, || {
        let (x, y) = dataset.batch(&head);
        accuracy(&mut model, &x, &y)
    });

    let codec = shape.codec();
    let grads: Vec<f32> = (0..params).map(|i| ((i % 977) as f32 - 488.0) * 1e-4).collect();
    let frame = codec.encode(&grads);
    let bytes = (params * 4) as f64;
    let encode_gbps = bytes / time_per_call(track, "collectives.codec_encode", slice, || codec.encode(&grads)) / 1e9;
    let decode_gbps = bytes / time_per_call(track, "collectives.codec_decode", slice, || codec.decode(&frame)) / 1e9;
    let mut copy = vec![0f32; params];
    let memcpy_gbps = bytes / time_per_call(track, "memcpy", slice, || copy.copy_from_slice(&grads)) / 1e9;

    let samples: Vec<GradientSample> = local
        .iter()
        .map(|&b| GradientSample {
            local_batch: b,
            local_sq_norm: 1.0 + 1.0 / b as f64,
        })
        .collect();
    let gns_estimate = time_per_call(track, "core.gns.estimate", slice, || {
        estimate_gns(&samples, 1.0, Aggregation::MinimumVariance).ok()
    });

    Micro {
        gemm_gflops,
        gemm_skinny_gflops,
        eval,
        model_build,
        encode_gbps,
        decode_gbps,
        memcpy_gbps,
        gns_estimate,
    }
}
