//! `sim-plan`: the control plane at paper scale with zero tensor work.
//!
//! One *pass* trains each of the five paper profiles to its target on the
//! 16-GPU cluster B under the default policy (OptPerf + goodput, adaptive
//! batch). Wall time is simulator physics plus analyzer fitting plus the
//! solver/goodput/policy layers; simulated time-to-target is fixed by the
//! seed, so a planner that gets faster by returning worse splits shows as
//! a lower `result_goodput`.

use crate::metrics::Outcome;
use crate::spans::{in_span, Recorder, Track};
use crate::stats::{fold_min, median, quiet_total, tail_or_median, Laps};
use crate::sys::time_per_call;
use crate::Budget;

use cannikin::core::goodput::GoodputEngine;
use cannikin::core::optperf::{even_split, predict_batch_time};
use cannikin::core::policy::build_sim_policy;
use cannikin::insight::{analyze, InsightConfig};
use cannikin::prelude::*;
use cannikin::telemetry::export::jsonl_string;
use cannikin::telemetry::{self, Event};
use cannikin::workloads::clusters;
use cannikin::workloads::profiles::{self, WorkloadProfile};

use std::time::{Duration, Instant};

/// Epoch cap per profile; reaching it counts as a failed operation.
const EPOCH_CAP: usize = 4000;
/// Rounds an untraced run replays at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Rounds of the traced run.
const TRACED_ROUNDS: usize = 3;
/// Set-ups per untraced run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 5;
/// Bootstrap epochs a set-up runs per profile: even split, then the
/// Eq. (8) split; the third epoch is the first the fitted model plans.
const BOOTSTRAP_EPOCHS: usize = 2;

fn profile_set(smoke: bool) -> Vec<WorkloadProfile> {
    if smoke {
        // The two profiles that reach their target in tens of milliseconds.
        return vec![profiles::cifar10_resnet18(), profiles::squad_bert()];
    }
    profiles::all()
}

fn trainer(profile: &WorkloadProfile, seed: u64) -> Result<CannikinTrainer, String> {
    let cluster = clusters::cluster_b();
    let base = profile.base_batch.max(2 * cluster.len() as u64);
    CannikinTrainer::builder()
        .simulator(Simulator::new(cluster, profile.job.clone(), seed))
        .noise(profile.noise)
        .dataset_size(profile.dataset_size)
        .batch_range(base, profile.max_batch.max(base))
        .adaptive_batch(true)
        .policy(PolicyKind::default())
        .build()
        .map_err(|e| format!("{}: trainer build: {e}", profile.name()))
}

/// One epoch, counted and checked.
fn epoch(trainer: &mut CannikinTrainer, out: &mut Outcome) -> Option<EpochRecord> {
    out.attempted += 1;
    match trainer.run_epoch() {
        Ok(record) => {
            let split: u64 = record.local_batches.iter().sum();
            if split != record.total_batch {
                out.fail(format!(
                    "epoch {}: split sums to {split}, total batch is {}",
                    record.epoch, record.total_batch
                ));
            }
            Some(record)
        }
        Err(e) => {
            out.fail(format!("run_epoch: {e}"));
            None
        }
    }
}

/// Totals of one or more profile runs.
#[derive(Debug, Default)]
struct Totals {
    /// Σ `EpochRecord.epoch_time`: simulated seconds to target.
    sim_time: f64,
    steps: usize,
    epochs: usize,
    /// Σ `EpochRecord.overhead_seconds`: wall time spent planning and
    /// fitting (the paper's Table 6 numerator).
    overhead: f64,
    /// Σ target effective epochs × dataset size: the useful samples a
    /// pass has to deliver.
    useful_samples: f64,
    wall: f64,
    /// Wall time of every epoch, in the order they ran.
    epoch_walls: Vec<f64>,
}

impl Totals {
    fn add(&mut self, other: &Totals) {
        self.sim_time += other.sim_time;
        self.steps += other.steps;
        self.epochs += other.epochs;
        self.overhead += other.overhead;
        self.useful_samples += other.useful_samples;
        self.wall += other.wall;
        self.epoch_walls.extend_from_slice(&other.epoch_walls);
    }
}

/// `train_until(target, EPOCH_CAP)` with the loop written out, so each
/// epoch is one closed-loop operation that can be counted, checked, timed
/// and — in the traced run — wrapped in a span.
fn run_profile(
    profile: &WorkloadProfile,
    seed: u64,
    out: &mut Outcome,
    mut track: Option<&mut Track<'_>>,
) -> Result<Totals, String> {
    let started = Instant::now();
    let mut trainer = trainer(profile, seed)?;
    let target = profile.target_effective_epochs();
    let mut totals = Totals {
        useful_samples: target * profile.dataset_size as f64,
        ..Totals::default()
    };
    while trainer.effective_epochs() < target && totals.epochs < EPOCH_CAP {
        let epoch_started = Instant::now();
        let record = in_span(track.as_deref_mut(), "core.engine.run_epoch", |_| {
            epoch(&mut trainer, out)
        });
        let Some(record) = record else { break };
        totals.epoch_walls.push(epoch_started.elapsed().as_secs_f64());
        totals.sim_time += record.epoch_time;
        totals.steps += record.steps;
        totals.epochs += 1;
        totals.overhead += record.overhead_seconds;
    }
    if trainer.effective_epochs() < target {
        out.fail(format!(
            "{} seed {seed}: target not reached in {} epochs",
            profile.name(),
            totals.epochs
        ));
    }
    totals.wall = started.elapsed().as_secs_f64();
    Ok(totals)
}

/// Every profile of `set` to its target, one after the other.
fn pass(
    set: &[WorkloadProfile],
    seed: u64,
    out: &mut Outcome,
    mut track: Option<&mut Track<'_>>,
) -> Result<Totals, String> {
    let mut totals = Totals::default();
    for profile in set {
        let one = in_span(track.as_deref_mut(), "sim-plan.profile", |t| {
            run_profile(profile, seed, out, t)
        })?;
        totals.add(&one);
    }
    Ok(totals)
}

/// Build every profile's trainer and run its bootstrap epochs: what
/// `setup_s` times, one lap per build and per epoch.
fn set_up(set: &[WorkloadProfile], seed: u64, out: &mut Outcome) -> Result<Vec<f64>, String> {
    let mut laps = Laps::start();
    for profile in set {
        let mut trainer = trainer(profile, seed)?;
        laps.lap();
        for _ in 0..BOOTSTRAP_EPOCHS {
            epoch(&mut trainer, out);
            laps.lap();
        }
    }
    Ok(laps.walls)
}

/// The untraced run: end-to-end metrics only.
pub fn run(seed: u64, budget: &Budget) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let set = profile_set(budget.smoke);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        setups.push(set_up(&set, seed, &mut out)?);
    }

    // Rounds replay the same pass. The simulation is fixed by the seed, so
    // every round runs the same epochs and has to report the same
    // simulated time bit for bit; wall time per epoch is the fastest seen.
    let started = Instant::now();
    let first = pass(&set, seed, &mut out, None)?;
    let mut fastest = Vec::new();
    fold_min(&mut fastest, &first.epoch_walls);
    let mut rounds = 1;
    while rounds < MIN_ROUNDS || started.elapsed() < budget.measure {
        let again = pass(&set, seed, &mut out, None)?;
        if again.sim_time.to_bits() != first.sim_time.to_bits() || !fold_min(&mut fastest, &again.epoch_walls) {
            out.violate(format!(
                "round {rounds} replayed seed {seed} differently: {} s simulated in {} epochs, first round {} s in {}",
                again.sim_time, again.epochs, first.sim_time, first.epochs
            ));
            break;
        }
        rounds += 1;
    }
    let quiet_pass: f64 = fastest.iter().sum();

    out.set(
        "setup_s",
        quiet_total(&setups).ok_or("set-up repeats ran different steps")?,
    );
    out.set("work_per_s", first.steps as f64 / quiet_pass);
    // Own clock: the simulated second. Useful samples delivered per
    // simulated second to target — what the planner's splits are worth.
    out.set("result_goodput", first.useful_samples / first.sim_time);
    out.note(
        format!("sim_steps_per_s (fastest of {rounds} rounds per epoch)"),
        first.steps as f64 / quiet_pass,
        "steps/s",
    );
    out.note(
        "sim_steps_per_s over the whole timed region",
        (first.steps * rounds) as f64 / started.elapsed().as_secs_f64(),
        "steps/s",
    );
    out.note("sim_time_to_target_s", first.sim_time, "simulated s");
    out.note("epochs_to_target", first.epochs as f64, "count");
    out.note("plan_overhead_pct", first.overhead / first.sim_time * 100.0, "%");
    Ok(out)
}

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, budget: &Budget, recorder: &Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut track = recorder.track(0, None);
    let set = profile_set(budget.smoke);
    track.span("setup", |_| set_up(&set, seed, &mut out))?;

    // The pass, each epoch under a span, recording off inside the program.
    let rounds = if budget.smoke { 1 } else { TRACED_ROUNDS };
    let mut reported = track.span("sim-plan.pass", |t| pass(&set, seed, &mut out, Some(t)))?;
    for _ in 1..rounds {
        let again = track.span("sim-plan.pass", |t| pass(&set, seed, &mut out, Some(t)))?;
        reported.epoch_walls.extend_from_slice(&again.epoch_walls);
        reported.wall += again.wall;
    }

    // The two short profiles again with a telemetry session open: event
    // counts per epoch, what recording costs, and a record set for the
    // drain, export and replay probes (a full pass would hold ~4.5 M
    // per-node step timings).
    let short = profile_set(true);
    let plain = track.span("sim-plan.short_pass", |t| pass(&short, seed, &mut out, Some(t)))?;
    let session = Session::start();
    let recorded = track.span("sim-plan.session_pass", |t| pass(&short, seed, &mut out, Some(t)))?;
    let drain_started = Instant::now();
    let records = track.span("telemetry.drain", |_| session.drain());
    let drain = drain_started.elapsed().as_secs_f64();
    drop(session);
    let count = |pick: &dyn Fn(&Event) -> bool| records.iter().filter(|r| pick(&r.event)).count() as f64;
    let solves = count(&|e| matches!(e, Event::SolverInvocation(_)));
    let selections = count(&|e| matches!(e, Event::GoodputEval(_)));
    let candidates: f64 = records
        .iter()
        .filter_map(|r| match &r.event {
            Event::GoodputEval(eval) => Some(f64::from(eval.candidates)),
            _ => None,
        })
        .sum();
    let slice = budget.measure.mul_f64(0.02);
    let jsonl_bytes = jsonl_string(&records).len() as f64;
    let jsonl = time_per_call(&mut track, "telemetry.jsonl", slice, || jsonl_string(&records));
    let replay = time_per_call(&mut track, "insight.analyze", slice, || {
        analyze(&records, InsightConfig::default())
    });

    let micro = micro_probes(&mut track, budget, seed, &mut out)?;

    let epochs = reported.epochs as f64;
    out.set("core.engine.epoch_ms_p50", median(&reported.epoch_walls) * 1e3);
    out.set(
        "core.engine.epoch_ms_tail",
        tail_or_median(&reported.epoch_walls, 0.90) * 1e3,
    );
    out.set("core.engine.plan_ms_per_epoch", reported.overhead / epochs * 1e3);
    out.set(
        "core.engine.plan_overhead_pct",
        reported.overhead / reported.sim_time * 100.0,
    );
    out.set("core.engine.epochs_to_target", epochs);
    out.set("core.perf.observe_us_per_step", micro.observe * 1e6);
    out.set("core.perf.solver_input_us", micro.solver_input * 1e6);
    out.set("core.perf.prediction_error_pct", micro.prediction_error_pct);
    out.set("core.optperf.solve_us", micro.solve * 1e6);
    out.set("core.optperf.solves_per_epoch", solves / recorded.epochs as f64);
    out.set("core.optperf.split_speedup_vs_even", micro.split_speedup_vs_even);
    out.set("core.goodput.select_cold_us", micro.select_cold * 1e6);
    out.set("core.goodput.select_warm_us", micro.select_warm * 1e6);
    out.set("core.goodput.candidates_per_epoch", candidates / recorded.epochs as f64);
    out.set("core.policy.ask_us", micro.ask * 1e6);
    out.set("core.policy.tell_us", micro.tell * 1e6);
    out.set("sim.simulate_us_per_step", micro.simulate * 1e6);
    out.set("sim.time_to_target_s", reported.sim_time);
    out.set("telemetry.counter_ns_disabled", micro.counter_disabled * 1e9);
    out.set("telemetry.counter_ns_enabled", micro.counter_enabled * 1e9);
    out.set("telemetry.span_ns_enabled", micro.span_enabled * 1e9);
    out.set(
        "telemetry.drain_ms_per_100k",
        drain / records.len().max(1) as f64 * 1e5 * 1e3,
    );
    out.set("telemetry.jsonl_mb_per_s", jsonl_bytes / jsonl / 1e6);
    out.set(
        "telemetry.events_per_epoch",
        records.len() as f64 / recorded.epochs as f64,
    );
    out.set(
        "telemetry.session_overhead_pct",
        (recorded.wall / plain.wall - 1.0) * 100.0,
    );
    out.set("insight.replay_events_per_s", records.len() as f64 / replay);

    out.note(
        "sim_steps_per_s (spans on, whole rounds)",
        (reported.steps * rounds) as f64 / reported.wall,
        "steps/s",
    );
    out.note(
        "goodput selections per epoch",
        selections / recorded.epochs as f64,
        "count",
    );
    out.note("session pass events", records.len() as f64, "count");
    Ok(out)
}

#[derive(Debug)]
struct Micro {
    observe: f64,
    solver_input: f64,
    prediction_error_pct: f64,
    solve: f64,
    split_speedup_vs_even: f64,
    select_cold: f64,
    select_warm: f64,
    ask: f64,
    tell: f64,
    simulate: f64,
    counter_disabled: f64,
    counter_enabled: f64,
    span_enabled: f64,
}

/// Single-call probes of the control-plane layers, fed the state of a
/// CIFAR-10 trainer on cluster B ten epochs into its run: fitted models
/// for all 16 nodes, a grown batch, a warm candidate cache.
fn micro_probes(track: &mut Track<'_>, budget: &Budget, seed: u64, out: &mut Outcome) -> Result<Micro, String> {
    let slice = budget.measure.mul_f64(0.02);
    let profile = profiles::cifar10_resnet18();
    let mut trainer = trainer(&profile, seed)?;
    let mut last = None;
    for _ in 0..10 {
        last = epoch(&mut trainer, out).or(last);
    }
    let record = last.ok_or("micro-probe trainer produced no epoch")?;
    let nodes = record.local_batches.len();
    let total = record.total_batch;
    let base = profile.base_batch.max(2 * nodes as u64);
    let max = profile.max_batch.max(base);
    let analyzer = trainer.analyzer();
    let input = analyzer
        .solver_input()
        .map_err(|e| format!("solver input after 10 epochs: {e}"))?;
    let phi = trainer.noise_scale_now();

    // core.perf
    let solver_input = time_per_call(track, "core.perf.solver_input", slice, || analyzer.solver_input());
    let mut sim = Simulator::new(clusters::cluster_b(), profile.job.clone(), seed);
    let trace = sim.simulate_batch(&record.local_batches);
    let mut scratch = analyzer.clone();
    let observe = time_per_call(track, "core.perf.observe_batch", slice, || {
        scratch.observe_batch(&trace)
    });
    let predicted = predict_batch_time(&input, &record.local_batches);
    let prediction_error_pct = (predicted / record.mean_batch_time - 1.0).abs() * 100.0;

    // core.optperf: a fresh solver per call, as the policy builds one.
    let solve = time_per_call(track, "core.optperf.solve", slice, || {
        OptPerfSolver::new(input.clone()).solve(total)
    });
    let plan = OptPerfSolver::new(input.clone())
        .solve(total)
        .map_err(|e| format!("solve({total}): {e}"))?;
    let split_speedup_vs_even = predict_batch_time(&input, &even_split(total, nodes)) / plan.opt_perf;

    // core.goodput: cold builds the engine and sweeps every candidate;
    // warm re-selects with the OptPerf_init cache hot.
    let select_cold = time_per_call(track, "core.goodput.select_cold", slice, || {
        GoodputEngine::new(base, base, max)
            .select(&mut OptPerfSolver::new(input.clone()), phi)
            .map(|s| s.total)
    });
    let mut engine = GoodputEngine::new(base, base, max);
    let mut solver = OptPerfSolver::new(input.clone());
    engine
        .select(&mut solver, phi)
        .map_err(|e| format!("goodput select: {e}"))?;
    let select_warm = time_per_call(track, "core.goodput.select_warm", slice, || {
        engine.select(&mut solver, phi).map(|s| s.total)
    });

    // core.policy: the default policy fed the trainer's own context.
    let mut policy = build_sim_policy(PolicyKind::default(), base, nodes, max);
    let ctx = PolicyContext {
        epoch: trainer.epochs_run(),
        nodes,
        adaptive: true,
        base_batch: base,
        max_batch: max,
        dataset_size: profile.dataset_size,
        phi: Some(phi),
        last_split: record.local_batches.clone(),
        solver_input: Some(input.clone()),
        per_sample_times: (0..nodes).map(|i| analyzer.per_sample_time(i).unwrap_or(1.0)).collect(),
    };
    let ask = time_per_call(track, "core.policy.ask", slice, || policy.ask(&ctx).map(|p| p.total));
    let observation = EpochObservation {
        epoch: record.epoch,
        total,
        local: record.local_batches.clone(),
        epoch_time: record.epoch_time,
        mean_batch_time: record.mean_batch_time,
        efficiency: record.efficiency,
        goodput: record.efficiency * total as f64 / record.mean_batch_time,
        phi: Some(phi),
        per_sample_times: ctx.per_sample_times.clone(),
    };
    let tell = time_per_call(track, "core.policy.tell", slice, || policy.tell(&observation));

    // sim: one epoch call of 64 steps on cluster B, per step.
    let simulate = time_per_call(track, "sim.simulate_epoch", slice, || {
        sim.simulate_epoch(&record.local_batches, 64)
    }) / 64.0;

    // telemetry: the disabled path, then the same calls with a session.
    // Every enabled call buffers a record, so those loops stay short.
    let counter_disabled = time_per_call(track, "telemetry.counter_disabled", slice, || {
        telemetry::counter("probe", 1.0)
    });
    let short = slice.min(Duration::from_millis(25));
    let session = Session::start();
    let counter_enabled = time_per_call(track, "telemetry.counter_enabled", short, || {
        telemetry::counter("probe", 1.0)
    });
    drop(session.drain());
    let span_enabled = time_per_call(track, "telemetry.span_enabled", short, || {
        drop(telemetry::span("probe"))
    });
    drop(session);

    Ok(Micro {
        observe,
        solver_input,
        prediction_error_pct,
        solve,
        split_speedup_vs_even,
        select_cold,
        select_warm,
        ask,
        tell,
        simulate,
        counter_disabled,
        counter_enabled,
        span_enabled,
    })
}
