//! `fleet-stream`: the multi-tenant controller draining seeded job
//! traces, one `step()` at a time.
//!
//! It drives the same `core.optperf` / `core.goodput` / `sim` layers as
//! `sim-plan` the opposite way: many cold solves over ever-changing node
//! subsets (`demand::profiled_nodes`, `measured_scaling_curve`) instead of
//! repeated warm solves on one cluster, so a cache that helps one and
//! costs the other shows.

use crate::inputs::fleet_pool;
use crate::metrics::Outcome;
use crate::spans::{in_span, Recorder, Track};
use crate::stats::{fold_min, mean, median, quiet_total, tail_or_median};
use crate::sys::time_per_call;
use crate::Budget;

use cannikin::core::goodput::GoodputEngine;
use cannikin::fleet::{demand, synthetic_trace};
use cannikin::prelude::*;

use std::time::Instant;

const JOBS_PER_TRACE: usize = 6;
const MEAN_GAP_S: f64 = 30.0;
/// `run_to_completion`'s step cap, applied to the `step()` loop.
const STEP_CAP: usize = 50_000;
/// Traces (seeds `seed..seed+N`) one round drains. A fixed count, so the
/// fleet-time outcome does not depend on how fast the host is; large,
/// because makespan and goodput vary ~30% from trace to trace.
const TRACES: u64 = 200;
/// Rounds an untraced run replays at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Traces replayed under FIFO in the traced run for `goodput_vs_fifo`.
const FIFO_TRACES: u64 = 40;
/// Set-ups per untraced run; `setup_s` is the fastest.
const SETUP_REPEATS: usize = 3;
/// Traces one set-up drains: one trace's cost depends on its job mix, and
/// `setup_s` should not read the seed.
const SETUP_TRACES: u64 = 20;

/// What one drained trace reports.
#[derive(Debug)]
struct Drained {
    report: FleetReport,
    /// Trace generation + controller build.
    build_wall: f64,
    tick_walls: Vec<f64>,
}

/// Build a controller over the pool and the seed's trace and step it
/// until the stream drains. Each `step()` is one closed-loop operation.
fn drain(
    seed: u64,
    policy: AllocPolicy,
    out: &mut Outcome,
    mut track: Option<&mut Track<'_>>,
) -> Result<Drained, String> {
    let started = Instant::now();
    let trace = synthetic_trace(seed, JOBS_PER_TRACE, MEAN_GAP_S);
    let mut fleet = FleetController::new(fleet_pool(), trace, policy).map_err(|e| format!("trace {seed}: {e}"))?;
    let build_wall = started.elapsed().as_secs_f64();
    let mut tick_walls = Vec::new();
    loop {
        out.attempted += 1;
        let started = Instant::now();
        let stepped = in_span(track.as_deref_mut(), "fleet.step", |_| fleet.step());
        tick_walls.push(started.elapsed().as_secs_f64());
        match stepped {
            Ok(true) if tick_walls.len() <= STEP_CAP => {}
            Ok(true) => {
                out.fail(format!("trace {seed}: not drained within {STEP_CAP} steps"));
                break;
            }
            Ok(false) => break,
            Err(e) => {
                out.fail(format!("trace {seed}: step: {e}"));
                break;
            }
        }
    }
    let report = fleet.report();
    let unfinished = report
        .jobs
        .iter()
        .filter(|j| j.finished_at <= 0.0 || j.epochs_run == 0)
        .count();
    if unfinished > 0 || report.jobs.len() != JOBS_PER_TRACE {
        out.fail(format!(
            "trace {seed}: {unfinished} of {} jobs did not finish",
            report.jobs.len()
        ));
    }
    Ok(Drained {
        report,
        build_wall,
        tick_walls,
    })
}

fn traces(budget: &Budget) -> u64 {
    if budget.smoke {
        4
    } else {
        TRACES
    }
}

/// One round: every trace drained once.
#[derive(Debug, Default)]
struct Round {
    tick_walls: Vec<f64>,
    makespans: Vec<f64>,
    goodputs: Vec<f64>,
    decisions: u64,
}

fn round(seed: u64, budget: &Budget, out: &mut Outcome, mut track: Option<&mut Track<'_>>) -> Result<Round, String> {
    let mut all = Round::default();
    for k in 0..traces(budget) {
        let drained = in_span(track.as_deref_mut(), "fleet.trace", |t| {
            drain(seed + k, AllocPolicy::Cannikin, out, t)
        })?;
        all.tick_walls.extend_from_slice(&drained.tick_walls);
        all.makespans.push(drained.report.makespan);
        all.goodputs.push(drained.report.aggregate_goodput);
        all.decisions += drained.report.decisions;
    }
    Ok(all)
}

/// The untraced run: end-to-end metrics only.
pub fn run(seed: u64, budget: &Budget) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up: generate traces, build their controllers and drain them
    // once, which profiles every job's demand with cold solver state.
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let mut steps = Vec::new();
        for k in 0..SETUP_TRACES.min(traces(budget)) {
            let drained = drain(seed + k, AllocPolicy::Cannikin, &mut out, None)?;
            steps.push(drained.build_wall);
            steps.extend_from_slice(&drained.tick_walls);
        }
        setups.push(steps);
    }

    // Rounds replay the same traces. The controller is deterministic, so
    // every round steps through the same ticks and reports the same
    // makespans bit for bit; wall time per tick is the fastest seen.
    let started = Instant::now();
    let first = round(seed, budget, &mut out, None)?;
    let mut fastest = Vec::new();
    fold_min(&mut fastest, &first.tick_walls);
    let mut rounds = 1;
    while rounds < MIN_ROUNDS || started.elapsed() < budget.measure {
        let again = round(seed, budget, &mut out, None)?;
        let same = again
            .makespans
            .iter()
            .map(|m| m.to_bits())
            .eq(first.makespans.iter().map(|m| m.to_bits()));
        if !same || !fold_min(&mut fastest, &again.tick_walls) {
            out.violate(format!(
                "round {rounds} replayed seeds {seed}.. differently: {} ticks, first round {}",
                again.tick_walls.len(),
                fastest.len()
            ));
            break;
        }
        rounds += 1;
    }
    let ticks = fastest.len() as f64;
    let quiet_round: f64 = fastest.iter().sum();

    out.set(
        "setup_s",
        quiet_total(&setups).ok_or("set-up repeats ran different steps")?,
    );
    out.set("work_per_s", ticks / quiet_round);
    // Own clock: the fleet second. Statistically useful samples per fleet
    // second across the stream — what the allocator's decisions are worth.
    out.set("result_goodput", mean(&first.goodputs));
    out.note(
        format!("fleet_ticks_per_s (fastest of {rounds} rounds per tick)"),
        ticks / quiet_round,
        "ticks/s",
    );
    out.note(
        "fleet_ticks_per_s over the whole timed region",
        ticks * rounds as f64 / started.elapsed().as_secs_f64(),
        "ticks/s",
    );
    out.note(
        format!("fleet_makespan_s (mean of {})", first.makespans.len()),
        mean(&first.makespans),
        "fleet s",
    );
    out.note("fleet_goodput", mean(&first.goodputs), "samples/s");
    out.note("fleet.decisions", first.decisions as f64, "count");
    Ok(out)
}

/// The traced run: per-layer metrics.
pub fn run_traced(seed: u64, budget: &Budget, recorder: &Recorder) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut track = recorder.track(0, None);
    track.span("setup", |t| drain(seed, AllocPolicy::Cannikin, &mut out, Some(t)))?;

    let Round {
        tick_walls,
        makespans,
        goodputs,
        decisions,
    } = round(seed, budget, &mut out, Some(&mut track))?;

    // The first traces again under head-of-line FIFO: the adaptive
    // allocator has to beat it on aggregate goodput.
    let fifo_traces = FIFO_TRACES.min(traces(budget)) as usize;
    let mut fifo = Vec::new();
    for k in 0..fifo_traces as u64 {
        fifo.push(
            track
                .span("fleet.trace_fifo", |_| {
                    drain(seed + k, AllocPolicy::Fifo, &mut out, None)
                })?
                .report
                .aggregate_goodput,
        );
    }
    let goodput_vs_fifo = mean(&goodputs[..fifo_traces]) / mean(&fifo);
    if goodput_vs_fifo < 1.0 {
        out.violate(format!(
            "fleet goodput is {goodput_vs_fifo:.3}x FIFO's over {fifo_traces} traces, expected >= 1"
        ));
    }

    let micro = micro_probes(&mut track, budget, seed);

    out.set("fleet.tick_us_p50", median(&tick_walls) * 1e6);
    out.set("fleet.tick_us_p99", tail_or_median(&tick_walls, 0.99) * 1e6);
    out.set("fleet.decisions", decisions as f64);
    out.set("fleet.demand_profile_ms", micro.demand_profile * 1e3);
    out.set("fleet.scaling_curve_ms", micro.scaling_curve * 1e3);
    out.set("fleet.goodput_vs_fifo", goodput_vs_fifo);
    out.set("fleet.makespan_s", mean(&makespans));
    out.set("fleet.goodput", mean(&goodputs));
    out.set("core.optperf.solve_us", micro.solve * 1e6);
    out.set("core.goodput.select_cold_us", micro.select_cold * 1e6);
    out.set("sim.simulate_us_per_step", micro.simulate * 1e6);
    out.note(
        format!("ticks traced (p99 has {} beyond)", tick_walls.len() / 100),
        tick_walls.len() as f64,
        "count",
    );
    Ok(out)
}

#[derive(Debug)]
struct Micro {
    demand_profile: f64,
    scaling_curve: f64,
    solve: f64,
    select_cold: f64,
    simulate: f64,
}

/// The calls a tick spends its time in, on the first job of the seed's
/// trace: cold solver state over subsets of the 8-node pool.
fn micro_probes(track: &mut Track<'_>, budget: &Budget, seed: u64) -> Micro {
    let slice = budget.measure.mul_f64(0.03);
    let pool = fleet_pool();
    let spec = synthetic_trace(seed, JOBS_PER_TRACE, MEAN_GAP_S).swap_remove(0);
    let (job, config) = (&spec.job, &spec.config);
    let phi = spec.noise.noise_scale(1.0);

    let demand_profile = time_per_call(track, "fleet.demand.profiled_nodes", slice, || {
        demand::profiled_nodes(job, config, &pool, phi, spec.min_nodes, pool.len())
    });
    let scaling_curve = time_per_call(track, "fleet.demand.measured_scaling_curve", slice, || {
        demand::measured_scaling_curve(
            job,
            config,
            spec.noise,
            spec.seed,
            spec.target_effective_epochs,
            &pool,
            pool.len(),
        )
    });

    // One cold solve and one cold goodput sweep on the four fastest nodes
    // — what `profiled_nodes` does for every candidate node count.
    let cluster = ClusterSpec::new("fleet-probe", pool[..4].to_vec());
    let solve = time_per_call(track, "core.optperf.solve", slice, || {
        OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, job))
            .solve(config.base_batch)
            .map(|p| p.solves)
    });
    let select_cold = time_per_call(track, "core.goodput.select_cold", slice, || {
        let mut solver = OptPerfSolver::new(SolverInput::from_ground_truth(&cluster, job));
        GoodputEngine::new(config.base_batch, config.base_batch, config.max_batch)
            .select(&mut solver, phi)
            .map(|s| s.total)
    });
    let mut sim = Simulator::new(ClusterSpec::new("fleet-probe", pool.clone()), job.clone(), seed);
    let local = cannikin::core::optperf::even_split(config.base_batch, pool.len());
    let simulate = time_per_call(track, "sim.simulate_epoch", slice, || sim.simulate_epoch(&local, 64)) / 64.0;

    Micro {
        demand_profile,
        scaling_curve,
        solve,
        select_cold,
        simulate,
    }
}
