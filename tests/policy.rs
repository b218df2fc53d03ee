//! Policy-protocol equivalence and determinism suite.
//!
//! The golden fixtures under `tests/golden/` are what the planner
//! produced under pinned seeds when they were last blessed. The
//! equivalence tests re-run the same pinned configurations and demand
//! *bitwise* agreement — every `f64` is compared by its bit pattern — so
//! a refactor of the planning path is provably a pure refactor.
//!
//! Regenerate the fixtures (only legitimate when intentionally changing
//! planner behavior or the seeded stream) with:
//!
//! ```text
//! CANNIKIN_BLESS=1 cargo test --test policy
//! ```
//!
//! The telemetry stream of the adaptive run is ~160 KB, so its fixture is
//! a digest: one line per epoch with the record count and the FNV-1a-64
//! of that epoch's canonical lines. On a mismatch the test names the
//! first differing epoch and leaves the full current stream under
//! `target/` to diff against a run of the parent commit.
//!
//! What is canonicalized away before comparison, and why:
//! - record `ts_ns` and the `overhead_s` counter are wall-clock
//!   measurements of the host machine, not planner outputs;
//! - `EpochRecord::{overhead_seconds, cumulative_time}` likewise embed
//!   wall-clock optimizer overhead;
//! - `policy_decision` telemetry lines are skipped: the event only
//!   *names* the policy that produced the adjacent (fully compared)
//!   `split_decision`.
//!
//! Everything else — splits, totals, accumulation, simulated times,
//! noise scales, efficiencies, fault/recovery counts, and the full
//! telemetry stream — must match byte for byte.

use cannikin::prelude::*;
use cannikin::telemetry::{Event, Record, Session};
use hetsim::catalog::Gpu;
use std::path::{Path, PathBuf};

fn cluster() -> ClusterSpec {
    ClusterSpec::new(
        "golden",
        vec![
            NodeSpec::new("a100", Gpu::A100),
            NodeSpec::new("v100", Gpu::V100),
            NodeSpec::new("rtx", Gpu::Rtx6000),
        ],
    )
}

fn builder(seed: u64, adaptive: bool) -> CannikinTrainerBuilder {
    CannikinTrainer::builder()
        .simulator(Simulator::new(cluster(), JobSpec::resnet18_cifar10(), seed))
        .noise(LinearNoiseGrowth { initial: 300.0, rate: 1.0 })
        .dataset_size(6_400)
        .batch_range(64, 512)
        .adaptive_batch(adaptive)
}

/// Hex bit pattern of an `f64` — the literal form of "bitwise identical".
fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// One canonical line per epoch, every float as its bit pattern. The two
/// wall-clock-derived fields (`overhead_seconds`, `cumulative_time`) are
/// excluded; everything else the planner influences is included.
fn record_line(r: &EpochRecord) -> String {
    format!(
        "epoch={} total={} local={:?} steps={} accum={} t={} mbt={} phi={} eff={} eff_epochs={} pattern={:?} used_model={} faults={} recoveries={}",
        r.epoch,
        r.total_batch,
        r.local_batches,
        r.steps,
        r.accumulation,
        hex(r.epoch_time),
        hex(r.mean_batch_time),
        hex(r.noise_scale),
        hex(r.efficiency),
        hex(r.effective_epochs),
        r.pattern,
        r.used_model,
        r.faults,
        r.recoveries,
    )
}

fn records_text(records: &[EpochRecord]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&record_line(r));
        out.push('\n');
    }
    out
}

/// Zero a `"<field>":<integer>` payload entry in a JSONL line (used for
/// the wall-clock `wall_ns` measurements some events carry).
fn zero_int_field(line: &str, field: &str) -> String {
    let needle = format!("\"{field}\":");
    let Some(start) = line.find(&needle) else { return line.to_string() };
    let digits_start = start + needle.len();
    let digits_end = line[digits_start..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(line.len(), |i| digits_start + i);
    format!("{}{}0{}", &line[..start], needle, &line[digits_end..])
}

/// Canonical JSONL, one `Vec` of lines per epoch (an epoch starts at its
/// `epoch` span): timestamps and `wall_ns` measurements zeroed, wall-clock
/// counters and the `policy_decision` annotations dropped. Record order is
/// emission order (the capture runs single-threaded).
fn canonical_jsonl(records: Vec<Record>) -> Vec<Vec<String>> {
    let mut epochs: Vec<Vec<String>> = Vec::new();
    for r in records {
        match &r.event {
            Event::Counter(c) if c.name == "overhead_s" => continue,
            e if e.kind() == "policy_decision" => continue,
            _ => {}
        }
        if epochs.is_empty() || matches!(&r.event, Event::SpanBegin(span) if span.name == "epoch") {
            epochs.push(Vec::new());
        }
        let canon = Record { ts_ns: 0, ..r };
        let line = zero_int_field(&canon.to_jsonl_line(), "wall_ns");
        epochs.last_mut().expect("pushed above").push(line);
    }
    epochs
}

/// One line per epoch: how many records it emitted and the FNV-1a-64 of
/// its newline-terminated canonical lines.
fn stream_digest(epochs: &[Vec<String>]) -> String {
    let mut out = String::new();
    for (epoch, lines) in epochs.iter().enumerate() {
        let mut hash = 0xCBF2_9CE4_8422_2325u64;
        for byte in lines.iter().flat_map(|line| line.bytes().chain([b'\n'])) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        out.push_str(&format!("epoch={epoch} records={} fnv1a64={hash:016x}\n", lines.len()));
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Where `text` first departs from the committed fixture, if it does; the
/// fixture is rewritten instead when `CANNIKIN_BLESS` is set.
fn golden_mismatch(name: &str, text: &str) -> Option<String> {
    let path = golden_path(name);
    if std::env::var_os("CANNIKIN_BLESS").is_some() {
        std::fs::write(&path, text).expect("write golden fixture");
        return None;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); run CANNIKIN_BLESS=1 cargo test --test policy", path.display()));
    if expected == text {
        return None;
    }
    let diff_at = expected
        .lines()
        .zip(text.lines())
        .position(|(a, b)| a != b)
        .map(|i| {
            format!(
                "first divergence at line {}:\n  golden:  {}\n  current: {}",
                i + 1,
                expected.lines().nth(i).unwrap_or(""),
                text.lines().nth(i).unwrap_or(""),
            )
        })
        .unwrap_or_else(|| {
            format!("line counts differ: golden {} vs current {}", expected.lines().count(), text.lines().count())
        });
    Some(format!("{name} diverged from the committed fixture.\n{diff_at}"))
}

/// Compare `text` against the committed fixture, or rewrite the fixture
/// when `CANNIKIN_BLESS` is set.
fn check_golden(name: &str, text: &str) {
    if let Some(mismatch) = golden_mismatch(name, text) {
        panic!("{mismatch}");
    }
}

/// Adaptive pipeline run: even init → Eq. (8) bootstrap → solver +
/// goodput engine, with the full telemetry stream captured. This is the
/// main equivalence witness.
#[test]
fn optperf_goodput_adaptive_run_matches_golden() {
    let session = Session::start();
    let mut t = builder(11, true).build().expect("valid config");
    let records = t.run_epochs(10).expect("run");
    let stream = session.drain();
    drop(session);
    check_golden("trainer_adaptive_records.txt", &records_text(&records));
    let epochs = canonical_jsonl(stream);
    if let Some(mismatch) = golden_mismatch("trainer_adaptive_stream.digest", &stream_digest(&epochs)) {
        let dump = Path::new(env!("CARGO_TARGET_TMPDIR")).join("trainer_adaptive_stream.jsonl");
        std::fs::write(&dump, epochs.concat().join("\n") + "\n").expect("write the current stream");
        panic!("{mismatch}\nthe current canonical stream is in {}", dump.display());
    }
}

/// Fixed-batch mode pins the total but still routes the split through the
/// solver — the non-adaptive arm of the planner.
#[test]
fn optperf_goodput_fixed_batch_run_matches_golden() {
    let mut t = builder(11, false).build().expect("valid config");
    let records = t.run_epochs(6).expect("run");
    check_golden("trainer_fixed_records.txt", &records_text(&records));
}

/// Warm start skips the bootstrap epochs: epoch 0 must already plan from
/// the checkpointed model (the `WarmStart` split source).
#[test]
fn optperf_goodput_warm_start_run_matches_golden() {
    let checkpoint = SolverInput::from_ground_truth(&cluster(), &JobSpec::resnet18_cifar10());
    let mut t = builder(19, true).warm_start(checkpoint).build().expect("valid config");
    let records = t.run_epochs(4).expect("run");
    check_golden("trainer_warm_records.txt", &records_text(&records));
}

/// The bandit policy is deterministic under its pinned seed: two
/// identical trainers produce bitwise-identical epoch records, so RL
/// cells in the scenario matrix stay byte-stable across CI runs.
#[test]
fn rl_policy_same_seed_runs_are_bitwise_identical() {
    let run = || {
        let mut t = builder(13, true).policy(PolicyKind::Rl).build().expect("valid config");
        records_text(&t.run_epochs(12).expect("run"))
    };
    let first = run();
    assert_eq!(first, run(), "same-seed RL runs must agree bit for bit");
    // And the bandit must actually explore: batch totals move off B0.
    assert!(
        first.lines().any(|l| !l.contains("total=64 ")),
        "the bandit never left the base batch:\n{first}"
    );
}

/// A mid-epoch crash forces the eviction + replan path, which also
/// rebuilds the goodput candidate cache — the planner state the refactor
/// moves into the policy.
#[test]
fn optperf_goodput_fault_run_matches_golden() {
    let sim = Simulator::new(cluster(), JobSpec::resnet18_cifar10(), 21)
        .with_fault_plan(FaultPlan::new(9).crash_at(250, 1));
    let mut t = CannikinTrainer::builder()
        .simulator(sim)
        .noise(LinearNoiseGrowth { initial: 300.0, rate: 1.0 })
        .dataset_size(6_400)
        .batch_range(64, 512)
        .adaptive_batch(true)
        .build()
        .expect("valid config");
    let records = t.run_epochs(5).expect("run");
    check_golden("trainer_fault_records.txt", &records_text(&records));
}
