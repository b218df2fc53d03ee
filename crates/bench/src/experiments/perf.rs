//! Raw-speed trajectory (the perf PR): SIMD GEMM microkernel throughput,
//! compressed-gradient bytes on the wire, and compute/comm overlap — the
//! three measurements behind `BENCH_perf.json`.
//!
//! The committed baseline is gated by `gate perf` on *ratios*
//! (SIMD speedup over scalar, byte reduction over raw f32, overlapped vs
//! sequential epoch time), which transfer across machines far better than
//! absolute GFLOP/s, so a CI runner of a different generation still
//! catches real regressions.

use crate::gate::GateCheck;
use crate::{fmt, row};
use cannikin_collectives::{Codec, CommGroup, ErrorFeedback, TransportKind};
use cannikin_core::engine::ParallelTrainer;
use cannikin_telemetry::Json;
use minidnn::data::gaussian_blobs;
use minidnn::models::mlp_classifier;
use minidnn::tensor::simd::{avx2_available, with_kernel, Kernel};
use minidnn::tensor::{matmul, Tensor};
use std::thread;
use std::time::Instant;

/// Pinned seed of every measurement in the perf trajectory.
pub const PERF_SEED: u64 = 17;

/// GEMM throughput of one kernel at `m×k · k×n`, best of `reps` runs.
fn gemm_gflops(kernel: Kernel, m: usize, k: usize, n: usize, reps: usize) -> f64 {
    let a = Tensor::randn(&[m, k], PERF_SEED);
    let b = Tensor::randn(&[k, n], PERF_SEED + 1);
    // One warm-up run outside the clock (packs buffers, faults pages).
    let _ = with_kernel(kernel, || matmul(&a, &b));
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        let c = with_kernel(kernel, || matmul(&a, &b));
        let dt = t.elapsed().as_secs_f64();
        std::hint::black_box(c);
        best = best.min(dt);
    }
    2.0 * (m * n * k) as f64 / best / 1e9
}

/// One compressed weighted all-reduce over `ranks` ranks of `elems`
/// elements: (bytes sent by rank 0, relative L2 error of rank 0's result
/// against the exact f64 reduction).
fn codec_exchange(codec: Codec, ranks: usize, elems: usize) -> (u64, f64) {
    let comms = CommGroup::with_options(ranks, &TransportKind::InProcess, None, codec).expect("group forms");
    let weight = 1.0 / ranks as f32;
    let handles: Vec<_> = comms
        .into_iter()
        .map(|comm| {
            thread::spawn(move || {
                let rank = comm.rank();
                let mut ef = ErrorFeedback::new(elems);
                let mut data: Vec<f32> =
                    (0..elems).map(|i| ((i * 31 + rank * 17) as f32).sin()).collect();
                comm.weighted_all_reduce_ef(&mut data, weight, Some(&mut ef));
                (rank, comm.bytes_sent(), data)
            })
        })
        .collect();
    let mut results: Vec<(usize, u64, Vec<f32>)> =
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect();
    results.sort_by_key(|(rank, _, _)| *rank);
    // Exact reference in f64.
    let ideal: Vec<f64> = (0..elems)
        .map(|i| {
            (0..results.len())
                .map(|rank| f64::from(((i * 31 + rank * 17) as f32).sin()) * f64::from(weight))
                .sum()
        })
        .collect();
    let got = &results[0].2;
    let diff: f64 = got.iter().zip(&ideal).map(|(g, w)| (f64::from(*g) - w).powi(2)).sum();
    let norm: f64 = ideal.iter().map(|w| w * w).sum();
    (results[0].1, (diff / norm.max(1e-30)).sqrt())
}

/// One 4-rank training epoch, sequential or overlapped gradient exchange:
/// (epoch wall seconds, comm seconds hidden behind backward, samples/s).
fn epoch_once(overlap: bool) -> (f64, f64, f64) {
    // Big enough that backward compute and gradient traffic are ms-scale
    // (so the per-step comm-worker spawn is noise), heterogeneous enough
    // that stragglers leave real windows to hide communication in.
    let samples = 1024;
    let mut trainer = ParallelTrainer::builder()
        .dataset(gaussian_blobs(samples, 10, 64, 19))
        .model(|seed| mlp_classifier(64, 256, 10, seed))
        .slowdowns(vec![1.0, 1.5, 2.0, 2.5])
        .batch_range(256, 256)
        .adaptive(false)
        .seed(PERF_SEED)
        .transport(TransportKind::InProcess)
        .overlap(overlap)
        .build()
        .expect("valid config");
    // Best of two epochs: wall time on a shared host is the noisiest
    // number in the trajectory, and the minimum is the honest estimate
    // of what the exchange schedule itself costs.
    let mut wall = f64::INFINITY;
    let mut hidden = 0.0;
    for _ in 0..2 {
        let start = Instant::now();
        let report = trainer.run_epoch().expect("epoch");
        let dt = start.elapsed().as_secs_f64();
        if dt < wall {
            wall = dt;
            hidden = report.comm_overlap;
        }
    }
    (wall, hidden, samples as f64 / wall)
}

/// The full perf trajectory in structured form — what `gate perf`
/// serializes into `BENCH_perf.json`.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Whether the AVX2+FMA microkernel was available on this machine.
    pub avx2: bool,
    /// Scalar-kernel GEMM throughput at 256³, GFLOP/s.
    pub scalar_gflops: f64,
    /// Dispatched-kernel GEMM throughput at 256³, GFLOP/s (equals the
    /// scalar number when AVX2 is unavailable).
    pub simd_gflops: f64,
    /// `simd_gflops / scalar_gflops` (1.0 when AVX2 is unavailable).
    pub simd_speedup: f64,
    /// Bytes sent per rank for the raw-f32 exchange.
    pub bytes_none: u64,
    /// Bytes sent per rank through the bf16 codec.
    pub bytes_bf16: u64,
    /// Bytes sent per rank through the top-10% sparsifier.
    pub bytes_topk: u64,
    /// `1 − bytes_bf16/bytes_none` (fraction of wire traffic removed).
    pub bf16_reduction: f64,
    /// `1 − bytes_topk/bytes_none`.
    pub topk_reduction: f64,
    /// Relative L2 error of one bf16 exchange against the f64 reference.
    pub bf16_rel_error: f64,
    /// Sequential-exchange epoch wall time, s (4 heterogeneous ranks).
    pub epoch_seq_s: f64,
    /// Overlapped-exchange epoch wall time, s (same work).
    pub epoch_overlap_s: f64,
    /// `epoch_seq_s / epoch_overlap_s`.
    pub overlap_speedup: f64,
    /// Comm seconds hidden behind backward compute in the overlapped run.
    pub hidden_comm_s: f64,
    /// End-to-end goodput of the overlapped run, samples/s.
    pub samples_per_s: f64,
}

impl PerfReport {
    /// Serialize for `BENCH_perf.json` (stable key order).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema".into(), Json::Str("cannikin-perf-v1".into())),
            ("seed".into(), Json::num(PERF_SEED as f64)),
            ("avx2".into(), Json::Bool(self.avx2)),
            (
                "gemm".into(),
                Json::Obj(vec![
                    ("scalar_gflops".into(), Json::num(self.scalar_gflops)),
                    ("simd_gflops".into(), Json::num(self.simd_gflops)),
                    ("simd_speedup".into(), Json::num(self.simd_speedup)),
                ]),
            ),
            (
                "codec".into(),
                Json::Obj(vec![
                    ("bytes_none".into(), Json::num(self.bytes_none as f64)),
                    ("bytes_bf16".into(), Json::num(self.bytes_bf16 as f64)),
                    ("bytes_topk100".into(), Json::num(self.bytes_topk as f64)),
                    ("bf16_reduction".into(), Json::num(self.bf16_reduction)),
                    ("topk_reduction".into(), Json::num(self.topk_reduction)),
                    ("bf16_rel_error".into(), Json::num(self.bf16_rel_error)),
                ]),
            ),
            (
                "overlap".into(),
                Json::Obj(vec![
                    ("epoch_seq_s".into(), Json::num(self.epoch_seq_s)),
                    ("epoch_overlap_s".into(), Json::num(self.epoch_overlap_s)),
                    ("overlap_speedup".into(), Json::num(self.overlap_speedup)),
                    ("hidden_comm_s".into(), Json::num(self.hidden_comm_s)),
                ]),
            ),
            ("goodput".into(), Json::Obj(vec![("samples_per_s".into(), Json::num(self.samples_per_s))])),
        ])
    }

    /// Reconstruct a report from `BENCH_perf.json` (the `gate perf`
    /// baseline side). Missing or non-numeric fields become errors.
    pub fn from_json(json: &Json) -> Result<PerfReport, String> {
        let f = |path: &[&str]| -> Result<f64, String> {
            let mut cur = json;
            for key in path {
                cur = cur.get(key).ok_or_else(|| format!("missing `{}`", path.join(".")))?;
            }
            cur.as_f64().ok_or_else(|| format!("`{}` is not a number", path.join(".")))
        };
        Ok(PerfReport {
            avx2: json.get("avx2").and_then(Json::as_bool).unwrap_or(false),
            scalar_gflops: f(&["gemm", "scalar_gflops"])?,
            simd_gflops: f(&["gemm", "simd_gflops"])?,
            simd_speedup: f(&["gemm", "simd_speedup"])?,
            bytes_none: f(&["codec", "bytes_none"])? as u64,
            bytes_bf16: f(&["codec", "bytes_bf16"])? as u64,
            bytes_topk: f(&["codec", "bytes_topk100"])? as u64,
            bf16_reduction: f(&["codec", "bf16_reduction"])?,
            topk_reduction: f(&["codec", "topk_reduction"])?,
            bf16_rel_error: f(&["codec", "bf16_rel_error"])?,
            epoch_seq_s: f(&["overlap", "epoch_seq_s"])?,
            epoch_overlap_s: f(&["overlap", "epoch_overlap_s"])?,
            overlap_speedup: f(&["overlap", "overlap_speedup"])?,
            hidden_comm_s: f(&["overlap", "hidden_comm_s"])?,
            samples_per_s: f(&["goodput", "samples_per_s"])?,
        })
    }

    /// The gated ratios against the committed baseline `base`. The
    /// timing-based overlap ratio gets triple headroom on top of `tol`
    /// because it runs on shared CI cores where rank threads timeshare
    /// (observed spread ~1.0–1.7x on one box); byte ratios are
    /// deterministic and could gate exactly, but share the same tolerance
    /// for a uniform contract.
    pub fn checks(&self, base: &PerfReport, tol: f64) -> Vec<GateCheck> {
        let mut checks = Vec::new();
        if self.avx2 {
            checks.push(GateCheck::floor(
                "simd_speedup",
                self.simd_speedup,
                base.simd_speedup,
                (base.simd_speedup * (1.0 - tol)).max(1.5),
                tol,
            ));
        } else {
            checks.push(GateCheck::skipped("simd_speedup", "AVX2 unavailable on this machine"));
        }
        checks.push(GateCheck::floor(
            "bf16_reduction",
            self.bf16_reduction,
            base.bf16_reduction,
            (base.bf16_reduction * (1.0 - tol)).max(0.45),
            tol,
        ));
        checks.push(GateCheck::floor(
            "topk_reduction",
            self.topk_reduction,
            base.topk_reduction,
            base.topk_reduction * (1.0 - tol),
            tol,
        ));
        checks.push(GateCheck::floor(
            "overlap_speedup",
            self.overlap_speedup,
            base.overlap_speedup,
            base.overlap_speedup * (1.0 - 3.0 * tol),
            3.0 * tol,
        ));
        // Error feedback keeps one-shot quantization error bounded; a codec
        // bug that silently destroys precision shows up here, not in bytes.
        checks.push(GateCheck::ceiling(
            "bf16_rel_error",
            self.bf16_rel_error,
            base.bf16_rel_error,
            (base.bf16_rel_error * 2.0).max(1e-2),
            1.0,
        ));
        checks
    }
}

/// Run every perf measurement (pinned seed, best-of-N clocks).
pub fn perf_report() -> PerfReport {
    let (m, k, n, reps) = (256, 256, 256, 5);
    let scalar_gflops = gemm_gflops(Kernel::Scalar, m, k, n, reps);
    let avx2 = avx2_available();
    let simd_gflops =
        if avx2 { gemm_gflops(Kernel::Avx2, m, k, n, reps) } else { scalar_gflops };
    let simd_speedup = simd_gflops / scalar_gflops;

    let (ranks, elems) = (2, 50_000);
    let (bytes_none, _) = codec_exchange(Codec::None, ranks, elems);
    let (bytes_bf16, bf16_rel_error) = codec_exchange(Codec::Bf16, ranks, elems);
    let (bytes_topk, _) = codec_exchange(Codec::TopK { permille: 100 }, ranks, elems);
    let reduction = |bytes: u64| 1.0 - bytes as f64 / bytes_none as f64;

    let (epoch_seq_s, _, _) = epoch_once(false);
    let (epoch_overlap_s, hidden_comm_s, samples_per_s) = epoch_once(true);

    PerfReport {
        avx2,
        scalar_gflops,
        simd_gflops,
        simd_speedup,
        bytes_none,
        bytes_bf16,
        bytes_topk,
        bf16_reduction: reduction(bytes_bf16),
        topk_reduction: reduction(bytes_topk),
        bf16_rel_error,
        epoch_seq_s,
        epoch_overlap_s,
        overlap_speedup: epoch_seq_s / epoch_overlap_s,
        hidden_comm_s,
        samples_per_s,
    }
}

/// Rendered perf trajectory (the `figures perf` experiment).
pub fn perf() -> String {
    let r = perf_report();
    let widths = [26, 14, 14, 12];
    let mut out = String::from("Raw-speed trajectory — SIMD GEMM, gradient codec, compute/comm overlap\n\n");
    out += &row(&["measurement".into(), "baseline".into(), "optimized".into(), "ratio".into()], &widths);
    out.push('\n');
    out += &row(
        &[
            "GEMM 256^3 (GFLOP/s)".into(),
            fmt(r.scalar_gflops),
            fmt(r.simd_gflops),
            format!("{:.2}x", r.simd_speedup),
        ],
        &widths,
    );
    out.push('\n');
    out += &row(
        &[
            "grad bytes/rank (bf16)".into(),
            r.bytes_none.to_string(),
            r.bytes_bf16.to_string(),
            format!("-{:.1}%", 100.0 * r.bf16_reduction),
        ],
        &widths,
    );
    out.push('\n');
    out += &row(
        &[
            "grad bytes/rank (topk10%)".into(),
            r.bytes_none.to_string(),
            r.bytes_topk.to_string(),
            format!("-{:.1}%", 100.0 * r.topk_reduction),
        ],
        &widths,
    );
    out.push('\n');
    out += &row(
        &[
            "4-rank epoch (s)".into(),
            fmt(r.epoch_seq_s),
            fmt(r.epoch_overlap_s),
            format!("{:.2}x", r.overlap_speedup),
        ],
        &widths,
    );
    out.push('\n');
    out += &format!(
        "\navx2 kernel: {}; bf16 one-shot rel err {:.2e}; comm hidden behind backward {:.3} s; goodput {:.0} samples/s\n",
        if r.avx2 { "active" } else { "unavailable (scalar fallback)" },
        r.bf16_rel_error,
        r.hidden_comm_s,
        r.samples_per_s,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_round_trips() {
        let report = PerfReport {
            avx2: true,
            scalar_gflops: 28.0,
            simd_gflops: 70.0,
            simd_speedup: 2.5,
            bytes_none: 400_000,
            bytes_bf16: 200_032,
            bytes_topk: 40_048,
            bf16_reduction: 0.4999,
            topk_reduction: 0.8999,
            bf16_rel_error: 1.1e-3,
            epoch_seq_s: 1.4,
            epoch_overlap_s: 1.1,
            overlap_speedup: 1.27,
            hidden_comm_s: 0.3,
            samples_per_s: 700.0,
        };
        let text = report.to_json().to_string_compact();
        let parsed = Json::parse(&text).expect("valid json");
        let back = PerfReport::from_json(&parsed).expect("complete report");
        assert_eq!(back.bytes_none, report.bytes_none);
        assert!((back.simd_speedup - report.simd_speedup).abs() < 1e-12);
        assert!((back.overlap_speedup - report.overlap_speedup).abs() < 1e-12);
        assert!(back.avx2);
    }

    #[test]
    fn codec_byte_reductions_are_deterministic() {
        // Byte counts come from frame layouts, not clocks: run twice,
        // demand identical counts, and check the headline ratios.
        let (none_a, _) = codec_exchange(Codec::None, 2, 10_000);
        let (none_b, _) = codec_exchange(Codec::None, 2, 10_000);
        assert_eq!(none_a, none_b);
        let (bf16, rel) = codec_exchange(Codec::Bf16, 2, 10_000);
        assert!(
            (1.0 - bf16 as f64 / none_a as f64) > 0.45,
            "bf16 must cut ≥45% of wire bytes: {bf16} vs {none_a}"
        );
        assert!(rel < 5e-3, "bf16 one-shot error should be sub-0.5%: {rel}");
        // Survivors ride as (index, value) pairs — 8 bytes each — so the
        // top-10% sparsifier lands just under 80% reduction, not 90%.
        let (topk, _) = codec_exchange(Codec::TopK { permille: 100 }, 2, 10_000);
        assert!(
            (1.0 - topk as f64 / none_a as f64) > 0.75,
            "top-10% must cut ≥75% of wire bytes: {topk} vs {none_a}"
        );
    }
}
