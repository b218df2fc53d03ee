//! Property tests for the gradient codec layer (satellite of the perf PR):
//!
//! 1. With error feedback, training through a lossy codec converges to the
//!    uncompressed accumulated update within a codec-specific tolerance
//!    over N steps — the EF-SGD invariant that makes compression safe.
//! 2. Under `Codec::None` the residual is ignored, bit for bit, over *both*
//!    transports, so turning the codec machinery off really is free.

use cannikin_collectives::{Codec, CommGroup, ErrorFeedback, TransportKind};
use propcheck::check;
use std::thread;

const WORLD: usize = 2;
const STEPS: usize = 20;
const CASES: usize = 12;

/// Deterministic pseudo-gradient for (rank, step, index): bounded, sign-
/// alternating, with enough dynamic range to exercise quantization and
/// top-k selection.
fn grad(seed: u64, rank: usize, step: usize, i: usize, len: usize) -> f32 {
    let h = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((rank as u64) << 40)
        .wrapping_add((step as u64) << 20)
        .wrapping_add(i as u64)
        .wrapping_mul(0x2545_F491_4F6C_DD1D);
    let unit = (h >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
    let sign = if h & 1 == 0 { 1.0 } else { -1.0 };
    // A spread of magnitudes: a few large coordinates, a long small tail.
    let scale = if i.is_multiple_of(7) { 4.0 } else { 0.25 };
    sign * (0.05 + unit) * scale * (1.0 + i as f32 / len as f32)
}

/// Accumulated update Σ_t Σ_r w_r·g_r(t) a rank applies over the run,
/// exchanged through `codec` with per-rank error feedback. Returns rank
/// 0's accumulated buffer.
fn accumulate_with_codec(seed: u64, len: usize, codec: Codec) -> Vec<f32> {
    let weights = [0.6f32, 0.4];
    let comms = CommGroup::with_options(WORLD, &TransportKind::InProcess, None, codec).expect("group");
    let handles: Vec<_> = comms
        .into_iter()
        .enumerate()
        .map(|(rank, comm)| {
            thread::spawn(move || {
                let mut ef = ErrorFeedback::new(len);
                let mut acc = vec![0.0f32; len];
                for step in 0..STEPS {
                    let mut g: Vec<f32> =
                        (0..len).map(|i| grad(seed, rank, step, i, len)).collect();
                    comm.exchange(&mut g, weights[rank], Some((&mut ef, 0)), None).expect("exchange");
                    for (a, v) in acc.iter_mut().zip(&g) {
                        *a += v;
                    }
                }
                (rank, acc)
            })
        })
        .collect();
    let mut results: Vec<(usize, Vec<f32>)> =
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect();
    results.sort_by_key(|(rank, _)| *rank);
    // Replica consistency: every rank must hold the same accumulated
    // update bit-for-bit, lossy codec or not.
    let bits0: Vec<u32> = results[0].1.iter().map(|v| v.to_bits()).collect();
    for (rank, acc) in &results[1..] {
        let bits: Vec<u32> = acc.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits0, bits, "rank {rank} diverged from rank 0 under {codec}");
    }
    results.swap_remove(0).1
}

/// The uncompressed reference: exact f64 accumulation of Σ_t Σ_r w_r·g_r(t).
fn accumulate_ideal(seed: u64, len: usize) -> Vec<f64> {
    let weights = [0.6f64, 0.4];
    let mut acc = vec![0.0f64; len];
    for step in 0..STEPS {
        for (rank, w) in weights.iter().enumerate() {
            for (i, a) in acc.iter_mut().enumerate() {
                *a += w * f64::from(grad(seed, rank, step, i, len));
            }
        }
    }
    acc
}

fn l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

fn relative_error(got: &[f32], want: &[f64]) -> f64 {
    let diff: Vec<f64> = got.iter().zip(want).map(|(g, w)| f64::from(*g) - w).collect();
    l2(&diff) / l2(want).max(1e-12)
}

#[test]
fn error_feedback_converges_to_uncompressed() {
    check(CASES, |g| {
        let (seed, len) = (g.u64(0..512), g.usize(24..72));
        let ideal = accumulate_ideal(seed, len);
        // (codec, tolerated relative L2 error of the accumulated update).
        // bf16 rounds to 8 effective mantissa bits, so even the
        // uncompensated in-flight rounding stays far below 1%. Top-k drops
        // whole coordinates; error feedback re-injects them on later
        // steps, keeping the accumulated update close — but chunk-level
        // re-sparsification inside the ring is not fed back, so its
        // tolerance is the loosest. (The `check` calls' lines seed their
        // cases; keep them where they are.)
        for (codec, tol) in [
            (Codec::Bf16, 0.01),
            (Codec::TopK { permille: 500 }, 0.25),
        ] {
            let acc = accumulate_with_codec(seed, len, codec);
            let rel = relative_error(&acc, &ideal);
            assert!(
                rel <= tol,
                "{codec}: accumulated update off by {rel:.4} (tolerance {tol}) at seed {seed}, len {len}"
            );
        }
        // The lossless codec must match the f64 reference to f32 rounding.
        let acc = accumulate_with_codec(seed, len, Codec::None);
        let rel = relative_error(&acc, &ideal);
        assert!(rel <= 1e-5, "codec=none drifted by {rel}");
    });
}

#[test]
fn lossy_codecs_beat_a_no_feedback_floor() {
    check(CASES, |g| {
        let (seed, len) = (g.u64(0..256), g.usize(24..48));
        // Error feedback must actually help: top-k *without* feedback on
        // the same workload leaves a markedly larger gap. (bf16 is
        // near-lossless here, so the contrast test uses top-k only.)
        let ideal = accumulate_ideal(seed, len);
        let with_ef = {
            let acc = accumulate_with_codec(seed, len, Codec::TopK { permille: 250 });
            relative_error(&acc, &ideal)
        };
        let without_ef = {
            let codec = Codec::TopK { permille: 250 };
            let comms = CommGroup::with_options(WORLD, &TransportKind::InProcess, None, codec).expect("group");
            let weights = [0.6f32, 0.4];
            let handles: Vec<_> = comms
                .into_iter()
                .enumerate()
                .map(|(rank, comm)| {
                    thread::spawn(move || {
                        let mut acc = vec![0.0f32; len];
                        for step in 0..STEPS {
                            let mut g: Vec<f32> =
                                (0..len).map(|i| grad(seed, rank, step, i, len)).collect();
                            comm.exchange(&mut g, weights[rank], None, None).expect("exchange");
                            for (a, v) in acc.iter_mut().zip(&g) {
                                *a += v;
                            }
                        }
                        (rank, acc)
                    })
                })
                .collect();
            let mut results: Vec<(usize, Vec<f32>)> =
                handles.into_iter().map(|h| h.join().expect("rank panicked")).collect();
            results.sort_by_key(|(rank, _)| *rank);
            relative_error(&results.swap_remove(0).1, &ideal)
        };
        assert!(
            with_ef < without_ef,
            "feedback must shrink the gap: with {with_ef:.4} vs without {without_ef:.4} (seed {seed}, len {len})"
        );
    });
}

#[test]
fn codec_none_is_bitwise_identical_across_transports() {
    check(CASES, |g| {
        let (seed, len) = (g.u64(0..256), g.usize(8..48));
        // Under `codec=none` an exchange handed a residual must equal one
        // handed none, bit for bit, over both backends.
        let run = |kind: TransportKind, use_ef: bool| -> Vec<Vec<u32>> {
            let comms = CommGroup::with_options(WORLD, &kind, None, Codec::None).expect("group");
            let weights = [0.6f32, 0.4];
            let handles: Vec<_> = comms
                .into_iter()
                .enumerate()
                .map(|(rank, comm)| {
                    thread::spawn(move || {
                        let mut ef = ErrorFeedback::new(len);
                        let mut g: Vec<f32> = (0..len).map(|i| grad(seed, rank, 0, i, len)).collect();
                        if use_ef {
                            comm.exchange(&mut g, weights[rank], Some((&mut ef, 0)), None).expect("exchange");
                        } else {
                            comm.exchange(&mut g, weights[rank], None, None).expect("exchange");
                        }
                        (rank, g.iter().map(|v| v.to_bits()).collect::<Vec<u32>>())
                    })
                })
                .collect();
            let mut results: Vec<(usize, Vec<u32>)> =
                handles.into_iter().map(|h| h.join().expect("rank panicked")).collect();
            results.sort_by_key(|(rank, _)| *rank);
            results.into_iter().map(|(_, bits)| bits).collect()
        };
        let plain = run(TransportKind::InProcess, false);
        let in_process = run(TransportKind::InProcess, true);
        let over_tcp = run(TransportKind::tcp(), true);
        assert_eq!(&plain, &in_process, "a residual under codec=none must change nothing");
        assert_eq!(&plain, &over_tcp, "backends must agree bitwise");
    });
}
