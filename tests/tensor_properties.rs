//! Property-based tests for the tensor kernels — the numerical bedrock
//! everything else stands on.

use cannikin::dnn::tensor::{matmul, matmul_a_bt, matmul_at_b, Tensor};
use propcheck::{check, Gen};

const CASES: usize = 96;

fn tensor(g: &mut Gen, rows: usize, cols: usize) -> Tensor {
    let data = (0..rows * cols).map(|_| g.f32(-3.0..3.0)).collect();
    Tensor::from_vec(data, &[rows, cols]).expect("shape")
}

fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.data().iter().zip(b.data()).all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

#[test]
fn addition_is_commutative_and_associative() {
    check(CASES, |g| {
        let (a, b, c) = (tensor(g, 3, 5), tensor(g, 3, 5), tensor(g, 3, 5));
        assert!(close(&a.add(&b), &b.add(&a), 1e-6));
        assert!(close(&a.add(&b).add(&c), &a.add(&b.add(&c)), 1e-5));
    });
}

#[test]
fn matmul_distributes_over_addition() {
    check(CASES, |g| {
        let (a, b, c) = (tensor(g, 3, 4), tensor(g, 4, 2), tensor(g, 4, 2));
        let left = matmul(&a, &b.add(&c));
        let right = matmul(&a, &b).add(&matmul(&a, &c));
        assert!(close(&left, &right, 1e-4));
    });
}

#[test]
fn transposed_kernels_agree_with_materialized_transpose() {
    check(CASES, |g| {
        let (a, b) = (tensor(g, 4, 3), tensor(g, 4, 2));
        // Aᵀ B via the fused kernel == via explicit transpose.
        let fused = matmul_at_b(&a, &b);
        let explicit = matmul(&a.transpose2d(), &b);
        assert!(close(&fused, &explicit, 1e-5));
    });
}

#[test]
fn abt_kernel_agrees() {
    check(CASES, |g| {
        let (a, b) = (tensor(g, 3, 5), tensor(g, 2, 5));
        let fused = matmul_a_bt(&a, &b);
        let explicit = matmul(&a, &b.transpose2d());
        assert!(close(&fused, &explicit, 1e-5));
    });
}

#[test]
fn matmul_transpose_identity() {
    check(CASES, |g| {
        let (a, b) = (tensor(g, 3, 4), tensor(g, 4, 2));
        // (A B)ᵀ == Bᵀ Aᵀ
        let left = matmul(&a, &b).transpose2d();
        let right = matmul(&b.transpose2d(), &a.transpose2d());
        assert!(close(&left, &right, 1e-5));
    });
}

#[test]
fn scale_is_linear() {
    check(CASES, |g| {
        let (a, s, t) = (tensor(g, 4, 4), g.f32(-5.0..5.0), g.f32(-5.0..5.0));
        let left = a.scale(s).add(&a.scale(t));
        let right = a.scale(s + t);
        assert!(close(&left, &right, 1e-4));
    });
}

#[test]
fn sq_l2_matches_dot() {
    check(CASES, |g| {
        let a = tensor(g, 5, 3);
        assert!((a.sq_l2() - a.dot(&a)).abs() < 1e-6 * (1.0 + a.sq_l2()));
    });
}

#[test]
fn sum_rows_preserves_total() {
    check(CASES, |g| {
        let a = tensor(g, 6, 4);
        let by_rows = a.sum_rows().sum();
        assert!((by_rows - a.sum()).abs() < 1e-3);
    });
}

#[test]
fn slice_concat_roundtrip() {
    check(CASES, |g| {
        let (a, cut) = (tensor(g, 6, 3), g.usize(1..5));
        let top = a.slice_rows(0, cut);
        let bottom = a.slice_rows(cut, 6);
        let back = Tensor::concat_rows(&[&top, &bottom]);
        assert_eq!(back, a);
    });
}

/// Collective properties over random worlds and weights.
mod collectives_props {
    use cannikin::collectives::CommGroup;
    use propcheck::check;
    use std::thread;

    fn run_weighted(world: usize, len: usize, weights: Vec<f32>, values: Vec<f32>) -> Vec<Vec<f32>> {
        let comms = CommGroup::create(world);
        let handles: Vec<_> = comms
            .into_iter()
            .enumerate()
            .map(|(rank, comm)| {
                let w = weights[rank];
                let v = values[rank];
                thread::spawn(move || {
                    let mut data = vec![v; len];
                    comm.exchange(&mut data, w, None, None).expect("exchange");
                    data
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank")).collect()
    }

    #[test]
    fn weighted_all_reduce_matches_serial_sum() {
        check(24, |g| {
            let (world, len, seedish) = (g.usize(2..6), g.usize(1..80), g.usize(0..1000));
            let weights: Vec<f32> = (0..world).map(|i| ((seedish + i) % 7 + 1) as f32 / 8.0).collect();
            let values: Vec<f32> = (0..world).map(|i| ((seedish * 3 + i * 5) % 11) as f32 - 5.0).collect();
            let expected: f32 = weights.iter().zip(&values).map(|(w, v)| w * v).sum();
            let results = run_weighted(world, len, weights, values);
            for r in results {
                assert_eq!(r.len(), len);
                for v in r {
                    assert!((v - expected).abs() < 1e-4, "{v} vs {expected}");
                }
            }
        });
    }
}
