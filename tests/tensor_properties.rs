//! Property-based tests for the tensor kernels — the numerical bedrock
//! everything else stands on.

use cannikin::dnn::tensor::{matmul, matmul_a_bt, matmul_at_b, Tensor};
use proptest::prelude::*;

fn tensor(rows: usize, cols: usize) -> impl Strategy<Value = Tensor> {
    proptest::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Tensor::from_vec(data, &[rows, cols]).expect("shape"))
}

fn close(a: &Tensor, b: &Tensor, tol: f32) -> bool {
    a.shape() == b.shape()
        && a.data().iter().zip(b.data()).all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn addition_is_commutative_and_associative(a in tensor(3, 5), b in tensor(3, 5), c in tensor(3, 5)) {
        prop_assert!(close(&a.add(&b), &b.add(&a), 1e-6));
        prop_assert!(close(&a.add(&b).add(&c), &a.add(&b.add(&c)), 1e-5));
    }

    #[test]
    fn matmul_distributes_over_addition(a in tensor(3, 4), b in tensor(4, 2), c in tensor(4, 2)) {
        let left = matmul(&a, &b.add(&c));
        let right = matmul(&a, &b).add(&matmul(&a, &c));
        prop_assert!(close(&left, &right, 1e-4));
    }

    #[test]
    fn transposed_kernels_agree_with_materialized_transpose(a in tensor(4, 3), b in tensor(4, 2)) {
        // Aᵀ B via the fused kernel == via explicit transpose.
        let fused = matmul_at_b(&a, &b);
        let explicit = matmul(&a.transpose2d(), &b);
        prop_assert!(close(&fused, &explicit, 1e-5));
    }

    #[test]
    fn abt_kernel_agrees(a in tensor(3, 5), b in tensor(2, 5)) {
        let fused = matmul_a_bt(&a, &b);
        let explicit = matmul(&a, &b.transpose2d());
        prop_assert!(close(&fused, &explicit, 1e-5));
    }

    #[test]
    fn matmul_transpose_identity(a in tensor(3, 4), b in tensor(4, 2)) {
        // (A B)ᵀ == Bᵀ Aᵀ
        let left = matmul(&a, &b).transpose2d();
        let right = matmul(&b.transpose2d(), &a.transpose2d());
        prop_assert!(close(&left, &right, 1e-5));
    }

    #[test]
    fn scale_is_linear(a in tensor(4, 4), s in -5.0f32..5.0, t in -5.0f32..5.0) {
        let left = a.scale(s).add(&a.scale(t));
        let right = a.scale(s + t);
        prop_assert!(close(&left, &right, 1e-4));
    }

    #[test]
    fn sq_l2_matches_dot(a in tensor(5, 3)) {
        prop_assert!((a.sq_l2() - a.dot(&a)).abs() < 1e-6 * (1.0 + a.sq_l2()));
    }

    #[test]
    fn sum_rows_preserves_total(a in tensor(6, 4)) {
        let by_rows = a.sum_rows().sum();
        prop_assert!((by_rows - a.sum()).abs() < 1e-3);
    }

    #[test]
    fn slice_concat_roundtrip(a in tensor(6, 3), cut in 1usize..5) {
        let top = a.slice_rows(0, cut);
        let bottom = a.slice_rows(cut, 6);
        let back = Tensor::concat_rows(&[&top, &bottom]);
        prop_assert_eq!(back, a);
    }
}

/// Collective properties over random worlds and weights.
mod collectives_props {
    use cannikin::collectives::CommGroup;
    use proptest::prelude::*;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn weighted_all_reduce_matches_serial_sum(
            world in 2usize..6,
            len in 1usize..80,
            seedish in 0u32..1000,
        ) {
            let weights: Vec<f32> = (0..world).map(|i| ((seedish as usize + i) % 7 + 1) as f32 / 8.0).collect();
            let values: Vec<f32> = (0..world).map(|i| ((seedish as usize * 3 + i * 5) % 11) as f32 - 5.0).collect();
            let expected: f32 = weights.iter().zip(&values).map(|(w, v)| w * v).sum();
            let results = run_weighted(world, len, weights, values);
            for r in results {
                prop_assert_eq!(r.len(), len);
                for v in r {
                    prop_assert!((v - expected).abs() < 1e-4, "{v} vs {expected}");
                }
            }
        }
    }
}
