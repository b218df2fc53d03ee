//! Model-free batch splits for the first epochs (§4.2, Eq. 8).
//!
//! Learning the linear compute-time model of a node requires observations
//! at two *distinct* local batch sizes, so the first two epochs run
//! without a model: epoch 0 splits evenly (as DDP would), and epoch 1
//! splits by inverse per-sample compute time — Eq. (8) — which both
//! balances load approximately and guarantees the two epochs use different
//! local batch sizes on a heterogeneous cluster.

/// Even split of `total` across `n` nodes, remainder to the first nodes —
/// the PyTorch-DDP assignment and Cannikin's epoch-0 bootstrap.
///
/// # Panics
///
/// Panics if `n == 0` or `total < n`.
///
/// # Examples
///
/// ```
/// assert_eq!(cannikin_core::optperf::even_split(10, 3), vec![4, 3, 3]);
/// ```
pub fn even_split(total: u64, n: usize) -> Vec<u64> {
    assert!(n > 0, "need at least one node");
    assert!(total >= n as u64, "total {total} smaller than node count {n}");
    let base = total / n as u64;
    let extra = (total % n as u64) as usize;
    (0..n).map(|i| base + u64::from(i < extra)).collect()
}

/// Eq. (8): split `total` proportionally to the inverse of each node's
/// observed per-sample compute time.
///
/// `t_samples[i]` is `t_compute^i / b_current^i` from the previous epoch.
/// Every node receives at least one sample; rounding follows the largest
/// remainder.
///
/// # Panics
///
/// Panics if `t_samples` is empty, contains a non-positive time, or
/// `total < t_samples.len()`.
pub fn bootstrap_split(t_samples: &[f64], total: u64) -> Vec<u64> {
    let n = t_samples.len();
    assert!(n > 0, "need at least one node");
    assert!(total >= n as u64, "total {total} smaller than node count {n}");
    assert!(t_samples.iter().all(|&t| t > 0.0), "per-sample times must be positive");
    let inv_sum: f64 = t_samples.iter().map(|t| 1.0 / t).sum();
    let ideal: Vec<f64> = t_samples.iter().map(|t| (1.0 / t) / inv_sum * total as f64).collect();
    round_to_total(&ideal, total)
}

/// Repair `next` so that *every* node's local batch differs from `prev`
/// (the precondition for fitting each node's linear compute model), while
/// preserving the sum and the one-sample floor.
///
/// Nodes whose size repeats are paired up and trade one sample (both then
/// differ by exactly one); two stuck at the floor each take one from a
/// donor that stays distinct after giving both, or else one borrows and
/// the other is retried. A leftover stuck node trades with a partner in a
/// direction that keeps the partner distinct too. Where a trade could go
/// either way, the sample goes to the node with the larger share of
/// `prev` — the one a sample costs least when `prev` is a planned split —
/// and on a tie to the partner (in a pair, the lower index). Best effort
/// in the degenerate all-ones case, where no redistribution exists.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn ensure_distinct_split(prev: &[u64], mut next: Vec<u64>) -> Vec<u64> {
    assert_eq!(prev.len(), next.len(), "split length mismatch");
    let n = prev.len();
    if n < 2 {
        return next;
    }
    let mut stuck: Vec<usize> = (0..n).filter(|&i| next[i] == prev[i]).collect();
    while stuck.len() >= 2 {
        let a = stuck.pop().expect("len >= 2");
        let b = stuck.pop().expect("len >= 2");
        if next[a] >= 2 || next[b] >= 2 {
            // Towards the larger previous share, `b` on a tie; a node at
            // the floor can only receive.
            let (from, to) = if next[b] < 2 || (next[a] >= 2 && prev[b] >= prev[a]) { (a, b) } else { (b, a) };
            next[from] -= 1;
            next[to] += 1;
        } else if let Some(j) = (0..n).find(|&j| next[j] >= 3 && next[j] - 2 != prev[j]) {
            // Both at the floor: one donor gives each a sample and, if it
            // was stuck too, is no longer.
            next[j] -= 2;
            next[a] += 1;
            next[b] += 1;
            stuck.retain(|&k| k != j);
        } else if let Some(j) = (0..n).find(|&j| next[j] >= 2 && next[j] - 1 != prev[j]) {
            // No donor can spare two: borrow one for `a`, retry `b`.
            next[j] -= 1;
            next[a] += 1;
            stuck.retain(|&k| k != j);
            stuck.push(b);
        }
        // else: degenerate (everything at the floor) — leave as is.
    }
    if let Some(&i) = stuck.first() {
        // One leftover stuck node gives to a partner or takes from a donor,
        // either staying distinct from its own previous size.
        let donor = (0..n).find(|&j| j != i && next[j] >= 2 && next[j] - 1 != prev[j]);
        let partners = (0..n).filter(|&j| j != i && next[i] >= 2 && next[j] + 1 != prev[j]);
        let to = partners.chain(donor.map(|_| i)).reduce(|best, j| if prev[j] > prev[best] { j } else { best });
        if let Some(to) = to {
            let from = if to == i { donor.expect("the stuck node receives only from a donor") } else { i };
            next[from] -= 1;
            next[to] += 1;
        }
    }
    next
}

/// Largest-remainder rounding with a floor of one sample per node.
fn round_to_total(ideal: &[f64], total: u64) -> Vec<u64> {
    let n = ideal.len();
    let mut out: Vec<u64> = ideal.iter().map(|&b| (b.floor() as u64).max(1)).collect();
    let mut assigned: u64 = out.iter().sum();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let fa = ideal[a] - ideal[a].floor();
        let fb = ideal[b] - ideal[b].floor();
        fb.total_cmp(&fa)
    });
    let mut cursor = 0;
    while assigned < total {
        out[order[cursor % n]] += 1;
        assigned += 1;
        cursor += 1;
    }
    while assigned > total {
        // The floor of 1 can overshoot for tiny totals; shave the largest.
        let i = (0..n).max_by(|&a, &b| out[a].cmp(&out[b])).expect("non-empty");
        if out[i] > 1 {
            out[i] -= 1;
            assigned -= 1;
        } else {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn even_split_distributes_remainder() {
        assert_eq!(even_split(16, 4), vec![4, 4, 4, 4]);
        assert_eq!(even_split(17, 4), vec![5, 4, 4, 4]);
        assert_eq!(even_split(19, 4), vec![5, 5, 5, 4]);
    }

    #[test]
    fn bootstrap_is_inverse_proportional() {
        // Node 0 twice as fast as node 1 → about twice the batch.
        let split = bootstrap_split(&[1.0, 2.0], 90);
        assert_eq!(split.iter().sum::<u64>(), 90);
        assert_eq!(split, vec![60, 30]);
    }

    #[test]
    fn bootstrap_sums_exactly_for_awkward_totals() {
        let split = bootstrap_split(&[1.0, 1.7, 2.9], 101);
        assert_eq!(split.iter().sum::<u64>(), 101);
        assert!(split[0] > split[1] && split[1] > split[2]);
    }

    #[test]
    fn every_node_gets_at_least_one() {
        // A pathologically slow node must still receive one sample.
        let split = bootstrap_split(&[1.0, 1.0, 1e9], 10);
        assert_eq!(split.iter().sum::<u64>(), 10);
        assert!(split[2] >= 1);
    }

    #[test]
    fn homogeneous_bootstrap_is_even() {
        assert_eq!(bootstrap_split(&[0.5, 0.5, 0.5], 9), vec![3, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_time() {
        let _ = bootstrap_split(&[1.0, 0.0], 10);
    }
}

#[cfg(test)]
mod distinct_tests {
    use super::*;

    #[test]
    fn repairs_partially_stuck_split() {
        let prev = vec![4u64, 4, 4, 4];
        let next = ensure_distinct_split(&prev, vec![5, 4, 4, 3]); // middle two stuck
        assert_eq!(next.iter().sum::<u64>(), 16);
        for (i, (&a, &b)) in prev.iter().zip(&next).enumerate() {
            assert_ne!(a, b, "node {i}: {next:?}");
        }
    }

    #[test]
    fn repairs_single_stuck_node() {
        let prev = vec![4u64, 4, 4];
        let next = ensure_distinct_split(&prev, vec![5, 4, 3]);
        assert_eq!(next.iter().sum::<u64>(), 12);
        for (&a, &b) in prev.iter().zip(&next) {
            assert_ne!(a, b, "{next:?}");
        }
    }

    #[test]
    fn identity_split_fully_repaired() {
        let prev = vec![4u64; 16];
        let next = ensure_distinct_split(&prev, prev.clone());
        assert_eq!(next.iter().sum::<u64>(), 64);
        for (&a, &b) in prev.iter().zip(&next) {
            assert_ne!(a, b, "{next:?}");
        }
    }

    #[test]
    fn stuck_nodes_at_floor() {
        let prev = vec![1u64, 1, 10];
        let next = ensure_distinct_split(&prev, vec![1, 1, 10]);
        assert_eq!(next.iter().sum::<u64>(), 12);
        assert!(next.iter().all(|&b| b >= 1));
        // All three can be fixed: the third node has slack.
        for (&a, &b) in prev.iter().zip(&next) {
            assert_ne!(a, b, "{next:?}");
        }
    }

    #[test]
    fn already_distinct_untouched() {
        let prev = vec![4u64, 4];
        let next = ensure_distinct_split(&prev, vec![6, 2]);
        assert_eq!(next, vec![6, 2]);
    }

    #[test]
    fn degenerate_all_ones_keeps_invariants() {
        let prev = vec![1u64, 1, 1];
        let next = ensure_distinct_split(&prev, vec![1, 1, 1]);
        assert_eq!(next.iter().sum::<u64>(), 3);
        assert!(next.iter().all(|&b| b >= 1));
    }
}
