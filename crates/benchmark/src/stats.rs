//! Order statistics used by every report: median, quartiles as the
//! driver computes them, and the tail percentile rule of the
//! choosing-metrics guide.

/// A sorted copy of `values` (total order, so a stray NaN sorts last
/// rather than panicking).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of `values`; `NaN` when empty, which the result check turns
/// into a failed run.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => 0.5 * (s[n / 2 - 1] + s[n / 2]),
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the rule the driver applies to ten runs. `None` below two
/// values, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let len = s.len();
    if len < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        // Taken after the clamp, so short inputs extrapolate as Python does.
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread
/// the driver holds against a metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// The highest percentile that still has at least `beyond` samples above
/// it, capped at `cap`: `(percentile, value)`. `None` when there are not
/// more than `beyond` samples.
pub fn tail(values: &[f64], beyond: usize, cap: f64) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n <= beyond {
        return None;
    }
    let highest = n - 1 - beyond;
    let capped = ((cap * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = highest.min(capped);
    Some(((idx + 1) as f64 / n as f64, s[idx]))
}

/// Tail value for a report line: the [`tail`] rule with ten samples
/// beyond, falling back to the median when the run is too short to have a
/// percentile above it.
pub fn tail_or_median(values: &[f64], cap: f64) -> f64 {
    match tail(values, 10, cap) {
        Some((q, v)) if q > 0.5 => v,
        _ => median(values),
    }
}

/// Keep, per operation, the fastest wall time seen over rounds that
/// replay the same operations. The sandbox's interference only ever adds
/// time, in bursts of 5–20 ms that hit more than half of all milliseconds
/// for minutes at a stretch; of every statistic tried, only the minimum
/// over identical repeats reads the same from run to run. `false` when a
/// round did not replay the same number of operations.
pub fn fold_min(fastest: &mut Vec<f64>, round: &[f64]) -> bool {
    if fastest.is_empty() {
        fastest.extend_from_slice(round);
        return true;
    }
    if fastest.len() != round.len() {
        return false;
    }
    for (best, &wall) in fastest.iter_mut().zip(round) {
        *best = best.min(wall);
    }
    true
}

/// Stopwatch over consecutive steps: each `lap` records the wall time
/// since the previous one, so repeats of a multi-step job can be folded
/// step by step with [`fold_min`].
pub struct Laps {
    last: std::time::Instant,
    pub walls: Vec<f64>,
}

impl Laps {
    pub fn start() -> Self {
        Laps {
            last: std::time::Instant::now(),
            walls: Vec::new(),
        }
    }

    pub fn lap(&mut self) {
        let now = std::time::Instant::now();
        self.walls.push((now - self.last).as_secs_f64());
        self.last = now;
    }
}

/// Σ of the fastest time of each step over `repeats` of the same job;
/// `None` when a repeat ran a different number of steps.
pub fn quiet_total(repeats: &[Vec<f64>]) -> Option<f64> {
    let mut fastest = Vec::new();
    repeats
        .iter()
        .all(|r| fold_min(&mut fastest, r))
        .then(|| fastest.iter().sum())
}

pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fold_min_keeps_the_fastest_of_each_operation() {
        let mut fastest = Vec::new();
        assert!(fold_min(&mut fastest, &[3.0, 5.0, 4.0]));
        assert!(fold_min(&mut fastest, &[4.0, 2.0, 4.5]));
        assert_eq!(fastest, [3.0, 2.0, 4.0]);
        assert!(
            !fold_min(&mut fastest, &[1.0, 1.0]),
            "a round of another length did not replay the same work"
        );
        assert_eq!(fastest, [3.0, 2.0, 4.0]);
        assert_eq!(minimum(&fastest), 2.0);
        assert!(minimum(&[]).is_nan());
        assert_eq!(quiet_total(&[vec![3.0, 5.0], vec![4.0, 2.0]]), Some(5.0));
        assert_eq!(quiet_total(&[vec![3.0, 5.0], vec![4.0]]), None);
        let mut laps = Laps::start();
        laps.lap();
        laps.lap();
        assert_eq!(laps.walls.len(), 2);
        assert!(laps.walls.iter().all(|&w| w >= 0.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples has exactly ten beyond it.
        assert_eq!(tail(&v, 10, 0.99), Some((0.90, 90.0)));
        // The cap wins when more samples would allow a higher percentile.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v, 10, 0.99), Some((0.99, 990.0)));
        // 25 samples: index 14 is the highest with ten beyond -> p60.
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&v, 10, 0.90), Some((0.60, 15.0)));
        assert_eq!(tail(&v[..10], 10, 0.90), None);
        assert_eq!(tail_or_median(&v[..9], 0.90), 5.0);
        // 17 samples: ten beyond leaves p41, below the median — not a tail.
        assert_eq!(tail_or_median(&v[..17], 0.90), 9.0);
    }
}
