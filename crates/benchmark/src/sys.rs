//! What the benchmark reads from the operating system, and the timing
//! loop the micro-probes share.

use crate::spans::Track;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checked-out revision, read from `.git` without running git; the
/// driver's checkout is not a repository, so this is often `unknown`.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| "unknown".into(), |r| r.trim().to_string()),
        None => head,
    }
}

/// Seconds per call of `f`, timed under one span named `name`: batches
/// of calls sized to about half a millisecond, repeated until `budget`
/// has passed, and the fastest batch reported (see `stats::fold_min` for
/// why the fastest). Results go through `black_box` so the work is not
/// elided.
pub fn time_per_call<R>(track: &mut Track<'_>, name: &'static str, budget: Duration, mut f: impl FnMut() -> R) -> f64 {
    const BATCH: Duration = Duration::from_micros(500);
    black_box(f());
    track.span(name, |_| {
        let started = Instant::now();
        let mut batch = 1u64;
        let mut fastest = f64::INFINITY;
        loop {
            let batch_started = Instant::now();
            for _ in 0..batch {
                black_box(f());
            }
            let elapsed = batch_started.elapsed();
            if elapsed < BATCH / 2 {
                // Too short for the clock to resolve: grow, do not record.
                batch *= 2;
            } else {
                fastest = fastest.min(elapsed.as_secs_f64() / batch as f64);
            }
            if started.elapsed() >= budget && fastest.is_finite() {
                return fastest;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Recorder;

    #[test]
    fn proc_readers_work_on_linux() {
        assert!(peak_rss_mb().expect("procfs") > 1.0);
        assert!(nproc() >= 1);
    }

    #[test]
    fn time_per_call_grows_with_the_work() {
        let recorder = Recorder::new();
        let mut track = recorder.track(0, None);
        let spin = |n: u64| move || (0..n).fold(0u64, |a, i| black_box(a ^ i.wrapping_mul(0x9E37)));
        let small = time_per_call(&mut track, "small", Duration::from_millis(20), spin(1_000));
        let large = time_per_call(&mut track, "large", Duration::from_millis(20), spin(100_000));
        assert!(large > 10.0 * small, "{small} vs {large}");
        drop(track);
        assert_eq!(recorder.spans().len(), 2);
    }
}
