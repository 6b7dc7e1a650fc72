//! Order statistics and host-noise probes.

use std::fs;

/// Nearest-rank percentile: the smallest sample with at least a `p` share
/// of the samples at or below it. Of 40 samples, `p = 0.25` is the 10th
/// lowest.
///
/// # Panics
///
/// Panics on an empty sample set.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The median of one quantity across a set of items.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// This process's peak resident set (`VmHWM`), in KiB.
pub fn peak_rss_kb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Host-wide steal time so far, in seconds (`/proc/stat`, 100 ticks/s).
pub fn steal_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?;
    let ticks: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks / 100.0)
}

/// Time this process's live threads have spent waiting on a run queue, in
/// ns (second field of `/proc/self/task/*/schedstat`).
pub fn runq_wait_ns() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| fs::read_to_string(task.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().nth(1)?.parse::<u64>().ok())
        .sum()
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p25_of_forty_is_the_tenth_lowest() {
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 0.25), 10.0);
        assert_eq!(median(&samples), 20.0);
        assert_eq!(percentile(&samples, 0.75), 30.0);
        assert_eq!(percentile(&samples, 0.99), 40.0);
    }

    #[test]
    fn percentile_of_one_sample_is_that_sample() {
        assert_eq!(percentile(&[3.5], 0.25), 3.5);
        assert_eq!(percentile(&[3.5], 0.99), 3.5);
    }
}
