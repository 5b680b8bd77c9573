//! Percentiles, the result report, and the registry window reader.

use graphiti_obs::metrics::Registry;
use std::collections::BTreeMap;

/// The `q`-quantile (`0..=1`) of `samples`, linearly interpolated
/// between closest ranks; `0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or `0` when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one workload run hands back to `main` for printing.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; `main` prints them with their units.
    pub metrics: BTreeMap<String, f64>,
    /// Environment facts recorded beside the result.
    pub env: Vec<(&'static str, String)>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }
}

/// One histogram's cumulative sample count and sum.
#[derive(Debug, Clone, Copy)]
struct Hist {
    count: u64,
    sum: u64,
}

/// Cumulative registry values at one instant.  Registry histograms count
/// since boot, so a measured window is the difference of two snapshots.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    hists: BTreeMap<&'static str, Hist>,
    counters: BTreeMap<&'static str, u64>,
}

/// The registry histograms the benchmark reads.
pub const HISTOGRAMS: [&str; 7] = [
    "graphiti_request_micros_query",
    "graphiti_request_micros_commit",
    "graphiti_group_queue_wait_micros",
    "graphiti_wal_append_micros",
    "graphiti_wal_fsync_micros",
    "graphiti_commit_e2e_micros",
    "graphiti_query_micros",
];

/// The registry counters the benchmark reads.
pub const COUNTERS: [&str; 11] = [
    "graphiti_store_commits_total",
    "graphiti_groups_formed_total",
    "graphiti_group_members_total",
    "graphiti_backpressured_total",
    "graphiti_wal_bytes_total",
    "graphiti_store_graph_clones_total",
    "graphiti_store_graph_reclaims_total",
    "graphiti_checkpoints_written_total",
    "graphiti_plan_cache_hits_total",
    "graphiti_plan_cache_misses_total",
    "graphiti_plan_cache_evictions_total",
];

impl RegistrySnapshot {
    pub fn take(registry: &Registry) -> RegistrySnapshot {
        let hists = HISTOGRAMS
            .iter()
            .map(|&name| {
                let snap = registry.histogram(name).snapshot();
                (name, Hist { count: snap.count, sum: snap.sum })
            })
            .collect();
        let counters = COUNTERS.iter().map(|&name| (name, registry.counter(name).get())).collect();
        RegistrySnapshot { hists, counters }
    }

    /// The window `self → after`.
    pub fn window(&self, after: &RegistrySnapshot) -> Window {
        let hists = HISTOGRAMS
            .iter()
            .map(|&name| {
                let (a, b) = (&self.hists[name], &after.hists[name]);
                (name, Hist { count: b.count - a.count, sum: b.sum - a.sum })
            })
            .collect();
        let counters = COUNTERS
            .iter()
            .map(|&name| (name, after.counters[name] - self.counters[name]))
            .collect();
        Window { hists, counters }
    }
}

/// Registry deltas over one measured window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    hists: BTreeMap<&'static str, Hist>,
    counters: BTreeMap<&'static str, u64>,
}

impl Window {
    pub fn count(&self, hist: &str) -> u64 {
        self.hists.get(hist).map_or(0, |h| h.count)
    }

    pub fn sum(&self, hist: &str) -> f64 {
        self.hists.get(hist).map_or(0.0, |h| h.sum as f64)
    }

    /// Mean sample of the window.
    pub fn mean(&self, hist: &str) -> f64 {
        ratio(self.sum(hist), self.count(hist) as f64)
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).map_or(0.0, |&v| v as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn window_is_the_difference_of_snapshots() {
        let registry = Registry::new();
        registry.histogram("graphiti_wal_fsync_micros").record(1000);
        registry.counter("graphiti_store_commits_total").add(5);
        let before = RegistrySnapshot::take(&registry);
        registry.histogram("graphiti_wal_fsync_micros").record(10);
        registry.histogram("graphiti_wal_fsync_micros").record(30);
        registry.counter("graphiti_store_commits_total").add(2);
        let w = before.window(&RegistrySnapshot::take(&registry));
        assert_eq!(w.count("graphiti_wal_fsync_micros"), 2);
        assert_eq!(w.mean("graphiti_wal_fsync_micros"), 20.0);
        assert_eq!(w.counter("graphiti_store_commits_total"), 2.0);
    }
}
