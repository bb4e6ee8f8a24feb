//! Order statistics, calibrated isolation timing and process memory.

use std::hint::black_box;
use std::time::Instant;

/// Nearest-rank percentile (`p` in 0..=100) of `v`, which is sorted in
/// place. Returns 0 for an empty slice.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `v` (sorted in place); the mean of the two middle values
/// for an even count.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median absolute deviation from the median.
pub fn mad(v: &[f64]) -> f64 {
    let mut w = v.to_vec();
    let m = median(&mut w);
    let mut dev: Vec<f64> = v.iter().map(|x| (x - m).abs()).collect();
    median(&mut dev)
}

/// Durations in fixed-width bins, so the memory a run uses does not
/// grow with the number of operations it manages to time. Durations
/// past the last bin are kept exactly.
#[derive(Debug, Clone)]
pub struct Histogram {
    bin_ns: u64,
    bins: Vec<u64>,
    overflow: Vec<f64>,
    count: u64,
}

impl Histogram {
    /// `bins` bins of `bin_ns` nanoseconds each.
    pub fn new(bin_ns: u64, bins: usize) -> Self {
        // Written out, not zero-mapped, so every bin's page is resident
        // from the start: peak RSS must not depend on which bins the
        // run's slowest operations happen to touch.
        let mut zeroed = vec![0; bins];
        black_box(&mut zeroed[..]).fill(0);
        Histogram {
            bin_ns,
            bins: zeroed,
            overflow: Vec::new(),
            count: 0,
        }
    }

    /// Records one duration.
    pub fn record(&mut self, ns: u64) {
        self.count += 1;
        match self.bins.get_mut((ns / self.bin_ns) as usize) {
            Some(b) => *b += 1,
            None => self.overflow.push(ns as f64),
        }
    }

    /// Durations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Nearest-rank percentile in nanoseconds, read at the middle of its
    /// bin (at most `bin_ns / 2` off).
    pub fn percentile(&mut self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &n) in self.bins.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return (i as f64 + 0.5) * self.bin_ns as f64;
            }
        }
        self.overflow.sort_by(f64::total_cmp);
        let k = (rank - seen).clamp(1, self.overflow.len().max(1) as u64) as usize;
        self.overflow.get(k - 1).copied().unwrap_or(0.0)
    }
}

/// One function timed in isolation: median and MAD of ns per call over
/// [`SAMPLES`] batches of `batch` calls, each batch at least
/// [`MIN_SAMPLE_NS`] long.
#[derive(Debug, Clone, Copy)]
pub struct Isolated {
    pub ns_per_op: f64,
    pub mad_ns: f64,
    pub batch: u64,
}

/// Shortest batch a sample may time: far above the ~20 ns cost and
/// tens-of-ns jitter of one `Instant` pair.
pub const MIN_SAMPLE_NS: u128 = 1_000_000;

/// Samples per isolated timing.
pub const SAMPLES: usize = 21;

/// Times `op` in isolation. `op(i)` performs the `i`-th call and returns
/// a value that is fed to `black_box`, so the work cannot be elided. The
/// batch size doubles until one batch takes at least [`MIN_SAMPLE_NS`];
/// then [`SAMPLES`] batches are timed and reduced to median and MAD.
pub fn time_isolated<T>(mut op: impl FnMut(u64) -> T) -> Isolated {
    let mut i = 0u64;
    let mut run = |n: u64| {
        let t0 = Instant::now();
        for _ in 0..n {
            black_box(op(i));
            i = i.wrapping_add(1);
        }
        t0.elapsed().as_nanos()
    };
    let mut batch = 1u64;
    while run(batch) < MIN_SAMPLE_NS {
        batch *= 2;
    }
    let mut per_op: Vec<f64> = (0..SAMPLES)
        .map(|_| run(batch) as f64 / batch as f64)
        .collect();
    let mad_ns = mad(&per_op);
    Isolated {
        ns_per_op: median(&mut per_op),
        mad_ns,
        batch,
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a 64 digest of a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(percentile(&mut v, 100.0), 5.0);
        assert_eq!(percentile(&mut v, 20.0), 1.0);
        assert_eq!(percentile(&mut v, 21.0), 2.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.5);
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new(10, 100);
        for ns in [5, 15, 25, 35, 5_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.percentile(50.0), 25.0);
        assert_eq!(h.percentile(20.0), 5.0);
        assert_eq!(h.percentile(100.0), 5_000.0);
    }

    #[test]
    fn isolated_batches_reach_the_floor() {
        let iso = time_isolated(|i| i.wrapping_mul(3));
        assert!(iso.batch as f64 * iso.ns_per_op >= 0.5 * MIN_SAMPLE_NS as f64);
    }
}
