//! Exact order statistics over raw samples.
//!
//! Percentiles come from the sorted samples themselves, never from a
//! bucketed histogram, and a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie above it.

/// Samples that must lie above a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// A sorted set of raw samples.
#[derive(Debug, Clone)]
pub struct Dist {
    sorted: Vec<f64>,
}

impl Dist {
    pub fn new(mut samples: Vec<f64>) -> Dist {
        samples.sort_by(f64::total_cmp);
        Dist { sorted: samples }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample with at least a `q`
    /// share of all samples at or below it. `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        match self.rank(q) {
            0 => f64::NAN,
            r => self.sorted[r - 1],
        }
    }

    fn rank(&self, q: f64) -> usize {
        let n = self.sorted.len();
        ((q * n as f64).ceil() as usize).clamp(n.min(1), n)
    }

    /// Samples strictly beyond the `q` percentile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        self.sorted.len() - self.rank(q)
    }

    /// Whether the `q` percentile has enough samples beyond it to report.
    pub fn supports(&self, q: f64) -> bool {
        self.beyond(q) >= MIN_BEYOND
    }

    /// The highest of p99, p95, p90, p75 and p50 that [`Self::supports`],
    /// as `(percent, value)`.
    pub fn tail(&self) -> Option<(f64, f64)> {
        [0.99, 0.95, 0.90, 0.75, 0.50]
            .into_iter()
            .find(|&q| self.supports(q))
            .map(|q| (q * 100.0, self.quantile(q)))
    }

    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            f64::NAN
        } else {
            self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
        }
    }
}

/// The median of a few repeated measurements (e.g. set-up times).
pub fn median(values: &[f64]) -> f64 {
    Dist::new(values.to_vec()).quantile(0.5)
}

/// Requests per closed-loop window.
pub const WINDOW: usize = 100;
/// Share of the windows, the fastest, whose requests the closed-loop
/// metrics pool.
pub const FAST_SHARE: f64 = 0.1;
/// Requests pooled at least: enough for a p95 with [`MIN_BEYOND`] samples
/// beyond it.
const MIN_POOLED: usize = 20 * MIN_BEYOND;

/// A closed loop's fast phase. The loop is cut into windows of [`WINDOW`]
/// consecutive requests; the fastest [`FAST_SHARE`] of them (at least
/// [`MIN_POOLED`] requests) are pooled, and the rate, p50 and p95 are
/// exact over the pool.
///
/// A shared host switches between a full-speed state and slower ones, in
/// phases of seconds, and the share of time it spends below full speed
/// varies from run to run (one single-threaded probe read 1.0× to 1.8×
/// over 100 ms steps). Full speed itself is the steadiest thing it has:
/// over 30-second spans, the fastest 10 % of 100 ms steps spread 9 %
/// (quartiles over median) where the mean spread 14 % and the median 22 %.
#[derive(Debug, Clone, Copy)]
pub struct FastPhase {
    pub windows: usize,
    pub pooled: usize,
    pub p50: f64,
    pub p95: f64,
    pub rate: f64,
}

impl FastPhase {
    /// `latency[i]` and `done_s[i]` (seconds since the loop started) of
    /// every request, in completion order. `None` with fewer than
    /// [`MIN_POOLED`] requests.
    pub fn new(latency: &[f64], done_s: &[f64]) -> Option<FastPhase> {
        let n = latency.len().min(done_s.len());
        if n < MIN_POOLED {
            return None;
        }
        let windows = n / WINDOW;
        // (seconds, first request) of every window.
        let mut spans: Vec<(f64, usize)> = (0..windows)
            .map(|w| {
                let (first, last) = (w * WINDOW, (w + 1) * WINDOW - 1);
                let start = if first == 0 { 0.0 } else { done_s[first - 1] };
                (done_s[last] - start, first)
            })
            .collect();
        spans.sort_by(|a, b| a.0.total_cmp(&b.0));
        let keep = ((windows as f64 * FAST_SHARE).ceil() as usize)
            .max(MIN_POOLED.div_ceil(WINDOW))
            .min(windows);
        let fast = &spans[..keep];
        let pool = Dist::new(
            fast.iter()
                .flat_map(|&(_, first)| latency[first..first + WINDOW].iter().copied())
                .collect(),
        );
        let secs: f64 = fast.iter().map(|&(s, _)| s).sum();
        Some(FastPhase {
            windows,
            pooled: pool.len(),
            p50: pool.quantile(0.5),
            p95: pool.quantile(0.95),
            rate: pool.len() as f64 / secs,
        })
    }
}

/// Peak resident set size of a process in MB (`VmHWM`), from procfs.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A SplitMix64 step: derives independent sub-seeds from the run's seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let d = Dist::new((1..=1000).map(f64::from).collect());
        assert_eq!(d.quantile(0.5), 500.0);
        assert_eq!(d.quantile(0.99), 990.0);
        assert_eq!(d.beyond(0.99), 10);
        assert!(d.supports(0.99));
        let small = Dist::new((1..=200).map(f64::from).collect());
        assert!(!small.supports(0.99));
        assert_eq!(small.tail(), Some((95.0, 190.0)));
    }

    #[test]
    fn fast_phase_pools_the_fastest_windows() {
        // 2000 requests of 1 ms; requests 1000..1100 and 1500..1600 ran
        // twice as fast.
        let lat: Vec<f64> = (0..2000)
            .map(|i| {
                if (1000..1100).contains(&i) || (1500..1600).contains(&i) {
                    0.5
                } else {
                    1.0
                }
            })
            .collect();
        let done: Vec<f64> = lat
            .iter()
            .scan(0.0, |t, ms| {
                *t += ms / 1e3;
                Some(*t)
            })
            .collect();
        let f = FastPhase::new(&lat, &done).unwrap();
        assert_eq!((f.windows, f.pooled), (20, 200));
        assert_eq!((f.p50, f.p95), (0.5, 0.5));
        assert!((f.rate - 2000.0).abs() < 1e-6);
        assert!(FastPhase::new(&lat[..199], &done[..199]).is_none());
    }
}
