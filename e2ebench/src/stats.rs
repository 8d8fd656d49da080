//! Sample summaries: percentiles, the sample-count rule for tails, and
//! the process's peak resident memory.

use std::time::{Duration, Instant};

/// The tail percentiles the benchmark may report, highest first.
const TAILS: [f64; 4] = [0.99, 0.95, 0.90, 0.75];

/// Samples strictly beyond a percentile that the tail rule asks for.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Linear-interpolated percentile (`q` in `[0, 1]`) of unsorted samples.
/// `None` for an empty set.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 0.5)
}

/// Whether `n` samples leave at least [`TAIL_MIN_BEYOND`] samples
/// strictly beyond percentile `q` (for p90 that takes 100 samples).
pub fn tail_supported(n: usize, q: f64) -> bool {
    // The epsilon absorbs `1.0 - 0.9` rounding below 0.1.
    n as f64 * (1.0 - q) + 1e-9 >= TAIL_MIN_BEYOND as f64
}

/// The highest reportable tail for `n` samples, if any.
pub fn highest_tail(n: usize) -> Option<f64> {
    TAILS.iter().copied().find(|&q| tail_supported(n, q))
}

/// Samples p90 needs under the tail rule.
pub const P90_SAMPLES: usize = 100;

/// How far a measuring window may run past its length, as a multiple of
/// it, to gather [`P90_SAMPLES`].
const WINDOW_STRETCH: f64 = 2.0;

/// When a measuring loop stops: once its length has passed and the
/// primary distribution holds `min_samples`, and in any case after
/// [`WINDOW_STRETCH`] times its length.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    end: Instant,
    latest_end: Instant,
    min_samples: usize,
}

impl Window {
    pub fn new(secs: f64, min_samples: usize) -> Window {
        let now = Instant::now();
        Window {
            end: now + Duration::from_secs_f64(secs),
            latest_end: now + Duration::from_secs_f64(secs * WINDOW_STRETCH),
            min_samples,
        }
    }

    /// Whether to start another operation, with `samples` gathered so far.
    pub fn running(&self, samples: usize) -> bool {
        let now = Instant::now();
        now < self.end || (samples < self.min_samples && now < self.latest_end)
    }
}

/// One latency distribution, summarised for the report.
#[derive(Clone, Debug, Default)]
pub struct Dist {
    /// Raw samples in milliseconds.
    pub ms: Vec<f64>,
}

impl Dist {
    /// Add one sample given in nanoseconds.
    pub fn push_nanos(&mut self, nanos: u128) {
        self.ms.push(nanos as f64 / 1e6);
    }

    /// Sample count.
    pub fn n(&self) -> usize {
        self.ms.len()
    }

    /// Median in milliseconds (0 when empty).
    pub fn p50(&self) -> f64 {
        median(&self.ms).unwrap_or(0.0)
    }

    /// p90 in milliseconds (0 when empty).
    pub fn p90(&self) -> f64 {
        percentile(&self.ms, 0.90).unwrap_or(0.0)
    }

    /// `p90 (n=…)`, or a note that p90 lacks the samples the tail rule asks for.
    pub fn p90_note(&self) -> String {
        if tail_supported(self.n(), 0.90) {
            format!("n={}", self.n())
        } else {
            let best =
                highest_tail(self.n()).map_or("none".to_string(), |q| format!("p{:.0}", q * 100.0));
            format!(
                "n={} (below the 100 samples p90 needs; highest supported tail: {best})",
                self.n()
            )
        }
    }
}

/// Latencies of traced and untraced operations interleaved in one
/// phase, so that the tracing overhead is not confounded with drift in
/// the machine's speed between phases.
#[derive(Clone, Debug, Default)]
pub struct Interleaved {
    pub plain: Dist,
    pub traced: Dist,
}

impl Interleaved {
    pub fn push_nanos(&mut self, traced: bool, nanos: u128) {
        if traced {
            self.traced.push_nanos(nanos);
        } else {
            self.plain.push_nanos(nanos);
        }
    }

    /// Traced median ÷ untraced median − 1 (0 while either is empty).
    pub fn overhead(&self) -> f64 {
        if self.plain.n() == 0 || self.traced.n() == 0 {
            return 0.0;
        }
        self.traced.p50() / self.plain.p50() - 1.0
    }
}

/// Peak resident set size of this process (`VmHWM`) in MiB. The
/// engine's `query.arena.bytes` counter only ever grows, so memory is
/// read from the kernel instead.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let close = |a: Option<f64>, b: f64| (a.expect("non-empty") - b).abs() < 1e-9;
        let s: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!(close(median(&s), 6.0));
        assert!(close(percentile(&s, 0.9), 10.0));
        assert!(close(percentile(&s, 0.0), 1.0));
        assert!(close(percentile(&s, 1.0), 11.0));
        assert!(close(percentile(&[1.0, 2.0], 0.5), 1.5));
        assert_eq!(percentile(&[], 0.5), None);
        // Order of the input does not matter.
        let mut rev = s.clone();
        rev.reverse();
        assert!(close(percentile(&rev, 0.9), 10.0));
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(P90_SAMPLES, 100);
        assert!(!tail_supported(99, 0.90));
        assert!(tail_supported(100, 0.90));
        assert!(tail_supported(1000, 0.99));
        assert!(!tail_supported(999, 0.99));
        assert_eq!(highest_tail(1000), Some(0.99));
        assert_eq!(highest_tail(250), Some(0.95));
        assert_eq!(highest_tail(120), Some(0.90));
        assert_eq!(highest_tail(40), Some(0.75));
        assert_eq!(highest_tail(39), None);
    }

    #[test]
    fn window_waits_for_samples_up_to_its_stretch() {
        let w = Window::new(3600.0, 0);
        assert!(w.running(1_000_000), "always inside its length");
        let w = Window::new(0.2, 10);
        std::thread::sleep(Duration::from_millis(250));
        assert!(w.running(9), "short of samples inside the stretch");
        assert!(!w.running(10), "enough samples once the length passed");
        std::thread::sleep(Duration::from_millis(200));
        assert!(!w.running(0), "never past the stretch");
    }

    #[test]
    fn dist_reports_its_sample_count() {
        let mut d = Dist::default();
        for i in 0..100u128 {
            d.push_nanos(i * 1_000_000);
        }
        assert_eq!(d.n(), 100);
        assert_eq!(d.p90_note(), "n=100");
        d.ms.pop();
        assert!(d.p90_note().starts_with("n=99 (below"));
        assert!((d.p50() - 49.0).abs() < 1e-9);
    }

    #[test]
    fn overhead_compares_interleaved_medians() {
        let mut i = Interleaved::default();
        assert_eq!(i.overhead(), 0.0);
        for ms in [10u128, 11, 12] {
            i.push_nanos(false, ms * 1_000_000);
            i.push_nanos(true, ms * 1_100_000);
        }
        assert!((i.overhead() - 0.1).abs() < 1e-9);
    }
}
