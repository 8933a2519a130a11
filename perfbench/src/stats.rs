//! The benchmark's own arithmetic: percentile selection, failure
//! accounting and summary figures.

/// Minimum number of samples a reported percentile must have beyond it.
pub const MIN_BEYOND: usize = 10;

/// How one request ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// 2xx and, once verified, the right answer.
    Ok,
    /// 2xx with an answer that differs from the in-process reference.
    Wrong(String),
    /// A non-2xx status (shed, refused, server error).
    Status(u16),
    /// The client's read deadline passed before the answer arrived.
    Timeout,
    /// Connect, write or read failed.
    Socket(String),
}

impl Outcome {
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok)
    }
}

/// Latencies of one request class. Every failed request counts as
/// missing every latency limit: it sorts above all successes.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ok_ms: Vec<f64>,
    failed: usize,
}

impl Latencies {
    pub fn record(&mut self, latency_ms: f64, outcome: &Outcome) {
        if outcome.is_ok() {
            self.ok_ms.push(latency_ms);
        } else {
            self.failed += 1;
        }
    }

    pub fn attempted(&self) -> usize {
        self.ok_ms.len() + self.failed
    }

    pub fn ok(&self) -> usize {
        self.ok_ms.len()
    }

    pub fn failed(&self) -> usize {
        self.failed
    }

    /// The `p`-quantile (nearest rank over all attempts) in ms, or `None`
    /// when fewer than [`MIN_BEYOND`] samples lie beyond it. A rank that
    /// lands on a failed request reports `failure_ms`, the longest latency
    /// the client can observe.
    pub fn percentile(&self, p: f64, failure_ms: f64) -> Option<f64> {
        let n = self.attempted();
        let rank = nearest_rank(n, p)?;
        if n - rank < MIN_BEYOND {
            return None;
        }
        let mut sorted = self.ok_ms.clone();
        sorted.sort_by(f64::total_cmp);
        Some(sorted.get(rank - 1).copied().unwrap_or(failure_ms))
    }
}

/// 1-based nearest rank of quantile `p` among `n` samples.
pub fn nearest_rank(n: usize, p: f64) -> Option<usize> {
    if n == 0 || !(0.0..=1.0).contains(&p) {
        return None;
    }
    Some(((p * n as f64).ceil() as usize).clamp(1, n))
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was measured.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lat(ok: &[f64], failed: usize) -> Latencies {
        let mut l = Latencies::default();
        for &ms in ok {
            l.record(ms, &Outcome::Ok);
        }
        for _ in 0..failed {
            l.record(1.0, &Outcome::Status(503));
        }
        l
    }

    #[test]
    fn nearest_rank_matches_definition() {
        assert_eq!(nearest_rank(100, 0.5), Some(50));
        assert_eq!(nearest_rank(100, 0.99), Some(99));
        assert_eq!(nearest_rank(101, 0.5), Some(51));
        assert_eq!(nearest_rank(1, 0.99), Some(1));
        assert_eq!(nearest_rank(0, 0.5), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let ms: Vec<f64> = (1..=109).map(f64::from).collect();
        // p90 of 109 is rank 99: only 10 beyond, which is enough...
        assert_eq!(lat(&ms, 0).percentile(0.90, 1e9), Some(99.0));
        // ...while p90 of 108 samples leaves 10 beyond rank 98 too,
        assert_eq!(lat(&ms[..108], 0).percentile(0.90, 1e9), Some(98.0));
        // but p99 of 109 leaves 1 beyond and is refused.
        assert_eq!(lat(&ms, 0).percentile(0.99, 1e9), None);
        let many: Vec<f64> = (1..=1010).map(f64::from).collect();
        assert_eq!(lat(&many, 0).percentile(0.99, 1e9), Some(1000.0));
        assert_eq!(lat(&many[..1000], 0).percentile(0.99, 1e9), Some(990.0));
        assert_eq!(lat(&many[..999], 0).percentile(0.99, 1e9), None);
    }

    #[test]
    fn failures_count_against_every_latency() {
        // 100 successes at 1..=100 ms plus 20 failures: the failures sort
        // last, so the median moves up and the p90 lands on a failure.
        let ms: Vec<f64> = (1..=100).map(f64::from).collect();
        let l = lat(&ms, 20);
        assert_eq!(l.attempted(), 120);
        assert_eq!(l.failed(), 20);
        assert_eq!(l.percentile(0.5, 30_000.0), Some(60.0));
        assert_eq!(l.percentile(0.9, 30_000.0), Some(30_000.0));
    }

    #[test]
    fn every_failure_kind_counts() {
        let mut l = Latencies::default();
        for outcome in [
            Outcome::Ok,
            Outcome::Wrong("score bits differ".into()),
            Outcome::Status(429),
            Outcome::Timeout,
            Outcome::Socket("connection refused".into()),
        ] {
            l.record(5.0, &outcome);
        }
        assert_eq!((l.attempted(), l.ok(), l.failed()), (5, 1, 4));
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
