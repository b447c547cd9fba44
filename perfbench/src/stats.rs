//! The benchmark's own arithmetic: the percentile rule, ratios that keep
//! their base, failed-operation accounting, and the exact-repeat check
//! on deterministic counts.

use std::collections::BTreeMap;
use std::fmt;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Campaigns a timed run needs so that `campaign_ms_p90` has
/// [`MIN_BEYOND`] samples beyond it.
pub const MIN_CAMPAIGNS: usize = 100;

/// The 1-based nearest rank of percentile `p` (0–100] among `n`
/// samples, or `None` when fewer than [`MIN_BEYOND`] samples rank above
/// it: such a percentile would be set by a handful of outliers.
pub fn nearest_rank(n: u64, p: f64) -> Option<u64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let rank = ((p / 100.0) * n as f64).ceil() as u64;
    (rank > 0 && n - rank >= MIN_BEYOND as u64).then_some(rank)
}

/// Campaign times in log-spaced buckets 0.01% wide, from 100 ns to
/// 1000 s.  Memory stays constant however many campaigns a run
/// completes (untouched buckets are never paged in), so the
/// benchmark's own bookkeeping does not move `peak_rss_mb`.
pub struct Histogram {
    counts: Vec<u32>,
    n: u64,
}

impl Histogram {
    const LOWEST_MS: f64 = 1e-4;
    const WIDTH: f64 = 1e-4;
    const BUCKETS: usize = 230_260; // ln(1000 s / 100 ns) / WIDTH

    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; Self::BUCKETS],
            n: 0,
        }
    }

    /// Records one time in milliseconds (clamped into the range).
    pub fn record(&mut self, ms: f64) {
        let b = ((ms / Self::LOWEST_MS).ln() / Self::WIDTH).max(0.0) as usize;
        self.counts[b.min(Self::BUCKETS - 1)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Adds another histogram's samples.
    pub fn absorb(&mut self, other: &Histogram) {
        for (a, &b) in self.counts.iter_mut().zip(&other.counts) {
            if b != 0 {
                *a += b;
            }
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile `p` in milliseconds (the geometric
    /// middle of its bucket), or `None` under the [`nearest_rank`] rule.
    pub fn percentile(&self, p: f64) -> Option<f64> {
        nearest_rank(self.n, p).map(|rank| self.at_rank(rank))
    }

    /// The nearest-rank median, however few the samples; 0 when empty.
    pub fn median(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.at_rank(self.n.div_ceil(2))
    }

    fn at_rank(&self, rank: u64) -> f64 {
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return Self::LOWEST_MS * ((b as f64 + 0.5) * Self::WIDTH).exp();
            }
        }
        unreachable!("rank {rank} is within the {} samples", self.n)
    }
}

/// The median (mean of the middle two for an even count); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A ratio that keeps its numerator and base, so every printed ratio
/// shows what it divides by.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator (the base).
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: f64, den: f64) -> Ratio {
        Ratio { num, den }
    }

    /// The quotient; 0 for an empty base.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.4} ({} / {})", self.value(), self.num, self.den)
    }
}

/// How one campaign ended, as the failed-operation count sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The timing-free report equals the serial reference.
    Identical,
    /// A report arrived but differs from the serial reference.
    Differs,
    /// The call errored (or the daemon reported a job error).
    Error,
    /// The daemon refused the job.
    Rejected,
}

/// Failed operations counted against attempted ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Campaigns attempted.
    pub attempted: u64,
    /// Campaigns that failed, for any reason.
    pub failed: u64,
    /// Of those: reports that differ from the reference.
    pub differs: u64,
    /// Of those: errors.
    pub errors: u64,
    /// Of those: rejections.
    pub rejected: u64,
}

impl Tally {
    /// Counts one campaign.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        let slot = match outcome {
            Outcome::Identical => return,
            Outcome::Differs => &mut self.differs,
            Outcome::Error => &mut self.errors,
            Outcome::Rejected => &mut self.rejected,
        };
        *slot += 1;
        self.failed += 1;
    }

    /// Adds another tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.differs += other.differs;
        self.errors += other.errors;
        self.rejected += other.rejected;
    }
}

impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} failed ({} differ from serial, {} errors, {} rejected)",
            self.failed, self.attempted, self.differs, self.errors, self.rejected
        )
    }
}

/// Deterministic counts of one pass over a workload's inputs.
pub type Counts = BTreeMap<&'static str, u64>;

/// Every count that differs between the first pass and a later one.
/// Simulated statistics of a deterministic program repeat exactly; host
/// time does not, so only counts belong here.
pub fn count_mismatches(passes: &[Counts]) -> Vec<String> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        for (name, &a) in first {
            let b = pass.get(name).copied();
            if b != Some(a) {
                out.push(format!("{name}: pass 1 = {a}, pass {} = {b:?}", i + 1));
            }
        }
    }
    out
}

/// A small seeded generator (SplitMix64): the benchmark's inputs are a
/// pure function of `--seed`.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn histogram(values: impl IntoIterator<Item = f64>) -> Histogram {
        let mut h = Histogram::new();
        for v in values {
            h.record(v);
        }
        h
    }

    fn close(a: Option<f64>, b: f64) -> bool {
        a.is_some_and(|a| (a - b).abs() <= b * 1e-4)
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        assert_eq!(histogram((1..=99).map(f64::from)).percentile(90.0), None);
        let h = histogram((1..=100).map(f64::from));
        assert!(close(h.percentile(90.0), 90.0), "{:?}", h.percentile(90.0));
        assert!(close(h.percentile(50.0), 50.0));
        assert_eq!(nearest_rank(100, 90.0), Some(90));
        assert_eq!(100 - 90, MIN_BEYOND as u64);
    }

    #[test]
    fn min_campaigns_is_the_smallest_count_with_a_p90() {
        assert!(nearest_rank(MIN_CAMPAIGNS as u64, 90.0).is_some());
        assert!(nearest_rank(MIN_CAMPAIGNS as u64 - 1, 90.0).is_none());
    }

    #[test]
    fn histogram_keeps_order_statistics_across_merges() {
        let mut h = histogram([5.0, 1.0, 4.0].repeat(10));
        h.absorb(&histogram([2.0, 3.0].repeat(10)));
        assert_eq!(h.len(), 50);
        assert!(close(h.percentile(50.0), 3.0));
        assert!(close(Some(histogram([1.0, 2.0, 3.0]).median()), 2.0));
        assert_eq!(Histogram::new().median(), 0.0);
        // Out-of-range times land in the end buckets instead of panicking.
        h.record(0.0);
        h.record(1e12);
        assert_eq!(h.len(), 52);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ratios_print_their_base() {
        let r = Ratio::new(837.0, 848.0);
        assert_eq!(r.to_string(), "0.9870 (837 / 848)");
        assert_eq!(Ratio::new(3.0, 0.0).to_string(), "0.0000 (3 / 0)");
        assert_eq!(Ratio::new(4.0, 8.0).value(), 0.5);
    }

    #[test]
    fn every_non_identical_outcome_is_a_failure() {
        let mut t = Tally::default();
        for o in [
            Outcome::Identical,
            Outcome::Differs,
            Outcome::Error,
            Outcome::Rejected,
            Outcome::Identical,
        ] {
            t.record(o);
        }
        assert_eq!((t.attempted, t.failed), (5, 3));
        assert_eq!((t.differs, t.errors, t.rejected), (1, 1, 1));
        let mut total = Tally::default();
        total.absorb(t);
        total.absorb(t);
        assert_eq!((total.attempted, total.failed), (10, 6));
        assert_eq!(
            t.to_string(),
            "3/5 failed (1 differ from serial, 1 errors, 1 rejected)"
        );
    }

    #[test]
    fn count_mismatch_names_the_count_and_pass() {
        let a: Counts = [("cssg.states", 7), ("fsim.credits", 2)].into();
        let b: Counts = [("cssg.states", 7), ("fsim.credits", 3)].into();
        assert!(count_mismatches(&[a.clone(), a.clone()]).is_empty());
        let diffs = count_mismatches(&[a, b]);
        assert_eq!(diffs, vec!["fsim.credits: pass 1 = 2, pass 2 = Some(3)"]);
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let p = Rng::new(7).permutation(50);
        assert_eq!(p, Rng::new(7).permutation(50));
        assert_ne!(p, Rng::new(8).permutation(50));
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
