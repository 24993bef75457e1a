//! Fixed-bucket latency histograms.
//!
//! Buckets are log-linear: values below 128 ns get one bucket per
//! nanosecond, and every higher power of two is split into 64 equal
//! buckets, so a bucket is never wider than 1/64 of its lower bound.
//! Values at or above 2^41 ns (about 37 minutes) share the last bucket.
//!
//! [`Recorder`] is the per-thread recording side: only its owning thread
//! writes it, with plain relaxed loads and stores (no lock and no atomic
//! read-modify-write per operation). It is read after the thread has been
//! joined, which orders every store before the read.

use stm_core::sync::{AtomicU64, Ordering};

const SUB_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BITS;
const MAX_SHIFT: usize = 34;
/// Number of buckets: group 0 holds 0..64 in unit buckets, group `g >= 1`
/// holds `[64 << (g - 1), 128 << (g - 1))` in 64 buckets of width
/// `1 << (g - 1)`; the last group, `MAX_SHIFT + 1`, ends at 2^41.
pub const BUCKETS: usize = (MAX_SHIFT + 2) * SUB_BUCKETS;

/// Bucket index of `value`.
fn bucket_of(value: u64) -> usize {
    if value < 2 * SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros();
    let shift = (msb - SUB_BITS) as usize;
    if shift > MAX_SHIFT {
        return BUCKETS - 1;
    }
    let sub = (value >> shift) as usize - SUB_BUCKETS;
    (shift + 1) * SUB_BUCKETS + sub
}

/// Lower bound and width of bucket `index`.
fn bucket_range(index: usize) -> (u64, u64) {
    if index < 2 * SUB_BUCKETS {
        return (index as u64, 1);
    }
    let shift = index / SUB_BUCKETS - 1;
    let sub = (index % SUB_BUCKETS) as u64;
    ((SUB_BUCKETS as u64 + sub) << shift, 1 << shift)
}

/// A histogram of nanosecond values.
#[derive(Clone, Debug)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl Histogram {
    /// Adds one sample.
    #[cfg(test)]
    pub fn record(&mut self, value: u64) {
        self.counts[bucket_of(value)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.total += other.total;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (`0 < q <= 1`) by nearest rank, interpolated
    /// linearly inside its bucket; `None` when the histogram is empty.
    ///
    /// The result lies in the bucket that holds the sample of rank
    /// `ceil(q * count)` in sorted order, so it differs from that sample by
    /// less than one bucket width.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            if below + count >= rank {
                let (low, width) = bucket_range(index);
                let within = (rank - below) as f64 - 0.5;
                return Some(low as f64 + width as f64 * within / count as f64);
            }
            below += count;
        }
        unreachable!("rank is at most the total count")
    }
}

/// Single-writer recording side of a [`Histogram`].
#[derive(Debug)]
pub struct Recorder {
    counts: Box<[AtomicU64]>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Recorder {
    /// Adds one sample. Must only be called by the recorder's owning
    /// thread: the load and store are not one atomic step.
    #[inline]
    pub fn record(&self, value: u64) {
        let bucket = &self.counts[bucket_of(value)];
        // sync: Relaxed — single writer; readers run after joining it.
        bucket.store(bucket.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Returns the recorded samples and clears the recorder. Call only
    /// while the owning thread is not recording.
    pub fn take(&self) -> Histogram {
        let mut histogram = Histogram::default();
        for (slot, bucket) in histogram.counts.iter_mut().zip(self.counts.iter()) {
            // sync: Relaxed — the writer was joined before this call.
            *slot = bucket.swap(0, Ordering::Relaxed);
            histogram.total += *slot;
        }
        histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stm_core::backoff::FastRng;

    #[test]
    fn buckets_tile_the_value_range() {
        let mut expected_low = 0u64;
        for index in 0..BUCKETS {
            let (low, width) = bucket_range(index);
            assert_eq!(low, expected_low, "bucket {index} leaves a gap");
            assert_eq!(bucket_of(low), index);
            assert_eq!(bucket_of(low + width - 1), index);
            expected_low = low + width;
        }
        assert_eq!(expected_low, 1 << 41, "the regular buckets end at 2^41");
        assert_eq!(bucket_range(SUB_BUCKETS), (64, 1), "group 1 starts at 64");
        assert_eq!(bucket_range(2 * SUB_BUCKETS), (128, 2), "group 2 is 2 wide");
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_match_a_sorted_reference() {
        for seed in 1..=20u64 {
            let mut rng = FastRng::new(seed);
            let n = 1 + rng.next_below(5_000) as usize;
            // Latency-like samples: a body around 1-5 us and a long tail.
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    let base = 500 + rng.next_below(4_500);
                    if rng.chance_percent(5) {
                        base * (1 + rng.next_below(400))
                    } else {
                        base
                    }
                })
                .collect();
            let mut histogram = Histogram::default();
            let recorder = Recorder::default();
            for &s in &samples {
                histogram.record(s);
                recorder.record(s);
            }
            assert_eq!(recorder.take().counts, histogram.counts);
            samples.sort_unstable();
            for q in [0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let reference = samples[rank - 1] as f64;
                let estimate = histogram.quantile(q).expect("non-empty");
                let (_, width) = bucket_range(bucket_of(samples[rank - 1]));
                assert!(
                    (estimate - reference).abs() < width as f64,
                    "seed {seed}, q {q}: estimate {estimate} vs reference {reference}"
                );
                assert!((estimate - reference).abs() <= reference / 64.0 + 1.0);
            }
        }
    }

    #[test]
    fn small_values_are_exact_and_empty_has_no_quantile() {
        let mut histogram = Histogram::default();
        assert_eq!(histogram.quantile(0.5), None);
        for v in [3, 3, 7, 100] {
            histogram.record(v);
        }
        assert_eq!(histogram.quantile(0.5).map(f64::floor), Some(3.0));
        assert_eq!(histogram.quantile(1.0).map(f64::floor), Some(100.0));
        let mut merged = Histogram::default();
        merged.merge(&histogram);
        merged.merge(&histogram);
        assert_eq!(merged.count(), 8);
    }
}
