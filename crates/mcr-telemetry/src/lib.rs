//! # mcr-telemetry
//!
//! Zero-allocation-in-steady-state metrics primitives for the MCR-DRAM
//! simulator, in the instrumentation style of Ramulator / DRAMsim3:
//!
//! * [`Counter`] — a saturating event counter (never wraps, so a
//!   counter overflow can never silently corrupt a report);
//! * [`LatencyHistogram`] — a fixed-bucket (power-of-two) histogram
//!   with exact `count`/`sum`/`min`/`max` and approximate percentiles,
//!   mergeable across sweep workers (merge is associative and
//!   commutative, so the fold order never changes the result).
//!
//! Everything here is plain integer state: deterministic, `Clone`,
//! `PartialEq`/`Eq`, and cheap enough to live inside the simulator's
//! hot loops. Recording is always on, so report shapes never change.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

/// A saturating event counter.
///
/// Increments saturate at `u64::MAX` instead of wrapping: a report can
/// show a pegged counter, but never a small value that silently lost
/// 2^64 events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A fresh zero counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Counts one event.
    pub fn inc(&mut self) {
        self.0 = self.0.saturating_add(1);
    }

    /// Counts `n` events at once.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    pub const fn get(&self) -> u64 {
        self.0
    }

    /// Folds another counter into this one (saturating).
    pub fn merge(&mut self, other: &Counter) {
        self.0 = self.0.saturating_add(other.0);
    }
}

/// Number of power-of-two buckets in a [`LatencyHistogram`].
///
/// Bucket `i` holds samples whose bit width is `i` (bucket 0 holds the
/// value 0, bucket 1 holds 1, bucket 2 holds 2..=3, ...). 48 buckets
/// cover every value below 2^47 exactly; anything larger lands in the
/// last bucket. Simulator latencies are cycle counts well below that.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A fixed-bucket histogram for non-negative integer samples
/// (latencies in cycles, queue depths, ...).
///
/// Buckets are powers of two, so recording is just a bit-width
/// computation and an increment — no allocation, no floating point.
/// `count`, `sum`, `min` and `max` are exact; percentiles are resolved
/// to a bucket upper bound and clamped into `[min, max]`.
///
/// All state is integer, so the type is `Eq` and byte-identical across
/// build profiles and thread counts for the same sample stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// A fresh, empty histogram.
    pub const fn new() -> Self {
        LatencyHistogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a sample: its bit width, clamped to the last
    /// bucket.
    fn bucket_index(value: u64) -> usize {
        let width = (u64::BITS - value.leading_zeros()) as usize;
        width.min(HISTOGRAM_BUCKETS - 1)
    }

    /// Inclusive upper bound of a bucket (the value reported when a
    /// percentile resolves to it).
    fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` identical samples in one step, exactly equivalent to
    /// calling [`LatencyHistogram::record`] `n` times. Lets the event-wheel
    /// core account for skipped quiet cycles (whose per-cycle samples are
    /// all equal) without replaying them. A zero `n` is a no-op.
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let i = Self::bucket_index(value);
        self.buckets[i] = self.buckets[i].saturating_add(n);
        self.count = self.count.saturating_add(n);
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub const fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all samples (`NaN` if empty, matching the
    /// `reduction_pct(0, x>0)` convention used by the report layer).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `p`-th percentile (0..=100), resolved to the upper bound of
    /// the bucket containing that rank and clamped into `[min, max]`.
    /// Returns `None` if the histogram is empty.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 100.0);
        // Rank of the requested percentile, in [1, count].
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(n);
            if seen as f64 >= rank {
                return Some(Self::bucket_upper_bound(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median (see [`LatencyHistogram::percentile`]); `None` if empty.
    pub fn p50(&self) -> Option<u64> {
        self.percentile(50.0)
    }

    /// 95th percentile; `None` if empty.
    pub fn p95(&self) -> Option<u64> {
        self.percentile(95.0)
    }

    /// 99th percentile; `None` if empty.
    pub fn p99(&self) -> Option<u64> {
        self.percentile(99.0)
    }

    /// Folds another histogram into this one.
    ///
    /// Element-wise saturating addition plus min/max combination:
    /// associative and commutative, so sweep workers can be merged in
    /// any grouping and the result is identical.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The raw integer state — `(buckets, count, sum, min, max)` — with
    /// the empty-histogram sentinels (`min == u64::MAX`, `max == 0`)
    /// exposed as-is. Together with
    /// [`LatencyHistogram::from_raw_parts`] this is the persistence
    /// contract of the on-disk result store: a histogram rebuilt from a
    /// snapshot compares equal (`==`) to the original, including the
    /// empty case, which no replayed `record` stream could reproduce
    /// (recording anything moves `min`/`max` off their sentinels).
    pub const fn raw_parts(&self) -> (&[u64; HISTOGRAM_BUCKETS], u64, u64, u64, u64) {
        (&self.buckets, self.count, self.sum, self.min, self.max)
    }

    /// Rebuilds a histogram from a [`LatencyHistogram::raw_parts`]
    /// snapshot. No invariant between the fields is enforced: the caller
    /// (a deserializer) is trusted to hand back state that a real
    /// histogram produced, checksummed at the storage layer.
    pub const fn from_raw_parts(
        buckets: [u64; HISTOGRAM_BUCKETS],
        count: u64,
        sum: u64,
        min: u64,
        max: u64,
    ) -> Self {
        LatencyHistogram {
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// Non-empty buckets as `(inclusive upper bound, sample count)`
    /// pairs, in ascending order — the export shape used by the JSON /
    /// CSV dumps.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_upper_bound(i), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics_and_saturation() {
        let mut c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX, "saturates, never wraps");
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_exact_fields() {
        let mut h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.percentile(50.0), None);
        assert!(h.mean().is_nan());
        for v in [3u64, 9, 27, 81] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 120);
        assert_eq!(h.min(), Some(3));
        assert_eq!(h.max(), Some(81));
        assert_eq!(h.mean(), 30.0);
    }

    #[test]
    fn percentiles_are_bounded_and_ordered() {
        let mut h = LatencyHistogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let (p50, p95, p99) = (
            h.p50().expect("nonempty"),
            h.p95().expect("nonempty"),
            h.p99().expect("nonempty"),
        );
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= h.max().expect("nonempty"));
        assert!(p50 >= h.min().expect("nonempty"));
        // A constant stream resolves every percentile to that constant.
        let mut k = LatencyHistogram::new();
        for _ in 0..100 {
            k.record(7);
        }
        assert_eq!(k.p50(), Some(7));
        assert_eq!(k.p99(), Some(7));
    }

    #[test]
    fn record_n_matches_repeated_record() {
        let mut bulk = LatencyHistogram::new();
        let mut looped = LatencyHistogram::new();
        for (v, n) in [(0u64, 3u64), (7, 1), (7, 0), (300, 5), (u64::MAX, 2)] {
            bulk.record_n(v, n);
            for _ in 0..n {
                looped.record(v);
            }
        }
        assert_eq!(bulk, looped);
        // A zero count never disturbs min/max.
        let mut empty = LatencyHistogram::new();
        empty.record_n(42, 0);
        assert_eq!(empty, LatencyHistogram::new());
    }

    #[test]
    fn merge_matches_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for v in [1u64, 5, 9, 200] {
            a.record(v);
            whole.record(v);
        }
        for v in [2u64, 1000, 4] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
    }

    #[test]
    fn raw_parts_round_trip_is_bit_identical() {
        let mut h = LatencyHistogram::new();
        for v in [0u64, 7, 300, u64::MAX] {
            h.record(v);
        }
        let (buckets, count, sum, min, max) = h.raw_parts();
        let rebuilt = LatencyHistogram::from_raw_parts(*buckets, count, sum, min, max);
        assert_eq!(rebuilt, h);
        // The empty histogram round-trips too, sentinels and all — the
        // case a record-replay reconstruction could never get right.
        let empty = LatencyHistogram::new();
        let (b, c, s, mn, mx) = empty.raw_parts();
        assert_eq!(mn, u64::MAX);
        assert_eq!(mx, 0);
        assert_eq!(
            LatencyHistogram::from_raw_parts(*b, c, s, mn, mx),
            LatencyHistogram::new()
        );
    }
}
