//! Device-internal refresh row-address generation (paper Sec. 4.3, Fig. 8).
//!
//! A DRAM chip generates the row address to refresh from an internal
//! counter incremented on every REFRESH command. The paper considers two
//! ways of wiring counter bits to row-address bits:
//!
//! * **K to K** (`RefreshWiring::Direct`): counter bit `B_k` drives row
//!   address bit `R_k` — rows are refreshed in plain ascending order.
//! * **K to N-1-K** (`RefreshWiring::Reversed`): counter bit `B_k` drives
//!   row address bit `R_{N-1-k}` — the row-address LSBs change *last*, so
//!   consecutive rows of one Kx MCR are visited at evenly-spaced counter
//!   values and every MCR sees a *uniform* refresh interval of `64/K` ms.
//!
//! With direct wiring a 2x MCR's two rows are refreshed back-to-back and
//! then not again for almost the whole 64 ms window (max interval 56 ms in
//! the paper's 3-bit example); with reversed wiring the max interval drops
//! to 32 ms (2x) / 16 ms (4x), which is what lets Early-Precharge and
//! Fast-Refresh stop the restore early.

/// How the refresh counter bits are wired to the row-address bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefreshWiring {
    /// K to K: refresh rows in ascending order (Fig. 8 ①).
    Direct,
    /// K to N-1-K: bit-reversed order, uniform per-MCR intervals (Fig. 8 ②).
    #[default]
    Reversed,
}

/// The device-internal refresh row-address counter.
///
/// ```
/// use dram_device::{RefreshCounter, RefreshWiring};
///
/// // The paper's Fig. 8(c): counter 0,1,2,... visits rows 0,4,2,6,...
/// let mut counter = RefreshCounter::new(3, RefreshWiring::Reversed);
/// let rows: Vec<u64> = (0..4).map(|_| counter.advance()).collect();
/// assert_eq!(rows, vec![0, 4, 2, 6]);
/// ```
#[derive(Debug, Clone)]
pub struct RefreshCounter {
    bits: u32,
    value: u64,
    wiring: RefreshWiring,
}

impl RefreshCounter {
    /// Counter for a bank with `2^bits` rows, using the given wiring.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is 0 or exceeds 63.
    pub fn new(bits: u32, wiring: RefreshWiring) -> Self {
        assert!(bits > 0 && bits < 64, "row-address width out of range");
        RefreshCounter {
            bits,
            value: 0,
            wiring,
        }
    }

    /// Number of row-address bits.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// The wiring method in use.
    pub fn wiring(&self) -> RefreshWiring {
        self.wiring
    }

    /// Raw counter value (not the row address).
    pub fn raw(&self) -> u64 {
        self.value
    }

    /// The row address the *next* REFRESH command will target.
    pub fn peek_row(&self) -> u64 {
        map_counter(self.value, self.bits, self.wiring)
    }

    /// Consumes one REFRESH command: returns the refreshed row address and
    /// increments the counter (wrapping at `2^bits`).
    pub fn advance(&mut self) -> u64 {
        let row = self.peek_row();
        self.value = (self.value + 1) & ((1u64 << self.bits) - 1);
        row
    }

    /// Skips one REFRESH slot without refreshing (Refresh-Skipping): the
    /// counter still advances so the schedule stays aligned.
    pub fn skip(&mut self) -> u64 {
        self.advance()
    }
}

fn map_counter(value: u64, bits: u32, wiring: RefreshWiring) -> u64 {
    match wiring {
        RefreshWiring::Direct => value,
        RefreshWiring::Reversed => value.reverse_bits() >> (64 - bits),
    }
}

/// The sequence of refreshed row addresses for one full counter sweep.
///
/// Matches the tables of Fig. 8(b)/(c) when called with `bits = 3`.
pub fn refresh_schedule(bits: u32, wiring: RefreshWiring) -> Vec<u64> {
    let mut c = RefreshCounter::new(bits, wiring);
    (0..1u64 << bits).map(|_| c.advance()).collect()
}

/// Maximum refresh interval, in milliseconds, experienced by any single
/// `Kx` MCR over the steady-state schedule, assuming the full sweep takes
/// `retention_ms` (64 ms per JEDEC).
///
/// An MCR group is refreshed whenever *any* of its `k` rows is the refresh
/// target, because all `k` wordlines rise together. The maximum gap between
/// consecutive visits to the same group — across the wrap-around — bounds
/// the worst-case charge leakage (paper footnote 3).
///
/// # Panics
///
/// Panics if `k` is not a power of two or exceeds the row count.
pub fn max_refresh_interval_ms(bits: u32, wiring: RefreshWiring, k: u64, retention_ms: f64) -> f64 {
    assert!(k.is_power_of_two(), "K must be a power of two");
    let rows = 1u64 << bits;
    assert!(k <= rows, "K exceeds row count");
    let schedule = refresh_schedule(bits, wiring);
    let slot_ms = retention_ms / rows as f64;
    // One pass: per group, the first and the latest visit so far.
    let mut visits: Vec<Option<(u64, u64)>> = vec![None; (rows / k) as usize];
    let mut max_gap = 0u64;
    for (i, &row) in (0u64..).zip(&schedule) {
        let group = &mut visits[(row / k) as usize];
        *group = match *group {
            None => Some((i, i)),
            Some((first, last)) => {
                max_gap = max_gap.max(i - last);
                Some((first, i))
            }
        };
    }
    for (first, last) in visits.into_iter().flatten() {
        max_gap = max_gap.max(first + rows - last); // wrap to the next sweep
    }
    max_gap as f64 * slot_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_wiring_counts_up() {
        assert_eq!(
            refresh_schedule(3, RefreshWiring::Direct),
            vec![0, 1, 2, 3, 4, 5, 6, 7]
        );
    }

    #[test]
    fn reversed_wiring_matches_fig8c() {
        // Fig. 8(c): counter 0..7 maps to rows 0,4,2,6,1,5,3,7.
        assert_eq!(
            refresh_schedule(3, RefreshWiring::Reversed),
            vec![0, 4, 2, 6, 1, 5, 3, 7]
        );
    }

    #[test]
    fn paper_fig8_max_intervals() {
        // Paper: in (b) 56 ms for 2x and 40 ms for 4x; in (c) 32 ms and 16 ms.
        let b2 = max_refresh_interval_ms(3, RefreshWiring::Direct, 2, 64.0);
        let b4 = max_refresh_interval_ms(3, RefreshWiring::Direct, 4, 64.0);
        let c2 = max_refresh_interval_ms(3, RefreshWiring::Reversed, 2, 64.0);
        let c4 = max_refresh_interval_ms(3, RefreshWiring::Reversed, 4, 64.0);
        assert_eq!(b2, 56.0);
        assert_eq!(b4, 40.0);
        assert_eq!(c2, 32.0);
        assert_eq!(c4, 16.0);
    }

    #[test]
    fn normal_rows_unaffected_by_wiring() {
        for w in [RefreshWiring::Direct, RefreshWiring::Reversed] {
            assert_eq!(max_refresh_interval_ms(3, w, 1, 64.0), 64.0);
        }
    }

    #[test]
    fn counter_wraps() {
        let mut c = RefreshCounter::new(2, RefreshWiring::Direct);
        let seq: Vec<u64> = (0..6).map(|_| c.advance()).collect();
        assert_eq!(seq, vec![0, 1, 2, 3, 0, 1]);
    }

    #[test]
    fn skip_advances_like_refresh() {
        let mut c = RefreshCounter::new(3, RefreshWiring::Reversed);
        c.advance();
        let skipped = c.skip();
        assert_eq!(skipped, 4);
        assert_eq!(c.peek_row(), 2);
    }

    #[test]
    fn reversed_uniform_for_larger_counters() {
        // With 10 row bits, a 4x MCR should see exactly 16 ms max interval.
        let i4 = max_refresh_interval_ms(10, RefreshWiring::Reversed, 4, 64.0);
        assert!((i4 - 16.0).abs() < 1e-9, "got {i4}");
        let i2 = max_refresh_interval_ms(10, RefreshWiring::Reversed, 2, 64.0);
        assert!((i2 - 32.0).abs() < 1e-9, "got {i2}");
    }
}
