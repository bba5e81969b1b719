//! Pseudo profile-based page allocation (paper Sec. 4.4).
//!
//! The paper's evaluation remaps each workload's most frequently accessed
//! rows into MCRs *of the same bank* — channel, rank, bank and column bits
//! are untouched, so bank-level parallelism and row-buffer locality are
//! preserved; only the row index changes. We realize that as a per-bank
//! row *swap*: the hot row trades places with a page-allocatable MCR frame
//! (the first row of a clone group), so the mapping stays a bijection and
//! no two logical pages collide on one physical MCR.

use crate::layout::{McrLayout, RegionMap};
use dram_device::{DramAddress, Geometry, PhysAddr};
use mem_controller::AddressMapper;
use std::collections::HashMap;

/// Key identifying a bank across the system.
type BankKey = (u8, u8, u8); // (channel, rank, bank)

/// A bijective per-bank row remapping that implements pseudo profile-based
/// page allocation.
#[derive(Debug, Default)]
pub struct RowRemapper {
    /// (bank, row) → row swaps. Symmetric: if a→b then b→a.
    map: HashMap<(BankKey, u64), u64>,
    /// Number of hot rows successfully placed into MCR frames.
    placed: usize,
}

impl RowRemapper {
    /// Identity remapper (no allocation).
    pub fn identity() -> Self {
        Self::default()
    }

    /// Builds a remapper that places `hot_frames` (physical row-frame
    /// numbers in trace address space, hottest first) into MCR frames of
    /// their own bank under `layout`.
    ///
    /// `mapper` must be the same address-mapping policy the controller
    /// uses, so "same bank" means the same thing on both sides.
    ///
    /// Hot rows already sitting in an allocatable MCR frame stay put.
    /// Rows run out of frames silently (the paper's allocation ratios are
    /// well below the region capacity).
    pub fn profile_based(
        hot_frames: &[u64],
        layout: &McrLayout,
        mapper: &dyn AddressMapper,
        geometry: &Geometry,
    ) -> Self {
        Self::profile_based_regions(
            hot_frames,
            &RegionMap::single(layout.mode()),
            mapper,
            geometry,
        )
    }

    /// Tiered allocation over a [`RegionMap`] (the paper's combined
    /// 2x + 4x configuration of Sec. 4.4): hot rows fill the hottest
    /// tier's frames first, then spill into the next tier, bank by bank.
    pub fn profile_based_regions(
        hot_frames: &[u64],
        regions: &RegionMap,
        mapper: &dyn AddressMapper,
        geometry: &Geometry,
    ) -> Self {
        let row_bytes = geometry.row_bytes();
        // Per-bank supply of allocatable MCR frames, lazily constructed:
        // one ordered pool that drains tier 0 before tier 1 etc.
        let mut free: HashMap<BankKey, Vec<u64>> = HashMap::new();
        let mut map = HashMap::new();
        let mut placed = 0;
        for &frame in hot_frames {
            let dram = mapper.decode(PhysAddr(frame * row_bytes));
            let key = (dram.channel, dram.rank, dram.bank);
            let already_placed = regions
                .classify(dram.row)
                .is_some_and(|(_, r)| r.is_first_in_group(dram.row));
            if already_placed {
                placed += 1;
                continue; // already in an MCR frame
            }
            let supply = free.entry(key).or_insert_with(|| {
                // Build in reverse tier order so pop() drains the hottest
                // tier first.
                let mut pool: Vec<u64> = Vec::new();
                for region in regions.regions().iter().rev() {
                    pool.extend(region.allocatable_frames(geometry.rows_per_bank));
                }
                pool
            });
            // Find a frame not already taken by an earlier (hotter) row.
            let target = loop {
                match supply.pop() {
                    Some(f) if map.contains_key(&(key, f)) => continue,
                    other => break other,
                }
            };
            let Some(target) = target else { continue };
            if target == dram.row {
                placed += 1;
                continue;
            }
            map.insert((key, dram.row), target);
            map.insert((key, target), dram.row);
            placed += 1;
        }
        RowRemapper { map, placed }
    }

    /// Number of hot rows that ended up in MCR frames.
    pub fn placed(&self) -> usize {
        self.placed
    }

    /// Remaps decoded DRAM coordinates.
    pub fn remap_dram(&self, mut a: DramAddress) -> DramAddress {
        let key = ((a.channel, a.rank, a.bank), a.row);
        if let Some(&row) = self.map.get(&key) {
            a.row = row;
        }
        a
    }

    /// Remaps a physical address through decode → row swap → encode.
    pub fn remap_phys(&self, addr: PhysAddr, mapper: &dyn AddressMapper) -> PhysAddr {
        if self.map.is_empty() {
            return addr;
        }
        let a = mapper.decode(addr);
        let b = self.remap_dram(a);
        if a == b {
            addr
        } else {
            mapper.encode(&b)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mode::McrMode;
    use mem_controller::PageInterleave;

    fn setup() -> (McrLayout, PageInterleave, Geometry) {
        let g = Geometry::single_core_4gb();
        (
            McrLayout::new(McrMode::new(2, 2, 0.5).unwrap()),
            PageInterleave::new(g),
            g,
        )
    }

    #[test]
    fn hot_rows_land_in_mcr_frames_same_bank() {
        let (layout, mapper, g) = setup();
        // Frames 0..16 hit all 16 (bank, rank) combos of the 4 GB geometry.
        let hot: Vec<u64> = (0..16).collect();
        let rm = RowRemapper::profile_based(&hot, &layout, &mapper, &g);
        assert_eq!(rm.placed(), 16);
        for &f in &hot {
            let before = mapper.decode(PhysAddr(f * g.row_bytes()));
            let after = rm.remap_dram(before);
            assert_eq!(before.bank, after.bank, "bank must not change");
            assert_eq!(before.rank, after.rank);
            assert_eq!(before.channel, after.channel);
            assert!(layout.is_mcr_row(after.row), "hot row not in MCR region");
            assert!(layout.is_first_in_group(after.row), "data collision!");
        }
    }

    #[test]
    fn remap_is_a_bijection() {
        let (layout, mapper, g) = setup();
        let hot: Vec<u64> = (0..64).collect();
        let rm = RowRemapper::profile_based(&hot, &layout, &mapper, &g);
        // Applying the swap twice is the identity.
        for frame in 0..200u64 {
            let pa = PhysAddr(frame * g.row_bytes());
            let once = rm.remap_phys(pa, &mapper);
            let twice = rm.remap_phys(once, &mapper);
            assert_eq!(twice, pa);
        }
    }

    #[test]
    fn distinct_hot_rows_get_distinct_frames() {
        let (layout, mapper, g) = setup();
        let hot: Vec<u64> = (0..256).collect();
        let rm = RowRemapper::profile_based(&hot, &layout, &mapper, &g);
        let mut seen = std::collections::HashSet::new();
        for &f in &hot {
            let after = rm.remap_dram(mapper.decode(PhysAddr(f * g.row_bytes())));
            assert!(
                seen.insert((after.channel, after.rank, after.bank, after.row)),
                "two hot rows mapped to one MCR frame"
            );
        }
    }

    #[test]
    fn identity_remapper_is_noop() {
        let (_, mapper, _) = setup();
        let rm = RowRemapper::identity();
        assert_eq!(
            rm.remap_phys(PhysAddr(0x1234_5640), &mapper),
            PhysAddr(0x1234_5640)
        );
    }

    #[test]
    fn column_bits_preserved() {
        let (layout, mapper, g) = setup();
        let rm = RowRemapper::profile_based(&[3], &layout, &mapper, &g);
        let pa = PhysAddr(3 * g.row_bytes() + 5 * 64);
        let before = mapper.decode(pa);
        let after = mapper.decode(rm.remap_phys(pa, &mapper));
        assert_eq!(before.col, after.col);
    }
}
