//! Device-policy extension point (how the MCR layer plugs in).

use dram_device::DramAddress;
use std::any::Any;

/// What to do with one refresh slot (one tREFI tick for one rank).
///
/// The slot cadence is fixed by JEDEC (8K slots per retention window); the
/// paper's Refresh-Skipping (Fig. 9) drops a fraction of the slots whose
/// target rows lie in MCR regions, and Fast-Refresh shortens `tRFC` for
/// slots that do refresh MCR rows (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshAction {
    /// Issue a REFRESH with the baseline `tRFC`.
    Normal,
    /// Issue a REFRESH with the given `tRFC` override in cycles
    /// (Fast-Refresh).
    Fast(u32),
    /// Do not issue a REFRESH for this slot (Refresh-Skipping).
    Skip,
}

/// Per-command decisions delegated to the DRAM-architecture layer.
///
/// The baseline controller is MCR-agnostic; an implementation of this trait
/// injects the paper's three mechanisms:
/// Early-Access/Early-Precharge via `activate_class` (returning a relaxed
/// row-timing class for MCR rows) and Fast-Refresh/Refresh-Skipping via
/// `refresh_action`. Two build-time facts, `restore_classes` and
/// `max_refresh_skip`, tell the system layer how cells restore and how far
/// the refresh schedule may legally stray from JEDEC.
///
/// Owners that need an architecture-specific entry point (the MCR layer's
/// MRS reprogramming) upcast the boxed policy to `&mut dyn Any` and
/// downcast to the concrete type.
pub trait DevicePolicy: Send + Any {
    /// Row-timing class and extra raised wordlines for activating `addr`.
    ///
    /// Returns `(class, extra_wordlines)`: class 0 is the baseline timing;
    /// `extra_wordlines` is `K - 1` for a Kx MCR activation (energy
    /// accounting only).
    fn activate_class(&self, addr: &DramAddress) -> (dram_device::RowTimingClass, u32);

    /// Decision for the refresh slot whose device-internal counter (with
    /// the configured wiring) targets `slot_row` on `rank`. The default
    /// issues a normal REFRESH in every slot.
    fn refresh_action(&mut self, _rank: u8, _slot_row: u64) -> RefreshAction {
        RefreshAction::Normal
    }

    /// Row-timing classes this policy needs registered on each channel, in
    /// class-index order starting at 1 (class 0 is always baseline).
    ///
    /// Register every class the policy may ever use: classes are latched
    /// at controller construction, so a policy that supports runtime
    /// reconfiguration (MRS-driven MCR-mode change) must pre-register the
    /// classes of all reachable modes.
    fn timing_classes(&self) -> Vec<dram_device::RowTiming> {
        Vec::new()
    }

    /// Hook called once per issued ACTIVATE, after legality checks pass.
    ///
    /// Policies with per-row dynamic state (e.g. a CLR-DRAM-style
    /// coupling table) update it here; `activate_class` itself must stay
    /// `&self` because the scheduler probes candidate commands
    /// speculatively before committing to one.
    fn on_activate(&mut self, _addr: &DramAddress) {}

    /// Applies one guardband ladder rung (graceful timing degradation).
    ///
    /// The default is a no-op: a policy with no relaxed timing to give
    /// back simply ignores the ladder.
    fn apply_degrade_level(&mut self, _level: crate::guardband::DegradeLevel) {}

    /// `(M, K)` of each non-baseline timing class, in class-index order.
    /// Classes beyond this list (and an empty list) restore cells fully;
    /// MCR's partial-restore classes override this.
    fn restore_classes(&self) -> Vec<(u32, u32)> {
        Vec::new()
    }

    /// Largest legal refresh-slot skip period: 1 means every slot must
    /// issue (the JEDEC baseline contract).
    fn max_refresh_skip(&self) -> u32 {
        1
    }
}

/// Plain DDR3: class 0 for every row, a normal REFRESH in every slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselinePolicy;

impl DevicePolicy for BaselinePolicy {
    fn activate_class(&self, _addr: &DramAddress) -> (dram_device::RowTimingClass, u32) {
        (dram_device::RowTimingClass(0), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normal_policy_is_baseline() {
        let mut p = BaselinePolicy;
        let (class, extra) = p.activate_class(&DramAddress::default());
        assert_eq!(class, dram_device::RowTimingClass(0));
        assert_eq!(extra, 0);
        assert_eq!(p.refresh_action(0, 0), RefreshAction::Normal);
        assert!(p.timing_classes().is_empty());
        assert!(p.restore_classes().is_empty());
        assert_eq!(p.max_refresh_skip(), 1);
    }
}
