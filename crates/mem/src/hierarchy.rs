//! The assembled data-memory hierarchy.

use crate::config::{HierarchyConfig, HierarchyConfigError};
use crate::data_cache::{Completion, DataCache, DataCacheStats};
use crate::l2::{L2Source, L2Stats, L2};

/// The whole data-memory side of the machine: L1 D-cache, optional LVC,
/// shared L2 + memory.
///
/// The out-of-order core claims a cache port from its
/// [`crate::PortMeter`]s when a memory instruction enters the memory
/// pipeline (address generation), then performs the timed access through
/// [`Hierarchy::l1_access`] / [`Hierarchy::lvc_access`] — loads when
/// disambiguated, stores at commit.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    config: HierarchyConfig,
    l1: DataCache,
    lvc: Option<DataCache>,
    l2: L2,
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`HierarchyConfig::validate`];
    /// use [`Hierarchy::try_new`] to handle invalid geometries.
    pub fn new(config: HierarchyConfig) -> Hierarchy {
        match Hierarchy::try_new(config) {
            Ok(h) => h,
            Err(e) => panic!("invalid hierarchy configuration: {e}"),
        }
    }

    /// Builds an empty hierarchy, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns the first invalid cache geometry, tagged with which cache
    /// it belongs to.
    pub fn try_new(config: HierarchyConfig) -> Result<Hierarchy, HierarchyConfigError> {
        config.validate()?;
        Ok(Hierarchy {
            config,
            l1: DataCache::new(config.l1, L2Source::L1),
            lvc: config.lvc.map(|c| DataCache::new(c, L2Source::Lvc)),
            l2: L2::new(config.l2),
        })
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> HierarchyConfig {
        self.config
    }

    /// Whether an LVC is present (a "(N+M)" machine with M > 0).
    pub fn has_lvc(&self) -> bool {
        self.lvc.is_some()
    }

    /// Timed access through the L1 D-cache.
    pub fn l1_access(&mut self, now: u64, addr: u32, is_write: bool) -> Completion {
        self.l1.access(now, addr, is_write, &mut self.l2)
    }

    /// Non-blocking access through the L1: `None` when the miss cannot be
    /// accepted because every MSHR is busy (retry next cycle).
    pub fn l1_try_access(&mut self, now: u64, addr: u32, is_write: bool) -> Option<Completion> {
        self.l1.try_access(now, addr, is_write, &mut self.l2)
    }

    /// Non-blocking access through the LVC; see
    /// [`Hierarchy::l1_try_access`].
    ///
    /// # Panics
    ///
    /// Panics if the machine has no LVC.
    pub fn lvc_try_access(&mut self, now: u64, addr: u32, is_write: bool) -> Option<Completion> {
        match self.lvc.as_mut() {
            Some(lvc) => lvc.try_access(now, addr, is_write, &mut self.l2),
            None => panic!("machine has no LVC"),
        }
    }

    /// Timed access through the LVC.
    ///
    /// # Panics
    ///
    /// Panics if the machine has no LVC; the core must steer local
    /// accesses to the L1 when decoupling is off.
    pub fn lvc_access(&mut self, now: u64, addr: u32, is_write: bool) -> Completion {
        match self.lvc.as_mut() {
            Some(lvc) => lvc.access(now, addr, is_write, &mut self.l2),
            None => panic!("machine has no LVC"),
        }
    }

    /// Marks the resident L1 line containing `addr` as corrupted (fault
    /// injection); `false` when the line is not resident.
    pub fn l1_poison_line(&mut self, addr: u32) -> bool {
        self.l1.poison_line(addr)
    }

    /// Marks the resident LVC line containing `addr` as corrupted; `false`
    /// when there is no LVC or the line is not resident.
    pub fn lvc_poison_line(&mut self, addr: u32) -> bool {
        self.lvc.as_mut().is_some_and(|c| c.poison_line(addr))
    }

    /// Parity check on the L1 line containing `addr`: whether it was
    /// poisoned (the poison is scrubbed when detected).
    pub fn l1_check_poison(&mut self, addr: u32) -> bool {
        self.l1.check_poison(addr)
    }

    /// Parity check on the LVC line containing `addr`; `false` when there
    /// is no LVC.
    pub fn lvc_check_poison(&mut self, addr: u32) -> bool {
        self.lvc.as_mut().is_some_and(|c| c.check_poison(addr))
    }

    /// Poisoned lines still resident and undetected, across both caches.
    pub fn poisoned_lines(&self) -> usize {
        self.l1.poisoned_lines() + self.lvc.as_ref().map_or(0, |c| c.poisoned_lines())
    }

    /// Poisoned lines evicted without detection, across both caches.
    pub fn poison_evictions(&self) -> u64 {
        self.l1.poison_evictions() + self.lvc.as_ref().map_or(0, |c| c.poison_evictions())
    }

    /// Exports the tag state of all three caches (for checkpoints and
    /// warm-window hand-off).
    pub fn export_tags(&self) -> crate::tags::HierarchyTags {
        crate::tags::HierarchyTags {
            l1: self.l1.export_tags(),
            lvc: self.lvc.as_ref().map(|c| c.export_tags()),
            l2: self.l2.export_tags(),
        }
    }

    /// Imports warm tag state into this (fresh) hierarchy. Returns
    /// `false` — leaving every cache untouched — when the snapshot's
    /// shape does not match (LVC presence or any cache geometry).
    pub fn import_tags(&mut self, tags: &crate::tags::HierarchyTags) -> bool {
        crate::tags::import_all(
            &mut self.l1.core,
            self.lvc.as_mut().map(|c| &mut c.core),
            &mut self.l2.core,
            tags,
        )
    }

    /// L1 statistics.
    pub fn l1_stats(&self) -> DataCacheStats {
        self.l1.stats()
    }

    /// LVC statistics (`None` when no LVC is configured).
    pub fn lvc_stats(&self) -> Option<DataCacheStats> {
        self.lvc.as_ref().map(|c| c.stats())
    }

    /// L2/bus statistics.
    pub fn l2_stats(&self) -> L2Stats {
        self.l2.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_machine_has_no_lvc() {
        let h = Hierarchy::new(HierarchyConfig::iscapaper_base());
        assert!(!h.has_lvc());
        assert!(h.lvc_stats().is_none());
    }

    #[test]
    #[should_panic(expected = "no LVC")]
    fn lvc_access_without_lvc_panics() {
        let mut h = Hierarchy::new(HierarchyConfig::n_plus_m(2, 0));
        h.lvc_access(0, 0x7fff_ff00, false);
    }

    #[test]
    fn l1_and_lvc_share_the_l2() {
        let mut h = Hierarchy::new(HierarchyConfig::n_plus_m(2, 2));
        assert!(h.has_lvc());
        h.l1_access(0, 0x2000_0000, false);
        h.lvc_access(0, 0x7fff_ff00, true);
        let l2 = h.l2_stats();
        assert_eq!(l2.requests_from_l1, 1);
        assert_eq!(l2.requests_from_lvc, 1);
    }

    #[test]
    fn lvc_hits_are_one_cycle() {
        let mut h = Hierarchy::new(HierarchyConfig::n_plus_m(2, 2));
        let sp = 0x7fff_ff00;
        let m = h.lvc_access(0, sp, true);
        let hit = h.lvc_access(m.complete_at, sp, false);
        assert!(hit.hit);
        assert_eq!(hit.complete_at - m.complete_at, 1);
    }

    #[test]
    fn dirty_lvc_victims_write_back_through_the_shared_bus() {
        let mut h = Hierarchy::new(HierarchyConfig::n_plus_m(1, 1));
        // Two stack lines that conflict in the 2 KB direct-mapped LVC.
        let a = 0x7fff_f000u32;
        let b = a - 2048;
        let t1 = h.lvc_access(0, a, true).complete_at; // dirty fill of a
        let t2 = h.lvc_access(t1, b, true).complete_at; // evicts a (dirty)
                                                        // Let the second fill land so the eviction happens.
        h.lvc_access(t2 + 1, b, false);
        let l2 = h.l2_stats();
        assert_eq!(l2.requests_from_lvc, 2);
        assert!(l2.writebacks_in >= 1, "dirty victim must reach the L2");
    }

    #[test]
    fn hierarchy_timing_is_monotone_under_interleaved_traffic() {
        let mut h = Hierarchy::new(HierarchyConfig::n_plus_m(2, 2));
        let mut last = 0;
        for i in 0..200u32 {
            let stack = 0x7fff_0000 + (i % 64) * 32;
            let heap = 0x2000_0000 + i * 32;
            let a = h.lvc_access(i as u64, stack, i % 3 == 0);
            let b = h.l1_access(i as u64, heap, i % 5 == 0);
            assert!(a.complete_at > i as u64);
            assert!(b.complete_at > i as u64);
            last = last.max(a.complete_at).max(b.complete_at);
        }
        assert!(last > 200);
        // All primary misses flowed through the single shared bus.
        let l2 = h.l2_stats();
        assert!(l2.requests_from_l1 > 0 && l2.requests_from_lvc > 0);
    }

    #[test]
    fn config_accessor_round_trips() {
        let cfg = HierarchyConfig::n_plus_m(3, 2);
        let h = Hierarchy::new(cfg);
        assert_eq!(h.config(), cfg);
    }

    #[test]
    fn disjoint_streams_never_share_lines() {
        // A stack line cached in the LVC is never requested by the L1 and
        // vice versa when streams are classified exactly; this test just
        // pins the bookkeeping apart.
        let mut h = Hierarchy::new(HierarchyConfig::n_plus_m(1, 1));
        let stack = 0x7fff_fe00;
        let heap = 0x2000_0000;
        let a = h.lvc_access(0, stack, true);
        let b = h.l1_access(0, heap, true);
        h.lvc_access(a.complete_at, stack, false);
        h.l1_access(b.complete_at, heap, false);
        assert_eq!(h.lvc_stats().unwrap().accesses(), 2);
        assert_eq!(h.l1_stats().accesses(), 2);
        assert_eq!(h.l2_stats().requests(), 2);
    }
}
