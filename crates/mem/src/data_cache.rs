//! A first-level, lockup-free data cache (L1 D-cache or LVC).

use crate::cache_core::CacheCore;
use crate::config::CacheConfig;
use crate::l2::{L2Source, L2};
use crate::mshr::MshrFile;

/// The outcome of one timed cache access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Completion {
    /// Absolute cycle at which the data is available (loads) or the
    /// access is fully absorbed (stores).
    pub complete_at: u64,
    /// Whether the access hit in this cache (miss-merges count as
    /// misses).
    pub hit: bool,
}

/// Access statistics of a [`DataCache`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DataCacheStats {
    /// Load accesses.
    pub reads: u64,
    /// Store accesses.
    pub writes: u64,
    /// Accesses that hit.
    pub hits: u64,
    /// Primary misses (allocated an MSHR and went to the L2).
    pub misses: u64,
    /// Secondary misses merged into an outstanding MSHR.
    pub miss_merges: u64,
    /// Accesses delayed because every MSHR was busy.
    pub mshr_stalls: u64,
}

impl DataCacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// Miss rate counting merges as misses (0 if no accesses).
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            (self.misses + self.miss_merges) as f64 / a as f64
        }
    }
}

/// A lockup-free, write-back/write-allocate cache with a finite MSHR file,
/// fetching lines from a shared [`L2`].
///
/// Timing is analytic: calls must present non-decreasing `now` cycles (a
/// cycle-stepped pipeline does this naturally). Fills take architectural
/// effect when their latency has elapsed, so the content model stays
/// faithful to the timing model.
#[derive(Clone, Debug)]
pub struct DataCache {
    pub(crate) core: CacheCore,
    config: CacheConfig,
    mshrs: MshrFile,
    source: L2Source,
    stats: DataCacheStats,
    /// Line-aligned addresses of resident lines whose content has been
    /// corrupted by fault injection. A "parity check" on a later access
    /// detects (and clears) the corruption; an eviction silently drops
    /// it. Empty — and never touched — outside fault campaigns.
    poisoned: Vec<u32>,
    poison_evictions: u64,
}

impl DataCache {
    /// Builds an empty cache that identifies itself to the L2 as `source`.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig, source: L2Source) -> DataCache {
        DataCache {
            core: CacheCore::new(&config),
            mshrs: MshrFile::new(config.mshrs),
            config,
            source,
            stats: DataCacheStats::default(),
            poisoned: Vec::new(),
            poison_evictions: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Applies every fill that has completed by `now` (lines become
    /// resident, dirty victims are written back on the L2 bus).
    fn apply_completed_fills(&mut self, now: u64, l2: &mut L2) {
        for e in self.mshrs.take_completed(now) {
            if let Some(v) = self.core.fill(e.line_addr, e.any_write) {
                if v.dirty {
                    l2.writeback(now, v.line_addr);
                }
                // A poisoned victim leaves the cache unnoticed: the
                // corruption escapes without ever tripping a parity check.
                if let Some(i) = self.poisoned.iter().position(|&p| p == v.line_addr) {
                    self.poisoned.swap_remove(i);
                    self.poison_evictions += 1;
                }
            }
        }
    }

    /// Attempts a timed access at cycle `now`.
    ///
    /// Port arbitration is the caller's business (see
    /// [`crate::PortMeter`]); this method models tags, MSHRs and the L2
    /// round trip. Returns `None` when the access misses and every MSHR
    /// is busy — a structural hazard: the cache cannot even *accept* the
    /// miss, and the pipeline must retry the access on a later cycle
    /// (which keeps the number of queued misses bounded by the machine's
    /// instruction window, as in real lockup-free caches).
    pub fn try_access(
        &mut self,
        now: u64,
        addr: u32,
        is_write: bool,
        l2: &mut L2,
    ) -> Option<Completion> {
        let line = self.core.line_addr(addr);
        self.apply_completed_fills(now, l2);

        // Secondary miss: merge into the outstanding fill.
        if let Some(e) = self.mshrs.lookup(line) {
            self.count(is_write);
            self.mshrs.merge(line, is_write);
            self.stats.miss_merges += 1;
            return Some(Completion {
                complete_at: e.complete_at.max(now + self.config.hit_latency as u64),
                hit: false,
            });
        }

        if self.core.access(addr, is_write) {
            self.count(is_write);
            self.stats.hits += 1;
            return Some(Completion {
                complete_at: now + self.config.hit_latency as u64,
                hit: true,
            });
        }

        // Primary miss: needs an MSHR.
        if self.mshrs.has_free_slot() {
            self.count(is_write);
            let fill_done = l2.request(now, line, self.source);
            self.mshrs.allocate(line, fill_done, is_write);
            self.stats.misses += 1;
            return Some(Completion {
                complete_at: fill_done.max(now + self.config.hit_latency as u64),
                hit: false,
            });
        }

        // Every MSHR busy: the access is not accepted this cycle.
        // (The tag probe above counted a miss in the CacheCore stats;
        // that is faithful — the retry will probe again.)
        self.stats.mshr_stalls += 1;
        None
    }

    /// Performs a timed access at cycle `now`, waiting out MSHR
    /// exhaustion internally.
    ///
    /// Convenience wrapper over [`DataCache::try_access`] for callers
    /// without a retry loop of their own (tests, trace-driven studies):
    /// when the miss cannot be accepted, the access is retried at the
    /// cycle an MSHR frees up.
    pub fn access(&mut self, now: u64, addr: u32, is_write: bool, l2: &mut L2) -> Completion {
        let mut start = now;
        loop {
            if let Some(c) = self.try_access(start, addr, is_write, l2) {
                return c;
            }
            start = self.mshrs.earliest_free(start).max(start + 1);
        }
    }

    fn count(&mut self, is_write: bool) {
        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }
    }

    /// Whether the line containing `addr` is resident (no side effects).
    pub fn probe(&self, addr: u32) -> bool {
        self.core.probe(addr)
    }

    /// Marks the resident line containing `addr` as corrupted (fault
    /// injection). Returns `false` — and injects nothing — when the line
    /// is not resident or is already poisoned.
    pub fn poison_line(&mut self, addr: u32) -> bool {
        let line = self.core.line_addr(addr);
        if !self.core.probe(line) || self.poisoned.contains(&line) {
            return false;
        }
        self.poisoned.push(line);
        true
    }

    /// Parity check on the line containing `addr`: reports whether it was
    /// poisoned, and scrubs the poison if so (the check caught it).
    pub fn check_poison(&mut self, addr: u32) -> bool {
        let line = self.core.line_addr(addr);
        match self.poisoned.iter().position(|&p| p == line) {
            Some(i) => {
                self.poisoned.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Number of currently poisoned (corrupted, undetected) lines.
    pub fn poisoned_lines(&self) -> usize {
        self.poisoned.len()
    }

    /// Poisoned lines that were evicted without a parity check seeing
    /// them — injected corruption that escaped the cache silently.
    pub fn poison_evictions(&self) -> u64 {
        self.poison_evictions
    }

    /// Exports the content (tag/LRU/dirty) state; see
    /// [`CacheCore::export_tags`].
    pub fn export_tags(&self) -> crate::tags::CacheTags {
        self.core.export_tags()
    }

    /// Access statistics.
    pub fn stats(&self) -> DataCacheStats {
        self.stats
    }

    /// Write-backs generated by this cache's evictions so far.
    pub fn writebacks(&self) -> u64 {
        self.core.stats().writebacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::L2Config;

    fn setup() -> (DataCache, L2) {
        (
            DataCache::new(CacheConfig::l1_32k(), L2Source::L1),
            L2::new(L2Config::iscapaper_base()),
        )
    }

    #[test]
    fn hit_takes_hit_latency() {
        let (mut c, mut l2) = setup();
        let m = c.access(0, 0x2000_0000, false, &mut l2);
        assert!(!m.hit);
        assert_eq!(m.complete_at, 62); // 12 + 50
        let h = c.access(m.complete_at, 0x2000_0000, false, &mut l2);
        assert!(h.hit);
        assert_eq!(h.complete_at, m.complete_at + 2);
    }

    #[test]
    fn line_not_resident_until_fill_completes() {
        let (mut c, mut l2) = setup();
        let m = c.access(0, 0x2000_0000, false, &mut l2);
        assert!(!c.probe(0x2000_0000));
        // An access in the shadow of the fill merges, not hits.
        let merged = c.access(10, 0x2000_0004, false, &mut l2);
        assert!(!merged.hit);
        assert_eq!(merged.complete_at, m.complete_at);
        assert_eq!(c.stats().miss_merges, 1);
        // After the fill lands it is resident.
        let h = c.access(m.complete_at, 0x2000_0008, false, &mut l2);
        assert!(h.hit);
        assert!(c.probe(0x2000_0000));
    }

    #[test]
    fn merged_write_dirties_the_fill() {
        let (mut c, mut l2) = setup();
        c.access(0, 0x2000_0000, false, &mut l2); // read miss
        c.access(1, 0x2000_0004, true, &mut l2); // merged write
                                                 // Land the fill, then evict it by filling conflicting lines.
        c.access(100, 0x2000_0000, false, &mut l2);
        let before = c.writebacks();
        // 32KB 2-way, 512 sets * 32B => same-set stride is 16 KB.
        let m1 = c.access(200, 0x2000_4000, false, &mut l2);
        let m2 = c.access(m1.complete_at, 0x2000_8000, false, &mut l2);
        let m3 = c.access(m2.complete_at, 0x2000_c000, false, &mut l2);
        c.access(m3.complete_at + 100, 0x2001_0000, false, &mut l2);
        // Let all fills land.
        c.access(5000, 0x2000_4000, false, &mut l2);
        assert!(
            c.writebacks() > before,
            "dirty line from merged write was evicted"
        );
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let cfg = CacheConfig {
            mshrs: 1,
            ..CacheConfig::l1_32k()
        };
        let mut c = DataCache::new(cfg, L2Source::L1);
        let mut l2 = L2::new(L2Config::iscapaper_base());
        let a = c.access(0, 0x2000_0000, false, &mut l2);
        let b = c.access(0, 0x3000_0000, false, &mut l2);
        assert!(
            b.complete_at > a.complete_at,
            "second miss waited for the only MSHR"
        );
        assert_eq!(c.stats().mshr_stalls, 1);
    }

    #[test]
    fn stats_accounting() {
        let (mut c, mut l2) = setup();
        c.access(0, 0x2000_0000, false, &mut l2);
        c.access(100, 0x2000_0000, true, &mut l2);
        c.access(200, 0x2000_0000, false, &mut l2);
        let s = c.stats();
        assert_eq!(s.reads, 2);
        assert_eq!(s.writes, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 2);
        assert!((s.miss_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn lvc_geometry_one_cycle_hits() {
        let mut c = DataCache::new(CacheConfig::lvc_2k(), L2Source::Lvc);
        let mut l2 = L2::new(L2Config::iscapaper_base());
        let sp = 0x7fff_ff00;
        let m = c.access(0, sp, true, &mut l2);
        let h = c.access(m.complete_at, sp, false, &mut l2);
        assert!(h.hit);
        assert_eq!(h.complete_at, m.complete_at + 1);
        assert_eq!(l2.stats().requests_from_lvc, 1);
    }
}
