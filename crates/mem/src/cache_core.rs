//! Tag array, LRU replacement and dirty bits — the state of one cache.

use crate::config::CacheConfig;
use crate::tags::{CacheTags, TagLine};

/// A line evicted by a fill.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Victim {
    /// Line-aligned address of the evicted line.
    pub line_addr: u32,
    /// Whether the line was dirty (needs a write-back).
    pub dirty: bool,
}

/// Hit/miss bookkeeping of a [`CacheCore`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheCoreStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines filled.
    pub fills: u64,
    /// Dirty lines evicted (write-backs generated).
    pub writebacks: u64,
}

impl CacheCoreStats {
    /// Total lookups.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in 0..=1 (0 when there were no accesses).
    pub fn miss_rate(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses as f64 / a as f64
        }
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Line {
    tag: u32,
    valid: bool,
    dirty: bool,
    lru: u64, // larger = more recently used
}

/// The functional content model of one cache: tags, true-LRU replacement
/// within each set, and dirty bits. Timing lives in
/// [`crate::DataCache`]/[`crate::L2`]; this type answers only *what is
/// resident*.
#[derive(Clone, Debug)]
pub struct CacheCore {
    lines: Vec<Line>, // sets * assoc, set-major
    assoc: usize,
    set_shift: u32,
    set_mask: u32,
    line_shift: u32,
    clock: u64,
    stats: CacheCoreStats,
}

impl CacheCore {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry fails [`CacheConfig::validate`].
    pub fn new(config: &CacheConfig) -> CacheCore {
        if let Err(e) = config.validate() {
            panic!("invalid cache geometry: {e}");
        }
        let sets = config.n_sets();
        CacheCore {
            lines: vec![Line::default(); (sets * config.assoc) as usize],
            assoc: config.assoc as usize,
            set_shift: config.line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            line_shift: config.line_bytes.trailing_zeros(),
            clock: 0,
            stats: CacheCoreStats::default(),
        }
    }

    /// The line-aligned address containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u32) -> u32 {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    fn set_of(&self, addr: u32) -> usize {
        ((addr >> self.set_shift) & self.set_mask) as usize
    }

    #[inline]
    fn set_lines(&mut self, set: usize) -> &mut [Line] {
        let start = set * self.assoc;
        &mut self.lines[start..start + self.assoc]
    }

    /// Looks up `addr`; on a hit updates LRU (and the dirty bit for
    /// writes) and returns `true`. Counts toward the statistics.
    pub fn access(&mut self, addr: u32, is_write: bool) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let tag = addr >> self.line_shift;
        let set = self.set_of(addr);
        for l in self.set_lines(set) {
            if l.valid && l.tag == tag {
                l.lru = clock;
                if is_write {
                    l.dirty = true;
                }
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Whether the line containing `addr` is resident, without touching
    /// LRU or statistics.
    pub fn probe(&self, addr: u32) -> bool {
        let tag = addr >> self.line_shift;
        let set = self.set_of(addr);
        let start = set * self.assoc;
        self.lines[start..start + self.assoc]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    /// Fills the line containing `addr`, evicting the LRU way if the set
    /// is full. The fill is marked dirty when `is_write` (write-allocate).
    /// Returns the evicted line, if any.
    pub fn fill(&mut self, addr: u32, is_write: bool) -> Option<Victim> {
        self.clock += 1;
        let clock = self.clock;
        let tag = addr >> self.line_shift;
        let line_shift = self.line_shift;
        let set = self.set_of(addr);
        let set_base = (set as u32) & self.set_mask;
        let set_shift = self.set_shift;
        let set_mask = self.set_mask;
        let lines = self.set_lines(set);

        // Already resident (e.g. a second miss merged by MSHRs): refresh.
        if let Some(l) = lines.iter_mut().find(|l| l.valid && l.tag == tag) {
            l.lru = clock;
            l.dirty |= is_write;
            return None;
        }

        let way = match lines.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => {
                // True LRU victim.
                match lines.iter().enumerate().min_by_key(|(_, l)| l.lru) {
                    Some((i, _)) => i,
                    None => unreachable!("associativity is at least 1"),
                }
            }
        };
        let victim = if lines[way].valid {
            let vt = lines[way].tag;
            debug_assert_eq!((vt << line_shift >> set_shift) & set_mask, set_base);
            Some(Victim {
                line_addr: vt << line_shift,
                dirty: lines[way].dirty,
            })
        } else {
            None
        };
        lines[way] = Line {
            tag,
            valid: true,
            dirty: is_write,
            lru: clock,
        };
        self.stats.fills += 1;
        if victim.is_some_and(|v| v.dirty) {
            self.stats.writebacks += 1;
        }
        victim
    }

    /// Invalidates the line containing `addr`, returning whether it was
    /// resident and dirty.
    pub fn invalidate(&mut self, addr: u32) -> Option<Victim> {
        let tag = addr >> self.line_shift;
        let line_shift = self.line_shift;
        let set = self.set_of(addr);
        for l in self.set_lines(set) {
            if l.valid && l.tag == tag {
                let v = Victim {
                    line_addr: tag << line_shift,
                    dirty: l.dirty,
                };
                l.valid = false;
                l.dirty = false;
                return Some(v);
            }
        }
        None
    }

    /// Hit/miss statistics so far.
    pub fn stats(&self) -> CacheCoreStats {
        self.stats
    }

    /// Exports the tag/LRU/dirty state (and the LRU clock) as a
    /// [`CacheTags`] snapshot. Statistics are *not* part of the snapshot:
    /// warm state is imported into fresh caches whose counters must start
    /// at zero so a detailed window measures only its own traffic.
    pub fn export_tags(&self) -> CacheTags {
        CacheTags {
            lines: self
                .lines
                .iter()
                .map(|l| TagLine {
                    tag: l.tag,
                    valid: l.valid,
                    dirty: l.dirty,
                    lru: l.lru,
                })
                .collect(),
            clock: self.clock,
        }
    }

    /// Whether a [`CacheCore::export_tags`] snapshot fits this geometry:
    /// the same line count, and every valid tag in the set it maps to.
    pub(crate) fn fits(&self, tags: &CacheTags) -> bool {
        tags.lines.len() == self.lines.len()
            && tags.lines.iter().enumerate().all(|(idx, l)| {
                !l.valid || self.set_of(l.tag << self.line_shift) == idx / self.assoc
            })
    }

    /// Imports a [`CacheCore::export_tags`] snapshot, replacing this
    /// cache's content state. Returns `false` — leaving the cache
    /// untouched — when the snapshot does not fit this geometry (wrong
    /// line count, or a valid tag that does not map to the set it sits
    /// in). Statistics are left as they are.
    pub fn import_tags(&mut self, tags: &CacheTags) -> bool {
        if !self.fits(tags) {
            return false;
        }
        self.overwrite(tags);
        true
    }

    /// Replaces the content state with a snapshot already checked by
    /// [`CacheCore::fits`].
    pub(crate) fn overwrite(&mut self, tags: &CacheTags) {
        for (dst, src) in self.lines.iter_mut().zip(&tags.lines) {
            *dst = Line {
                tag: src.tag,
                valid: src.valid,
                dirty: src.dirty,
                lru: src.lru,
            };
        }
        self.clock = tags.clock;
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheCore {
        // 2 sets x 2 ways x 16-byte lines = 64 bytes.
        CacheCore::new(&CacheConfig {
            size_bytes: 64,
            assoc: 2,
            line_bytes: 16,
            hit_latency: 1,
            ports: 1,
            mshrs: 1,
        })
    }

    #[test]
    fn cold_miss_then_hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100, false));
        assert!(c.fill(0x100, false).is_none());
        assert!(c.access(0x100, false));
        assert!(c.access(0x10f, false)); // same line
        assert!(!c.access(0x110, false)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut c = tiny();
        // Set 0 holds lines with (addr >> 4) even... set = (addr>>4) & 1.
        // Addresses 0x00, 0x20, 0x40 all map to set 0.
        c.fill(0x00, false);
        c.fill(0x20, false);
        c.access(0x00, false); // 0x00 now MRU; 0x20 is LRU
        let v = c.fill(0x40, false).unwrap();
        assert_eq!(v.line_addr, 0x20);
        assert!(!v.dirty);
        assert!(c.probe(0x00));
        assert!(!c.probe(0x20));
        assert!(c.probe(0x40));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0x00, true); // write-allocate, dirty
        c.fill(0x20, false);
        c.fill(0x40, false); // evicts 0x00 (LRU), dirty
        let s = c.stats();
        assert_eq!(s.writebacks, 1);
        assert_eq!(s.fills, 3);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.fill(0x00, false);
        assert!(c.access(0x00, true)); // dirty now
        c.fill(0x20, false);
        let v = c.fill(0x40, false).unwrap();
        assert_eq!(v.line_addr, 0x00);
        assert!(v.dirty);
    }

    #[test]
    fn refill_of_resident_line_is_a_refresh() {
        let mut c = tiny();
        c.fill(0x00, false);
        assert!(c.fill(0x00, true).is_none());
        assert_eq!(c.stats().fills, 1);
        assert_eq!(c.resident_lines(), 1);
        // The refresh set the dirty bit.
        c.fill(0x20, false);
        let v = c.fill(0x40, false).unwrap();
        assert!(v.dirty);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x00, true);
        let v = c.invalidate(0x00).unwrap();
        assert!(v.dirty);
        assert!(!c.probe(0x00));
        assert!(c.invalidate(0x00).is_none());
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = tiny();
        c.fill(0x00, false);
        c.fill(0x20, false);
        // Probing 0x00 must not refresh its LRU position.
        assert!(c.probe(0x00));
        let before = c.stats();
        assert!(c.probe(0x00));
        assert_eq!(c.stats(), before);
        let v = c.fill(0x40, false).unwrap();
        assert_eq!(v.line_addr, 0x00, "probe must not update LRU");
    }

    #[test]
    fn direct_mapped_conflicts() {
        // 4 sets x 1 way x 16B = 64B direct-mapped.
        let mut c = CacheCore::new(&CacheConfig {
            size_bytes: 64,
            assoc: 1,
            line_bytes: 16,
            hit_latency: 1,
            ports: 1,
            mshrs: 1,
        });
        c.fill(0x000, false);
        let v = c.fill(0x040, false).unwrap(); // same set, 4 sets * 16B stride
        assert_eq!(v.line_addr, 0x000);
    }

    #[test]
    fn miss_rate_arithmetic() {
        let mut c = tiny();
        assert_eq!(c.stats().miss_rate(), 0.0);
        c.access(0, false);
        c.fill(0, false);
        c.access(0, false);
        c.access(0, false);
        c.access(16, false);
        assert_eq!(c.stats().accesses(), 4);
        assert_eq!(c.stats().miss_rate(), 0.5);
    }
}
