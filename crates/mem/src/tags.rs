//! Cache tag-state snapshots and functional warmup.
//!
//! Sampled simulation needs detailed windows that do not start cold: the
//! functional fast-forward phase streams its accesses through a
//! [`FunctionalWarmup`] — a timing-free model of the same L1/LVC/L2
//! geometry — and the resulting [`HierarchyTags`] are imported into the
//! fresh [`crate::Hierarchy`] a detailed window runs on. Only *content*
//! state travels (tags, valid/dirty bits, LRU order, the LRU clock);
//! statistics stay zero so a window measures nothing but its own
//! traffic, and MSHRs/bus state start idle exactly as a cycle-0 machine
//! expects.
//!
//! Warmup is a pure function of the architectural access stream, which
//! makes it checkpoint-safe: replaying the same prefix — continuously or
//! resumed from a snapshot — produces bit-identical tags.

use dda_stats::{ByteReader, ByteWriter, DecodeError};

use crate::cache_core::CacheCore;
use crate::config::HierarchyConfig;

/// One cache line's serializable content state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TagLine {
    /// The address tag (line address >> line shift).
    pub tag: u32,
    /// Whether the line is resident.
    pub valid: bool,
    /// Whether the line is dirty.
    pub dirty: bool,
    /// LRU stamp (larger = more recently used).
    pub lru: u64,
}

/// The content state of one cache: every way of every set, set-major,
/// plus the LRU clock.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CacheTags {
    /// `sets * assoc` lines in set-major order.
    pub lines: Vec<TagLine>,
    /// The LRU clock at export time.
    pub clock: u64,
}

impl CacheTags {
    /// Number of resident (valid) lines in the snapshot.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|l| l.valid).count()
    }
}

/// Tag snapshots for a whole [`crate::Hierarchy`]: L1, optional LVC,
/// shared L2.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HierarchyTags {
    /// L1 D-cache tags.
    pub l1: CacheTags,
    /// LVC tags (`None` on a "(N+0)" machine).
    pub lvc: Option<CacheTags>,
    /// L2 tags.
    pub l2: CacheTags,
}

/// File magic for serialized hierarchy tags ("DDATAGS\0").
const MAGIC: &[u8; 8] = b"DDATAGS\0";
/// Current format version.
const VERSION: u32 = 1;

fn put_cache(w: &mut ByteWriter, tags: &CacheTags) {
    w.put_u64(tags.clock);
    w.put_u32(tags.lines.len() as u32);
    for l in &tags.lines {
        w.put_u32(l.tag);
        w.put_u8(l.valid as u8 | (l.dirty as u8) << 1);
        w.put_u64(l.lru);
    }
}

fn get_cache(r: &mut ByteReader<'_>) -> Result<CacheTags, DecodeError> {
    let clock = r.get_u64()?;
    let n = r.get_u32()? as usize;
    let mut lines = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let tag = r.get_u32()?;
        let flags = r.get_u8()?;
        if flags > 3 {
            return Err(DecodeError::Corrupt("line flags"));
        }
        let lru = r.get_u64()?;
        lines.push(TagLine {
            tag,
            valid: flags & 1 != 0,
            dirty: flags & 2 != 0,
            lru,
        });
    }
    Ok(CacheTags { lines, clock })
}

impl HierarchyTags {
    /// Serializes to a versioned binary image (the opaque cache-tag
    /// section a `dda-vm` checkpoint carries).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(64 + self.l1.lines.len() * 13);
        w.put_header(MAGIC, VERSION);
        put_cache(&mut w, &self.l1);
        match &self.lvc {
            None => w.put_u8(0),
            Some(lvc) => {
                w.put_u8(1);
                put_cache(&mut w, lvc);
            }
        }
        put_cache(&mut w, &self.l2);
        w.into_vec()
    }

    /// Decodes a [`HierarchyTags::to_bytes`] image.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on bad magic, unknown version, truncation
    /// or structural corruption. Geometry fit is checked at import time
    /// against the actual hierarchy.
    pub fn from_bytes(buf: &[u8]) -> Result<HierarchyTags, DecodeError> {
        let mut r = ByteReader::new(buf);
        r.header(MAGIC, VERSION)?;
        let l1 = get_cache(&mut r)?;
        let lvc = if r.get_bool()? {
            Some(get_cache(&mut r)?)
        } else {
            None
        };
        let l2 = get_cache(&mut r)?;
        r.finish()?;
        Ok(HierarchyTags { l1, lvc, l2 })
    }
}

/// A timing-free content model of a whole hierarchy, fed one access at a
/// time during functional fast-forward.
///
/// Routing mirrors the detailed machine's steering: local accesses go to
/// the LVC when one is configured, everything else (and everything, on a
/// baseline machine) to the L1; misses consult and fill the shared L2;
/// dirty victims write back into the L2. No MSHRs, no ports, no latency —
/// fills take effect immediately, the standard functional-warmup
/// approximation.
#[derive(Clone, Debug)]
pub struct FunctionalWarmup {
    l1: CacheCore,
    lvc: Option<CacheCore>,
    l2: CacheCore,
}

impl FunctionalWarmup {
    /// Builds an empty warmup model with the hierarchy's geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`HierarchyConfig::validate`] —
    /// the same contract as [`crate::Hierarchy::new`].
    pub fn new(config: &HierarchyConfig) -> FunctionalWarmup {
        if let Err(e) = config.validate() {
            panic!("invalid hierarchy configuration: {e}");
        }
        let l2cfg = crate::config::CacheConfig {
            size_bytes: config.l2.size_bytes,
            assoc: config.l2.assoc,
            line_bytes: config.l2.line_bytes,
            hit_latency: config.l2.latency,
            ports: 1,
            mshrs: 8,
        };
        FunctionalWarmup {
            l1: CacheCore::new(&config.l1),
            lvc: config.lvc.as_ref().map(CacheCore::new),
            l2: CacheCore::new(&l2cfg),
        }
    }

    /// Streams one architectural access through the model. `is_local` is
    /// the ground-truth stream classification (stack region), the same
    /// signal the detailed machine's steering uses.
    pub fn touch(&mut self, addr: u32, is_write: bool, is_local: bool) {
        let l2 = &mut self.l2;
        let cache = match (&mut self.lvc, is_local) {
            (Some(lvc), true) => lvc,
            _ => &mut self.l1,
        };
        if cache.access(addr, is_write) {
            return;
        }
        // Miss: the line comes from the L2 (filling it there on an L2
        // miss), and a dirty victim writes back into the L2 — the same
        // content transitions L2::request/L2::writeback perform.
        if !l2.access(addr, false) {
            l2.fill(addr, false);
        }
        if let Some(v) = cache.fill(addr, is_write) {
            if v.dirty {
                if !l2.probe(v.line_addr) {
                    l2.fill(v.line_addr, true);
                } else {
                    l2.access(v.line_addr, true);
                }
            }
        }
    }

    /// Exports the warmed tag state for import into a fresh
    /// [`crate::Hierarchy`].
    pub fn tags(&self) -> HierarchyTags {
        HierarchyTags {
            l1: self.l1.export_tags(),
            lvc: self.lvc.as_ref().map(|c| c.export_tags()),
            l2: self.l2.export_tags(),
        }
    }

    /// Replaces the model's content state with `tags` — resuming warming
    /// from a checkpointed position as if the skipped prefix had been
    /// streamed through [`FunctionalWarmup::touch`]. Returns `false`,
    /// leaving the model untouched, when the snapshot's shape does not
    /// match (LVC presence or any cache geometry).
    pub fn adopt(&mut self, tags: &HierarchyTags) -> bool {
        import_all(&mut self.l1, self.lvc.as_mut(), &mut self.l2, tags)
    }
}

/// Imports `tags` into the caches of one hierarchy all-or-nothing: every
/// cache's shape (and LVC presence) is checked before any cache changes,
/// so a mismatch leaves all of them untouched and returns `false`.
pub(crate) fn import_all(
    l1: &mut CacheCore,
    lvc: Option<&mut CacheCore>,
    l2: &mut CacheCore,
    tags: &HierarchyTags,
) -> bool {
    let lvc = match (lvc, &tags.lvc) {
        (None, None) => None,
        (Some(cache), Some(t)) => Some((cache, t)),
        _ => return false,
    };
    if !l1.fits(&tags.l1) || !l2.fits(&tags.l2) || lvc.as_ref().is_some_and(|(c, t)| !c.fits(t)) {
        return false;
    }
    l1.overwrite(&tags.l1);
    l2.overwrite(&tags.l2);
    if let Some((cache, t)) = lvc {
        cache.overwrite(t);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> HierarchyConfig {
        HierarchyConfig::n_plus_m(2, 2)
    }

    #[test]
    fn adopt_resumes_from_exported_tags() {
        let mut a = FunctionalWarmup::new(&cfg());
        let mut b = FunctionalWarmup::new(&cfg());
        let touch = |w: &mut FunctionalWarmup, i: u32| {
            w.touch(0x7fff_f000 - (i % 97) * 32, i.is_multiple_of(3), true);
            w.touch(0x2000_0000 + i * 64, i.is_multiple_of(5), false);
        };
        for i in 0..300 {
            touch(&mut a, i);
        }
        assert!(b.adopt(&a.tags()));
        for i in 300..600 {
            touch(&mut a, i);
            touch(&mut b, i);
        }
        assert_eq!(a.tags().to_bytes(), b.tags().to_bytes());
        // A baseline machine (no LVC) cannot adopt decoupled tags.
        let mut base = FunctionalWarmup::new(&HierarchyConfig::iscapaper_base());
        assert!(!base.adopt(&a.tags()));
    }

    #[test]
    fn tags_binary_round_trip() {
        let mut w = FunctionalWarmup::new(&cfg());
        for i in 0..500u32 {
            w.touch(0x2000_0000 + i * 64, i % 3 == 0, false);
            w.touch(0x7fff_f000u32.wrapping_sub(i * 8), i % 2 == 0, true);
        }
        let tags = w.tags();
        assert!(tags.l1.resident_lines() > 0);
        assert!(tags.lvc.as_ref().is_some_and(|t| t.resident_lines() > 0));
        assert!(tags.l2.resident_lines() > 0);
        let bytes = tags.to_bytes();
        assert_eq!(HierarchyTags::from_bytes(&bytes), Ok(tags));
    }

    #[test]
    fn tags_decoding_rejects_garbage() {
        assert_eq!(
            HierarchyTags::from_bytes(b"junk"),
            Err(DecodeError::BadMagic { expected: *MAGIC })
        );
        let mut bytes = FunctionalWarmup::new(&cfg()).tags().to_bytes();
        bytes[8] = 9;
        assert_eq!(
            HierarchyTags::from_bytes(&bytes),
            Err(DecodeError::BadVersion(9))
        );
        let good = FunctionalWarmup::new(&cfg()).tags().to_bytes();
        for cut in 0..good.len().min(200) {
            assert!(HierarchyTags::from_bytes(&good[..cut]).is_err());
        }
    }

    #[test]
    fn warmup_is_deterministic_and_resumable() {
        // One continuous warmup vs warm-up/export/import-by-value resume:
        // the same access stream must produce identical tags.
        let accesses: Vec<(u32, bool, bool)> = (0..1000u32)
            .map(|i| {
                let local = i % 3 != 0;
                let addr = if local {
                    0x7fff_ff00u32.wrapping_sub((i % 97) * 16)
                } else {
                    0x2000_0000 + (i % 211) * 32
                };
                (addr, i % 5 == 0, local)
            })
            .collect();
        let mut cont = FunctionalWarmup::new(&cfg());
        for &(a, w, l) in &accesses {
            cont.touch(a, w, l);
        }
        let mut first = FunctionalWarmup::new(&cfg());
        for &(a, w, l) in &accesses[..500] {
            first.touch(a, w, l);
        }
        // "Resume" through the serialized form.
        let bytes = first.tags().to_bytes();
        let restored = HierarchyTags::from_bytes(&bytes).unwrap();
        let mut second = FunctionalWarmup::new(&cfg());
        assert!(second.l1.import_tags(&restored.l1));
        if let (Some(lvc), Some(t)) = (&mut second.lvc, &restored.lvc) {
            assert!(lvc.import_tags(t));
        }
        assert!(second.l2.import_tags(&restored.l2));
        for &(a, w, l) in &accesses[500..] {
            second.touch(a, w, l);
        }
        assert_eq!(cont.tags(), second.tags());
    }

    #[test]
    fn import_rejects_wrong_geometry() {
        let small = FunctionalWarmup::new(&HierarchyConfig::n_plus_m(2, 2));
        let lvc_tags = small.tags().lvc.unwrap();
        let mut l1 = CacheCore::new(&crate::config::CacheConfig::l1_32k());
        assert!(!l1.import_tags(&lvc_tags), "LVC tags must not fit an L1");
    }

    #[test]
    fn baseline_machine_routes_local_traffic_to_l1() {
        let mut w = FunctionalWarmup::new(&HierarchyConfig::iscapaper_base());
        w.touch(0x7fff_ff00, true, true);
        let tags = w.tags();
        assert!(tags.lvc.is_none());
        assert_eq!(tags.l1.resident_lines(), 1);
    }
}
