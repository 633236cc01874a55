//! Serializable architectural checkpoints.
//!
//! A [`Checkpoint`] captures everything [`crate::Vm::restore`] needs to
//! rebuild a machine whose future is *bit-identical* to the one it was
//! taken from: registers, the resident [`crate::SparseMemory`] pages,
//! `sp_version`, call depths and the halted flag. The translation cache
//! is never persisted: it is a host-side memo of decoded blocks, not
//! machine state, so a restored machine starts with an empty cache and
//! re-decodes each block on first use.
//!
//! Checkpoints are content-addressed by a [`CheckpointKey`] — the
//! `(program hash, instruction index, config hash)` triple — so a sweep
//! worker can ask "has anyone already fast-forwarded this program to
//! instruction N under this config?" and resume instead of re-simulating
//! the prefix. The key is stored inside the snapshot and checked by the
//! store layer; [`crate::Vm::restore`] itself only validates structure.
//!
//! The binary format is versioned (magic + version word) and built on
//! [`dda_stats::ByteWriter`] fixed-width little-endian framing. An
//! optional opaque cache-tag section rides along for `dda-mem`'s
//! hierarchy tag snapshot, kept opaque here so the VM crate stays
//! ignorant of cache geometry.

use dda_stats::{ByteReader, ByteWriter, DecodeError};

/// File magic: identifies a DDA checkpoint ("DDACKPT\0").
const MAGIC: &[u8; 8] = b"DDACKPT\0";
/// Current format version.
const VERSION: u32 = 2;
/// One serialized memory page (must match `SparseMemory`'s page size).
const PAGE_BYTES: usize = 4096;

/// The content address of a checkpoint: which program, how far into it,
/// and under which machine configuration the optional warm state was
/// gathered.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct CheckpointKey {
    /// Stable hash of the program image (e.g. `fnv1a64` of its listing).
    pub program_hash: u64,
    /// Architectural instruction index the snapshot was taken at.
    pub inst_index: u64,
    /// Stable hash of the machine configuration.
    pub config_hash: u64,
}

/// A compact, versioned snapshot of one [`crate::Vm`]'s architectural
/// state, optionally carrying cache-tag warm state for the detailed
/// model.
#[derive(Clone, PartialEq, Debug)]
pub struct Checkpoint {
    /// Content address of this snapshot.
    pub key: CheckpointKey,
    /// Program counter.
    pub pc: u32,
    /// Whether the machine had halted.
    pub halted: bool,
    /// Current call depth.
    pub call_depth: u32,
    /// Deepest call depth reached.
    pub max_call_depth: u32,
    /// `$sp` write counter.
    pub sp_version: u64,
    /// General-purpose registers.
    pub gpr: [i32; 32],
    /// Floating-point registers as IEEE-754 bit patterns (NaN payloads
    /// survive the round trip).
    pub fpr_bits: [u64; 32],
    /// Resident memory pages as `(page index, 4096 bytes)` in ascending
    /// page order.
    pub pages: Vec<(u32, Vec<u8>)>,
    /// Opaque cache-tag section (a `dda-mem` hierarchy tag snapshot);
    /// the VM layer carries it without interpreting it.
    pub cache_tags: Option<Vec<u8>>,
}

impl Checkpoint {
    /// Serializes to the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(256 + self.pages.len() * (PAGE_BYTES + 4));
        w.put_header(MAGIC, VERSION);
        w.put_u64(self.key.program_hash);
        w.put_u64(self.key.inst_index);
        w.put_u64(self.key.config_hash);
        w.put_u32(self.pc);
        w.put_u8(self.halted as u8);
        w.put_u32(self.call_depth);
        w.put_u32(self.max_call_depth);
        w.put_u64(self.sp_version);
        for g in self.gpr {
            w.put_u32(g as u32);
        }
        for fb in self.fpr_bits {
            w.put_u64(fb);
        }
        w.put_u32(self.pages.len() as u32);
        for (index, bytes) in &self.pages {
            w.put_u32(*index);
            w.put_raw(bytes);
        }
        match &self.cache_tags {
            None => w.put_u8(0),
            Some(tags) => {
                w.put_u8(1);
                w.put_bytes(tags);
            }
        }
        w.into_vec()
    }

    /// Decodes the versioned binary format.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on bad magic, an unknown version, a
    /// truncated buffer, or structurally invalid fields. Decoding
    /// validates *structure* only; program fit (the resume pc) is
    /// validated by [`crate::Vm::restore`] against the actual program.
    pub fn from_bytes(buf: &[u8]) -> Result<Checkpoint, DecodeError> {
        let mut r = ByteReader::new(buf);
        r.header(MAGIC, VERSION)?;
        let key = CheckpointKey {
            program_hash: r.get_u64()?,
            inst_index: r.get_u64()?,
            config_hash: r.get_u64()?,
        };
        let pc = r.get_u32()?;
        let halted = r.get_bool()?;
        let call_depth = r.get_u32()?;
        let max_call_depth = r.get_u32()?;
        let sp_version = r.get_u64()?;
        let mut gpr = [0i32; 32];
        for g in &mut gpr {
            *g = r.get_u32()? as i32;
        }
        let mut fpr_bits = [0u64; 32];
        for fb in &mut fpr_bits {
            *fb = r.get_u64()?;
        }
        let n_pages = r.get_u32()? as usize;
        let mut pages = Vec::with_capacity(n_pages.min(1 << 16));
        let mut last_index: Option<u32> = None;
        for _ in 0..n_pages {
            let index = r.get_u32()?;
            if let Some(prev) = last_index {
                if index <= prev {
                    return Err(DecodeError::Corrupt("page indices not ascending"));
                }
            }
            last_index = Some(index);
            let bytes = r.get_raw(PAGE_BYTES)?.to_vec();
            pages.push((index, bytes));
        }
        let cache_tags = if r.get_bool()? {
            Some(r.get_bytes()?.to_vec())
        } else {
            None
        };
        r.finish()?;
        Ok(Checkpoint {
            key,
            pc,
            halted,
            call_depth,
            max_call_depth,
            sp_version,
            gpr,
            fpr_bits,
            pages,
            cache_tags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        Checkpoint {
            key: CheckpointKey {
                program_hash: 0xAAAA,
                inst_index: 1234,
                config_hash: 0xBBBB,
            },
            pc: 42,
            halted: false,
            call_depth: 3,
            max_call_depth: 9,
            sp_version: 17,
            gpr: core::array::from_fn(|i| i as i32 - 16),
            fpr_bits: core::array::from_fn(|i| (i as u64) << 32 | 0x7ff8_0001),
            pages: vec![(1, vec![0xAB; 4096]), (5, vec![0xCD; 4096])],
            cache_tags: Some(vec![1, 2, 3]),
        }
    }

    #[test]
    fn binary_round_trip() {
        let ck = sample();
        let bytes = ck.to_bytes();
        let back = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ck, back);
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        assert_eq!(
            Checkpoint::from_bytes(b"nope"),
            Err(DecodeError::BadMagic { expected: *MAGIC })
        );
        let mut bytes = sample().to_bytes();
        bytes[8] = 99; // version word
        assert_eq!(
            Checkpoint::from_bytes(&bytes),
            Err(DecodeError::BadVersion(99))
        );
    }
}
