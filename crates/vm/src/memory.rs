//! Sparse, page-granular data memory.

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
/// log2 of the pages one leaf covers: 1 024 pages, 4 MB of address space.
const LEAF_BITS: u32 = 10;
const LEAF_PAGES: usize = 1 << LEAF_BITS;
const N_LEAVES: usize = 1 << (32 - PAGE_SHIFT - LEAF_BITS);
const N_PAGES: usize = N_LEAVES * LEAF_PAGES;

// Page-table lookups sit on the hot path of every simulated memory
// access, and every detailed cell, sampled window and fuzz input builds,
// clones or drops a VM, so the table is a fixed two-level radix tree
// indexed by page number: a directory of 1 024 leaf slots (8 KB of
// pointers), one per 4 MB of address space, and leaves of 1 024 page
// slots (8 KB each) allocated on the first write into their 4 MB. A
// lookup is two dependent loads with no hashing and no bounds checks
// (both indices fit their fixed-size arrays by construction). Building,
// cloning and dropping a memory costs the directory plus the leaves and
// pages actually touched; a workload touches a handful of leaves.
type Page = Box<[u8; PAGE_SIZE]>;
type Leaf = [Option<Page>; LEAF_PAGES];
type Directory = [Option<Box<Leaf>>; N_LEAVES];

const NO_PAGE: Option<Page> = None;
const NO_LEAF: Option<Box<Leaf>> = None;

/// Splits a page number into its (directory, leaf) slot indices.
#[inline]
fn split(page: usize) -> (usize, usize) {
    (page >> LEAF_BITS, page & (LEAF_PAGES - 1))
}

/// The slot of page number `page` (< `N_PAGES`), allocating its leaf on
/// the first touch of the leaf's 4 MB.
#[inline]
fn slot_mut(dir: &mut Directory, page: usize) -> &mut Option<Page> {
    let (d, l) = split(page);
    &mut dir[d].get_or_insert_with(|| Box::new([NO_PAGE; LEAF_PAGES]))[l]
}

/// A sparse 32-bit byte-addressable memory.
///
/// Pages (4 KB) are allocated on first write; reads of untouched memory
/// return zero, matching the zero-initialised `.bss`/stack semantics the
/// synthetic workloads rely on. All multi-byte accesses are little-endian.
/// Alignment is *not* checked here — the [`crate::Vm`] enforces it so that
/// misalignment errors carry the faulting pc.
#[derive(Clone, Debug)]
pub struct SparseMemory {
    dir: Box<Directory>,
    resident: usize,
}

impl Default for SparseMemory {
    fn default() -> SparseMemory {
        SparseMemory {
            dir: Box::new([NO_LEAF; N_LEAVES]),
            resident: 0,
        }
    }
}

impl SparseMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> SparseMemory {
        SparseMemory::default()
    }

    /// Number of 4 KB pages currently materialised.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&[u8; PAGE_SIZE]> {
        let (d, l) = split((addr >> PAGE_SHIFT) as usize);
        self.dir[d].as_ref()?[l].as_deref()
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut [u8; PAGE_SIZE] {
        let resident = &mut self.resident;
        slot_mut(&mut self.dir, (addr >> PAGE_SHIFT) as usize).get_or_insert_with(|| {
            *resident += 1;
            Box::new([0; PAGE_SIZE])
        })
    }

    /// Iterates the resident pages as `(page_index, bytes)` pairs in
    /// ascending page order — the serialization view used by checkpoints.
    pub fn resident_page_bytes(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        self.dir.iter().enumerate().flat_map(|(d, leaf)| {
            leaf.iter().flat_map(move |leaf| {
                leaf.iter().enumerate().filter_map(move |(l, p)| {
                    p.as_deref()
                        .map(|p| (((d << LEAF_BITS) | l) as u32, &p[..]))
                })
            })
        })
    }

    /// Materialises the page `index` with the given contents, replacing
    /// whatever was there. Returns `false` (without touching memory) if
    /// `index` is out of range or `bytes` is not exactly one page —
    /// checkpoint decoding treats that as corruption.
    pub fn install_page(&mut self, index: u32, bytes: &[u8]) -> bool {
        if index as usize >= N_PAGES || bytes.len() != PAGE_SIZE {
            return false;
        }
        let mut page = Box::new([0u8; PAGE_SIZE]);
        page.copy_from_slice(bytes);
        let slot = slot_mut(&mut self.dir, index as usize);
        self.resident += usize::from(slot.is_none());
        *slot = Some(page);
        true
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u32, v: u8) {
        self.page_mut(addr)[(addr as usize) & (PAGE_SIZE - 1)] = v;
    }

    /// Reads `N` little-endian bytes starting at `addr` (which may cross a
    /// page boundary; the address space wraps modulo 2³²).
    ///
    /// The common within-page case resolves the page once; only accesses
    /// straddling a 4 KB boundary fall back to byte-at-a-time.
    pub fn read_bytes<const N: usize>(&self, addr: u32) -> [u8; N] {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        let mut out = [0u8; N];
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                out.copy_from_slice(&p[off..off + N]);
            }
        } else {
            for (i, b) in out.iter_mut().enumerate() {
                *b = self.read_u8(addr.wrapping_add(i as u32));
            }
        }
        out
    }

    /// Writes `N` little-endian bytes starting at `addr`.
    pub fn write_bytes<const N: usize>(&mut self, addr: u32, bytes: [u8; N]) {
        let off = (addr as usize) & (PAGE_SIZE - 1);
        if off + N <= PAGE_SIZE {
            self.page_mut(addr)[off..off + N].copy_from_slice(&bytes);
        } else {
            for (i, b) in bytes.into_iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), b);
            }
        }
    }

    /// Reads a 16-bit little-endian value.
    #[inline]
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a 16-bit little-endian value.
    #[inline]
    pub fn write_u16(&mut self, addr: u32, v: u16) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Reads a 32-bit little-endian value.
    #[inline]
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a 32-bit little-endian value.
    #[inline]
    pub fn write_u32(&mut self, addr: u32, v: u32) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Reads a 64-bit little-endian value.
    #[inline]
    pub fn read_u64(&self, addr: u32) -> u64 {
        u64::from_le_bytes(self.read_bytes(addr))
    }

    /// Writes a 64-bit little-endian value.
    #[inline]
    pub fn write_u64(&mut self, addr: u32, v: u64) {
        self.write_bytes(addr, v.to_le_bytes());
    }

    /// Reads an `f64` stored with [`SparseMemory::write_f64`].
    #[inline]
    pub fn read_f64(&self, addr: u32) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    #[inline]
    pub fn write_f64(&mut self, addr: u32, v: f64) {
        self.write_u64(addr, v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = SparseMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_beec), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trips_all_widths() {
        let mut m = SparseMemory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        m.write_f64(48, -1.25);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_f64(48), -1.25);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = SparseMemory::new();
        m.write_u32(100, 0x0403_0201);
        assert_eq!(m.read_u8(100), 1);
        assert_eq!(m.read_u8(101), 2);
        assert_eq!(m.read_u8(102), 3);
        assert_eq!(m.read_u8(103), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = SparseMemory::new();
        let boundary = PAGE_SIZE as u32 - 2;
        m.write_u32(boundary, 0x1122_3344);
        assert_eq!(m.read_u32(boundary), 0x1122_3344);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn writes_are_isolated_per_address() {
        let mut m = SparseMemory::new();
        m.write_u32(0, 0xffff_ffff);
        m.write_u8(1, 0);
        assert_eq!(m.read_u32(0), 0xffff_00ff);
    }

    #[test]
    fn page_export_and_install_round_trip() {
        let mut m = SparseMemory::new();
        m.write_u32(0x1000, 0xdead_beef);
        m.write_u8(0x5000, 7);
        let pages: Vec<(u32, Vec<u8>)> = m
            .resident_page_bytes()
            .map(|(i, b)| (i, b.to_vec()))
            .collect();
        assert_eq!(pages.len(), 2);
        assert_eq!(pages[0].0, 1);
        assert_eq!(pages[1].0, 5);
        let mut n = SparseMemory::new();
        for (i, b) in &pages {
            assert!(n.install_page(*i, b));
        }
        assert_eq!(n.read_u32(0x1000), 0xdead_beef);
        assert_eq!(n.read_u8(0x5000), 7);
        assert_eq!(n.resident_pages(), 2);
        // Corrupt installs are rejected without touching state.
        assert!(!n.install_page(0, &[0u8; 3]));
        assert!(!n.install_page(1 << 20, &[0u8; PAGE_SIZE]));
        assert!(!n.install_page(u32::MAX, &[0u8; PAGE_SIZE]));
        assert_eq!(n.resident_pages(), 2);
        assert_eq!(n.resident_page_bytes().count(), 2);
    }

    #[test]
    fn access_straddling_a_leaf_boundary() {
        // The last page of leaf 0 and the first page of leaf 1.
        let mut m = SparseMemory::new();
        m.write_u32(0x003f_fffe, 0x1122_3344);
        assert_eq!(m.read_u32(0x003f_fffe), 0x1122_3344);
        assert_eq!(m.resident_pages(), 2);
        let mut m = SparseMemory::new();
        m.write_u64(0x003f_fffc, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(0x003f_fffc), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u32(0x0040_0000), 0x0102_0304);
        assert_eq!(m.resident_pages(), 2);
        let pages: Vec<u32> = m.resident_page_bytes().map(|(i, _)| i).collect();
        assert_eq!(pages, [1023, 1024]);
    }

    #[test]
    fn access_wraps_at_the_top_of_the_address_space() {
        let mut m = SparseMemory::new();
        m.write_u64(0xffff_fffc, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u64(0xffff_fffc), 0x0102_0304_0506_0708);
        assert_eq!(m.read_u32(0xffff_fffc), 0x0506_0708);
        assert_eq!(m.read_u32(0), 0x0102_0304);
        let pages: Vec<u32> = m.resident_page_bytes().map(|(i, _)| i).collect();
        assert_eq!(pages, [0, (N_PAGES - 1) as u32]);
    }

    #[test]
    fn pages_installed_across_leaves_export_in_ascending_order() {
        let mut m = SparseMemory::new();
        let top = (N_PAGES - 1) as u32;
        for i in [5_000, 3, 1_023, 1_024, top] {
            assert!(m.install_page(i, &[i as u8; PAGE_SIZE]));
        }
        assert_eq!(m.resident_pages(), 5);
        let pages: Vec<(u32, u8)> = m.resident_page_bytes().map(|(i, b)| (i, b[0])).collect();
        assert_eq!(
            pages,
            [3, 1_023, 1_024, 5_000, top].map(|i| (i, i as u8)).to_vec()
        );
        // Reinstalling a resident page replaces it without a new page.
        assert!(m.install_page(1_024, &[9; PAGE_SIZE]));
        assert_eq!(m.resident_pages(), 5);
        assert_eq!(m.read_u8(1_024 << PAGE_SHIFT), 9);
    }

    #[test]
    fn clones_are_deep() {
        let mut a = SparseMemory::new();
        a.write_u32(0x1000, 7);
        let mut b = a.clone();
        b.write_u32(0x1000, 8);
        b.write_u32(0x8000_0000, 9);
        assert_eq!(a.read_u32(0x1000), 7);
        assert_eq!(a.read_u32(0x8000_0000), 0);
        assert_eq!(a.resident_pages(), 1);
        assert_eq!(b.read_u32(0x1000), 8);
        assert_eq!(b.resident_pages(), 2);
    }

    #[test]
    fn nan_bit_patterns_survive() {
        let mut m = SparseMemory::new();
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        m.write_f64(8, weird);
        assert_eq!(m.read_f64(8).to_bits(), weird.to_bits());
    }
}
