//! Sparse page-granular simulated memory.

use std::sync::Arc;

use crate::{Addr, BLOCK_BYTES};

const PAGE_SHIFT: u32 = 12;
/// Size of one simulated memory page in bytes (the CoW sharing granule).
pub const PAGE_BYTES: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_BYTES as u32) - 1;
/// Page slots per second-level table (leaf); the 32-bit address space
/// has `LEAF_SLOTS * LEAF_SLOTS` pages.
const LEAF_BITS: u32 = 10;
const LEAF_SLOTS: usize = 1 << LEAF_BITS;
const NUM_PAGES: usize = LEAF_SLOTS * LEAF_SLOTS;

/// Pages are reference-counted so cloning a memory image copies page
/// *pointers*, not page *data*; writes un-share lazily.
type Page = Arc<[u8; PAGE_BYTES]>;
/// A second-level table: the page slots of one 4 MB region.
type Leaf = [Option<Page>; LEAF_SLOTS];

/// A sparse, byte-addressable simulated 32-bit memory.
///
/// Pages are allocated lazily on first write; reads of untouched memory
/// return zero, which conveniently never looks like a heap pointer to the
/// CDP compare-bits predictor.
///
/// The page table has two levels: a root of 1024 optional leaves, each
/// holding 1024 page slots, with a leaf allocated on the first write into
/// its 4 MB region. An image therefore costs memory (and clone and drop
/// time) in proportion to the regions it touches, not to the whole 32-bit
/// space.
///
/// Cloning is copy-on-write: the clone shares every resident page with
/// the original, and either side transparently un-shares a page the
/// first time it writes to it. Clones therefore behave exactly like deep
/// copies while costing only a copy of the resident leaves' page
/// pointers — which is what lets the engine treat
/// `trace.initial_memory.clone()` as a cheap per-run snapshot restore.
///
/// All multi-byte accessors are little-endian (the modelled ISA is x86) and
/// impose no alignment requirements.
///
/// # Example
///
/// ```
/// use sim_mem::SimMemory;
///
/// let mut mem = SimMemory::new();
/// mem.write_u32(0x4000_0000, 42);
/// assert_eq!(mem.read_u32(0x4000_0000), 42);
/// assert_eq!(mem.read_u32(0x5000_0000), 0); // untouched => zero
/// ```
pub struct SimMemory {
    leaves: Box<[Option<Box<Leaf>>; LEAF_SLOTS]>,
    resident: usize,
}

impl SimMemory {
    /// Creates an empty memory with no resident pages.
    pub fn new() -> Self {
        SimMemory {
            leaves: Box::new([const { None }; LEAF_SLOTS]),
            resident: 0,
        }
    }

    /// Number of 4 KB pages currently resident (lazily allocated).
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// Indices of the resident 4 KB pages (page `i` spans addresses
    /// `i * 4096 .. (i + 1) * 4096`), in ascending order.
    pub fn resident_page_indices(&self) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.resident);
        for (l, leaf) in self.leaves.iter().enumerate() {
            let Some(leaf) = leaf else { continue };
            for (i, page) in leaf.iter().enumerate() {
                if page.is_some() {
                    out.push(((l << LEAF_BITS) | i) as u32);
                }
            }
        }
        out
    }

    /// Raw bytes of the resident page `index` (see
    /// [`SimMemory::resident_page_indices`]), or `None` if the page was
    /// never touched. Used by the warm-state snapshot serializer.
    pub fn page_bytes(&self, index: u32) -> Option<&[u8]> {
        self.slot(index as usize).map(|p| p.as_slice())
    }

    /// Installs a full page image at `index`, allocating it if absent.
    ///
    /// Returns `false` (without touching memory) if `index` is out of
    /// range or `data` is not exactly [`PAGE_BYTES`] long — the snapshot
    /// decoder turns that into a structured error instead of panicking.
    pub fn install_page(&mut self, index: u32, data: &[u8]) -> bool {
        if index as usize >= NUM_PAGES {
            return false;
        }
        let Ok(page) = <&[u8; PAGE_BYTES]>::try_from(data) else {
            return false;
        };
        let slot = slot_mut(&mut self.leaves, index as usize);
        if slot.is_none() {
            self.resident += 1;
        }
        *slot = Some(Arc::new(*page));
        true
    }

    /// The page at page index `index`, if resident: one extra indexed
    /// load through the root table.
    #[inline]
    fn slot(&self, index: usize) -> Option<&Page> {
        self.leaves.get(index >> LEAF_BITS)?.as_deref()?[index & (LEAF_SLOTS - 1)].as_ref()
    }

    #[inline]
    fn page(&self, addr: Addr) -> Option<&Page> {
        self.slot((addr >> PAGE_SHIFT) as usize)
    }

    #[inline]
    fn page_mut(&mut self, addr: Addr) -> &mut [u8; PAGE_BYTES] {
        let slot = slot_mut(&mut self.leaves, (addr >> PAGE_SHIFT) as usize);
        if slot.is_none() {
            *slot = Some(Arc::new([0u8; PAGE_BYTES]));
            self.resident += 1;
        }
        // Copy-on-write: un-share the page if a clone still references it.
        Arc::make_mut(slot.as_mut().expect("page allocated above"))
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: Addr) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: Addr, value: u8) {
        let p = self.page_mut(addr);
        p[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads a little-endian `u16` (no alignment requirement).
    pub fn read_u16(&self, addr: Addr) -> u16 {
        u16::from_le_bytes([self.read_u8(addr), self.read_u8(addr.wrapping_add(1))])
    }

    /// Writes a little-endian `u16`.
    pub fn write_u16(&mut self, addr: Addr, value: u16) {
        for (i, b) in value.to_le_bytes().iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u32), *b);
        }
    }

    /// Reads a little-endian `u32` (no alignment requirement).
    #[inline]
    pub fn read_u32(&self, addr: Addr) -> u32 {
        // Fast path: the access does not straddle a page boundary.
        if (addr & PAGE_MASK) <= PAGE_MASK - 3 {
            match self.page(addr) {
                Some(p) => {
                    let off = (addr & PAGE_MASK) as usize;
                    let bytes = p[off..off + 4].try_into().expect("4-byte slice");
                    u32::from_le_bytes(bytes)
                }
                None => 0,
            }
        } else {
            u32::from_le_bytes([
                self.read_u8(addr),
                self.read_u8(addr.wrapping_add(1)),
                self.read_u8(addr.wrapping_add(2)),
                self.read_u8(addr.wrapping_add(3)),
            ])
        }
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: Addr, value: u32) {
        if (addr & PAGE_MASK) <= PAGE_MASK - 3 {
            let p = self.page_mut(addr);
            let off = (addr & PAGE_MASK) as usize;
            p[off..off + 4].copy_from_slice(&value.to_le_bytes());
        } else {
            for (i, b) in value.to_le_bytes().iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u32), *b);
            }
        }
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        (self.read_u32(addr) as u64) | ((self.read_u32(addr.wrapping_add(4)) as u64) << 32)
    }

    /// Writes a little-endian `u64`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write_u32(addr, value as u32);
        self.write_u32(addr.wrapping_add(4), (value >> 32) as u32);
    }

    /// Copies the cache block containing `addr` into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != BLOCK_BYTES`.
    pub fn read_block(&self, addr: Addr, buf: &mut [u8]) {
        assert_eq!(buf.len(), BLOCK_BYTES as usize, "block buffer size");
        let base = crate::block_of(addr);
        // A 64-byte block never straddles a 4 KB page.
        match self.page(base) {
            Some(p) => {
                let off = (base & PAGE_MASK) as usize;
                buf.copy_from_slice(&p[off..off + BLOCK_BYTES as usize]);
            }
            None => buf.fill(0),
        }
    }

    /// Reads the 16 pointer-sized little-endian words of the cache block
    /// containing `addr`.
    ///
    /// This is the view of a fetched block that the content-directed
    /// prefetcher scans for candidate virtual addresses.
    pub fn read_block_words(&self, addr: Addr) -> [u32; crate::PTRS_PER_BLOCK] {
        let base = crate::block_of(addr);
        let mut words = [0u32; crate::PTRS_PER_BLOCK];
        if let Some(p) = self.page(base) {
            let off = (base & PAGE_MASK) as usize;
            for (i, w) in words.iter_mut().enumerate() {
                let o = off + i * 4;
                let bytes = p[o..o + 4].try_into().expect("4-byte slice");
                *w = u32::from_le_bytes(bytes);
            }
        }
        words
    }
}

/// The slot for page index `index` (below [`NUM_PAGES`]), allocating its
/// leaf if absent.
#[inline]
fn slot_mut(leaves: &mut [Option<Box<Leaf>>; LEAF_SLOTS], index: usize) -> &mut Option<Page> {
    let leaf =
        leaves[index >> LEAF_BITS].get_or_insert_with(|| Box::new([const { None }; LEAF_SLOTS]));
    &mut leaf[index & (LEAF_SLOTS - 1)]
}

impl Default for SimMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for SimMemory {
    /// Copy-on-write clone: shares every resident page with `self`,
    /// copying only the root table and the resident leaves.
    fn clone(&self) -> Self {
        SimMemory {
            leaves: self.leaves.clone(),
            resident: self.resident,
        }
    }

    /// Restores `self` to `source`'s contents, reusing `self`'s existing
    /// table allocations where both sides have a leaf (the engine's
    /// rewind path calls this every multi-core replay).
    fn clone_from(&mut self, source: &Self) {
        self.leaves.clone_from(&source.leaves);
        self.resident = source.resident;
    }
}

impl std::fmt::Debug for SimMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimMemory")
            .field("resident_pages", &self.resident)
            .finish()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised() {
        let mem = SimMemory::new();
        assert_eq!(mem.read_u8(0), 0);
        assert_eq!(mem.read_u32(0xFFFF_FFF0), 0);
        assert_eq!(mem.resident_pages(), 0);
    }

    #[test]
    fn rw_roundtrip_u8_u16_u32_u64() {
        let mut mem = SimMemory::new();
        mem.write_u8(0x100, 0xAB);
        assert_eq!(mem.read_u8(0x100), 0xAB);
        mem.write_u16(0x200, 0xBEEF);
        assert_eq!(mem.read_u16(0x200), 0xBEEF);
        mem.write_u32(0x300, 0xDEAD_BEEF);
        assert_eq!(mem.read_u32(0x300), 0xDEAD_BEEF);
        mem.write_u64(0x400, 0x0123_4567_89AB_CDEF);
        assert_eq!(mem.read_u64(0x400), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn unaligned_u32_crossing_page_boundary() {
        let mut mem = SimMemory::new();
        let addr = 0x1FFE; // straddles 0x1000..0x2000 page boundary
        mem.write_u32(addr, 0x1122_3344);
        assert_eq!(mem.read_u32(addr), 0x1122_3344);
        assert_eq!(mem.read_u8(0x1FFE), 0x44);
        assert_eq!(mem.read_u8(0x2001), 0x11);
    }

    #[test]
    fn little_endian_layout() {
        let mut mem = SimMemory::new();
        mem.write_u32(0x500, 0x0102_0304);
        assert_eq!(mem.read_u8(0x500), 0x04);
        assert_eq!(mem.read_u8(0x503), 0x01);
    }

    #[test]
    fn read_block_contents() {
        let mut mem = SimMemory::new();
        let base = 0x4000_0040;
        for i in 0..16u32 {
            mem.write_u32(base + i * 4, 0x4000_0000 + i);
        }
        let mut buf = [0u8; 64];
        mem.read_block(base + 20, &mut buf); // any addr in block
        assert_eq!(
            u32::from_le_bytes(buf[0..4].try_into().unwrap()),
            0x4000_0000
        );
        let words = mem.read_block_words(base + 63);
        assert_eq!(words[15], 0x4000_000F);
    }

    #[test]
    fn read_block_untouched_is_zero() {
        let mem = SimMemory::new();
        let words = mem.read_block_words(0x7000_0000);
        assert!(words.iter().all(|&w| w == 0));
    }

    #[test]
    fn clone_is_deep() {
        let mut a = SimMemory::new();
        a.write_u32(0x100, 7);
        let b = a.clone();
        a.write_u32(0x100, 9);
        assert_eq!(b.read_u32(0x100), 7);
        assert_eq!(a.read_u32(0x100), 9);
    }

    #[test]
    fn cow_clone_shares_pages_until_written() {
        let mut a = SimMemory::new();
        a.write_u32(0x100, 7);
        a.write_u32(0x2000, 8);
        let b = a.clone();
        // Pages are physically shared right after the clone.
        assert!(Arc::ptr_eq(a.slot(0).unwrap(), b.slot(0).unwrap()));
        // A write un-shares only the touched page.
        let mut c = b.clone();
        c.write_u8(0x101, 9);
        assert!(!Arc::ptr_eq(b.slot(0).unwrap(), c.slot(0).unwrap()));
        assert!(Arc::ptr_eq(b.slot(2).unwrap(), c.slot(2).unwrap()));
        assert_eq!(b.read_u8(0x101), 0);
        assert_eq!(c.read_u8(0x101), 9);
        assert_eq!(c.read_u32(0x2000), 8);
    }

    #[test]
    fn clone_from_restores_snapshot() {
        let mut snapshot = SimMemory::new();
        snapshot.write_u32(0x100, 7);
        let mut working = snapshot.clone();
        working.write_u32(0x100, 9);
        working.write_u32(0x9000, 1); // extra page beyond the snapshot
        working.clone_from(&snapshot);
        assert_eq!(working.read_u32(0x100), 7);
        assert_eq!(working.read_u32(0x9000), 0);
        assert_eq!(working.resident_pages(), snapshot.resident_pages());
    }

    /// Pages on both sides of a leaf boundary and the last page of the
    /// address space, each filled with a distinct byte.
    const BOUNDARY_PAGES: [u32; 4] = [1023, 1024, 0xF_FFFF - 1, 0xF_FFFF];

    fn boundary_image() -> SimMemory {
        let mut mem = SimMemory::new();
        for (k, &p) in BOUNDARY_PAGES.iter().enumerate() {
            assert!(mem.install_page(p, &[k as u8 + 1; PAGE_BYTES]));
        }
        mem
    }

    fn assert_boundary_image(mem: &SimMemory) {
        assert_eq!(mem.resident_pages(), BOUNDARY_PAGES.len());
        assert_eq!(mem.resident_page_indices(), BOUNDARY_PAGES.to_vec());
        for (k, &p) in BOUNDARY_PAGES.iter().enumerate() {
            let bytes = mem.page_bytes(p).unwrap();
            assert!(bytes.iter().all(|&b| b == k as u8 + 1), "page {p:#x}");
            let base = p << PAGE_SHIFT;
            assert_eq!(mem.read_u8(base), k as u8 + 1);
            assert_eq!(mem.read_u8(base + PAGE_MASK), k as u8 + 1);
        }
        assert_eq!(mem.page_bytes(1022), None);
        assert_eq!(mem.page_bytes(1025), None);
    }

    #[test]
    fn leaf_boundary_pages_round_trip() {
        let mem = boundary_image();
        assert_boundary_image(&mem);
        // The last byte of the address space, and a word straddling the
        // 1023/1024 leaf boundary.
        assert_eq!(mem.read_u8(0xFFFF_FFFF), 4);
        assert_eq!(mem.read_u32(0x0040_0000 - 2), 0x0202_0101);

        let copy = mem.clone();
        assert_boundary_image(&copy);
        let mut restored = SimMemory::new();
        restored.write_u32(0x0040_0000 - 2, 0xDEAD_BEEF);
        restored.write_u8(0x1234_5678, 9);
        restored.clone_from(&mem);
        assert_boundary_image(&restored);
        assert_eq!(restored.read_u8(0x1234_5678), 0);

        // Writes through a clone straddle the leaf boundary and un-share
        // only the clone's pages.
        let mut writer = mem.clone();
        writer.write_u32(0x0040_0000 - 2, 0xA1B2_C3D4);
        assert_eq!(writer.page_bytes(1023).unwrap()[PAGE_BYTES - 1], 0xC3);
        assert_eq!(writer.page_bytes(1024).unwrap()[0], 0xB2);
        assert_boundary_image(&mem);
    }

    #[test]
    fn install_page_rejects_out_of_range_and_short_pages() {
        let mut mem = SimMemory::new();
        assert!(!mem.install_page(0x10_0000, &[0; PAGE_BYTES]));
        assert!(!mem.install_page(u32::MAX, &[0; PAGE_BYTES]));
        assert!(!mem.install_page(5, &[0; PAGE_BYTES - 1]));
        assert_eq!(mem.resident_pages(), 0);
        assert_eq!(mem.page_bytes(0x10_0000), None);
        assert_eq!(mem.page_bytes(u32::MAX), None);
        // Re-installing a resident page replaces it without recounting.
        assert!(mem.install_page(5, &[1; PAGE_BYTES]));
        assert!(mem.install_page(5, &[2; PAGE_BYTES]));
        assert_eq!(mem.resident_pages(), 1);
        assert_eq!(mem.read_u8(5 << PAGE_SHIFT), 2);
    }

    #[test]
    fn resident_page_accounting() {
        let mut mem = SimMemory::new();
        mem.write_u8(0x0, 1);
        mem.write_u8(0x1, 1); // same page
        assert_eq!(mem.resident_pages(), 1);
        mem.write_u8(0x1000, 1);
        assert_eq!(mem.resident_pages(), 2);
    }
}
