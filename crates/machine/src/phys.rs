//! Simulated physical memory.
//!
//! A fixed-size pool of 4 KiB frames with a free list. Backing storage is
//! allocated (zeroed) when a frame is allocated and released when it is
//! freed, so only live frames cost host memory; the frame table itself is
//! one pointer per frame, indexed by frame number. All kernel, user, ghost
//! and page-table data lives here — page tables are real bytes in these
//! frames, walked by the MMU.

use crate::layout::{PAddr, Pfn, PAGE_SIZE};

/// One frame's bytes.
type Frame = [u8; PAGE_SIZE as usize];

/// Physical memory: a frame table indexed by frame number.
#[derive(Debug)]
pub struct PhysMem {
    /// Slot `pfn` holds the frame's bytes while it is allocated.
    frames: Vec<Option<Box<Frame>>>,
    free: Vec<u64>,
}

impl PhysMem {
    /// Creates a memory of `total_frames` frames, all free.
    pub fn new(total_frames: usize) -> Self {
        // Hand out ascending frame numbers; keep the free list as a stack of
        // descending numbers so allocation order is deterministic.
        let free = (0..total_frames as u64).rev().collect();
        PhysMem {
            frames: (0..total_frames).map(|_| None).collect(),
            free,
        }
    }

    /// Total frame count.
    pub fn total_frames(&self) -> usize {
        self.frames.len()
    }

    /// Number of frames currently free.
    pub fn free_frames(&self) -> usize {
        self.free.len()
    }

    /// Allocates a zeroed frame, or `None` if memory is exhausted.
    pub fn alloc_frame(&mut self) -> Option<Pfn> {
        let pfn = self.free.pop()?;
        let zeroed: Box<Frame> = vec![0u8; PAGE_SIZE as usize]
            .into_boxed_slice()
            .try_into()
            .expect("page-sized");
        self.frames[pfn as usize] = Some(zeroed);
        Some(Pfn(pfn))
    }

    /// Returns a frame to the free pool.
    ///
    /// # Panics
    ///
    /// Panics if the frame was not allocated (double free) or lies outside
    /// this memory.
    pub fn free_frame(&mut self, pfn: Pfn) {
        let slot = self
            .frames
            .get_mut(pfn.0 as usize)
            .unwrap_or_else(|| panic!("free of out-of-range {pfn}"));
        let existed = slot.take().is_some();
        assert!(existed, "double free of {pfn}");
        self.free.push(pfn.0);
    }

    /// Whether `pfn` is currently allocated (false for out-of-range frames).
    pub fn is_allocated(&self, pfn: Pfn) -> bool {
        matches!(self.frames.get(pfn.0 as usize), Some(Some(_)))
    }

    /// Fills an allocated frame with zeros (used by `allocgm`/`freegm`,
    /// which must not leak prior contents in either direction).
    pub fn zero_frame(&mut self, pfn: Pfn) {
        let f = self.frame_mut(pfn);
        f.fill(0);
    }

    fn frame(&self, pfn: Pfn) -> &Frame {
        match self.frames.get(pfn.0 as usize) {
            Some(Some(f)) => f,
            _ => panic!("access to unallocated {pfn}"),
        }
    }

    fn frame_mut(&mut self, pfn: Pfn) -> &mut Frame {
        match self.frames.get_mut(pfn.0 as usize) {
            Some(Some(f)) => f,
            _ => panic!("access to unallocated {pfn}"),
        }
    }

    /// Reads `buf.len()` bytes starting at frame `pfn` offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the frame boundary or the frame is
    /// unallocated — physical accesses are always page-local in this model.
    pub fn read_bytes(&self, pfn: Pfn, off: u64, buf: &mut [u8]) {
        let off = off as usize;
        assert!(off + buf.len() <= PAGE_SIZE as usize, "frame-crossing read");
        buf.copy_from_slice(&self.frame(pfn)[off..off + buf.len()]);
    }

    /// Writes `buf` starting at frame `pfn` offset `off`.
    ///
    /// # Panics
    ///
    /// Panics if the access crosses the frame boundary or the frame is
    /// unallocated.
    pub fn write_bytes(&mut self, pfn: Pfn, off: u64, buf: &[u8]) {
        let off = off as usize;
        assert!(
            off + buf.len() <= PAGE_SIZE as usize,
            "frame-crossing write"
        );
        self.frame_mut(pfn)[off..off + buf.len()].copy_from_slice(buf);
    }

    /// Reads a little-endian u64 at frame offset `off`.
    pub fn read_u64(&self, pfn: Pfn, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(pfn, off, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64 at frame offset `off`.
    pub fn write_u64(&mut self, pfn: Pfn, off: u64, v: u64) {
        self.write_bytes(pfn, off, &v.to_le_bytes());
    }

    /// Reads a byte at a physical address.
    pub fn read_u8_at(&self, pa: PAddr) -> u8 {
        let mut b = [0u8];
        self.read_bytes(pa.pfn(), pa.frame_offset(), &mut b);
        b[0]
    }

    /// Writes a byte at a physical address.
    pub fn write_u8_at(&mut self, pa: PAddr, v: u8) {
        self.write_bytes(pa.pfn(), pa.frame_offset(), &[v]);
    }

    /// Copies a whole frame's contents out.
    pub fn read_frame(&self, pfn: Pfn) -> Vec<u8> {
        self.frame(pfn).to_vec()
    }

    /// Overwrites a whole frame.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one page.
    pub fn write_frame(&mut self, pfn: Pfn, data: &[u8]) {
        assert_eq!(
            data.len(),
            PAGE_SIZE as usize,
            "frame write must be page-sized"
        );
        self.frame_mut(pfn).copy_from_slice(data);
    }

    /// Copies frame `src`'s contents over frame `dst` without a heap
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if either frame is unallocated.
    pub fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        let data: Frame = *self.frame(src);
        *self.frame_mut(dst) = data;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut m = PhysMem::new(4);
        let a = m.alloc_frame().unwrap();
        let b = m.alloc_frame().unwrap();
        assert_ne!(a, b);
        assert_eq!(m.free_frames(), 2);
        m.free_frame(a);
        assert_eq!(m.free_frames(), 3);
        assert!(!m.is_allocated(a));
        assert!(m.is_allocated(b));
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut m = PhysMem::new(1);
        assert!(m.alloc_frame().is_some());
        assert!(m.alloc_frame().is_none());
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        m.free_frame(a);
        m.free_frame(a);
    }

    #[test]
    fn frames_start_zeroed_and_rezero() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        assert_eq!(m.read_u64(a, 0), 0);
        m.write_u64(a, 8, 42);
        m.zero_frame(a);
        assert_eq!(m.read_u64(a, 8), 0);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        m.write_bytes(a, 100, b"hello");
        let mut buf = [0u8; 5];
        m.read_bytes(a, 100, &mut buf);
        assert_eq!(&buf, b"hello");
        m.write_u8_at(PAddr(a.0 * PAGE_SIZE + 1), 0xaa);
        assert_eq!(m.read_u8_at(PAddr(a.0 * PAGE_SIZE + 1)), 0xaa);
    }

    #[test]
    #[should_panic(expected = "frame-crossing")]
    fn cross_frame_access_panics() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        m.write_bytes(a, PAGE_SIZE - 2, &[1, 2, 3]);
    }

    #[test]
    fn whole_frame_io() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        let data = vec![7u8; PAGE_SIZE as usize];
        m.write_frame(a, &data);
        assert_eq!(m.read_frame(a), data);
    }

    #[test]
    fn reallocated_frame_reads_zero() {
        // One frame, so the re-allocation must hand back the same pfn: no
        // stale bytes may cross from the old owner to the new one.
        let mut m = PhysMem::new(1);
        let a = m.alloc_frame().unwrap();
        m.write_frame(a, &[0x5a; PAGE_SIZE as usize]);
        m.free_frame(a);
        let b = m.alloc_frame().unwrap();
        assert_eq!(a, b);
        assert!(m.read_frame(b).iter().all(|&x| x == 0));
    }

    #[test]
    fn out_of_range_pfn_is_not_allocated() {
        let mut m = PhysMem::new(2);
        m.alloc_frame().unwrap();
        m.alloc_frame().unwrap();
        assert!(!m.is_allocated(Pfn(2)));
        assert!(!m.is_allocated(Pfn(u64::MAX)));
    }

    #[test]
    #[should_panic(expected = "pfn:0x7")]
    fn free_out_of_range_panics_naming_pfn() {
        let mut m = PhysMem::new(2);
        m.free_frame(Pfn(7));
    }

    #[test]
    fn copy_frame_duplicates_contents() {
        let mut m = PhysMem::new(3);
        let a = m.alloc_frame().unwrap();
        let b = m.alloc_frame().unwrap();
        m.write_bytes(a, 10, b"fork");
        m.copy_frame(a, b);
        assert_eq!(m.read_frame(b), m.read_frame(a));
        m.copy_frame(b, b);
        assert_eq!(m.read_frame(b), m.read_frame(a));
    }

    #[test]
    #[should_panic(expected = "access to unallocated")]
    fn copy_frame_to_unallocated_panics() {
        let mut m = PhysMem::new(2);
        let a = m.alloc_frame().unwrap();
        m.copy_frame(a, Pfn(1));
    }
}
