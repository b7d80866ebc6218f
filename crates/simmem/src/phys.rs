//! Sparse simulated physical memory.
//!
//! Frames are allocated lazily and zero-filled, so a simulation can pretend to
//! have a large physical memory (the paper's testbed has 16 GB) while only
//! paying for frames actually touched. Storage is a slab (`Vec` indexed by
//! frame number plus a free list), giving O(1) frame access on every memory
//! operation instead of a hash lookup — the frame store sits under every
//! single simulated load, store and instruction fetch.
//!
//! The slab also tracks which frames back *executed code*: the cdvm
//! decoded-instruction cache and superblock cache mark a frame when they
//! predecode it, and any later write to (or free of) a marked frame bumps
//! [`PhysMem::code_epoch`], which invalidates every predecoded page, every
//! formed superblock and every block chain hint at its next use. This is
//! how self-modifying and runtime-patched code (dIPC generates proxies by
//! patching templates, §6.1.1) stays coherent with the fast path.

use crate::page::PAGE_SIZE;

/// Identifier of a physical frame (frame number, not byte address).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FrameId(pub u64);

/// Sparse physical memory: a pool of 4 KiB frames.
pub struct PhysMem {
    /// Frame storage, indexed by frame number. Index 0 is never allocated
    /// (frame numbers start at 1), and freed slots are `None`.
    frames: Vec<Option<Box<[u8]>>>,
    /// Parallel to `frames`: true if the frame has been predecoded as code.
    code: Vec<bool>,
    next_frame: u64,
    free: Vec<FrameId>,
    live: usize,
    code_epoch: u64,
}

impl Default for PhysMem {
    fn default() -> Self {
        Self::new()
    }
}

impl PhysMem {
    /// Creates an empty physical memory.
    pub fn new() -> PhysMem {
        PhysMem {
            frames: vec![None],
            code: vec![false],
            next_frame: 1,
            free: Vec::new(),
            live: 0,
            code_epoch: 0,
        }
    }

    /// Allocates a fresh zeroed frame.
    pub fn alloc_frame(&mut self) -> FrameId {
        let id = self.free.pop().unwrap_or_else(|| {
            let id = FrameId(self.next_frame);
            self.next_frame += 1;
            self.frames.push(None);
            self.code.push(false);
            id
        });
        let slot = id.0 as usize;
        debug_assert!(self.frames[slot].is_none(), "allocating a live frame");
        self.frames[slot] = Some(vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
        self.code[slot] = false;
        self.live += 1;
        id
    }

    /// Releases a frame back to the pool.
    ///
    /// Releasing a frame that was never allocated (or already freed) is a
    /// logic error in the caller and panics, since the kernel owns frame
    /// lifetimes exclusively.
    pub fn free_frame(&mut self, id: FrameId) {
        let slot = id.0 as usize;
        let existed = slot < self.frames.len() && self.frames[slot].take().is_some();
        assert!(existed, "double free of physical frame {id:?}");
        if self.code[slot] {
            // The frame number may be recycled with different contents;
            // invalidate everything decoded from it.
            self.code[slot] = false;
            self.code_epoch += 1;
        }
        self.live -= 1;
        self.free.push(id);
    }

    /// Number of live frames.
    pub fn live_frames(&self) -> usize {
        self.live
    }

    /// Reads bytes from a frame at `offset`. The read must not cross the
    /// frame boundary.
    #[inline]
    pub fn read(&self, id: FrameId, offset: u64, buf: &mut [u8]) {
        let frame = self.frame(id);
        let off = offset as usize;
        buf.copy_from_slice(&frame[off..off + buf.len()]);
    }

    /// Writes bytes into a frame at `offset`. The write must not cross the
    /// frame boundary.
    #[inline]
    pub fn write(&mut self, id: FrameId, offset: u64, buf: &[u8]) {
        let slot = id.0 as usize;
        if slot < self.code.len() && self.code[slot] {
            self.code_epoch += 1;
        }
        let frame = self.frame_mut(id);
        let off = offset as usize;
        frame[off..off + buf.len()].copy_from_slice(buf);
    }

    /// Reads a little-endian u64 at `offset` (must be within the frame).
    #[inline]
    pub fn read_u64(&self, id: FrameId, offset: u64) -> u64 {
        debug_assert!(offset + 8 <= PAGE_SIZE, "u64 read crosses the frame boundary");
        let frame = self.frame(id);
        let off = offset as usize;
        u64::from_le_bytes(frame[off..off + 8].try_into().expect("slice len 8"))
    }

    /// Writes a little-endian u64 at `offset` (must be within the frame).
    #[inline]
    pub fn write_u64(&mut self, id: FrameId, offset: u64, value: u64) {
        debug_assert!(offset + 8 <= PAGE_SIZE, "u64 write crosses the frame boundary");
        let slot = id.0 as usize;
        if slot < self.code.len() && self.code[slot] {
            self.code_epoch += 1;
        }
        let frame = self.frame_mut(id);
        let off = offset as usize;
        frame[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Copies a whole frame's contents onto another frame (copy-on-write
    /// support).
    pub fn copy_frame(&mut self, src: FrameId, dst: FrameId) {
        let dslot = dst.0 as usize;
        if dslot < self.code.len() && self.code[dslot] {
            self.code_epoch += 1;
        }
        let data = self.frame(src).to_vec();
        self.frame_mut(dst).copy_from_slice(&data);
    }

    /// Full read-only view of a frame's bytes (used by the cdvm decoder to
    /// predecode a whole code page in one pass).
    #[inline]
    pub fn frame_bytes(&self, id: FrameId) -> &[u8] {
        self.frame(id)
    }

    /// Marks `id` as backing executed code: subsequent writes to it (and its
    /// eventual free) bump [`PhysMem::code_epoch`].
    #[inline]
    pub fn mark_code(&mut self, id: FrameId) {
        let slot = id.0 as usize;
        assert!(slot < self.frames.len() && self.frames[slot].is_some(), "mark_code on dead frame");
        self.code[slot] = true;
    }

    /// Monotonic counter bumped whenever the bytes of any code-marked frame
    /// may have changed. Decoded-block caches compare it to detect staleness.
    #[inline]
    pub fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    #[inline]
    fn frame(&self, id: FrameId) -> &[u8] {
        self.frames
            .get(id.0 as usize)
            .and_then(|f| f.as_deref())
            .unwrap_or_else(|| panic!("access to unmapped frame {id:?}"))
    }

    #[inline]
    fn frame_mut(&mut self, id: FrameId) -> &mut [u8] {
        self.frames
            .get_mut(id.0 as usize)
            .and_then(|f| f.as_deref_mut())
            .unwrap_or_else(|| panic!("access to unmapped frame {id:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_read_write() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        let mut buf = [0u8; 4];
        pm.read(f, 0, &mut buf);
        assert_eq!(buf, [0, 0, 0, 0]);
        pm.write(f, 100, &[1, 2, 3, 4]);
        pm.read(f, 100, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4]);
    }

    #[test]
    fn u64_roundtrip() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        pm.write_u64(f, 8, 0xdead_beef_cafe_f00d);
        assert_eq!(pm.read_u64(f, 8), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn free_and_reuse_zeroes() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        pm.write(f, 0, &[0xff]);
        pm.free_frame(f);
        let g = pm.alloc_frame();
        // The recycled frame must be zeroed.
        let mut b = [0xaau8; 1];
        pm.read(g, 0, &mut b);
        assert_eq!(b, [0]);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        pm.free_frame(f);
        pm.free_frame(f);
    }

    #[test]
    fn copy_frame_copies() {
        let mut pm = PhysMem::new();
        let a = pm.alloc_frame();
        let b = pm.alloc_frame();
        pm.write(a, 42, &[7; 8]);
        pm.copy_frame(a, b);
        let mut buf = [0u8; 8];
        pm.read(b, 42, &mut buf);
        assert_eq!(buf, [7; 8]);
    }

    #[test]
    fn code_epoch_tracks_code_frames_only() {
        let mut pm = PhysMem::new();
        let data = pm.alloc_frame();
        let code = pm.alloc_frame();
        pm.mark_code(code);
        let e0 = pm.code_epoch();
        pm.write(data, 0, &[1]);
        assert_eq!(pm.code_epoch(), e0, "data-frame writes are epoch-neutral");
        pm.write(code, 0, &[1]);
        assert!(pm.code_epoch() > e0, "code-frame write must bump the epoch");
        let e1 = pm.code_epoch();
        pm.write_u64(code, 8, 7);
        assert!(pm.code_epoch() > e1);
        let e2 = pm.code_epoch();
        pm.free_frame(code);
        assert!(pm.code_epoch() > e2, "freeing a code frame must bump the epoch");
        // A recycled frame starts out as a plain data frame again.
        let g = pm.alloc_frame();
        let e3 = pm.code_epoch();
        pm.write(g, 0, &[2]);
        assert_eq!(pm.code_epoch(), e3);
    }

    #[test]
    fn copy_onto_code_frame_bumps_epoch() {
        let mut pm = PhysMem::new();
        let a = pm.alloc_frame();
        let b = pm.alloc_frame();
        pm.mark_code(b);
        let e0 = pm.code_epoch();
        pm.copy_frame(a, b);
        assert!(pm.code_epoch() > e0);
    }

    #[test]
    fn slab_reuses_frame_numbers() {
        let mut pm = PhysMem::new();
        let a = pm.alloc_frame();
        pm.free_frame(a);
        let b = pm.alloc_frame();
        assert_eq!(a, b, "free list must recycle frame numbers");
        assert_eq!(pm.live_frames(), 1);
    }
}
