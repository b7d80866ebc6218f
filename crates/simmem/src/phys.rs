//! Sparse simulated physical memory.
//!
//! A simulation can pretend to have a large physical memory (the paper's
//! testbed has 16 GB) while the host pays only for frames the guest has
//! *touched*, where touched means **written**: mapping a page, reading it,
//! fetching from it or using it as a copy source costs no host memory. A
//! slab slot is in one of three states:
//!
//! * `Free` — not allocated (never handed out, or freed); any access
//!   panics.
//! * `Zero` — live and never written. [`PhysMem::alloc_frame`] only marks
//!   the slot; every read is served from one immutable, process-wide zero
//!   page.
//! * `Data` — live with its own 4 KiB buffer, materialised (zero-filled) by
//!   the first write and dropped by [`PhysMem::free_frame`].
//!
//! [`PhysMem::live_frames`] counts `Zero` + `Data`,
//! [`PhysMem::resident_frames`] counts `Data` alone; both are exact and
//! deterministic, so tests can bound the host footprint without asking the
//! allocator. Freed buffers go straight back to the host allocator: a pool
//! of recycled buffers was prototyped and lost (it has to re-zero every
//! buffer it hands out; the `oltp-linux` benchmark round took 0.1875 s
//! with it against 0.178 s without).
//!
//! Storage is a slab (`Vec` indexed by frame number plus a free list),
//! giving O(1) frame access on every memory operation instead of a hash
//! lookup — the frame store sits under every single simulated load, store
//! and instruction fetch.
//!
//! The slab also tracks which frames back *executed code*: the cdvm
//! superblock cache marks a frame when it forms a block from it, and any
//! later write to (or free of) a marked frame bumps
//! [`PhysMem::code_epoch`], which invalidates every formed superblock and
//! every block chain hint at its next use. The bump
//! precedes the write, the materialising first write included (a block can
//! be formed from a `Zero` frame: it decodes as zeros). This is how
//! self-modifying and runtime-patched code (dIPC generates proxies by
//! patching templates, §6.1.1) stays coherent with the fast path.

use crate::page::PAGE_SIZE;

/// Identifier of a physical frame (frame number, not byte address).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct FrameId(pub u64);

type Page = [u8; PAGE_SIZE as usize];

/// What every `Zero` frame reads as.
static ZERO_PAGE: Page = [0; PAGE_SIZE as usize];

/// One slab slot (see the module docs).
enum Slot {
    Free,
    Zero,
    Data(Box<Page>),
}

/// Sparse physical memory: a pool of 4 KiB frames.
pub struct PhysMem {
    /// Frame storage, indexed by frame number. Index 0 is never allocated
    /// (frame numbers start at 1).
    frames: Vec<Slot>,
    /// Parallel to `frames`: true if the frame has been predecoded as code.
    code: Vec<bool>,
    next_frame: u64,
    free: Vec<FrameId>,
    live: usize,
    resident: usize,
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
            frames: vec![Slot::Free],
            code: vec![false],
            next_frame: 1,
            free: Vec::new(),
            live: 0,
            resident: 0,
            code_epoch: 0,
        }
    }

    /// Allocates a fresh zeroed frame. No buffer is allocated until the
    /// frame is first written.
    pub fn alloc_frame(&mut self) -> FrameId {
        let id = self.free.pop().unwrap_or_else(|| {
            let id = FrameId(self.next_frame);
            self.next_frame += 1;
            self.frames.push(Slot::Free);
            self.code.push(false);
            id
        });
        let slot = id.0 as usize;
        debug_assert!(matches!(self.frames[slot], Slot::Free), "allocating a live frame");
        self.frames[slot] = Slot::Zero;
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
        let old =
            self.frames.get_mut(slot).map_or(Slot::Free, |s| std::mem::replace(s, Slot::Free));
        match old {
            Slot::Free => panic!("double free of physical frame {id:?}"),
            Slot::Zero => {}
            Slot::Data(_) => self.resident -= 1,
        }
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

    /// Number of live frames that own a host buffer, i.e. have been written
    /// since they were allocated.
    pub fn resident_frames(&self) -> usize {
        self.resident
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
        self.note_write(id);
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
        self.note_write(id);
        let frame = self.frame_mut(id);
        let off = offset as usize;
        frame[off..off + 8].copy_from_slice(&value.to_le_bytes());
    }

    /// Copies a whole frame's contents onto another frame (copy-on-write
    /// support), frame to frame. A never-written source materialises
    /// nothing: it leaves a never-written destination as it is and
    /// zero-fills a written one.
    pub fn copy_frame(&mut self, src: FrameId, dst: FrameId) {
        self.note_write(dst);
        match self.frames.get_disjoint_mut([src.0 as usize, dst.0 as usize]) {
            Ok([Slot::Free, _]) => dead_frame(src),
            Ok([_, Slot::Free]) => dead_frame(dst),
            Ok([Slot::Zero, Slot::Zero]) => {}
            Ok([Slot::Zero, Slot::Data(d)]) => d.fill(0),
            Ok([Slot::Data(s), Slot::Data(d)]) => d.copy_from_slice(&s[..]),
            Ok([Slot::Data(s), d @ Slot::Zero]) => {
                *d = Slot::Data(s.clone());
                self.resident += 1;
            }
            // `src == dst` (nothing to copy) or a number never handed out.
            Err(_) => {
                self.frame(src);
                self.frame(dst);
            }
        }
    }

    /// Full read-only view of a frame's bytes (block formation decodes
    /// straight out of it).
    #[inline]
    pub fn frame_bytes(&self, id: FrameId) -> &[u8] {
        self.frame(id)
    }

    /// Marks `id` as backing executed code: subsequent writes to it (and its
    /// eventual free) bump [`PhysMem::code_epoch`].
    #[inline]
    pub fn mark_code(&mut self, id: FrameId) {
        let slot = id.0 as usize;
        assert!(
            slot < self.frames.len() && !matches!(self.frames[slot], Slot::Free),
            "mark_code on dead frame"
        );
        self.code[slot] = true;
    }

    /// Monotonic counter bumped whenever the bytes of any code-marked frame
    /// may have changed. Decoded-block caches compare it to detect staleness.
    #[inline]
    pub fn code_epoch(&self) -> u64 {
        self.code_epoch
    }

    /// Bumps the code epoch if `id` backs executed code; every write path
    /// calls this before it touches the frame.
    #[inline]
    fn note_write(&mut self, id: FrameId) {
        let slot = id.0 as usize;
        if slot < self.code.len() && self.code[slot] {
            self.code_epoch += 1;
        }
    }

    #[inline]
    fn frame(&self, id: FrameId) -> &Page {
        match self.frames.get(id.0 as usize) {
            Some(Slot::Data(b)) => b,
            Some(Slot::Zero) => &ZERO_PAGE,
            _ => dead_frame(id),
        }
    }

    /// The frame's buffer, materialised (zero-filled) if this is the first
    /// write since allocation.
    #[inline]
    fn frame_mut(&mut self, id: FrameId) -> &mut Page {
        let Some(slot) = self.frames.get_mut(id.0 as usize) else { dead_frame(id) };
        if let Slot::Zero = slot {
            *slot = Slot::Data(zeroed_page());
            self.resident += 1;
        }
        match slot {
            Slot::Data(b) => b,
            _ => dead_frame(id),
        }
    }
}

#[cold]
fn zeroed_page() -> Box<Page> {
    vec![0u8; PAGE_SIZE as usize].into_boxed_slice().try_into().expect("PAGE_SIZE bytes")
}

#[cold]
fn dead_frame(id: FrameId) -> ! {
    panic!("access to unmapped frame {id:?}")
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
    fn buffers_appear_on_first_write_only() {
        let mut pm = PhysMem::new();
        let (a, b, c) = (pm.alloc_frame(), pm.alloc_frame(), pm.alloc_frame());
        assert_eq!((pm.live_frames(), pm.resident_frames()), (3, 0), "mapping allocates nothing");
        let mut buf = [0xaau8; 16];
        pm.read(a, 4080, &mut buf);
        assert_eq!(buf, [0; 16]);
        assert_eq!(pm.read_u64(a, 8), 0);
        assert!(pm.frame_bytes(a).iter().all(|&x| x == 0));
        pm.copy_frame(a, b);
        assert_eq!(pm.resident_frames(), 0, "reads and zero-onto-zero copies allocate nothing");
        pm.write_u64(a, 8, 1);
        pm.write(a, 0, &[1]);
        assert_eq!(pm.resident_frames(), 1);
        pm.copy_frame(a, b);
        assert_eq!(pm.resident_frames(), 2);
        assert_eq!(pm.read_u64(b, 8), 1);
        pm.copy_frame(c, b);
        assert!(pm.frame_bytes(b).iter().all(|&x| x == 0), "a zero source clears the destination");
        pm.copy_frame(a, a);
        assert_eq!(pm.read_u64(a, 8), 1);
        pm.free_frame(a);
        pm.free_frame(c);
        assert_eq!((pm.live_frames(), pm.resident_frames()), (1, 1));
    }

    #[test]
    fn first_write_to_unwritten_code_frame_bumps_epoch() {
        let mut pm = PhysMem::new();
        for write in [
            (|pm, f| pm.write(f, 0, &[1])) as fn(&mut PhysMem, FrameId),
            |pm, f| pm.write_u64(f, 8, 7),
            |pm, f| {
                let src = pm.alloc_frame();
                pm.copy_frame(src, f)
            },
        ] {
            let f = pm.alloc_frame();
            pm.mark_code(f);
            let e0 = pm.code_epoch();
            write(&mut pm, f);
            assert!(pm.code_epoch() > e0, "blocks decoded from the zero page must go stale");
        }
    }

    #[test]
    #[should_panic(expected = "access to unmapped frame")]
    fn read_of_freed_frame_panics() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        pm.free_frame(f);
        pm.read_u64(f, 0);
    }

    #[test]
    #[should_panic(expected = "access to unmapped frame")]
    fn write_of_freed_frame_panics() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        pm.write(f, 0, &[1]);
        pm.free_frame(f);
        pm.write(f, 0, &[1]);
    }

    #[test]
    #[should_panic(expected = "access to unmapped frame")]
    fn copy_onto_freed_frame_panics() {
        let mut pm = PhysMem::new();
        let (a, b) = (pm.alloc_frame(), pm.alloc_frame());
        pm.free_frame(b);
        pm.copy_frame(a, b);
    }

    #[test]
    #[should_panic(expected = "mark_code on dead frame")]
    fn mark_code_on_freed_frame_panics() {
        let mut pm = PhysMem::new();
        let f = pm.alloc_frame();
        pm.free_frame(f);
        pm.mark_code(f);
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
