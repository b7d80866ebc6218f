//! Virtual address space allocation.
//!
//! Per §6.1.3 of the paper, the dIPC memory allocator has two phases: "first,
//! a process globally allocates a block of virtual memory space (currently
//! 1 GB), and then it sub-allocates actual memory from such blocks". The
//! [`GlobalVas`] implements exactly that for the shared global address space,
//! while [`ProcLayout`] provides a conventional private-process layout for
//! non-dIPC processes.

use std::collections::HashMap;

use crate::page::{page_align_up, PAGE_SIZE};

/// Size of a global VAS reservation block (1 GiB, as in the paper).
pub const BLOCK_SIZE: u64 = 1 << 30;

/// Base of the global (shared) virtual address space.
///
/// Kept high so it never collides with the conventional private layout.
pub const GLOBAL_BASE: u64 = 0x0000_2000_0000_0000;

/// Number of 1 GiB blocks available in the global space (128 TiB worth).
pub const GLOBAL_BLOCKS: u64 = 128 * 1024;

/// Identifier of a reserved global block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BlockId(pub u64);

/// Errors from VAS operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VasError {
    /// The global space has no free blocks left.
    OutOfBlocks,
    /// A suballocation did not fit in the block.
    BlockFull,
    /// The referenced block does not exist or belongs to another owner.
    BadBlock,
    /// Zero-sized allocation request.
    ZeroSize,
}

impl core::fmt::Display for VasError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            VasError::OutOfBlocks => "global VAS out of blocks",
            VasError::BlockFull => "VAS block full",
            VasError::BadBlock => "bad VAS block reference",
            VasError::ZeroSize => "zero-sized allocation",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VasError {}

struct Block {
    base: u64,
    owner: u64,
    /// Bump pointer within the block (page aligned).
    next: u64,
}

/// The global virtual address space allocator.
///
/// Blocks are reserved to an *owner* (a process id in the kernel layer); the
/// owner then bump-suballocates page-aligned regions from its blocks. The
/// paper notes contention on global block allocation as a minor dIPC overhead
/// (§7.4); the two-phase split means suballocation itself is process-local.
pub struct GlobalVas {
    blocks: HashMap<BlockId, Block>,
    next_block: u64,
    freed: Vec<u64>,
    /// Count of block-reservation operations (the "global" phase), exposed so
    /// benchmarks can report allocator contention events.
    reservations: u64,
}

impl Default for GlobalVas {
    fn default() -> Self {
        Self::new()
    }
}

impl GlobalVas {
    /// Creates an empty allocator.
    pub fn new() -> GlobalVas {
        GlobalVas { blocks: HashMap::new(), next_block: 0, freed: Vec::new(), reservations: 0 }
    }

    /// Reserves a fresh 1 GiB block for `owner`.
    pub fn reserve_block(&mut self, owner: u64) -> Result<BlockId, VasError> {
        let idx = match self.freed.pop() {
            Some(i) => i,
            None => {
                if self.next_block >= GLOBAL_BLOCKS {
                    return Err(VasError::OutOfBlocks);
                }
                let i = self.next_block;
                self.next_block += 1;
                i
            }
        };
        let base = GLOBAL_BASE + idx * BLOCK_SIZE;
        let id = BlockId(idx);
        self.blocks.insert(id, Block { base, owner, next: base });
        self.reservations += 1;
        Ok(id)
    }

    /// The used span of a block — `(base, next)` with `next` the bump
    /// cursor — for owners reclaiming a dead process's mappings before
    /// [`GlobalVas::release_block`].
    pub fn block_span(&self, owner: u64, id: BlockId) -> Option<(u64, u64)> {
        match self.blocks.get(&id) {
            Some(b) if b.owner == owner => Some((b.base, b.next)),
            _ => None,
        }
    }

    /// Releases a whole block (all suballocations become invalid).
    pub fn release_block(&mut self, owner: u64, id: BlockId) -> Result<(), VasError> {
        match self.blocks.get(&id) {
            Some(b) if b.owner == owner => {
                self.blocks.remove(&id);
                self.freed.push(id.0);
                Ok(())
            }
            _ => Err(VasError::BadBlock),
        }
    }

    /// Suballocates `size` bytes (rounded up to pages) from `id`.
    ///
    /// Returns the base virtual address of the allocation.
    pub fn suballoc(&mut self, owner: u64, id: BlockId, size: u64) -> Result<u64, VasError> {
        if size == 0 {
            return Err(VasError::ZeroSize);
        }
        let block = match self.blocks.get_mut(&id) {
            Some(b) if b.owner == owner => b,
            _ => return Err(VasError::BadBlock),
        };
        let size = page_align_up(size);
        let addr = block.next;
        let end = addr.checked_add(size).ok_or(VasError::BlockFull)?;
        if end > block.base + BLOCK_SIZE {
            return Err(VasError::BlockFull);
        }
        block.next = end;
        Ok(addr)
    }

    /// Returns the base address of a block.
    pub fn block_base(&self, id: BlockId) -> Option<u64> {
        self.blocks.get(&id).map(|b| b.base)
    }

    /// Returns the owner of the block containing `addr`, if any. Used by the
    /// kernel's cross-process page-fault resolution (§7.4 discusses this
    /// lookup; we implement the indexed variant the paper suggests).
    pub fn owner_of_addr(&self, addr: u64) -> Option<u64> {
        if addr < GLOBAL_BASE {
            return None;
        }
        let idx = (addr - GLOBAL_BASE) / BLOCK_SIZE;
        self.blocks.get(&BlockId(idx)).map(|b| b.owner)
    }

    /// Number of block reservations performed so far.
    pub fn reservations(&self) -> u64 {
        self.reservations
    }
}

/// Conventional private-process address-space layout.
///
/// Non-dIPC processes use a private page table with this textbook layout;
/// dIPC-enabled processes instead live in the global space.
#[derive(Clone, Copy, Debug)]
pub struct ProcLayout {
    /// Base of the heap (grows up).
    pub heap_base: u64,
    /// Top of the main thread's stack (grows down).
    pub stack_top: u64,
    /// Per-thread stack size in bytes.
    pub stack_size: u64,
}

impl Default for ProcLayout {
    fn default() -> Self {
        ProcLayout {
            heap_base: 0x0000_0000_1000_0000,
            stack_top: 0x0000_0000_7fff_f000,
            stack_size: 64 * PAGE_SIZE,
        }
    }
}

impl ProcLayout {
    /// Returns the stack top for thread index `i` within the process (each
    /// thread gets a disjoint stack region with a guard page between them).
    pub fn stack_top_for_thread(&self, i: u64) -> u64 {
        self.stack_top - i * (self.stack_size + PAGE_SIZE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reserve_and_suballoc() {
        let mut vas = GlobalVas::new();
        let b = vas.reserve_block(1).unwrap();
        let a1 = vas.suballoc(1, b, 100).unwrap();
        let a2 = vas.suballoc(1, b, 100).unwrap();
        assert_eq!(a1, vas.block_base(b).unwrap());
        assert_eq!(a2, a1 + PAGE_SIZE, "allocations are page granular");
    }

    #[test]
    fn ownership_enforced() {
        let mut vas = GlobalVas::new();
        let b = vas.reserve_block(1).unwrap();
        assert_eq!(vas.suballoc(2, b, 100), Err(VasError::BadBlock));
        assert_eq!(vas.release_block(2, b), Err(VasError::BadBlock));
        assert!(vas.release_block(1, b).is_ok());
    }

    #[test]
    fn block_full() {
        let mut vas = GlobalVas::new();
        let b = vas.reserve_block(1).unwrap();
        assert!(vas.suballoc(1, b, BLOCK_SIZE).is_ok());
        assert_eq!(vas.suballoc(1, b, 1), Err(VasError::BlockFull));
    }

    #[test]
    fn distinct_blocks_disjoint() {
        let mut vas = GlobalVas::new();
        let b1 = vas.reserve_block(1).unwrap();
        let b2 = vas.reserve_block(2).unwrap();
        let base1 = vas.block_base(b1).unwrap();
        let base2 = vas.block_base(b2).unwrap();
        assert_eq!((base2 - base1), BLOCK_SIZE);
    }

    #[test]
    fn owner_lookup_by_addr() {
        let mut vas = GlobalVas::new();
        let b = vas.reserve_block(42).unwrap();
        let base = vas.block_base(b).unwrap();
        assert_eq!(vas.owner_of_addr(base + 12345), Some(42));
        assert_eq!(vas.owner_of_addr(0x1000), None);
    }

    #[test]
    fn released_blocks_are_recycled() {
        let mut vas = GlobalVas::new();
        let b1 = vas.reserve_block(1).unwrap();
        let base1 = vas.block_base(b1).unwrap();
        vas.release_block(1, b1).unwrap();
        let b2 = vas.reserve_block(2).unwrap();
        assert_eq!(vas.block_base(b2).unwrap(), base1);
    }

    #[test]
    fn zero_size_rejected() {
        let mut vas = GlobalVas::new();
        let b = vas.reserve_block(1).unwrap();
        assert_eq!(vas.suballoc(1, b, 0), Err(VasError::ZeroSize));
    }

    #[test]
    fn thread_stacks_disjoint() {
        let l = ProcLayout::default();
        let t0 = l.stack_top_for_thread(0);
        let t1 = l.stack_top_for_thread(1);
        assert!(t0 - t1 > l.stack_size, "guard page separates stacks");
    }
}
