//! Buffer-space allocator for the shared region.
//!
//! Descriptors point at request/response buffers that must also live in the
//! shared memory region. The arena hands out fixed-size slots from the area
//! behind the queue structures — the same strategy as a driver's DMA buffer
//! pool. Fixed-size slots keep free O(1) and make exhaustion behaviour
//! (queue backpressure) easy to reason about in experiments.

/// A fixed-slot buffer allocator over `[base, base + slot_size * slots)`.
#[derive(Debug)]
pub struct BufferArena {
    base: u64,
    slot_size: u64,
    free: Vec<u16>,
    total: u16,
}

impl BufferArena {
    /// Creates an arena of `slots` slots of `slot_size` bytes at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `slots` or `slot_size` is zero.
    pub fn new(base: u64, slot_size: u64, slots: u16) -> Self {
        assert!(slots > 0 && slot_size > 0, "arena must be non-empty");
        // LIFO free list: hot slots are reused first (cache-friendly on
        // real hardware, deterministic here).
        let free = (0..slots).rev().collect();
        BufferArena {
            base,
            slot_size,
            free,
            total: slots,
        }
    }

    /// Slot size in bytes.
    pub fn slot_size(&self) -> u64 {
        self.slot_size
    }

    /// Number of free slots.
    pub fn free_slots(&self) -> usize {
        self.free.len()
    }

    /// Total slots.
    pub fn total_slots(&self) -> u16 {
        self.total
    }

    /// First byte past the arena.
    pub fn end(&self) -> u64 {
        self.base + self.slot_size * self.total as u64
    }

    /// Allocates a slot, returning its virtual address.
    pub fn alloc(&mut self) -> Option<u64> {
        self.free
            .pop()
            .map(|s| self.base + self.slot_size * s as u64)
    }

    /// Returns a slot by its virtual address.
    ///
    /// # Panics
    ///
    /// Panics if `va` is not a slot base inside this arena or the slot is
    /// already free — both indicate corrupted driver state.
    pub fn free(&mut self, va: u64) {
        assert!(
            va >= self.base && va < self.end(),
            "address {va:#x} outside arena"
        );
        let off = va - self.base;
        assert_eq!(off % self.slot_size, 0, "address {va:#x} not a slot base");
        let slot = (off / self.slot_size) as u16;
        assert!(!self.free.contains(&slot), "double free of slot {slot}");
        self.free.push(slot);
    }
}

impl lastcpu_snap::Snapshot for BufferArena {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u64(self.base);
        w.put_u64(self.slot_size);
        w.put_u16(self.total);
        w.put_len(self.free.len());
        for &s in &self.free {
            w.put_u16(s);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut a = BufferArena::new(0x1000, 512, 4);
        let mut got = vec![];
        while let Some(va) = a.alloc() {
            got.push(va);
        }
        assert_eq!(got.len(), 4);
        // Distinct, slot-aligned, in range.
        for &va in &got {
            assert!(va >= 0x1000 && va < a.end());
            assert_eq!((va - 0x1000) % 512, 0);
        }
        got.dedup();
        assert_eq!(got.len(), 4);
        for va in got {
            a.free(va);
        }
        assert_eq!(a.free_slots(), 4);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = BufferArena::new(0, 64, 1);
        assert!(a.alloc().is_some());
        assert!(a.alloc().is_none());
    }

    #[test]
    fn lifo_reuse() {
        let mut a = BufferArena::new(0, 64, 2);
        let first = a.alloc().unwrap();
        a.free(first);
        assert_eq!(a.alloc().unwrap(), first);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = BufferArena::new(0, 64, 2);
        let va = a.alloc().unwrap();
        a.free(va);
        a.free(va);
    }

    #[test]
    #[should_panic(expected = "not a slot base")]
    fn misaligned_free_panics() {
        let mut a = BufferArena::new(0, 64, 2);
        let va = a.alloc().unwrap();
        a.free(va + 1);
    }

    #[test]
    #[should_panic(expected = "outside arena")]
    fn foreign_free_panics() {
        let mut a = BufferArena::new(0x1000, 64, 2);
        a.free(0x10);
    }
}
