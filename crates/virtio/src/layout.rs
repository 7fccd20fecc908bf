//! Split-virtqueue byte layout (VIRTIO 1.1 §2.6).
//!
//! ```text
//! base ─► descriptor table   16 bytes × N          (align 16)
//!         available ring     4 + 2 × N bytes       (align 2)
//!         used ring          4 + 8 × N bytes       (align 4)
//! ```

/// Size of one descriptor in bytes.
pub const DESC_SIZE: u64 = 16;

/// Byte layout of one split virtqueue of `size` entries at `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLayout {
    /// Queue size (number of descriptors); a power of two ≤ 32768.
    pub size: u16,
    /// Virtual address of the descriptor table.
    pub desc: u64,
    /// Virtual address of the available ring.
    pub avail: u64,
    /// Virtual address of the used ring.
    pub used: u64,
}

fn align_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

impl QueueLayout {
    /// Computes the layout for a queue of `size` entries at `base`.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero, not a power of two, or exceeds 32768 —
    /// these are protocol constants, not runtime conditions. The
    /// power-of-two requirement is load-bearing for correctness, not just
    /// VIRTIO conformance: ring cursors are free-running `u16`s that wrap
    /// at 65536, and [`QueueLayout::slot`] reduces them with a bitmask.
    /// With a non-power-of-two size, `idx % size` and the wrapped cursor
    /// distance (`wrapping_sub`) disagree after the first u16 wrap —
    /// 65536 % 12 ≠ 0 — so the slot pointer and the pending count would
    /// drift apart permanently.
    pub fn new(base: u64, size: u16) -> Self {
        assert!(size > 0 && size <= 32768, "queue size out of range");
        assert!(size.is_power_of_two(), "queue size must be a power of two");
        let desc = align_up(base, 16);
        let avail = align_up(desc + DESC_SIZE * size as u64, 2);
        let used = align_up(avail + 4 + 2 * size as u64, 4);
        QueueLayout {
            size,
            desc,
            avail,
            used,
        }
    }

    /// Reduces a free-running ring cursor to its slot in `[0, size)`.
    ///
    /// Uses a bitmask rather than `%` so the reduction stays consistent
    /// with `u16` cursor wraparound (valid because `size` is a power of
    /// two, enforced at construction).
    pub fn slot(&self, cursor: u16) -> u16 {
        cursor & (self.size - 1)
    }

    /// Total bytes the queue structures occupy from `desc` to the end of
    /// the used ring.
    pub fn total_bytes(&self) -> u64 {
        self.used + 4 + 8 * self.size as u64 - self.desc
    }

    /// First byte past the queue structures (where buffer space can start).
    pub fn end(&self) -> u64 {
        self.used + 4 + 8 * self.size as u64
    }

    /// Address of descriptor `i`.
    pub fn desc_addr(&self, i: u16) -> u64 {
        debug_assert!(i < self.size);
        self.desc + DESC_SIZE * i as u64
    }

    /// Address of the available ring's `flags` field.
    pub fn avail_flags(&self) -> u64 {
        self.avail
    }

    /// Address of the available ring's `idx` field.
    pub fn avail_idx(&self) -> u64 {
        self.avail + 2
    }

    /// Address of available ring slot `i` (callers pass `idx % size`).
    pub fn avail_ring(&self, i: u16) -> u64 {
        debug_assert!(i < self.size);
        self.avail + 4 + 2 * i as u64
    }

    /// Address of the used ring's `flags` field.
    pub fn used_flags(&self) -> u64 {
        self.used
    }

    /// Address of the used ring's `idx` field.
    pub fn used_idx(&self) -> u64 {
        self.used + 2
    }

    /// Address of used ring element `i` (8 bytes: id u32 + len u32).
    pub fn used_ring(&self, i: u16) -> u64 {
        debug_assert!(i < self.size);
        self.used + 4 + 8 * i as u64
    }
}

impl QueueLayout {
    /// Serializes into a snapshot section.
    pub fn encode(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u16(self.size);
        w.put_u64(self.desc);
        w.put_u64(self.avail);
        w.put_u64(self.used);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_ordered_and_aligned() {
        let l = QueueLayout::new(0x1000, 64);
        assert_eq!(l.desc % 16, 0);
        assert_eq!(l.avail % 2, 0);
        assert_eq!(l.used % 4, 0);
        assert!(l.desc < l.avail);
        assert!(l.avail < l.used);
        assert_eq!(l.desc, 0x1000);
        assert_eq!(l.avail, 0x1000 + 16 * 64);
    }

    #[test]
    fn unaligned_base_is_aligned_up() {
        let l = QueueLayout::new(0x1001, 8);
        assert_eq!(l.desc, 0x1010);
    }

    #[test]
    fn regions_do_not_overlap() {
        for size in [1u16, 2, 8, 256, 1024] {
            let l = QueueLayout::new(0, size);
            let desc_end = l.desc + DESC_SIZE * size as u64;
            let avail_end = l.avail + 4 + 2 * size as u64;
            assert!(desc_end <= l.avail, "size {size}");
            assert!(avail_end <= l.used, "size {size}");
            assert_eq!(l.end(), l.used + 4 + 8 * size as u64);
            assert!(l.total_bytes() > 0);
        }
    }

    #[test]
    fn element_addresses_are_within_regions() {
        let l = QueueLayout::new(0x2000, 16);
        assert_eq!(l.desc_addr(0), l.desc);
        assert_eq!(l.desc_addr(15), l.desc + 15 * 16);
        assert_eq!(l.avail_ring(0), l.avail + 4);
        assert_eq!(l.used_ring(0), l.used + 4);
        assert_eq!(l.avail_idx(), l.avail + 2);
        assert_eq!(l.used_idx(), l.used + 2);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        QueueLayout::new(0, 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn zero_size_rejected() {
        QueueLayout::new(0, 0);
    }
}
