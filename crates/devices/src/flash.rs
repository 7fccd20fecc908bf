//! NAND flash chip model.
//!
//! Models the constraints that make flash management non-trivial and the
//! latencies that dominate the SSD's service times:
//!
//! - pages must be erased (block-granular) before they can be programmed;
//! - pages within a block must be programmed in order;
//! - erase wears a block out; worn-out blocks go bad and must be retired
//!   (also available as fault injection for the E4 experiment);
//! - read ≪ program ≪ erase latency.
//!
//! Each operation returns the virtual time it took; the caller (FTL → SSD
//! device) accumulates it into the handler's cost.

use std::collections::HashMap;
use std::fmt;

use lastcpu_sim::SimDuration;

/// Flash geometry and timing.
#[derive(Debug, Clone, Copy)]
pub struct NandConfig {
    /// Number of erase blocks.
    pub blocks: u32,
    /// Pages per erase block.
    pub pages_per_block: u32,
    /// Page size in bytes.
    pub page_size: u32,
    /// Page read latency.
    pub read_latency: SimDuration,
    /// Page program latency.
    pub program_latency: SimDuration,
    /// Block erase latency.
    pub erase_latency: SimDuration,
    /// Erase cycles before a block wears out (`u32::MAX` = never).
    pub max_erase_cycles: u32,
}

impl Default for NandConfig {
    fn default() -> Self {
        // TLC-ish NAND behind an SSD controller.
        NandConfig {
            blocks: 256,
            pages_per_block: 64,
            page_size: 4096,
            read_latency: SimDuration::from_micros(25),
            program_latency: SimDuration::from_micros(200),
            erase_latency: SimDuration::from_millis(2),
            max_erase_cycles: 3000,
        }
    }
}

/// Errors from flash operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashError {
    /// Block or page index out of range.
    OutOfRange,
    /// Program on a page that is not erased.
    NotErased,
    /// Pages within a block must be programmed sequentially.
    OutOfOrderProgram,
    /// The block is marked bad.
    BadBlock,
    /// Data length does not equal the page size.
    BadLength,
}

impl fmt::Display for FlashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FlashError::OutOfRange => "address out of range",
            FlashError::NotErased => "program on non-erased page",
            FlashError::OutOfOrderProgram => "out-of-order program within block",
            FlashError::BadBlock => "block is bad",
            FlashError::BadLength => "data length != page size",
        };
        f.write_str(s)
    }
}

impl std::error::Error for FlashError {}

#[derive(Debug, Clone, Default)]
struct BlockState {
    erase_count: u32,
    /// Index of the next page that may be programmed (sequential rule).
    write_ptr: u32,
    bad: bool,
}

/// Aggregate flash statistics.
#[derive(Debug, Default, Clone, Copy)]
pub struct FlashStats {
    /// Pages read.
    pub reads: u64,
    /// Pages programmed.
    pub programs: u64,
    /// Blocks erased.
    pub erases: u64,
    /// Blocks that have gone bad.
    pub bad_blocks: u32,
}

/// A NAND chip.
pub struct NandChip {
    config: NandConfig,
    /// Programmed page contents, keyed by (block, page). Erased pages are
    /// absent (read back as 0xFF, as on real NAND).
    data: HashMap<(u32, u32), Vec<u8>>,
    blocks: Vec<BlockState>,
    stats: FlashStats,
}

impl NandChip {
    /// A chip with the given geometry, fully erased.
    pub fn new(config: NandConfig) -> Self {
        NandChip {
            blocks: vec![BlockState::default(); config.blocks as usize],
            data: HashMap::new(),
            config,
            stats: FlashStats::default(),
        }
    }

    /// The chip's geometry and timing.
    pub fn config(&self) -> &NandConfig {
        &self.config
    }

    /// Counters.
    pub fn stats(&self) -> FlashStats {
        self.stats
    }

    /// Total pages on the chip.
    pub fn total_pages(&self) -> u64 {
        self.config.blocks as u64 * self.config.pages_per_block as u64
    }

    fn in_range(&self, block: u32, page: u32) -> Result<(), FlashError> {
        if block >= self.config.blocks || page >= self.config.pages_per_block {
            return Err(FlashError::OutOfRange);
        }
        Ok(())
    }

    fn check(&self, block: u32, page: u32) -> Result<(), FlashError> {
        self.in_range(block, page)?;
        if self.blocks[block as usize].bad {
            return Err(FlashError::BadBlock);
        }
        Ok(())
    }

    /// Reads one page into `buf` (must be exactly one page long).
    ///
    /// Reads succeed even on *bad* blocks: wear-out kills erase/program,
    /// not (usually) reads — which is what lets an FTL relocate the live
    /// data off a block it is retiring.
    pub fn read_page(
        &mut self,
        block: u32,
        page: u32,
        buf: &mut [u8],
    ) -> Result<SimDuration, FlashError> {
        self.in_range(block, page)?;
        if buf.len() != self.config.page_size as usize {
            return Err(FlashError::BadLength);
        }
        match self.data.get(&(block, page)) {
            Some(d) => buf.copy_from_slice(d),
            None => buf.fill(0xFF), // erased pages read all-ones
        }
        self.stats.reads += 1;
        Ok(self.config.read_latency)
    }

    /// Programs one page (must be erased; must be the block's next page).
    pub fn program_page(
        &mut self,
        block: u32,
        page: u32,
        data: &[u8],
    ) -> Result<SimDuration, FlashError> {
        self.check(block, page)?;
        if data.len() != self.config.page_size as usize {
            return Err(FlashError::BadLength);
        }
        let st = &mut self.blocks[block as usize];
        if page < st.write_ptr {
            return Err(FlashError::NotErased);
        }
        if page > st.write_ptr {
            return Err(FlashError::OutOfOrderProgram);
        }
        st.write_ptr += 1;
        self.data.insert((block, page), data.to_vec());
        self.stats.programs += 1;
        Ok(self.config.program_latency)
    }

    /// Erases one block. Wears the block; a worn-out block goes bad.
    pub fn erase_block(&mut self, block: u32) -> Result<SimDuration, FlashError> {
        self.check(block, 0)?;
        for page in 0..self.config.pages_per_block {
            self.data.remove(&(block, page));
        }
        let max = self.config.max_erase_cycles;
        let st = &mut self.blocks[block as usize];
        st.write_ptr = 0;
        st.erase_count += 1;
        self.stats.erases += 1;
        if st.erase_count >= max {
            st.bad = true;
            self.stats.bad_blocks += 1;
        }
        Ok(self.config.erase_latency)
    }

    /// Erase count of a block (wear metric).
    pub fn erase_count(&self, block: u32) -> u32 {
        self.blocks.get(block as usize).map_or(0, |b| b.erase_count)
    }

    /// Whether a block is bad.
    pub fn is_bad(&self, block: u32) -> bool {
        match self.blocks.get(block as usize) {
            Some(b) => b.bad,
            None => true,
        }
    }

    /// Fault injection: marks a block bad immediately.
    pub fn force_bad_block(&mut self, block: u32) {
        if let Some(b) = self.blocks.get_mut(block as usize) {
            if !b.bad {
                b.bad = true;
                self.stats.bad_blocks += 1;
            }
        }
    }
}

impl fmt::Debug for NandChip {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "NandChip(blocks={}, bad={}, programs={})",
            self.config.blocks, self.stats.bad_blocks, self.stats.programs
        )
    }
}

impl lastcpu_snap::Snapshot for NandChip {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        w.put_u32(self.config.blocks);
        w.put_u32(self.config.pages_per_block);
        w.put_u32(self.config.page_size);
        w.put_u64(self.config.read_latency.as_nanos());
        w.put_u64(self.config.program_latency.as_nanos());
        w.put_u64(self.config.erase_latency.as_nanos());
        w.put_u32(self.config.max_erase_cycles);
        w.put_u64(self.stats.reads);
        w.put_u64(self.stats.programs);
        w.put_u64(self.stats.erases);
        w.put_u32(self.stats.bad_blocks);
        w.put_len(self.blocks.len());
        for b in &self.blocks {
            w.put_u32(b.erase_count);
            w.put_u32(b.write_ptr);
            w.put_bool(b.bad);
        }
        let mut pages: Vec<_> = self.data.keys().copied().collect();
        pages.sort_unstable();
        w.put_len(pages.len());
        for (blk, pg) in pages {
            w.put_u32(blk);
            w.put_u32(pg);
            w.put_bytes_rle(&self.data[&(blk, pg)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NandChip {
        NandChip::new(NandConfig {
            blocks: 4,
            pages_per_block: 4,
            page_size: 16,
            max_erase_cycles: 3,
            ..NandConfig::default()
        })
    }

    #[test]
    fn erased_pages_read_ff() {
        let mut c = small();
        let mut buf = [0u8; 16];
        c.read_page(0, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xFF));
    }

    #[test]
    fn program_read_round_trip() {
        let mut c = small();
        let data = [7u8; 16];
        let t = c.program_page(1, 0, &data).unwrap();
        assert!(t > SimDuration::ZERO);
        let mut buf = [0u8; 16];
        c.read_page(1, 0, &mut buf).unwrap();
        assert_eq!(buf, data);
    }

    #[test]
    fn double_program_rejected() {
        let mut c = small();
        c.program_page(0, 0, &[1; 16]).unwrap();
        assert_eq!(c.program_page(0, 0, &[2; 16]), Err(FlashError::NotErased));
    }

    #[test]
    fn out_of_order_program_rejected() {
        let mut c = small();
        assert_eq!(
            c.program_page(0, 2, &[1; 16]),
            Err(FlashError::OutOfOrderProgram)
        );
        c.program_page(0, 0, &[1; 16]).unwrap();
        c.program_page(0, 1, &[1; 16]).unwrap();
    }

    #[test]
    fn erase_enables_reprogramming() {
        let mut c = small();
        c.program_page(0, 0, &[1; 16]).unwrap();
        c.erase_block(0).unwrap();
        let mut buf = [0u8; 16];
        c.read_page(0, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0xFF));
        c.program_page(0, 0, &[2; 16]).unwrap();
    }

    #[test]
    fn wear_out_marks_bad() {
        let mut c = small(); // max 3 cycles
        c.erase_block(0).unwrap();
        c.erase_block(0).unwrap();
        assert!(!c.is_bad(0));
        c.erase_block(0).unwrap();
        assert!(c.is_bad(0));
        assert_eq!(c.erase_block(0), Err(FlashError::BadBlock));
        assert_eq!(c.stats().bad_blocks, 1);
    }

    #[test]
    fn forced_bad_block_rejects_writes_but_still_reads() {
        let mut c = small();
        c.program_page(2, 0, &[7; 16]).unwrap();
        c.force_bad_block(2);
        let mut buf = [0u8; 16];
        // Reads survive (so an FTL can evacuate the block)…
        c.read_page(2, 0, &mut buf).unwrap();
        assert_eq!(buf, [7u8; 16]);
        // …but program and erase are refused.
        assert_eq!(c.program_page(2, 1, &[0; 16]), Err(FlashError::BadBlock));
        assert_eq!(c.erase_block(2), Err(FlashError::BadBlock));
        // Idempotent.
        c.force_bad_block(2);
        assert_eq!(c.stats().bad_blocks, 1);
    }

    #[test]
    fn bounds_checked() {
        let mut c = small();
        let mut buf = [0u8; 16];
        assert_eq!(c.read_page(9, 0, &mut buf), Err(FlashError::OutOfRange));
        assert_eq!(c.read_page(0, 9, &mut buf), Err(FlashError::OutOfRange));
        assert_eq!(c.program_page(0, 0, &[0; 5]), Err(FlashError::BadLength));
    }

    #[test]
    fn latencies_are_ordered() {
        let cfg = NandConfig::default();
        assert!(cfg.read_latency < cfg.program_latency);
        assert!(cfg.program_latency < cfg.erase_latency);
    }
}
