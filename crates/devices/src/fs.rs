//! A small flash filesystem over the FTL.
//!
//! Flat namespace, byte-granular reads and writes (read-modify-write at
//! page granularity underneath), per-file logical-page extent lists. The
//! directory is an in-memory structure owned by the SSD firmware; rebuilding
//! it from flash at mount is out of scope for the emulator and documented
//! as such in DESIGN.md.

use std::collections::BTreeMap;
use std::fmt;

use lastcpu_sim::SimDuration;

use crate::ftl::{Ftl, FtlError};

/// Errors from filesystem operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsError {
    /// No such file.
    NotFound,
    /// File already exists.
    Exists,
    /// No space for the requested growth.
    NoSpace,
    /// Read past end of file.
    PastEof,
    /// The FTL failed.
    Ftl(FtlError),
}

impl From<FtlError> for FsError {
    fn from(e: FtlError) -> Self {
        match e {
            FtlError::NoSpace => FsError::NoSpace,
            other => FsError::Ftl(other),
        }
    }
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::NotFound => write!(f, "no such file"),
            FsError::Exists => write!(f, "file exists"),
            FsError::NoSpace => write!(f, "no space"),
            FsError::PastEof => write!(f, "read past end of file"),
            FsError::Ftl(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FsError {}

#[derive(Debug, Clone)]
struct FileMeta {
    /// Logical pages backing the file, in order.
    lpns: Vec<u32>,
    /// Size in bytes.
    size: u64,
}

/// The flash filesystem.
pub struct FlashFs {
    ftl: Ftl,
    files: BTreeMap<String, FileMeta>,
    /// Logical pages not owned by any file.
    free_lpns: Vec<u32>,
}

impl FlashFs {
    /// Formats a filesystem over `ftl`.
    pub fn format(ftl: Ftl) -> Self {
        let free_lpns = (0..ftl.logical_pages()).rev().collect();
        FlashFs {
            ftl,
            files: BTreeMap::new(),
            free_lpns,
        }
    }

    /// Page size in bytes.
    pub fn page_size(&self) -> u32 {
        self.ftl.page_size()
    }

    /// Free capacity in bytes.
    pub fn free_bytes(&self) -> u64 {
        self.free_lpns.len() as u64 * self.page_size() as u64
    }

    /// The underlying FTL (stats, fault injection).
    pub fn ftl_mut(&mut self) -> &mut Ftl {
        &mut self.ftl
    }

    /// Creates an empty file.
    pub fn create(&mut self, name: &str) -> Result<(), FsError> {
        if self.files.contains_key(name) {
            return Err(FsError::Exists);
        }
        self.files.insert(
            name.to_string(),
            FileMeta {
                lpns: Vec::new(),
                size: 0,
            },
        );
        Ok(())
    }

    /// Whether `name` exists.
    pub fn exists(&self, name: &str) -> bool {
        self.files.contains_key(name)
    }

    /// File size in bytes.
    pub fn len(&self, name: &str) -> Result<u64, FsError> {
        self.files
            .get(name)
            .map(|m| m.size)
            .ok_or(FsError::NotFound)
    }

    /// Lists file names in lexicographic order.
    pub fn list(&self) -> Vec<String> {
        self.files.keys().cloned().collect()
    }

    /// Deletes a file, trimming its pages.
    pub fn delete(&mut self, name: &str) -> Result<(), FsError> {
        let meta = self.files.remove(name).ok_or(FsError::NotFound)?;
        for lpn in meta.lpns {
            // Trim cannot fail for pages we own.
            self.ftl.trim(lpn).expect("owned page in range");
            self.free_lpns.push(lpn);
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `offset`, returning the flash time spent.
    ///
    /// Fails with [`FsError::PastEof`] if the range extends past the end.
    pub fn read(
        &mut self,
        name: &str,
        offset: u64,
        buf: &mut [u8],
    ) -> Result<SimDuration, FsError> {
        let meta = self.files.get(name).ok_or(FsError::NotFound)?;
        if offset + buf.len() as u64 > meta.size {
            return Err(FsError::PastEof);
        }
        let ps = self.page_size() as u64;
        let lpns = meta.lpns.clone();
        let mut cost = SimDuration::ZERO;
        let mut done = 0usize;
        let mut pos = offset;
        let mut page_buf = vec![0u8; ps as usize];
        while done < buf.len() {
            let page_idx = (pos / ps) as usize;
            let in_page = (ps - pos % ps) as usize;
            let chunk = in_page.min(buf.len() - done);
            let lpn = lpns[page_idx];
            cost += self.ftl.read(lpn, &mut page_buf)?;
            let start = (pos % ps) as usize;
            buf[done..done + chunk].copy_from_slice(&page_buf[start..start + chunk]);
            done += chunk;
            pos += chunk as u64;
        }
        Ok(cost)
    }

    /// Writes `data` at `offset`, growing the file as needed. Returns the
    /// flash time spent.
    pub fn write(&mut self, name: &str, offset: u64, data: &[u8]) -> Result<SimDuration, FsError> {
        if data.is_empty() {
            return if self.files.contains_key(name) {
                Ok(SimDuration::ZERO)
            } else {
                Err(FsError::NotFound)
            };
        }
        let ps = self.page_size() as u64;
        let end = offset + data.len() as u64;
        let pages_needed = end.div_ceil(ps) as usize;
        {
            let meta = self.files.get(name).ok_or(FsError::NotFound)?;
            if pages_needed > meta.lpns.len()
                && self.free_lpns.len() < pages_needed - meta.lpns.len()
            {
                return Err(FsError::NoSpace);
            }
        }
        // Grow the extent list.
        let mut grew: Vec<u32> = Vec::new();
        {
            let meta = self.files.get(name).expect("checked above");
            for _ in meta.lpns.len()..pages_needed {
                grew.push(self.free_lpns.pop().expect("checked space"));
            }
        }
        let meta = self.files.get_mut(name).expect("checked above");
        meta.lpns.extend(grew);
        meta.size = meta.size.max(end);
        let lpns = meta.lpns.clone();
        let size = meta.size;

        let mut cost = SimDuration::ZERO;
        let mut done = 0usize;
        let mut pos = offset;
        let mut page_buf = vec![0u8; ps as usize];
        while done < data.len() {
            let page_idx = (pos / ps) as usize;
            let in_page = (ps - pos % ps) as usize;
            let chunk = in_page.min(data.len() - done);
            let lpn = lpns[page_idx];
            if chunk as u64 != ps {
                // Partial page: read-modify-write (skip the read for a
                // fresh page past the old size — it reads zero anyway).
                cost += self.ftl.read(lpn, &mut page_buf)?;
            } else {
                page_buf.fill(0);
            }
            let start = (pos % ps) as usize;
            page_buf[start..start + chunk].copy_from_slice(&data[done..done + chunk]);
            cost += self.ftl.write(lpn, &page_buf)?;
            done += chunk;
            pos += chunk as u64;
        }
        debug_assert!(size >= end);
        Ok(cost)
    }
}

impl fmt::Debug for FlashFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FlashFs(files={}, free={}KiB)",
            self.files.len(),
            self.free_bytes() / 1024
        )
    }
}

impl lastcpu_snap::Snapshot for FlashFs {
    fn snapshot(&self, w: &mut lastcpu_snap::SnapWriter) {
        self.ftl.snapshot(w);
        w.put_len(self.files.len());
        for (name, meta) in &self.files {
            w.put_str(name);
            w.put_u64(meta.size);
            w.put_len(meta.lpns.len());
            for &l in &meta.lpns {
                w.put_u32(l);
            }
        }
        w.put_len(self.free_lpns.len());
        for &l in &self.free_lpns {
            w.put_u32(l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flash::{NandChip, NandConfig};

    fn fs() -> FlashFs {
        FlashFs::format(Ftl::new(NandChip::new(NandConfig {
            blocks: 32,
            pages_per_block: 8,
            page_size: 64,
            max_erase_cycles: u32::MAX,
            ..NandConfig::default()
        })))
    }

    #[test]
    fn create_write_read() {
        let mut f = fs();
        f.create("/data/kv.db").unwrap();
        f.write("/data/kv.db", 0, b"hello flash").unwrap();
        let mut buf = [0u8; 11];
        f.read("/data/kv.db", 0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello flash");
        assert_eq!(f.len("/data/kv.db").unwrap(), 11);
    }

    #[test]
    fn create_duplicate_rejected() {
        let mut f = fs();
        f.create("a").unwrap();
        assert_eq!(f.create("a"), Err(FsError::Exists));
    }

    #[test]
    fn missing_file_errors() {
        let mut f = fs();
        let mut buf = [0u8; 1];
        assert_eq!(f.read("nope", 0, &mut buf), Err(FsError::NotFound));
        assert_eq!(f.write("nope", 0, b"x"), Err(FsError::NotFound));
        assert_eq!(f.len("nope"), Err(FsError::NotFound));
        assert_eq!(f.delete("nope"), Err(FsError::NotFound));
    }

    #[test]
    fn writes_spanning_pages() {
        let mut f = fs();
        f.create("big").unwrap();
        let data: Vec<u8> = (0..300).map(|i| (i % 256) as u8).collect();
        f.write("big", 10, &data).unwrap();
        assert_eq!(f.len("big").unwrap(), 310);
        let mut buf = vec![0u8; 300];
        f.read("big", 10, &mut buf).unwrap();
        assert_eq!(buf, data);
        // Bytes before the write offset read as zero.
        let mut head = [0xAAu8; 10];
        f.read("big", 0, &mut head).unwrap();
        assert_eq!(head, [0u8; 10]);
    }

    #[test]
    fn overwrite_middle_preserves_rest() {
        let mut f = fs();
        f.create("x").unwrap();
        f.write("x", 0, &[1u8; 200]).unwrap();
        f.write("x", 50, &[2u8; 20]).unwrap();
        let mut buf = [0u8; 200];
        f.read("x", 0, &mut buf).unwrap();
        assert!(buf[..50].iter().all(|&b| b == 1));
        assert!(buf[50..70].iter().all(|&b| b == 2));
        assert!(buf[70..].iter().all(|&b| b == 1));
        assert_eq!(f.len("x").unwrap(), 200);
    }

    #[test]
    fn read_past_eof_rejected() {
        let mut f = fs();
        f.create("x").unwrap();
        f.write("x", 0, b"abc").unwrap();
        let mut buf = [0u8; 4];
        assert_eq!(f.read("x", 0, &mut buf), Err(FsError::PastEof));
        assert_eq!(f.read("x", 3, &mut buf[..1]), Err(FsError::PastEof));
    }

    #[test]
    fn delete_frees_space() {
        let mut f = fs();
        let before = f.free_bytes();
        f.create("x").unwrap();
        f.write("x", 0, &vec![0u8; 1000]).unwrap();
        assert!(f.free_bytes() < before);
        f.delete("x").unwrap();
        assert_eq!(f.free_bytes(), before);
        assert!(!f.exists("x"));
    }

    #[test]
    fn no_space_reported_cleanly() {
        let mut f = fs();
        f.create("hog").unwrap();
        let cap = f.free_bytes();
        f.write("hog", 0, &vec![1u8; cap as usize]).unwrap();
        f.create("more").unwrap();
        assert_eq!(f.write("more", 0, b"x"), Err(FsError::NoSpace));
        // Existing data intact.
        let mut buf = [0u8; 1];
        f.read("hog", cap - 1, &mut buf).unwrap();
        assert_eq!(buf[0], 1);
    }

    #[test]
    fn list_is_sorted() {
        let mut f = fs();
        f.create("b").unwrap();
        f.create("a").unwrap();
        assert_eq!(f.list(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn empty_write_is_noop() {
        let mut f = fs();
        f.create("x").unwrap();
        assert_eq!(f.write("x", 5, &[]).unwrap(), SimDuration::ZERO);
        assert_eq!(f.len("x").unwrap(), 0);
    }

    #[test]
    fn flash_cost_is_reported() {
        let mut f = fs();
        f.create("x").unwrap();
        let wcost = f.write("x", 0, &[1u8; 128]).unwrap();
        assert!(wcost > SimDuration::ZERO);
        let mut buf = [0u8; 128];
        let rcost = f.read("x", 0, &mut buf).unwrap();
        assert!(rcost > SimDuration::ZERO);
        assert!(rcost < wcost, "flash reads are cheaper than programs");
    }
}
