//! Raw page storage: a flat array of fixed-size pages, in memory or in
//! a file. Physical reads/writes are counted so experiments can report
//! I/O volume independently of wall-clock time.

use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::Path;

/// Fixed page size in bytes.
pub const PAGE_SIZE: usize = 4096;

/// Identifier of a page (its position in the store).
pub type PageId = u32;

/// Errors raised by the storage substrate.
#[derive(Debug)]
pub enum StoreError {
    Io(io::Error),
    /// A structural invariant was violated (corrupt page, bad tag...).
    Corrupt(String),
    /// A requested key was not found where it was required.
    NotFound,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::NotFound => write!(f, "key not found"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// One page worth of bytes.
pub type Page = Box<[u8; PAGE_SIZE]>;

pub fn blank_page() -> Page {
    Box::new([0u8; PAGE_SIZE])
}

enum Backing {
    Memory(Vec<Page>),
    File { file: File, pages: u32 },
}

/// Page-granular storage with physical I/O counters.
pub struct Pager {
    backing: Backing,
    pub physical_reads: u64,
    pub physical_writes: u64,
}

impl Pager {
    /// An in-memory pager (volatile; used by tests and pure benchmarks).
    pub fn in_memory() -> Self {
        Pager {
            backing: Backing::Memory(Vec::new()),
            physical_reads: 0,
            physical_writes: 0,
        }
    }

    /// A file-backed pager; creates or truncates the file.
    pub fn create_file(path: &Path) -> Result<Self, StoreError> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Pager {
            backing: Backing::File { file, pages: 0 },
            physical_reads: 0,
            physical_writes: 0,
        })
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u32 {
        match &self.backing {
            Backing::Memory(v) => v.len() as u32,
            Backing::File { pages, .. } => *pages,
        }
    }

    /// Allocate a fresh zeroed page, returning its id.
    pub fn allocate(&mut self) -> Result<PageId, StoreError> {
        match &mut self.backing {
            Backing::Memory(v) => {
                v.push(blank_page());
                Ok((v.len() - 1) as PageId)
            }
            Backing::File { file, pages } => {
                let id = *pages;
                *pages += 1;
                let zero = [0u8; PAGE_SIZE];
                file.write_all_at(&zero, id as u64 * PAGE_SIZE as u64)?;
                self.physical_writes += 1;
                Ok(id)
            }
        }
    }

    /// Read a page into `buf` — the caller's frame, so a buffer pool can
    /// fault a page into the buffer it just evicted another from.
    pub fn read_into(&mut self, id: PageId, buf: &mut [u8; PAGE_SIZE]) -> Result<(), StoreError> {
        self.physical_reads += 1;
        match &mut self.backing {
            Backing::Memory(v) => {
                let page = v
                    .get(id as usize)
                    .ok_or_else(|| StoreError::Corrupt(format!("page {id} out of range")))?;
                buf.copy_from_slice(&page[..]);
                Ok(())
            }
            Backing::File { file, pages } => {
                if id >= *pages {
                    return Err(StoreError::Corrupt(format!("page {id} out of range")));
                }
                file.read_exact_at(buf, id as u64 * PAGE_SIZE as u64)?;
                Ok(())
            }
        }
    }

    /// Write a page back.
    pub fn write(&mut self, id: PageId, page: &Page) -> Result<(), StoreError> {
        self.physical_writes += 1;
        match &mut self.backing {
            Backing::Memory(v) => {
                let slot = v
                    .get_mut(id as usize)
                    .ok_or_else(|| StoreError::Corrupt(format!("page {id} out of range")))?;
                slot.copy_from_slice(&page[..]);
                Ok(())
            }
            Backing::File { file, pages } => {
                if id >= *pages {
                    return Err(StoreError::Corrupt(format!("page {id} out of range")));
                }
                file.write_all_at(&page[..], id as u64 * PAGE_SIZE as u64)?;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_roundtrip() {
        let mut p = Pager::in_memory();
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        assert_ne!(a, b);
        let mut page = blank_page();
        page[0] = 7;
        page[PAGE_SIZE - 1] = 9;
        p.write(a, &page).unwrap();
        let mut back = blank_page();
        p.read_into(a, &mut back).unwrap();
        assert_eq!(back[0], 7);
        assert_eq!(back[PAGE_SIZE - 1], 9);
        p.read_into(b, &mut back).unwrap();
        assert_eq!(back[0], 0, "a read overwrites whatever the buffer held");
    }

    #[test]
    fn out_of_range_is_error() {
        let mut p = Pager::in_memory();
        assert!(p.read_into(0, &mut blank_page()).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("relstore-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pager.db");
        let mut p = Pager::create_file(&path).unwrap();
        let a = p.allocate().unwrap();
        let mut page = blank_page();
        page[100] = 42;
        p.write(a, &page).unwrap();
        let mut back = blank_page();
        p.read_into(a, &mut back).unwrap();
        assert_eq!(back[100], 42);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_counters() {
        let mut p = Pager::in_memory();
        let a = p.allocate().unwrap();
        let mut buf = blank_page();
        p.read_into(a, &mut buf).unwrap();
        p.read_into(a, &mut buf).unwrap();
        assert_eq!(p.physical_reads, 2);
    }
}
