//! The paged columnar store: dictionary codes on disk, read page by
//! page through a shared buffer pool.
//!
//! The resident backend caps the extension at what fits in RAM; the
//! paper's target — 100M-row legacy databases — does not. This module
//! keeps a column's per-row `u32` codes (NULL = 0, exactly the
//! [`crate::encode::ColumnDict`] code space) in a spill file of fixed
//! [`PAGE_BYTES`] pages behind a small header ([`PageFile`], written
//! whole or streamed by [`PageFileWriter`]), while the *dictionary*
//! halves (decode table, encode index, NULL count, fused per-code
//! counts) stay resident as a codes-free [`ColumnDict::slim`] copy. The
//! pair is a [`PagedColumn`].
//!
//! A spilled column plus its [`BufferPool`] is a [`PagedSource`], a
//! [`CodeSource`] the single set of counting kernels in
//! [`crate::kernels`] runs over. The kernels pin one page per column at
//! a time, so the resident working set is bounded by the pool capacity,
//! not the extension size. Cross-column kernels that never touch
//! per-row codes — [`crate::encode::intersect_count`],
//! [`crate::encode::code_translation`],
//! [`crate::encode::decode_set_cols`] — run on the slim dictionaries
//! unchanged.
//!
//! Which columns spill is decided by the coded backend's pooled
//! residency ([`crate::backend::PagedBackend`]): a column encoded from
//! memory spills when it is longer than one page, and streamed-ingest
//! columns ([`crate::spill`]) arrive already spilled.

use crate::bufpool::{BufferPool, PageKey};
use crate::encode::ColumnDict;
use crate::kernels::CodeSource;
use std::fs::File;
use std::io::{BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Size of one on-disk code page in bytes (64 KiB).
pub const PAGE_BYTES: usize = 64 * 1024;
/// Codes per page (`PAGE_BYTES / 4`).
pub const PAGE_CODES: usize = PAGE_BYTES / 4;
/// Spill-file magic: format name + version.
const MAGIC: &[u8; 8] = b"DBREPG01";
/// Header bytes: magic, page size (u32), page count (u32), rows
/// (u64), FNV-1a checksum of the valid code stream (u64). All LE.
pub const HEADER_BYTES: usize = 32;

/// Typed failures of the paged store. Everything I/O-shaped carries a
/// rendered message (`std::io::Error` is neither `Clone` nor `Eq`,
/// which the [`crate::error::DbreError`] taxonomy requires).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// Underlying filesystem failure, rendered.
    Io(String),
    /// The file does not start with the spill-file magic.
    BadMagic,
    /// The header parsed but declares an impossible layout (e.g. a
    /// foreign page size).
    BadHeader(String),
    /// The file is shorter than its header claims.
    Truncated {
        /// Bytes the header implies.
        expected: u64,
        /// Bytes actually present.
        actual: u64,
    },
    /// The code stream does not hash to the header checksum.
    Checksum {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum of the bytes on disk.
        actual: u64,
    },
    /// A page number past the end of the file was requested.
    PageOutOfBounds {
        /// Requested page.
        page: u32,
        /// Pages in the file.
        pages: u32,
    },
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Io(m) => write!(f, "page file I/O error: {m}"),
            PageError::BadMagic => write!(f, "not a DBRE page file (bad magic)"),
            PageError::BadHeader(m) => write!(f, "bad page file header: {m}"),
            PageError::Truncated { expected, actual } => {
                write!(
                    f,
                    "page file truncated: {actual} bytes, header claims {expected}"
                )
            }
            PageError::Checksum { expected, actual } => {
                write!(
                    f,
                    "page file checksum mismatch: header {expected:#018x}, data {actual:#018x}"
                )
            }
            PageError::PageOutOfBounds { page, pages } => {
                write!(f, "page {page} out of bounds (file has {pages} pages)")
            }
        }
    }
}

impl std::error::Error for PageError {}

fn io_err(e: std::io::Error) -> PageError {
    PageError::Io(e.to_string())
}

/// FNV-1a over a code stream — cheap, dependency-free, good enough to
/// catch truncation-with-padding and bit rot in a spill file.
fn fnv1a64(mut hash: u64, codes: &[u32]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for c in codes {
        for b in c.to_le_bytes() {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(PRIME);
        }
    }
    hash
}
/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over raw bytes — the source-content half of the spill-cache
/// key ([`crate::spill`]) and the dictionary-file trailer hash.
pub(crate) fn fnv1a64_bytes(mut hash: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Seed for [`fnv1a64_bytes`] streams (the FNV offset basis).
pub(crate) const FNV_BYTES_SEED: u64 = FNV_OFFSET;

/// Process-unique spill-file ids; a rebuilt column gets a fresh id,
/// so the buffer pool can never serve pages of a dead generation.
static NEXT_FILE_ID: AtomicU64 = AtomicU64::new(1);

/// One column's codes spilled to disk: a header plus fixed-size pages
/// of little-endian `u32` codes, the last page zero-padded. Owned
/// files (created by [`PageFile::spill`]) are deleted on drop; files
/// opened from a path ([`PageFile::open`]) are left in place.
#[derive(Debug)]
pub struct PageFile {
    path: PathBuf,
    id: u64,
    pages: u32,
    rows: u64,
    checksum: u64,
    handle: Mutex<File>,
    owned: bool,
}

impl PageFile {
    /// Writes `codes` to a fresh spill file in the system temp
    /// directory and reopens it for reading.
    pub fn spill(codes: &[u32]) -> Result<PageFile, PageError> {
        let mut w = PageFileWriter::create_temp()?;
        w.append(codes)?;
        w.finish()
    }

    /// Opens an existing spill file, validating magic, header layout
    /// and physical length (a truncated file fails here, not on a
    /// later page read). The file is *not* deleted on drop.
    pub fn open(path: &Path) -> Result<PageFile, PageError> {
        let mut f = File::open(path).map_err(io_err)?;
        let mut header = [0u8; HEADER_BYTES];
        f.read_exact(&mut header).map_err(|_| {
            let actual = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            PageError::Truncated {
                expected: HEADER_BYTES as u64,
                actual,
            }
        })?;
        if &header[0..8] != MAGIC {
            return Err(PageError::BadMagic);
        }
        let page_bytes = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
        if page_bytes as usize != PAGE_BYTES {
            return Err(PageError::BadHeader(format!(
                "page size {page_bytes}, this build uses {PAGE_BYTES}"
            )));
        }
        let pages = u32::from_le_bytes([header[12], header[13], header[14], header[15]]);
        let mut rows8 = [0u8; 8];
        rows8.copy_from_slice(&header[16..24]);
        let rows = u64::from_le_bytes(rows8);
        let mut sum8 = [0u8; 8];
        sum8.copy_from_slice(&header[24..32]);
        let checksum = u64::from_le_bytes(sum8);
        if rows.div_ceil(PAGE_CODES as u64) != u64::from(pages) {
            return Err(PageError::BadHeader(format!(
                "{rows} rows do not fit {pages} pages"
            )));
        }
        let expected = HEADER_BYTES as u64 + u64::from(pages) * PAGE_BYTES as u64;
        let actual = f.metadata().map_err(io_err)?.len();
        if actual < expected {
            return Err(PageError::Truncated { expected, actual });
        }
        Ok(PageFile {
            path: path.to_path_buf(),
            id: NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed),
            pages,
            rows,
            checksum,
            handle: Mutex::new(f),
            owned: false,
        })
    }

    /// The process-unique id pages of this file are keyed under in
    /// the buffer pool.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Pages in the file.
    pub fn pages(&self) -> u32 {
        self.pages
    }

    /// Rows (valid codes) the file holds.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// The on-disk location (mostly for tests and diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Reads one page, trimmed to its valid codes (the tail page's
    /// zero padding never escapes — padding would be indistinguishable
    /// from NULLs).
    pub fn read_page(&self, page: u32) -> Result<Vec<u32>, PageError> {
        if page >= self.pages {
            return Err(PageError::PageOutOfBounds {
                page,
                pages: self.pages,
            });
        }
        let valid =
            (self.rows - u64::from(page) * PAGE_CODES as u64).min(PAGE_CODES as u64) as usize;
        let mut buf = vec![0u8; valid * 4];
        {
            let mut f = match self.handle.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            f.seek(SeekFrom::Start(
                HEADER_BYTES as u64 + u64::from(page) * PAGE_BYTES as u64,
            ))
            .map_err(io_err)?;
            f.read_exact(&mut buf).map_err(|e| {
                if e.kind() == std::io::ErrorKind::UnexpectedEof {
                    PageError::Truncated {
                        expected: HEADER_BYTES as u64 + u64::from(self.pages) * PAGE_BYTES as u64,
                        actual: 0,
                    }
                } else {
                    io_err(e)
                }
            })?;
        }
        Ok(buf
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Streams every page and compares the code stream against the
    /// header checksum — the integrity check for files of unknown
    /// provenance (crash recovery, the fuzz corpus).
    pub fn verify_checksum(&self) -> Result<(), PageError> {
        self.scan_verified(|_| {})
    }

    /// [`PageFile::verify_checksum`] that also hands every page, in
    /// order, to `f` — one sequential read serves both the integrity
    /// check and a caller's own pass over the codes.
    pub(crate) fn scan_verified(&self, mut f: impl FnMut(&[u32])) -> Result<(), PageError> {
        let mut hash = FNV_OFFSET;
        for p in 0..self.pages {
            let page = self.read_page(p)?;
            hash = fnv1a64(hash, &page);
            f(&page);
        }
        if hash != self.checksum {
            return Err(PageError::Checksum {
                expected: self.checksum,
                actual: hash,
            });
        }
        Ok(())
    }
}

impl Drop for PageFile {
    fn drop(&mut self) {
        if self.owned {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

/// Incremental spill-file writer: codes arrive value by value (or in
/// slices), pages flush as they fill, and the header — whose page
/// count, row count and checksum are unknown until the stream ends —
/// is patched in by [`PageFileWriter::finish`]. The byte layout is
/// exactly [`PageFile::spill`]'s, so a streamed ingest and a
/// materialize-then-spill produce identical files.
///
/// This is the streaming-ingest seam (`import_csv_spilled` in
/// [`crate::csv`]): a CSV parse can encode straight to disk without
/// ever holding a `Table` or a full code vector in memory.
pub struct PageFileWriter {
    path: PathBuf,
    id: u64,
    w: BufWriter<File>,
    /// Codes of the page being filled (< [`PAGE_CODES`] entries).
    buf: Vec<u32>,
    /// Reusable zero-padded serialization buffer for one page.
    page_bytes: Vec<u8>,
    pages: u32,
    rows: u64,
    hash: u64,
    owned: bool,
}

impl PageFileWriter {
    /// A writer over a fresh temp-dir spill file; the finished
    /// [`PageFile`] is owned (deleted on drop), like
    /// [`PageFile::spill`]'s.
    pub fn create_temp() -> Result<PageFileWriter, PageError> {
        let id = NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("dbre-pages-{}-{}.col", std::process::id(), id));
        PageFileWriter::create(path, id, true)
    }

    /// A writer over an explicit path — the spill-cache store path
    /// ([`crate::spill`]). The finished [`PageFile`] is *not* owned:
    /// it persists for future runs. An existing file is truncated,
    /// which is exactly the overwrite-a-stale-entry behaviour the
    /// cache wants.
    pub fn create_at(path: &Path) -> Result<PageFileWriter, PageError> {
        let id = NEXT_FILE_ID.fetch_add(1, Ordering::Relaxed);
        PageFileWriter::create(path.to_path_buf(), id, false)
    }

    fn create(path: PathBuf, id: u64, owned: bool) -> Result<PageFileWriter, PageError> {
        let mut w = BufWriter::new(File::create(&path).map_err(io_err)?);
        // Header placeholder; the real one lands in `finish`.
        w.write_all(&[0u8; HEADER_BYTES]).map_err(io_err)?;
        Ok(PageFileWriter {
            path,
            id,
            w,
            buf: Vec::with_capacity(PAGE_CODES),
            page_bytes: vec![0u8; PAGE_BYTES],
            pages: 0,
            rows: 0,
            hash: FNV_OFFSET,
            owned,
        })
    }

    /// Appends one code, flushing a page when the buffer fills.
    #[inline]
    pub fn push(&mut self, code: u32) -> Result<(), PageError> {
        self.buf.push(code);
        if self.buf.len() == PAGE_CODES {
            self.flush_page()?;
        }
        Ok(())
    }

    /// Appends a slice of codes.
    pub fn append(&mut self, codes: &[u32]) -> Result<(), PageError> {
        for &c in codes {
            self.push(c)?;
        }
        Ok(())
    }

    /// Rows appended so far (including the unflushed partial page).
    pub fn rows(&self) -> u64 {
        self.rows + self.buf.len() as u64
    }

    /// The file being written (for error-path cleanup by callers —
    /// the writer itself never deletes anything).
    pub fn path(&self) -> &Path {
        &self.path
    }

    fn flush_page(&mut self) -> Result<(), PageError> {
        self.hash = fnv1a64(self.hash, &self.buf);
        self.rows += self.buf.len() as u64;
        self.page_bytes.iter_mut().for_each(|b| *b = 0);
        for (dst, c) in self.page_bytes.chunks_exact_mut(4).zip(&self.buf) {
            dst.copy_from_slice(&c.to_le_bytes());
        }
        self.w.write_all(&self.page_bytes).map_err(io_err)?;
        self.pages += 1;
        self.buf.clear();
        Ok(())
    }

    /// Flushes the tail page, patches the real header over the
    /// placeholder and reopens the file as a readable [`PageFile`].
    pub fn finish(mut self) -> Result<PageFile, PageError> {
        if !self.buf.is_empty() {
            self.flush_page()?;
        }
        self.w.flush().map_err(io_err)?;
        let PageFileWriter {
            path,
            id,
            w,
            pages,
            rows,
            hash,
            owned,
            ..
        } = self;
        let mut f = w.into_inner().map_err(|e| PageError::Io(e.to_string()))?;
        let mut header = [0u8; HEADER_BYTES];
        header[0..8].copy_from_slice(MAGIC);
        header[8..12].copy_from_slice(&(PAGE_BYTES as u32).to_le_bytes());
        header[12..16].copy_from_slice(&pages.to_le_bytes());
        header[16..24].copy_from_slice(&rows.to_le_bytes());
        header[24..32].copy_from_slice(&hash.to_le_bytes());
        f.seek(SeekFrom::Start(0)).map_err(io_err)?;
        f.write_all(&header).map_err(io_err)?;
        drop(f);
        let handle = File::open(&path).map_err(io_err)?;
        Ok(PageFile {
            path,
            id,
            pages,
            rows,
            checksum: hash,
            handle: Mutex::new(handle),
            owned,
        })
    }
}

/// One spilled column: the resident slim dictionary plus its code
/// pages on disk.
#[derive(Debug)]
pub struct PagedColumn {
    /// Decode/encode tables, NULL count and per-code counts, without
    /// the per-row codes ([`ColumnDict::slim`]).
    dict: Arc<ColumnDict>,
    file: PageFile,
}

impl PagedColumn {
    /// Pairs a spill file with the slim dictionary of the codes it
    /// holds.
    pub fn new(dict: Arc<ColumnDict>, file: PageFile) -> PagedColumn {
        PagedColumn { dict, file }
    }

    /// The resident slim dictionary.
    pub fn dict(&self) -> &Arc<ColumnDict> {
        &self.dict
    }

    /// Rows the column encodes.
    pub fn rows(&self) -> usize {
        self.file.rows() as usize
    }

    /// The spill file holding the codes.
    pub fn file(&self) -> &PageFile {
        &self.file
    }

    /// One page of codes, read through `pool`.
    pub fn page(&self, pool: &BufferPool, page: u32) -> Result<Arc<Vec<u32>>, PageError> {
        pool.get_or_load(
            PageKey {
                file: self.file.id,
                page,
            },
            || self.file.read_page(page),
        )
    }

    /// Rehydrates the full per-row code vector by streaming every
    /// page — the bridge for consumers that need random access
    /// (`column_dict()` for the coded kernels).
    pub fn read_all_codes(&self, pool: &BufferPool) -> Result<Vec<u32>, PageError> {
        let mut codes = Vec::with_capacity(self.rows());
        for p in 0..self.file.pages {
            codes.extend_from_slice(&self.page(pool, p)?);
        }
        Ok(codes)
    }
}

/// A spilled column read through a buffer pool — the [`CodeSource`]
/// the [`crate::kernels`] scan for it. Pages are pinned `Arc`s, so a
/// capacity-1 pool evicting under a multi-column scan is slow but
/// never wrong.
#[derive(Debug, Clone, Copy)]
pub struct PagedSource<'a> {
    col: &'a PagedColumn,
    pool: &'a BufferPool,
}

impl<'a> PagedSource<'a> {
    /// `col`'s pages, read through `pool`.
    pub fn new(col: &'a PagedColumn, pool: &'a BufferPool) -> Self {
        PagedSource { col, pool }
    }
}

impl CodeSource for PagedSource<'_> {
    type Page = Arc<Vec<u32>>;
    type Error = PageError;

    fn blocking(&self) -> bool {
        true
    }

    fn dict(&self) -> &ColumnDict {
        &self.col.dict
    }

    fn page(&self, page: usize) -> Result<Arc<Vec<u32>>, PageError> {
        let page = u32::try_from(page).map_err(|_| PageError::PageOutOfBounds {
            page: u32::MAX,
            pages: self.col.file.pages,
        })?;
        self.col.page(self.pool, page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_file_round_trips_codes() {
        let codes: Vec<u32> = (0..PAGE_CODES as u32 * 2 + 17).map(|i| i % 977).collect();
        let f = PageFile::spill(&codes).unwrap();
        assert_eq!(f.pages(), 3);
        assert_eq!(f.rows(), codes.len() as u64);
        let mut back = Vec::new();
        for p in 0..f.pages() {
            back.extend_from_slice(&f.read_page(p).unwrap());
        }
        assert_eq!(back, codes);
        f.verify_checksum().unwrap();
        assert!(matches!(
            f.read_page(3),
            Err(PageError::PageOutOfBounds { page: 3, pages: 3 })
        ));
    }

    #[test]
    fn spill_file_is_deleted_on_drop() {
        let f = PageFile::spill(&[1, 2, 3]).unwrap();
        let path = f.path().to_path_buf();
        assert!(path.exists());
        drop(f);
        assert!(!path.exists());
    }

    #[test]
    fn open_rejects_truncation_magic_and_checksum() {
        let codes: Vec<u32> = (0..PAGE_CODES as u32 + 5).collect();
        let f = PageFile::spill(&codes).unwrap();
        let bytes = std::fs::read(f.path()).unwrap();
        let dir = std::env::temp_dir();
        let stamp = std::process::id();

        // Truncated mid-page.
        let t = dir.join(format!("dbre-test-trunc-{stamp}.col"));
        std::fs::write(&t, &bytes[..bytes.len() - PAGE_BYTES / 2]).unwrap();
        assert!(matches!(
            PageFile::open(&t),
            Err(PageError::Truncated { .. })
        ));

        // Foreign magic.
        let m = dir.join(format!("dbre-test-magic-{stamp}.col"));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        std::fs::write(&m, &bad).unwrap();
        assert!(matches!(PageFile::open(&m), Err(PageError::BadMagic)));

        // Flipped code bytes: header parses, checksum catches it.
        let c = dir.join(format!("dbre-test-sum-{stamp}.col"));
        let mut bad = bytes.clone();
        bad[HEADER_BYTES + 8] ^= 0xff;
        std::fs::write(&c, &bad).unwrap();
        let opened = PageFile::open(&c).unwrap();
        assert!(matches!(
            opened.verify_checksum(),
            Err(PageError::Checksum { .. })
        ));

        for p in [t, m, c] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn writer_streams_byte_identical_to_spill() {
        // The streaming writer must produce the exact on-disk format of
        // the materialize-then-spill path, byte for byte — the spill
        // cache and the differential ingest test both lean on this.
        let codes: Vec<u32> = (0..PAGE_CODES as u32 * 3 + 41)
            .map(|i| i.wrapping_mul(2654435761))
            .collect();
        let whole = PageFile::spill(&codes).unwrap();
        let mut w = PageFileWriter::create_temp().unwrap();
        // Feed through a mix of push() and append() with awkward splits.
        for &c in &codes[..7] {
            w.push(c).unwrap();
        }
        w.append(&codes[7..PAGE_CODES + 3]).unwrap();
        for &c in &codes[PAGE_CODES + 3..] {
            w.push(c).unwrap();
        }
        assert_eq!(w.rows(), codes.len() as u64);
        let streamed = w.finish().unwrap();
        assert_eq!(
            std::fs::read(whole.path()).unwrap(),
            std::fs::read(streamed.path()).unwrap()
        );
        streamed.verify_checksum().unwrap();
        assert_eq!(streamed.rows(), codes.len() as u64);
    }

    #[test]
    fn empty_writer_matches_empty_spill() {
        let whole = PageFile::spill(&[]).unwrap();
        let streamed = PageFileWriter::create_temp().unwrap().finish().unwrap();
        assert_eq!(
            std::fs::read(whole.path()).unwrap(),
            std::fs::read(streamed.path()).unwrap()
        );
        assert_eq!(streamed.pages(), 0);
        assert_eq!(streamed.rows(), 0);
    }
}
