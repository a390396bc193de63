//! DV memory: the VIC's 32 MB of word-addressable QDR SRAM.
//!
//! Backed by a dense table of 1024 page slots, each page allocated on
//! its first write, so that a 32-node simulated cluster does not commit
//! 1 GB of host RAM up front; unwritten words read as zero, the reset
//! state of the SRAM. A word access indexes the table directly, and a
//! range access checks its bounds once and copies page-sized runs.

use dv_core::packet::DV_MEMORY_WORDS;
use dv_core::Word;

const PAGE_WORDS: usize = 4096;
const PAGES: usize = DV_MEMORY_WORDS / PAGE_WORDS;

/// Word-addressable DV memory with lazy page allocation.
#[derive(Debug)]
pub struct DvMemory {
    /// `PAGES` slots; `None` until the page is first written.
    pages: Vec<Option<Box<[Word; PAGE_WORDS]>>>,
}

impl Default for DvMemory {
    fn default() -> Self {
        Self { pages: (0..PAGES).map(|_| None).collect() }
    }
}

impl DvMemory {
    /// Empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total addressable words (2²² = 32 MB).
    pub const fn words() -> usize {
        DV_MEMORY_WORDS
    }

    /// The words `addr .. addr + len` as runs that each stay inside one
    /// page: `(page, offset in page, offset in the range, run length)`.
    /// The whole range is bounds-checked here, before any run is used.
    fn runs(addr: u32, len: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
        let start = addr as usize;
        assert!(
            start.checked_add(len).is_some_and(|end| end <= DV_MEMORY_WORDS),
            "DV memory range {addr:#x}+{len} out of range (max {DV_MEMORY_WORDS:#x} words)"
        );
        let mut at = 0;
        std::iter::from_fn(move || {
            (at < len).then(|| {
                let (page, off) = ((start + at) / PAGE_WORDS, (start + at) % PAGE_WORDS);
                let n = (len - at).min(PAGE_WORDS - off);
                at += n;
                (page, off, at - n, n)
            })
        })
    }

    fn split(addr: u32) -> (usize, usize) {
        assert!(
            (addr as usize) < DV_MEMORY_WORDS,
            "DV memory address {addr:#x} out of range (max {DV_MEMORY_WORDS:#x} words)"
        );
        (addr as usize / PAGE_WORDS, addr as usize % PAGE_WORDS)
    }

    fn page_mut(&mut self, page: usize) -> &mut [Word; PAGE_WORDS] {
        self.pages[page].get_or_insert_with(|| Box::new([0; PAGE_WORDS]))
    }

    /// Read one word (0 if never written — SRAM reset state).
    pub fn read(&self, addr: u32) -> Word {
        let (page, off) = Self::split(addr);
        self.pages[page].as_ref().map_or(0, |p| p[off])
    }

    /// Write one word. A slot stores a single word: the previous value is
    /// unrecoverable (the overwrite hazard the surprise FIFO exists to
    /// avoid).
    pub fn write(&mut self, addr: u32, value: Word) {
        let (page, off) = Self::split(addr);
        self.page_mut(page)[off] = value;
    }

    /// Read `out.len()` consecutive words starting at `addr`. Reading
    /// never allocates a page.
    ///
    /// # Panics
    /// Panics when the range runs past the end of DV memory.
    pub fn read_range(&self, addr: u32, out: &mut [Word]) {
        for (page, off, at, n) in Self::runs(addr, out.len()) {
            let dst = &mut out[at..at + n];
            match &self.pages[page] {
                Some(p) => dst.copy_from_slice(&p[off..off + n]),
                None => dst.fill(0),
            }
        }
    }

    /// Write consecutive words starting at `addr`.
    ///
    /// # Panics
    /// Panics when the range runs past the end of DV memory, before any
    /// word is written.
    pub fn write_range(&mut self, addr: u32, values: &[Word]) {
        for (page, off, at, n) in Self::runs(addr, values.len()) {
            self.page_mut(page)[off..off + n].copy_from_slice(&values[at..at + n]);
        }
    }

    /// Number of resident (allocated) pages — for memory-footprint tests.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = DvMemory::new();
        assert_eq!(m.read(0), 0);
        assert_eq!(m.read(DV_MEMORY_WORDS as u32 - 1), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut m = DvMemory::new();
        m.write(12345, 0xDEAD_BEEF);
        assert_eq!(m.read(12345), 0xDEAD_BEEF);
        assert_eq!(m.read(12344), 0);
    }

    #[test]
    fn last_write_wins() {
        let mut m = DvMemory::new();
        m.write(7, 1);
        m.write(7, 2);
        assert_eq!(m.read(7), 2);
    }

    #[test]
    fn range_ops_round_trip_across_pages() {
        let mut m = DvMemory::new();
        let base = PAGE_WORDS as u32 - 3; // straddles a page boundary
        let data: Vec<Word> = (0..8).map(|i| i * 11).collect();
        m.write_range(base, &data);
        let mut out = vec![0; 8];
        m.read_range(base, &mut out);
        assert_eq!(out, data);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn allocation_is_lazy() {
        let mut m = DvMemory::new();
        assert_eq!(m.resident_pages(), 0);
        m.write(0, 1);
        m.write((DV_MEMORY_WORDS - 1) as u32, 2);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn ranges_span_three_or_more_pages() {
        let mut m = DvMemory::new();
        // Starts mid-page, covers two whole pages, ends mid-page: 4 pages.
        let base = 3 * PAGE_WORDS as u32 + 100;
        let data: Vec<Word> = (0..3 * PAGE_WORDS as u64).map(|i| i * 7 + 1).collect();
        m.write_range(base, &data);
        assert_eq!(m.resident_pages(), 4);
        let mut out = vec![0; data.len()];
        m.read_range(base, &mut out);
        assert_eq!(out, data);
        for (i, &w) in data.iter().enumerate().step_by(997) {
            assert_eq!(m.read(base + i as u32), w);
        }
        // The words around the range were never written.
        assert_eq!(m.read(base - 1), 0);
        assert_eq!(m.read(base + data.len() as u32), 0);
        // A read overlapping the range's tail and unwritten space beyond.
        let tail = base + data.len() as u32 - 5;
        let mut edge = vec![9; PAGE_WORDS + 10];
        m.read_range(tail, &mut edge);
        assert_eq!(&edge[..5], &data[data.len() - 5..]);
        assert!(edge[5..].iter().all(|&w| w == 0));
    }

    #[test]
    fn reading_unwritten_pages_returns_zeros_without_allocating() {
        let mut m = DvMemory::new();
        m.write(6 * PAGE_WORDS as u32, 42);
        let mut out = vec![u64::MAX; 3 * PAGE_WORDS];
        m.read_range(PAGE_WORDS as u32 * 2 + 1, &mut out);
        assert_eq!(m.resident_pages(), 1);
        assert!(out.iter().all(|&w| w == 0));
        let mut last = vec![u64::MAX; 2 * PAGE_WORDS];
        m.read_range((DV_MEMORY_WORDS - last.len()) as u32, &mut last);
        assert!(last.iter().all(|&w| w == 0));
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn range_past_the_end_panics_before_writing() {
        let mut m = DvMemory::new();
        let start = (DV_MEMORY_WORDS - PAGE_WORDS - 2) as u32;
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.write_range(start, &vec![1; PAGE_WORDS + 3]);
        }));
        let msg = *hit.expect_err("range past the end must panic").downcast::<String>().unwrap();
        assert!(msg.contains("out of range"), "{msg}");
        assert_eq!(m.resident_pages(), 0, "nothing may be written before the panic");
        let mut out = vec![0; 2];
        let read = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.read_range(DV_MEMORY_WORDS as u32 - 1, &mut out);
        }));
        assert!(read.is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_write_panics() {
        let mut m = DvMemory::new();
        m.write(DV_MEMORY_WORDS as u32, 0);
    }
}
