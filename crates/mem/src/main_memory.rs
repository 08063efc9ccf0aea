//! The 1-D byte-array main memory (paper §III-A).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Errors raised by raw memory accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemError {
    /// The access touches bytes outside the configured capacity.
    OutOfBounds {
        /// First byte of the access.
        address: u64,
        /// Access size in bytes.
        size: usize,
        /// Configured capacity in bytes.
        capacity: usize,
    },
    /// The address is not a multiple of the access size.
    Misaligned {
        /// First byte of the access.
        address: u64,
        /// Access size in bytes.
        size: usize,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { address, size, capacity } => {
                write!(f, "{size}-byte access at 0x{address:x} outside memory of {capacity} bytes")
            }
            MemError::Misaligned { address, size } => {
                write!(f, "misaligned {size}-byte access at 0x{address:x}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// Bytes per copy-on-write page of [`MainMemory`].
const PAGE_SIZE: usize = 1024;

type Page = [u8; PAGE_SIZE];

/// Main memory: a byte-addressed array with a fixed capacity.
///
/// The bytes live in 1 KiB pages behind `Arc`s, and every all-zero
/// page of a new memory is one shared page.  A clone therefore shares every
/// page and costs one pointer per page; the first write to a shared page
/// copies that page alone.  This is what makes a simulator checkpoint cheap:
/// a program touches a few pages between checkpoints, not the whole image.
#[derive(Debug, Clone)]
pub struct MainMemory {
    pages: Vec<Arc<Page>>,
    capacity: usize,
    /// Enforce natural alignment on word accesses (the paper's simulator does
    /// not run misaligned code; keeping the check catches assembler bugs).
    check_alignment: bool,
}

impl MainMemory {
    /// Default capacity used when none is configured: 64 KiB, enough for the
    /// educational programs the tool targets.
    pub const DEFAULT_CAPACITY: usize = 64 * 1024;

    /// Create a zero-filled memory of `capacity` bytes.
    pub fn new(capacity: usize) -> Self {
        let zero = Arc::new([0; PAGE_SIZE]);
        MainMemory {
            pages: vec![zero; capacity.div_ceil(PAGE_SIZE)],
            capacity,
            check_alignment: true,
        }
    }

    /// Create a memory with the default capacity.
    pub fn with_default_capacity() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }

    /// Disable alignment checking (some compiler-generated byte copies may
    /// use unaligned word accesses).
    pub fn set_check_alignment(&mut self, check: bool) {
        self.check_alignment = check;
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Copy the whole memory into one flat buffer (dumps, test oracles).
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out: Vec<u8> = self.pages.iter().flat_map(|p| p.iter().copied()).collect();
        out.truncate(self.capacity);
        out
    }

    /// Address of the first byte at which `self` and `other` differ, or the
    /// smaller capacity when one memory is a prefix of the other.  Pages the
    /// two memories share are skipped without reading them.
    pub fn first_difference(&self, other: &MainMemory) -> Option<usize> {
        let common = self.capacity.min(other.capacity);
        for (index, (a, b)) in self.pages.iter().zip(&other.pages).enumerate() {
            if Arc::ptr_eq(a, b) {
                continue;
            }
            if let Some(i) = (0..PAGE_SIZE).find(|&i| a[i] != b[i]) {
                return Some((index * PAGE_SIZE + i).min(common));
            }
        }
        (self.capacity != other.capacity).then_some(common)
    }

    fn byte(&self, addr: usize) -> u8 {
        self.pages[addr / PAGE_SIZE][addr % PAGE_SIZE]
    }

    fn set_byte(&mut self, addr: usize, byte: u8) {
        Arc::make_mut(&mut self.pages[addr / PAGE_SIZE])[addr % PAGE_SIZE] = byte;
    }

    /// Bounds check of `len` bytes at `address`; returns the first index.
    fn check_block(&self, address: u64, len: usize) -> Result<usize, MemError> {
        let addr = address as usize;
        if addr.checked_add(len).map(|end| end > self.capacity).unwrap_or(true) {
            return Err(MemError::OutOfBounds { address, size: len, capacity: self.capacity });
        }
        Ok(addr)
    }

    fn check(&self, address: u64, size: usize) -> Result<usize, MemError> {
        let addr = self.check_block(address, size)?;
        if self.check_alignment && size > 1 && !address.is_multiple_of(size as u64) {
            return Err(MemError::Misaligned { address, size });
        }
        Ok(addr)
    }

    /// Read `size` bytes (1, 2, 4 or 8) as a little-endian unsigned value.
    pub fn read(&self, address: u64, size: usize) -> Result<u64, MemError> {
        let addr = self.check(address, size)?;
        let offset = addr % PAGE_SIZE;
        let mut value: u64 = 0;
        if offset + size <= PAGE_SIZE {
            let page = &self.pages[addr / PAGE_SIZE];
            for i in 0..size {
                value |= (page[offset + i] as u64) << (8 * i);
            }
        } else {
            // An unaligned access (alignment checking off) crossing a page.
            for i in 0..size {
                value |= (self.byte(addr + i) as u64) << (8 * i);
            }
        }
        Ok(value)
    }

    /// Write the low `size` bytes of `value` little-endian.
    pub fn write(&mut self, address: u64, size: usize, value: u64) -> Result<(), MemError> {
        let addr = self.check(address, size)?;
        let offset = addr % PAGE_SIZE;
        if offset + size <= PAGE_SIZE {
            let page = Arc::make_mut(&mut self.pages[addr / PAGE_SIZE]);
            for i in 0..size {
                page[offset + i] = (value >> (8 * i)) as u8;
            }
        } else {
            for i in 0..size {
                self.set_byte(addr + i, (value >> (8 * i)) as u8);
            }
        }
        Ok(())
    }

    /// Read a block of bytes.
    pub fn read_bytes(&self, address: u64, len: usize) -> Result<Vec<u8>, MemError> {
        let addr = self.check_block(address, len)?;
        Ok((addr..addr + len).map(|a| self.byte(a)).collect())
    }

    /// Write a block of bytes.
    pub fn write_bytes(&mut self, address: u64, bytes: &[u8]) -> Result<(), MemError> {
        let mut addr = self.check_block(address, bytes.len())?;
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = addr % PAGE_SIZE;
            let n = rest.len().min(PAGE_SIZE - offset);
            Arc::make_mut(&mut self.pages[addr / PAGE_SIZE])[offset..offset + n]
                .copy_from_slice(&rest[..n]);
            addr += n;
            rest = &rest[n..];
        }
        Ok(())
    }

    /// Read a 32-bit word.
    pub fn read_u32(&self, address: u64) -> Result<u32, MemError> {
        self.read(address, 4).map(|v| v as u32)
    }

    /// Write a 32-bit word.
    pub fn write_u32(&mut self, address: u64, value: u32) -> Result<(), MemError> {
        self.write(address, 4, value as u64)
    }

    /// Read a single-precision float.
    pub fn read_f32(&self, address: u64) -> Result<f32, MemError> {
        Ok(f32::from_bits(self.read_u32(address)?))
    }

    /// Write a single-precision float.
    pub fn write_f32(&mut self, address: u64, value: f32) -> Result<(), MemError> {
        self.write_u32(address, value.to_bits())
    }

    /// Produce a hex dump of `len` bytes starting at `address`, 16 bytes per
    /// line — the memory pop-up view of Fig. 2.  The range is clipped to the
    /// capacity, so any `len` is accepted.
    pub fn hex_dump(&self, address: u64, len: usize) -> String {
        let mut out = String::new();
        let start = address as usize;
        let end = start.saturating_add(len).min(self.capacity);
        let mut offset = start;
        while offset < end {
            let row_end = (offset + 16).min(end);
            out.push_str(&format!("{offset:08x}:"));
            for a in offset..row_end {
                out.push_str(&format!(" {:02x}", self.byte(a)));
            }
            out.push('\n');
            offset = row_end;
        }
        out
    }
}

impl Default for MainMemory {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_round_trip_all_sizes() {
        let mut m = MainMemory::new(128);
        for (addr, size, value) in [
            (0u64, 1usize, 0xabu64),
            (2, 2, 0xbeef),
            (4, 4, 0xdead_beef),
            (8, 8, 0x0123_4567_89ab_cdef),
        ] {
            m.write(addr, size, value).unwrap();
            assert_eq!(m.read(addr, size).unwrap(), value);
        }
    }

    #[test]
    fn little_endian_layout() {
        let mut m = MainMemory::new(16);
        m.write(0, 4, 0x0102_0304).unwrap();
        assert_eq!(m.read_bytes(0, 4).unwrap(), [0x04, 0x03, 0x02, 0x01]);
        assert_eq!(m.read(0, 2).unwrap(), 0x0304);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut m = MainMemory::new(8);
        assert!(matches!(m.read(8, 1), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(m.read(5, 4), Err(MemError::OutOfBounds { .. })));
        assert!(matches!(m.write(u64::MAX, 1, 0), Err(MemError::OutOfBounds { .. })));
        assert!(m.write(4, 4, 0).is_ok());
    }

    #[test]
    fn misalignment_detected_and_optional() {
        let mut m = MainMemory::new(64);
        assert!(matches!(m.read(2, 4), Err(MemError::Misaligned { .. })));
        assert!(matches!(m.write(1, 2, 0), Err(MemError::Misaligned { .. })));
        m.set_check_alignment(false);
        assert!(m.read(2, 4).is_ok());
        assert!(m.write(1, 2, 0).is_ok());
    }

    #[test]
    fn float_round_trip() {
        let mut m = MainMemory::new(16);
        m.write_f32(4, 3.5).unwrap();
        assert_eq!(m.read_f32(4).unwrap(), 3.5);
    }

    #[test]
    fn block_read_write() {
        let mut m = MainMemory::new(32);
        m.write_bytes(8, b"hello").unwrap();
        assert_eq!(m.read_bytes(8, 5).unwrap(), b"hello");
        assert!(m.write_bytes(30, b"abc").is_err());
        assert!(m.read_bytes(31, 2).is_err());
    }

    #[test]
    fn hex_dump_format() {
        let mut m = MainMemory::new(64);
        m.write_bytes(0, &[0xde, 0xad]).unwrap();
        let dump = m.hex_dump(0, 20);
        assert!(dump.starts_with("00000000: de ad"));
        assert_eq!(dump.lines().count(), 2);
    }

    #[test]
    fn hex_dump_clips_a_length_past_the_end() {
        let mut m = MainMemory::new(64);
        m.write_bytes(0x10, &[0xaa; 0x30]).unwrap();
        let dump = m.hex_dump(16, usize::MAX);
        let rows: Vec<&str> = dump.lines().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].starts_with("00000010: aa"));
        assert!(rows[2].starts_with("00000030: aa"));
        assert_eq!(dump.matches(" aa").count(), 0x30, "bytes 0x10-0x3f, nothing else");
    }

    #[test]
    fn capacities_below_one_page_keep_exact_bounds() {
        for capacity in [16usize, 128, PAGE_SIZE + 8] {
            let mut m = MainMemory::new(capacity);
            let last = capacity as u64 - 4;
            m.write(last, 4, 0x0102_0304).unwrap();
            assert_eq!(m.read(last, 4).unwrap(), 0x0102_0304);
            assert!(matches!(m.read(last + 4, 1), Err(MemError::OutOfBounds { .. })));
            assert!(matches!(m.write(last + 4, 4, 0), Err(MemError::OutOfBounds { .. })));
            assert!(m.write_bytes(last + 1, &[0; 4]).is_err());
            assert_eq!(m.to_vec().len(), capacity);
            assert_eq!(m.hex_dump(0, usize::MAX).lines().count(), capacity.div_ceil(16));
        }
    }

    #[test]
    fn unaligned_access_may_cross_a_page() {
        let mut m = MainMemory::new(4 * PAGE_SIZE);
        m.set_check_alignment(false);
        let addr = PAGE_SIZE as u64 - 3;
        m.write(addr, 8, 0x0123_4567_89ab_cdef).unwrap();
        assert_eq!(m.read(addr, 8).unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read(PAGE_SIZE as u64, 4).unwrap(), 0x0123_4567_89ab_cdef >> 24 & 0xffff_ffff);
        m.write_bytes(2 * PAGE_SIZE as u64 - 2, b"span").unwrap();
        assert_eq!(m.read_bytes(2 * PAGE_SIZE as u64 - 2, 4).unwrap(), b"span");
    }

    #[test]
    fn a_clone_shares_pages_until_one_side_writes() {
        let mut a = MainMemory::new(8 * PAGE_SIZE);
        a.write(3 * PAGE_SIZE as u64, 4, 7).unwrap();
        let mut b = a.clone();
        assert_eq!(a.first_difference(&b), None);
        assert!(a.pages.iter().zip(&b.pages).all(|(x, y)| Arc::ptr_eq(x, y)));
        b.write(5 * PAGE_SIZE as u64 + 8, 4, 9).unwrap();
        let copied = a.pages.iter().zip(&b.pages).filter(|(x, y)| !Arc::ptr_eq(x, y)).count();
        assert_eq!(copied, 1, "one write copies one page");
        assert_eq!(a.read(5 * PAGE_SIZE as u64 + 8, 4).unwrap(), 0, "the original is untouched");
        assert_eq!(a.first_difference(&b), Some(5 * PAGE_SIZE + 8));
        assert_eq!(MainMemory::new(16).first_difference(&MainMemory::new(32)), Some(16));
    }

    #[test]
    fn default_capacity() {
        let m = MainMemory::default();
        assert_eq!(m.capacity(), MainMemory::DEFAULT_CAPACITY);
        let m2 = MainMemory::with_default_capacity();
        assert_eq!(m2.capacity(), m.capacity());
    }
}
