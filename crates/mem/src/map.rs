//! The virtual-to-real page map.
//!
//! The processor presents 28-bit virtual addresses (base register + 16-bit
//! displacement, §6.3.2); the memory system maps virtual pages to real
//! storage pages.  The map defaults to identity — each virtual page *n* maps
//! to real page *n* while *n* is within storage — with explicit remappings
//! layered on top, which is all the emulators and experiments require.

use std::collections::HashMap;

use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::{RealAddr, VirtAddr};

/// A page map from 28-bit virtual addresses to real storage addresses.
#[derive(Debug, Clone)]
pub struct Map {
    page_words: u32,
    storage_words: u32,
    overrides: HashMap<u32, Option<u32>>,
}

impl Map {
    /// Creates an identity map over `storage_words` of real memory with the
    /// given page size.
    ///
    /// # Panics
    ///
    /// Panics if `page_words` is not a power of two.
    pub fn identity(storage_words: u32, page_words: u32) -> Self {
        assert!(
            page_words.is_power_of_two(),
            "page size must be a power of two"
        );
        Map {
            page_words,
            storage_words,
            overrides: HashMap::new(),
        }
    }

    /// Words per page.
    pub fn page_words(&self) -> u32 {
        self.page_words
    }

    /// Maps virtual page `vpage` to real page `rpage`.
    pub fn map_page(&mut self, vpage: u32, rpage: u32) {
        self.overrides.insert(vpage, Some(rpage));
    }

    /// Marks virtual page `vpage` as unmapped (references fault).
    pub fn unmap_page(&mut self, vpage: u32) {
        self.overrides.insert(vpage, None);
    }

    /// Translates a virtual address; `None` is a map fault.
    pub fn translate(&self, vaddr: VirtAddr) -> Option<RealAddr> {
        let vpage = vaddr.0 / self.page_words;
        let offset = vaddr.0 % self.page_words;
        let rpage = match self.overrides.get(&vpage) {
            Some(Some(rp)) => *rp,
            Some(None) => return None,
            None => vpage, // identity
        };
        let raddr = rpage.checked_mul(self.page_words)?.checked_add(offset)?;
        if raddr < self.storage_words {
            Some(RealAddr(raddr))
        } else {
            None
        }
    }
}

impl Snapshot for Map {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"PMAP")?;
        io.config(&self.page_words, "map geometry", Io::u32)?;
        io.config(&self.storage_words, "map geometry", Io::u32)?;
        // HashMap iteration order is nondeterministic; sort by key so the
        // same map always serializes to the same bytes (and checksum).
        let mut entries: Vec<(u32, Option<u32>)> =
            self.overrides.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable_by_key(|&(k, _)| k);
        io.seq(&mut entries, |io, (vpage, rpage)| {
            io.u32(vpage)?;
            io.option(rpage, || 0, Io::u32)
        })?;
        if io.is_load() {
            self.overrides = entries.into_iter().collect();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_within_storage() {
        let m = Map::identity(1024, 256);
        assert_eq!(m.translate(VirtAddr::new(100)), Some(RealAddr(100)));
        assert_eq!(m.translate(VirtAddr::new(1023)), Some(RealAddr(1023)));
        assert_eq!(m.translate(VirtAddr::new(1024)), None); // past storage
        assert_eq!(m.page_words(), 256);
    }

    #[test]
    fn remapping() {
        let mut m = Map::identity(1024, 256);
        m.map_page(10, 2); // virtual page 10 -> real page 2
        assert_eq!(
            m.translate(VirtAddr::new(10 * 256 + 5)),
            Some(RealAddr(2 * 256 + 5))
        );
        // Other pages unaffected.
        assert_eq!(m.translate(VirtAddr::new(300)), Some(RealAddr(300)));
    }

    #[test]
    fn unmapped_pages_fault() {
        let mut m = Map::identity(1024, 256);
        m.unmap_page(0);
        assert_eq!(m.translate(VirtAddr::new(0)), None);
        assert_eq!(m.translate(VirtAddr::new(255)), None);
        assert!(m.translate(VirtAddr::new(256)).is_some());
    }

    #[test]
    fn mapping_past_storage_faults() {
        let mut m = Map::identity(1024, 256);
        m.map_page(0, 100); // real page 100 starts at word 25600 > 1024
        assert_eq!(m.translate(VirtAddr::new(0)), None);
    }

    #[test]
    fn snapshot_bytes_are_deterministic_regardless_of_insertion_order() {
        use dorado_base::snap::{restore_image, save_image};
        let mut a = Map::identity(4096, 256);
        a.map_page(3, 7);
        a.unmap_page(1);
        a.map_page(9, 2);
        let mut b = Map::identity(4096, 256);
        b.map_page(9, 2);
        b.map_page(3, 7);
        b.unmap_page(1);
        assert_eq!(save_image(&mut a), save_image(&mut b));
        let mut c = Map::identity(4096, 256);
        restore_image(&mut c, &save_image(&mut a)).unwrap();
        for v in [0u32, 255, 256, 3 * 256 + 5, 9 * 256] {
            assert_eq!(a.translate(VirtAddr::new(v)), c.translate(VirtAddr::new(v)));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_odd_page_size() {
        let _ = Map::identity(1024, 100);
    }
}
