//! The processor cache: virtually addressed, write-back, set-associative,
//! with 16-word blocks (munches).
//!
//! The cache itself is purely functional here; the [`MemorySystem`] layers
//! the 2-cycle hit latency, storage occupancy, and `Hold` on top.
//!
//! [`MemorySystem`]: crate::MemorySystem

use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::{VirtAddr, Word, MUNCH_WORDS};

/// One cache line: a munch of data plus its tags.
#[derive(Debug, Clone)]
struct Line {
    /// Virtual munch base address of the resident block.
    tag: u32,
    valid: bool,
    dirty: bool,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
    data: [Word; MUNCH_WORDS],
}

impl Line {
    fn empty() -> Self {
        Line {
            tag: 0,
            valid: false,
            dirty: false,
            stamp: 0,
            data: [0; MUNCH_WORDS],
        }
    }
}

/// A block evicted from the cache that must be written back to storage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction {
    /// Virtual address of the first word of the evicted munch.
    pub vaddr: VirtAddr,
    /// The dirty munch contents.
    pub data: [Word; MUNCH_WORDS],
}

/// A set-associative, write-back cache with munch-sized blocks.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: usize,
    assoc: usize,
    lines: Vec<Line>,
    clock: u64,
}

impl Cache {
    /// Creates an empty cache with `sets × assoc` munch-sized lines.
    ///
    /// # Panics
    ///
    /// Panics if `sets` is not a power of two or `assoc` is zero.
    pub fn new(sets: usize, assoc: usize) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(assoc > 0, "associativity must be positive");
        Cache {
            sets,
            assoc,
            lines: (0..sets * assoc).map(|_| Line::empty()).collect(),
            clock: 0,
        }
    }

    /// Total capacity in words.
    pub fn capacity_words(&self) -> usize {
        self.sets * self.assoc * MUNCH_WORDS
    }

    fn set_of(&self, vaddr: VirtAddr) -> usize {
        (vaddr.0 as usize / MUNCH_WORDS) & (self.sets - 1)
    }

    fn line_range(&self, set: usize) -> std::ops::Range<usize> {
        set * self.assoc..(set + 1) * self.assoc
    }

    fn find(&self, vaddr: VirtAddr) -> Option<usize> {
        let tag = vaddr.munch_base().0;
        let set = self.set_of(vaddr);
        self.line_range(set)
            .find(|&i| self.lines[i].valid && self.lines[i].tag == tag)
    }

    /// Whether the munch containing `vaddr` is resident.
    pub fn probe(&self, vaddr: VirtAddr) -> bool {
        self.find(vaddr).is_some()
    }

    /// Reads a word if resident, updating LRU state.
    pub fn read(&mut self, vaddr: VirtAddr) -> Option<Word> {
        let i = self.find(vaddr)?;
        self.clock += 1;
        self.lines[i].stamp = self.clock;
        Some(self.lines[i].data[vaddr.munch_offset()])
    }

    /// Writes a word if resident, marking the line dirty.  Returns `false`
    /// on a miss (the caller must fill first).
    pub fn write(&mut self, vaddr: VirtAddr, value: Word) -> bool {
        match self.find(vaddr) {
            Some(i) => {
                self.clock += 1;
                self.lines[i].stamp = self.clock;
                self.lines[i].dirty = true;
                self.lines[i].data[vaddr.munch_offset()] = value;
                true
            }
            None => false,
        }
    }

    /// Reads a word without disturbing LRU or dirty state (for coherence
    /// snoops by the fast I/O path and for debugging).
    pub fn peek(&self, vaddr: VirtAddr) -> Option<Word> {
        let i = self.find(vaddr)?;
        Some(self.lines[i].data[vaddr.munch_offset()])
    }

    /// Returns the dirty munch containing `vaddr`, if resident and dirty.
    pub fn peek_dirty_munch(&self, vaddr: VirtAddr) -> Option<[Word; MUNCH_WORDS]> {
        let i = self.find(vaddr)?;
        if self.lines[i].dirty {
            Some(self.lines[i].data)
        } else {
            None
        }
    }

    /// Installs the munch containing `vaddr`, evicting the LRU victim of
    /// its set.  Returns the eviction if the victim was dirty.
    pub fn fill(&mut self, vaddr: VirtAddr, data: [Word; MUNCH_WORDS]) -> Option<Eviction> {
        debug_assert!(self.find(vaddr).is_none(), "fill of already-resident munch");
        let set = self.set_of(vaddr);
        let victim = self
            .line_range(set)
            .min_by_key(|&i| (self.lines[i].valid, self.lines[i].stamp))
            .expect("assoc > 0");
        let evicted = if self.lines[victim].valid && self.lines[victim].dirty {
            Some(Eviction {
                vaddr: VirtAddr::new(self.lines[victim].tag),
                data: self.lines[victim].data,
            })
        } else {
            None
        };
        self.clock += 1;
        self.lines[victim] = Line {
            tag: vaddr.munch_base().0,
            valid: true,
            dirty: false,
            stamp: self.clock,
            data,
        };
        evicted
    }

    /// Invalidates the munch containing `vaddr` (fast I/O stores overwrite
    /// storage, so a resident copy — even a dirty one — is stale).  Returns
    /// whether a line was dropped.
    pub fn invalidate(&mut self, vaddr: VirtAddr) -> bool {
        match self.find(vaddr) {
            Some(i) => {
                self.lines[i].valid = false;
                self.lines[i].dirty = false;
                true
            }
            None => false,
        }
    }

    /// Iterates over all resident dirty munches (for flushes in tests).
    pub fn dirty_munches(&self) -> impl Iterator<Item = Eviction> + '_ {
        self.lines
            .iter()
            .filter(|l| l.valid && l.dirty)
            .map(|l| Eviction {
                vaddr: VirtAddr::new(l.tag),
                data: l.data,
            })
    }
}

impl Snapshot for Cache {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"CACH")?;
        io.config(&self.sets, "cache geometry", Io::usize)?;
        io.config(&self.assoc, "cache geometry", Io::usize)?;
        io.u64(&mut self.clock)?;
        for line in &mut self.lines {
            io.u32(&mut line.tag)?;
            io.bool(&mut line.valid)?;
            io.bool(&mut line.dirty)?;
            io.u64(&mut line.stamp)?;
            io.words(&mut line.data)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u32) -> VirtAddr {
        VirtAddr::new(n)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = Cache::new(4, 2);
        assert_eq!(c.capacity_words(), 4 * 2 * 16);
        assert!(!c.probe(addr(0x123)));
        assert_eq!(c.read(addr(0x123)), None);
        let mut munch = [0u16; MUNCH_WORDS];
        munch[3] = 0xabcd;
        assert!(c.fill(addr(0x123), munch).is_none());
        assert!(c.probe(addr(0x120)));
        assert_eq!(c.read(addr(0x123)), Some(0xabcd));
        assert_eq!(c.peek(addr(0x120)), Some(0));
    }

    #[test]
    fn write_marks_dirty_and_eviction_carries_data() {
        let mut c = Cache::new(1, 1); // one line: every fill evicts
        c.fill(addr(0), [0; MUNCH_WORDS]);
        assert!(c.write(addr(5), 77));
        assert!(c.peek_dirty_munch(addr(0)).is_some());
        let ev = c.fill(addr(16), [0; MUNCH_WORDS]).expect("dirty eviction");
        assert_eq!(ev.vaddr, addr(0));
        assert_eq!(ev.data[5], 77);
        // Clean eviction yields nothing.
        assert!(c.fill(addr(32), [0; MUNCH_WORDS]).is_none());
    }

    #[test]
    fn write_miss_returns_false() {
        let mut c = Cache::new(4, 2);
        assert!(!c.write(addr(0), 1));
    }

    #[test]
    fn lru_replacement() {
        let mut c = Cache::new(1, 2); // one set, two ways
        c.fill(addr(0), [1; MUNCH_WORDS]);
        c.fill(addr(16), [2; MUNCH_WORDS]);
        // Touch block 0 so block 16 is LRU.
        assert_eq!(c.read(addr(0)), Some(1));
        c.fill(addr(32), [3; MUNCH_WORDS]);
        assert!(c.probe(addr(0)));
        assert!(!c.probe(addr(16)));
        assert!(c.probe(addr(32)));
    }

    #[test]
    fn invalidate_drops_line() {
        let mut c = Cache::new(4, 1);
        c.fill(addr(0), [9; MUNCH_WORDS]);
        c.write(addr(0), 1);
        assert!(c.invalidate(addr(3)));
        assert!(!c.probe(addr(0)));
        assert!(!c.invalidate(addr(3)));
        // Dirty data is gone — fast I/O overwrote storage.
        assert_eq!(c.dirty_munches().count(), 0);
    }

    #[test]
    fn snapshot_preserves_lru_order_exactly() {
        use dorado_base::snap::{restore_image, save_image};
        let mut c = Cache::new(1, 2);
        c.fill(addr(0), [1; MUNCH_WORDS]);
        c.fill(addr(16), [2; MUNCH_WORDS]);
        assert_eq!(c.read(addr(0)), Some(1)); // block 16 is now LRU
        c.write(addr(3), 0xbeef);

        let mut d = Cache::new(1, 2);
        restore_image(&mut d, &save_image(&mut c)).unwrap();
        assert_eq!(save_image(&mut c), save_image(&mut d));
        // The restored cache must make the same replacement decision.
        for m in [&mut c, &mut d] {
            m.fill(addr(32), [3; MUNCH_WORDS]);
            assert!(m.probe(addr(0)));
            assert!(!m.probe(addr(16)));
        }
        assert_eq!(d.peek(addr(3)), Some(0xbeef));

        // Geometry mismatch is rejected, not silently misapplied.
        let mut wrong = Cache::new(2, 2);
        assert_eq!(
            restore_image(&mut wrong, &save_image(&mut c)).unwrap_err(),
            SnapError::Mismatch {
                what: "cache geometry"
            }
        );
    }

    #[test]
    fn sets_partition_addresses() {
        let mut c = Cache::new(4, 1);
        // Addresses in different sets do not evict each other.
        c.fill(addr(0), [1; MUNCH_WORDS]); // set 0
        c.fill(addr(16), [2; MUNCH_WORDS]); // set 1
        c.fill(addr(32), [3; MUNCH_WORDS]); // set 2
        c.fill(addr(48), [4; MUNCH_WORDS]); // set 3
        for a in [0u32, 16, 32, 48] {
            assert!(c.probe(addr(a)), "{a}");
        }
        // Same set, different tag, evicts (assoc 1).
        c.fill(addr(64), [5; MUNCH_WORDS]); // set 0 again
        assert!(!c.probe(addr(0)));
    }
}
