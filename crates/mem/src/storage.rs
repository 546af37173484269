//! Main storage: the RAM modules behind the cache.
//!
//! Up to four modules of 16K or 64K RAMs for a maximum of 8 megabytes (§1).
//! Data moves to and from storage in 16-word munches; the module cycle time
//! is eight processor cycles (§6.2.1).

use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::{RealAddr, Word, MUNCH_WORDS};

/// Flat word-addressed main storage.
#[derive(Debug, Clone)]
pub struct Storage {
    words: Vec<Word>,
}

impl Storage {
    /// Allocates zeroed storage of `words` words.
    ///
    /// # Panics
    ///
    /// Panics if `words` is zero or not munch-aligned.
    pub fn new(words: u32) -> Self {
        assert!(words > 0, "storage must be non-empty");
        assert!(
            (words as usize).is_multiple_of(MUNCH_WORDS),
            "storage size must be munch-aligned"
        );
        Storage {
            words: vec![0; words as usize],
        }
    }

    /// Capacity in words.
    pub fn len(&self) -> u32 {
        self.words.len() as u32
    }

    /// Whether the storage is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether `addr` is within storage.
    pub fn contains(&self, addr: RealAddr) -> bool {
        (addr.0 as usize) < self.words.len()
    }

    /// Reads one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range (callers translate and bounds-check
    /// via the map first).
    pub fn read(&self, addr: RealAddr) -> Word {
        self.words[addr.0 as usize]
    }

    /// Writes one word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write(&mut self, addr: RealAddr, value: Word) {
        self.words[addr.0 as usize] = value;
    }

    /// Reads the whole munch containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the munch is out of range.
    pub fn read_munch(&self, addr: RealAddr) -> [Word; MUNCH_WORDS] {
        let base = addr.munch_base().0 as usize;
        let mut munch = [0; MUNCH_WORDS];
        munch.copy_from_slice(&self.words[base..base + MUNCH_WORDS]);
        munch
    }

    /// Writes the whole munch containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the munch is out of range.
    pub fn write_munch(&mut self, addr: RealAddr, munch: &[Word; MUNCH_WORDS]) {
        let base = addr.munch_base().0 as usize;
        self.words[base..base + MUNCH_WORDS].copy_from_slice(munch);
    }
}

impl Snapshot for Storage {
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"STOR")?;
        // The word_seq encoding of a fixed-size store.
        io.config(&self.words.len(), "storage size", Io::usize)?;
        io.words(&mut self.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut s = Storage::new(256);
        assert_eq!(s.len(), 256);
        assert!(!s.is_empty());
        s.write(RealAddr(7), 0x1234);
        assert_eq!(s.read(RealAddr(7)), 0x1234);
        assert_eq!(s.read(RealAddr(8)), 0);
    }

    #[test]
    fn munch_roundtrip() {
        let mut s = Storage::new(256);
        let mut m = [0u16; MUNCH_WORDS];
        for (i, w) in m.iter_mut().enumerate() {
            *w = i as u16 * 3;
        }
        s.write_munch(RealAddr(0x23), &m); // any address within the munch
        assert_eq!(s.read_munch(RealAddr(0x2f)), m);
        assert_eq!(s.read(RealAddr(0x20)), 0);
        assert_eq!(s.read(RealAddr(0x21)), 3);
    }

    #[test]
    fn contains_checks_bounds() {
        let s = Storage::new(64);
        assert!(s.contains(RealAddr(63)));
        assert!(!s.contains(RealAddr(64)));
    }

    #[test]
    #[should_panic(expected = "munch-aligned")]
    fn rejects_unaligned_size() {
        let _ = Storage::new(100);
    }
}
