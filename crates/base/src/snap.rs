//! Versioned, checksummed binary snapshots of simulator state.
//!
//! A cycle-accurate simulator's whole value is that every piece of
//! architectural state is explicit — which makes *exact* checkpoint and
//! restore feasible: serialize every latch, FIFO, and counter, read it
//! back, and the machine must be cycle-for-cycle bit-identical to one
//! that never stopped.  This module is the wire format for that promise:
//!
//! * a little-endian, dependency-free byte format with a fixed header
//!   (`DSNP` magic + format version) and an FNV-1a 64 trailer, so
//!   truncated or bit-flipped images are rejected up front,
//! * four-byte section tags ([`Io::tag`]) so a reader that drifts out of
//!   sync fails loudly at the next section instead of silently
//!   misinterpreting bytes,
//! * the [`Snapshot`] trait, implemented by every stateful component in
//!   the workspace (datapath, control, memory, IFU, devices, fabric).
//!
//! A component describes its state **once**, as a walk over its fields
//! through an [`Io`].  The same walk writes an image ([`Io::Save`]) and
//! reads one back ([`Io::Load`]): every `Io` method takes `&mut field`,
//! appending it on save and overwriting it on load, so a component's
//! field order appears once in source and save and restore cannot drift
//! apart.  Custom encodings (bit-packed flags, enums) convert the field
//! to a local, walk the local, and convert it back; on save the round
//! trip is the identity.
//!
//! A snapshot holds dynamic state only, not configuration.  Microcode
//! images, decode tables, clock and memory geometry stay with the live
//! object.  [`Io::config`] writes a configuration value on save and on
//! load compares it with the target's, returning [`SnapError::Mismatch`];
//! [`Io::check`] states an invariant the loaded state must satisfy,
//! returning [`SnapError::Invalid`] on load.  A walk branches on
//! [`Io::is_load`] only where the directions must differ, to rebuild
//! derived state after a load.
//!
//! Restore is in place and atomic: [`restore_image`] saves the target's
//! own image first and, if the walk rejects the new one, restores the own
//! image before returning the error, so a rejected image leaves the
//! target byte-identical.

use std::collections::VecDeque;

use crate::task::TaskId;
use crate::Word;

/// Current snapshot format version, bumped on any layout change.
pub const SNAP_VERSION: u16 = 1;

/// The four magic bytes opening every snapshot image.
pub const SNAP_MAGIC: [u8; 4] = *b"DSNP";

/// Errors from decoding or applying a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SnapError {
    /// The image does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The image was written by an incompatible format version.
    BadVersion {
        /// Version found in the image header.
        found: u16,
        /// Version this build understands.
        expected: u16,
    },
    /// The FNV-1a trailer does not match the image contents.
    BadChecksum {
        /// Checksum stored in the image.
        found: u64,
        /// Checksum recomputed over the image.
        expected: u64,
    },
    /// The image ended before a read completed.
    Truncated,
    /// A section tag other than the expected one was found.
    BadTag {
        /// The tag the reader expected next.
        expected: [u8; 4],
        /// The tag actually present.
        found: [u8; 4],
    },
    /// The restore target was built with a different configuration than
    /// the machine that produced the snapshot.
    Mismatch {
        /// Which configuration item disagreed.
        what: &'static str,
    },
    /// A field held a value outside its domain.
    Invalid {
        /// Which field was malformed.
        what: &'static str,
    },
    /// Bytes remained after the last reader consumed its section.
    Trailing {
        /// How many bytes were left over.
        left: usize,
    },
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::BadMagic => write!(f, "not a snapshot (bad magic)"),
            SnapError::BadVersion { found, expected } => {
                write!(f, "snapshot version {found}, expected {expected}")
            }
            SnapError::BadChecksum { found, expected } => write!(
                f,
                "snapshot checksum {found:#018x} does not match contents ({expected:#018x})"
            ),
            SnapError::Truncated => write!(f, "snapshot truncated"),
            SnapError::BadTag { expected, found } => write!(
                f,
                "expected section {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found)
            ),
            SnapError::Mismatch { what } => {
                write!(f, "restore target configured differently: {what}")
            }
            SnapError::Invalid { what } => write!(f, "invalid snapshot field: {what}"),
            SnapError::Trailing { left } => {
                write!(f, "{left} byte(s) left over after restore")
            }
        }
    }
}

impl std::error::Error for SnapError {}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Serializer for snapshot images: header + body + checksum trailer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with the header already laid down.
    pub fn new() -> Self {
        let mut buf = SNAP_MAGIC.to_vec();
        buf.extend_from_slice(&SNAP_VERSION.to_le_bytes());
        Writer { buf }
    }

    /// Seals the image: appends the FNV-1a checksum of everything written
    /// so far and returns the bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let sum = fnv1a(&self.buf);
        self.buf.extend_from_slice(&sum.to_le_bytes());
        self.buf
    }
}

/// Deserializer over a validated snapshot body.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Validates magic, version, and checksum, returning a reader
    /// positioned at the start of the body.
    ///
    /// # Errors
    ///
    /// [`SnapError::BadMagic`], [`SnapError::BadVersion`],
    /// [`SnapError::BadChecksum`], or [`SnapError::Truncated`] when the
    /// image is not a well-formed snapshot of this format version.
    pub fn open(bytes: &'a [u8]) -> Result<Self, SnapError> {
        if bytes.len() < SNAP_MAGIC.len() + 2 + 8 {
            return Err(SnapError::Truncated);
        }
        if bytes[..4] != SNAP_MAGIC {
            return Err(SnapError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAP_VERSION {
            return Err(SnapError::BadVersion {
                found: version,
                expected: SNAP_VERSION,
            });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let found = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let expected = fnv1a(body);
        if found != expected {
            return Err(SnapError::BadChecksum { found, expected });
        }
        Ok(Reader { data: body, pos: 6 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Truncated)?;
        let s = self.data.get(self.pos..end).ok_or(SnapError::Truncated)?;
        self.pos = end;
        Ok(s)
    }
}

/// A sequence a walk writes out in order and refills on load.
pub trait Seq<T>: Default + Extend<T> {
    /// The elements, first to last.
    fn items<'a>(&'a mut self) -> impl ExactSizeIterator<Item = &'a mut T>
    where
        T: 'a;
}

impl<T> Seq<T> for Vec<T> {
    fn items<'a>(&'a mut self) -> impl ExactSizeIterator<Item = &'a mut T>
    where
        T: 'a,
    {
        self.iter_mut()
    }
}

impl<T> Seq<T> for VecDeque<T> {
    fn items<'a>(&'a mut self) -> impl ExactSizeIterator<Item = &'a mut T>
    where
        T: 'a,
    {
        self.iter_mut()
    }
}

/// The direction of a [`Snapshot::walk`].  Every method takes the field
/// it walks by `&mut`: [`Io::Save`] appends it to the image, [`Io::Load`]
/// overwrites it from the image.  Only a load can fail.
#[derive(Debug)]
pub enum Io<'a> {
    /// Writing an image.
    Save(&'a mut Writer),
    /// Reading an image back.
    Load(&'a mut Reader<'a>),
}

macro_rules! walk_ints {
    ($($t:ident),*) => {$(
        #[doc = concat!("Walks a little-endian `", stringify!($t), "`.")]
        pub fn $t(&mut self, v: &mut $t) -> Result<(), SnapError> {
            match self {
                Io::Save(w) => w.buf.extend_from_slice(&v.to_le_bytes()),
                Io::Load(r) => {
                    let bytes = r.take(std::mem::size_of::<$t>())?;
                    *v = $t::from_le_bytes(bytes.try_into().expect("sized read"));
                }
            }
            Ok(())
        }
    )*};
}

impl Io<'_> {
    walk_ints!(u8, u16, u32, u64);

    /// Whether this walk is reading an image back.
    pub fn is_load(&self) -> bool {
        matches!(self, Io::Load(_))
    }

    /// Image bytes a load has not consumed yet.
    fn remaining(&self) -> usize {
        match self {
            Io::Save(_) => 0,
            Io::Load(r) => r.data.len() - r.pos,
        }
    }

    /// Walks a four-byte section tag; a load fails with
    /// [`SnapError::BadTag`] unless the image holds `tag` here.
    pub fn tag(&mut self, tag: &[u8; 4]) -> Result<(), SnapError> {
        match self {
            Io::Save(w) => w.buf.extend_from_slice(tag),
            Io::Load(r) => {
                let found = r.take(4)?;
                if found != tag {
                    return Err(SnapError::BadTag {
                        expected: *tag,
                        found: found.try_into().expect("4-byte tag"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Walks a `usize` as a little-endian `u64`.
    pub fn usize(&mut self, v: &mut usize) -> Result<(), SnapError> {
        let mut wide = *v as u64;
        self.u64(&mut wide)?;
        *v = usize::try_from(wide).map_err(|_| SnapError::Invalid { what: "usize" })?;
        Ok(())
    }

    /// Walks a `bool` as one byte, 0 or 1.
    pub fn bool(&mut self, v: &mut bool) -> Result<(), SnapError> {
        let mut byte = u8::from(*v);
        self.u8(&mut byte)?;
        self.check(byte <= 1, "bool")?;
        *v = byte == 1;
        Ok(())
    }

    /// Walks a task id as its number.
    pub fn task(&mut self, t: &mut TaskId) -> Result<(), SnapError> {
        let mut n = t.number();
        self.u8(&mut n)?;
        self.check(usize::from(n) < crate::NUM_TASKS, "task id")?;
        *t = TaskId::new(n);
        Ok(())
    }

    /// Walks a fixed-size run of words, with no length prefix.
    pub fn words(&mut self, ws: &mut [Word]) -> Result<(), SnapError> {
        ws.iter_mut().try_for_each(|w| self.u16(w))
    }

    /// Walks a length-prefixed sequence, each element through `each`.  A
    /// load replaces the whole sequence; its length is bounded by the
    /// bytes left in the image, so a corrupt length cannot allocate
    /// absurdly.
    pub fn seq<T: Default>(
        &mut self,
        v: &mut impl Seq<T>,
        mut each: impl FnMut(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        if self.is_load() {
            let mut n = 0;
            self.usize(&mut n)?;
            // Every element occupies at least one byte.
            self.check(n <= self.remaining(), "length")?;
            *v = Default::default();
            for _ in 0..n {
                let mut x = T::default();
                each(self, &mut x)?;
                v.extend([x]);
            }
            return Ok(());
        }
        let items = v.items();
        self.usize(&mut items.len())?;
        items.into_iter().try_for_each(|x| each(self, x))
    }

    /// Walks a length-prefixed word sequence.
    pub fn word_seq(&mut self, v: &mut impl Seq<Word>) -> Result<(), SnapError> {
        self.seq(v, Io::u16)
    }

    /// Walks a length-prefixed byte sequence.
    pub fn byte_seq(&mut self, v: &mut impl Seq<u8>) -> Result<(), SnapError> {
        self.seq(v, Io::u8)
    }

    /// Walks an optional value as a presence flag, then the value through
    /// `each`.  A load into `None` starts the value from `init()`.
    pub fn option<T>(
        &mut self,
        v: &mut Option<T>,
        init: impl FnOnce() -> T,
        each: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut some = v.is_some();
        self.bool(&mut some)?;
        if !some {
            *v = None;
            return Ok(());
        }
        each(self, v.get_or_insert_with(init))
    }

    /// Walks a configuration value: a save writes `v` through `each`, a
    /// load reads the image's value and fails with
    /// [`SnapError::Mismatch`] unless it equals `v`, which is never
    /// overwritten.
    pub fn config<T: Clone + PartialEq>(
        &mut self,
        v: &T,
        what: &'static str,
        each: impl FnOnce(&mut Self, &mut T) -> Result<(), SnapError>,
    ) -> Result<(), SnapError> {
        let mut found = v.clone();
        each(self, &mut found)?;
        if found == *v {
            Ok(())
        } else {
            Err(SnapError::Mismatch { what })
        }
    }

    /// An invariant of loaded state: fails with [`SnapError::Invalid`] on
    /// a load where `ok` is false; a no-op on save.
    pub fn check(&self, ok: bool, what: &'static str) -> Result<(), SnapError> {
        if ok || !self.is_load() {
            Ok(())
        } else {
            Err(SnapError::Invalid { what })
        }
    }
}

/// A component whose complete dynamic state can be serialized and
/// restored in place.
///
/// The contract: for any machine `m` built from configuration `C`, and
/// any fresh machine `m2` built from the same `C`,
/// `restore(m2, save(m))` followed by `k` steps of `m2` is bit-identical
/// to `k` further steps of `m` — same registers, same counters, same
/// trace events.  A save must not change the component's future: `m`
/// saved and run on is bit-identical to `m` run on.
pub trait Snapshot {
    /// Walks this component's dynamic state through `io`, in image order.
    ///
    /// # Errors
    ///
    /// Any [`SnapError`] on load; a save never fails.  A failed load may
    /// leave the component partially overwritten: [`restore_image`] puts
    /// it back.
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError>;
}

/// Serializes one component (plus header and checksum) into a standalone
/// image.
pub fn save_image<T: Snapshot + ?Sized>(x: &mut T) -> Vec<u8> {
    let mut w = Writer::new();
    x.walk(&mut Io::Save(&mut w))
        .expect("a save walk never fails");
    w.finish()
}

fn load<T: Snapshot + ?Sized>(x: &mut T, r: Reader<'_>) -> Result<(), SnapError> {
    // The rebinding gives the reader a lifetime local to this frame, which
    // the borrow in `Io::Load` may then cover.
    let mut r = r;
    let mut io = Io::Load(&mut r);
    x.walk(&mut io)?;
    match io.remaining() {
        0 => Ok(()),
        left => Err(SnapError::Trailing { left }),
    }
}

/// Restores one component from an image produced by [`save_image`],
/// requiring the image to be consumed exactly.  Atomic: on any error the
/// component is put back exactly as it was (its own image always
/// restores).
///
/// # Errors
///
/// Any [`SnapError`] from validation or the component's walk.
pub fn restore_image<T: Snapshot + ?Sized>(x: &mut T, bytes: &[u8]) -> Result<(), SnapError> {
    let r = Reader::open(bytes)?;
    let own = save_image(x);
    load(x, r).inspect_err(|_| {
        let back = Reader::open(&own).and_then(|r| load(x, r));
        back.expect("a component's own image restores");
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every primitive, walked out and back.
    #[derive(Debug, Default, PartialEq)]
    struct All {
        a: u8,
        b: u16,
        c: u32,
        d: u64,
        e: bool,
        f: bool,
        g: [Word; 3],
        h: Vec<Word>,
        i: VecDeque<u8>,
        j: Option<u32>,
        k: TaskId,
    }

    impl Snapshot for All {
        fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
            io.tag(b"TEST")?;
            io.u8(&mut self.a)?;
            io.u16(&mut self.b)?;
            io.u32(&mut self.c)?;
            io.u64(&mut self.d)?;
            io.bool(&mut self.e)?;
            io.bool(&mut self.f)?;
            io.words(&mut self.g)?;
            io.word_seq(&mut self.h)?;
            io.byte_seq(&mut self.i)?;
            io.option(&mut self.j, || 0, Io::u32)?;
            io.task(&mut self.k)
        }
    }

    fn sample() -> All {
        All {
            a: 0xab,
            b: 0x1234,
            c: 0xdead_beef,
            d: 0x0123_4567_89ab_cdef,
            e: true,
            f: false,
            g: [1, 2, 3],
            h: vec![9, 8],
            i: [7u8, 6, 5].into(),
            j: Some(4),
            k: TaskId::new(12),
        }
    }

    fn reseal(mut img: Vec<u8>) -> Vec<u8> {
        img.truncate(img.len() - 8);
        let sum = fnv1a(&img);
        img.extend_from_slice(&sum.to_le_bytes());
        img
    }

    #[test]
    fn primitive_round_trip() {
        let mut a = sample();
        let img = save_image(&mut a);
        let mut b = All::default();
        restore_image(&mut b, &img).unwrap();
        assert_eq!(b, a);
        assert_eq!(save_image(&mut b), img);
    }

    #[test]
    fn bit_flip_is_detected() {
        let mut img = save_image(&mut sample());
        for i in 0..img.len() - 8 {
            let mut bad = img.clone();
            bad[i] ^= 0x10;
            let err = Reader::open(&bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapError::BadChecksum { .. }
                        | SnapError::BadMagic
                        | SnapError::BadVersion { .. }
                ),
                "flip at {i} gave {err:?}"
            );
        }
        // And a trailer flip too.
        let last = img.len() - 1;
        img[last] ^= 1;
        assert!(matches!(
            Reader::open(&img).unwrap_err(),
            SnapError::BadChecksum { .. }
        ));
    }

    #[test]
    fn truncation_is_detected() {
        let img = save_image(&mut sample());
        for cut in 0..img.len() {
            assert!(Reader::open(&img[..cut]).is_err(), "cut at {cut} accepted");
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut img = Writer::new().finish();
        // Rewrite the version field and re-seal with a valid checksum so
        // only the version check can fire.
        img[4] = 0xff;
        img[5] = 0xff;
        assert_eq!(
            Reader::open(&reseal(img)).unwrap_err(),
            SnapError::BadVersion {
                found: 0xffff,
                expected: SNAP_VERSION
            }
        );
    }

    #[test]
    fn tag_mismatch_names_both_sides() {
        let mut img = save_image(&mut sample());
        img[6..10].copy_from_slice(b"AAAA");
        assert_eq!(
            restore_image(&mut All::default(), &reseal(img)).unwrap_err(),
            SnapError::BadTag {
                expected: *b"TEST",
                found: *b"AAAA"
            }
        );
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut img = save_image(&mut sample());
        img.insert(img.len() - 8, 0);
        assert_eq!(
            restore_image(&mut All::default(), &reseal(img)).unwrap_err(),
            SnapError::Trailing { left: 1 }
        );
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        let mut img = save_image(&mut sample());
        // `h`'s length prefix follows the tag, the scalars and `g`.
        let at = 6 + 4 + 1 + 2 + 4 + 8 + 2 + 6;
        img[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(
            restore_image(&mut All::default(), &reseal(img)).unwrap_err(),
            SnapError::Invalid { what: "length" }
        );
    }

    #[test]
    fn config_and_check_fire_only_on_load() {
        struct Wired(u8, u8);
        impl Snapshot for Wired {
            fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
                io.config(&self.0, "wiring", Io::u8)?;
                io.u8(&mut self.1)?;
                io.check(self.1 < 10, "small")
            }
        }
        let img = save_image(&mut Wired(3, 200));
        assert_eq!(
            restore_image(&mut Wired(4, 0), &img).unwrap_err(),
            SnapError::Mismatch { what: "wiring" }
        );
        assert_eq!(
            restore_image(&mut Wired(3, 0), &img).unwrap_err(),
            SnapError::Invalid { what: "small" }
        );
    }

    #[test]
    fn failed_restore_leaves_the_target_untouched() {
        let mut img = save_image(&mut sample());
        // Corrupt the task id at the very end: every other field has been
        // overwritten by the time the walk rejects it.
        let at = img.len() - 9;
        img[at] = 16;
        let mut target = All::default();
        let before = save_image(&mut target);
        assert_eq!(
            restore_image(&mut target, &reseal(img)).unwrap_err(),
            SnapError::Invalid { what: "task id" }
        );
        assert_eq!(target, All::default());
        assert_eq!(save_image(&mut target), before);
    }
}
