//! The monitor on the end of the display cable: a fixed-geometry bitmap
//! surface the [`DisplayController`](crate::DisplayController) paints one
//! word at a time as its FIFO drains at the video rate.
//!
//! The Dorado's display controller (§7 of the paper) is a pure bandwidth
//! device: microcode fetches 16-word munches from the bitmap in memory
//! and the monitor consumes them serially.  The `Framebuffer` models the
//! monitor side — the raster that those bits become.  Every
//! `width_words × lines` words painted completes one *field*; the frame
//! is hashed (CRC64) into a log so scripted scenarios can pin raster
//! output byte-for-byte in golden tests, and the surface can be dumped as
//! ASCII art, PBM, or PNG for humans.
//!
//! Bit convention (shared with bitblt): bit 0 of the raster is the **most
//! significant bit of the first word** — display order, the order the
//! serializer shifts bits out to the monitor.

use dorado_base::crc::{adler32, crc32, Crc64};
use dorado_base::snap::{Io, SnapError, Snapshot};
use dorado_base::Word;

/// Cap on the retained hash log: long soaks keep the newest hashes
/// without growing unboundedly.
const HASH_LOG_LIMIT: usize = 1 << 16;

/// A fixed-geometry 1-bit raster surface with per-field CRC64 hashing.
#[derive(Debug, Clone)]
pub struct Framebuffer {
    width_words: u16,
    lines: u16,
    pixels: Vec<Word>,
    cursor: usize,
    fields: u64,
    hash_log: Vec<u64>,
    running: Crc64,
}

impl Framebuffer {
    /// A dark surface of `width_words × 16` pixels by `lines` scanlines.
    ///
    /// # Panics
    /// Panics on a degenerate geometry (zero words or zero lines).
    #[must_use]
    pub fn new(width_words: u16, lines: u16) -> Self {
        assert!(
            width_words > 0 && lines > 0,
            "degenerate framebuffer geometry"
        );
        Framebuffer {
            width_words,
            lines,
            pixels: vec![0; usize::from(width_words) * usize::from(lines)],
            cursor: 0,
            fields: 0,
            hash_log: Vec::new(),
            running: Crc64::new(),
        }
    }

    /// Raster width in words.
    #[must_use]
    pub fn width_words(&self) -> u16 {
        self.width_words
    }

    /// Raster width in pixels.
    #[must_use]
    pub fn width_pixels(&self) -> usize {
        usize::from(self.width_words) * 16
    }

    /// Number of scanlines.
    #[must_use]
    pub fn lines(&self) -> u16 {
        self.lines
    }

    /// Completed fields since power-on.
    #[must_use]
    pub fn fields(&self) -> u64 {
        self.fields
    }

    /// Scan position within the current field, in words.
    #[must_use]
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The surface contents, row-major, one word = 16 pixels.
    #[must_use]
    pub fn pixels(&self) -> &[Word] {
        &self.pixels
    }

    /// CRC64 hashes of completed fields, oldest first (bounded log).
    #[must_use]
    pub fn hashes(&self) -> &[u64] {
        &self.hash_log
    }

    /// Paint the next word of the raster.  Returns `true` when this word
    /// completed a field (the caller should enter vertical retrace).
    pub fn push(&mut self, w: Word) -> bool {
        self.pixels[self.cursor] = w;
        self.step(w)
    }

    /// Advance the scan position without painting — the raster marches on
    /// during a FIFO underrun and the monitor keeps whatever was there.
    /// Returns `true` when the field completed.
    pub fn advance(&mut self) -> bool {
        let stale = self.pixels[self.cursor];
        self.step(stale)
    }

    fn step(&mut self, scanned: Word) -> bool {
        self.running.update_word(scanned);
        self.cursor += 1;
        if self.cursor == self.pixels.len() {
            self.cursor = 0;
            self.fields += 1;
            if self.hash_log.len() == HASH_LOG_LIMIT {
                self.hash_log.remove(0);
            }
            self.hash_log.push(self.running.finish());
            self.running = Crc64::new();
            true
        } else {
            false
        }
    }

    /// Whether pixel (`x`, `y`) is lit.  Display bit order: `x = 0` is
    /// the MSB of the first word of row `y`.
    #[must_use]
    pub fn pixel(&self, x: usize, y: usize) -> bool {
        let w = self.pixels[y * usize::from(self.width_words) + x / 16];
        w & (0x8000 >> (x % 16)) != 0
    }

    /// The raster as ASCII art, `#` for ink and `.` for background —
    /// good enough to eyeball a splash screen in a terminal.
    #[must_use]
    pub fn to_ascii(&self) -> String {
        let mut out = String::with_capacity((self.width_pixels() + 1) * usize::from(self.lines));
        for y in 0..usize::from(self.lines) {
            for x in 0..self.width_pixels() {
                out.push(if self.pixel(x, y) { '#' } else { '.' });
            }
            out.push('\n');
        }
        out
    }

    /// The raster as a binary PBM (P4) image; set bits are black ink.
    /// PBM packs each row MSB-first, which is exactly the display word
    /// order, so rows serialize as big-endian word bytes.
    #[must_use]
    pub fn to_pbm(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(format!("P4\n{} {}\n", self.width_pixels(), self.lines).as_bytes());
        for &w in &self.pixels {
            out.extend_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// The raster as a 1-bit grayscale PNG.  Hand-rolled: stored
    /// (uncompressed) deflate blocks inside a zlib stream, so the encoder
    /// needs no external dependency.  Set bits render as ink (black).
    #[must_use]
    pub fn to_png(&self) -> Vec<u8> {
        // Raw scanline data: one filter byte (0 = None) per row, then the
        // row's pixels packed 8 per byte, MSB first.  PNG bit depth 1
        // grayscale maps 0 = black, so invert: ink (set bit) -> 0.
        let row_bytes = usize::from(self.width_words) * 2;
        let mut raw = Vec::with_capacity(usize::from(self.lines) * (row_bytes + 1));
        for y in 0..usize::from(self.lines) {
            raw.push(0u8);
            for xw in 0..usize::from(self.width_words) {
                let w = !self.pixels[y * usize::from(self.width_words) + xw];
                raw.extend_from_slice(&w.to_be_bytes());
            }
        }

        // zlib wrapper: CMF/FLG, stored deflate blocks, adler32 trailer.
        let mut z = vec![0x78u8, 0x01];
        let mut rest = &raw[..];
        loop {
            let take = rest.len().min(0xFFFF);
            let (chunk, tail) = rest.split_at(take);
            let last = tail.is_empty();
            z.push(u8::from(last));
            z.extend_from_slice(&(take as u16).to_le_bytes());
            z.extend_from_slice(&(!(take as u16)).to_le_bytes());
            z.extend_from_slice(chunk);
            if last {
                break;
            }
            rest = tail;
        }
        z.extend_from_slice(&adler32(&raw).to_be_bytes());

        let mut png = Vec::new();
        png.extend_from_slice(&[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);
        let mut chunk = |kind: &[u8; 4], data: &[u8]| {
            png.extend_from_slice(&(data.len() as u32).to_be_bytes());
            png.extend_from_slice(kind);
            png.extend_from_slice(data);
            let mut body = Vec::with_capacity(4 + data.len());
            body.extend_from_slice(kind);
            body.extend_from_slice(data);
            png.extend_from_slice(&crc32(&body).to_be_bytes());
        };
        let mut ihdr = Vec::new();
        ihdr.extend_from_slice(&(self.width_pixels() as u32).to_be_bytes());
        ihdr.extend_from_slice(&u32::from(self.lines).to_be_bytes());
        // bit depth 1, color type 0 (grayscale), deflate, filter 0, no interlace
        ihdr.extend_from_slice(&[1, 0, 0, 0, 0]);
        chunk(b"IHDR", &ihdr);
        chunk(b"IDAT", &z);
        chunk(b"IEND", &[]);
        png
    }
}

impl Snapshot for Framebuffer {
    /// The running mid-field CRC state is not stored: a load recomputes
    /// it from the surface prefix, so images stay a pure function of the
    /// architectural state.
    fn walk(&mut self, io: &mut Io<'_>) -> Result<(), SnapError> {
        io.tag(b"FRMB")?;
        io.u16(&mut self.width_words)?;
        io.u16(&mut self.lines)?;
        let size = usize::from(self.width_words) * usize::from(self.lines);
        io.check(size > 0, "framebuffer geometry")?;
        io.word_seq(&mut self.pixels)?;
        io.check(self.pixels.len() == size, "framebuffer surface size")?;
        io.usize(&mut self.cursor)?;
        io.check(self.cursor < size, "framebuffer cursor")?;
        io.u64(&mut self.fields)?;
        io.seq(&mut self.hash_log, Io::u64)?;
        io.check(
            self.hash_log.len() <= HASH_LOG_LIMIT,
            "framebuffer hash log",
        )?;
        if io.is_load() {
            self.running = Crc64::new();
            for &w in &self.pixels[..self.cursor] {
                self.running.update_word(w);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dorado_base::crc::crc64_words;
    use dorado_base::snap::{restore_image, save_image};

    #[test]
    fn field_completion_hashes_the_scanned_words() {
        let mut fb = Framebuffer::new(2, 2);
        let words = [0x8000u16, 0x0001, 0xFFFF, 0x1234];
        for (i, &w) in words.iter().enumerate() {
            let done = fb.push(w);
            assert_eq!(done, i == 3, "field boundary at word {i}");
        }
        assert_eq!(fb.fields(), 1);
        assert_eq!(fb.hashes(), &[crc64_words(&words)]);
        assert_eq!(fb.cursor(), 0);
    }

    #[test]
    fn underrun_advance_keeps_stale_pixels() {
        let mut fb = Framebuffer::new(1, 2);
        fb.push(0xAAAA);
        fb.push(0x5555);
        // Second field: one real word, one underrun slot.
        fb.push(0x00FF);
        assert!(fb.advance());
        assert_eq!(fb.pixels(), &[0x00FF, 0x5555]);
        assert_eq!(fb.fields(), 2);
        assert_eq!(fb.hashes()[1], crc64_words(&[0x00FF, 0x5555]));
    }

    #[test]
    fn pixel_uses_display_bit_order() {
        let mut fb = Framebuffer::new(1, 1);
        fb.push(0x8001);
        assert!(fb.pixel(0, 0), "bit 0 is the word MSB");
        assert!(fb.pixel(15, 0), "bit 15 is the word LSB");
        assert!(!fb.pixel(1, 0));
    }

    #[test]
    fn ascii_dump_shape() {
        let mut fb = Framebuffer::new(1, 2);
        fb.push(0xF000);
        fb.push(0x000F);
        assert_eq!(fb.to_ascii(), "####............\n............####\n");
    }

    #[test]
    fn pbm_has_header_and_rows() {
        let mut fb = Framebuffer::new(2, 1);
        fb.push(0x8000);
        fb.push(0x0001);
        let pbm = fb.to_pbm();
        assert!(pbm.starts_with(b"P4\n32 1\n"));
        assert_eq!(&pbm[8..], &[0x80, 0x00, 0x00, 0x01]);
    }

    #[test]
    fn png_is_structurally_sound() {
        let mut fb = Framebuffer::new(2, 2);
        for w in [0xAAAAu16, 0x5555, 0xFF00, 0x00FF] {
            fb.push(w);
        }
        let png = fb.to_png();
        assert_eq!(&png[..8], &[0x89, b'P', b'N', b'G', 0x0D, 0x0A, 0x1A, 0x0A]);
        assert_eq!(&png[12..16], b"IHDR");
        assert!(png.windows(4).any(|w| w == b"IDAT"));
        assert!(png.ends_with(&{
            let mut tail = Vec::new();
            tail.extend_from_slice(b"IEND");
            tail.extend_from_slice(&crc32(b"IEND").to_be_bytes());
            tail
        }));
    }

    #[test]
    fn snapshot_round_trip_mid_field() {
        let mut fb = Framebuffer::new(2, 2);
        fb.push(1);
        fb.push(2);
        fb.push(3);
        fb.push(4);
        fb.push(0x0F0F); // mid-field: cursor 1, running CRC live
        let mut back = Framebuffer::new(1, 1);
        restore_image(&mut back, &save_image(&mut fb)).unwrap();
        assert_eq!(back.cursor(), fb.cursor());
        assert_eq!(back.fields(), fb.fields());
        assert_eq!(back.hashes(), fb.hashes());
        // The restored running CRC continues identically.
        for w in [7u16, 8, 9] {
            fb.push(w);
            back.push(w);
        }
        assert_eq!(back.hashes(), fb.hashes());
    }
}
