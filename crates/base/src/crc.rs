//! Cyclic-redundancy checksums for frame hashing and image encoding.
//!
//! The golden-frame harness pins every scanned-out field to a CRC64
//! (ECMA-182, the polynomial used by XZ) so a one-pixel regression in the
//! display pipeline shows up as a hash drift in CI.  The CRC32 (IEEE
//! 802.3) exists for the hand-rolled PNG encoder in `dorado-io` — the
//! workspace carries no external dependencies, so both tables are built
//! at compile time from their polynomials.

/// CRC64/ECMA-182 polynomial, normal (MSB-first) form.
const CRC64_POLY: u64 = 0x42F0_E1EB_A9EA_3693;

/// CRC32 (IEEE 802.3 / zlib / PNG) polynomial, reflected form.
const CRC32_POLY: u32 = 0xEDB8_8320;

const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u64) << 56;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & (1 << 63) != 0 {
                (crc << 1) ^ CRC64_POLY
            } else {
                crc << 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();
static CRC32_TABLE: [u32; 256] = crc32_table();

/// Streaming CRC64 over the ECMA-182 polynomial, MSB-first with
/// all-ones init and final XOR (the CRC-64/WE parameterization; check
/// value of `"123456789"` is `0x62EC_59E3_F1A4_F00A`).  The non-zero
/// init makes leading zero words contribute to frame hashes.
#[derive(Debug, Clone)]
pub struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// A fresh checksum.
    #[must_use]
    pub fn new() -> Self {
        Crc64 { state: !0 }
    }

    /// Feed bytes into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            let idx = ((self.state >> 56) as u8 ^ b) as usize;
            self.state = (self.state << 8) ^ CRC64_TABLE[idx];
        }
    }

    /// Feed a 16-bit word as two little-endian bytes, so hashes are
    /// platform-independent and pinnable in fixtures.
    pub fn update_word(&mut self, w: u16) {
        self.update(&w.to_le_bytes());
    }

    /// The final checksum value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC64 of a byte slice in one call.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(bytes);
    c.finish()
}

/// CRC64 over a word slice (each word as two little-endian bytes).
#[must_use]
pub fn crc64_words(words: &[u16]) -> u64 {
    let mut c = Crc64::new();
    for &w in words {
        c.update_word(w);
    }
    c.finish()
}

/// CRC32 (IEEE) of a byte slice — the PNG chunk checksum.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut state = !0u32;
    for &b in bytes {
        let idx = ((state ^ u32::from(b)) & 0xff) as usize;
        state = (state >> 8) ^ CRC32_TABLE[idx];
    }
    !state
}

/// Adler-32 checksum — the zlib stream trailer the PNG encoder needs.
#[must_use]
pub fn adler32(bytes: &[u8]) -> u32 {
    const MOD: u32 = 65_521;
    let mut a = 1u32;
    let mut b = 0u32;
    for chunk in bytes.chunks(5_000) {
        for &x in chunk {
            a += u32::from(x);
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc64_check_value() {
        // The CRC-64/WE check string (ECMA-182 polynomial, !0 init/xor).
        assert_eq!(crc64(b"123456789"), 0x62EC_59E3_F1A4_F00A);
    }

    #[test]
    fn crc32_check_value() {
        // The IEEE 802.3 check string.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn adler32_check_value() {
        // RFC 1950's "Wikipedia" worked example.
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(crc64(b""), 0);
        assert_eq!(crc32(b""), 0);
        assert_eq!(adler32(b""), 1);
    }

    #[test]
    fn word_hash_matches_byte_hash() {
        let words = [0x1234u16, 0xABCD, 0x0001];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(crc64_words(&words), crc64(&bytes));
    }

    #[test]
    fn crc64_is_sensitive_to_single_bits() {
        let a = crc64_words(&[0u16; 512]);
        let mut frame = [0u16; 512];
        frame[511] = 1;
        assert_ne!(a, crc64_words(&frame));
    }
}
