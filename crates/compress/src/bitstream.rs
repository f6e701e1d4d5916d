//! Bit-level writer/reader used by the Huffman and ZFP-style coders.
//!
//! Both sides buffer a 64-bit word so the hot `write_bits`/`read_bits`
//! calls are shift-and-mask operations rather than per-bit loops: the
//! writer accumulates bits in a word and spills whole bytes, and the reader
//! refills its word from the byte slice (eight bytes at a time when the
//! accumulator is empty and at least a word remains — a plain
//! `u64::from_be_bytes` on a 8-byte subslice, no `unsafe`).  The byte
//! layout is MSB-first within each byte and identical to the historical
//! bit-at-a-time implementation, so every stream version ever written
//! remains decodable.

use crate::{CompressError, Result};

/// Largest single `write_bits`/`read_bits` chunk that stays on the fast
/// word-buffered path; longer values are transparently split in two.
const WORD_CHUNK: u8 = 56;

/// Append-only bit writer (MSB-first within each byte).
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    bytes: Vec<u8>,
    /// Pending bits, right-aligned (the `acc_bits` low bits are valid).
    acc: u64,
    /// Number of pending bits in `acc` (kept below 8 between calls).
    acc_bits: u8,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty writer with room for `bytes` encoded bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        BitWriter {
            bytes: Vec::with_capacity(bytes),
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Discards all written bits, keeping the allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.acc = 0;
        self.acc_bits = 0;
    }

    /// Total number of bits written so far.
    pub fn bit_len(&self) -> usize {
        self.bytes.len() * 8 + self.acc_bits as usize
    }

    /// Writes a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write_chunk(u64::from(bit), 1);
    }

    /// Writes the lowest `nbits` bits of `value`, most significant first.
    ///
    /// # Panics
    /// Panics if `nbits > 64`.
    #[inline]
    pub fn write_bits(&mut self, value: u64, nbits: u8) {
        assert!(nbits <= 64, "cannot write more than 64 bits");
        if nbits > WORD_CHUNK {
            self.write_chunk(value >> 32, nbits - 32);
            self.write_chunk(value & 0xFFFF_FFFF, 32);
        } else {
            self.write_chunk(value, nbits);
        }
    }

    /// Word-buffered append of `nbits <= 56` bits.
    #[inline]
    fn write_chunk(&mut self, value: u64, nbits: u8) {
        debug_assert!(nbits <= WORD_CHUNK);
        if nbits == 0 {
            return;
        }
        let value = value & (u64::MAX >> (64 - nbits));
        // acc_bits <= 7 here, so the shifted accumulator fits in 63 bits.
        self.acc = (self.acc << nbits) | value;
        self.acc_bits += nbits;
        while self.acc_bits >= 8 {
            self.acc_bits -= 8;
            self.bytes.push((self.acc >> self.acc_bits) as u8);
        }
        self.acc &= (1u64 << self.acc_bits) - 1;
    }

    /// Finishes writing and returns the byte buffer (final byte zero-padded).
    pub fn into_bytes(mut self) -> Vec<u8> {
        if self.acc_bits > 0 {
            self.bytes.push((self.acc << (8 - self.acc_bits)) as u8);
        }
        self.bytes
    }
}

/// Bit reader matching [`BitWriter`]'s layout.
///
/// Buffers up to 64 bits in a left-aligned accumulator: the next unread bit
/// is the accumulator's most significant bit, and bits beyond `acc_bits`
/// are always zero (so [`BitReader::peek_bits`] is zero-padded past the end
/// of the stream for free).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    /// Next byte to load into the accumulator.
    byte_pos: usize,
    /// Left-aligned buffered bits.
    acc: u64,
    /// Number of valid bits in `acc`.
    acc_bits: u8,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        BitReader {
            bytes,
            byte_pos: 0,
            acc: 0,
            acc_bits: 0,
        }
    }

    /// Number of bits consumed so far.
    pub fn bits_read(&self) -> usize {
        self.byte_pos * 8 - self.acc_bits as usize
    }

    /// Number of bits still available (padding bits of the final byte
    /// included, exactly as the bit-at-a-time reader counted them).
    pub fn available_bits(&self) -> usize {
        self.bytes.len() * 8 - self.bits_read()
    }

    /// Tops the accumulator up from the byte slice.
    #[inline]
    fn refill(&mut self) {
        if self.acc_bits == 0 {
            if let Some(word) = self.bytes.get(self.byte_pos..self.byte_pos + 8) {
                self.acc = u64::from_be_bytes(word.try_into().expect("8-byte slice"));
                self.acc_bits = 64;
                self.byte_pos += 8;
                return;
            }
        }
        while self.acc_bits <= WORD_CHUNK && self.byte_pos < self.bytes.len() {
            self.acc |= u64::from(self.bytes[self.byte_pos]) << (WORD_CHUNK - self.acc_bits);
            self.byte_pos += 1;
            self.acc_bits += 8;
        }
    }

    /// Reads one bit.
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] at end of stream.
    pub fn read_bit(&mut self) -> Result<bool> {
        Ok(self.read_chunk(1)? != 0)
    }

    /// Reads `nbits` bits as an unsigned integer (MSB first).
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] at end of stream.
    ///
    /// # Panics
    /// Panics if `nbits > 64`.
    pub fn read_bits(&mut self, nbits: u8) -> Result<u64> {
        assert!(nbits <= 64, "cannot read more than 64 bits");
        if nbits > WORD_CHUNK {
            let hi = self.read_chunk(nbits - 32)?;
            let lo = self.read_chunk(32)?;
            Ok((hi << 32) | lo)
        } else {
            self.read_chunk(nbits)
        }
    }

    #[inline]
    fn read_chunk(&mut self, nbits: u8) -> Result<u64> {
        debug_assert!(nbits <= WORD_CHUNK + 1);
        if nbits == 0 {
            return Ok(0);
        }
        if self.acc_bits < nbits {
            self.refill();
            if self.acc_bits < nbits {
                return Err(CompressError::Corrupt("bit stream exhausted".into()));
            }
        }
        let value = self.acc >> (64 - nbits);
        self.acc <<= nbits;
        self.acc_bits -= nbits;
        Ok(value)
    }

    /// Returns the next `nbits <= 56` bits without consuming them,
    /// zero-padded past the end of the stream.  A decoder matching against
    /// peeked bits must [`BitReader::consume`] afterwards, which reports
    /// the truncation a zero-padded peek may have papered over.
    #[inline]
    pub fn peek_bits(&mut self, nbits: u8) -> u64 {
        debug_assert!(0 < nbits && nbits <= WORD_CHUNK, "peek supports 1..=56 bits");
        if self.acc_bits < nbits {
            self.refill();
        }
        self.acc >> (64 - nbits)
    }

    /// Consumes `nbits` previously peeked bits.
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] if fewer than `nbits` bits remain.
    #[inline]
    pub fn consume(&mut self, nbits: u8) -> Result<()> {
        debug_assert!(nbits <= WORD_CHUNK);
        if self.acc_bits < nbits {
            self.refill();
            if self.acc_bits < nbits {
                return Err(CompressError::Corrupt("bit stream exhausted".into()));
            }
        }
        self.acc <<= nbits;
        self.acc_bits -= nbits;
        Ok(())
    }
}

/// Little helpers for writing/reading plain integers into byte vectors; the
/// compressed-stream headers use these.
pub mod bytes {
    use crate::{CompressError, Result};

    /// Appends a `u64` in little-endian order.
    pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` in little-endian IEEE-754 order.
    pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
        buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` as a LEB128 varint (1 byte for values < 128; the
    /// common case for counts and lengths in the SZ and Huffman stream formats).
    pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            buf.push((v as u8 & 0x7F) | 0x80);
            v >>= 7;
        }
        buf.push(v as u8);
    }

    /// Reads a LEB128 varint at `*pos`, advancing it.
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] on truncation or a varint longer
    /// than 64 bits.
    pub fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = *buf
                .get(*pos)
                .ok_or_else(|| CompressError::Corrupt("truncated varint".into()))?;
            *pos += 1;
            if shift >= 63 && byte > 1 {
                return Err(CompressError::Corrupt("varint overflow".into()));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CompressError::Corrupt("varint overflow".into()));
            }
        }
    }

    /// Reads a `u64` at `*pos`, advancing it.
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] if the buffer is too short.
    pub fn get_u64(buf: &[u8], pos: &mut usize) -> Result<u64> {
        let end = pos
            .checked_add(8)
            .ok_or_else(|| CompressError::Corrupt("offset overflow".into()))?;
        if end > buf.len() {
            return Err(CompressError::Corrupt("truncated u64".into()));
        }
        let mut arr = [0u8; 8];
        arr.copy_from_slice(&buf[*pos..end]);
        *pos = end;
        Ok(u64::from_le_bytes(arr))
    }

    /// Reads an `f64` at `*pos`, advancing it.
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] if the buffer is too short.
    pub fn get_f64(buf: &[u8], pos: &mut usize) -> Result<f64> {
        Ok(f64::from_bits(get_u64(buf, pos)?))
    }

    /// Reads `len` raw bytes at `*pos`, advancing it.
    ///
    /// # Errors
    /// Returns [`CompressError::Corrupt`] if the buffer is too short (the
    /// offset arithmetic is overflow-checked so corrupt length fields from
    /// untrusted streams cannot wrap).
    pub fn get_slice<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8]> {
        let end = pos
            .checked_add(len)
            .ok_or_else(|| CompressError::Corrupt("length field overflow".into()))?;
        if end > buf.len() {
            return Err(CompressError::Corrupt("truncated slice".into()));
        }
        let s = &buf[*pos..end];
        *pos = end;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_bits() {
        let mut w = BitWriter::new();
        w.write_bit(true);
        w.write_bit(false);
        w.write_bits(0b1011, 4);
        w.write_bits(0xDEADBEEF, 32);
        let expected_bits = 1 + 1 + 4 + 32;
        assert_eq!(w.bit_len(), expected_bits);
        let bytes = w.into_bytes();

        let mut r = BitReader::new(&bytes);
        assert!(r.read_bit().unwrap());
        assert!(!r.read_bit().unwrap());
        assert_eq!(r.read_bits(4).unwrap(), 0b1011);
        assert_eq!(r.read_bits(32).unwrap(), 0xDEADBEEF);
        assert_eq!(r.bits_read(), expected_bits);
    }

    #[test]
    fn exhausted_reader_errors() {
        let bytes = [0b10000000u8];
        let mut r = BitReader::new(&bytes);
        for _ in 0..8 {
            r.read_bit().unwrap();
        }
        assert!(r.read_bit().is_err());
        assert!(r.read_bits(4).is_err());
    }

    #[test]
    fn empty_writer() {
        let w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        assert!(w.into_bytes().is_empty());
    }

    #[test]
    fn full_64bit_value() {
        let mut w = BitWriter::new();
        w.write_bits(u64::MAX, 64);
        w.write_bits(0, 64);
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bits(64).unwrap(), u64::MAX);
        assert_eq!(r.read_bits(64).unwrap(), 0);
    }

    #[test]
    fn word_buffered_layout_matches_bit_at_a_time() {
        // Cross-check the word-buffered writer against a straightforward
        // bit-at-a-time reference over a mixed width sequence.
        let pieces: &[(u64, u8)] = &[
            (1, 1),
            (0, 1),
            (0b101, 3),
            (0xABCD, 16),
            (0x1FFFF, 17),
            (u64::MAX, 64),
            (0x0F0F_F0F0_0F0F_F0F0, 63),
            (0, 2),
            (0x7F, 7),
        ];
        let mut w = BitWriter::new();
        let mut reference: Vec<bool> = Vec::new();
        for &(v, n) in pieces {
            w.write_bits(v, n);
            for i in (0..n).rev() {
                reference.push((v >> i) & 1 == 1);
            }
        }
        let mut ref_bytes = vec![0u8; reference.len().div_ceil(8)];
        for (i, &bit) in reference.iter().enumerate() {
            if bit {
                ref_bytes[i / 8] |= 1 << (7 - i % 8);
            }
        }
        assert_eq!(w.into_bytes(), ref_bytes);

        let mut r = BitReader::new(&ref_bytes);
        for &(v, n) in pieces {
            let mask = if n == 64 { u64::MAX } else { (1 << n) - 1 };
            assert_eq!(r.read_bits(n).unwrap(), v & mask);
        }
    }

    #[test]
    fn peek_and_consume() {
        let mut w = BitWriter::new();
        w.write_bits(0b1101_0110, 8);
        w.write_bits(0b001, 3);
        let bytes = w.into_bytes();

        let mut r = BitReader::new(&bytes);
        assert_eq!(r.peek_bits(4), 0b1101);
        assert_eq!(r.peek_bits(8), 0b1101_0110);
        r.consume(8).unwrap();
        assert_eq!(r.bits_read(), 8);
        assert_eq!(r.peek_bits(3), 0b001);
        // Peeks past the end are zero-padded ...
        assert_eq!(r.peek_bits(12), 0b0010_0000_0000);
        // ... but consuming past the end errors.
        assert!(r.consume(12).is_err());
        r.consume(3).unwrap();
        assert_eq!(r.available_bits(), 5);
    }

    #[test]
    fn clear_reuses_allocation() {
        let mut w = BitWriter::new();
        w.write_bits(0xFFFF, 16);
        w.clear();
        assert_eq!(w.bit_len(), 0);
        w.write_bits(0b10, 2);
        assert_eq!(w.into_bytes(), vec![0b1000_0000]);
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, 65_535, 1 << 32, u64::MAX];
        for &v in &values {
            bytes::put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(bytes::get_varint(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
        assert!(bytes::get_varint(&buf, &mut pos).is_err());

        // Truncated multi-byte varint.
        let mut pos = 0;
        assert!(bytes::get_varint(&[0x80], &mut pos).is_err());
        // Over-long varint (more than 64 bits of payload).
        let mut pos = 0;
        assert!(bytes::get_varint(&[0xFF; 11], &mut pos).is_err());
    }

    #[test]
    fn header_helpers_roundtrip() {
        let mut buf = Vec::new();
        bytes::put_u64(&mut buf, 123456789);
        bytes::put_f64(&mut buf, -1.5e-7);
        buf.extend_from_slice(b"abc");

        let mut pos = 0;
        assert_eq!(bytes::get_u64(&buf, &mut pos).unwrap(), 123456789);
        assert_eq!(bytes::get_f64(&buf, &mut pos).unwrap(), -1.5e-7);
        assert_eq!(bytes::get_slice(&buf, &mut pos, 3).unwrap(), b"abc");
        assert!(bytes::get_u64(&buf, &mut pos).is_err());
        assert!(bytes::get_slice(&buf, &mut pos, 1).is_err());
        // A length field large enough to wrap the offset must error, not
        // panic or wrap around.
        assert!(bytes::get_slice(&buf, &mut pos, usize::MAX).is_err());
    }
}
