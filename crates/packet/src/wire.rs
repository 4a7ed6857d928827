//! Minimal big-endian wire codec shared by every header and payload type.
//!
//! The traits mirror what a P4 deparser (encode) and parser (decode) do:
//! fixed-layout, network-byte-order serialization with explicit bounds
//! checking and no implicit padding.

use crate::{PacketError, Result};
use bytes::{Buf, BufMut};

/// Types that can serialize themselves onto a byte buffer in network order.
pub trait WireEncode {
    /// Exact number of bytes [`WireEncode::encode`] will write.
    fn encoded_len(&self) -> usize;

    /// Append the wire representation to `buf`.
    fn encode<B: BufMut>(&self, buf: &mut B);

    /// Convenience: encode into a fresh `Vec<u8>`.
    fn to_bytes(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(self.encoded_len());
        self.encode(&mut v);
        debug_assert_eq!(v.len(), self.encoded_len());
        v
    }
}

/// Types that can parse themselves from a byte buffer in network order.
pub trait WireDecode: Sized {
    /// Parse one value, advancing `buf` past the consumed bytes.
    fn decode<B: Buf>(buf: &mut B) -> Result<Self>;
}

/// Bounds-checked read of `n` bytes, reporting `what` on failure.
pub fn need<B: Buf>(buf: &B, what: &'static str, n: usize) -> Result<()> {
    if buf.remaining() < n {
        Err(PacketError::Truncated { what, needed: n, available: buf.remaining() })
    } else {
        Ok(())
    }
}

/// Encode a length-prefixed (u16) byte string.
pub fn put_bytes16<B: BufMut>(buf: &mut B, data: &[u8]) {
    debug_assert!(data.len() <= u16::MAX as usize);
    buf.put_u16(data.len() as u16);
    buf.put_slice(data);
}

/// Decode a length-prefixed (u16) byte string.
pub fn get_bytes16<B: Buf>(buf: &mut B, what: &'static str) -> Result<Vec<u8>> {
    need(buf, what, 2)?;
    let len = buf.get_u16() as usize;
    need(buf, what, len)?;
    let mut v = vec![0u8; len];
    buf.copy_to_slice(&mut v);
    Ok(v)
}

/// RFC 1071 internet checksum over `data` (as used by IPv4 headers).
///
/// The checksum field itself must be zeroed in `data` before calling.
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_of_zeros_is_all_ones() {
        assert_eq!(internet_checksum(&[0u8; 20]), 0xFFFF);
    }

    #[test]
    fn checksum_rfc1071_example() {
        // Example adapted from RFC 1071 §3: words 0x0001, 0xf203, 0xf4f5, 0xf6f7.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> 0xddf2 (with carry)
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn checksum_handles_odd_length() {
        // Odd trailing byte is padded with zero on the right.
        assert_eq!(internet_checksum(&[0xFF]), internet_checksum(&[0xFF, 0x00]));
    }

    #[test]
    fn checksum_verifies_to_zero_when_embedded() {
        // Standard property: inserting the checksum makes the total sum 0xFFFF,
        // i.e. re-checksumming the patched buffer yields 0.
        let mut data = vec![0x45, 0x00, 0x00, 0x28, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00];
        let ck = internet_checksum(&data);
        data[10] = (ck >> 8) as u8;
        data[11] = (ck & 0xFF) as u8;
        assert_eq!(internet_checksum(&data), 0);
    }

    #[test]
    fn bytes16_roundtrip() {
        let mut buf = Vec::new();
        put_bytes16(&mut buf, b"hello");
        let mut slice = &buf[..];
        assert_eq!(get_bytes16(&mut slice, "test").unwrap(), b"hello");
        assert!(slice.is_empty());
    }

    #[test]
    fn bytes16_truncated_reports_error() {
        let mut buf = Vec::new();
        put_bytes16(&mut buf, b"hello");
        buf.truncate(4);
        let mut slice = &buf[..];
        let err = get_bytes16(&mut slice, "test").unwrap_err();
        assert!(matches!(err, PacketError::Truncated { .. }));
    }
}
