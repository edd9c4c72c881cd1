//! Low-level wire helpers and the parse error type: checked big-endian
//! readers that consume from the front of a borrowed `&[u8]`, and writers
//! that append to a `Vec<u8>`. Nothing here copies or allocates; a decoder
//! narrows the slice it was handed and sub-slices it with [`take`].

use rrr_types::{Ipv4, Prefix};
use std::fmt;

/// Parse/encode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Input ended before a complete field.
    Truncated(&'static str),
    /// A length field is inconsistent with the surrounding structure.
    BadLength(&'static str),
    /// An enumerated field holds a value outside the supported subset.
    Unsupported(&'static str, u64),
    /// A semantic constraint was violated (e.g. prefix length > 32).
    Malformed(&'static str),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated(what) => write!(f, "truncated {what}"),
            Error::BadLength(what) => write!(f, "inconsistent length in {what}"),
            Error::Unsupported(what, v) => write!(f, "unsupported {what} value {v}"),
            Error::Malformed(what) => write!(f, "malformed {what}"),
        }
    }
}

impl std::error::Error for Error {}

pub type Result<T> = std::result::Result<T, Error>;

/// Splits the first `n` bytes off the front of `buf`, or reports `what` as
/// truncated and leaves `buf` as it was.
pub fn take<'a>(buf: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8]> {
    if buf.len() < n {
        return Err(Error::Truncated(what));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

pub fn get_u8(buf: &mut &[u8], what: &'static str) -> Result<u8> {
    Ok(take(buf, 1, what)?[0])
}

pub fn get_u16(buf: &mut &[u8], what: &'static str) -> Result<u16> {
    let b = take(buf, 2, what)?;
    Ok(u16::from_be_bytes([b[0], b[1]]))
}

pub fn get_u32(buf: &mut &[u8], what: &'static str) -> Result<u32> {
    let b = take(buf, 4, what)?;
    Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

/// Reads an NLRI-encoded prefix: length byte then `ceil(len/8)` bytes.
pub fn get_prefix(buf: &mut &[u8], what: &'static str) -> Result<Prefix> {
    let len = get_u8(buf, what)?;
    if len > 32 {
        return Err(Error::Malformed(what));
    }
    let bytes = take(buf, len.div_ceil(8) as usize, what)?;
    let mut octets = [0u8; 4];
    octets[..bytes.len()].copy_from_slice(bytes);
    Ok(Prefix::new(Ipv4::from(octets), len))
}

pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_be_bytes());
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_be_bytes());
}

/// Writes an NLRI-encoded prefix.
pub fn put_prefix(buf: &mut Vec<u8>, p: Prefix) {
    buf.push(p.len());
    let octets = p.network().octets();
    buf.extend_from_slice(&octets[..p.len().div_ceil(8) as usize]);
}

/// Back-patches the `u16` length placeholder at `pos` with the number of
/// bytes written after it.
pub fn patch_u16_len(buf: &mut [u8], pos: usize) {
    let len = (buf.len() - pos - 2) as u16;
    buf[pos..pos + 2].copy_from_slice(&len.to_be_bytes());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_roundtrip_various_lengths() {
        for s in
            ["0.0.0.0/0", "10.0.0.0/7", "10.0.0.0/8", "10.128.0.0/9", "192.0.2.0/24", "1.2.3.4/32"]
        {
            let p: Prefix = s.parse().expect("valid prefix literal");
            let mut buf = Vec::new();
            put_prefix(&mut buf, p);
            assert_eq!(buf.len(), 1 + p.len().div_ceil(8) as usize);
            let mut rd = &buf[..];
            assert_eq!(get_prefix(&mut rd, "test").expect("roundtrip"), p);
            assert_eq!(rd.len(), 0);
        }
    }

    #[test]
    fn truncated_and_malformed() {
        let mut rd: &[u8] = &[];
        assert_eq!(get_u8(&mut rd, "x"), Err(Error::Truncated("x")));
        let mut rd: &[u8] = &[24, 10, 0]; // /24 needs 3 bytes, only 2 given
        assert_eq!(get_prefix(&mut rd, "p"), Err(Error::Truncated("p")));
        let mut rd: &[u8] = &[33, 0, 0, 0, 0];
        assert_eq!(get_prefix(&mut rd, "p"), Err(Error::Malformed("p")));
    }

    #[test]
    fn error_display() {
        assert_eq!(Error::Truncated("hdr").to_string(), "truncated hdr");
        assert_eq!(Error::Unsupported("afi", 2).to_string(), "unsupported afi value 2");
    }
}
