//! Framed checkpoint snapshots.
//!
//! Layout (all little-endian):
//!
//! ```text
//! +----------+---------+-------------+------------------+---------+
//! | magic 8B | ver u16 | len u64     | payload (len B)  | crc u32 |
//! +----------+---------+-------------+------------------+---------+
//! ```
//!
//! The CRC-32 covers magic, version, length, and payload, so header
//! tampering (including a bumped version byte) is detected even before
//! version negotiation would reject it — version skew is only reported as
//! [`StoreError::UnsupportedVersion`] when the frame is otherwise intact,
//! which distinguishes "other format" from "bit rot".
//!
//! [`write_snapshot`] / [`read_snapshot`] layer a one-byte [`FrameKind`]
//! tag at the start of the payload, distinguishing full snapshots from
//! delta frames (state changed since the last full snapshot).

use crate::crc32::{combine, crc32, Crc32};
use crate::error::StoreError;
use std::io::{Read, Write};

/// File magic: identifies a detector checkpoint ("RRRSTORE").
pub const MAGIC: [u8; 8] = *b"RRRSTORE";

/// Current checkpoint format version. Bump on any wire-format change.
///
/// Version 2 introduced snapshot kinds: the first payload byte of a frame
/// written through [`write_snapshot`] distinguishes full snapshots from
/// delta frames. Version-1 files carry no kind byte and are rejected
/// rather than misread.
pub const FORMAT_VERSION: u16 = 2;

/// What a snapshot frame carries: a complete state image, or only the
/// state changed since the last full snapshot (a delta frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Complete detector state; restorable on its own.
    Full,
    /// State changed since the preceding full snapshot. Only applicable on
    /// top of the full frame it names (by payload CRC).
    Delta,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Full => 0,
            FrameKind::Delta => 1,
        }
    }
}

/// A verified snapshot frame.
#[derive(Debug)]
pub struct Snapshot {
    pub kind: FrameKind,
    /// CRC-32 of [`Snapshot::payload`], taken while the frame was verified.
    pub payload_crc: u32,
    /// Kind byte, then the payload, as they sit in the frame.
    frame: Vec<u8>,
}

impl Snapshot {
    /// The payload handed to [`write_snapshot`].
    pub fn payload(&self) -> &[u8] {
        &self.frame[1..]
    }
}

/// Writes one framed checkpoint: header, payload, trailing CRC.
///
/// The payload must be fully materialized first because the frame carries
/// its length up front (a deliberate choice: restore can reject truncated
/// files before decoding a single payload byte).
pub fn write_checkpoint<W: Write>(w: W, payload: &[u8]) -> Result<(), StoreError> {
    write_frame(w, &[], payload).map(drop)
}

/// Writes one framed snapshot, prefixing the payload with its kind tag,
/// and returns the CRC-32 of `payload` (without the tag).
///
/// The frame layout is exactly [`write_checkpoint`]'s; the kind byte lives
/// inside the payload so the CRC covers it. [`read_snapshot`] strips it
/// back off.
pub fn write_snapshot<W: Write>(w: W, kind: FrameKind, payload: &[u8]) -> Result<u32, StoreError> {
    write_frame(w, &[kind.tag()], payload)
}

/// A frame needs two checksums over (almost) the same bytes: the frame CRC
/// and the CRC of the payload alone, by which a delta chain names its base.
/// The payload is read once; the frame CRC is combined from that and the
/// CRC of the few bytes in front of it.
fn write_frame<W: Write>(mut w: W, head: &[u8], payload: &[u8]) -> Result<u32, StoreError> {
    let mut header = [0u8; 18];
    header[..8].copy_from_slice(&MAGIC);
    header[8..10].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    header[10..].copy_from_slice(&((head.len() + payload.len()) as u64).to_le_bytes());
    let mut front_crc = Crc32::new();
    front_crc.update(&header);
    front_crc.update(head);
    let payload_crc = crc32(payload);
    let frame_crc = combine(front_crc.finish(), payload_crc, payload.len() as u64);
    w.write_all(&header)?;
    w.write_all(head)?;
    w.write_all(payload)?;
    w.write_all(&frame_crc.to_le_bytes())?;
    w.flush()?;
    Ok(payload_crc)
}

/// Reads and verifies one framed checkpoint, returning the raw payload.
///
/// Verification order: magic, CRC (whole frame), then version — so a
/// corrupted file reports [`StoreError::CrcMismatch`] rather than a
/// misleading version error, and an intact future-version file reports
/// [`StoreError::UnsupportedVersion`].
pub fn read_checkpoint<R: Read>(r: R) -> Result<Vec<u8>, StoreError> {
    read_frame(r, 0).map(|(payload, _)| payload)
}

/// Reads and verifies one frame; returns its payload and the CRC-32 of the
/// payload past its first `head_len` bytes.
fn read_frame<R: Read>(mut r: R, head_len: usize) -> Result<(Vec<u8>, u32), StoreError> {
    let mut frame_crc = Crc32::new();
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    frame_crc.update(&magic);
    if magic != MAGIC {
        return Err(StoreError::BadMagic(magic));
    }

    let mut rest = [0u8; 10];
    r.read_exact(&mut rest)?;
    frame_crc.update(&rest);
    let version = u16::from_le_bytes([rest[0], rest[1]]);
    let len = u64::from_le_bytes(rest[2..].try_into().expect("8 bytes"));
    let len = usize::try_from(len)
        .map_err(|_| StoreError::Corrupt { offset: 10, what: "payload length exceeds usize" })?;

    // Straight into the payload buffer, which grows with the bytes that
    // are really there: a corrupt length fails on the short read instead
    // of a huge up-front allocation.
    let mut payload = Vec::with_capacity(len.min(1 << 20));
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() != len {
        return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
    }
    let (head, body) = payload.split_at(head_len.min(len));
    frame_crc.update(head);
    let body_crc = crc32(body);

    let mut stored = [0u8; 4];
    r.read_exact(&mut stored)?;
    let stored = u32::from_le_bytes(stored);
    let computed = combine(frame_crc.finish(), body_crc, body.len() as u64);
    if stored != computed {
        return Err(StoreError::CrcMismatch { stored, computed });
    }
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    Ok((payload, body_crc))
}

/// Reads and verifies one framed snapshot.
///
/// Counterpart of [`write_snapshot`]: the leading kind byte is validated
/// and kept out of [`Snapshot::payload`]. A frame too short to carry one
/// (or with an unknown kind tag) is reported as [`StoreError::Corrupt`].
pub fn read_snapshot<R: Read>(r: R) -> Result<Snapshot, StoreError> {
    let (frame, payload_crc) = read_frame(r, 1)?;
    let kind = match frame.first() {
        None => {
            return Err(StoreError::Corrupt { offset: 0, what: "snapshot frame has no kind byte" })
        }
        Some(0) => FrameKind::Full,
        Some(1) => FrameKind::Delta,
        Some(_) => {
            return Err(StoreError::Corrupt { offset: 0, what: "unknown snapshot kind tag" })
        }
    };
    Ok(Snapshot { kind, payload_crc, frame })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, payload).expect("write");
        buf
    }

    #[test]
    fn roundtrip() {
        let payload = b"detector state bytes".to_vec();
        let buf = frame(&payload);
        assert_eq!(read_checkpoint(&buf[..]).expect("read"), payload);
        // Empty payloads are legal.
        assert_eq!(read_checkpoint(&frame(b"")[..]).expect("read"), b"");
    }

    #[test]
    fn corrupted_payload_is_crc_mismatch() {
        let mut buf = frame(b"some payload");
        let mid = MAGIC.len() + 2 + 8 + 3;
        buf[mid] ^= 0xFF;
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(matches!(err, StoreError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn corrupted_crc_trailer_is_crc_mismatch() {
        let mut buf = frame(b"some payload");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(matches!(err, StoreError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn bumped_version_with_fixed_crc_is_unsupported() {
        // Craft a structurally valid frame that claims a future version:
        // rebuild it by hand so the CRC is consistent with the bumped bytes.
        let payload = b"future state";
        let mut crc = Crc32::new();
        let mut buf = Vec::new();
        let future = (FORMAT_VERSION + 1).to_le_bytes();
        for part in
            [&MAGIC[..], &future[..], &(payload.len() as u64).to_le_bytes()[..], &payload[..]]
        {
            buf.extend_from_slice(part);
            crc.update(part);
        }
        buf.extend_from_slice(&crc.finish().to_le_bytes());
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::UnsupportedVersion { found, supported }
                    if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
            ),
            "{err}"
        );
    }

    #[test]
    fn bumped_version_without_crc_fix_is_corruption() {
        // Flipping only the version byte breaks the CRC: indistinguishable
        // from bit rot, and reported as such.
        let mut buf = frame(b"state");
        buf[8] = buf[8].wrapping_add(1);
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(matches!(err, StoreError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn snapshot_kinds_roundtrip() {
        for kind in [FrameKind::Full, FrameKind::Delta] {
            let mut buf = Vec::new();
            let written_crc = write_snapshot(&mut buf, kind, b"snapshot payload").expect("write");
            let snap = read_snapshot(&buf[..]).expect("read");
            assert_eq!(snap.kind, kind);
            assert_eq!(snap.payload(), b"snapshot payload");
            // Both directions hand back the CRC of the payload alone.
            assert_eq!(snap.payload_crc, crate::crc32::crc32(b"snapshot payload"));
            assert_eq!(written_crc, snap.payload_crc);
        }
    }

    #[test]
    fn snapshot_rejects_bad_kind_byte() {
        // A raw checkpoint frame whose first payload byte is no known tag.
        let err = read_snapshot(&frame(&[7u8, 1, 2])[..]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { what, .. } if what.contains("kind")), "{err}");
        // And one with no payload at all.
        let err = read_snapshot(&frame(b"")[..]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { what, .. } if what.contains("kind")), "{err}");
    }

    #[test]
    fn older_version_with_fixed_crc_is_unsupported() {
        // Version-1 frames predate the kind byte; reading one as the
        // current format would misparse, so it is rejected by version.
        let payload = b"v1 state";
        let mut crc = Crc32::new();
        let mut buf = Vec::new();
        let old = 1u16.to_le_bytes();
        for part in [&MAGIC[..], &old[..], &(payload.len() as u64).to_le_bytes()[..], &payload[..]]
        {
            buf.extend_from_slice(part);
            crc.update(part);
        }
        buf.extend_from_slice(&crc.finish().to_le_bytes());
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(
            matches!(err, StoreError::UnsupportedVersion { found: 1, supported }
                if supported == FORMAT_VERSION),
            "{err}"
        );
    }

    #[test]
    fn bad_magic_and_truncation() {
        let mut buf = frame(b"state");
        buf[0] = b'X';
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic(_)), "{err}");

        let buf = frame(b"state");
        let err = read_checkpoint(&buf[..buf.len() - 2]).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        let err = read_checkpoint(&buf[..4]).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
    }
}
