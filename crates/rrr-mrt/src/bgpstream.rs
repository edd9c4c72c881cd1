//! A BGPStream-like consumption layer: stream MRT records from any
//! `io::Read`, write them to any `io::Write`, and iterate decoded
//! [`BgpUpdate`]s filtered by prefix and time window — the shape of the
//! paper's §4.1.1 ingestion ("we use BGPStream to stream updates ... and
//! monitor for updates in the VP's route to the prefix").

use crate::bgp::BgpMessage;
use crate::mrt::MrtRecord;
use crate::stream::{record_to_updates, VpDirectory};
use crate::wire::Error;
use rrr_types::{Asn, BgpElem, BgpUpdate, Ipv4, Prefix, Timestamp};
use std::collections::VecDeque;
use std::io::{self, Read, Write};

/// Writes MRT records to an underlying `io::Write` (file, socket, …).
pub struct MrtFileWriter<W: Write> {
    inner: W,
    buf: Vec<u8>,
    records: u64,
}

impl<W: Write> MrtFileWriter<W> {
    pub fn new(inner: W) -> Self {
        MrtFileWriter { inner, buf: Vec::with_capacity(4096), records: 0 }
    }

    /// Appends one record.
    pub fn write_record(&mut self, r: &MrtRecord) -> io::Result<()> {
        self.buf.clear();
        r.encode(&mut self.buf);
        self.inner.write_all(&self.buf)?;
        self.records += 1;
        Ok(())
    }

    /// Encodes one simulator update as a BGP4MP record.
    pub fn write_update(&mut self, dir: &VpDirectory, u: &BgpUpdate) -> io::Result<()> {
        let (peer_ip, peer_as) = dir.peer_of(u.vp);
        let msg = match &u.elem {
            BgpElem::Announce { path, communities } => {
                BgpMessage::announce(vec![u.prefix], path.clone(), peer_ip, communities.clone())
            }
            BgpElem::Withdraw => BgpMessage::withdraw(vec![u.prefix]),
        };
        self.write_record(&MrtRecord::Bgp4mp {
            time: u.time.as_secs() as u32,
            peer_as,
            local_as: Asn(64_512),
            peer_ip,
            local_ip: Ipv4::new(172, 16, 255, 254),
            msg,
        })
    }

    /// Records written so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flushes and returns the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Incrementally reads MRT records from an `io::Read`, without loading the
/// whole dump into memory: reads the 12-byte common header, then exactly
/// the record body.
pub struct MrtFileReader<R: Read> {
    inner: R,
    scratch: Vec<u8>,
}

/// Errors surfaced by the streaming reader.
#[derive(Debug)]
pub enum StreamError {
    Io(io::Error),
    Parse(Error),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "io error: {e}"),
            StreamError::Parse(e) => write!(f, "parse error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl<R: Read> MrtFileReader<R> {
    pub fn new(inner: R) -> Self {
        MrtFileReader { inner, scratch: Vec::with_capacity(4096) }
    }

    /// Reads the next record; `Ok(None)` at clean EOF.
    pub fn next_record(&mut self) -> std::result::Result<Option<MrtRecord>, StreamError> {
        let mut header = [0u8; 12];
        // Clean EOF only at a record boundary.
        match self.inner.read(&mut header) {
            Ok(0) => return Ok(None),
            Ok(n) => {
                self.inner.read_exact(&mut header[n..]).map_err(StreamError::Io)?;
            }
            Err(e) => return Err(StreamError::Io(e)),
        }
        let len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]);
        self.scratch.clear();
        self.scratch.extend_from_slice(&header);
        // The length is the wire's claim: grow by the bytes that arrive,
        // never by the number declared.
        let got = (&mut self.inner)
            .take(u64::from(len))
            .read_to_end(&mut self.scratch)
            .map_err(StreamError::Io)?;
        if got < len as usize {
            return Err(StreamError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
        let mut slice = &self.scratch[..];
        MrtRecord::parse(&mut slice).map(Some).map_err(StreamError::Parse)
    }
}

impl<R: Read> Iterator for MrtFileReader<R> {
    type Item = std::result::Result<MrtRecord, StreamError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// Filter for [`UpdateStream`]: time window and destination scoping, like a
/// BGPStream `filter` expression.
#[derive(Debug, Clone, Default)]
pub struct StreamFilter {
    /// Only updates at or after this instant.
    pub from: Option<Timestamp>,
    /// Only updates strictly before this instant.
    pub until: Option<Timestamp>,
    /// Only updates whose prefix covers one of these addresses (the
    /// monitored destinations of §4.1.1). Empty = no destination filter.
    pub destinations: Vec<Ipv4>,
    /// Or: only these exact prefixes. Empty = no prefix filter.
    pub prefixes: Vec<Prefix>,
}

impl StreamFilter {
    fn accepts(&self, u: &BgpUpdate) -> bool {
        if let Some(f) = self.from {
            if u.time < f {
                return false;
            }
        }
        if let Some(t) = self.until {
            if u.time >= t {
                return false;
            }
        }
        // No scoping configured → accept everything; otherwise accept when
        // any configured scope matches (destination containment OR exact
        // prefix), mirroring BGPStream's additive filter terms.
        if self.destinations.is_empty() && self.prefixes.is_empty() {
            return true;
        }
        let dest_hit = self.destinations.iter().any(|d| u.prefix.contains(*d));
        let pfx_hit = self.prefixes.contains(&u.prefix);
        dest_hit || pfx_hit
    }
}

/// Iterates decoded, filtered updates out of an MRT byte source.
pub struct UpdateStream<R: Read> {
    reader: MrtFileReader<R>,
    dir: VpDirectory,
    filter: StreamFilter,
    pending: VecDeque<BgpUpdate>,
    /// Parse/IO errors encountered (the stream skips unknown record types
    /// but stops on hard errors).
    pub finished_with: Option<StreamError>,
}

impl<R: Read> UpdateStream<R> {
    pub fn new(inner: R, dir: VpDirectory, filter: StreamFilter) -> Self {
        UpdateStream {
            reader: MrtFileReader::new(inner),
            dir,
            filter,
            pending: VecDeque::new(),
            finished_with: None,
        }
    }

    /// Decodes one more record's worth of updates into `pending`. Returns
    /// `false` at end of stream (clean EOF or hard error).
    fn refill(&mut self) -> bool {
        loop {
            match self.reader.next_record() {
                Ok(Some(rec)) => {
                    record_to_updates(&self.dir, rec, |u| {
                        if self.filter.accepts(&u) {
                            self.pending.push_back(u);
                        }
                    });
                    return true;
                }
                Ok(None) => return false,
                // Unsupported record types are tolerated (real dumps mix
                // types); other errors end the stream.
                Err(StreamError::Parse(Error::Unsupported(..))) => continue,
                Err(e) => {
                    self.finished_with = Some(e);
                    return false;
                }
            }
        }
    }
}

impl<R: Read> Iterator for UpdateStream<R> {
    type Item = BgpUpdate;

    fn next(&mut self) -> Option<BgpUpdate> {
        loop {
            if let Some(u) = self.pending.pop_front() {
                return Some(u);
            }
            if !self.refill() {
                return None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrr_types::{AsPath, VpId};

    fn dir() -> VpDirectory {
        let mut d = VpDirectory::default();
        d.register(VpId(0), Asn(100));
        d.register(VpId(1), Asn(200));
        d
    }

    fn update(vp: u32, prefix: &str, t: u64) -> BgpUpdate {
        BgpUpdate {
            time: Timestamp(t),
            vp: VpId(vp),
            prefix: prefix.parse().expect("prefix"),
            elem: BgpElem::Announce {
                path: AsPath::from_asns([100 + vp, 300]),
                communities: vec![],
            },
        }
    }

    fn dump(updates: &[BgpUpdate]) -> Vec<u8> {
        let d = dir();
        let mut w = MrtFileWriter::new(Vec::new());
        for u in updates {
            w.write_update(&d, u).expect("in-memory write");
        }
        assert_eq!(w.records_written(), updates.len() as u64);
        w.finish().expect("flush")
    }

    #[test]
    fn file_roundtrip_via_io_traits() {
        let updates = vec![
            update(0, "10.0.0.0/16", 100),
            update(1, "10.1.0.0/16", 200),
            update(0, "10.2.0.0/16", 300),
        ];
        let bytes = dump(&updates);
        let got: Vec<BgpUpdate> =
            UpdateStream::new(&bytes[..], dir(), StreamFilter::default()).collect();
        assert_eq!(got, updates);
    }

    #[test]
    fn time_window_filter() {
        let updates = vec![
            update(0, "10.0.0.0/16", 100),
            update(0, "10.0.0.0/16", 200),
            update(0, "10.0.0.0/16", 300),
        ];
        let bytes = dump(&updates);
        let filter = StreamFilter {
            from: Some(Timestamp(150)),
            until: Some(Timestamp(300)),
            ..Default::default()
        };
        let got: Vec<BgpUpdate> = UpdateStream::new(&bytes[..], dir(), filter).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].time, Timestamp(200));
    }

    #[test]
    fn destination_filter_uses_prefix_containment() {
        let updates = vec![update(0, "10.0.0.0/16", 100), update(0, "10.1.0.0/16", 100)];
        let bytes = dump(&updates);
        let filter = StreamFilter {
            destinations: vec!["10.1.2.3".parse().expect("ip")],
            ..Default::default()
        };
        let got: Vec<BgpUpdate> = UpdateStream::new(&bytes[..], dir(), filter).collect();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].prefix, "10.1.0.0/16".parse().expect("prefix"));
    }

    #[test]
    fn truncated_stream_reports_error() {
        let updates = vec![update(0, "10.0.0.0/16", 100)];
        let bytes = dump(&updates);
        let cut = &bytes[..bytes.len() - 3];
        let mut s = UpdateStream::new(cut, dir(), StreamFilter::default());
        assert!(s.next().is_none());
        assert!(s.finished_with.is_some());
    }

    #[test]
    fn oversized_length_claim_allocates_only_what_arrives() {
        let mut bytes = vec![0u8; 8];
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        bytes.extend_from_slice(&[1, 2, 3]);
        let mut r = MrtFileReader::new(&bytes[..]);
        match r.next_record() {
            Err(StreamError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected an UnexpectedEof io error, got {other:?}"),
        }
        assert_eq!(r.scratch.len(), bytes.len());
        assert!(r.scratch.capacity() <= 4096, "capacity {}", r.scratch.capacity());
    }

    #[test]
    fn reader_stops_cleanly_at_eof() {
        let mut r = MrtFileReader::new(&[][..]);
        assert!(r.next_record().expect("clean eof").is_none());
    }
}
