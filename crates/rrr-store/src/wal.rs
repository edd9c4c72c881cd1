//! Append-only write-ahead log.
//!
//! Record framing: `[len u32][crc u32][payload len bytes]`, where the CRC
//! covers only the payload and is taken once, over the finished record
//! (the [`crate::wire::Encoder`] that laid the payload out keeps no
//! checksum of its own). Appends are flushed per record, so after a
//! crash the log contains a prefix of whole records plus at most one torn
//! record at the tail.
//!
//! Read semantics distinguish the two ways a log can end:
//!
//! - clean EOF at a record boundary, or a *torn tail* (partial header or
//!   short payload): normal — iteration ends, because that is exactly the
//!   crash the WAL exists to survive;
//! - a complete record whose CRC does not match: data corruption — a typed
//!   error, because silently dropping a mid-log record would desynchronize
//!   the restored state from the checkpoint's successor stream.

use crate::crc32::crc32;
use crate::error::StoreError;
use std::fs::File;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::path::Path;

/// Observability handles for one WAL writer: frames and bytes appended, and
/// flushes issued. Defaults to no-ops; install real handles with
/// [`WalWriter::set_obs`]. Counters survive writer recreation (truncation)
/// when the same handles are re-installed, so totals are per-log-lifetime,
/// not per-file.
#[derive(Clone, Default)]
pub struct WalObs {
    pub frames: rrr_obs::Counter,
    pub bytes: rrr_obs::Counter,
    pub flushes: rrr_obs::Counter,
}

/// Appends length+CRC framed records to a byte sink.
pub struct WalWriter<W: Write> {
    w: W,
    obs: WalObs,
}

impl<W: Write> WalWriter<W> {
    pub fn new(w: W) -> Self {
        WalWriter { w, obs: WalObs::default() }
    }

    /// Installs metric handles; pass `WalObs::default()` to disable.
    pub fn set_obs(&mut self, obs: WalObs) {
        self.obs = obs;
    }

    /// Appends one record and flushes it to the sink.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let len = u32::try_from(payload.len()).map_err(|_| StoreError::Corrupt {
            offset: 0,
            what: "wal record exceeds u32 length",
        })?;
        self.w.write_all(&len.to_le_bytes())?;
        self.w.write_all(&crc32(payload).to_le_bytes())?;
        self.w.write_all(payload)?;
        self.w.flush()?;
        self.obs.frames.inc();
        self.obs.bytes.add(8 + payload.len() as u64);
        self.obs.flushes.inc();
        Ok(())
    }

    /// Consumes the writer, returning the underlying sink.
    pub fn into_inner(self) -> W {
        self.w
    }
}

/// Streaming reader over a WAL byte source.
pub struct WalReader<R: Read> {
    r: R,
    offset: usize,
    done: bool,
}

/// Byte source of an on-disk log: a real file, or nothing at all when the
/// log file does not exist (a clean empty log, not an error).
pub enum LogSource {
    File(BufReader<File>),
    Absent,
}

impl Read for LogSource {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            LogSource::File(f) => f.read(buf),
            LogSource::Absent => Ok(0),
        }
    }
}

impl WalReader<LogSource> {
    /// Opens an on-disk log for reading. A missing or zero-length file is a
    /// *clean empty log* — the state a fresh durable directory (or one that
    /// crashed before the first append) legitimately leaves behind — so both
    /// yield a reader whose iteration ends immediately rather than any
    /// error. Every other open failure (permissions, I/O) is reported as
    /// [`StoreError::Io`]; callers must not conflate "cannot read the log"
    /// with "the log is empty".
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        match File::open(path.as_ref()) {
            Ok(f) => Ok(WalReader::new(LogSource::File(BufReader::new(f)))),
            Err(e) if e.kind() == ErrorKind::NotFound => Ok(WalReader::new(LogSource::Absent)),
            Err(e) => Err(e.into()),
        }
    }
}

impl<R: Read> WalReader<R> {
    pub fn new(r: R) -> Self {
        WalReader { r, offset: 0, done: false }
    }

    /// Next record payload; `Ok(None)` on clean EOF *or* a torn tail.
    pub fn next_record(&mut self) -> Result<Option<Vec<u8>>, StoreError> {
        if self.done {
            return Ok(None);
        }
        let mut header = [0u8; 8];
        match read_exact_or_eof(&mut self.r, &mut header)? {
            Fill::Empty => {
                self.done = true;
                return Ok(None);
            }
            Fill::Partial => {
                // Torn header at the tail: the append was interrupted.
                self.done = true;
                return Ok(None);
            }
            Fill::Full => {}
        }
        let len = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
        let stored = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        // The buffer grows with the bytes really there (its doublings copy
        // under twice the record): a length field rotted to 4 GiB ends as
        // a torn tail instead of a 4 GiB request.
        let mut payload = Vec::new();
        self.r.by_ref().take(len as u64).read_to_end(&mut payload)?;
        if payload.len() != len {
            // Torn payload at the tail.
            self.done = true;
            return Ok(None);
        }
        let computed = crc32(&payload);
        if stored != computed {
            self.done = true;
            return Err(StoreError::CrcMismatch { stored, computed });
        }
        self.offset += 8 + len;
        Ok(Some(payload))
    }

    /// Collects every whole record.
    pub fn read_all(mut self) -> Result<Vec<Vec<u8>>, StoreError> {
        let mut out = Vec::new();
        while let Some(rec) = self.next_record()? {
            out.push(rec);
        }
        Ok(out)
    }
}

enum Fill {
    Full,
    Partial,
    Empty,
}

/// Fills `buf` from `r`, reporting whether it got everything, nothing, or
/// hit EOF partway through (the torn-record case).
fn read_exact_or_eof<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<Fill, StoreError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 { Fill::Empty } else { Fill::Partial });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(Fill::Full)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_of(records: &[&[u8]]) -> Vec<u8> {
        let mut w = WalWriter::new(Vec::new());
        for r in records {
            w.append(r).expect("append");
        }
        w.into_inner()
    }

    #[test]
    fn roundtrip_records() {
        let log = log_of(&[b"first", b"", b"third record"]);
        let got = WalReader::new(&log[..]).read_all().expect("read");
        assert_eq!(got, vec![b"first".to_vec(), b"".to_vec(), b"third record".to_vec()]);
    }

    #[test]
    fn empty_log_is_empty() {
        assert!(WalReader::new(&[][..]).read_all().expect("read").is_empty());
    }

    #[test]
    fn torn_tail_is_tolerated() {
        let log = log_of(&[b"alpha", b"beta"]);
        // Cut mid-way through the second record's payload...
        let torn = &log[..log.len() - 2];
        let got = WalReader::new(torn).read_all().expect("read");
        assert_eq!(got, vec![b"alpha".to_vec()]);
        // ...and mid-way through its header.
        let torn = &log[..(8 + 5) + 3];
        let got = WalReader::new(torn).read_all().expect("read");
        assert_eq!(got, vec![b"alpha".to_vec()]);
    }

    #[test]
    fn open_zero_length_file_is_clean_empty_log() {
        let dir = std::env::temp_dir().join(format!("rrr-wal-open-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("empty.log");
        std::fs::write(&path, b"").expect("create zero-length file");
        // A zero-length log must read as empty, not Corrupt or Io.
        let got = WalReader::open(&path).expect("open").read_all().expect("read");
        assert!(got.is_empty(), "zero-length log yielded records: {got:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_missing_file_is_clean_empty_log() {
        let path = std::env::temp_dir()
            .join(format!("rrr-wal-nonexistent-{}", std::process::id()))
            .join("never-created.log");
        let got = WalReader::open(&path).expect("open").read_all().expect("read");
        assert!(got.is_empty());
    }

    #[test]
    fn open_reads_real_records_and_reports_mid_log_corruption() {
        let dir = std::env::temp_dir().join(format!("rrr-wal-open-read-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmp dir");
        let path = dir.join("wal.log");
        let log = log_of(&[b"alpha", b"beta"]);
        std::fs::write(&path, &log).expect("write log");
        let got = WalReader::open(&path).expect("open").read_all().expect("read");
        assert_eq!(got, vec![b"alpha".to_vec(), b"beta".to_vec()]);

        let mut corrupt = log;
        corrupt[8] ^= 0x01;
        std::fs::write(&path, &corrupt).expect("write log");
        let err = WalReader::open(&path).expect("open").read_all().unwrap_err();
        assert!(matches!(err, StoreError::CrcMismatch { .. }), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mid_log_corruption_is_error() {
        let mut log = log_of(&[b"alpha", b"beta"]);
        // Flip a byte inside the *first* record's payload: a complete
        // record with a bad CRC, which must not be silently skipped.
        log[8] ^= 0x40;
        let mut r = WalReader::new(&log[..]);
        let err = r.next_record().unwrap_err();
        assert!(matches!(err, StoreError::CrcMismatch { .. }), "{err}");
        // The reader latches: no records are produced after corruption.
        assert!(r.next_record().expect("latched").is_none());
    }
}
