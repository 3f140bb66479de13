//! Append-only, fsync'd, checksummed JSONL journals.
//!
//! The durability layer under the engine's level checkpoints and the
//! `slltd` job journal; progress journals use the same sealed line
//! format ([`seal`]) and reader without the fsync. A journal is a plain
//! JSONL file where every line is one JSON object *sealed* with a
//! trailing `"crc"` member — the FNV-1a-64 checksum (hex) of the line's
//! encoding without that member. Because [`Value`]
//! objects preserve member order, stripping the final `crc` member and
//! re-encoding reproduces exactly the bytes that were checksummed.
//!
//! Write contract ([`DurableAppender`]): each record is written as one
//! `write` of `line + "\n"` followed by `File::sync_data`, so after a
//! crash the file is a sequence of intact records possibly followed by
//! **one** torn fragment. [`DurableAppender::append_all`] writes a whole
//! batch with one `write` + `sync_data`, for a snapshot file that is
//! renamed into place only once complete. The reader ([`read_journal`])
//! accepts exactly that shape: a final line that is unterminated,
//! unparseable, or fails its checksum is reported as a [`TornTail`] and
//! skipped; a bad record *followed by more records* is real corruption
//! and a hard error.
//!
//! [`Journal::valid_len`] is the byte length of the intact prefix; a
//! writer resuming after a crash truncates to it before appending, which
//! restores the invariant above.
//!
//! # Binary frames
//!
//! Large payloads (the engine's binary level checkpoints) would bloat by
//! a third under base64, so the journal also supports *binary frame*
//! records interleaved with JSONL lines. A frame starts with a `0x00`
//! marker byte — which can never open a JSON line — followed by a
//! little-endian `u32` payload length, the payload itself, the FNV-1a-64
//! checksum of the payload, and a terminating newline:
//!
//! ```text
//! 0x00 | len: u32 LE | payload (len bytes) | fnv1a64(payload): u64 LE | '\n'
//! ```
//!
//! Frames obey the same durability contract as lines: one `write` +
//! `fdatasync` per frame ([`DurableAppender::append_binary`]), a torn
//! final frame (truncated header, payload, or checksum) is reported and
//! skipped, and a bad frame followed by more data is a hard error.
//! [`Journal::frames`] returns payloads in file order, each tagged with
//! how many JSON records preceded it.

use crate::json::{parse, Value};
use crate::vfs::{RealFs, Vfs, VfsFile};
use std::fmt;
use std::fs::File;
use std::io::Read;
use std::path::Path;

/// FNV-1a 64-bit over `bytes` — the journal's record checksum. Stable,
/// dependency-free, and fast enough to never show up in a profile.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Seals `record` (must be an object without a `crc` member) into its
/// journal line: the object re-encoded with `"crc":"<16 hex>"` appended
/// as the final member. No trailing newline.
///
/// # Panics
///
/// Panics when `record` is not a JSON object (a programming error — the
/// journal schema is objects-only).
pub fn seal(record: &Value) -> String {
    let body = record.encode();
    let crc = fnv1a64(body.as_bytes());
    record.clone().with("crc", format!("{crc:016x}")).encode()
}

/// Verifies one sealed journal line: parses it, checks that the final
/// member is `crc`, and re-checksums the rest. Returns the record with
/// the `crc` member removed.
pub fn verify_line(line: &str) -> Result<Value, String> {
    let v = parse(line)?;
    let Value::Obj(mut members) = v else {
        return Err("journal record is not an object".to_string());
    };
    let Some((key, crc_v)) = members.pop() else {
        return Err("journal record is empty".to_string());
    };
    if key != "crc" {
        return Err(format!("journal record ends with {key:?}, not \"crc\""));
    }
    let Some(stored) = crc_v.as_str() else {
        return Err("crc member is not a string".to_string());
    };
    let body = Value::Obj(members);
    let want = format!("{:016x}", fnv1a64(body.encode().as_bytes()));
    if stored != want {
        return Err(format!("crc mismatch: stored {stored}, computed {want}"));
    }
    Ok(body)
}

/// Why a journal could not be read.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record that is *not* the final line failed verification — the
    /// file is corrupt beyond the single-torn-tail shape a crash leaves.
    Corrupt {
        /// 1-based line number of the bad record.
        line: usize,
        /// What was wrong with it.
        reason: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt { line, reason } => {
                write!(f, "journal corrupt at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// A torn final record, reported (not fatal) by [`read_journal`].
#[derive(Debug, Clone, PartialEq)]
pub struct TornTail {
    /// 1-based line number of the fragment.
    pub line: usize,
    /// Why it failed verification.
    pub reason: String,
}

/// One verified binary frame read back from a journal.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalFrame {
    /// How many JSON records preceded this frame in the file —
    /// interleaving position for readers that care about order.
    pub after_record: usize,
    /// The frame's payload, checksum already verified.
    pub payload: Vec<u8>,
}

/// A journal read back from disk.
#[derive(Debug)]
pub struct Journal {
    /// Every intact record, `crc` member stripped, in file order.
    pub records: Vec<Value>,
    /// Every intact binary frame, in file order.
    pub frames: Vec<JournalFrame>,
    /// The torn final fragment, when the file ends mid-record.
    pub torn_tail: Option<TornTail>,
    /// Byte length of the intact prefix — truncate to this before
    /// appending after a crash.
    pub valid_len: u64,
}

/// Marker byte opening a binary frame record (never opens a JSON line).
pub const FRAME_MARKER: u8 = 0x00;

/// Fixed overhead of a binary frame around its payload: marker (1) +
/// length (4) + checksum (8) + newline (1).
pub const FRAME_OVERHEAD: usize = 14;

/// Parses one binary frame starting at `bytes[0]` (the marker byte).
/// Returns the payload and the total bytes consumed. On failure the
/// error carries the frame's declared extent when the header was intact
/// (`None` = the file ends inside the frame), so the caller can decide
/// torn-tail vs corrupt the same way it does for lines.
fn parse_frame(bytes: &[u8]) -> Result<(Vec<u8>, usize), (String, Option<usize>)> {
    if bytes.len() < 5 {
        return Err(("truncated binary frame header".to_string(), None));
    }
    let len = u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]) as usize;
    let total = FRAME_OVERHEAD + len;
    if bytes.len() < total {
        return Err((
            format!(
                "truncated binary frame: need {total} bytes, have {}",
                bytes.len()
            ),
            None,
        ));
    }
    let payload = &bytes[5..5 + len];
    let stored = u64::from_le_bytes(bytes[5 + len..5 + len + 8].try_into().unwrap());
    let want = fnv1a64(payload);
    if stored != want {
        return Err((
            format!("binary frame checksum mismatch: stored {stored:016x}, computed {want:016x}"),
            Some(total),
        ));
    }
    if bytes[total - 1] != b'\n' {
        return Err((
            "binary frame is not newline-terminated".to_string(),
            Some(total),
        ));
    }
    Ok((payload.to_vec(), total))
}

/// Reads and verifies a journal file, tolerating one torn final record.
///
/// # Errors
///
/// [`JournalError::Io`] for filesystem failures and
/// [`JournalError::Corrupt`] when a *non-final* record fails
/// verification (a crash can only tear the tail).
pub fn read_journal(path: &Path) -> Result<Journal, JournalError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    read_journal_bytes(&bytes)
}

/// [`read_journal`] over in-memory bytes (the file's full contents).
///
/// # Errors
///
/// See [`read_journal`].
pub fn read_journal_bytes(bytes: &[u8]) -> Result<Journal, JournalError> {
    let mut records = Vec::new();
    let mut frames = Vec::new();
    let mut valid_len = 0u64;
    let mut at = 0usize;
    let mut line_no = 0usize;
    while at < bytes.len() {
        line_no += 1;
        // Binary frame records open with the marker byte; everything
        // else is a newline-terminated sealed JSON line.
        if bytes[at] == FRAME_MARKER {
            match parse_frame(&bytes[at..]) {
                Ok((payload, consumed)) => {
                    frames.push(JournalFrame {
                        after_record: records.len(),
                        payload,
                    });
                    at += consumed;
                    valid_len = at as u64;
                    continue;
                }
                Err((reason, extent)) => {
                    // A frame whose declared extent fits the file but
                    // fails verification, with more data after it, is
                    // corruption; anything reaching the end of the file
                    // is the single torn tail a crash leaves.
                    let after = extent.map_or(bytes.len(), |t| at + t);
                    if bytes[after..].iter().any(|&b| !b.is_ascii_whitespace()) {
                        return Err(JournalError::Corrupt {
                            line: line_no,
                            reason,
                        });
                    }
                    return Ok(Journal {
                        records,
                        frames,
                        torn_tail: Some(TornTail {
                            line: line_no,
                            reason,
                        }),
                        valid_len,
                    });
                }
            }
        }
        let nl = bytes[at..].iter().position(|&b| b == b'\n');
        let (line_bytes, terminated, next) = match nl {
            Some(off) => (&bytes[at..at + off], true, at + off + 1),
            None => (&bytes[at..], false, bytes.len()),
        };
        let verdict: Result<Value, String> = if !terminated {
            Err("record is not newline-terminated".to_string())
        } else {
            std::str::from_utf8(line_bytes)
                .map_err(|_| "record is not valid UTF-8".to_string())
                .and_then(verify_line)
        };
        match verdict {
            Ok(v) => {
                records.push(v);
                valid_len = next as u64;
            }
            Err(reason) => {
                // Tolerable only as the very last thing in the file.
                if bytes[next..].iter().any(|&b| !b.is_ascii_whitespace()) {
                    return Err(JournalError::Corrupt {
                        line: line_no,
                        reason,
                    });
                }
                return Ok(Journal {
                    records,
                    frames,
                    torn_tail: Some(TornTail {
                        line: line_no,
                        reason,
                    }),
                    valid_len,
                });
            }
        }
        at = next;
    }
    Ok(Journal {
        records,
        frames,
        torn_tail: None,
        valid_len,
    })
}

/// Appends sealed records to a journal file, fsyncing after every
/// record so a committed record survives any later crash.
///
/// All file operations go through a [`Vfs`]: the plain constructors use
/// the real filesystem, and the `_with` variants accept any seam — in
/// particular a [`FaultFs`](crate::vfs::FaultFs), which is how every
/// durable path in the workspace gets storage-fault coverage.
#[derive(Debug)]
pub struct DurableAppender {
    file: Box<dyn VfsFile>,
}

impl DurableAppender {
    /// Creates (or truncates) the journal at `path`.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path) -> std::io::Result<DurableAppender> {
        Self::create_with(&RealFs, path)
    }

    /// [`create`](Self::create) through an explicit filesystem seam.
    ///
    /// # Errors
    ///
    /// Propagates filesystem (or injected) errors.
    pub fn create_with(vfs: &dyn Vfs, path: &Path) -> std::io::Result<DurableAppender> {
        Ok(DurableAppender {
            file: vfs.create(path)?,
        })
    }

    /// Reopens an existing journal for appending, first truncating it to
    /// `valid_len` (from [`Journal::valid_len`]) to drop a torn tail.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn reopen(path: &Path, valid_len: u64) -> std::io::Result<DurableAppender> {
        Self::reopen_with(&RealFs, path, valid_len)
    }

    /// [`reopen`](Self::reopen) through an explicit filesystem seam.
    ///
    /// # Errors
    ///
    /// Propagates filesystem (or injected) errors.
    pub fn reopen_with(
        vfs: &dyn Vfs,
        path: &Path,
        valid_len: u64,
    ) -> std::io::Result<DurableAppender> {
        let mut file = vfs.open_rw(path)?;
        file.set_len(valid_len)?;
        file.seek_end()?;
        Ok(DurableAppender { file })
    }

    /// Seals `record`, writes it as one line, and fsyncs. After this
    /// returns, the record is durable.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error the record may be torn on
    /// disk, which the reader tolerates.
    pub fn append(&mut self, record: &Value) -> std::io::Result<()> {
        self.append_all(std::slice::from_ref(record))
    }

    /// Seals every record and writes them all with one `write` and one
    /// fsync — the same bytes as one [`append`](Self::append) per
    /// record, for a snapshot that only goes live once it is complete
    /// (temp file, then rename). After this returns, all records are
    /// durable.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; on error any suffix of the batch
    /// may be missing or torn on disk.
    pub fn append_all(&mut self, records: &[Value]) -> std::io::Result<()> {
        let mut buf = String::new();
        for record in records {
            buf.push_str(&seal(record));
            buf.push('\n');
        }
        self.file.write_all(buf.as_bytes())?;
        self.file.sync_data()
    }

    /// Frames `payload` as one binary record (marker, length, payload,
    /// checksum, newline), writes it as a single `write`, and fsyncs.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; `InvalidInput` when the payload
    /// exceeds the `u32` frame length.
    pub fn append_binary(&mut self, payload: &[u8]) -> std::io::Result<()> {
        let len = u32::try_from(payload.len()).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "binary frame payload exceeds u32 length",
            )
        })?;
        let mut frame = Vec::with_capacity(FRAME_OVERHEAD + payload.len());
        frame.push(FRAME_MARKER);
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(payload);
        frame.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        frame.push(b'\n');
        self.file.write_all(&frame)?;
        self.file.sync_data()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> Value {
        Value::obj().with("type", "t").with("i", i).with("x", 0.125)
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn seal_verify_round_trips() {
        let r = rec(7);
        let line = seal(&r);
        assert!(line.contains("\"crc\":\""));
        assert_eq!(verify_line(&line).unwrap(), r);
    }

    #[test]
    fn verify_rejects_tampering() {
        let line = seal(&rec(7));
        let tampered = line.replace("\"i\":7", "\"i\":8");
        assert!(verify_line(&tampered).unwrap_err().contains("crc mismatch"));
        assert!(verify_line("{\"no\":\"crc\"}").is_err());
        assert!(verify_line("not json").is_err());
    }

    #[test]
    fn journal_reads_back_what_was_appended() {
        let path = std::env::temp_dir().join(format!("sllt_journal_rt_{}", std::process::id()));
        let mut app = DurableAppender::create(&path).unwrap();
        for i in 0..4 {
            app.append(&rec(i)).unwrap();
        }
        drop(app);
        let j = read_journal(&path).unwrap();
        assert_eq!(j.records.len(), 4);
        assert!(j.torn_tail.is_none());
        assert_eq!(j.valid_len, std::fs::metadata(&path).unwrap().len());
        assert_eq!(j.records[2], rec(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_skipped_and_reported_at_every_cut() {
        let mut bytes = Vec::new();
        for i in 0..3 {
            bytes.extend_from_slice(seal(&rec(i)).as_bytes());
            bytes.push(b'\n');
        }
        let full = bytes.len();
        let boundaries: Vec<usize> = {
            let mut b = vec![0];
            b.extend(
                bytes
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c == b'\n')
                    .map(|(i, _)| i + 1),
            );
            b
        };
        // Every prefix of the file parses: whole records survive, the
        // torn fragment (if any) is reported, never fatal.
        for cut in 0..=full {
            let j = read_journal_bytes(&bytes[..cut]).unwrap();
            let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(j.records.len(), whole, "cut at {cut}");
            let at_boundary = boundaries.contains(&cut);
            assert_eq!(j.torn_tail.is_none(), at_boundary, "cut at {cut}");
            assert_eq!(j.valid_len as usize, boundaries[whole], "cut at {cut}");
        }
    }

    #[test]
    fn mid_file_corruption_is_fatal() {
        let mut text = String::new();
        for i in 0..3 {
            text.push_str(&seal(&rec(i)));
            text.push('\n');
        }
        let corrupted = text.replacen("\"i\":1", "\"i\":9", 1);
        let err = read_journal_bytes(corrupted.as_bytes()).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn binary_frames_interleave_with_lines_and_round_trip() {
        let path = std::env::temp_dir().join(format!("sllt_journal_bf_{}", std::process::id()));
        let mut app = DurableAppender::create(&path).unwrap();
        app.append(&rec(0)).unwrap();
        // Payload with newlines, marker bytes, and all byte values.
        let p1: Vec<u8> = (0..=255u8).cycle().take(700).collect();
        app.append_binary(&p1).unwrap();
        app.append(&rec(1)).unwrap();
        let p2 = b"\n\x00tiny\n".to_vec();
        app.append_binary(&p2).unwrap();
        drop(app);
        let j = read_journal(&path).unwrap();
        assert_eq!(j.records.len(), 2);
        assert_eq!(j.frames.len(), 2);
        assert_eq!(j.frames[0].after_record, 1);
        assert_eq!(j.frames[0].payload, p1);
        assert_eq!(j.frames[1].after_record, 2);
        assert_eq!(j.frames[1].payload, p2);
        assert!(j.torn_tail.is_none());
        assert_eq!(j.valid_len, std::fs::metadata(&path).unwrap().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_binary_frame_is_skipped_at_every_cut() {
        let path = std::env::temp_dir().join(format!("sllt_journal_bt_{}", std::process::id()));
        let mut app = DurableAppender::create(&path).unwrap();
        app.append(&rec(0)).unwrap();
        let payload: Vec<u8> = (0..300u32).map(|i| (i % 251) as u8).collect();
        app.append_binary(&payload).unwrap();
        drop(app);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let frame_start = bytes.len() - (FRAME_OVERHEAD + payload.len());
        // Any cut inside the frame (including mid-header and mid-checksum)
        // drops it as a torn tail, keeping the JSON record before it.
        for cut in frame_start + 1..bytes.len() {
            let j = read_journal_bytes(&bytes[..cut]).unwrap();
            assert_eq!(j.records.len(), 1, "cut at {cut}");
            assert!(j.frames.is_empty(), "cut at {cut}");
            assert!(j.torn_tail.is_some(), "cut at {cut}");
            assert_eq!(j.valid_len as usize, frame_start, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_interior_frame_is_fatal() {
        let path = std::env::temp_dir().join(format!("sllt_journal_bc_{}", std::process::id()));
        let mut app = DurableAppender::create(&path).unwrap();
        app.append_binary(b"payload bytes here").unwrap();
        app.append(&rec(0)).unwrap();
        drop(app);
        let mut bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes[7] ^= 0x40; // flip a payload bit in the (non-final) frame
        let err = read_journal_bytes(&bytes).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 1, .. }),
            "{err}"
        );
        // The same flip with nothing after the frame is a torn tail.
        let frame_len = FRAME_OVERHEAD + b"payload bytes here".len();
        let j = read_journal_bytes(&bytes[..frame_len]).unwrap();
        assert!(j.torn_tail.is_some());
        assert_eq!(j.valid_len, 0);
    }

    #[test]
    fn reopen_truncates_the_torn_tail() {
        let path = std::env::temp_dir().join(format!("sllt_journal_tt_{}", std::process::id()));
        let mut app = DurableAppender::create(&path).unwrap();
        app.append(&rec(0)).unwrap();
        app.append(&rec(1)).unwrap();
        drop(app);
        // Simulate a crash mid-write: chop the last record in half.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();
        let j = read_journal(&path).unwrap();
        assert_eq!(j.records.len(), 1);
        assert!(j.torn_tail.is_some());
        let mut app = DurableAppender::reopen(&path, j.valid_len).unwrap();
        app.append(&rec(2)).unwrap();
        drop(app);
        let j = read_journal(&path).unwrap();
        assert!(j.torn_tail.is_none());
        assert_eq!(j.records.len(), 2);
        assert_eq!(j.records[1], rec(2));
        std::fs::remove_file(&path).ok();
    }
}
