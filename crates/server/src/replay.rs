//! Wire-traffic record and replay.
//!
//! A server started with a recorder (the `--record FILE` flag of
//! `nonrec-serve`, or [`crate::ServerConfig::record`] directly) appends
//! every request line it dispatches to a **capture file**, stamped with the
//! arrival offset relative to server start.  A capture can then be replayed
//! deterministically — against a fresh server, a router, or the original
//! process — by [`replay`] or the `nonrec-replay` bin.
//!
//! # Capture file format (version 1)
//!
//! Line-delimited text.  The first line is the exact header
//! `nonrec-capture v1`; every following line is one record:
//!
//! ```text
//! <offset_micros>\t<raw request line>
//! ```
//!
//! `offset_micros` is a decimal `u64` (microseconds since the capture
//! started) and the raw request line is stored byte-for-byte as received —
//! invalid JSON and all, because a faithful replay must re-present exactly
//! the traffic the server saw.  The split is on the *first* tab only, so a
//! request line containing tabs (legal JSON whitespace) round-trips.
//!
//! # Determinism
//!
//! Responses embed wall-clock `micros` fields, so replaying a capture is
//! *not* byte-deterministic in general.  It **is** byte-deterministic for
//! streams of memoisable decision verbs replayed against one warm server:
//! the first replay populates the text-level memo layers, and the second
//! replay's request lines are answered from the line memo — stored bytes,
//! stored `micros` and all.  `tests/server_soak.rs` pins
//! exactly that property, and that a replay through a router answers with
//! the same bytes; [`response_digest`] is the order-insensitive
//! fingerprint it and the `nonrec-replay` bin compare.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// First line of every version-1 capture file.
pub const CAPTURE_HEADER: &str = "nonrec-capture v1";

/// One recorded request: its arrival offset and the raw line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Microseconds since the capture started.
    pub offset_micros: u64,
    /// The raw request line, byte-for-byte as received (no newline).
    pub line: String,
}

/// Serialise records to a version-1 capture.
pub fn write_capture(mut out: impl Write, records: &[CaptureRecord]) -> std::io::Result<()> {
    writeln!(out, "{CAPTURE_HEADER}")?;
    for record in records {
        writeln!(out, "{}\t{}", record.offset_micros, record.line)?;
    }
    out.flush()
}

/// Parse a version-1 capture.  Rejects a missing/unknown header and any
/// malformed record line — a truncated capture must fail loudly, not replay
/// a silently shortened stream.
pub fn read_capture(input: impl BufRead) -> std::io::Result<Vec<CaptureRecord>> {
    let bad = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    // Split on `\n` alone: a request line keeps a trailing `\r` its client
    // framed it with, which `BufRead::lines` would strip.
    let mut lines = input
        .split(b'\n')
        .map(|line| String::from_utf8(line?).map_err(|_| bad("capture is not UTF-8".to_string())));
    match lines.next() {
        Some(header) => {
            if header? != CAPTURE_HEADER {
                return Err(bad(format!("capture header is not `{CAPTURE_HEADER}`")));
            }
        }
        None => return Err(bad("empty capture file".to_string())),
    }
    let mut records = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        let (offset, rest) = line
            .split_once('\t')
            .ok_or_else(|| bad(format!("record {} has no tab separator", i + 1)))?;
        let offset_micros = offset
            .parse()
            .map_err(|_| bad(format!("record {} has a bad offset `{offset}`", i + 1)))?;
        records.push(CaptureRecord {
            offset_micros,
            line: rest.to_string(),
        });
    }
    Ok(records)
}

/// Read a capture from a file path.
pub fn load_capture(path: impl AsRef<Path>) -> std::io::Result<Vec<CaptureRecord>> {
    read_capture(std::io::BufReader::new(std::fs::File::open(path)?))
}

/// The live recording half: stamps each dispatched request line with its
/// offset since construction and appends it to the capture file.
///
/// Shared across connection threads behind one mutex — captures are written
/// once per request line, and the per-line cost is a formatted append to a
/// buffered file, far below the cost of the decision it records.
pub struct Recorder {
    start: Instant,
    writer: Mutex<BufWriter<std::fs::File>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Recorder {
    /// Create the capture file (truncating any existing one) and write the
    /// version header.
    pub fn create(path: impl AsRef<Path>) -> std::io::Result<Recorder> {
        let mut writer = BufWriter::new(std::fs::File::create(path)?);
        writeln!(writer, "{CAPTURE_HEADER}")?;
        writer.flush()?;
        Ok(Recorder {
            start: Instant::now(),
            writer: Mutex::new(writer),
        })
    }

    /// Append one request line at the current offset.  Best-effort: a full
    /// disk must degrade the capture, never the serving path.
    pub fn record(&self, line: &str) {
        let offset = self.start.elapsed().as_micros().min(u64::MAX as u128) as u64;
        let mut writer = self
            .writer
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if writeln!(writer, "{offset}\t{line}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            eprintln!("warning: capture record dropped (write failed)");
        }
    }
}

/// Replay a capture against a live server or router, pipelined: a writer
/// thread streams the request lines (honouring recorded inter-arrival gaps
/// when `pace` is set, else as fast as the socket accepts) while this
/// thread drains exactly one response line per record.  Responses are
/// returned in **completion order**, which for pipelined decisions is not
/// arrival order — correlate by id, or compare order-insensitively via
/// [`response_digest`].
pub fn replay(
    addr: impl std::net::ToSocketAddrs,
    records: &[CaptureRecord],
    pace: bool,
) -> std::io::Result<Vec<String>> {
    let mut client = crate::client::Client::connect(addr)?;
    let stream = client.writer_clone()?;
    let result = std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> std::io::Result<()> {
            let mut stream = BufWriter::new(stream);
            let start = Instant::now();
            for record in records {
                if pace {
                    let due = std::time::Duration::from_micros(record.offset_micros);
                    let elapsed = start.elapsed();
                    if due > elapsed {
                        std::thread::sleep(due - elapsed);
                    }
                    // Paced mode flushes per line so arrival spacing survives
                    // the buffer; unpaced mode lets the BufWriter coalesce.
                    writeln!(stream, "{}", record.line)?;
                    stream.flush()?;
                } else {
                    writeln!(stream, "{}", record.line)?;
                }
            }
            stream.flush()
        });
        let mut buf = Vec::new();
        let read = client.recv_raw(records.len(), &mut buf);
        let wrote = writer.join().expect("replay writer never panics");
        read.and(wrote).map(|()| buf)
    })?;
    Ok(result
        .split(|&b| b == b'\n')
        .filter(|chunk| !chunk.is_empty())
        .map(|chunk| String::from_utf8_lossy(chunk).into_owned())
        .collect())
}

/// Order-insensitive fingerprint of a response multiset: FNV-1a over the
/// sorted response lines.  Two replays of the same capture against a warm
/// server must produce equal digests (the soak's byte-identical claim).
pub fn response_digest(responses: &[String]) -> u64 {
    let mut sorted: Vec<&str> = responses.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for line in sorted {
        for &byte in line.as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash ^= u64::from(b'\n');
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_round_trips_through_the_v1_format() {
        let records = vec![
            CaptureRecord {
                offset_micros: 0,
                line: r#"{"op":"stats"}"#.to_string(),
            },
            CaptureRecord {
                offset_micros: 1500,
                // A tab inside the line survives: the split is on the first
                // tab only.
                line: "{\t\"op\":\t\"stats\"\t}".to_string(),
            },
        ];
        let mut bytes = Vec::new();
        write_capture(&mut bytes, &records).unwrap();
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(text.starts_with("nonrec-capture v1\n"));
        let back = read_capture(&bytes[..]).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn malformed_captures_fail_loudly() {
        assert!(read_capture(&b""[..]).is_err(), "empty file");
        assert!(
            read_capture(&b"nonrec-capture v2\n0\t{}\n"[..]).is_err(),
            "unknown version"
        );
        assert!(
            read_capture(&b"nonrec-capture v1\nno-tab-here\n"[..]).is_err(),
            "record without separator"
        );
        assert!(
            read_capture(&b"nonrec-capture v1\nxyz\t{}\n"[..]).is_err(),
            "non-numeric offset"
        );
    }

    #[test]
    fn recorder_appends_offset_stamped_lines() {
        let dir = std::env::temp_dir().join(format!("nonrec-replay-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("capture.log");
        {
            let recorder = Recorder::create(&path).unwrap();
            recorder.record(r#"{"op":"stats"}"#);
            recorder.record(r#"{"op":"stats","id":2}"#);
        }
        let records = load_capture(&path).unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].line, r#"{"op":"stats"}"#);
        assert!(records[0].offset_micros <= records[1].offset_micros);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn digest_is_order_insensitive_but_content_sensitive() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["y".to_string(), "x".to_string()];
        let c = vec!["y".to_string(), "z".to_string()];
        assert_eq!(response_digest(&a), response_digest(&b));
        assert_ne!(response_digest(&a), response_digest(&c));
        // Concatenation cannot masquerade as separation.
        let joined = vec!["xy".to_string()];
        assert_ne!(response_digest(&a), response_digest(&joined));
    }
}
