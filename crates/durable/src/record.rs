//! The checksummed record framing shared by the journal and the result
//! store.
//!
//! On-disk layout:
//!
//! ```text
//! +----------+----------------------------------------------+
//! | "RMXJRNL1" (8-byte file header)                          |
//! +----------+------------+-------------+-------------------+
//! | "RMXR"   | len u32 LE | fnv u64 LE  | payload (len bytes)|
//! +----------+------------+-------------+-------------------+
//! | ... more records ...                                     |
//! ```
//!
//! The per-record checksum is FNV-1a over the length prefix bytes
//! followed by the payload, so a flipped length bit is caught the same
//! way a flipped payload bit is. [`scan`] streams a file's records in
//! fixed-size chunks, so its memory does not grow with the file: a
//! record that fails to parse is skipped by resyncing at the next
//! `RMXR` marker, and damage with no later marker is a torn tail.

use std::io::{self, Read};

use crate::Fnv1a;

/// 8-byte file header: magic + format version.
pub(crate) const FILE_HEADER: &[u8; 8] = b"RMXJRNL1";
/// Per-record marker, the resync anchor after corruption.
const MARKER: &[u8; 4] = b"RMXR";
/// Marker + length prefix + checksum.
pub(crate) const RECORD_HEADER: usize = 4 + 4 + 8;
/// Upper bound on a single payload; a "length" beyond this is treated
/// as corruption rather than honored with a giant allocation.
pub(crate) const MAX_PAYLOAD: u32 = 1 << 24;
/// Bytes [`scan`] reads per refill.
const CHUNK: usize = 64 * 1024;

fn checksum(len: [u8; 4], payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(&len);
    h.write(payload);
    h.finish()
}

/// Frame `payload` as one record.
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    let len = (payload.len() as u32).to_le_bytes();
    let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len());
    rec.extend_from_slice(MARKER);
    rec.extend_from_slice(&len);
    rec.extend_from_slice(&checksum(len, payload).to_le_bytes());
    rec.extend_from_slice(payload);
    rec
}

/// What [`parse`] found at the start of a buffer.
pub(crate) enum Parsed<'a> {
    /// An intact record; it occupies `RECORD_HEADER + payload.len()` bytes.
    Record(&'a [u8]),
    /// The buffer ends before the record does.
    Short,
    /// The bytes are not a record.
    Corrupt(&'static str),
}

/// Parse the record at the start of `buf`.
pub(crate) fn parse(buf: &[u8]) -> Parsed<'_> {
    if buf.len() >= MARKER.len() && &buf[..MARKER.len()] != MARKER {
        return Parsed::Corrupt("missing record marker");
    }
    if buf.len() < RECORD_HEADER {
        return Parsed::Short;
    }
    let len_bytes: [u8; 4] = buf[4..8].try_into().expect("4-byte slice");
    let len = u32::from_le_bytes(len_bytes);
    if len > MAX_PAYLOAD {
        return Parsed::Corrupt("implausible record length");
    }
    let total = RECORD_HEADER + len as usize;
    if buf.len() < total {
        return Parsed::Short;
    }
    let stored = u64::from_le_bytes(buf[8..16].try_into().expect("8-byte slice"));
    let payload = &buf[RECORD_HEADER..total];
    if checksum(len_bytes, payload) != stored {
        return Parsed::Corrupt("record checksum mismatch");
    }
    Parsed::Record(payload)
}

fn find_marker(buf: &[u8], from: usize) -> Option<usize> {
    (from..buf.len().saturating_sub(MARKER.len() - 1)).find(|&i| &buf[i..i + 4] == MARKER)
}

/// One finding of [`scan`], in file order.
pub(crate) enum Event<'a> {
    /// An intact record starting at file offset `offset`.
    Record { offset: u64, payload: &'a [u8] },
    /// `len` damaged bytes at `offset`, skipped by resyncing at a later
    /// marker (they may have held one or more records).
    Quarantined {
        offset: u64,
        len: u64,
        why: &'static str,
    },
    /// Damage with no later marker: the `len` bytes from `offset` (the
    /// end of the last intact record) to end of file.
    TornTail {
        offset: u64,
        len: u64,
        why: &'static str,
    },
}

/// Append up to [`CHUNK`] bytes from `src` to `buf`; false at end of
/// file.
fn refill(src: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    let old = buf.len();
    buf.resize(old + CHUNK, 0);
    let n = loop {
        match src.read(&mut buf[old..]) {
            Ok(n) => break n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => {
                buf.truncate(old);
                return Err(e);
            }
        }
    };
    buf.truncate(old + n);
    Ok(n > 0)
}

/// Stream the records of `src`, whose first byte is file offset `start`,
/// calling `visit` for each finding. `visit` may reject an intact record
/// by returning why; the record is then treated as damage. Returns the
/// file offset just past the last accepted record.
pub(crate) fn scan(
    mut src: impl Read,
    start: u64,
    mut visit: impl FnMut(Event<'_>) -> Result<(), &'static str>,
) -> io::Result<u64> {
    let mut buf = Vec::new();
    // File offset of `buf[0]`, and the parse cursor within `buf`.
    let (mut base, mut pos) = (start, 0usize);
    let mut more = true;
    let mut good_end = start;
    loop {
        let why = match parse(&buf[pos..]) {
            Parsed::Record(payload) => {
                let offset = base + pos as u64;
                let consumed = RECORD_HEADER + payload.len();
                match visit(Event::Record { offset, payload }) {
                    Ok(()) => {
                        pos += consumed;
                        good_end = base + pos as u64;
                        continue;
                    }
                    Err(why) => why,
                }
            }
            Parsed::Short if more => {
                buf.drain(..pos);
                base += pos as u64;
                pos = 0;
                more = refill(&mut src, &mut buf)?;
                continue;
            }
            Parsed::Short if pos == buf.len() => return Ok(good_end),
            Parsed::Short if buf.len() - pos < RECORD_HEADER => "incomplete record header",
            Parsed::Short => "record extends past end of file",
            Parsed::Corrupt(why) => why,
        };
        // Resync: the earliest later marker restarts parsing. A false
        // positive inside damaged bytes fails its own checksum and lands
        // back here.
        let bad = base + pos as u64;
        let mut from = pos + 1;
        loop {
            if let Some(next) = find_marker(&buf, from) {
                let _ = visit(Event::Quarantined {
                    offset: bad,
                    len: base + next as u64 - bad,
                    why,
                });
                pos = next;
                break;
            }
            if !more {
                let end = base + buf.len() as u64;
                let _ = visit(Event::TornTail {
                    offset: good_end,
                    len: end - good_end,
                    why,
                });
                return Ok(good_end);
            }
            // Searched everything up to the last few bytes, which may
            // start a marker that straddles the refill.
            let keep = buf.len().saturating_sub(MARKER.len() - 1).max(from);
            buf.drain(..keep);
            base += keep as u64;
            from = 0;
            more = refill(&mut src, &mut buf)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Collect a scan's findings as `(kind, offset, len)` plus records.
    fn findings(raw: &[u8]) -> (Vec<(char, u64, u64)>, u64) {
        let mut out = Vec::new();
        let end = scan(raw, 0, |ev| {
            out.push(match ev {
                Event::Record { offset, payload } => ('r', offset, payload.len() as u64),
                Event::Quarantined { offset, len, .. } => ('q', offset, len),
                Event::TornTail { offset, len, .. } => ('t', offset, len),
            });
            Ok(())
        })
        .unwrap();
        (out, end)
    }

    #[test]
    fn records_larger_than_a_chunk_stream_through() {
        let big = vec![b'x'; CHUNK * 2 + 17];
        let mut raw = frame(b"small");
        raw.extend(frame(&big));
        raw.extend(frame(b""));
        let (got, end) = findings(&raw);
        let second = (RECORD_HEADER + 5) as u64;
        let third = second + (RECORD_HEADER + big.len()) as u64;
        assert_eq!(
            got,
            vec![
                ('r', 0, 5),
                ('r', second, big.len() as u64),
                ('r', third, 0)
            ]
        );
        assert_eq!(end, raw.len() as u64);
    }

    #[test]
    fn garbage_spanning_chunks_resyncs_at_the_next_marker() {
        let mut raw = frame(b"alpha");
        let garbage = CHUNK + 3;
        raw.extend(std::iter::repeat_n(0xAA, garbage));
        raw.extend(frame(b"beta"));
        raw.extend(&frame(b"gamma")[..RECORD_HEADER + 2]);
        let (got, end) = findings(&raw);
        let first = (RECORD_HEADER + 5) as u64;
        let beta = first + garbage as u64;
        let beta_end = beta + (RECORD_HEADER + 4) as u64;
        assert_eq!(
            got,
            vec![
                ('r', 0, 5),
                ('q', first, garbage as u64),
                ('r', beta, 4),
                ('t', beta_end, (RECORD_HEADER + 2) as u64),
            ]
        );
        assert_eq!(end, beta_end);
    }

    #[test]
    fn a_rejected_record_is_damage() {
        let mut raw = frame(b"keep");
        raw.extend(frame(b"reject"));
        raw.extend(frame(b"keep too"));
        let mut kept = Vec::new();
        let mut quarantined = 0;
        scan(&raw[..], 0, |ev| match ev {
            Event::Record { payload, .. } if payload == b"reject" => Err("rejected"),
            Event::Record { payload, .. } => {
                kept.push(payload.to_vec());
                Ok(())
            }
            Event::Quarantined { why, .. } => {
                assert_eq!(why, "rejected");
                quarantined += 1;
                Ok(())
            }
            Event::TornTail { .. } => panic!("no torn tail"),
        })
        .unwrap();
        assert_eq!(kept, vec![b"keep".to_vec(), b"keep too".to_vec()]);
        assert_eq!(quarantined, 1);
    }
}
