//! The checksummed append-only record journal.
//!
//! One file in the shared record framing (see `crate::record`): the
//! `RMXJRNL1` header, then one `RMXR`-marked, length-prefixed,
//! FNV-1a-checksummed record per append. Payloads are UTF-8 text; the
//! campaign layers define the vocabulary (first record is always the
//! campaign meta line).
//!
//! Reopening classifies damage into three buckets:
//!
//! - **Torn tail** — the file ends mid-record (the classic
//!   SIGKILL-mid-write shape) and no later marker exists. The tail is
//!   truncated and appending continues from the last good record.
//! - **Mid-file corruption** — a record fails its checksum (bit flip)
//!   or a marker is missing where one should be, but a later marker
//!   exists. The damaged span is quarantined (counted + diagnosed, its
//!   records lost) and scanning resyncs at the next marker. A false
//!   marker inside damaged bytes fails its own checksum and scanning
//!   simply continues.
//! - **Not a journal** — the file header is wrong. That is a diagnosed
//!   refusal ([`Journal::open`] errors), never a silent fresh start.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;

use crate::note_degradation;
use crate::record::{self, Event, FILE_HEADER};

/// Batch this many appends per fsync (plus explicit [`Journal::sync`]
/// calls at checkpoints).
const SYNC_EVERY: u32 = 16;

/// What replaying an existing journal found.
#[derive(Debug, Default)]
pub struct Replay {
    /// Payloads of every intact record, in append order.
    pub records: Vec<String>,
    /// Damaged spans skipped by marker resync (each may have destroyed
    /// one or more records).
    pub quarantined: usize,
    /// Bytes dropped from a torn tail.
    pub truncated_bytes: u64,
    /// Human-readable notes about each recovery action taken.
    pub diagnostics: Vec<String>,
}

impl Replay {
    /// True when the journal replayed without any recovery action.
    pub fn clean(&self) -> bool {
        self.quarantined == 0 && self.truncated_bytes == 0
    }
}

/// Append handle to a journal file. Not thread-safe by itself — wrap in
/// a `Mutex` when multiple workers complete concurrently.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// `None` once degraded: appends become no-ops.
    file: Option<File>,
    unsynced: u32,
    warned: AtomicBool,
}

impl Journal {
    /// Create a fresh journal at `path`, truncating any existing file
    /// (an existing *store* next to it is untouched — content-addressed
    /// results stay valid across campaigns).
    pub fn create(path: &Path) -> io::Result<Journal> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(path)?;
        file.write_all(FILE_HEADER)?;
        file.sync_data()?;
        Ok(Journal {
            path: path.to_path_buf(),
            file: Some(file),
            unsynced: 0,
            warned: AtomicBool::new(false),
        })
    }

    /// Open an existing journal for resume: replay every intact record,
    /// truncate a torn tail, quarantine corrupt spans, and position the
    /// append handle after the last good record.
    ///
    /// Errors are diagnosed refusals — a missing file or a file that is
    /// not a journal — never silent fresh starts.
    pub fn open(path: &Path) -> io::Result<(Journal, Replay)> {
        let cannot_read = |e: io::Error| {
            io::Error::new(
                e.kind(),
                format!("cannot read journal {}: {e}", path.display()),
            )
        };
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(cannot_read)?;
        let mut header = [0u8; FILE_HEADER.len()];
        match file.read_exact(&mut header) {
            Ok(()) if &header == FILE_HEADER => {}
            Err(e) if e.kind() != io::ErrorKind::UnexpectedEof => return Err(cannot_read(e)),
            _ => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} is not a regmutex journal (bad file header); \
                         refusing to resume from it",
                        path.display()
                    ),
                ));
            }
        }

        let mut replay = Replay::default();
        // End of the last record that parsed, i.e. where appends resume.
        let good_end = record::scan(&mut file, FILE_HEADER.len() as u64, |ev| {
            match ev {
                Event::Record { payload, .. } => {
                    let text =
                        std::str::from_utf8(payload).map_err(|_| "record payload is not UTF-8")?;
                    replay.records.push(text.to_string());
                }
                Event::Quarantined { offset, len, why } => {
                    replay.quarantined += 1;
                    replay.diagnostics.push(format!(
                        "quarantined {len} corrupt bytes at offset {offset}: {why}"
                    ));
                }
                Event::TornTail { offset, len, why } => {
                    replay.truncated_bytes = len;
                    replay.diagnostics.push(format!(
                        "truncated torn tail of {len} bytes at offset {offset}: {why}"
                    ));
                }
            }
            Ok(())
        })?;

        file.set_len(good_end)?;
        file.seek(SeekFrom::Start(good_end))?;
        file.sync_data()?;
        Ok((
            Journal {
                path: path.to_path_buf(),
                file: Some(file),
                unsynced: 0,
                warned: AtomicBool::new(false),
            },
            replay,
        ))
    }

    /// Append one record. Write errors degrade the journal to a no-op
    /// (one-time warning + process counter) instead of aborting the
    /// campaign.
    pub fn append(&mut self, payload: &str) {
        let Some(file) = self.file.as_mut() else {
            return;
        };
        if let Err(e) = file.write_all(&record::frame(payload.as_bytes())) {
            self.degrade("journal append", &e);
            return;
        }
        self.unsynced += 1;
        if self.unsynced >= SYNC_EVERY {
            self.sync();
        }
    }

    /// Flush batched appends to stable storage (checkpoint boundary).
    pub fn sync(&mut self) {
        let Some(file) = self.file.as_mut() else {
            return;
        };
        if let Err(e) = file.sync_data() {
            self.degrade("journal fsync", &e);
            return;
        }
        self.unsynced = 0;
    }

    fn degrade(&mut self, what: &str, err: &io::Error) {
        note_degradation(
            &format!("{what} to {} failed", self.path.display()),
            err,
            &self.warned,
        );
        self.file = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::RECORD_HEADER;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rmx-journal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn write_records(path: &Path, payloads: &[&str]) {
        let mut j = Journal::create(path).unwrap();
        for p in payloads {
            j.append(p);
        }
        j.sync();
    }

    #[test]
    fn round_trips_records() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("journal.log");
        write_records(&path, &["meta kind=test", "one", "two\nwith body", ""]);
        let (_, replay) = Journal::open(&path).unwrap();
        assert!(replay.clean(), "{:?}", replay.diagnostics);
        assert_eq!(
            replay.records,
            vec!["meta kind=test", "one", "two\nwith body", ""]
        );
    }

    #[test]
    fn torn_tail_is_truncated_and_appending_resumes() {
        let dir = tmpdir("torn");
        let path = dir.join("journal.log");
        write_records(&path, &["meta", "alpha", "beta"]);
        // Chop the file mid-way through the last record.
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 3]).unwrap();

        let (mut j, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, vec!["meta", "alpha"]);
        assert_eq!(replay.truncated_bytes as usize, RECORD_HEADER + 4 - 3);
        assert_eq!(replay.quarantined, 0);

        // The journal keeps working after recovery.
        j.append("gamma");
        j.sync();
        let (_, replay) = Journal::open(&path).unwrap();
        assert!(replay.clean());
        assert_eq!(replay.records, vec!["meta", "alpha", "gamma"]);
    }

    #[test]
    fn bit_flip_quarantines_one_record_and_resyncs() {
        let dir = tmpdir("flip");
        let path = dir.join("journal.log");
        write_records(&path, &["meta", "alpha", "beta", "gamma"]);
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a payload bit inside "beta" (the third record).
        let hit = FILE_HEADER.len() + (RECORD_HEADER + 4) + (RECORD_HEADER + 5) + RECORD_HEADER;
        raw[hit] ^= 0x40;
        std::fs::write(&path, &raw).unwrap();

        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, vec!["meta", "alpha", "gamma"]);
        assert_eq!(replay.quarantined, 1);
        assert_eq!(replay.truncated_bytes, 0);
        assert!(replay.diagnostics[0].contains("checksum mismatch"));
    }

    #[test]
    fn flipped_length_is_caught_by_the_checksum() {
        let dir = tmpdir("lenflip");
        let path = dir.join("journal.log");
        write_records(&path, &["meta", "alpha", "beta"]);
        let mut raw = std::fs::read(&path).unwrap();
        // Flip a low bit of "alpha"'s length prefix.
        let len_off = FILE_HEADER.len() + (RECORD_HEADER + 4) + 4;
        raw[len_off] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();

        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, vec!["meta", "beta"]);
        assert_eq!(replay.quarantined, 1);
    }

    #[test]
    fn duplicated_records_replay_verbatim() {
        // Byte-level duplication (a replayed write) parses fine; the
        // campaign layers dedupe by index/fingerprint on top.
        let dir = tmpdir("dup");
        let path = dir.join("journal.log");
        write_records(&path, &["meta", "alpha"]);
        let raw = std::fs::read(&path).unwrap();
        let rec = &raw[FILE_HEADER.len() + RECORD_HEADER + 4..];
        let mut doubled = raw.clone();
        doubled.extend_from_slice(rec);
        std::fs::write(&path, &doubled).unwrap();

        let (_, replay) = Journal::open(&path).unwrap();
        assert!(replay.clean());
        assert_eq!(replay.records, vec!["meta", "alpha", "alpha"]);
    }

    #[test]
    fn wrong_header_is_a_diagnosed_refusal() {
        let dir = tmpdir("header");
        let path = dir.join("journal.log");
        std::fs::write(&path, b"definitely not a journal").unwrap();
        let err = Journal::open(&path).unwrap_err();
        assert!(err.to_string().contains("not a regmutex journal"), "{err}");

        let missing = Journal::open(&dir.join("absent.log")).unwrap_err();
        assert!(missing.to_string().contains("cannot read journal"));
    }

    #[test]
    fn whole_file_garbage_after_header_truncates_to_empty() {
        let dir = tmpdir("garbage");
        let path = dir.join("journal.log");
        let mut raw = FILE_HEADER.to_vec();
        raw.extend_from_slice(&[0xAA; 64]);
        std::fs::write(&path, &raw).unwrap();
        let (_, replay) = Journal::open(&path).unwrap();
        assert!(replay.records.is_empty());
        assert_eq!(replay.truncated_bytes, 64);
    }

    #[test]
    fn payload_containing_marker_bytes_round_trips() {
        let dir = tmpdir("marker");
        let path = dir.join("journal.log");
        write_records(&path, &["note RMXR inside payload", "tail"]);
        let (_, replay) = Journal::open(&path).unwrap();
        assert!(replay.clean());
        assert_eq!(replay.records, vec!["note RMXR inside payload", "tail"]);
    }

    #[test]
    fn create_truncates_an_existing_journal() {
        let dir = tmpdir("fresh");
        let path = dir.join("journal.log");
        write_records(&path, &["old", "state"]);
        let mut j = Journal::create(&path).unwrap();
        j.append("new");
        j.sync();
        let (_, replay) = Journal::open(&path).unwrap();
        assert_eq!(replay.records, vec!["new"]);
    }
}
