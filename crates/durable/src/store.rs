//! The content-addressed on-disk result store.
//!
//! One append-only log, `<dir>/results.log`, in the journal's record
//! framing (see `crate::record`): the `RMXJRNL1` header, then one
//! record per result whose payload is
//!
//! ```text
//! <key:016x> <result bytes>
//! ```
//!
//! so the checksum covers the key a result is stored under. Opening
//! builds an in-memory index `key → (offset, len)` by streaming through
//! the log once; results stay on disk until [`ResultStore::get`] reads
//! one back with a positioned read and re-verifies its checksum and
//! embedded key. A mismatch is a counted miss — the caller recomputes;
//! the bad bytes are never returned.
//!
//! [`ResultStore::put`] appends with one unbuffered write, so every
//! handle can read the record once `put` returns, and leaves the fsync
//! to [`ResultStore::sync`]: callers group-commit a batch of puts with
//! one fsync. A crash can lose the puts since the last sync, never the
//! ones before it. Damage a scan finds (a torn tail, a flipped bit) is
//! skipped by marker resync and never truncated, since another handle
//! may already have appended after it. Because the key is a content
//! fingerprint, the store is safely shared across campaigns and across
//! the local runner, the fleet coordinator, and a warm-starting server.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::note_degradation;
use crate::record::{self, Event, Parsed, FILE_HEADER, MAX_PAYLOAD, RECORD_HEADER};

/// Bytes of `<key:016x> ` ahead of each stored result.
const KEY_PREFIX: usize = 17;

/// Content-addressed result store. All methods take `&self`; the store
/// is safe to share across worker threads.
pub struct ResultStore {
    dir: PathBuf,
    path: PathBuf,
    log: Mutex<Log>,
    /// Held across each fsync, so a `sync` never returns before one that
    /// covers its caller's puts has finished. True once the directory
    /// holding the log has been synced too.
    dir_synced: Mutex<bool>,
    /// Set by each append, cleared by the sync that covers it.
    unsynced: AtomicBool,
    degraded: AtomicBool,
    warned: AtomicBool,
    hits: AtomicU64,
    misses: AtomicU64,
    rejected: AtomicU64,
}

#[derive(Default)]
struct Log {
    /// Read + append handle, open once the log exists.
    file: Option<Arc<File>>,
    /// Fingerprint → (record offset, payload length).
    index: HashMap<u64, (u64, u32)>,
    /// Log bytes indexed so far; 0 until a file header has been seen.
    scanned: u64,
}

impl ResultStore {
    /// Open (creating if needed) the store directory and index its log.
    /// Creates no file: the log is started by the first [`put`](Self::put).
    /// A log that cannot be read degrades the store to read-only.
    pub fn open(dir: &Path) -> io::Result<ResultStore> {
        fs::create_dir_all(dir)?;
        let store = ResultStore {
            dir: dir.to_path_buf(),
            path: dir.join("results.log"),
            log: Mutex::new(Log::default()),
            dir_synced: Mutex::new(false),
            unsynced: AtomicBool::new(false),
            degraded: AtomicBool::new(false),
            warned: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        };
        if let Err(e) = store.catch_up(&mut store.lock()) {
            store.degrade("result-store scan", &e);
        }
        Ok(store)
    }

    fn lock(&self) -> MutexGuard<'_, Log> {
        self.log.lock().expect("result-store index lock poisoned")
    }

    /// Fetch the payload stored under `key`, verifying the record's
    /// checksum and embedded key. A corrupt or mismatched record is a
    /// counted miss — the caller recomputes; the bad bytes are never
    /// returned.
    pub fn get(&self, key: u64) -> Option<Vec<u8>> {
        let Some((file, offset, len)) = self.locate(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        let mut raw = vec![0u8; RECORD_HEADER + len as usize];
        let valid = file.read_exact_at(&mut raw, offset).is_ok()
            && matches!(record::parse(&raw), Parsed::Record(p) if parse_key(p) == Some(key));
        if valid {
            self.hits.fetch_add(1, Ordering::Relaxed);
            raw.drain(..RECORD_HEADER + KEY_PREFIX);
            Some(raw)
        } else {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Where `key`'s record is, indexing what other handles appended
    /// since the last scan when it is not yet known.
    fn locate(&self, key: u64) -> Option<(Arc<File>, u64, u32)> {
        let mut log = self.lock();
        if !log.index.contains_key(&key) && !self.degraded() {
            if let Err(e) = self.catch_up(&mut log) {
                self.degrade("result-store scan", &e);
            }
        }
        let &(offset, len) = log.index.get(&key)?;
        Some((Arc::clone(log.file.as_ref()?), offset, len))
    }

    /// Append `payload` under `key`, unless the key is already stored;
    /// durable after the next [`sync`](Self::sync). Write errors degrade
    /// the store to read-only (one-time warning + process counter)
    /// instead of aborting.
    pub fn put(&self, key: u64, payload: &[u8]) {
        if self.degraded() {
            return;
        }
        if let Err(e) = self.append(key, payload) {
            self.degrade("result-store write", &e);
        }
    }

    fn append(&self, key: u64, payload: &[u8]) -> io::Result<()> {
        let mut log = self.lock();
        if log.scanned == 0 {
            // Another handle may have started the log since open.
            self.catch_up(&mut log)?;
        }
        if log.index.contains_key(&key) || KEY_PREFIX + payload.len() > MAX_PAYLOAD as usize {
            return Ok(());
        }
        let file = match &log.file {
            Some(f) if log.scanned > 0 => Arc::clone(f),
            _ => self.start_log(&mut log)?,
        };
        let mut body = format!("{key:016x} ").into_bytes();
        body.extend_from_slice(payload);
        let rec = record::frame(&body);
        let mut out = &*file;
        out.write_all(&rec)?;
        // The log is opened for append, so the write landed at end of
        // file, wherever other handles left it.
        let end = out.stream_position()?;
        let offset = end - rec.len() as u64;
        log.index.insert(key, (offset, body.len() as u32));
        if offset == log.scanned {
            log.scanned = end;
        }
        self.unsynced.store(true, Ordering::SeqCst);
        Ok(())
    }

    /// Create the log, or restart one torn before its header landed, and
    /// write its file header.
    fn start_log(&self, log: &mut Log) -> io::Result<Arc<File>> {
        let file = match log.file.take() {
            Some(f) => {
                f.set_len(0)?;
                f
            }
            None => Arc::new(
                OpenOptions::new()
                    .read(true)
                    .append(true)
                    .create(true)
                    .open(&self.path)?,
            ),
        };
        (&*file).write_all(FILE_HEADER)?;
        log.scanned = FILE_HEADER.len() as u64;
        log.file = Some(Arc::clone(&file));
        Ok(file)
    }

    /// Index the records appended since the last scan, by this handle or
    /// any other, opening the log first if it exists by now. The scan
    /// streams: it never holds more than one record in memory.
    fn catch_up(&self, log: &mut Log) -> io::Result<()> {
        if log.file.is_none() {
            match OpenOptions::new().read(true).append(true).open(&self.path) {
                Ok(f) => log.file = Some(Arc::new(f)),
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
                Err(e) => return Err(e),
            }
        }
        let file = Arc::clone(log.file.as_ref().expect("opened above"));
        let len = file.metadata()?.len();
        if log.scanned == 0 {
            if len < FILE_HEADER.len() as u64 {
                // Torn before its header landed; the next put restarts it.
                return Ok(());
            }
            let mut header = [0u8; FILE_HEADER.len()];
            file.read_exact_at(&mut header, 0)?;
            if &header != FILE_HEADER {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "{} is not a result log (bad file header)",
                        self.path.display()
                    ),
                ));
            }
            log.scanned = FILE_HEADER.len() as u64;
        }
        if len > log.scanned {
            let start = log.scanned;
            let mut reader = &*file;
            reader.seek(SeekFrom::Start(start))?;
            let index = &mut log.index;
            log.scanned = record::scan(reader, start, |ev| {
                if let Event::Record { offset, payload } = ev {
                    let key = parse_key(payload).ok_or("record payload has no key")?;
                    index.entry(key).or_insert((offset, payload.len() as u32));
                }
                Ok(())
            })?;
        }
        Ok(())
    }

    /// Make every put so far durable: one fsync of the log, plus, on this
    /// handle's first sync, one of the directory holding it. Does nothing
    /// when nothing was appended since the last sync. Errors degrade the
    /// store like write errors.
    pub fn sync(&self) {
        let mut dir_synced = self
            .dir_synced
            .lock()
            .expect("result-store sync lock poisoned");
        if self.degraded() || !self.unsynced.swap(false, Ordering::SeqCst) {
            return;
        }
        let Some(file) = self.lock().file.clone() else {
            return;
        };
        let synced = file.sync_data().and_then(|()| {
            if !*dir_synced {
                File::open(&self.dir)?.sync_all()?;
                *dir_synced = true;
            }
            Ok(())
        });
        if let Err(e) = synced {
            self.degrade("result-store fsync", &e);
        }
    }

    fn degrade(&self, what: &str, err: &io::Error) {
        self.degraded.store(true, Ordering::Relaxed);
        note_degradation(
            &format!("{what} under {} failed", self.dir.display()),
            err,
            &self.warned,
        );
    }

    /// Verified reads since open.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Failed reads since open (absent or corrupt).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Reads rejected for corruption (subset of misses).
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// True once a write error has downgraded this store to read-only.
    pub fn degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Number of indexed results (diagnostics only).
    pub fn entries(&self) -> usize {
        self.lock().index.len()
    }
}

/// The key a stored payload begins with (`<key:016x> `).
fn parse_key(payload: &[u8]) -> Option<u64> {
    let hex = std::str::from_utf8(payload.get(..KEY_PREFIX - 1)?).ok()?;
    if payload.get(KEY_PREFIX - 1) != Some(&b' ') {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rmx-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn tmpstore(tag: &str) -> ResultStore {
        ResultStore::open(&tmpdir(tag)).unwrap()
    }

    /// Where `key`'s record starts in the log, and its total length.
    fn record_span(s: &ResultStore, key: u64) -> (usize, usize) {
        let (offset, len) = s.lock().index[&key];
        (offset as usize, RECORD_HEADER + len as usize)
    }

    #[test]
    fn put_get_round_trips() {
        let s = tmpstore("roundtrip");
        assert_eq!(s.get(0xfeed), None);
        s.put(0xfeed, b"hello durable world");
        assert_eq!(s.get(0xfeed).as_deref(), Some(&b"hello durable world"[..]));
        assert_eq!(s.entries(), 1);
        assert_eq!((s.hits(), s.misses(), s.rejected()), (1, 1, 0));
        s.sync();

        // A fresh handle rebuilds the index from the log.
        let t = ResultStore::open(&s.dir).unwrap();
        assert_eq!(t.get(0xfeed).as_deref(), Some(&b"hello durable world"[..]));
        assert_eq!(t.get(0xbeef), None);
    }

    #[test]
    fn open_and_sync_create_nothing_until_the_first_put() {
        let s = tmpstore("lazy");
        assert_eq!(s.get(1), None);
        s.sync();
        assert!(!s.path.exists());
        s.put(1, b"one");
        s.sync();
        assert!(s.path.is_file());
    }

    #[test]
    fn repeated_put_keeps_the_first_record() {
        let s = tmpstore("repeat");
        s.put(7, b"first");
        let len = fs::metadata(&s.path).unwrap().len();
        s.put(7, b"second");
        assert_eq!(fs::metadata(&s.path).unwrap().len(), len);
        assert_eq!(s.get(7).as_deref(), Some(&b"first"[..]));
        assert_eq!(s.entries(), 1);
    }

    #[test]
    fn flipped_payload_bit_is_a_rejected_miss_for_its_own_key_only() {
        let s = tmpstore("corrupt");
        s.put(41, b"left neighbour");
        s.put(42, b"precious bytes");
        s.put(43, b"right neighbour");
        let (start, len) = record_span(&s, 42);
        let mut raw = fs::read(&s.path).unwrap();
        raw[start + len - 1] ^= 0x01;
        fs::write(&s.path, &raw).unwrap();

        assert_eq!(s.get(42), None);
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.get(41).as_deref(), Some(&b"left neighbour"[..]));
        assert_eq!(s.get(43).as_deref(), Some(&b"right neighbour"[..]));

        // Reopened, the damaged record is skipped and its key recomputes.
        let t = ResultStore::open(&s.dir).unwrap();
        assert_eq!(t.get(42), None);
        assert_eq!(t.get(41).as_deref(), Some(&b"left neighbour"[..]));
        assert_eq!(t.get(43).as_deref(), Some(&b"right neighbour"[..]));
        t.put(42, b"precious bytes");
        assert_eq!(t.get(42).as_deref(), Some(&b"precious bytes"[..]));
    }

    #[test]
    fn truncated_tail_is_a_rejected_miss() {
        let s = tmpstore("truncated");
        s.put(41, b"intact");
        s.put(42, b"precious bytes");
        let raw = fs::read(&s.path).unwrap();
        fs::write(&s.path, &raw[..raw.len() - 4]).unwrap();
        assert_eq!(s.get(42), None);
        assert_eq!(s.rejected(), 1);
        assert_eq!(s.get(41).as_deref(), Some(&b"intact"[..]));

        let t = ResultStore::open(&s.dir).unwrap();
        assert_eq!(t.get(42), None);
        assert_eq!(t.get(41).as_deref(), Some(&b"intact"[..]));
    }

    #[test]
    fn embedded_key_mismatch_is_rejected() {
        // Swap two same-length records: each still checksums, but the
        // index points every key at the other's record.
        let s = tmpstore("keymismatch");
        s.put(1, b"payload for key one");
        s.put(2, b"payload for key two");
        let (a, len) = record_span(&s, 1);
        let (b, _) = record_span(&s, 2);
        let mut raw = fs::read(&s.path).unwrap();
        let first = raw[a..a + len].to_vec();
        raw.copy_within(b..b + len, a);
        raw[b..b + len].copy_from_slice(&first);
        fs::write(&s.path, &raw).unwrap();
        assert_eq!(s.get(1), None);
        assert_eq!(s.get(2), None);
        assert_eq!(s.rejected(), 2);

        // A fresh index follows the embedded keys, not the positions.
        let t = ResultStore::open(&s.dir).unwrap();
        assert_eq!(t.get(1).as_deref(), Some(&b"payload for key one"[..]));
        assert_eq!(t.get(2).as_deref(), Some(&b"payload for key two"[..]));
    }

    #[test]
    fn empty_payloads_are_valid() {
        let s = tmpstore("empty");
        s.put(9, b"");
        assert_eq!(s.get(9).as_deref(), Some(&b""[..]));
        let t = ResultStore::open(&s.dir).unwrap();
        assert_eq!(t.get(9).as_deref(), Some(&b""[..]));
    }

    #[test]
    fn torn_tail_is_skipped_not_truncated() {
        let dir = tmpdir("torn");
        let a = ResultStore::open(&dir).unwrap();
        a.put(1, b"one");
        a.put(2, b"two");
        a.sync();
        // A crash mid-append leaves half a record at the end of the log.
        let torn = record::frame(b"0000000000000003 three");
        let mut f = OpenOptions::new().append(true).open(&a.path).unwrap();
        f.write_all(&torn[..torn.len() / 2]).unwrap();
        let torn_len = fs::metadata(&a.path).unwrap().len();

        // Two handles open over the torn tail; neither cuts it off, so
        // what one appends after it survives the other's open.
        let b = ResultStore::open(&dir).unwrap();
        let c = ResultStore::open(&dir).unwrap();
        assert_eq!(fs::metadata(&a.path).unwrap().len(), torn_len);
        assert_eq!(b.get(3), None);
        c.put(3, b"three");
        let d = ResultStore::open(&dir).unwrap();
        b.put(4, b"four");
        d.put(5, b"five");

        // Every handle sees every record, the others' included.
        for h in [&a, &b, &c, &d] {
            for (key, want) in [
                (1, "one"),
                (2, "two"),
                (3, "three"),
                (4, "four"),
                (5, "five"),
            ] {
                assert_eq!(h.get(key).as_deref(), Some(want.as_bytes()), "key {key}");
            }
        }
        let fresh = ResultStore::open(&dir).unwrap();
        assert_eq!(fresh.entries(), 5);
    }

    #[test]
    fn log_torn_inside_its_header_is_restarted() {
        let dir = tmpdir("tornheader");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("results.log"), &FILE_HEADER[..3]).unwrap();
        let s = ResultStore::open(&dir).unwrap();
        assert!(!s.degraded());
        s.put(1, b"one");
        let t = ResultStore::open(&dir).unwrap();
        assert_eq!(t.get(1).as_deref(), Some(&b"one"[..]));
    }

    #[test]
    fn bad_header_degrades_to_read_only() {
        let dir = tmpdir("header");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("results.log");
        fs::write(&path, b"definitely not a result log").unwrap();
        let s = ResultStore::open(&dir).unwrap();
        assert!(s.degraded());
        s.put(1, b"one");
        assert_eq!(s.get(1), None);
        assert_eq!(fs::read(&path).unwrap(), b"definitely not a result log");
    }
}
