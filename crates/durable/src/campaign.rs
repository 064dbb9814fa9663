//! The one campaign layer over [`Journal`]: `sweep`, `chaos`, `fuzz` and
//! the fleet coordinator each journal through a [`Campaign`] of their own
//! [`Record`] vocabulary (DESIGN.md §10).
//!
//! The journal's first record pins the campaign identity. On resume, keyed
//! records (completed units of work) are kept first-wins, so a duplicated
//! append cannot flip an outcome; keyless ones come back in append order;
//! one that does not decode is a gap whose work simply re-runs, which is
//! safe because every campaign's evaluation is deterministic.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::journal::Journal;

/// One campaign's record vocabulary.
pub trait Record: Sized {
    /// The `kind=` of the meta line, also the `[KIND]` prefix of the
    /// recovery diagnostics.
    const KIND: &'static str;
    /// What determines which work the campaign does. Throughput knobs
    /// (worker counts, batch sizes) stay out of it, so a campaign may
    /// resume at a different parallelism than it started with.
    type Identity: ?Sized;
    /// The identity as the rest of the meta line.
    fn identity(id: &Self::Identity) -> String;
    /// The record as one journal payload.
    fn encode(&self) -> String;
    /// Parse a payload; `None` means "not a record of this campaign",
    /// which resume treats as a gap.
    fn decode(payload: &str) -> Option<Self>;
    /// The unit of work this record completes, or `None` for a record
    /// that is replayed in order instead of deduplicated.
    fn key(&self) -> Option<u64>;
}

/// How a durable campaign run ended.
#[derive(Debug)]
pub enum Run<T> {
    /// All the work is done (or a budget cap hit, exactly as an
    /// uninterrupted run would).
    Complete(T),
    /// The cancel check fired first: progress is journaled, the rest is
    /// waiting for a resume.
    Checkpointed {
        /// Units of work done so far, replayed ones included.
        completed: u64,
        /// Units of work in the whole campaign.
        total: u64,
    },
}

/// A campaign journal: the append handle plus what a previous run left.
#[derive(Debug)]
pub struct Campaign<R: Record> {
    journal: Mutex<Journal>,
    completed: HashMap<u64, R>,
    keyless: Vec<R>,
}

impl<R: Record> Campaign<R> {
    /// The meta line pinned as the journal's first record.
    pub fn meta(id: &R::Identity) -> String {
        format!("meta kind={} {}", R::KIND, R::identity(id))
    }

    fn log_path(dir: &Path) -> PathBuf {
        dir.join("journal.log")
    }

    /// Start a fresh campaign journal under `dir`, truncating any previous
    /// journal there (a result store next to it stays valid).
    pub fn create(dir: &Path, id: &R::Identity) -> Result<Self, String> {
        let mut journal = Journal::create(&Self::log_path(dir))
            .map_err(|e| format!("cannot create journal in {}: {e}", dir.display()))?;
        journal.append(&Self::meta(id));
        journal.sync();
        Ok(Campaign {
            journal: Mutex::new(journal),
            completed: HashMap::new(),
            keyless: Vec::new(),
        })
    }

    /// Reopen the campaign journal under `dir`: check that it belongs to
    /// this identity, then fold its records. Recovery diagnostics (torn
    /// tail, quarantined records) go to stderr.
    pub fn resume(dir: &Path, id: &R::Identity) -> Result<Self, String> {
        let (journal, replay) = Journal::open(&Self::log_path(dir)).map_err(|e| e.to_string())?;
        for d in &replay.diagnostics {
            eprintln!("[{}] journal recovery: {d}", R::KIND);
        }
        let want = Self::meta(id);
        let mut records = replay.records.iter();
        match records.next() {
            Some(meta) if *meta == want => {}
            Some(meta) => {
                return Err(format!(
                    "journal campaign mismatch: journal has `{meta}`, \
                     this invocation is `{want}`; refusing to resume"
                ));
            }
            None => return Self::create(dir, id),
        }
        let mut completed = HashMap::new();
        let mut keyless = Vec::new();
        for rec in records.filter_map(|p| R::decode(p)) {
            match rec.key() {
                Some(key) => {
                    completed.entry(key).or_insert(rec);
                }
                None => keyless.push(rec),
            }
        }
        Ok(Campaign {
            journal: Mutex::new(journal),
            completed,
            keyless,
        })
    }

    /// Units of work a previous run completed.
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// The first journaled record completing `key`, if any.
    pub fn replayed(&self, key: u64) -> Option<&R> {
        self.completed.get(&key)
    }

    /// The replayed keyless records, in append order.
    pub fn keyless(&self) -> &[R] {
        &self.keyless
    }

    /// Journal `rec`, unless it completes work the previous run already
    /// journaled.
    pub fn append(&self, rec: &R) {
        if rec.key().is_some_and(|k| self.completed.contains_key(&k)) {
            return;
        }
        self.journal.lock().unwrap().append(&rec.encode());
    }

    /// Flush batched appends (checkpoint boundary).
    pub fn sync(&self) {
        self.journal.lock().unwrap().sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy vocabulary: `<key> <text>` completes `key`, `- <text>` is
    /// keyless.
    #[derive(Debug)]
    struct Toy(Option<u64>, String);

    impl Record for Toy {
        const KIND: &'static str = "toy";
        type Identity = str;
        fn identity(id: &str) -> String {
            format!("name={id}")
        }
        fn encode(&self) -> String {
            format!(
                "{} {}",
                self.0.map_or("-".into(), |k| k.to_string()),
                self.1
            )
        }
        fn decode(payload: &str) -> Option<Self> {
            let (key, text) = payload.split_once(' ')?;
            let text = text.to_string();
            match key {
                "-" => Some(Toy(None, text)),
                k => Some(Toy(Some(k.parse().ok()?), text)),
            }
        }
        fn key(&self) -> Option<u64> {
            self.0
        }
    }

    fn dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("rmx-campaign-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    /// The raw journal payloads, after appending `extra` ones.
    fn records(d: &Path, extra: &[&str]) -> Vec<String> {
        let (mut j, mut replay) = Journal::open(&d.join("journal.log")).unwrap();
        for p in extra {
            j.append(p);
            replay.records.push(p.to_string());
        }
        j.sync();
        replay.records
    }

    #[test]
    fn create_append_resume_keeps_first_and_replays_keyless_in_order() {
        let d = dir("contract");
        let c = Campaign::<Toy>::create(&d, "a").unwrap();
        c.append(&Toy(Some(3), "first".into()));
        c.append(&Toy(None, "b".into()));
        drop(c);
        // A duplicated completion, an undecodable record, a keyless repeat.
        records(&d, &["3 second", "x undecodable", "- a", "- b"]);

        let c = Campaign::<Toy>::resume(&d, "a").unwrap();
        assert_eq!(c.completed(), 1);
        assert_eq!(c.replayed(3).map(Toy::encode).unwrap(), "3 first");
        let keyless: Vec<_> = c.keyless().iter().map(Toy::encode).collect();
        assert_eq!(keyless, ["- b", "- a", "- b"]);
        // Replayed work is not journaled again; new work and keyless
        // records are.
        for rec in [(Some(3), "third"), (Some(1), "new"), (None, "c")] {
            c.append(&Toy(rec.0, rec.1.into()));
        }
        c.sync();
        drop(c);
        assert_eq!(records(&d, &[])[7..], ["1 new", "- c"]);
    }

    #[test]
    fn mismatched_identity_is_refused_quoting_both_metas_whole() {
        let d = dir("mismatch");
        drop(Campaign::<Toy>::create(&d, "a").unwrap());
        let err = Campaign::<Toy>::resume(&d, "b").unwrap_err();
        assert_eq!(
            err,
            "journal campaign mismatch: journal has `meta kind=toy name=a`, \
             this invocation is `meta kind=toy name=b`; refusing to resume"
        );
        let mut j = Journal::create(&d.join("journal.log")).unwrap();
        j.append("meta kind=toy name=a\nsecond line");
        j.sync();
        let err = Campaign::<Toy>::resume(&d, "a").unwrap_err();
        assert!(err.contains("`meta kind=toy name=a\nsecond line`"), "{err}");
    }

    #[test]
    fn journal_left_empty_by_recovery_starts_fresh() {
        let d = dir("empty");
        drop(Campaign::<Toy>::create(&d, "a").unwrap());
        // Tear the meta record: recovery truncates it, leaving nothing.
        let path = d.join("journal.log");
        let raw = std::fs::read(&path).unwrap();
        std::fs::write(&path, &raw[..raw.len() - 3]).unwrap();
        assert_eq!(Campaign::<Toy>::resume(&d, "z").unwrap().completed(), 0);
        assert_eq!(records(&d, &[]), ["meta kind=toy name=z"]);
    }
}
