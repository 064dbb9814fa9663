//! Durable fleet-campaign state for `coordinator --journal`.
//!
//! The coordinator's resume story has two layers. The *results* live in
//! the content-addressed [`DurableTier`](regmutex_bench::DurableTier)
//! (`<dir>/store/results.log`), which the dispatcher probes before
//! dispatching — a completed job replays from disk instead of going back
//! to a worker. The *campaign cursor and worker health* live here: one
//! checksummed record per verified job completion (`job-ok fp=…`) plus
//! worker quarantine/readmission transitions, so a resumed run can report
//! real progress, refuse a journal from a different campaign, and restore
//! circuit-breaker state without treating it as permanent — resume
//! re-probes every journaled quarantine before dispatching
//! ([`Coordinator::reprobe_quarantined`](crate::Coordinator::reprobe_quarantined)).
//!
//! Corruption handling is inherited from [`regmutex_durable::Journal`]
//! (torn tails truncated, flipped bits quarantined) plus keep-first
//! semantics here: a `job-ok` set cannot be flipped by duplicates, and an
//! undecodable record is simply absent — the job re-dispatches, which is
//! safe because results are verified end-to-end.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::Mutex;

use regmutex_durable::Journal;

/// Durable campaign state: the append handle plus the completions and
/// final worker-health state replayed from a previous run.
#[derive(Debug)]
pub struct FleetJournal {
    journal: Mutex<Journal>,
    completed: HashSet<u64>,
    quarantined: Vec<String>,
}

impl FleetJournal {
    fn log_path(dir: &Path) -> std::path::PathBuf {
        dir.join("journal.log")
    }

    fn meta_line(campaign: &str) -> String {
        format!("meta kind=fleet {campaign}")
    }

    /// Start a fresh campaign journal under `dir` (truncating any
    /// previous journal there). `campaign` pins the job matrix identity —
    /// everything that determines *which* jobs run, excluding throughput
    /// knobs (worker list, threads, seed) that the determinism contract
    /// proves output-irrelevant.
    pub fn create(dir: &Path, campaign: &str) -> Result<FleetJournal, String> {
        let mut journal = Journal::create(&Self::log_path(dir))
            .map_err(|e| format!("cannot create journal in {}: {e}", dir.display()))?;
        journal.append(&Self::meta_line(campaign));
        journal.sync();
        Ok(FleetJournal {
            journal: Mutex::new(journal),
            completed: HashSet::new(),
            quarantined: Vec::new(),
        })
    }

    /// Resume from an existing journal: verify the campaign identity,
    /// fold completions, and reduce quarantine/readmit transitions to the
    /// final per-worker state. Recovery diagnostics go to stderr.
    pub fn resume(dir: &Path, campaign: &str) -> Result<FleetJournal, String> {
        let (journal, replay) = Journal::open(&Self::log_path(dir)).map_err(|e| e.to_string())?;
        for d in &replay.diagnostics {
            eprintln!("[fleet] journal recovery: {d}");
        }
        let mut records = replay.records.iter();
        match records.next() {
            Some(meta) if *meta == Self::meta_line(campaign) => {}
            Some(meta) => {
                return Err(format!(
                    "journal campaign mismatch: journal has `{meta}`, \
                     this invocation is `{}`; refusing to resume",
                    Self::meta_line(campaign)
                ));
            }
            None => return FleetJournal::create(dir, campaign),
        }
        let mut completed = HashSet::new();
        let mut health: HashMap<&str, bool> = HashMap::new();
        for rec in records {
            if let Some(fp) = rec
                .strip_prefix("job-ok fp=")
                .and_then(|h| u64::from_str_radix(h, 16).ok())
            {
                completed.insert(fp);
            } else if let Some(addr) = rec.strip_prefix("quarantine addr=") {
                health.insert(addr, true);
            } else if let Some(addr) = rec.strip_prefix("readmit addr=") {
                health.insert(addr, false);
            }
            // Anything else is an unknown/corrupt record: ignore it. A
            // missing job-ok re-dispatches; a missing health transition
            // is corrected by the resume re-probe.
        }
        let quarantined = health
            .into_iter()
            .filter(|&(_, q)| q)
            .map(|(addr, _)| addr.to_string())
            .collect();
        Ok(FleetJournal {
            journal: Mutex::new(journal),
            completed,
            quarantined,
        })
    }

    /// Verified job completions replayed from a previous run.
    pub fn completed(&self) -> usize {
        self.completed.len()
    }

    /// Whether `fp` was journaled as complete by a previous run.
    pub fn contains(&self, fp: u64) -> bool {
        self.completed.contains(&fp)
    }

    /// Workers whose final journaled state was quarantined. Feed these to
    /// [`Coordinator::quarantine_workers`](crate::Coordinator::quarantine_workers);
    /// the pre-dispatch re-probe keeps the state from going stale.
    pub fn quarantined(&self) -> &[String] {
        &self.quarantined
    }

    pub(crate) fn job_ok(&self, fp: u64) {
        if self.completed.contains(&fp) {
            return; // already journaled by the run being resumed
        }
        self.journal
            .lock()
            .unwrap()
            .append(&format!("job-ok fp={fp:016x}"));
    }

    pub(crate) fn quarantine(&self, addr: &str) {
        self.journal
            .lock()
            .unwrap()
            .append(&format!("quarantine addr={addr}"));
    }

    pub(crate) fn readmit(&self, addr: &str) {
        self.journal
            .lock()
            .unwrap()
            .append(&format!("readmit addr={addr}"));
    }

    /// Flush batched appends (checkpoint boundary).
    pub fn sync(&self) {
        self.journal.lock().unwrap().sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rmx-fleetjournal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn completions_and_health_replay() {
        let d = dir("replay");
        let j = FleetJournal::create(&d, "fig07 budget=-").unwrap();
        j.job_ok(0xabc);
        j.job_ok(0xdef);
        j.job_ok(0xabc); // duplicate append is harmless
        j.quarantine("w1:1");
        j.quarantine("w2:2");
        j.readmit("w1:1");
        j.sync();
        drop(j);

        let j = FleetJournal::resume(&d, "fig07 budget=-").unwrap();
        assert_eq!(j.completed(), 2);
        assert!(j.contains(0xabc) && j.contains(0xdef) && !j.contains(0x123));
        assert_eq!(j.quarantined(), ["w2:2"]);
        // A replayed completion is not re-journaled.
        j.job_ok(0xabc);
        j.job_ok(0x999);
        j.sync();
        drop(j);
        let j = FleetJournal::resume(&d, "fig07 budget=-").unwrap();
        assert_eq!(j.completed(), 3);
    }

    #[test]
    fn mismatched_campaign_is_refused() {
        let d = dir("mismatch");
        drop(FleetJournal::create(&d, "fig07 budget=-").unwrap());
        let err = FleetJournal::resume(&d, "fig07 budget=5000").unwrap_err();
        assert!(err.contains("refusing to resume"), "{err}");
        assert!(FleetJournal::resume(&d, "fig07 budget=-").is_ok());
    }
}
