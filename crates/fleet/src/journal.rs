//! The `coordinator --journal` record vocabulary.
//!
//! The coordinator's resume story has two layers. The *results* live in
//! the content-addressed [`DurableTier`](regmutex_bench::DurableTier)
//! (`<dir>/store/results.log`), which the dispatcher probes before
//! dispatching — a completed job replays from disk instead of going back
//! to a worker. The *campaign cursor and worker health* live in the
//! campaign journal: one record per verified job completion plus worker
//! quarantine/readmission transitions, so a resumed run can report real
//! progress, refuse a journal from a different campaign, and restore
//! circuit-breaker state without treating it as permanent — resume
//! re-probes every journaled quarantine before dispatching
//! ([`Coordinator::reprobe_quarantined`](crate::Coordinator::reprobe_quarantined)).

use regmutex_durable::Record;

/// One fleet journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetRecord {
    /// A verified job completion, by job fingerprint.
    JobOk(u64),
    /// The circuit breaker benched the worker at this address.
    Quarantine(String),
    /// A benched worker answered again and was re-admitted.
    Readmit(String),
}

impl Record for FleetRecord {
    const KIND: &'static str = "fleet";

    /// The job matrix identity (which jobs run). The worker list, seed
    /// and thread count stay out: they cannot change the output.
    type Identity = str;

    fn identity(campaign: &str) -> String {
        campaign.to_string()
    }

    fn encode(&self) -> String {
        match self {
            FleetRecord::JobOk(fp) => format!("job-ok fp={fp:016x}"),
            FleetRecord::Quarantine(addr) => format!("quarantine addr={addr}"),
            FleetRecord::Readmit(addr) => format!("readmit addr={addr}"),
        }
    }

    fn decode(rec: &str) -> Option<Self> {
        if let Some(hex) = rec.strip_prefix("job-ok fp=") {
            return u64::from_str_radix(hex, 16).ok().map(FleetRecord::JobOk);
        }
        if let Some(addr) = rec.strip_prefix("quarantine addr=") {
            return Some(FleetRecord::Quarantine(addr.to_string()));
        }
        let addr = rec.strip_prefix("readmit addr=")?;
        Some(FleetRecord::Readmit(addr.to_string()))
    }

    /// Health transitions have no key: they replay in order and fold
    /// last-wins in [`Coordinator::set_journal`](crate::Coordinator::set_journal).
    fn key(&self) -> Option<u64> {
        match self {
            FleetRecord::JobOk(fp) => Some(*fp),
            FleetRecord::Quarantine(_) | FleetRecord::Readmit(_) => None,
        }
    }
}
