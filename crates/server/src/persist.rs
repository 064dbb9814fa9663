//! The disk-backed durable result tier.
//!
//! [`DiskTier`] implements [`regmutex_bench::DurableTier`] on top of
//! [`regmutex_durable::ResultStore`], using this crate's lossless wire
//! codec ([`wire::report_to_json`] / [`wire::report_from_json`]) as the
//! on-disk payload format. The codec already round-trips every report
//! field (checksums as hex strings, stall attribution, plans) for the
//! HTTP API, so persisting through it adds no second serialization to
//! keep honest.
//!
//! Only `Ok` reports are persisted. A deterministic simulation that
//! failed once fails identically when re-run, so skipping errors
//! preserves byte-identical resumed output without inventing a lossy
//! `RunError` serialization for the structured `Sim`/`InvalidKernel`
//! payloads.
//!
//! The same tier serves three callers: `serve --cache-dir` (a restarted
//! daemon comes up warm), the campaign verbs' `--journal` directories
//! (completed jobs replay from disk instead of re-simulating), and the
//! fleet coordinator (verified worker results are skipped on resume).

use std::path::Path;
use std::sync::Arc;

use regmutex_bench::{CachedResult, DurableTier};
use regmutex_durable::ResultStore;

use crate::json;
use crate::wire;

/// Layout: results live in the log `<dir>/store/results.log`, next to
/// the campaign journal (`<dir>/journal.log`) when one is in use.
pub struct DiskTier {
    store: ResultStore,
}

impl DiskTier {
    /// Open (creating if needed) the result store under `dir/store`.
    pub fn open(dir: &Path) -> std::io::Result<DiskTier> {
        Ok(DiskTier {
            store: ResultStore::open(&dir.join("store"))?,
        })
    }

    /// [`DiskTier::open`] behind an [`Arc`], ready for
    /// [`regmutex_bench::Runner::set_tier`].
    pub fn shared(dir: &Path) -> std::io::Result<Arc<DiskTier>> {
        Ok(Arc::new(Self::open(dir)?))
    }

    /// The underlying store (warm-start accounting).
    pub fn store(&self) -> &ResultStore {
        &self.store
    }
}

impl DurableTier for DiskTier {
    fn load(&self, key: u64) -> Option<CachedResult> {
        let bytes = self.store.get(key)?;
        let text = String::from_utf8(bytes).ok()?;
        let v = json::parse(&text).ok()?;
        let report = wire::report_from_json(&v).ok()?;
        Some(Ok(report))
    }

    fn save(&self, key: u64, value: &CachedResult) {
        if let Ok(report) = value {
            self.store
                .put(key, wire::report_to_json(report).encode().as_bytes());
        }
    }

    fn sync(&self) {
        self.store.sync();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex::{RunError, RunReport, Technique};
    use regmutex_sim::{SimStats, StallReason};

    fn tier_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rmx-disktier-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn tier(tag: &str) -> DiskTier {
        DiskTier::open(&tier_dir(tag)).unwrap()
    }

    fn report() -> RunReport {
        let mut stats = SimStats {
            cycles: 1234,
            instructions: 987,
            checksum: 0xfeed_f00d_dead_beef,
            ..Default::default()
        };
        stats.stall_cycles[StallReason::Acquire.index()] = 55;
        RunReport {
            technique: Technique::RegMutex,
            kernel_name: "persist-test".into(),
            stats,
            plan: None,
            theoretical_occupancy_warps: 36,
            max_warps: 48,
            storage_overhead_bits: 128,
        }
    }

    #[test]
    fn ok_reports_round_trip_losslessly() {
        let t = tier("roundtrip");
        t.save(42, &Ok(report()));
        let got = t.load(42).expect("saved result must load").unwrap();
        let want = report();
        assert_eq!(got.technique, want.technique);
        assert_eq!(got.kernel_name, want.kernel_name);
        assert_eq!(got.stats, want.stats);
        assert_eq!(
            got.theoretical_occupancy_warps,
            want.theoretical_occupancy_warps
        );
        assert_eq!(got.storage_overhead_bits, want.storage_overhead_bits);
    }

    #[test]
    fn errors_are_not_persisted() {
        let t = tier("errors");
        t.save(7, &Err(RunError::Panicked("boom".into())));
        assert!(t.load(7).is_none());
        assert_eq!(t.store().entries(), 0);
    }

    #[test]
    fn corrupt_store_entry_is_a_miss_not_a_lie() {
        let dir = tier_dir("corrupt");
        let t = DiskTier::open(&dir).unwrap();
        t.save(9, &Ok(report()));
        // Corrupt the payload on disk; the store checksum rejects it.
        let file = dir.join("store").join("results.log");
        let mut raw = std::fs::read(&file).unwrap();
        let last = raw.len() - 1;
        raw[last] ^= 0x01;
        std::fs::write(&file, &raw).unwrap();
        assert!(t.load(9).is_none());
        assert_eq!(t.store().rejected(), 1);
    }

    #[test]
    fn power_loss_keeps_every_result_of_a_completed_batch() {
        use regmutex_bench::{JobSpec, Runner};
        use regmutex_sim::{GpuConfig, LaunchConfig};

        let dir = tier_dir("powerloss");
        let tier = DiskTier::shared(&dir).unwrap();
        let mut runner = Runner::new(2);
        runner.set_tier(Arc::clone(&tier) as Arc<dyn DurableTier>);
        let w = regmutex_workloads::suite::by_name("Gaussian").unwrap();
        let cfg = GpuConfig::test_tiny();
        let specs: Vec<JobSpec> = regmutex::ALL_TECHNIQUES
            .iter()
            .map(|&t| {
                JobSpec::new(
                    format!("powerloss/{t}"),
                    &w.kernel,
                    &cfg,
                    LaunchConfig::new(2),
                    t,
                )
            })
            .collect();
        let done = runner.run_all(&specs);
        let log = dir.join("store").join("results.log");
        let committed = std::fs::metadata(&log).unwrap().len() as usize;

        // Saves after the batch's group commit, never synced: power loss
        // keeps only the committed bytes plus part of the next record.
        for key in 0..3 {
            tier.save(0xdead_0000 + key, &Ok(report()));
        }
        let raw = std::fs::read(&log).unwrap();
        let record = (raw.len() - committed) / 3;
        std::fs::write(&log, &raw[..committed + record / 2]).unwrap();

        let reopened = DiskTier::open(&dir).unwrap();
        let ok: Vec<_> = specs
            .iter()
            .zip(&done)
            .filter_map(|(spec, r)| Some((spec, r.as_ref().ok()?)))
            .collect();
        assert!(ok.len() >= 3, "the batch must commit several results");
        for (spec, want) in &ok {
            let got = reopened
                .load(spec.fingerprint())
                .expect("committed result loads");
            assert_eq!(got.unwrap().stats, want.stats, "{}", spec.label);
        }
        assert!(
            reopened.load(0xdead_0000).is_none(),
            "the cut record is a miss"
        );
        assert_eq!(reopened.store().entries(), ok.len());
    }
}
