//! Deterministic fault-injection campaigns against the RegMutex safety net.
//!
//! A campaign crosses `workloads × fault matrix × seeds`: every job runs a
//! real benchmark kernel with a seeded [`FaultPlan`] wired into the SM's
//! register manager ([`regmutex::Session::run_faulted`]), then classifies
//! what the safety net did with the injected corruption:
//!
//! * **detected** — the run aborted with a structured [`SimError`]
//!   (ledger violation, missing mapping, deadlock detector, watchdog);
//! * **benign** — the run completed and the store checksum matches the
//!   fault-free golden run (the fault was absorbed: only timing changed);
//! * **silent corruption** — the run completed but the checksum differs.
//!   This is the one outcome the safety net must never allow; a single
//!   occurrence fails the campaign;
//! * **not triggered** — the plan's trigger point was never reached
//!   (e.g. a short kernel retired before the scheduled event count).
//!
//! Every job is panic-isolated and capped by a cycle budget derived from
//! its golden run, so a campaign always terminates with a full report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use regmutex::{RunError, Session, Technique};
use regmutex_durable::{Campaign, Record, Run};
use regmutex_sim::fault::{FaultClass, FaultLog, FaultPlan, Severity};
use regmutex_sim::{GpuConfig, SimError};
use regmutex_workloads::{suite, Workload};

/// The fault matrix every campaign crosses with its workloads and seeds:
/// each fault class at the severities where its light/severe behaviours
/// actually differ (`CorruptLut` has a single behaviour, so one entry).
pub const FAULT_MATRIX: &[(FaultClass, Severity)] = &[
    (FaultClass::DroppedRelease, Severity::Light),
    (FaultClass::DroppedRelease, Severity::Severe),
    (FaultClass::SpuriousAcquire, Severity::Light),
    (FaultClass::SpuriousAcquire, Severity::Severe),
    (FaultClass::CorruptLut, Severity::Severe),
    (FaultClass::StuckSrpBit, Severity::Light),
    (FaultClass::StuckSrpBit, Severity::Severe),
    (FaultClass::DelayedRelease, Severity::Light),
    (FaultClass::DelayedRelease, Severity::Severe),
    (FaultClass::MemLatencySpike, Severity::Light),
    (FaultClass::MemLatencySpike, Severity::Severe),
];

/// What happened to one injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The plan's trigger point was never reached; nothing was injected.
    NotTriggered,
    /// The fault was injected and absorbed: the run completed with the
    /// golden checksum (only timing was disturbed).
    Benign,
    /// The safety net aborted the run with a structured error.
    Detected {
        /// Which detector fired: `ledger`, `translation`, `deadlock`,
        /// `watchdog`, or `panic`.
        detector: &'static str,
        /// Cycles from the first injection to the abort, when both ends
        /// are known.
        cycles_to_detection: Option<u64>,
    },
    /// The run completed with a wrong checksum — the safety net failed.
    SilentCorruption {
        /// Golden checksum.
        expected: u64,
        /// Checksum the faulted run produced.
        got: u64,
    },
}

/// One classified injection run.
#[derive(Debug, Clone)]
pub struct Injection {
    /// `workload/class/severity/sN` label.
    pub label: String,
    /// Fault class injected.
    pub class: FaultClass,
    /// Severity injected.
    pub severity: Severity,
    /// What the safety net did with it.
    pub outcome: Outcome,
}

/// A campaign description: which workloads, how many seeds per matrix
/// entry, which technique to attack, and how many worker threads.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Workload names (must exist in `regmutex_workloads::suite`).
    pub workloads: Vec<String>,
    /// Seeds per `(workload, class, severity)` cell.
    pub seeds: u64,
    /// Technique whose manager the faults attack.
    pub technique: Technique,
    /// Worker threads.
    pub jobs: usize,
    /// Override the absolute watchdog bound on each workload's home
    /// architecture (`Workload::table_config`).
    pub watchdog_cycles: Option<u64>,
    /// Override the no-progress detector's `gmem_latency` multiplier.
    pub stall_multiplier: Option<u32>,
}

impl CampaignSpec {
    /// The default campaign: the six-workload mix (barrier-free and
    /// barrier-synchronised) against RegMutex with 8 seeds — 528 injections.
    pub fn default_campaign(jobs: usize) -> Self {
        CampaignSpec {
            workloads: ["BFS", "HotSpot3D", "SAD", "Gaussian", "MergeSort", "SPMV"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            seeds: 8,
            technique: Technique::RegMutex,
            jobs,
            watchdog_cycles: None,
            stall_multiplier: None,
        }
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Every classified injection, in deterministic submission order.
    pub injections: Vec<Injection>,
    /// Technique the campaign attacked.
    pub technique: Technique,
    /// Workload count (for the header line).
    pub workloads: usize,
}

impl CampaignReport {
    fn count(&self, f: impl Fn(&Outcome) -> bool) -> usize {
        self.injections.iter().filter(|i| f(&i.outcome)).count()
    }

    /// Injections the safety net caught.
    pub fn detected(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Detected { .. }))
    }

    /// Injections absorbed with the golden checksum.
    pub fn benign(&self) -> usize {
        self.count(|o| matches!(o, Outcome::Benign))
    }

    /// Silent corruption — must be zero for a passing campaign.
    pub fn silent(&self) -> usize {
        self.count(|o| matches!(o, Outcome::SilentCorruption { .. }))
    }

    /// Plans whose trigger point was never reached.
    pub fn not_triggered(&self) -> usize {
        self.count(|o| matches!(o, Outcome::NotTriggered))
    }

    /// Fault classes with at least one detected injection.
    pub fn classes_detected(&self) -> Vec<FaultClass> {
        let mut out: Vec<FaultClass> = Vec::new();
        for i in &self.injections {
            if matches!(i.outcome, Outcome::Detected { .. }) && !out.contains(&i.class) {
                out.push(i.class);
            }
        }
        out
    }

    /// Did every fault class get caught at least once? The acceptance bar
    /// for a full campaign (and for `regmutex-cli chaos --expect-detections`).
    pub fn all_classes_detected(&self) -> bool {
        self.classes_detected().len() == regmutex_sim::ALL_FAULT_CLASSES.len()
    }

    /// `(min, mean, max)` cycles from first injection to abort, over the
    /// detected injections where both ends are known.
    pub fn time_to_detection(&self) -> Option<(u64, u64, u64)> {
        let ttds: Vec<u64> = self
            .injections
            .iter()
            .filter_map(|i| match i.outcome {
                Outcome::Detected {
                    cycles_to_detection: Some(t),
                    ..
                } => Some(t),
                _ => None,
            })
            .collect();
        let (&min, &max) = (ttds.iter().min()?, ttds.iter().max()?);
        let mean = ttds.iter().sum::<u64>() / ttds.len() as u64;
        Some((min, mean, max))
    }

    /// Render the campaign summary: per-(class, severity) outcome counts,
    /// time-to-detection stats, and the silent-corruption verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "chaos campaign: {} | {} workload(s) x {} matrix entries x seeds = {} injections\n\n",
            self.technique,
            self.workloads,
            FAULT_MATRIX.len(),
            self.injections.len()
        ));
        out.push_str(&format!(
            "{:<18} {:<7} {:>5} {:>9} {:>7} {:>8} {:>7}\n",
            "fault class", "sev", "runs", "detected", "benign", "no-trig", "silent"
        ));
        for &(class, severity) in FAULT_MATRIX {
            let cell: Vec<&Injection> = self
                .injections
                .iter()
                .filter(|i| i.class == class && i.severity == severity)
                .collect();
            let n = |f: &dyn Fn(&Outcome) -> bool| cell.iter().filter(|i| f(&i.outcome)).count();
            out.push_str(&format!(
                "{:<18} {:<7} {:>5} {:>9} {:>7} {:>8} {:>7}\n",
                class.to_string(),
                severity.to_string(),
                cell.len(),
                n(&|o| matches!(o, Outcome::Detected { .. })),
                n(&|o| matches!(o, Outcome::Benign)),
                n(&|o| matches!(o, Outcome::NotTriggered)),
                n(&|o| matches!(o, Outcome::SilentCorruption { .. })),
            ));
        }
        out.push_str(&format!(
            "\ntotals: {} detected, {} benign, {} not triggered, {} silent\n",
            self.detected(),
            self.benign(),
            self.not_triggered(),
            self.silent()
        ));
        if let Some((min, mean, max)) = self.time_to_detection() {
            out.push_str(&format!(
                "time to detection (cycles): min={min} mean={mean} max={max}\n"
            ));
        }
        let classes = self.classes_detected();
        out.push_str(&format!(
            "classes detected at least once: {}\n",
            classes
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        ));
        if self.silent() == 0 {
            out.push_str("silent corruption: NONE\n");
        } else {
            out.push_str("silent corruption:\n");
            for i in &self.injections {
                if let Outcome::SilentCorruption { expected, got } = i.outcome {
                    out.push_str(&format!(
                        "  {}: checksum {got:#018x} != golden {expected:#018x}\n",
                        i.label
                    ));
                }
            }
        }
        out
    }
}

/// Encode one [`Outcome`] as a journal field (colon-separated, no
/// whitespace; losslessly decoded by [`decode_outcome`]).
fn encode_outcome(o: &Outcome) -> String {
    match o {
        Outcome::NotTriggered => "not-triggered".to_string(),
        Outcome::Benign => "benign".to_string(),
        Outcome::Detected {
            detector,
            cycles_to_detection,
        } => match cycles_to_detection {
            Some(t) => format!("detected:{detector}:{t}"),
            None => format!("detected:{detector}:-"),
        },
        Outcome::SilentCorruption { expected, got } => {
            format!("silent:{expected:#018x}:{got:#018x}")
        }
    }
}

/// Decode an [`Outcome`] journal field; `None` on anything unexpected
/// (the record is then treated as missing and the injection re-runs).
fn decode_outcome(s: &str) -> Option<Outcome> {
    match s {
        "not-triggered" => return Some(Outcome::NotTriggered),
        "benign" => return Some(Outcome::Benign),
        _ => {}
    }
    let mut parts = s.split(':');
    match parts.next()? {
        "detected" => {
            // Map back onto the classifier's static detector names.
            let detector = match parts.next()? {
                "ledger" => "ledger",
                "translation" => "translation",
                "deadlock" => "deadlock",
                "watchdog" => "watchdog",
                "panic" => "panic",
                "other" => "other",
                _ => return None,
            };
            let ttd = match parts.next()? {
                "-" => None,
                t => Some(t.parse::<u64>().ok()?),
            };
            if parts.next().is_some() {
                return None;
            }
            Some(Outcome::Detected {
                detector,
                cycles_to_detection: ttd,
            })
        }
        "silent" => {
            let hex = |p: &str| u64::from_str_radix(p.strip_prefix("0x")?, 16).ok();
            let expected = hex(parts.next()?)?;
            let got = hex(parts.next()?)?;
            if parts.next().is_some() {
                return None;
            }
            Some(Outcome::SilentCorruption { expected, got })
        }
        _ => None,
    }
}

/// The `chaos --journal` record: one classified injection, by its index
/// in the deterministic job list (label, class and severity re-derive
/// from that list, which the meta line pins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectionRecord {
    /// Index of the injection in the campaign's job list.
    pub index: u64,
    /// What the safety net did with it.
    pub outcome: Outcome,
}

impl Record for InjectionRecord {
    const KIND: &'static str = "chaos";

    type Identity = CampaignSpec;

    /// Everything that decides which job an injection index names.
    fn identity(spec: &CampaignSpec) -> String {
        let opt = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
        format!(
            "technique={} seeds={} watchdog={} stall={} matrix={} workloads={}",
            spec.technique,
            spec.seeds,
            opt(spec.watchdog_cycles),
            opt(spec.stall_multiplier.map(u64::from)),
            FAULT_MATRIX.len(),
            spec.workloads.join(",")
        )
    }

    fn encode(&self) -> String {
        format!(
            "inj index={} outcome={}",
            self.index,
            encode_outcome(&self.outcome)
        )
    }

    fn decode(rec: &str) -> Option<Self> {
        let (index, outcome) = rec.strip_prefix("inj index=")?.split_once(" outcome=")?;
        Some(InjectionRecord {
            index: index.parse().ok()?,
            outcome: decode_outcome(outcome)?,
        })
    }

    fn key(&self) -> Option<u64> {
        Some(self.index)
    }
}

/// Run a campaign. Fails early (with a message) only on setup errors: an
/// unknown workload name, or a golden run that does not complete cleanly.
/// Injection failures never abort the campaign — they are the data.
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignReport, String> {
    match run_campaign_durable(spec, None, None)? {
        Run::Complete(report) => Ok(report),
        Run::Checkpointed { .. } => unreachable!("no cancel check installed"),
    }
}

/// [`run_campaign`] with durability hooks: completed injections are
/// journaled as they land (any completion order), replayed injections are
/// skipped on resume, and `cancel` is polled between injections for the
/// graceful checkpoint-and-exit path. The final report is assembled in
/// deterministic submission order, so a resumed campaign renders
/// byte-identically to an uninterrupted one at any worker count.
pub fn run_campaign_durable(
    spec: &CampaignSpec,
    journal: Option<&Campaign<InjectionRecord>>,
    cancel: Option<&(dyn Fn() -> bool + Sync)>,
) -> Result<Run<CampaignReport>, String> {
    // Resolve workloads and establish each one's golden (fault-free) run.
    let mut targets: Vec<(Workload, GpuConfig, u64, u64)> = Vec::new();
    for name in &spec.workloads {
        let w = suite::by_name(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
        let mut cfg = w.table_config();
        if let Some(wd) = spec.watchdog_cycles {
            cfg.watchdog_cycles = wd;
        }
        if let Some(m) = spec.stall_multiplier {
            cfg.stall_multiplier = m;
        }
        let session = Session::new(cfg.clone());
        let golden = session
            .run(&w.kernel, w.launch(), spec.technique)
            .map_err(|e| format!("golden run {name}/{} failed: {e}", spec.technique))?;
        targets.push((w, cfg, golden.stats.cycles, golden.stats.checksum));
    }

    // The full job list, in deterministic order.
    struct Job {
        windex: usize,
        class: FaultClass,
        severity: Severity,
        seed: u64,
        label: String,
    }
    let mut jobs: Vec<Job> = Vec::new();
    for (wi, (w, ..)) in targets.iter().enumerate() {
        for &(class, severity) in FAULT_MATRIX {
            for s in 0..spec.seeds {
                // Decorrelate seeds across workloads; the plan generator
                // further salts by class and severity.
                let seed = ((wi as u64) << 32) | s;
                jobs.push(Job {
                    windex: wi,
                    class,
                    severity,
                    seed,
                    label: format!("{}/{class}/{severity}/s{s}", w.name),
                });
            }
        }
    }

    // Seed the result set with injections replayed from the journal (the
    // outcome is journaled; label/class/severity re-derive from the
    // deterministic job list, which the verified meta record pins).
    let mut replayed: Vec<(usize, Injection)> = Vec::new();
    if let Some(j) = journal {
        for (index, job) in jobs.iter().enumerate() {
            let Some(rec) = j.replayed(index as u64) else {
                continue;
            };
            replayed.push((
                index,
                Injection {
                    label: job.label.clone(),
                    class: job.class,
                    severity: job.severity,
                    outcome: rec.outcome.clone(),
                },
            ));
        }
    }
    let skip: std::collections::HashSet<usize> = replayed.iter().map(|(n, _)| *n).collect();

    let done: Mutex<Vec<(usize, Injection)>> = Mutex::new(replayed);
    let cursor = AtomicUsize::new(0);
    let stopped = AtomicBool::new(false);
    let workers = spec.jobs.max(1).min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                if stopped.load(Ordering::Relaxed) {
                    break;
                }
                if let Some(c) = cancel {
                    if c() {
                        stopped.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                let n = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(n) else { break };
                if skip.contains(&n) {
                    continue;
                }
                let (w, cfg, golden_cycles, golden_checksum) = &targets[job.windex];
                let outcome = run_one(
                    w,
                    cfg,
                    spec.technique,
                    job.class,
                    job.severity,
                    job.seed,
                    *golden_cycles,
                    *golden_checksum,
                );
                if let Some(j) = journal {
                    j.append(&InjectionRecord {
                        index: n as u64,
                        outcome: outcome.clone(),
                    });
                }
                done.lock().unwrap().push((
                    n,
                    Injection {
                        label: job.label.clone(),
                        class: job.class,
                        severity: job.severity,
                        outcome,
                    },
                ));
            });
        }
    });

    if let Some(j) = journal {
        j.sync();
    }
    let mut results = done.into_inner().unwrap();
    if results.len() < jobs.len() {
        return Ok(Run::Checkpointed {
            completed: results.len() as u64,
            total: jobs.len() as u64,
        });
    }
    results.sort_by_key(|(n, _)| *n);
    Ok(Run::Complete(CampaignReport {
        injections: results.into_iter().map(|(_, i)| i).collect(),
        technique: spec.technique,
        workloads: targets.len(),
    }))
}

/// One injection run: wrap the manager in a `FaultInjector`, cap the run
/// at a budget derived from the golden cycle count, classify the result.
#[allow(clippy::too_many_arguments)]
fn run_one(
    w: &Workload,
    cfg: &GpuConfig,
    technique: Technique,
    class: FaultClass,
    severity: Severity,
    seed: u64,
    golden_cycles: u64,
    golden_checksum: u64,
) -> Outcome {
    let mut run_cfg = cfg.clone();
    // Budget: generous slack over the golden run plus two deadlock-detector
    // windows, so the watchdog is a backstop rather than the first detector.
    let budget = golden_cycles * 4 + run_cfg.stall_limit() * 2 + 100_000;
    run_cfg.watchdog_cycles = run_cfg.watchdog_cycles.min(budget);

    let plan = FaultPlan::generate(class, severity, seed, &run_cfg);
    let log = Arc::new(FaultLog::default());
    let session = Session::new(run_cfg);
    let result = catch_unwind(AssertUnwindSafe(|| {
        session.run_faulted(&w.kernel, w.launch(), technique, &plan, Arc::clone(&log))
    }));

    match result {
        Err(_) => Outcome::Detected {
            detector: "panic",
            cycles_to_detection: None,
        },
        Ok(Ok(report)) => {
            if log.injections() == 0 {
                Outcome::NotTriggered
            } else if report.stats.checksum == golden_checksum {
                Outcome::Benign
            } else {
                Outcome::SilentCorruption {
                    expected: golden_checksum,
                    got: report.stats.checksum,
                }
            }
        }
        Ok(Err(err)) => {
            let (detector, at) = match &err {
                RunError::Sim(SimError::LedgerViolation { cycle, .. }) => ("ledger", Some(*cycle)),
                RunError::Sim(SimError::NoMapping { cycle, .. }) => ("translation", Some(*cycle)),
                RunError::Sim(SimError::Deadlock { cycle, .. }) => ("deadlock", Some(*cycle)),
                RunError::Sim(SimError::WatchdogExpired { limit }) => ("watchdog", Some(*limit)),
                _ => ("other", None),
            };
            let ttd = match (at, log.first_injection_cycle()) {
                (Some(end), Some(start)) => Some(end.saturating_sub(start)),
                _ => None,
            };
            Outcome::Detected {
                detector,
                cycles_to_detection: ttd,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_every_class() {
        for class in regmutex_sim::ALL_FAULT_CLASSES {
            assert!(
                FAULT_MATRIX.iter().any(|&(c, _)| c == class),
                "{class} missing from the matrix"
            );
        }
        assert_eq!(FAULT_MATRIX.len(), 11);
    }

    #[test]
    fn unknown_workload_is_a_setup_error() {
        let spec = CampaignSpec {
            workloads: vec!["NoSuchApp".into()],
            seeds: 1,
            technique: Technique::RegMutex,
            jobs: 1,
            watchdog_cycles: None,
            stall_multiplier: None,
        };
        let err = run_campaign(&spec).unwrap_err();
        assert!(err.contains("NoSuchApp"), "{err}");
    }

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec {
            workloads: vec!["BFS".into()],
            seeds: 1,
            technique: Technique::RegMutex,
            jobs: 2,
            watchdog_cycles: None,
            stall_multiplier: None,
        }
    }

    fn journal_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!(
            "rmx-chaos-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn interrupted_campaign_resumes_to_identical_report() {
        let spec = tiny_spec();
        let golden = run_campaign(&spec).expect("golden campaign");

        // Run with a journal, cancelling after a few completions.
        let dir = journal_dir("resume");
        let journal = Campaign::create(&dir, &spec).unwrap();
        let polls = AtomicUsize::new(0);
        let cancel = move || polls.fetch_add(1, Ordering::Relaxed) >= 6;
        let first =
            run_campaign_durable(&spec, Some(&journal), Some(&cancel)).expect("setup must succeed");
        let completed = match first {
            Run::Checkpointed { completed, total } => {
                assert_eq!(total, FAULT_MATRIX.len() as u64);
                assert!(completed < total, "cancel must leave work behind");
                completed
            }
            Run::Complete(_) => panic!("cancel must checkpoint"),
        };
        drop(journal);

        // Resume: replay the journal, run only the remainder, and the
        // assembled report must byte-match the uninterrupted golden.
        let journal = Campaign::resume(&dir, &spec).unwrap();
        assert_eq!(journal.completed() as u64, completed);
        match run_campaign_durable(&spec, Some(&journal), None).unwrap() {
            Run::Complete(report) => {
                assert_eq!(report.render(), golden.render());
            }
            Run::Checkpointed { .. } => panic!("no cancel on resume"),
        }
    }

    #[test]
    fn smoke_campaign_has_no_silent_corruption() {
        // Two workloads (one barrier-free, one barrier-synchronised), two
        // seeds: 44 injections. The full 500+ campaign runs in CI/CLI; this
        // keeps `cargo test` fast while exercising the whole engine.
        let spec = CampaignSpec {
            workloads: vec!["BFS".into(), "MergeSort".into()],
            seeds: 2,
            technique: Technique::RegMutex,
            jobs: super::super::runner::default_jobs(),
            watchdog_cycles: None,
            stall_multiplier: None,
        };
        let report = run_campaign(&spec).expect("setup must succeed");
        assert_eq!(report.injections.len(), 2 * FAULT_MATRIX.len() * 2);
        assert_eq!(report.silent(), 0, "{}", report.render());
        assert!(
            report.detected() > 0,
            "nothing detected:\n{}",
            report.render()
        );
        let rendered = report.render();
        assert!(rendered.contains("silent corruption: NONE"), "{rendered}");
    }
}
