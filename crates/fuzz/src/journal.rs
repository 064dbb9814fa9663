//! The `fuzz --journal` record vocabulary.
//!
//! Every evaluated kernel appends one [`KernelRecord`] to the campaign's
//! [`Campaign`] journal: agreements as a one-line counter record,
//! divergences as a multi-line record carrying the full minimized
//! [`Artifact`] text. On `--resume`
//! [`crate::campaign::run_campaign_durable`] folds the contiguous prefix
//! of completed kernel indices into the report before evaluating
//! anything, so a SIGKILLed campaign continues where it stopped and
//! renders byte-identically to an uninterrupted run.

use regmutex::Technique;
use regmutex_durable::{Campaign, Record};

use crate::artifact::Artifact;
use crate::campaign::{CampaignConfig, FoundDivergence};
use crate::oracle::{Divergence, DivergenceKind};

/// Durable campaign state for `fuzz --journal`.
pub type FuzzJournal = Campaign<KernelRecord>;

/// One journaled kernel evaluation. `runs` is the exact number of
/// simulator submissions the kernel cost (oracle runs + escalations +
/// minimizer probes), so replayed counters match a live run.
#[derive(Debug, Clone)]
pub enum KernelRecord {
    /// All invariants held.
    Agreement {
        /// Campaign index of the kernel.
        index: u64,
        /// Simulations attributed to this kernel.
        runs: u64,
        /// Blessed watchdog escalations.
        escalations: u32,
    },
    /// An invariant failed; the minimized divergence (which carries the
    /// kernel's index) rides along.
    Divergence {
        /// Simulations attributed to this kernel (including minimizer).
        runs: u64,
        /// The reconstructed finding.
        found: FoundDivergence,
    },
}

impl Record for KernelRecord {
    const KIND: &'static str = "fuzz";

    type Identity = CampaignConfig;

    /// Everything that shapes the deterministic rendered report is
    /// pinned: seed, index range, oracle budgets, planted fault, and
    /// minimizer settings. `--jobs`, batch size and the duration budget
    /// are left out.
    fn identity(cfg: &CampaignConfig) -> String {
        let fault = cfg.fault.as_ref().map_or("-".to_string(), |f| {
            format!("{}:{}:{}:{}", f.class, f.severity, f.seed, f.technique)
        });
        format!(
            "seed={:#x} start={} iters={} budget={} esc={} \
             fault={fault} minimize={} mintests={} maxdiv={}",
            cfg.seed,
            cfg.start,
            cfg.iters,
            cfg.oracle.cycle_budget,
            cfg.oracle.escalate_factor,
            u8::from(cfg.minimize),
            cfg.minimize_tests,
            cfg.max_divergences
        )
    }

    fn encode(&self) -> String {
        match self {
            KernelRecord::Agreement {
                index,
                runs,
                escalations,
            } => format!("ok index={index} runs={runs} esc={escalations}"),
            KernelRecord::Divergence { runs, found } => format!(
                "div index={} runs={runs} technique={} kind={} steps={} tests={} instr={}\n\
                 detail={}\n{}",
                found.index,
                found.divergence.technique,
                found.divergence.kind.name(),
                found.minimize_steps,
                found.minimize_tests,
                found.instructions,
                found.divergence.detail,
                found.artifact.to_text()
            ),
        }
    }

    fn decode(rec: &str) -> Option<Self> {
        fn field<T: std::str::FromStr>(part: Option<&str>, key: &str) -> Option<T> {
            part?.strip_prefix(key)?.parse().ok()
        }
        if let Some(rest) = rec.strip_prefix("ok ") {
            let mut f = rest.split(' ');
            let index = field(f.next(), "index=")?;
            let runs = field(f.next(), "runs=")?;
            let escalations = field(f.next(), "esc=")?;
            if f.next().is_some() {
                return None;
            }
            return Some(KernelRecord::Agreement {
                index,
                runs,
                escalations,
            });
        }
        let rest = rec.strip_prefix("div ")?;
        let (header, body) = rest.split_once('\n')?;
        let mut f = header.split(' ');
        let index: u64 = field(f.next(), "index=")?;
        let runs = field(f.next(), "runs=")?;
        let technique: Technique = field(f.next(), "technique=")?;
        let kind = DivergenceKind::parse(f.next()?.strip_prefix("kind=")?).ok()?;
        let steps = field(f.next(), "steps=")?;
        let tests = field(f.next(), "tests=")?;
        let instructions = field(f.next(), "instr=")?;
        if f.next().is_some() {
            return None;
        }
        let (detail_line, artifact_text) = body.split_once('\n')?;
        let detail = detail_line.strip_prefix("detail=")?.to_string();
        let artifact = Artifact::parse(artifact_text).ok()?;
        let found = FoundDivergence {
            index,
            seed: artifact.seed,
            divergence: Divergence {
                technique,
                kind,
                detail,
            },
            artifact,
            instructions,
            minimize_steps: steps,
            minimize_tests: tests,
        };
        Some(KernelRecord::Divergence { runs, found })
    }

    fn key(&self) -> Option<u64> {
        Some(match self {
            KernelRecord::Agreement { index, .. } => *index,
            KernelRecord::Divergence { found, .. } => found.index,
        })
    }
}
