//! The one judgement of a run against its reference: register
//! time-sharing may change occupancy and timing, never results. Fuzz, the
//! figures, `compare`, chaos and the cross-technique tests all ask it.

use crate::runner::{RunError, RunReport, Technique};

/// The invariants [`verdict`] checks, in its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DivergenceKind {
    /// The run failed where its reference completed.
    Verdict,
    /// Store checksums disagree with the reference.
    Checksum,
    /// Theoretical occupancy fell below the baseline's.
    Occupancy,
    /// An untransformed RegMutex run differs from the baseline.
    Fallback,
}

impl DivergenceKind {
    /// Stable artifact-format name.
    pub fn name(self) -> &'static str {
        match self {
            DivergenceKind::Checksum => "checksum",
            DivergenceKind::Occupancy => "occupancy",
            DivergenceKind::Verdict => "verdict",
            DivergenceKind::Fallback => "fallback",
        }
    }

    /// Parse an artifact-format name.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "checksum" => Ok(DivergenceKind::Checksum),
            "occupancy" => Ok(DivergenceKind::Occupancy),
            "verdict" => Ok(DivergenceKind::Verdict),
            "fallback" => Ok(DivergenceKind::Fallback),
            other => Err(format!(
                "unknown divergence kind '{other}' (expected checksum|occupancy|verdict|fallback)"
            )),
        }
    }

    /// What broke, in words, for error rows.
    pub fn describe(self) -> &'static str {
        match self {
            DivergenceKind::Checksum => "functional divergence",
            DivergenceKind::Occupancy => "theoretical occupancy below the baseline",
            DivergenceKind::Verdict => "failed where the reference completed",
            DivergenceKind::Fallback => "untransformed yet stats differ from the baseline",
        }
    }
}

/// The first invariant `run` breaks against `reference`, or `None`:
///
/// 1. **Verdict** — `run` failed.
/// 2. **Checksum** — the store checksums differ.
/// 3. **Occupancy** — RegMutex or RegMutexPaired lost theoretical
///    occupancy (RFV and OWF may: their storage costs warps).
/// 4. **Fallback** — RegMutex without a plan ran the baseline's kernel and
///    manager, yet differs from it in
///    [`regmutex_sim::SimStats::architectural`] (which leaves out the
///    loop's self-accounting, since fault injection changes it).
///
/// 3 and 4 apply only when `reference` is a baseline run and `same_job`
/// says the pair differ in nothing but the technique (kernel, GPU, grid,
/// compile options, cycle budget): a half register file or a forced
/// `|Es|` is held to the checksum alone.
pub fn verdict(
    reference: &RunReport,
    run: Result<&RunReport, &RunError>,
    same_job: bool,
) -> Option<DivergenceKind> {
    let Ok(run) = run else {
        return Some(DivergenceKind::Verdict);
    };
    if run.stats.checksum != reference.stats.checksum {
        return Some(DivergenceKind::Checksum);
    }
    if !same_job || reference.technique != Technique::Baseline {
        return None;
    }
    let shares = matches!(
        run.technique,
        Technique::RegMutex | Technique::RegMutexPaired
    );
    if shares && run.theoretical_occupancy_warps < reference.theoretical_occupancy_warps {
        return Some(DivergenceKind::Occupancy);
    }
    let fell_back = run.technique == Technique::RegMutex && run.plan.is_none();
    (fell_back && run.stats.architectural() != reference.stats.architectural())
        .then_some(DivergenceKind::Fallback)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Session;
    use regmutex_compiler::CompileOptions;
    use regmutex_isa::{ArchReg, Kernel, KernelBuilder, TripCount};
    use regmutex_sim::{GpuConfig, LaunchConfig, SimError};

    /// A register-limited kernel (24 regs/thread) that RegMutex transforms.
    fn hungry_kernel() -> Kernel {
        let r = ArchReg;
        let mut b = KernelBuilder::new("hungry");
        b.threads_per_cta(256);
        b.declared_regs(24);
        b.movi(r(0), 1);
        b.movi(r(1), 2);
        let top = b.here();
        b.ld_global(r(2), r(0));
        b.iadd(r(1), r(2), r(1));
        for i in 2..24 {
            b.movi(r(i), u64::from(i));
        }
        for i in (2..24).step_by(2) {
            b.imad(r(1), r(i), r(i + 1), r(1));
        }
        b.bra_loop(top, TripCount::Fixed(2));
        b.st_global(r(0), r(1));
        b.exit();
        b.build().unwrap()
    }

    fn run(cfg: GpuConfig, force_es: Option<u16>, t: Technique) -> RunReport {
        let options = CompileOptions {
            force_es,
            force_apply: false,
        };
        Session::with_options(cfg, options)
            .run(&hungry_kernel(), LaunchConfig::new(45), t)
            .unwrap_or_else(|e| panic!("{t}: {e}"))
    }

    #[test]
    fn each_broken_invariant_is_named_and_other_jobs_check_only_the_checksum() {
        let full = GpuConfig::gtx480();
        let base = run(full.clone(), None, Technique::Baseline);
        let rm = run(full.clone(), None, Technique::RegMutex);
        let paired = run(full, None, Technique::RegMutexPaired);
        let half = run(GpuConfig::gtx480_half_rf(), None, Technique::RegMutex);
        let forced = run(GpuConfig::gtx480(), Some(2), Technique::RegMutex);
        assert!(rm.plan.is_some() && forced.plan.is_some());
        let error = RunError::Sim(SimError::WatchdogExpired { limit: 1 });

        type Edit = fn(&mut RunReport);
        let agree: Edit = |_| {};
        let checksum: Edit = |r| r.stats.checksum ^= 1;
        let occupancy: Edit = |r| r.theoretical_occupancy_warps = 0;
        let fallback: Edit = |r| {
            r.plan = None;
            r.stats.cycles += 1;
        };
        // (run, edit, same job, expected): every invariant breaks on the
        // same-job pair; the half-RF and forced-|Es| pairs, whose
        // occupancy and stats legitimately differ, see only the checksum.
        // RegMutex on half the register file really holds fewer warps
        // than the full-RF baseline: only `same_job` keeps that apart.
        let table: [(&RunReport, Edit, bool, Option<&str>); 13] = [
            (&rm, agree, true, None),
            (&paired, agree, true, None),
            (&rm, checksum, true, Some("checksum")),
            (&rm, occupancy, true, Some("occupancy")),
            (&paired, occupancy, true, Some("occupancy")),
            (&rm, fallback, true, Some("fallback")),
            (&paired, fallback, true, None),
            (&half, agree, true, Some("occupancy")),
            (&half, agree, false, None),
            (&half, occupancy, false, None),
            (&half, checksum, false, Some("checksum")),
            (&forced, fallback, false, None),
            (&forced, checksum, false, Some("checksum")),
        ];
        for (n, (report, edit, same_job, want)) in table.into_iter().enumerate() {
            let mut report = report.clone();
            edit(&mut report);
            let got = verdict(&base, Ok(&report), same_job).map(DivergenceKind::name);
            assert_eq!(
                got, want,
                "row {n}: {} same_job={same_job}",
                report.technique
            );
        }
        for same_job in [true, false] {
            assert_eq!(
                verdict(&base, Err(&error), same_job),
                Some(DivergenceKind::Verdict)
            );
        }
        // Only a baseline reference carries the occupancy floor.
        let mut low = paired.clone();
        low.theoretical_occupancy_warps = 0;
        assert_eq!(verdict(&rm, Ok(&low), true), None);
    }

    #[test]
    fn names_round_trip() {
        for k in [
            DivergenceKind::Verdict,
            DivergenceKind::Checksum,
            DivergenceKind::Occupancy,
            DivergenceKind::Fallback,
        ] {
            assert_eq!(DivergenceKind::parse(k.name()), Ok(k));
        }
        assert!(DivergenceKind::parse("timing").is_err());
    }
}
