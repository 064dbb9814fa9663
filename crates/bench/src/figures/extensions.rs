//! Ablations and extensions beyond the paper: each varies one GPU
//! parameter (scheduler, memory latency, register-file size, bank model,
//! SM generation) or adds a model (energy) and re-asks a paper question.

use regmutex::{cycle_increase_percent, cycle_reduction_percent, energy::EnergyModel};
use regmutex::{Session, Technique};
use regmutex_sim::{GpuConfig, SchedulerPolicy};
use regmutex_workloads::{suite, Workload};

use super::{job, Failures};
use crate::cache::CachedResult;
use crate::report::{fmt_pct, Mean, Table};
use crate::source::MatrixJob;

/// Baseline then RegMutex, per app, per variant of the GTX480 (`set`
/// applies one): the matrix every ablation but the register-file sweep
/// runs.
fn pairs<V: Copy>(
    apps: &[&str],
    variants: &[V],
    set: fn(&mut GpuConfig, V),
    label: fn(V) -> String,
) -> Vec<MatrixJob> {
    let mut jobs = Vec::new();
    for app in apps {
        for &v in variants {
            let mut cfg = GpuConfig::gtx480();
            set(&mut cfg, v);
            for t in [Technique::Baseline, Technique::RegMutex] {
                jobs.push(job(format!("{app}/{} {t}", label(v)), app, t, &cfg));
            }
        }
    }
    jobs
}

fn names(apps: &[Workload]) -> Vec<&'static str> {
    apps.iter().map(|w| w.name).collect()
}

const POLICIES: [SchedulerPolicy; 2] = [SchedulerPolicy::Gto, SchedulerPolicy::Lrr];

pub(super) fn scheduler_jobs() -> Vec<MatrixJob> {
    pairs(
        &names(&suite::occupancy_limited()),
        &POLICIES,
        |cfg, policy| cfg.policy = policy,
        |policy| format!("{policy:?}"),
    )
}

/// Ablation: warp-scheduler policy (GTO vs LRR).
///
/// The paper evaluates on GPGPU-Sim's default greedy-then-oldest scheduler.
/// This ablation re-runs the Fig 7 comparison under loose round-robin to
/// show the RegMutex gain is an occupancy effect, not a scheduling
/// artifact.
pub(super) fn scheduler(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let headers = ["app", "GTO reduction", "LRR reduction"];
    let (table, avg) = fails.metric_table(jobs, results, &headers, true, cycle_reduction_percent);
    fails.finish(format!(
        "Ablation — RegMutex cycle reduction under GTO vs LRR scheduling\n\n{}\n\
         averages: GTO {}, LRR {}\n",
        table.render(),
        fmt_pct(avg[0].mean()),
        fmt_pct(avg[1].mean())
    ))
}

const LATENCIES: [u32; 5] = [60, 150, 380, 600, 900];

pub(super) fn latency_jobs() -> Vec<MatrixJob> {
    pairs(
        &["BFS", "MRI-Q", "CUTCP"],
        &LATENCIES,
        |cfg, lat| cfg.gmem_latency = lat,
        |lat| format!("{lat}cy"),
    )
}

/// Ablation: global-memory latency sensitivity.
///
/// RegMutex's benefit is latency hiding through occupancy: more resident
/// warps cover longer memory latencies. Sweeping the modelled round-trip
/// latency shows the gain growing with latency (and vanishing when memory
/// is fast enough that the baseline occupancy already suffices).
pub(super) fn latency(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let mut headers = vec!["app".to_string()];
    headers.extend(LATENCIES.map(|l| format!("{l}cy")));
    let (table, _) = fails.metric_table(jobs, results, &headers, true, cycle_reduction_percent);
    fails.finish(format!(
        "Ablation — RegMutex cycle reduction vs global-memory latency\n\n{}\n\
         (expected: the gain grows with memory latency — it is a latency-hiding effect)\n",
        table.render()
    ))
}

const BANKS: [u32; 2] = [0, 16];

pub(super) fn banks_jobs() -> Vec<MatrixJob> {
    pairs(
        &names(&suite::occupancy_limited()),
        &BANKS,
        |cfg, banks| cfg.reg_banks = banks,
        |banks| format!("{banks} banks"),
    )
}

/// Ablation (extension): operand-collector register-bank conflicts.
///
/// The paper's evaluation (like most GPGPU-Sim studies at this
/// granularity) does not model register-file bank conflicts; RegMutex's
/// Fig 6 mapping nevertheless changes *where* a warp's registers live (base
/// segment vs SRP section), which could in principle change the conflict
/// pattern. This ablation enables a 16-bank operand-collector model and
/// shows the RegMutex conclusion is insensitive to it.
pub(super) fn banks(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let headers = ["app", "no banks", "16 banks"];
    let (table, avg) = fails.metric_table(jobs, results, &headers, true, cycle_reduction_percent);
    fails.finish(format!(
        "Ablation — RegMutex cycle reduction with and without a 16-bank\n\
         operand-collector conflict model (extension; not in the paper)\n\n{}\n\
         averages: no banks {}, 16 banks {}\n",
        table.render(),
        fmt_pct(avg[0].mean()),
        fmt_pct(avg[1].mean())
    ))
}

/// Register file sizes in KB.
const SIZES_KB: [u32; 4] = [128, 96, 64, 48];

/// Per app: one full-RF reference, then a (technique × size) matrix. The
/// 128 KB baseline cell is the reference again: the runner simulates it
/// once.
pub(super) fn rf_size_jobs() -> Vec<MatrixJob> {
    let mut jobs = Vec::new();
    for app in ["HeartWall", "SPMV", "TPACF", "SRAD"] {
        let reference = format!("{app}/reference");
        jobs.push(job(
            reference,
            app,
            Technique::Baseline,
            &GpuConfig::gtx480(),
        ));
        for t in [Technique::Baseline, Technique::RegMutex] {
            for kb in SIZES_KB {
                let cfg = GpuConfig {
                    regs_per_sm: kb * 1024 / 4, // 4 bytes per register
                    ..GpuConfig::gtx480()
                };
                jobs.push(job(format!("{app}/{kb}KB {t}"), app, t, &cfg));
            }
        }
    }
    jobs
}

/// Ablation: register-file size sweep ("performance per dollar").
///
/// The paper's first framing of RegMutex is that "GPU programs can sustain
/// approximately the same performance with the lower number of
/// registers". This sweep shrinks the per-SM register file from 128 KB
/// down to 48 KB and reports cycles relative to the full-size baseline,
/// with and without RegMutex — the resilience curve behind Fig 8.
pub(super) fn rf_size(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let mut headers = vec!["app / technique".to_string()];
    headers.extend(SIZES_KB.map(|s| format!("{s}KB")));
    let mut table = Table::new(&headers);
    let n = 1 + 2 * SIZES_KB.len();
    for (js, rs) in jobs.chunks(n).zip(results.chunks(n)) {
        let Ok(reference) = &rs[0] else {
            continue;
        };
        let mut cells = js[1..].iter().zip(&rs[1..]).map(|(job, result)| {
            match fails.cell((&js[0], reference), job, result) {
                Some(rep) => fmt_pct(cycle_increase_percent(reference, rep)),
                None => "err".to_string(),
            }
        });
        for t in [Technique::Baseline, Technique::RegMutex] {
            let mut row = vec![format!("{} / {t}", js[0].app)];
            row.extend(cells.by_ref().take(SIZES_KB.len()));
            table.row(row);
        }
    }
    fails.finish(format!(
        "Ablation — cycle increase vs full-RF baseline as the register file shrinks\n\n{}\n\
         (expected: the baseline degrades steeply; RegMutex stays nearly flat until\n \
         the file can no longer hold even the base sets)\n",
        table.render()
    ))
}

pub(super) fn energy_jobs() -> Vec<MatrixJob> {
    let (full, half) = (GpuConfig::gtx480(), GpuConfig::gtx480_half_rf());
    let mut jobs = Vec::new();
    for w in suite::rf_insensitive() {
        let reference = format!("{}/full-rf baseline", w.name);
        jobs.push(job(reference, w.name, Technique::Baseline, &full));
        let rm = format!("{}/half-rf regmutex", w.name);
        jobs.push(job(rm, w.name, Technique::RegMutex, &half));
    }
    jobs
}

/// Extension: register-file energy — the "performance per dollar"
/// argument quantified.
///
/// Compares, per workload, the full 128 KB register file (baseline
/// allocation) with the half file under RegMutex. The claim (paper §I, and
/// RFV's 20/30% power numbers it cites): with RegMutex the half-size file
/// keeps nearly all of the performance while saving the file's static
/// energy — a cheaper GPU with the same throughput.
pub(super) fn energy(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let model = EnergyModel::default();
    let (full, half) = (GpuConfig::gtx480(), GpuConfig::gtx480_half_rf());
    let mut table = Table::new(&[
        "app",
        "perf cost (half+RegMutex)",
        "RF energy vs full",
        "leakage vs full",
    ]);
    for (app, g) in fails.rows(jobs, results, 2) {
        let (reference, rm) = (g[0], g[1]);
        let e_full = model.estimate(&full, &reference.stats);
        let e_half = model.estimate(&half, &rm.stats);
        table.row(vec![
            app.to_string(),
            fmt_pct(cycle_increase_percent(reference, rm)),
            fmt_pct(100.0 * e_half.total() / e_full.total()),
            fmt_pct(100.0 * e_half.leakage / e_full.leakage),
        ]);
    }
    fails.finish(format!(
        "Extension — register-file energy on the half-size file with RegMutex\n\
         (ratios vs the full-size baseline; leakage halves with the file,\n \
         dynamic energy tracks the unchanged access counts)\n\n{}",
        table.render()
    ))
}

/// Whether the heuristic still transforms `w` on Volta: only those apps
/// are simulated. A kernel that fails to compile counts as transformed, so
/// its jobs run and report the compile error.
fn transformed_on_volta(w: &Workload) -> bool {
    let session = Session::new(GpuConfig::volta_like());
    session
        .compile(&w.kernel)
        .map_or(true, |c| c.is_transformed())
}

pub(super) fn volta_jobs() -> Vec<MatrixJob> {
    let cfg = GpuConfig::volta_like();
    // Workload grids are sized for the 15-SM Fermi; scale to Volta's SM
    // count so each SM still sees multiple CTA waves.
    let scale = cfg.num_sms.div_ceil(15);
    let mut jobs = Vec::new();
    for w in suite::occupancy_limited() {
        if transformed_on_volta(&w) {
            for t in [Technique::Baseline, Technique::RegMutex] {
                let mut j = job(format!("{}/{t}", w.name), w.name, t, &cfg);
                j.ctas = Some(w.grid_ctas * scale);
                jobs.push(j);
            }
        }
    }
    jobs
}

/// Generalization: RegMutex on a Volta-like SM.
///
/// §IV argues the Fermi results generalize: newer GPUs double the register
/// file but also raise the warp ceiling, so any kernel over 32
/// regs/thread still cannot reach full occupancy ("registers are still
/// statically and exclusively reserved"). This re-runs the
/// register-hungry applications on a Volta-like SM (64 K registers, 64
/// warp slots, 4 schedulers) and shows RegMutex still buys occupancy and
/// cycles.
pub(super) fn volta(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let mut rows = fails.rows(jobs, results, 2).into_iter().peekable();
    let mut table = Table::new(&["app", "reduction", "occupancy base", "occupancy rm", "plan"]);
    let mut avg = Mean::new();
    for w in suite::occupancy_limited() {
        if !transformed_on_volta(&w) {
            let dash = || "-".to_string();
            let why = "not register-limited on Volta".to_string();
            table.row(vec![w.name.to_string(), dash(), dash(), dash(), why]);
            continue;
        }
        let Some((_, g)) = rows.next_if(|(app, _)| *app == w.name) else {
            continue;
        };
        let (base, rm) = (g[0], g[1]);
        let red = cycle_reduction_percent(base, rm);
        avg.push(red);
        let plan = rm.plan.as_ref().map_or_else(
            || "-".to_string(),
            |p| format!("|Bs|={} |Es|={} x{}", p.bs, p.es, p.srp_sections),
        );
        table.row(vec![
            w.name.to_string(),
            fmt_pct(red),
            format!("{}%", base.occupancy_percent()),
            format!("{}%", rm.occupancy_percent()),
            plan,
        ]);
    }
    fails.finish(format!(
        "Generalization — RegMutex on a Volta-like SM (64K regs, 64 warps, Nw/2 = 32)\n\n{}\n\
         average reduction (transformed apps): {}\n",
        table.render(),
        fmt_pct(avg.mean())
    ))
}
