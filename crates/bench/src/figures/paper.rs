//! The paper's evaluation figures, Figs 7–13.

use regmutex::{cycle_increase_percent, cycle_reduction_percent, Session, Technique};
use regmutex_sim::GpuConfig;
use regmutex_workloads::{suite, Group};

use super::{job, Failures};
use crate::cache::CachedResult;
use crate::report::{fmt_pct, Mean, Table};
use crate::source::MatrixJob;

/// Fig 9's techniques; the first is the reference.
const TECHNIQUES: [Technique; 4] = [
    Technique::Baseline,
    Technique::Owf,
    Technique::Rfv,
    Technique::RegMutex,
];

/// The paper's `|Es|` sweep values (Figs 10 and 11).
const ES_VALUES: [u16; 6] = [2, 4, 6, 8, 10, 12];

/// `techniques` for each occupancy-limited app on the GTX480.
fn on_gtx480(techniques: &[Technique]) -> Vec<MatrixJob> {
    let apps = suite::occupancy_limited();
    let jobs = apps
        .iter()
        .map(|w| techniques.iter().map(|&t| MatrixJob::new(w.name, t)));
    jobs.flatten().collect()
}

/// For each RF-insensitive app: the full-RF baseline as the reference,
/// then `techniques` on the half register file.
fn on_half_rf(techniques: &[Technique]) -> Vec<MatrixJob> {
    let (full, half) = (GpuConfig::gtx480(), GpuConfig::gtx480_half_rf());
    let mut jobs = Vec::new();
    for w in suite::rf_insensitive() {
        let reference = format!("{}/full-rf reference", w.name);
        jobs.push(job(reference, w.name, Technique::Baseline, &full));
        for &t in techniques {
            jobs.push(job(format!("{}/half-rf {t}", w.name), w.name, t, &half));
        }
    }
    jobs
}

/// A RegMutex run of `app` with `|Es|` forced to each sweep value.
fn forced_es(app: &str) -> impl Iterator<Item = MatrixJob> + '_ {
    ES_VALUES.into_iter().map(move |es| MatrixJob {
        label: format!("{app}/|Es|={es}"),
        force_es: Some(es),
        ..MatrixJob::new(app, Technique::RegMutex)
    })
}

/// The `|Es|` RegMutex's heuristic picks for `app` on the GTX480 (a
/// compile, no simulation); `None` when it leaves the kernel as is.
fn heuristic_es(app: &str) -> Option<u16> {
    let w = suite::by_name(app)?;
    let compiled = Session::new(GpuConfig::gtx480()).compile(&w.kernel).ok()?;
    compiled.plan.map(|p| p.es)
}

/// `app`, `|Es|=2`, …, `|Es|=12`: the header of Figs 10 and 11.
fn es_table() -> Table {
    let mut headers = vec!["app".to_string()];
    headers.extend(ES_VALUES.map(|e| format!("|Es|={e}")));
    Table::new(&headers)
}

pub(super) fn fig07_jobs() -> Vec<MatrixJob> {
    on_gtx480(&[Technique::Baseline, Technique::RegMutex])
}

/// Figure 7: performance improvement enabled by RegMutex over the baseline.
///
/// For the 8 occupancy-limited applications on the GTX480 baseline, the
/// execution-cycle reduction with RegMutex and the theoretical occupancy
/// before/after. Paper reference: 13% average reduction, up to 23% (BFS);
/// SAD gains occupancy but little performance (SRP contention).
pub(super) fn fig07(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let mut table = Table::new(&[
        "app",
        "exec-cycle reduction",
        "init occupancy",
        "occupancy w/ RegMutex",
        "acquire success",
        "cycles base",
        "cycles rm",
    ]);
    let mut avg = Mean::new();
    for (app, g) in fails.rows(jobs, results, 2) {
        let (base, rm) = (g[0], g[1]);
        let red = cycle_reduction_percent(base, rm);
        avg.push(red);
        table.row(vec![
            app.to_string(),
            fmt_pct(red),
            format!("{}%", base.occupancy_percent()),
            format!("{}%", rm.occupancy_percent()),
            fmt_pct(100.0 * rm.acquire_success_rate()),
            base.cycles().to_string(),
            rm.cycles().to_string(),
        ]);
    }
    fails.finish(format!(
        "Figure 7 — execution-cycle reduction with RegMutex (baseline GTX480)\n\
         (paper: avg 13%, BFS up to 23%, SAD small despite occupancy boost)\n\n{}\n\
         average reduction: {}\n",
        table.render(),
        fmt_pct(avg.mean())
    ))
}

pub(super) fn fig08_jobs() -> Vec<MatrixJob> {
    on_half_rf(&[Technique::Baseline, Technique::RegMutex])
}

/// Figure 8: register-file size reduction analysis.
///
/// For the 8 applications whose occupancy is *not* register-limited on the
/// baseline GPU, halve the register file (64 KB per SM, as GPU-Shrink
/// \[3\]) and compare the execution-cycle increase (against the full-RF
/// baseline) without and with RegMutex, plus the occupancies. Paper
/// reference: 23% average increase without RegMutex vs 9% with it;
/// MergeSort is the one workload where RegMutex's heuristic buys no
/// occupancy and costs slightly.
pub(super) fn fig08(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let mut table = Table::new(&[
        "app",
        "increase w/o RegMutex",
        "increase w/ RegMutex",
        "occupancy w/o",
        "occupancy w/",
        "acquire success",
    ]);
    let (mut avg_none, mut avg_rm) = (Mean::new(), Mean::new());
    for (app, g) in fails.rows(jobs, results, 3) {
        let (reference, none, rm) = (g[0], g[1], g[2]);
        let inc_none = cycle_increase_percent(reference, none);
        let inc_rm = cycle_increase_percent(reference, rm);
        avg_none.push(inc_none);
        avg_rm.push(inc_rm);
        table.row(vec![
            app.to_string(),
            fmt_pct(inc_none),
            fmt_pct(inc_rm),
            format!("{}%", none.occupancy_percent()),
            format!("{}%", rm.occupancy_percent()),
            fmt_pct(100.0 * rm.acquire_success_rate()),
        ]);
    }
    fails.finish(format!(
        "Figure 8 — execution-cycle increase on the half-size register file\n\
         (vs the full-RF baseline; paper: ~23% without RegMutex, ~9% with)\n\n{}\n\
         average increase: {} without RegMutex, {} with RegMutex\n",
        table.render(),
        fmt_pct(avg_none.mean()),
        fmt_pct(avg_rm.mean())
    ))
}

pub(super) fn fig09a_jobs() -> Vec<MatrixJob> {
    on_gtx480(&TECHNIQUES)
}

/// Figure 9(a): RegMutex vs Register File Virtualization (RFV) \[3\] and
/// Owner-Warp-First resource sharing (OWF) \[7\] on the baseline
/// architecture.
///
/// Paper reference: average execution-cycle reduction 1.9% (OWF), 16.2%
/// (RFV), 12.8% (RegMutex); RFV beats RegMutex by ~3.4% on average but
/// needs 81× the storage.
pub(super) fn fig09a(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let headers = ["app", "OWF", "RFV", "RegMutex"];
    let (table, avg) = fails.metric_table(jobs, results, &headers, false, cycle_reduction_percent);
    fails.finish(format!(
        "Figure 9(a) — execution-cycle reduction vs related work (baseline arch)\n\
         (paper averages: OWF 1.9%, RFV 16.2%, RegMutex 12.8%)\n\n{}\n\
         averages: OWF {}, RFV {}, RegMutex {}\n",
        table.render(),
        fmt_pct(avg[0].mean()),
        fmt_pct(avg[1].mean()),
        fmt_pct(avg[2].mean())
    ))
}

pub(super) fn fig09b_jobs() -> Vec<MatrixJob> {
    on_half_rf(&TECHNIQUES)
}

/// Figure 9(b): technique comparison on the half-size register file.
///
/// Execution-cycle *increase* over the full-RF baseline for: no technique,
/// OWF, RFV, and RegMutex. Paper reference: 22.9% (none), 20.6% (OWF), 5.9%
/// (RFV), 10.8% (RegMutex) on average.
pub(super) fn fig09b(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let headers = ["app", "none", "OWF", "RFV", "RegMutex"];
    let (table, avg) = fails.metric_table(jobs, results, &headers, false, cycle_increase_percent);
    fails.finish(format!(
        "Figure 9(b) — execution-cycle increase on the half register file\n\
         (paper averages: none 22.9%, OWF 20.6%, RFV 5.9%, RegMutex 10.8%)\n\n{}\n\
         averages: none {}, OWF {}, RFV {}, RegMutex {}\n",
        table.render(),
        fmt_pct(avg[0].mean()),
        fmt_pct(avg[1].mean()),
        fmt_pct(avg[2].mean()),
        fmt_pct(avg[3].mean())
    ))
}

/// One baseline plus one forced-`|Es|` RegMutex run per value, per app.
pub(super) fn fig10_jobs() -> Vec<MatrixJob> {
    let mut jobs = Vec::new();
    for w in suite::occupancy_limited() {
        jobs.push(MatrixJob::new(w.name, Technique::Baseline));
        jobs.extend(forced_es(w.name));
    }
    jobs
}

/// Figure 10: sensitivity of kernel performance to the extended-set size.
///
/// For each Fig 7 application, force `|Es|` ∈ {2, 4, 6, 8, 10, 12} and
/// report the execution-cycle reduction; the heuristic's own pick is
/// marked with `*`. Paper reference: the best `|Es|` differs per
/// application with no global trend, and the heuristic picks the best or
/// near-best size.
pub(super) fn fig10(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let mut table = es_table();
    let n = 1 + ES_VALUES.len();
    for (js, rs) in jobs.chunks(n).zip(results.chunks(n)) {
        let Ok(base) = &rs[0] else {
            continue;
        };
        let pick = heuristic_es(&js[0].app);
        let mut cells = vec![js[0].app.clone()];
        for ((es, job), result) in ES_VALUES.iter().zip(&js[1..]).zip(&rs[1..]) {
            cells.push(match fails.cell(job, base, result) {
                Some(rep) if rep.plan.is_some() => {
                    let mark = if pick == Some(*es) { "*" } else { "" };
                    format!("{}{mark}", fmt_pct(cycle_reduction_percent(base, rep)))
                }
                Some(_) => "n/v".to_string(), // candidate not viable
                None => "err".to_string(),
            });
        }
        table.row(cells);
    }
    fails.finish(format!(
        "Figure 10 — cycle reduction vs forced |Es| (baseline arch, * = heuristic pick)\n\
         (paper: best |Es| varies per app; the heuristic lands on or near the best)\n\n{}",
        table.render()
    ))
}

pub(super) fn fig11_jobs() -> Vec<MatrixJob> {
    let apps = suite::occupancy_limited();
    apps.iter().flat_map(|w| forced_es(w.name)).collect()
}

/// Figure 11: theoretical occupancy (a) and acquire success ratio (b) as
/// the extended-set size varies.
///
/// Paper reference: larger `|Es|` raises occupancy but usually lowers the
/// chance of a successful acquire — the two opposing forces behind Fig 10.
pub(super) fn fig11(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let fails = Failures::new(jobs, results);
    let (mut occ_table, mut acq_table) = (es_table(), es_table());
    let n = ES_VALUES.len();
    for (js, rs) in jobs.chunks(n).zip(results.chunks(n)) {
        let pick = heuristic_es(&js[0].app);
        let mut occ_cells = vec![js[0].app.clone()];
        let mut acq_cells = vec![js[0].app.clone()];
        for (es, result) in ES_VALUES.iter().zip(rs) {
            let (occ, acq) = match result {
                Ok(rep) if rep.plan.is_some() => {
                    let mark = if pick == Some(*es) { "*" } else { "" };
                    (
                        format!("{}%{mark}", rep.occupancy_percent()),
                        format!("{}{mark}", fmt_pct(100.0 * rep.acquire_success_rate())),
                    )
                }
                Ok(_) => ("n/v".into(), "n/v".into()),
                Err(_) => ("err".into(), "err".into()),
            };
            occ_cells.push(occ);
            acq_cells.push(acq);
        }
        occ_table.row(occ_cells);
        acq_table.row(acq_cells);
    }
    fails.finish(format!(
        "Figure 11(a) — theoretical occupancy vs |Es| (* = heuristic pick)\n\
         (paper: occupancy rises with |Es|)\n\n{}\n\
         Figure 11(b) — successful acquires / executed acquire instructions\n\
         (paper: success ratio usually falls as |Es| grows)\n\n{}",
        occ_table.render(),
        acq_table.render()
    ))
}

/// Three jobs per app: first (a)'s, then (b)'s.
pub(super) fn fig12_jobs() -> Vec<MatrixJob> {
    let mut jobs = on_gtx480(&[
        Technique::Baseline,
        Technique::RegMutexPaired,
        Technique::RegMutex,
    ]);
    jobs.extend(on_half_rf(&[
        Technique::Baseline,
        Technique::RegMutexPaired,
    ]));
    jobs
}

/// Figure 12: the paired-warps specialization (§III-C).
///
/// (a) On the baseline architecture: cycle reduction + occupancy for the
/// Fig 7 applications (paper: 8% average, 4% below default RegMutex; SAD
/// can even beat the default thanks to higher acquire success).
/// (b) On the half register file: cycle increase + occupancy for the Fig 8
/// applications (paper: 17% average increase — 5% better than no
/// technique, 8% worse than default RegMutex).
pub(super) fn fig12(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let split = 3 * suite::occupancy_limited().len();
    let headers = [
        "app",
        "paired reduction",
        "default reduction",
        "occupancy paired",
    ];
    let mut table_a = Table::new(&headers);
    let (mut avg_paired, mut avg_default) = (Mean::new(), Mean::new());
    for (app, g) in fails.rows(&jobs[..split], &results[..split], 3) {
        let (base, paired, default) = (g[0], g[1], g[2]);
        let red_p = cycle_reduction_percent(base, paired);
        let red_d = cycle_reduction_percent(base, default);
        avg_paired.push(red_p);
        avg_default.push(red_d);
        table_a.row(vec![
            app.to_string(),
            fmt_pct(red_p),
            fmt_pct(red_d),
            format!("{}%", paired.occupancy_percent()),
        ]);
    }
    let headers = [
        "app",
        "paired increase",
        "none increase",
        "occupancy paired",
    ];
    let mut table_b = Table::new(&headers);
    let (mut avg_paired_b, mut avg_none_b) = (Mean::new(), Mean::new());
    for (app, g) in fails.rows(&jobs[split..], &results[split..], 3) {
        let (reference, none, paired) = (g[0], g[1], g[2]);
        let inc_p = cycle_increase_percent(reference, paired);
        let inc_n = cycle_increase_percent(reference, none);
        avg_paired_b.push(inc_p);
        avg_none_b.push(inc_n);
        table_b.row(vec![
            app.to_string(),
            fmt_pct(inc_p),
            fmt_pct(inc_n),
            format!("{}%", paired.occupancy_percent()),
        ]);
    }
    fails.finish(format!(
        "Figure 12(a) — paired-warps RegMutex on the baseline architecture\n\
         (paper: paired avg 8%, 4% below default RegMutex)\n\n{}\n\
         averages: paired {}, default {}\n\n\
         Figure 12(b) — paired-warps RegMutex on the half register file\n\
         (paper: paired avg +17% vs +22.9% none; default RegMutex is 8% better)\n\n{}\n\
         averages: paired {}, none {}\n",
        table_a.render(),
        fmt_pct(avg_paired.mean()),
        fmt_pct(avg_default.mean()),
        table_b.render(),
        fmt_pct(avg_paired_b.mean()),
        fmt_pct(avg_none_b.mean())
    ))
}

/// Each app on its home architecture, default then paired.
pub(super) fn fig13_jobs() -> Vec<MatrixJob> {
    let mut jobs = Vec::new();
    for w in suite::all() {
        for t in [Technique::RegMutex, Technique::RegMutexPaired] {
            jobs.push(job(format!("{}/{t}", w.name), w.name, t, &w.table_config()));
        }
    }
    jobs
}

/// Figure 13: acquire-instruction success rate with and without the
/// paired-warps specialization.
///
/// The 8 Fig 7 applications run on the baseline architecture; the 8 Fig 8
/// applications on the half register file. Paper reference: paired-warps
/// usually raises the success rate (the extended set is contended by at
/// most one partner) even where it cannot raise occupancy.
pub(super) fn fig13(jobs: &[MatrixJob], results: &[CachedResult]) -> (String, i32) {
    let mut fails = Failures::new(jobs, results);
    let mut table = Table::new(&["app", "arch", "default RegMutex", "paired-warps"]);
    for (app, g) in fails.rows(jobs, results, 2) {
        let half_rf = suite::by_name(app).is_some_and(|w| w.group == Group::RfInsensitive);
        table.row(vec![
            app.to_string(),
            (if half_rf { "half-RF" } else { "baseline" }).to_string(),
            fmt_pct(100.0 * g[0].acquire_success_rate()),
            fmt_pct(100.0 * g[1].acquire_success_rate()),
        ]);
    }
    fails.finish(format!(
        "Figure 13 — acquire success rate, default vs paired-warps RegMutex\n\
         (paper: pairing usually raises the success rate)\n\n{}",
        table.render()
    ))
}
