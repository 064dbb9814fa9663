//! `fuzz` and `fuzz_durable`: differential fuzz campaigns, plain and
//! journaled to disk.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use regmutex_bench::{
    CachedResult, DurableTier, JobSpec, ResultCache, Runner, DEFAULT_CACHE_BUDGET,
};
use regmutex_durable::Journal;
use regmutex_fuzz::oracle::{evaluate, specs_for};
use regmutex_fuzz::{
    generate, run_campaign, run_campaign_durable, CampaignConfig, FuzzJournal, FuzzRun, Generated,
    Outcome as Verdict,
};
use regmutex_isa::mix;
use regmutex_server::DiskTier;

use crate::pipeline::{pool, run_job, Counters, SimSum};
use crate::report::Outcome;
use crate::trace::{aggregate_all, span, Layer};
use crate::util::{disk_bytes, nproc, peak_rss_mb, secs, work_dir, Rng};
use crate::Args;

/// Kernels per `fuzz` round (≈1 s on 2 cores); round `r` covers indices
/// `r·K..(r+1)·K` of one seeded campaign.
const FUZZ_ROUND: u64 = 2_000;
/// Kernels per `fuzz_durable` cold pass (≈1.5 s), small enough for a
/// median over several rounds: the disk's fsync latency drifts.
const DURABLE_ROUND: u64 = 500;
/// Warm re-runs per `fuzz_durable` round, each reading every result from
/// the store under a new journal.
const WARM_RERUNS: usize = 5;

fn campaign(seed: u64, round: usize, iters: u64) -> CampaignConfig {
    CampaignConfig {
        seed: Rng::new(seed).next_u64(),
        start: round as u64 * iters,
        iters,
        ..CampaignConfig::default()
    }
}

/// Set-up before a campaign's first simulation: a runner and the first
/// batch's kernels and job specs, exactly as the campaign builds them.
fn time_to_first_job(cfg: &CampaignConfig) -> f64 {
    let t = Instant::now();
    let runner = Runner::new(nproc());
    let specs: Vec<JobSpec> = (cfg.start..cfg.start + cfg.batch as u64)
        .flat_map(|i| specs_for(&generate(mix(cfg.seed, i)), &cfg.oracle))
        .collect();
    std::hint::black_box((runner, specs));
    secs(t)
}

/// Check a finished campaign: no divergences, every kernel agreed.
fn check_report(
    out: &mut Outcome,
    what: &str,
    cfg: &CampaignConfig,
    r: &regmutex_fuzz::FuzzReport,
) {
    out.attempted += cfg.iters;
    if r.stats.divergences != 0 || r.stats.agreements != cfg.iters || r.stats.kernels != cfg.iters {
        out.failed += cfg.iters - r.stats.agreements.min(cfg.iters);
        out.errors.push(format!(
            "{what}: {} kernels, {} agreements, {} divergences",
            r.stats.kernels, r.stats.agreements, r.stats.divergences
        ));
    }
}

/// The campaign replayed through public calls for the traced run:
/// generate → the five jobs on the pool → `oracle::evaluate`.
fn replay(
    out: &mut Outcome,
    cfg: &CampaignConfig,
    cache: &ResultCache,
    ctr: &Counters,
) -> Vec<CachedResult> {
    let workers = nproc();
    let mut all = Vec::new();
    let end = cfg.start + cfg.iters;
    let mut index = cfg.start;
    while index < end {
        let batch_end = end.min(index + cfg.batch as u64);
        let gens: Vec<(u64, Generated)> = (index..batch_end)
            .map(|i| (i, span("generate", i, || generate(mix(cfg.seed, i)))))
            .collect();
        let specs: Vec<JobSpec> = gens
            .iter()
            .flat_map(|(_, g)| specs_for(g, &cfg.oracle))
            .collect();
        let results = pool(workers, specs.len(), |j| {
            run_job(&specs[j], cache, ctr, j as u64)
        });
        for (n, (i, g)) in gens.iter().enumerate() {
            out.attempted += 1;
            let verdict = span("evaluate", *i, || {
                evaluate(g, &results[n * 5..n * 5 + 5], &cfg.oracle, |t| {
                    let spec = specs_for(g, &cfg.oracle)
                        .into_iter()
                        .find(|s| s.technique == t)
                        .expect("every technique has a spec")
                        .with_cycle_budget(cfg.oracle.cycle_budget * cfg.oracle.escalate_factor);
                    run_job(&spec, cache, ctr, *i)
                })
            });
            if let Verdict::Divergence(d) = verdict {
                out.fail(format!(
                    "kernel {i}: {} {}: {}",
                    d.technique,
                    d.kind.name(),
                    d.detail
                ));
            }
        }
        all.extend(results);
        index = batch_end;
    }
    all
}

/// Fuzz-layer metrics from the replay's spans.
fn fuzz_layers(
    out: &mut Outcome,
    layers: &mut BTreeMap<&'static str, Layer>,
    ctr: &Counters,
    hits: u64,
    misses: u64,
) {
    out.common_layers(layers, ctr, hits, misses, nproc());
    let kernels = layers.get("evaluate").map_or(0, |l| l.count);
    let get = |n: &str| layers.get(n).cloned().unwrap_or_default();
    out.layers.insert("fuzz.gen_us", get("generate").mean_us());
    out.layers
        .insert("fuzz.oracle_us", get("evaluate").self_mean_us());
    out.layers.insert(
        "fuzz.sims_per_kernel",
        ctr.jobs.load(std::sync::atomic::Ordering::Relaxed) as f64 / kernels.max(1) as f64,
    );
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new("fuzz");
    for _ in 0..crate::SETUP_REPEATS {
        out.sample(
            "setup_s",
            time_to_first_job(&campaign(args.seed, 0, FUZZ_ROUND)),
        );
    }
    let ctr = Counters::default();
    let (mut hits, mut misses) = (0, 0);
    let started = Instant::now();
    crate::rounds(args.seconds, 3, |round| {
        let cfg = campaign(args.seed, round, FUZZ_ROUND);
        let t = Instant::now();
        if args.traced {
            let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
            let results = replay(&mut out, &cfg, &cache, &ctr);
            if round == 0 {
                (hits, misses) = (cache.hits(), cache.misses());
            }
            if round == 0 {
                out.sim = Some(SimSum::of(&results));
            }
        } else {
            let report = run_campaign(&cfg, &Runner::new(nproc()));
            check_report(&mut out, "campaign", &cfg, &report);
        }
        out.sample("ops_per_s", cfg.iters as f64 / secs(t));
        out.rounds += 1;
    });
    out.wall_s = secs(started);
    out.sample("peak_rss_mb", peak_rss_mb(None));
    if args.traced {
        fuzz_layers(&mut out, &mut aggregate_all(), &ctr, hits, misses);
    }
    out
}

/// Forwards to the real store, timing every call (traced run only).
struct TimedTier(Arc<DiskTier>);

impl DurableTier for TimedTier {
    fn load(&self, key: u64) -> Option<CachedResult> {
        span("store_load", key, || self.0.load(key))
    }

    fn save(&self, key: u64, value: &CachedResult) {
        span("store_save", key, || self.0.save(key, value));
    }
}

fn open_tier(dir: &Path, traced: bool) -> Result<Arc<dyn DurableTier>, String> {
    let disk =
        DiskTier::shared(dir).map_err(|e| format!("open store in {}: {e}", dir.display()))?;
    Ok(if traced {
        Arc::new(TimedTier(disk))
    } else {
        disk
    })
}

/// One journaled campaign over `dir`'s store with a fresh runner and a
/// new journal, timed from the journal's creation (its fsync included,
/// as `fuzz --journal DIR` pays it). Returns the rendered report,
/// seconds, and the runner.
fn journaled(
    cfg: &CampaignConfig,
    dir: &Path,
    traced: bool,
) -> Result<(String, f64, Runner, regmutex_fuzz::FuzzReport), String> {
    let mut runner = Runner::new(nproc());
    runner.set_tier(open_tier(dir, traced)?);
    let t = Instant::now();
    let journal = FuzzJournal::create(dir, cfg)?;
    let FuzzRun::Complete(report) = run_campaign_durable(cfg, &runner, Some(&journal), None) else {
        return Err("campaign checkpointed without a cancel check".into());
    };
    let elapsed = secs(t);
    Ok((report.render().0, elapsed, runner, report))
}

/// Remove `dir` and commit the removal: an fsync of its parent commits the
/// filesystem journal, so thousands of unlinks do not land inside the next
/// timed section, nor in the next run's.
fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
    }
}

/// The workload's set-up: the temp dir and the store in it.
fn set_up(dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    drop(open_tier(dir, false)?);
    Ok(())
}

fn durable_round(
    out: &mut Outcome,
    args: &Args,
    round: usize,
    dir: &Path,
    ctr: &Counters,
    counts: &mut (u64, u64),
) -> Result<(), String> {
    let cfg = campaign(args.seed, round, DURABLE_ROUND);
    // Timed before every round rather than up front: a disk stall can
    // outlast a batch of back-to-back set-ups, but not a whole run.
    for _ in 0..crate::SETUP_REPEATS {
        remove(dir);
        let t = Instant::now();
        let made = set_up(dir);
        out.sample("setup_s", secs(t));
        made?;
    }
    let (cold, cold_s, runner, report) = journaled(&cfg, dir, args.traced)?;
    check_report(out, "cold journaled pass", &cfg, &report);
    if round == 0 {
        counts.1 = runner.cache_misses();
    }
    out.sample("ops_per_s", cfg.iters as f64 / cold_s);
    let bytes = disk_bytes(dir);
    out.sample("disk_mb", bytes as f64 / (1024.0 * 1024.0));
    if args.traced && round == 0 {
        let stored = std::fs::read_dir(dir.join("store")).map_or(0, |d| d.count());
        out.layers.insert(
            "durable.bytes_per_result",
            bytes as f64 / stored.max(1) as f64,
        );
        let t = Instant::now();
        let resumed = span("resume", 0, || FuzzJournal::resume(dir, &cfg))?;
        let records = resumed.completed().max(1);
        out.layers.insert(
            "durable.replay_us_per_record",
            secs(t) * 1e6 / records as f64,
        );
    }

    let mut renders = vec![("cold journaled", cold)];
    for n in 0..WARM_RERUNS {
        let (warm, warm_s, runner, _) = journaled(&cfg, dir, args.traced)?;
        if round == 0 {
            counts.0 += runner.cache_hits();
        }
        out.attempted += cfg.iters;
        out.sample("warm_kernels_per_s", cfg.iters as f64 / warm_s);
        renders.push((if n == 0 { "warm" } else { "warm (repeat)" }, warm));
    }

    // After the timed passes: the unjournaled campaign is the reference.
    let (reference, _) = run_campaign(&cfg, &Runner::new(nproc())).render();
    for (what, text) in &renders {
        if *text != reference {
            out.fail(format!(
                "round {round}: {what} report differs from the unjournaled campaign"
            ));
        }
    }
    if args.traced && round == 0 {
        let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
        let results = replay(out, &cfg, &cache, ctr);
        out.sim = Some(SimSum::of(&results));
        journal_microbench(dir, cfg.iters)?;
    }
    remove(dir);
    Ok(())
}

/// `Journal::append` on records shaped like the campaign's, then
/// `Journal::sync`; the append p99 includes the batched fsync.
fn journal_microbench(dir: &Path, records: u64) -> Result<(), String> {
    let mut journal = Journal::create(&dir.join("bench.log")).map_err(|e| e.to_string())?;
    for i in 0..records {
        let rec = format!("ok index={i} runs=5 esc=0");
        span("append", i, || journal.append(&rec));
    }
    span("sync", 0, || journal.sync());
    Ok(())
}

pub fn run_durable(args: &Args) -> Outcome {
    let mut out = Outcome::new("fuzz_durable");
    let dir = work_dir().join(format!("fuzz_durable-{}", std::process::id()));
    // (warm-pass cache hits, cold-pass cache misses) of round 0's runners.
    let mut counts = (0u64, 0u64);
    let ctr = Counters::default();
    let started = Instant::now();
    crate::rounds(args.seconds, 3, |round| {
        if let Err(e) = durable_round(&mut out, args, round, &dir, &ctr, &mut counts) {
            out.attempted += 1;
            out.fail(e);
        }
        out.rounds += 1;
    });
    remove(&dir);
    let _ = std::fs::remove_dir(work_dir());
    out.wall_s = secs(started);
    out.sample("peak_rss_mb", peak_rss_mb(None));
    if args.traced {
        let mut layers = aggregate_all();
        fuzz_layers(&mut out, &mut layers, &ctr, counts.0, counts.1);
        let mut pct = |n: &str, p: f64| layers.get_mut(n).map_or(f64::NAN, |l| l.pct_us(p));
        let values = [
            ("durable.store_save_us_p50", pct("store_save", 50.0)),
            ("durable.store_save_us_p99", pct("store_save", 99.0)),
            ("durable.store_load_us", pct("store_load", 50.0)),
            ("durable.append_us_p50", pct("append", 50.0)),
            ("durable.append_us_p99", pct("append", 99.0)),
            ("durable.sync_ms", pct("sync", 50.0) / 1e3),
        ];
        out.layers.extend(values);
    }
    out
}
