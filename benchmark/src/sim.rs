//! `sim_sampled` and `sim_device`: fixed Table I job matrices through
//! `Runner::run_all`, checked against a pinned table.

use std::collections::HashMap;
use std::time::Instant;

use regmutex::{Technique, ALL_TECHNIQUES};
use regmutex_bench::{CachedResult, JobSpec, ResultCache, Runner, DEFAULT_CACHE_BUDGET};
use regmutex_sim::{occupancy, GpuConfig, KernelResources};
use regmutex_workloads::{suite, Workload};

use crate::pipeline::{pool, run_job, Counters, SimSum};
use crate::report::Outcome;
use crate::trace::span;
use crate::util::{bench_dir, nproc, secs, Rng};
use crate::Args;

/// A job plus the key it is pinned under in `expected/sim.tsv`.
pub struct Job {
    pub app: &'static str,
    pub config: &'static str,
    pub spec: JobSpec,
}

/// Whether one CTA of `w` fits an SM of `cfg` under the baseline
/// allocation. DWT2D's 44-register CTAs do not fit the half register
/// file, so its baseline deadlocks there; the workloads leave such
/// pairs out rather than time failures.
pub fn fits(w: &Workload, cfg: &GpuConfig) -> bool {
    let k = &w.kernel;
    let res = KernelResources::new(k.regs_per_thread, k.shmem_per_cta, k.threads_per_cta);
    occupancy::theoretical(cfg, res).warps > 0
}

/// 16 apps × 5 techniques × {full, half} register file on the default
/// single sampled SM (155 jobs: every pair that [`fits`]): what the
/// figure binaries, `compare` and `sweep` run.
pub fn sampled_jobs(seed: u64) -> Vec<Job> {
    let configs = [
        ("gtx480", GpuConfig::gtx480()),
        ("gtx480_half_rf", GpuConfig::gtx480_half_rf()),
    ];
    app_major(seed, |w| {
        let mut jobs = Vec::new();
        for (config, cfg) in configs.iter().filter(|(_, cfg)| fits(w, cfg)) {
            for t in ALL_TECHNIQUES {
                jobs.push((*config, cfg.clone(), t));
            }
        }
        jobs
    })
}

/// 16 apps × {baseline, regmutex} on the whole 15-SM device, each app on
/// its Table I architecture.
pub fn device_jobs(seed: u64) -> Vec<Job> {
    app_major(seed, |w| {
        let base = w.table_config();
        let cfg = GpuConfig {
            simulated_sms: base.num_sms,
            ..base
        };
        vec![
            ("device", cfg.clone(), Technique::Baseline),
            ("device", cfg, Technique::RegMutex),
        ]
    })
}

/// Apps in Table I order, as the figure binaries submit them; the seed
/// shuffles each app's own jobs. (Shuffling across apps would move the
/// long BFS jobs to the tail of the pool and make the workload measure
/// the shuffle rather than the program.)
fn app_major(
    seed: u64,
    per_app: impl Fn(&Workload) -> Vec<(&'static str, GpuConfig, Technique)>,
) -> Vec<Job> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let apps = span("workloads_build", 0, suite::all);
    for w in &apps {
        let mut jobs: Vec<Job> = per_app(w)
            .into_iter()
            .map(|(config, cfg, t)| Job {
                app: w.name,
                config,
                spec: JobSpec::new(
                    format!("{}/{t}/{config}", w.name),
                    &w.kernel,
                    &cfg,
                    w.launch(),
                    t,
                ),
            })
            .collect();
        rng.shuffle(&mut jobs);
        out.extend(jobs);
    }
    out
}

/// Pinned `(cycles, instructions, checksum)` per `(workload, label)`.
pub type Expected = HashMap<(String, String), (u64, u64, u64)>;

pub fn expected_path() -> std::path::PathBuf {
    bench_dir().join("expected").join("sim.tsv")
}

pub fn load_expected() -> Result<Expected, String> {
    let path = expected_path();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Expected::new();
    for (n, line) in text.lines().enumerate().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        let parsed = (f.len() == 5)
            .then(|| {
                Some((
                    f[2].parse().ok()?,
                    f[3].parse().ok()?,
                    u64::from_str_radix(f[4].trim_start_matches("0x"), 16).ok()?,
                ))
            })
            .flatten()
            .ok_or_else(|| format!("{}:{}: malformed row", path.display(), n + 1))?;
        out.insert((f[0].to_string(), f[1].to_string()), parsed);
    }
    Ok(out)
}

/// Regenerate `expected/sim.tsv` (the `bless` subcommand).
pub fn bless() -> Result<String, String> {
    let mut text = String::from("workload\tlabel\tcycles\tinstructions\tchecksum\n");
    for (workload, jobs) in [
        ("sim_sampled", sampled_jobs(0)),
        ("sim_device", device_jobs(0)),
    ] {
        let specs: Vec<JobSpec> = jobs.iter().map(|j| j.spec.clone()).collect();
        let mut rows: Vec<String> = Vec::new();
        for (spec, r) in specs.iter().zip(Runner::new(nproc()).run_all(&specs)) {
            let r = r.map_err(|e| format!("{}: {e}", spec.label))?;
            rows.push(format!(
                "{workload}\t{}\t{}\t{}\t{:#018x}\n",
                spec.label, r.stats.cycles, r.stats.instructions, r.stats.checksum
            ));
        }
        rows.sort();
        text.extend(rows);
    }
    let path = expected_path();
    std::fs::create_dir_all(path.parent().expect("a file path")).map_err(|e| e.to_string())?;
    std::fs::write(&path, &text).map_err(|e| e.to_string())?;
    Ok(format!("wrote {}", expected_path().display()))
}

/// Check one round's results: every job matches its pinned row, and
/// every technique's checksum equals baseline's for the same app/config.
fn check(out: &mut Outcome, expected: &Expected, jobs: &[Job], results: &[CachedResult]) {
    out.attempted += jobs.len() as u64;
    let mut baseline: HashMap<(&str, &str), u64> = HashMap::new();
    for (j, r) in jobs.iter().zip(results) {
        if let (Ok(r), Technique::Baseline) = (r, j.spec.technique) {
            baseline.insert((j.app, j.config), r.stats.checksum);
        }
    }
    for (j, r) in jobs.iter().zip(results) {
        let label = &j.spec.label;
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{label}: {e}"));
                continue;
            }
        };
        let got = (r.stats.cycles, r.stats.instructions, r.stats.checksum);
        match expected.get(&(out.workload.to_string(), label.clone())) {
            None => out.fail(format!(
                "{label}: not pinned in expected/sim.tsv (run `bless`)"
            )),
            Some(want) if *want != got => {
                out.fail(format!("{label}: got {got:?}, pinned {want:?}"));
            }
            Some(_) if baseline.get(&(j.app, j.config)) != Some(&r.stats.checksum) => {
                out.fail(format!("{label}: checksum differs from baseline"));
            }
            Some(_) => {}
        }
    }
}

/// Run rounds of the workload's fixed matrix until `--seconds` is spent
/// (at least three rounds). Each round starts afresh: kernels,
/// specs and a fresh `Runner`, which is the workload's set-up, timed
/// before the first round.
pub fn run(args: &Args) -> Outcome {
    let workload = args.workload;
    let mut out = Outcome::new(workload);
    let expected = match load_expected() {
        Ok(e) => e,
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
            return out;
        }
    };
    let build = |seed| match workload {
        "sim_sampled" => sampled_jobs(seed),
        _ => device_jobs(seed),
    };
    let workers = nproc();
    let set_up = || {
        let jobs = build(args.seed);
        let specs: Vec<JobSpec> = jobs.iter().map(|j| j.spec.clone()).collect();
        (jobs, specs, Runner::new(workers))
    };
    for _ in 0..crate::SETUP_REPEATS {
        let t = Instant::now();
        let built = set_up();
        out.sample("setup_s", secs(t));
        drop(built);
    }
    let ctr = Counters::default();
    let (mut hits, mut misses) = (0, 0);
    let started = Instant::now();
    crate::rounds(args.seconds, 3, |round| {
        let (jobs, specs, runner) = set_up();
        let t = Instant::now();
        let results = if args.traced {
            let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
            let r = pool(workers, specs.len(), |i| {
                run_job(&specs[i], &cache, &ctr, i as u64)
            });
            if round == 0 {
                (hits, misses) = (cache.hits(), cache.misses());
            }
            r
        } else {
            runner.run_all(&specs)
        };
        let elapsed = secs(t);
        out.sample("ops_per_s", specs.len() as f64 / elapsed);
        let sum = SimSum::of(&results);
        out.sample("sim_minst_per_s", sum.instructions as f64 / 1e6 / elapsed);
        if round == 0 {
            out.sim = Some(sum);
        }
        check(&mut out, &expected, &jobs, &results);
        out.rounds += 1;
    });
    out.wall_s = secs(started);
    out.sample("peak_rss_mb", crate::util::peak_rss_mb(None));
    if args.traced {
        let mut layers = crate::trace::aggregate_all();
        out.common_layers(&mut layers, &ctr, hits, misses, workers);
        let build = layers.entry("workloads_build").or_default();
        out.layers.insert("workloads.build_us", build.mean_us());
    }
    out
}
