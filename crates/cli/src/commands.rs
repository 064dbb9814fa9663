//! Command implementations. Each returns its output as a `String` so tests
//! can assert on it; `main.rs` prints.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use regmutex::{cycle_reduction_percent, Session, Technique, ALL_TECHNIQUES};
use regmutex_bench::chaos::{run_campaign, run_campaign_durable};
use regmutex_bench::{runner::default_jobs, Fig07Source, JobExecutor, JobSource, JobSpec, Runner};
use regmutex_compiler::{analyze, live_trace, CompileOptions};
use regmutex_durable::{Campaign, Record, Run};
use regmutex_fleet::{run_fleet_campaign, Coordinator, FleetCampaignSpec, FleetConfig};
use regmutex_server::loadgen::{run_loadgen, Direct};
use regmutex_server::{signal, DiskTier, ServerConfig};
use regmutex_sim::{GpuConfig, LaunchConfig};
use regmutex_workloads::{suite, Workload};

use crate::args::{
    BenchLoopArgs, ChaosArgs, CompareArgs, CoordinatorArgs, DisasmArgs, FuzzArgs, LoadgenArgs,
    RunArgs, SweepArgs, TraceArgs,
};

/// Exit code for a graceful SIGINT/SIGTERM checkpoint: the campaign is
/// incomplete but its progress is journaled and `--resume` will finish it.
/// Distinct from 0 (clean), 1 (failure), 2 (usage), 3 (partial rows).
pub const CHECKPOINT_EXIT: i32 = 4;

/// The durable mode of `sweep`, `chaos`, `fuzz` and `coordinator`
/// (`--journal DIR [--resume]`): install the SIGINT/SIGTERM handler,
/// create or resume the campaign journal in `dir`, hand it to `run`, and
/// turn a checkpoint into the `--resume` hint on stderr. `None` means the
/// run checkpointed and the verb exits with [`CHECKPOINT_EXIT`].
fn durable<R: Record, T>(
    verb: &str,
    dir: &Path,
    resume: bool,
    identity: &R::Identity,
    unit: &str,
    run: impl FnOnce(Campaign<R>) -> Result<Run<T>, CommandError>,
) -> Result<Option<T>, CommandError> {
    signal::install();
    let campaign = if resume {
        Campaign::resume(dir, identity)
    } else {
        Campaign::create(dir, identity)
    }
    .map_err(CommandError)?;
    if campaign.completed() > 0 {
        eprintln!(
            "[{verb}] resuming: {} {unit} already journaled",
            campaign.completed()
        );
    }
    match run(campaign)? {
        Run::Complete(done) => Ok(Some(done)),
        Run::Checkpointed { completed, total } => {
            eprintln!(
                "{verb}: checkpointed at {completed} of {total}; \
                 resume with --journal {} --resume",
                dir.display()
            );
            Ok(None)
        }
    }
}

/// The content-addressed result store in a campaign directory.
fn result_store(dir: &Path) -> Result<Arc<DiskTier>, CommandError> {
    DiskTier::shared(dir)
        .map_err(|e| CommandError(format!("open result store in {}: {e}", dir.display())))
}

/// Errors surfaced to the user.
#[derive(Debug)]
pub struct CommandError(pub String);

impl core::fmt::Display for CommandError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CommandError {}

fn lookup(app: &str) -> Result<Workload, CommandError> {
    suite::by_name(app).ok_or_else(|| {
        let names = suite::names().join(", ");
        CommandError(format!("unknown workload '{app}'; available: {names}"))
    })
}

fn config(half_rf: bool) -> GpuConfig {
    if half_rf {
        GpuConfig::gtx480_half_rf()
    } else {
        GpuConfig::gtx480()
    }
}

/// `list [--json]`
pub fn list(json: bool) -> String {
    if json {
        let mut out = regmutex_server::wire::workloads_json().encode();
        out.push('\n');
        return out;
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<16} {:>5} {:>5} {:>5} {:>7} {:>6}  group",
        "app", "regs", "|Bs|", "tpc", "shmem", "grid"
    );
    for w in suite::all() {
        let _ = writeln!(
            out,
            "{:<16} {:>5} {:>5} {:>5} {:>7} {:>6}  {:?}",
            w.name,
            w.table_regs,
            w.table_bs,
            w.kernel.threads_per_cta,
            w.kernel.shmem_per_cta,
            w.grid_ctas,
            w.group
        );
    }
    out
}

/// `disasm <app>`
pub fn disasm(a: &DisasmArgs) -> Result<String, CommandError> {
    let w = lookup(&a.app)?;
    let session = Session::new(w.table_config());
    let kernel = if a.transformed {
        let compiled = session
            .compile(&w.kernel)
            .map_err(|e| CommandError(e.to_string()))?;
        compiled.kernel
    } else {
        w.kernel.clone()
    };
    if !a.liveness {
        return Ok(kernel.to_string());
    }
    let lv = analyze(&kernel);
    let mut out = String::new();
    let _ = writeln!(
        out,
        ".kernel {} // regs={} (live column = live-in count)",
        kernel.name, kernel.regs_per_thread
    );
    for (pc, i) in kernel.instrs.iter().enumerate() {
        let _ = writeln!(out, "  {pc:4}: [{:>2} live] {i}", lv.count_in(pc));
    }
    Ok(out)
}

/// `run <app> ...`
pub fn run(a: &RunArgs) -> Result<String, CommandError> {
    let w = lookup(&a.app)?;
    let technique = a.technique;
    let mut cfg = config(a.half_rf);
    if let Some(wd) = a.watchdog_cycles {
        cfg.watchdog_cycles = wd;
    }
    if let Some(m) = a.stall_multiplier {
        cfg.stall_multiplier = m;
    }
    cfg.cycle_skipping = !a.no_cycle_skip;
    let session = Session::with_options(
        cfg,
        CompileOptions {
            force_es: a.force_es,
            force_apply: a.force_es.is_some(),
        },
    );
    let launch = LaunchConfig::new(a.ctas.unwrap_or(w.grid_ctas));
    let rep = session
        .run(&w.kernel, launch, technique)
        .map_err(|e| CommandError(format!("{}/{technique}: {e}", w.name)))?;
    let mut out = String::new();
    let _ = writeln!(out, "workload   : {} ({} CTAs)", w.name, launch.grid_ctas);
    let _ = writeln!(
        out,
        "arch       : {}",
        if a.half_rf {
            "GTX480 half RF (64 KB/SM)"
        } else {
            "GTX480 (128 KB/SM)"
        }
    );
    let _ = writeln!(out, "technique  : {technique}");
    if let Some(p) = rep.plan {
        let _ = writeln!(
            out,
            "plan       : |Bs|={} |Es|={} sections={} occupancy={} warps",
            p.bs, p.es, p.srp_sections, p.occupancy_warps
        );
    }
    let _ = writeln!(out, "cycles     : {}", rep.cycles());
    let _ = writeln!(out, "ipc        : {:.3}", rep.stats.ipc());
    let _ = writeln!(
        out,
        "occupancy  : {}% theoretical, {:.1} warps achieved",
        rep.occupancy_percent(),
        rep.stats.achieved_occupancy_warps()
    );
    if rep.stats.acquire_attempts > 0 {
        let _ = writeln!(
            out,
            "acquires   : {} attempts, {:.1}% successful",
            rep.stats.acquire_attempts,
            100.0 * rep.acquire_success_rate()
        );
    }
    if rep.stats.spills > 0 {
        let _ = writeln!(out, "spills     : {}", rep.stats.spills);
    }
    let _ = writeln!(out, "storage    : +{} bits/SM", rep.storage_overhead_bits);
    let _ = writeln!(out, "checksum   : {:#018x}", rep.stats.checksum);
    Ok(out)
}

/// `bench-loop ...` — wall-clock the device loop with cycle skipping on vs
/// off and write the measurements to `out_path` as JSON. The second element
/// of the pair is the process exit code: 1 when the two loops disagree on
/// any statistic, or when skipping is more than 10% slower overall.
///
/// Runs go through [`Session`] directly — never the batch [`Runner`], whose
/// result cache would satisfy repeat runs without simulating and falsify
/// the timings.
pub fn bench_loop(a: &BenchLoopArgs) -> Result<(String, i32), CommandError> {
    use regmutex_server::json::Json;
    use std::time::Instant;

    let (apps, iters, out_path) = (&a.apps, a.iters, &a.out);
    // (row label, workload, grid override, simulated SMs)
    let mut basket: Vec<(String, Workload, Option<u32>, u32)> = Vec::new();
    if apps.is_empty() {
        // Default basket: a memory-latency-dominated workload at full
        // occupancy, the same workload at minimal occupancy (one CTA per
        // simulated SM — long fully stalled stretches, the skip loop's best
        // case), a control-heavy one as the adversarial control, and that
        // one again on the whole device, where every SM skips on its own
        // clock and the run's verdict is folded across SMs.
        let num_sms = GpuConfig::gtx480().num_sms;
        basket.push(("Gaussian".into(), lookup("Gaussian")?, None, 1));
        basket.push((
            "Gaussian-lowocc".into(),
            lookup("Gaussian")?,
            Some(num_sms),
            1,
        ));
        basket.push(("BFS".into(), lookup("BFS")?, None, 1));
        basket.push(("BFS-device".into(), lookup("BFS")?, None, num_sms));
    } else {
        for a in apps {
            basket.push((a.clone(), lookup(a)?, None, 1));
        }
    }

    let mut out = String::new();
    let mut rows: Vec<Json> = Vec::new();
    let mut code = 0;
    let (mut skip_total_ms, mut tick_total_ms) = (0.0f64, 0.0f64);
    let _ = writeln!(
        out,
        "simulation-loop benchmark — median wall clock of {iters} run(s) per mode\n"
    );
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>10} {:>10} {:>8}",
        "workload", "cycles", "skip ms", "tick ms", "speedup"
    );
    for (label, w, ctas, sms) in &basket {
        let launch = LaunchConfig::new(ctas.unwrap_or(w.grid_ctas));
        let mut medians = [0.0f64; 2];
        let mut reports = Vec::with_capacity(2);
        for (mode, skipping) in [true, false].into_iter().enumerate() {
            let mut cfg = config(false);
            cfg.cycle_skipping = skipping;
            cfg.simulated_sms = *sms;
            let session = Session::new(cfg);
            let compiled = session
                .compile(&w.kernel)
                .map_err(|e| CommandError(format!("{label}: {e}")))?;
            let mut walls = Vec::with_capacity(iters);
            let mut rep = None;
            for _ in 0..iters {
                let t0 = Instant::now();
                let r = session
                    .run_compiled(&compiled, launch, Technique::RegMutex)
                    .map_err(|e| CommandError(format!("{label}: {e}")))?;
                walls.push(t0.elapsed().as_secs_f64() * 1e3);
                rep = Some(r);
            }
            walls.sort_by(f64::total_cmp);
            medians[mode] = walls[walls.len() / 2];
            reports.push(rep.expect("iters >= 1"));
        }
        let [skip_ms, tick_ms] = medians;
        skip_total_ms += skip_ms;
        tick_total_ms += tick_ms;

        // The two loops must agree on every statistic except the loop's own
        // accounting of itself.
        let strip = |r: &regmutex::RunReport| {
            let mut s = r.stats.clone();
            s.skipped_cycles = 0;
            s.step_calls = 0;
            s
        };
        if strip(&reports[0]) != strip(&reports[1]) {
            let _ = writeln!(
                out,
                "FAIL: {label}: cycle skipping changed the simulation\n  skip: {:?}\n  tick: {:?}",
                reports[0].stats, reports[1].stats
            );
            code = 1;
        }
        let cycles = reports[0].cycles();
        let _ = writeln!(
            out,
            "{label:<18} {cycles:>12} {skip_ms:>10.2} {tick_ms:>10.2} {:>7.1}x",
            tick_ms / skip_ms.max(1e-9)
        );
        for (skipping, wall_ms) in [(true, skip_ms), (false, tick_ms)] {
            rows.push(Json::Obj(vec![
                ("workload".into(), Json::Str(label.clone())),
                ("cycles".into(), Json::U64(cycles)),
                ("wall_ms".into(), Json::F64(wall_ms)),
                (
                    "cycles_per_sec".into(),
                    Json::F64(cycles as f64 / (wall_ms / 1e3).max(1e-12)),
                ),
                ("skipping".into(), Json::Bool(skipping)),
                ("simulated_sms".into(), Json::U64(u64::from(*sms))),
            ]));
        }
    }

    // The skip loop must never be a real regression: allow 10% plus a small
    // absolute slack so sub-millisecond baskets don't flake.
    if skip_total_ms > 1.10 * tick_total_ms + 5.0 {
        let _ = writeln!(
            out,
            "FAIL: skipping total {skip_total_ms:.2} ms > 1.10 x tick total {tick_total_ms:.2} ms + 5 ms"
        );
        code = 1;
    }
    let report = Json::Obj(vec![
        ("iters".into(), Json::U64(iters as u64)),
        ("rows".into(), Json::Arr(rows)),
    ]);
    std::fs::write(out_path, report.encode() + "\n")
        .map_err(|e| CommandError(format!("write {out_path}: {e}")))?;
    let _ = writeln!(
        out,
        "\ntotal: skip {skip_total_ms:.2} ms vs tick {tick_total_ms:.2} ms ({:.1}x); wrote {out_path}",
        tick_total_ms / skip_total_ms.max(1e-9)
    );
    Ok((out, code))
}

/// `compare <app>`
pub fn compare(a: &CompareArgs) -> Result<String, CommandError> {
    let w = lookup(&a.app)?;
    let cfg = config(a.half_rf);
    let launch = w.launch();
    let runner = Runner::new(a.jobs.unwrap_or_else(default_jobs));
    let specs: Vec<JobSpec> = ALL_TECHNIQUES
        .iter()
        .map(|&t| JobSpec::new(format!("{}/{t}", w.name), &w.kernel, &cfg, launch, t))
        .collect();
    let mut reports = Vec::with_capacity(specs.len());
    for (result, spec) in runner.run_all(&specs).into_iter().zip(&specs) {
        reports.push(result.map_err(|e| CommandError(format!("{}: {e}", spec.label)))?);
    }
    let base = reports
        .iter()
        .find(|r| r.technique == Technique::Baseline)
        .expect("ALL_TECHNIQUES includes the baseline");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} on {} — baseline {} cycles, occupancy {}%\n",
        w.name,
        if a.half_rf { "half RF" } else { "GTX480" },
        base.cycles(),
        base.occupancy_percent()
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10} {:>12}",
        "technique", "cycles", "reduction", "occupancy", "storage bits"
    );
    for rep in &reports {
        if rep.stats.checksum != base.stats.checksum {
            return Err(CommandError(format!(
                "{}: functional divergence",
                rep.technique
            )));
        }
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>9.1}% {:>9}% {:>12}",
            rep.technique.to_string(),
            rep.cycles(),
            cycle_reduction_percent(base, rep),
            rep.occupancy_percent(),
            rep.storage_overhead_bits
        );
    }
    Ok(out)
}

/// `trace <app>`
pub fn trace(a: &TraceArgs) -> Result<String, CommandError> {
    let w = lookup(&a.app)?;
    let t = live_trace(&w.kernel, a.max_steps);
    let mut out = String::new();
    let _ = writeln!(out, "# {} — live% per executed instruction", w.name);
    let _ = writeln!(out, "instruction,live_percent");
    for (i, p) in t.percentages().iter().enumerate() {
        let _ = writeln!(out, "{i},{p:.2}");
    }
    if t.truncated {
        let _ = writeln!(out, "# truncated at {} steps", a.max_steps);
    }
    Ok(out)
}

/// The sweep journal's record: one job that simulated, by fingerprint.
/// Results themselves live in the content-addressed store the runner
/// probes before simulating, so replayed rows cost a disk read, not a
/// simulation.
struct SweepJob(u64);

impl Record for SweepJob {
    const KIND: &'static str = "sweep";

    type Identity = str;

    fn identity(app: &str) -> String {
        format!("app={app}")
    }

    fn encode(&self) -> String {
        format!("job-ok fp={:016x}", self.0)
    }

    fn decode(rec: &str) -> Option<Self> {
        let hex = rec.strip_prefix("job-ok fp=")?;
        u64::from_str_radix(hex, 16).ok().map(SweepJob)
    }

    fn key(&self) -> Option<u64> {
        Some(self.0)
    }
}

/// `sweep <app>`. The second element of the pair is the process exit code:
/// 0 when every `|Es|` row simulated, 3 when any row errored (the table
/// still renders — partial results beat none), [`CHECKPOINT_EXIT`] when a
/// journaled run was interrupted by SIGINT/SIGTERM.
pub fn sweep(a: &SweepArgs) -> Result<(String, i32), CommandError> {
    let w = lookup(&a.app)?;
    let cfg = w.table_config();
    let mut runner = Runner::new(a.jobs.unwrap_or_else(default_jobs));
    const ES_VALUES: [u16; 6] = [2, 4, 6, 8, 10, 12];

    let mut specs = vec![JobSpec::new(
        format!("{}/baseline", w.name),
        &w.kernel,
        &cfg,
        w.launch(),
        Technique::Baseline,
    )];
    for es in ES_VALUES {
        specs.push(
            JobSpec::new(
                format!("{}/|Es|={es}", w.name),
                &w.kernel,
                &cfg,
                w.launch(),
                Technique::RegMutex,
            )
            .with_options(CompileOptions {
                force_es: Some(es),
                force_apply: true,
            }),
        );
    }
    let collected = match &a.journal.dir {
        None => runner.run_all(&specs),
        Some(dir) => {
            // Persist results content-addressed, journal completions, and
            // poll for SIGINT/SIGTERM between batches.
            runner.set_tier(result_store(dir)?);
            let resume = a.journal.resume;
            let sweep = durable::<SweepJob, _>("sweep", dir, resume, &a.app, "jobs", |journal| {
                let mut collected = Vec::with_capacity(specs.len());
                for batch in specs.chunks(runner.jobs().max(1)) {
                    if signal::triggered() {
                        journal.sync();
                        return Ok(Run::Checkpointed {
                            completed: collected.len() as u64,
                            total: specs.len() as u64,
                        });
                    }
                    let results = runner.run_all(batch);
                    for (result, spec) in results.iter().zip(batch) {
                        if result.is_ok() {
                            journal.append(&SweepJob(spec.fingerprint()));
                        }
                    }
                    collected.extend(results);
                }
                journal.sync();
                Ok(Run::Complete(collected))
            })?;
            let Some(collected) = sweep else {
                return Ok((String::new(), CHECKPOINT_EXIT));
            };
            collected
        }
    };
    let mut results = collected.into_iter();
    let base = results
        .next()
        .expect("baseline job submitted")
        .map_err(|e| CommandError(format!("{}/baseline: {e}", w.name)))?;

    let heuristic = Session::new(cfg.clone())
        .compile(&w.kernel)
        .map_err(|e| CommandError(e.to_string()))?
        .plan
        .map(|p| p.es);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} |Es| sweep (baseline {} cycles; * = heuristic pick)\n",
        w.name,
        base.cycles()
    );
    let _ = writeln!(
        out,
        "{:>5} {:>10} {:>10} {:>10} {:>9}",
        "|Es|", "cycles", "reduction", "occupancy", "acq-rate"
    );
    let mut failed = false;
    for (es, result) in ES_VALUES.into_iter().zip(results) {
        match result {
            Ok(rep) if rep.plan.is_some() => {
                let mark = if heuristic == Some(es) { "*" } else { " " };
                let _ = writeln!(
                    out,
                    "{es:>4}{mark} {:>10} {:>9.1}% {:>9}% {:>8.1}%",
                    rep.cycles(),
                    cycle_reduction_percent(&base, &rep),
                    rep.occupancy_percent(),
                    100.0 * rep.acquire_success_rate()
                );
            }
            Ok(_) => {
                let _ = writeln!(out, "{es:>5} {:>10}", "not viable");
            }
            Err(e) => {
                failed = true;
                let _ = writeln!(out, "{es:>5} {}/regmutex |Es|={es}: error: {e}", w.name);
            }
        }
    }
    Ok((out, if failed { 3 } else { 0 }))
}

/// `chaos [<app>...]`. The second element of the pair is the process exit
/// code: 1 when the campaign observed silent corruption, or when
/// `expect_detections` is set and some fault class was never caught;
/// [`CHECKPOINT_EXIT`] when a journaled run was interrupted.
pub fn chaos(a: &ChaosArgs) -> Result<(String, i32), CommandError> {
    let spec = &a.spec;
    let report = match &a.journal.dir {
        None => run_campaign(spec).map_err(CommandError)?,
        Some(dir) => {
            let chaos = durable(
                "chaos",
                dir,
                a.journal.resume,
                spec,
                "injections",
                |journal| {
                    run_campaign_durable(spec, Some(&journal), Some(&signal::triggered))
                        .map_err(CommandError)
                },
            )?;
            let Some(report) = chaos else {
                return Ok((String::new(), CHECKPOINT_EXIT));
            };
            report
        }
    };

    let mut out = report.render();
    let mut code = 0;
    if report.silent() > 0 {
        let _ = writeln!(out, "FAIL: the safety net let corruption through");
        code = 1;
    }
    if a.expect_detections && !report.all_classes_detected() {
        let _ = writeln!(
            out,
            "FAIL: --expect-detections set but some fault class was never caught"
        );
        code = 1;
    }
    Ok((out, code))
}

/// `serve ...` — blocks until SIGINT/SIGTERM or `POST /v1/shutdown`.
pub fn serve(cfg: &ServerConfig) -> Result<String, CommandError> {
    regmutex_server::serve_until_shutdown(cfg.clone())
        .map(|()| String::new())
        .map_err(|e| CommandError(format!("serve: {e}")))
}

/// `coordinator ...` — run the Fig 7 sweep across a fleet of workers.
/// Returns the sweep output and the exit code, and prints the aggregated
/// Prometheus metrics to stderr so the sweep on stdout stays
/// byte-comparable to the local golden. Exit code 3 when any row is a
/// labeled error row (a give-up after exhausting retries — never a missing
/// row); [`CHECKPOINT_EXIT`] when a journaled run was interrupted.
pub fn coordinator(a: &CoordinatorArgs) -> Result<(String, i32), CommandError> {
    let mut coordinator = Coordinator::new(a.fleet.clone()).map_err(CommandError)?;
    let cycle_budget = a.cycle_budget;
    let source = Fig07Source;
    let mut jobs = source.jobs();
    if cycle_budget.is_some() {
        for j in &mut jobs {
            j.cycle_budget = cycle_budget;
        }
    }
    let results = match &a.journal.dir {
        None => Some(coordinator.execute(&jobs).map_err(CommandError)?),
        Some(dir) => {
            coordinator.set_tier(result_store(dir)?);
            coordinator.set_cancel(Arc::new(signal::triggered));
            // The campaign identity pins the job matrix (which jobs run), not
            // the throughput knobs — the determinism contract lets a resumed
            // run use a different worker list, seed, or thread count.
            let campaign = format!(
                "fig07 budget={}",
                cycle_budget.map_or_else(|| "-".to_string(), |b| b.to_string())
            );
            let resume = a.journal.resume;
            durable("coordinator", dir, resume, &*campaign, "jobs", |journal| {
                // Restores journaled circuit-breaker state; execution
                // re-probes first, so a recovered worker is re-admitted.
                coordinator.set_journal(journal);
                coordinator.execute_durable(&jobs).map_err(CommandError)
            })?
        }
    };
    eprint!("{}", coordinator.render_metrics());
    let Some(results) = results else {
        return Ok((String::new(), CHECKPOINT_EXIT));
    };
    Ok(source.render(&jobs, &results))
}

/// `chaos-fleet ...` — the network-fault campaign. The second element of
/// the pair is the process exit code: 1 when any job was lost or any row
/// silently wrong.
pub fn chaos_fleet(spec: &FleetCampaignSpec) -> Result<(String, i32), CommandError> {
    let report = run_fleet_campaign(spec).map_err(CommandError)?;
    Ok(report.render())
}

/// `fuzz ...` — mass kernel fuzzing with the differential oracle.
///
/// Three modes: `--replay FILE` re-runs one artifact (exit 0 iff its
/// documented outcome reproduces); `--fleet` shards the campaign across
/// workers' `/v1/fuzz` endpoints; otherwise a local campaign. In every
/// mode exit code 1 means a divergence (or a replay mismatch).
pub fn fuzz(a: &FuzzArgs) -> Result<(String, i32), CommandError> {
    let cfg = &a.campaign;
    let mut runner = Runner::new(a.jobs.unwrap_or_else(default_jobs));
    if let Some(path) = &a.replay {
        let text =
            std::fs::read_to_string(path).map_err(|e| CommandError(format!("read {path}: {e}")))?;
        let artifact = regmutex_fuzz::Artifact::parse(&text)
            .map_err(|e| CommandError(format!("{path}: {e}")))?;
        let oracle = &cfg.oracle;
        return Ok(regmutex_fuzz::replay_artifact(&artifact, &runner, oracle));
    }

    if a.fleet {
        let started = std::time::Instant::now();
        let fanout = regmutex_fleet::FuzzFanoutConfig {
            workers: a.workers.clone(),
            seed: cfg.seed,
            iters: cfg.iters,
            cycle_budget: cfg.oracle.cycle_budget,
            minimize: cfg.minimize,
            ..regmutex_fleet::FuzzFanoutConfig::default()
        };
        let report = regmutex_fleet::run_fuzz_fanout(&fanout).map_err(CommandError)?;
        if let Some(path) = &a.stats {
            std::fs::write(path, report.to_json(started.elapsed().as_millis()))
                .map_err(|e| CommandError(format!("write {path}: {e}")))?;
        }
        return Ok(report.render(&fanout.workers));
    }

    let report = match &a.journal.dir {
        None => regmutex_fuzz::run_campaign(cfg, &runner),
        Some(dir) => {
            runner.set_tier(result_store(dir)?);
            let fuzz = durable("fuzz", dir, a.journal.resume, cfg, "kernels", |journal| {
                Ok(regmutex_fuzz::run_campaign_durable(
                    cfg,
                    &runner,
                    Some(&journal),
                    Some(&signal::triggered),
                ))
            })?;
            let Some(report) = fuzz else {
                return Ok((String::new(), CHECKPOINT_EXIT));
            };
            report
        }
    };
    if let Some(path) = &a.stats {
        std::fs::write(path, report.to_json())
            .map_err(|e| CommandError(format!("write {path}: {e}")))?;
    }
    Ok(report.render())
}

/// `loadgen ...` — against one server, or with `--fleet` through the
/// coordinator.
pub fn loadgen(a: &LoadgenArgs) -> Result<String, CommandError> {
    let load = &a.load;
    let report = if a.fleet {
        let coordinator = Coordinator::new(FleetConfig {
            workers: a.workers.clone(),
            seed: load.seed,
            ..FleetConfig::default()
        })
        .map_err(CommandError)?;
        run_loadgen(load, &coordinator)
    } else {
        run_loadgen(load, &Direct(load))
    }
    .map_err(CommandError)?;
    let mut out = report.render();
    out.push('\n');
    if !report.nothing_dropped() {
        return Err(CommandError(format!(
            "loadgen: {} of {} requests got no verdict\n{out}",
            report.total - (report.ok + report.rejected + report.failed),
            report.total
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;

    /// The configuration a whitespace-separated argument line parses to:
    /// the tests drive the commands through the binary's own grammar.
    macro_rules! args {
        ($variant:ident, $line:expr) => {
            match crate::parse(
                &$line
                    .split_whitespace()
                    .map(String::from)
                    .collect::<Vec<_>>(),
            ) {
                Ok(Command::$variant(a)) => a,
                other => panic!("`{}` parsed to {other:?}", $line),
            }
        };
    }

    #[test]
    fn list_mentions_all_16() {
        let out = list(false);
        assert_eq!(out.lines().count(), 17); // header + 16
        assert!(out.contains("BFS"));
        assert!(out.contains("TPACF"));
    }

    #[test]
    fn list_json_is_machine_readable() {
        let out = list(true);
        let parsed = regmutex_server::json::parse(out.trim()).expect("valid JSON");
        let arr = parsed.as_arr().expect("array");
        assert_eq!(arr.len(), 16);
        for w in arr {
            for field in [
                "name",
                "regs",
                "base_set",
                "threads_per_cta",
                "shmem_per_cta",
                "grid_ctas",
                "group",
            ] {
                assert!(w.get(field).is_some(), "missing {field}");
            }
        }
    }

    #[test]
    fn unknown_workload_reports_options() {
        let err = disasm(&args!(Disasm, "disasm nope")).unwrap_err();
        assert!(err.0.contains("available"));
    }

    #[test]
    fn disasm_transformed_contains_primitives() {
        let plain = disasm(&args!(Disasm, "disasm BFS")).unwrap();
        assert!(!plain.contains("acq.es"));
        let transformed = disasm(&args!(Disasm, "disasm BFS --transformed")).unwrap();
        assert!(transformed.contains("acq.es"));
        assert!(transformed.contains("rel.es"));
    }

    #[test]
    fn disasm_liveness_annotates() {
        let out = disasm(&args!(Disasm, "disasm Gaussian --liveness")).unwrap();
        assert!(out.contains("live]"));
    }

    #[test]
    fn run_reports_plan_and_cycles() {
        let out = run(&args!(Run, "run Gaussian --half-rf --ctas 30")).unwrap();
        assert!(out.contains("plan"));
        assert!(out.contains("cycles"));
        assert!(out.contains("checksum"));
    }

    #[test]
    fn run_watchdog_flag_reaches_the_simulator() {
        // A 1-cycle watchdog must abort any real workload, and the error
        // must carry the workload/technique label.
        let a = args!(
            Run,
            "run Gaussian -t baseline --half-rf --ctas 30 --watchdog-cycles 1"
        );
        let err = run(&a).unwrap_err();
        assert!(err.0.contains("Gaussian/baseline"), "{err}");
        assert!(err.0.contains("exceeded 1 cycles"), "{err}");
    }

    #[test]
    fn trace_emits_csv() {
        let out = trace(&args!(Trace, "trace SAD --max 100")).unwrap();
        assert!(out.starts_with("# SAD"));
        assert!(out.lines().count() > 50);
    }

    #[test]
    fn compare_covers_all_techniques() {
        let out = compare(&args!(Compare, "compare Gaussian --half-rf --jobs 2")).unwrap();
        for t in ["baseline", "regmutex", "regmutex-paired", "rfv", "owf"] {
            assert!(out.contains(t), "missing {t}");
        }
    }

    #[test]
    fn sweep_is_worker_count_independent() {
        let (serial, code) = sweep(&args!(Sweep, "sweep BFS --jobs 1")).unwrap();
        let (parallel, _) = sweep(&args!(Sweep, "sweep BFS --jobs=4")).unwrap();
        assert_eq!(serial, parallel);
        assert_eq!(code, 0);
        assert!(serial.contains("|Es|"));
    }

    #[test]
    fn coordinator_rejects_an_empty_fleet() {
        // The grammar requires --workers, so build the empty fleet directly.
        let err = coordinator(&CoordinatorArgs::default()).unwrap_err();
        assert!(err.0.contains("fleet has no workers"), "{err}");
    }

    #[test]
    fn fleet_loadgen_rejects_unknown_apps_before_sending_traffic() {
        // The app filter is validated up front, so no worker is contacted
        // and the bogus address never matters.
        let line = "loadgen --workers 127.0.0.1:1 --threads 1 --requests 1 --seed 1 --apps nope";
        let a = args!(Loadgen, line);
        let err = loadgen(&a).unwrap_err();
        assert!(err.0.contains("no requested app"), "{err}");
    }

    #[test]
    fn fuzz_smoke_campaign_stats_and_replay() {
        // A tiny clean campaign, with the stats artifact on disk.
        let stats_path = std::env::temp_dir().join("regmutex_fuzz_cli_stats.json");
        let stats = stats_path.to_string_lossy().into_owned();
        let line = format!("fuzz --seed 0xfeed --iters 12 --jobs 2 --stats {stats}");
        let (out, code) = fuzz(&args!(Fuzz, line)).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verdict: CLEAN"), "{out}");
        let stats = std::fs::read_to_string(&stats_path).unwrap();
        assert!(stats.contains("\"kernels\":12"), "{stats}");
        let _ = std::fs::remove_file(&stats_path);

        // A planted fault must diverge (exit 1) and print an artifact.
        let line = "fuzz --seed 0xfa017 --iters 60 --jobs 2 --max-divergences 1 \
                    --fault stuck-srp-bit:severe:5:regmutex";
        let (out, code) = fuzz(&args!(Fuzz, line)).unwrap();
        assert_eq!(code, 1, "{out}");
        assert!(out.contains("verdict: DIVERGENT"), "{out}");
        assert!(out.contains("# regmutex-fuzz artifact v1"), "{out}");

        // Extract the artifact from the report and replay it: exit 0.
        let artifact: String = out
            .lines()
            .skip_while(|l| !l.trim_start().starts_with("# regmutex-fuzz artifact"))
            .take_while(|l| !l.trim().is_empty())
            .map(|l| format!("{}\n", l.trim_start()))
            .collect();
        let artifact_path = std::env::temp_dir().join("regmutex_fuzz_cli_artifact.txt");
        std::fs::write(&artifact_path, &artifact).unwrap();
        let line = format!("fuzz --jobs 2 --replay {}", artifact_path.display());
        let (out, code) = fuzz(&args!(Fuzz, line)).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("verdict: REPRODUCED"), "{out}");
        let _ = std::fs::remove_file(&artifact_path);

        // A malformed fault spec is a usage error, caught by the grammar.
        let bad = ["fuzz", "--fault", "nope"].map(String::from);
        let err = crate::parse(&bad).unwrap_err();
        assert!(err.contains("invalid fault 'nope'"), "{err}");
    }

    #[test]
    fn sweep_journal_roundtrip_is_byte_identical() {
        let dir =
            std::env::temp_dir().join(format!("rmx-cli-sweep-journal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let journal = format!("--journal {}", dir.display());

        let (golden, _) = sweep(&args!(Sweep, "sweep BFS --jobs 2")).unwrap();
        let (journaled, code) =
            sweep(&args!(Sweep, format!("sweep BFS --jobs 2 {journal}"))).unwrap();
        assert_eq!(code, 0);
        assert_eq!(journaled, golden, "journaling must not change the output");
        assert!(dir.join("journal.log").is_file());
        assert!(dir.join("store").is_dir());

        // Resume after completion: every row replays from the durable
        // tier, at a different worker count, byte-identically.
        let a = args!(Sweep, format!("sweep BFS --jobs 1 {journal} --resume"));
        let (resumed, code) = sweep(&a).unwrap();
        assert_eq!(code, 0);
        assert_eq!(resumed, golden);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The on-disk journal vocabulary, literally: every meta line and one
    /// record of every kind. Journals written by earlier builds must keep
    /// resuming, so none of these strings may move.
    #[test]
    fn journal_vocabulary_is_pinned() {
        use regmutex_bench::{chaos::Outcome, InjectionRecord};
        use regmutex_fleet::FleetRecord;
        use regmutex_fuzz::{CampaignConfig, KernelRecord, PlantedFault};
        use regmutex_sim::{FaultClass, Severity};

        /// `text` decodes to a record with `key` that encodes back to it.
        fn pinned<R: Record>(text: &str, key: Option<u64>) {
            let rec = R::decode(text).expect("pinned record must decode");
            assert_eq!((rec.encode().as_str(), rec.key()), (text, key));
        }
        /// Malformed payloads are gaps, never records.
        fn rejected<R: Record>(bad: &[&str]) {
            for b in bad {
                assert!(R::decode(b).is_none(), "accepted {b:?}");
            }
        }

        assert_eq!(Campaign::<SweepJob>::meta("BFS"), "meta kind=sweep app=BFS");
        let mut spec = regmutex_bench::chaos::CampaignSpec {
            jobs: 4,
            ..Default::default()
        };
        spec.workloads = vec!["Gaussian".into()];
        spec.seeds = 1;
        assert_eq!(
            Campaign::<InjectionRecord>::meta(&spec),
            "meta kind=chaos technique=regmutex seeds=1 watchdog=- stall=- matrix=11 \
             workloads=Gaussian"
        );
        spec.watchdog_cycles = Some(5000);
        spec.stall_multiplier = Some(3);
        spec.workloads.push("BFS".into());
        assert_eq!(
            Campaign::<InjectionRecord>::meta(&spec),
            "meta kind=chaos technique=regmutex seeds=1 watchdog=5000 stall=3 matrix=11 \
             workloads=Gaussian,BFS"
        );
        let mut cfg = CampaignConfig {
            seed: 0xc1,
            iters: 600,
            ..CampaignConfig::default()
        };
        assert_eq!(
            Campaign::<KernelRecord>::meta(&cfg),
            "meta kind=fuzz seed=0xc1 start=0 iters=600 budget=400000 esc=8 fault=- \
             minimize=1 mintests=12000 maxdiv=5"
        );
        cfg.start = 100;
        cfg.fault = Some(PlantedFault {
            class: FaultClass::StuckSrpBit,
            severity: Severity::Severe,
            seed: 5,
            technique: Technique::RegMutex,
        });
        cfg.minimize = false;
        cfg.max_divergences = 1;
        assert_eq!(
            Campaign::<KernelRecord>::meta(&cfg),
            "meta kind=fuzz seed=0xc1 start=100 iters=600 budget=400000 esc=8 \
             fault=stuck-srp-bit:severe:5:regmutex minimize=0 mintests=12000 maxdiv=1"
        );
        assert_eq!(
            Campaign::<FleetRecord>::meta("fig07 budget=-"),
            "meta kind=fleet fig07 budget=-"
        );

        assert_eq!(SweepJob(0xab).encode(), "job-ok fp=00000000000000ab");
        pinned::<SweepJob>("job-ok fp=00000000000000ab", Some(0xab));
        assert_eq!(
            FleetRecord::JobOk(0xab).encode(),
            "job-ok fp=00000000000000ab"
        );
        pinned::<FleetRecord>("job-ok fp=00000000000000ab", Some(0xab));
        pinned::<FleetRecord>("quarantine addr=127.0.0.1:9001", None);
        pinned::<FleetRecord>("readmit addr=127.0.0.1:9001", None);
        let ledger = InjectionRecord {
            index: 3,
            outcome: Outcome::Detected {
                detector: "ledger",
                cycles_to_detection: Some(17),
            },
        };
        assert_eq!(ledger.encode(), "inj index=3 outcome=detected:ledger:17");
        for outcome in [
            "detected:ledger:17",
            "detected:panic:-",
            "benign",
            "not-triggered",
            "silent:0x00000000deadbeef:0x0000000000000012",
        ] {
            pinned::<InjectionRecord>(&format!("inj index=3 outcome={outcome}"), Some(3));
        }
        pinned::<KernelRecord>("ok index=4 runs=5 esc=1", Some(4));
        pinned::<KernelRecord>(
            "div index=7 runs=41 technique=regmutex kind=checksum steps=3 tests=17 instr=12\n\
             detail=store checksum 0x1 != baseline 0x2\n\
             # regmutex-fuzz artifact v1\n\
             version=1\n\
             seed=0x000000000000abcd\n\
             trace=1,0,3\n\
             fault=stuck-srp-bit:severe:5:regmutex\n\
             expect=divergence:regmutex:checksum\n\
             note=minimized from campaign seed 0xc1 index 7\n",
            Some(7),
        );

        rejected::<SweepJob>(&["job-ok fp=xyz", "job-ok 00ab", "ok index=1 runs=2 esc=0"]);
        rejected::<FleetRecord>(&[
            "job-ok fp=",
            "quarantine w1:1",
            "inj index=0 outcome=benign",
        ]);
        rejected::<InjectionRecord>(&[
            "inj index=0 outcome=detected:made-up-detector:5",
            "inj index=0 outcome=detected:ledger:3:extra",
            "inj index=0 outcome=silent:nothex:0x1",
            "inj index=x outcome=benign",
            "inj index=0 outcome=",
        ]);
        rejected::<KernelRecord>(&[
            "",
            "ok index=1 runs=x esc=0",
            "ok index=1 runs=2 esc=0 extra=1",
            "div index=1 runs=2",
            "div index=1 runs=2 technique=nope kind=checksum steps=0 tests=0 instr=1\ndetail=d\nx",
            "inj index=0 outcome=benign",
        ]);
    }

    #[test]
    fn chaos_smoke_is_clean_and_exit_zero() {
        let (out, code) = chaos(&args!(Chaos, "chaos BFS --seeds 1 --jobs 4")).unwrap();
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("silent corruption: NONE"), "{out}");
        assert!(out.contains("chaos campaign"), "{out}");
    }
}
