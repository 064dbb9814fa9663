//! Dependency-free argument parsing for the CLI.
//!
//! Each verb is one static `Verb` table: its positional workload name(s),
//! one `Flag` per option, and a cross-flag `check`. One generic loop
//! (`Verb::parse`) reads an argument vector straight into the
//! configuration the verb runs with, starting from that configuration's
//! `Default`, so a default value is written down exactly once. The usage
//! synopsis is generated from the same tables.

use std::path::PathBuf;
use std::time::Duration;

use regmutex::{ParseTechniqueError, Technique};
use regmutex_bench::chaos::CampaignSpec;
use regmutex_bench::figures;
use regmutex_fleet::{FleetCampaignSpec, FleetConfig};
use regmutex_fuzz::{parse_fault, CampaignConfig};
use regmutex_server::wire::FUZZ_MAX_COUNT;
use regmutex_server::{LoadgenConfig, ServerConfig};

/// A parsed CLI invocation: the verb and the configuration it runs with.
#[derive(Debug, Clone)]
pub enum Command {
    /// `help` — usage.
    Help,
    /// `list` — print the workload registry (`true`: as JSON).
    List(bool),
    /// `disasm <app>` — print a kernel (optionally transformed / annotated).
    Disasm(DisasmArgs),
    /// `run <app>` — simulate one workload under one technique.
    Run(RunArgs),
    /// `bench-loop` — wall-clock the simulation loop with cycle skipping on
    /// vs off over a workload basket.
    BenchLoop(BenchLoopArgs),
    /// `compare <app>` — run all techniques and print the comparison.
    Compare(CompareArgs),
    /// `trace <app>` — dump the Fig 1 live-register trace as CSV.
    Trace(TraceArgs),
    /// `sweep <app>` — the Fig 10 |Es| sweep for one workload.
    Sweep(SweepArgs),
    /// `chaos [<app>...]` — a seeded fault-injection campaign.
    Chaos(ChaosArgs),
    /// `serve` — run the HTTP simulation service.
    Serve(ServerConfig),
    /// `loadgen` — closed-loop load against one server or a fleet.
    Loadgen(LoadgenArgs),
    /// `figures [<figure>...]` — regenerate the paper's tables and figures.
    Figures(FiguresArgs),
    /// `coordinator [<figure>]` — one figure's jobs across a fleet of
    /// workers.
    Coordinator(CoordinatorArgs),
    /// `chaos-fleet` — network-fault campaign against a live fleet.
    ChaosFleet(FleetCampaignSpec),
    /// `fuzz` — mass kernel fuzzing with the differential oracle.
    Fuzz(FuzzArgs),
}

/// `--journal DIR [--resume]`, shared by the campaign verbs.
#[derive(Debug, Clone, Default)]
pub struct JournalArgs {
    pub(crate) dir: Option<PathBuf>,
    pub(crate) resume: bool,
}

/// `disasm` configuration.
#[derive(Debug, Clone, Default)]
pub struct DisasmArgs {
    pub(crate) app: String,
    pub(crate) transformed: bool,
    pub(crate) liveness: bool,
}

/// `run` configuration.
#[derive(Debug, Clone, Default)]
pub struct RunArgs {
    pub(crate) app: String,
    pub(crate) technique: Technique,
    pub(crate) half_rf: bool,
    pub(crate) ctas: Option<u32>,
    pub(crate) force_es: Option<u16>,
    pub(crate) watchdog_cycles: Option<u64>,
    pub(crate) stall_multiplier: Option<u32>,
    pub(crate) no_cycle_skip: bool,
}

/// `bench-loop` configuration.
#[derive(Debug, Clone)]
pub struct BenchLoopArgs {
    /// Empty selects the default basket.
    pub(crate) apps: Vec<String>,
    pub(crate) iters: usize,
    pub(crate) out: String,
}

impl Default for BenchLoopArgs {
    fn default() -> Self {
        BenchLoopArgs {
            apps: Vec::new(),
            iters: 3,
            out: "BENCH_simloop.json".into(),
        }
    }
}

/// `compare` configuration.
#[derive(Debug, Clone, Default)]
pub struct CompareArgs {
    pub(crate) app: String,
    pub(crate) half_rf: bool,
    /// `None`: [`default_jobs`](regmutex_bench::runner::default_jobs).
    pub(crate) jobs: Option<usize>,
}

/// `trace` configuration.
#[derive(Debug, Clone)]
pub struct TraceArgs {
    pub(crate) app: String,
    pub(crate) max_steps: usize,
}

impl Default for TraceArgs {
    fn default() -> Self {
        TraceArgs {
            app: String::new(),
            max_steps: 20_000,
        }
    }
}

/// `sweep` configuration.
#[derive(Debug, Clone, Default)]
pub struct SweepArgs {
    pub(crate) app: String,
    /// `None`: [`default_jobs`](regmutex_bench::runner::default_jobs).
    pub(crate) jobs: Option<usize>,
    pub(crate) journal: JournalArgs,
}

/// `chaos` configuration.
#[derive(Debug, Clone, Default)]
pub struct ChaosArgs {
    pub(crate) spec: CampaignSpec,
    pub(crate) expect_detections: bool,
    pub(crate) journal: JournalArgs,
}

/// `loadgen` configuration: direct load uses `load`; with `fleet` the
/// coordinator is built from `workers` and `load`'s seed, and drives
/// `load`'s closed loop.
#[derive(Debug, Clone, Default)]
pub struct LoadgenArgs {
    pub(crate) load: LoadgenConfig,
    pub(crate) fleet: bool,
    pub(crate) workers: Vec<String>,
    /// The last direct-only flag given, refused with `--fleet`.
    pub(crate) direct: Option<&'static str>,
}

/// `figures` configuration.
#[derive(Debug, Clone, Default)]
pub struct FiguresArgs {
    /// Empty runs every figure.
    pub(crate) names: Vec<String>,
    /// `None`: print to stdout.
    pub(crate) out: Option<PathBuf>,
    /// `None`: [`default_jobs`](regmutex_bench::runner::default_jobs).
    pub(crate) jobs: Option<usize>,
    pub(crate) csv: bool,
}

/// `coordinator` configuration.
#[derive(Debug, Clone, Default)]
pub struct CoordinatorArgs {
    /// `None`: `fig07_occupancy_boost`.
    pub(crate) figure: Option<String>,
    pub(crate) fleet: FleetConfig,
    pub(crate) cycle_budget: Option<u64>,
    pub(crate) journal: JournalArgs,
}

/// `fuzz` configuration: a local `campaign`, its `--replay` of one
/// artifact, or (with `fleet`) the same campaign fanned out over
/// `workers`.
#[derive(Debug, Clone, Default)]
pub struct FuzzArgs {
    pub(crate) campaign: CampaignConfig,
    /// `None`: [`default_jobs`](regmutex_bench::runner::default_jobs).
    pub(crate) jobs: Option<usize>,
    pub(crate) stats: Option<String>,
    pub(crate) replay: Option<String>,
    pub(crate) fleet: bool,
    pub(crate) workers: Vec<String>,
    pub(crate) journal: JournalArgs,
    /// The last local-only flag given, refused with `--fleet`.
    pub(crate) local: Option<&'static str>,
}

/// Parses a flag's value into a verb's configuration `C`.
type Setter<C> = fn(&mut C, &str) -> Result<(), String>;

/// What a flag takes after its name.
enum Takes<C> {
    /// Nothing: a switch, `--name`.
    Nothing(fn(&mut C)),
    /// A value, `--name V` or `--name=V`, shown as `--name METAVAR`.
    Value(&'static str, Setter<C>),
}

/// One flag of one verb.
struct Flag<C> {
    name: &'static str,
    short: Option<&'static str>,
    help: &'static str,
    takes: Takes<C>,
}

impl<C> Flag<C> {
    /// `None` for a switch.
    fn metavar(&self) -> Option<&'static str> {
        match self.takes {
            Takes::Nothing(_) => None,
            Takes::Value(metavar, _) => Some(metavar),
        }
    }
}

/// A flag taking a value.
const fn opt<C>(
    name: &'static str,
    metavar: &'static str,
    help: &'static str,
    set: Setter<C>,
) -> Flag<C> {
    Flag {
        name,
        short: None,
        help,
        takes: Takes::Value(metavar, set),
    }
}

/// A switch.
const fn switch<C>(name: &'static str, help: &'static str, set: fn(&mut C)) -> Flag<C> {
    Flag {
        name,
        short: None,
        help,
        takes: Takes::Nothing(set),
    }
}

/// `flag`, also spelled `short`.
const fn short<C>(short: &'static str, mut flag: Flag<C>) -> Flag<C> {
    flag.short = Some(short);
    flag
}

/// How many positional names (workloads or figures) a verb takes.
enum Apps<C> {
    None,
    /// Exactly one workload, first: `<app>`.
    One(fn(&mut C, String)),
    /// At most one, anywhere: `[<what>]`.
    Optional(&'static str, fn(&mut C, String)),
    /// Any number, anywhere: `[<what>...]`; the setter sees them only when
    /// at least one was given.
    Many(&'static str, fn(&mut C, Vec<String>)),
}

/// One verb's grammar.
struct Verb<C: 'static> {
    name: &'static str,
    apps: Apps<C>,
    flags: &'static [Flag<C>],
    /// Cross-flag rules, run after every flag is set.
    check: fn(&C) -> Result<(), String>,
    wrap: fn(C) -> Command,
}

impl<C: Default + 'static> Verb<C> {
    /// Parse the arguments after the verb name into `C`, starting from
    /// `C::default()`.
    fn parse(&self, args: &[String]) -> Result<C, String> {
        let mut cfg = C::default();
        let mut it = args.iter();
        if let Apps::One(set) = self.apps {
            match it.next() {
                Some(app) if !app.starts_with('-') => set(&mut cfg, app.clone()),
                _ => return Err(format!("'{}' needs a workload name; try 'list'", self.name)),
            }
        }
        let mut apps = Vec::new();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                match self.apps {
                    Apps::Many(..) => apps.push(arg.clone()),
                    Apps::Optional(..) if apps.is_empty() => apps.push(arg.clone()),
                    _ => return Err(format!("unexpected argument '{arg}'")),
                }
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            let flag = self
                .flags
                .iter()
                .find(|f| f.name == name || f.short == Some(name))
                .ok_or_else(|| format!("unknown flag '{name}'"))?;
            let (metavar, set) = match (&flag.takes, inline) {
                (Takes::Nothing(set), None) => {
                    set(&mut cfg);
                    continue;
                }
                (Takes::Nothing(_), Some(_)) => return Err(format!("{name} takes no value")),
                (Takes::Value(metavar, set), _) => (metavar, set),
            };
            let value = match inline {
                Some(value) => value,
                None => it
                    .next()
                    .ok_or_else(|| format!("{name} needs a value ({metavar})"))?,
            };
            set(&mut cfg, value).map_err(|e| format!("invalid value '{value}' for {name}: {e}"))?;
        }
        match (&self.apps, apps.pop()) {
            (Apps::Optional(_, set), Some(name)) => set(&mut cfg, name),
            (Apps::Many(_, set), Some(name)) => {
                apps.push(name);
                set(&mut cfg, apps);
            }
            _ => {}
        }
        (self.check)(&cfg)?;
        Ok(cfg)
    }
}

/// A verb with its configuration type erased, for dispatch and usage.
trait AnyVerb: Sync {
    fn name(&self) -> &'static str;
    fn command(&self, args: &[String]) -> Result<Command, String>;
    /// `regmutex-cli <verb> <apps> [--flag V]...`, wrapped under the verb.
    fn synopsis(&self) -> String;
    /// One help line per flag.
    fn flag_help(&self) -> String;
}

impl<C: Default + 'static> AnyVerb for Verb<C> {
    fn name(&self) -> &'static str {
        self.name
    }

    fn command(&self, args: &[String]) -> Result<Command, String> {
        self.parse(args).map(self.wrap)
    }

    fn synopsis(&self) -> String {
        let mut out = format!("  regmutex-cli {}", self.name);
        let indent = " ".repeat(out.len());
        out += &match self.apps {
            Apps::None => String::new(),
            Apps::One(_) => " <app>".to_string(),
            Apps::Optional(what, _) => format!(" [<{what}>]"),
            Apps::Many(what, _) => format!(" [<{what}>...]"),
        };
        let mut width = out.len();
        for f in self.flags {
            let item = match f.metavar() {
                Some(m) => format!(" [{} {m}]", f.name),
                None => format!(" [{}]", f.name),
            };
            if width + item.len() > 78 {
                out = out + "\n" + &indent;
                width = indent.len();
            }
            width += item.len();
            out += &item;
        }
        out + "\n"
    }

    fn flag_help(&self) -> String {
        let mut out = String::new();
        for f in self.flags {
            let names = match f.short {
                Some(short) => format!("{short}, {}", f.name),
                None => format!("    {}", f.name),
            };
            let flag = format!("{names} {}", f.metavar().unwrap_or_default());
            out += &format!("  {flag:<32} {}\n", f.help);
        }
        out
    }
}

// Value grammar shared by every verb.

/// Store a parsed value.
fn put<T>(slot: &mut T, value: Result<T, String>) -> Result<(), String> {
    *slot = value?;
    Ok(())
}

/// An integer, decimal or `0x`-prefixed hex (the form fuzz reports and
/// artifacts print seeds in).
fn int<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
    let n = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    }
    .map_err(|_| "expected a decimal or 0x-hex integer".to_string())?;
    T::try_from(n).map_err(|_| "out of range".to_string())
}

/// A count that must be at least 1.
fn count<T: TryFrom<u64>>(v: &str) -> Result<T, String> {
    match int::<u64>(v)? {
        0 => Err("must be at least 1".into()),
        n => T::try_from(n).map_err(|_| "out of range".to_string()),
    }
}

/// A finite, non-negative rate.
fn rate(v: &str) -> Result<f64, String> {
    match v.parse::<f64>() {
        Ok(x) if x.is_finite() && x >= 0.0 => Ok(x),
        _ => Err("expected a finite non-negative number".into()),
    }
}

/// A comma-separated list.
fn list(v: &str) -> Result<Vec<String>, String> {
    Ok(v.split(',').map(str::to_string).collect())
}

/// A file or directory named by an optional flag.
fn path<T: for<'a> From<&'a str>>(v: &str) -> Result<Option<T>, String> {
    Ok(Some(T::from(v)))
}

fn technique(v: &str) -> Result<Technique, String> {
    v.parse().map_err(|e: ParseTechniqueError| e.to_string())
}

/// `--resume` is meaningless without a journal to resume from.
fn check_journal(j: &JournalArgs) -> Result<(), String> {
    match (&j.dir, j.resume) {
        (None, true) => Err("--resume needs --journal DIR".into()),
        _ => Ok(()),
    }
}

const JOBS: &str = "simulation worker threads (default: REGMUTEX_JOBS, else all cores)";
const JOURNAL: &str = "journal the campaign and store its results in DIR";
const RESUME: &str = "resume the journaled campaign instead of starting fresh";
const TECHNIQUE: &str = "baseline|regmutex|paired|rfv|owf (default: regmutex)";
const HALF_RF: &str = "use the half-size (64 KB/SM) register file";
const WATCHDOG: &str = "override the absolute watchdog cycle bound";
const STALL: &str = "override the no-progress detector's gmem_latency multiplier";
const FLEET: &str = "route through the fleet coordinator (needs --workers)";
const WORKERS: &str = "fleet worker addresses (implies --fleet)";
const NEEDS_WORKERS: &str = "needs --workers HOST:PORT[,HOST:PORT...]";

static LIST: Verb<bool> = Verb {
    name: "list",
    apps: Apps::None,
    flags: &[switch("--json", "emit the registry as a JSON array", |c| {
        *c = true
    })],
    check: |_| Ok(()),
    wrap: Command::List,
};

static DISASM: Verb<DisasmArgs> = Verb {
    name: "disasm",
    apps: Apps::One(|c, app| c.app = app),
    flags: &[
        switch(
            "--transformed",
            "show the RegMutex-transformed kernel",
            |c| c.transformed = true,
        ),
        switch(
            "--liveness",
            "annotate each instruction with its live-register count",
            |c| c.liveness = true,
        ),
    ],
    check: |_| Ok(()),
    wrap: Command::Disasm,
};

static RUN: Verb<RunArgs> = Verb {
    name: "run",
    apps: Apps::One(|c, app| c.app = app),
    flags: &[
        short(
            "-t",
            opt("--technique", "T", TECHNIQUE, |c, v| {
                put(&mut c.technique, technique(v))
            }),
        ),
        switch("--half-rf", HALF_RF, |c| c.half_rf = true),
        opt("--ctas", "N", "override the grid size", |c, v| {
            put(&mut c.ctas, count(v).map(Some))
        }),
        opt(
            "--force-es",
            "N",
            "force the |Es| extended-set size",
            |c, v| put(&mut c.force_es, int(v).map(Some)),
        ),
        opt("--watchdog-cycles", "N", WATCHDOG, |c, v| {
            put(&mut c.watchdog_cycles, int(v).map(Some))
        }),
        opt("--stall-multiplier", "N", STALL, |c, v| {
            put(&mut c.stall_multiplier, int(v).map(Some))
        }),
        switch(
            "--no-cycle-skip",
            "tick every cycle (no event-driven skipping)",
            |c| c.no_cycle_skip = true,
        ),
    ],
    check: |_| Ok(()),
    wrap: Command::Run,
};

static BENCH_LOOP: Verb<BenchLoopArgs> = Verb {
    name: "bench-loop",
    apps: Apps::None,
    flags: &[
        opt(
            "--apps",
            "A,B,...",
            "workloads to time (default: a 5-row basket)",
            |c, v| put(&mut c.apps, list(v)),
        ),
        opt(
            "--iters",
            "N",
            "timed runs per mode; the median is reported",
            |c, v| put(&mut c.iters, count(v)),
        ),
        opt("--out", "PATH", "where to write the JSON report", |c, v| {
            put(&mut c.out, Ok(v.into()))
        }),
    ],
    check: |_| Ok(()),
    wrap: Command::BenchLoop,
};

static COMPARE: Verb<CompareArgs> = Verb {
    name: "compare",
    apps: Apps::One(|c, app| c.app = app),
    flags: &[
        switch("--half-rf", HALF_RF, |c| c.half_rf = true),
        opt("--jobs", "N", JOBS, |c, v| {
            put(&mut c.jobs, count(v).map(Some))
        }),
    ],
    check: |_| Ok(()),
    wrap: Command::Compare,
};

static TRACE: Verb<TraceArgs> = Verb {
    name: "trace",
    apps: Apps::One(|c, app| c.app = app),
    flags: &[opt("--max", "N", "maximum dynamic instructions", |c, v| {
        put(&mut c.max_steps, int(v))
    })],
    check: |_| Ok(()),
    wrap: Command::Trace,
};

static SWEEP: Verb<SweepArgs> = Verb {
    name: "sweep",
    apps: Apps::One(|c, app| c.app = app),
    flags: &[
        opt("--jobs", "N", JOBS, |c, v| {
            put(&mut c.jobs, count(v).map(Some))
        }),
        opt("--journal", "DIR", JOURNAL, |c, v| {
            put(&mut c.journal.dir, path(v))
        }),
        switch("--resume", RESUME, |c| c.journal.resume = true),
    ],
    check: |c| check_journal(&c.journal),
    wrap: Command::Sweep,
};

static CHAOS: Verb<ChaosArgs> = Verb {
    name: "chaos",
    apps: Apps::Many("app", |c, apps| c.spec.workloads = apps),
    flags: &[
        opt(
            "--seeds",
            "N",
            "seeds per (workload, fault class, severity) cell",
            |c, v| put(&mut c.spec.seeds, count(v)),
        ),
        short(
            "-t",
            opt("--technique", "T", TECHNIQUE, |c, v| {
                put(&mut c.spec.technique, technique(v))
            }),
        ),
        opt("--jobs", "N", JOBS, |c, v| put(&mut c.spec.jobs, count(v))),
        opt("--watchdog-cycles", "N", WATCHDOG, |c, v| {
            put(&mut c.spec.watchdog_cycles, int(v).map(Some))
        }),
        opt("--stall-multiplier", "N", STALL, |c, v| {
            put(&mut c.spec.stall_multiplier, int(v).map(Some))
        }),
        switch(
            "--expect-detections",
            "exit 1 unless every fault class is caught",
            |c| c.expect_detections = true,
        ),
        opt("--journal", "DIR", JOURNAL, |c, v| {
            put(&mut c.journal.dir, path(v))
        }),
        switch("--resume", RESUME, |c| c.journal.resume = true),
    ],
    check: |c| check_journal(&c.journal),
    wrap: Command::Chaos,
};

static SERVE: Verb<ServerConfig> = Verb {
    name: "serve",
    apps: Apps::None,
    flags: &[
        opt("--addr", "HOST:PORT", "bind address", |c, v| {
            put(&mut c.addr, Ok(v.into()))
        }),
        opt("--workers", "N", JOBS, |c, v| {
            put(&mut c.sim_workers, count(v))
        }),
        opt("--queue", "N", "bounded job-queue capacity", |c, v| {
            put(&mut c.queue_capacity, count(v))
        }),
        opt("--cache-mb", "N", "result-cache budget in MiB", |c, v| {
            put(
                &mut c.cache_budget,
                int(v).map(|mb: usize| mb.saturating_mul(1 << 20)),
            )
        }),
        opt(
            "--cycle-budget",
            "N",
            "cycle cap applied to every job",
            |c, v| put(&mut c.cycle_budget, int(v).map(Some)),
        ),
        opt(
            "--max-connections",
            "N",
            "maximum concurrent connections",
            |c, v| put(&mut c.max_connections, int(v)),
        ),
        opt(
            "--client-rate",
            "R",
            "per-client requests/second (0 = off)",
            |c, v| put(&mut c.client_rate, rate(v)),
        ),
        opt(
            "--client-burst",
            "N",
            "per-client token-bucket burst",
            |c, v| put(&mut c.client_burst, rate(v)),
        ),
        opt(
            "--cache-dir",
            "DIR",
            "persist the result cache in DIR",
            |c, v| put(&mut c.cache_dir, path(v)),
        ),
    ],
    check: |_| Ok(()),
    wrap: Command::Serve,
};

static LOADGEN: Verb<LoadgenArgs> = Verb {
    name: "loadgen",
    apps: Apps::None,
    flags: &[
        opt("--addr", "HOST:PORT", "server address", |c, v| {
            c.direct = Some("--addr");
            put(&mut c.load.addr, Ok(v.into()))
        }),
        opt("--threads", "N", "concurrent client threads", |c, v| {
            put(&mut c.load.threads, count(v))
        }),
        opt("--requests", "N", "requests per thread", |c, v| {
            put(&mut c.load.requests, count(v))
        }),
        opt("--seed", "N", "workload-sampling seed", |c, v| {
            put(&mut c.load.seed, int(v))
        }),
        opt(
            "--apps",
            "A,B,...",
            "sample only these workloads",
            |c, v| put(&mut c.load.apps, list(v)),
        ),
        opt(
            "--cycle-budget",
            "N",
            "cycle budget carried by every request",
            |c, v| put(&mut c.load.cycle_budget, int(v).map(Some)),
        ),
        switch("--keep-alive", "reuse connections (the default)", |c| {
            c.direct = Some("--keep-alive");
            c.load.keep_alive = true
        }),
        switch("--no-keep-alive", "one connection per request", |c| {
            c.direct = Some("--no-keep-alive");
            c.load.keep_alive = false
        }),
        opt(
            "--pipeline",
            "N",
            "requests pipelined per round trip",
            |c, v| {
                c.direct = Some("--pipeline");
                put(&mut c.load.pipeline, count(v))
            },
        ),
        switch("--fleet", FLEET, |c| c.fleet = true),
        opt("--workers", "H:P,...", WORKERS, |c, v| {
            c.fleet = true;
            put(&mut c.workers, list(v))
        }),
    ],
    check: |c| match (c.fleet, c.workers.is_empty(), c.direct) {
        (true, true, _) => Err(format!("--fleet {NEEDS_WORKERS}")),
        (true, _, Some(flag)) => Err(format!("{flag} applies to direct loadgen, not --fleet")),
        _ => Ok(()),
    },
    wrap: Command::Loadgen,
};

static FIGURES: Verb<FiguresArgs> = Verb {
    name: "figures",
    apps: Apps::Many("figure", |c, names| c.names = names),
    flags: &[
        opt(
            "--out",
            "DIR",
            "write DIR/<figure>.txt instead of printing",
            |c, v| put(&mut c.out, path(v)),
        ),
        opt("--jobs", "N", JOBS, |c, v| {
            put(&mut c.jobs, count(v).map(Some))
        }),
        switch(
            "--csv",
            "append fig01_liveness's per-instruction series as CSV",
            |c| c.csv = true,
        ),
    ],
    check: |c| figures::select(&c.names, false).map(drop),
    wrap: Command::Figures,
};

static COORDINATOR: Verb<CoordinatorArgs> = Verb {
    name: "coordinator",
    apps: Apps::Optional("figure", |c, name| c.figure = Some(name)),
    flags: &[
        opt(
            "--workers",
            "H:P,...",
            "worker addresses (required)",
            |c, v| put(&mut c.fleet.workers, list(v)),
        ),
        opt("--seed", "N", "fleet seed (backoff jitter)", |c, v| {
            put(&mut c.fleet.seed, int(v))
        }),
        opt("--threads", "N", "concurrent dispatch threads", |c, v| {
            put(&mut c.fleet.dispatch_threads, count(v))
        }),
        opt(
            "--max-attempts",
            "N",
            "attempts per job before an error row",
            |c, v| put(&mut c.fleet.max_attempts, count(v)),
        ),
        opt("--cycle-budget", "N", "per-job cycle budget", |c, v| {
            put(&mut c.cycle_budget, int(v).map(Some))
        }),
        opt("--journal", "DIR", JOURNAL, |c, v| {
            put(&mut c.journal.dir, path(v))
        }),
        switch("--resume", RESUME, |c| c.journal.resume = true),
    ],
    check: |c| {
        figures::select(c.figure.as_slice(), false)?;
        check_journal(&c.journal)?;
        if c.fleet.workers.is_empty() {
            return Err(format!("coordinator {NEEDS_WORKERS}"));
        }
        Ok(())
    },
    wrap: Command::Coordinator,
};

static CHAOS_FLEET: Verb<FleetCampaignSpec> = Verb {
    name: "chaos-fleet",
    apps: Apps::None,
    flags: &[
        opt(
            "--seeds",
            "N",
            "fleet seeds per scenario (seeds 1..=N)",
            |c, v| put(&mut c.seeds, count(v).map(|n: u64| (1..=n).collect())),
        ),
        opt(
            "--apps",
            "A,B,...",
            "one workload set in place of the default two",
            |c, v| put(&mut c.app_sets, list(v).map(|apps| vec![apps])),
        ),
        opt("--cycle-budget", "N", "per-job cycle budget", |c, v| {
            put(&mut c.cycle_budget, int(v).map(Some))
        }),
        switch("--no-cycle-budget", "run every job to completion", |c| {
            c.cycle_budget = None
        }),
        opt(
            "--trigger-after",
            "N",
            "clean connections before each fault",
            |c, v| put(&mut c.trigger_after, int(v)),
        ),
        opt(
            "--sim-workers",
            "N",
            "simulation threads per worker",
            |c, v| put(&mut c.sim_workers, count(v)),
        ),
    ],
    check: |_| Ok(()),
    wrap: Command::ChaosFleet,
};

static FUZZ: Verb<FuzzArgs> = Verb {
    name: "fuzz",
    apps: Apps::None,
    flags: &[
        opt("--seed", "N", "campaign seed", |c, v| {
            put(&mut c.campaign.seed, int(v))
        }),
        opt("--iters", "N", "kernel count", |c, v| {
            put(&mut c.campaign.iters, count(v))
        }),
        opt(
            "--duration-secs",
            "N",
            "wall-clock budget (not reproducible)",
            |c, v| {
                c.local = Some("--duration-secs");
                put(
                    &mut c.campaign.duration,
                    int(v).map(|s| Some(Duration::from_secs(s))),
                )
            },
        ),
        opt("--jobs", "N", JOBS, |c, v| {
            c.local = Some("--jobs");
            put(&mut c.jobs, count(v).map(Some))
        }),
        opt(
            "--cycle-budget",
            "N",
            "per-technique cycle budget",
            |c, v| put(&mut c.campaign.oracle.cycle_budget, int(v)),
        ),
        opt(
            "--max-divergences",
            "N",
            "stop after this many divergences",
            |c, v| {
                c.local = Some("--max-divergences");
                put(&mut c.campaign.max_divergences, count(v))
            },
        ),
        opt(
            "--stats",
            "PATH",
            "write the JSON stats artifact",
            |c, v| put(&mut c.stats, path(v)),
        ),
        switch("--no-minimize", "skip minimizing divergences", |c| {
            c.campaign.minimize = false
        }),
        opt("--replay", "FILE", "replay one artifact instead", |c, v| {
            put(&mut c.replay, path(v))
        }),
        opt(
            "--fault",
            "CLASS:SEV:SEED:TECHNIQUE",
            "plant a manager fault",
            |c, v| {
                c.local = Some("--fault");
                put(&mut c.campaign.fault, parse_fault(v).map(Some))
            },
        ),
        switch("--fleet", FLEET, |c| c.fleet = true),
        opt("--workers", "H:P,...", WORKERS, |c, v| {
            c.fleet = true;
            put(&mut c.workers, list(v))
        }),
        opt("--journal", "DIR", JOURNAL, |c, v| {
            c.local = Some("--journal");
            put(&mut c.journal.dir, path(v))
        }),
        switch("--resume", RESUME, |c| c.journal.resume = true),
    ],
    check: |c| {
        check_journal(&c.journal)?;
        let shards = c.workers.len() as u64;
        match (c.fleet, c.local, &c.replay) {
            (true, _, _) if shards == 0 => Err(format!("--fleet {NEEDS_WORKERS}")),
            (true, Some(flag), _) => Err(format!("{flag} applies to local campaigns, not --fleet")),
            (true, _, Some(_)) => Err("--fleet cannot be combined with --replay".into()),
            (true, _, _) if c.campaign.iters > shards * FUZZ_MAX_COUNT => Err(format!(
                "--iters {} exceeds {FUZZ_MAX_COUNT} kernels per shard on {shards} worker(s)",
                c.campaign.iters
            )),
            (false, _, Some(_)) if c.journal.dir.is_some() => {
                Err("--journal applies to campaigns, not --replay".into())
            }
            _ => Ok(()),
        }
    },
    wrap: Command::Fuzz,
};

/// Every verb, in usage order.
static VERBS: [&dyn AnyVerb; 14] = [
    &LIST,
    &DISASM,
    &RUN,
    &BENCH_LOOP,
    &COMPARE,
    &TRACE,
    &SWEEP,
    &CHAOS,
    &FIGURES,
    &SERVE,
    &LOADGEN,
    &COORDINATOR,
    &CHAOS_FLEET,
    &FUZZ,
];

/// Parse an argument vector (without the program name); an error is the
/// user-facing diagnosis.
pub fn parse(args: &[String]) -> Result<Command, String> {
    let Some(verb) = args.first() else {
        return Ok(Command::Help);
    };
    if matches!(verb.as_str(), "help" | "--help" | "-h") {
        return Ok(Command::Help);
    }
    VERBS
        .iter()
        .find(|v| v.name() == verb)
        .ok_or_else(|| format!("unknown command '{verb}'; try 'help'"))
        .and_then(|v| v.command(&args[1..]))
}

/// The usage text: for a known `verb`, its synopsis and one help line per
/// flag; otherwise every verb's synopsis and the overview.
pub fn usage(verb: Option<&str>) -> String {
    if let Some(v) = VERBS.iter().find(|v| Some(v.name()) == verb) {
        let grammar = "FLAGS (--flag V or --flag=V; integers in decimal or 0x hex):";
        return format!("USAGE:\n{}\n{grammar}\n{}", v.synopsis(), v.flag_help());
    }
    let mut out =
        "regmutex-cli — drive the RegMutex (ISCA 2018) reproduction\n\nUSAGE:\n".to_string();
    for v in VERBS {
        out += &v.synopsis();
    }
    out + "  regmutex-cli help\n\n" + OVERVIEW
}

const OVERVIEW: &str = "\
The multi-simulation commands (compare, sweep, chaos, figures, fuzz) and
serve run their simulations on a worker pool; --jobs N (serve: --workers
N) sets the worker count (default: REGMUTEX_JOBS, else all cores). Output
is identical for any worker count.

The simulator fast-forwards over provably idle stretches (event-driven
cycle skipping); results are bit-identical either way. --no-cycle-skip
forces the tick-by-tick loop. bench-loop times both loops over a
workload basket (median of --iters runs), cross-checks that all stats
agree, and writes the measurements as JSON (exit 1 on any mismatch or
if skipping is >10% slower overall).

chaos injects seeded register-manager faults (dropped/delayed releases,
spurious acquires, corrupted LUT entries, stuck SRP bits, memory-latency
spikes) into every listed workload (default: a six-workload mix) and
verifies the safety net: exit 1 if any injection silently corrupts a
result, or if --expect-detections is set and some fault class was never
caught. --watchdog-cycles and --stall-multiplier tune the detectors.

serve runs the std-only HTTP simulation service (GET /healthz, GET
/metrics, GET /v1/workloads, POST /v1/run, POST /v1/sweep, POST
/v1/shutdown) on a raw-epoll event loop: HTTP/1.1 keep-alive with
bounded pipelining, chunked streaming for sweeps and fuzz progress,
bounded job queue (429 + Retry-After when full), shared LRU result
cache, per-client token-bucket fairness (--client-rate req/s with
--client-burst headroom; 0 = off), Prometheus metrics, and graceful
SIGINT/SIGTERM drain. loadgen drives it closed-loop over persistent
connections (--no-keep-alive for one connection per request,
--pipeline N for N requests per round trip) with a seeded workload mix
and reports throughput, exact latency percentiles, connection reuse,
backpressure and cache hits (429s are retried per Retry-After, capped,
and reported as goodput; pipelined batches skip retries). --cycle-budget
rides on every request.

figures regenerates the named tables and figures (default: all), each
byte-identical to its golden results/<figure>.txt, on one worker pool;
--out DIR writes them there instead of printing. Exit 3 if a job failed.

coordinator schedules one figure (default: fig07_occupancy_boost) across
N workers; a figure with a job on any GPU other than the GTX480 or its
half-RF variant is refused before dispatch. It uses consistent-hash
routing by job fingerprint (cache affinity), per-job deadlines from the
cycle budget, bounded retries with seeded-jittered exponential backoff,
automatic re-dispatch away from dead or hung workers (strike-based
quarantine + periodic /healthz re-admission), and response integrity
checks. Output is byte-identical to `figures <figure>` at any worker count;
aggregated Prometheus metrics go to stderr. loadgen --fleet runs the
same closed loop through the coordinator and breaks traffic down per
worker; the direct-only flags (--addr, --keep-alive, --no-keep-alive,
--pipeline) are refused there.

chaos-fleet injects every network fault class (kill, hang, close-early,
truncate, corrupt, delay) into a live two-worker fleet via a
deterministic proxy and compares every row against a local golden run:
exit 1 if any job was lost or any row silently wrong.

The campaign verbs (sweep, chaos, fuzz, coordinator) can run durably:
--journal DIR appends every completion to a checksummed journal in DIR
and spills results into a content-addressed store there, SIGINT/SIGTERM
checkpoints cleanly (exit 4, progress saved), and --resume replays the
journal, skips finished work, and produces byte-identical final output
to an uninterrupted run — at any --jobs or worker count.
A journal from a different campaign is refused; corrupted journal
records are diagnosed on stderr and the affected work re-runs. serve
--cache-dir DIR persists the result cache the same way, so a restarted
server comes up warm. If the journal disk fails mid-run (ENOSPC, EIO),
the campaign finishes in memory-only mode with a one-time warning.

fuzz generates --iters random kernels from --seed (kernel i is derived
from mix(seed, i)) and runs each through every technique, checking
checksum agreement, the RegMutex occupancy floor, and verdict symmetry;
divergences are delta-debugged over the generator's decision trace into
small replayable seed+trace artifacts (exit 1 if any are found). The
report is byte-identical at any --jobs count. --replay
re-runs one artifact and exits 0 iff its documented outcome reproduces;
--fault plants a register-manager fault (the oracle self-test: the
campaign MUST diverge); --stats writes machine-readable counters
including wall-clock throughput; --fleet shards the index range across
workers' POST /v1/fuzz endpoints with failover and prints the report a
local campaign prints (shard attribution goes to stderr). --fault,
--max-divergences, --duration-secs, --journal and --jobs are local-only
(each worker runs its own pool).
";

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// An argument vector written as one whitespace-separated line.
    fn v(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    fn err(line: &str) -> String {
        match parse(&v(line)) {
            Err(e) => e,
            Ok(cmd) => panic!("`{line}` parsed to {cmd:?}"),
        }
    }

    /// The configuration of a verb line that must parse.
    macro_rules! parsed {
        ($variant:ident, $line:expr) => {
            match parse(&v($line)) {
                Ok(Command::$variant(c)) => c,
                other => panic!("`{}` parsed to {other:?}", $line),
            }
        };
    }

    fn dbg(x: &impl std::fmt::Debug) -> String {
        format!("{x:?}")
    }

    #[test]
    fn empty_is_help() {
        for line in ["", "help", "--help", "-h"] {
            assert!(matches!(parse(&v(line)), Ok(Command::Help)), "{line}");
        }
    }

    /// Every verb's bare invocation is its library configuration's
    /// `Default`: the grammar holds no default values of its own.
    #[test]
    fn bare_verbs_parse_to_the_library_defaults() {
        let app = || "BFS".to_string();
        let fleet = FleetConfig {
            workers: v("h:1"),
            ..FleetConfig::default()
        };
        let cases = [
            ("list", Command::List(false)),
            (
                "disasm BFS",
                Command::Disasm(DisasmArgs {
                    app: app(),
                    ..Default::default()
                }),
            ),
            (
                "run BFS",
                Command::Run(RunArgs {
                    app: app(),
                    ..Default::default()
                }),
            ),
            ("bench-loop", Command::BenchLoop(BenchLoopArgs::default())),
            (
                "compare BFS",
                Command::Compare(CompareArgs {
                    app: app(),
                    ..Default::default()
                }),
            ),
            (
                "trace BFS",
                Command::Trace(TraceArgs {
                    app: app(),
                    ..Default::default()
                }),
            ),
            (
                "sweep BFS",
                Command::Sweep(SweepArgs {
                    app: app(),
                    ..Default::default()
                }),
            ),
            ("chaos", Command::Chaos(ChaosArgs::default())),
            ("figures", Command::Figures(FiguresArgs::default())),
            ("serve", Command::Serve(ServerConfig::default())),
            ("loadgen", Command::Loadgen(LoadgenArgs::default())),
            (
                "coordinator --workers h:1",
                Command::Coordinator(CoordinatorArgs {
                    fleet,
                    ..Default::default()
                }),
            ),
            (
                "chaos-fleet",
                Command::ChaosFleet(FleetCampaignSpec::default()),
            ),
            ("fuzz", Command::Fuzz(FuzzArgs::default())),
        ];
        let verbs = cases.each_ref().map(|(line, _)| v(line)[0].clone());
        assert_eq!(verbs, VERBS.map(|v| v.name()));
        for (line, want) in cases {
            assert_eq!(dbg(&parse(&v(line)).unwrap()), dbg(&want), "{line}");
        }
    }

    /// A valid sample value for each metavar, chosen to differ from every
    /// default so a flag that fails to land shows.
    fn sample(metavar: &str) -> &'static str {
        match metavar {
            "N" => "12345",
            "R" => "2.5",
            "T" => "rfv",
            "HOST:PORT" => "127.0.0.1:1",
            "H:P,..." => "127.0.0.1:1,127.0.0.1:2",
            "A,B,..." => "BFS,SPMV",
            "DIR" | "PATH" | "FILE" => "/tmp/x",
            "CLASS:SEV:SEED:TECHNIQUE" => "corrupt-lut:severe:3:regmutex",
            other => panic!("no sample value for metavar {other}"),
        }
    }

    /// Every value flag of `verb` lands as `--f v`, `--f=v` and its short
    /// alias alike; every switch refuses an inline value.
    fn round_trip<C: Default + 'static>(verb: &Verb<C>, base: &str) {
        let base = format!("{} {base}", verb.name);
        let bare = dbg(&parse(&v(&base)).unwrap());
        for f in verb.flags {
            let Some(metavar) = f.metavar() else {
                assert_eq!(
                    err(&format!("{base} {}=x", f.name)),
                    format!("{} takes no value", f.name)
                );
                continue;
            };
            let value = sample(metavar);
            let spaced = parse(&v(&format!("{base} {} {value}", f.name)));
            let spaced = dbg(&spaced.unwrap_or_else(|e| panic!("{} {value}: {e}", f.name)));
            let inline = parse(&v(&format!("{base} {}={value}", f.name)));
            assert_eq!(dbg(&inline.unwrap()), spaced, "{}", f.name);
            assert_ne!(spaced, bare, "{} {value} did not land", f.name);
            if let Some(short) = f.short {
                let aliased = parse(&v(&format!("{base} {short} {value}")));
                assert_eq!(dbg(&aliased.unwrap()), spaced, "{short}");
            }
        }
    }

    #[test]
    fn every_value_flag_round_trips_in_both_spellings() {
        round_trip(&LIST, "");
        round_trip(&DISASM, "BFS");
        round_trip(&RUN, "BFS");
        round_trip(&BENCH_LOOP, "");
        round_trip(&COMPARE, "BFS");
        round_trip(&TRACE, "BFS");
        round_trip(&SWEEP, "BFS");
        round_trip(&CHAOS, "");
        round_trip(&SERVE, "");
        round_trip(&LOADGEN, "");
        round_trip(&COORDINATOR, "--workers h:1");
        round_trip(&CHAOS_FLEET, "");
        round_trip(&FUZZ, "");
    }

    #[test]
    fn list_parses() {
        assert!(matches!(parse(&v("list")), Ok(Command::List(false))));
        assert!(matches!(parse(&v("list --json")), Ok(Command::List(true))));
        assert!(parse(&v("list --yaml")).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(dbg(&parsed!(Serve, "serve")), dbg(&ServerConfig::default()));
        let c = parsed!(
            Serve,
            "serve --addr 0.0.0.0:9000 --workers 2 --queue 8 --cache-mb 16 --cycle-budget 1000000 \
             --max-connections 32 --client-rate 50.5 --client-burst 4"
        );
        assert_eq!(
            (c.addr.as_str(), c.sim_workers, c.queue_capacity),
            ("0.0.0.0:9000", 2, 8)
        );
        assert_eq!(
            (c.cache_budget, c.cycle_budget),
            (16 << 20, Some(1_000_000))
        );
        assert_eq!(
            (c.max_connections, c.client_rate, c.client_burst),
            (32, 50.5, 4.0)
        );
        // The benchmark's daemon spawn.
        let c = parsed!(Serve, "serve --addr 127.0.0.1:0 --workers 3");
        assert_eq!((c.addr.as_str(), c.sim_workers), ("127.0.0.1:0", 3));
        assert!(parse(&v("serve --queue 0")).is_err());
        assert!(parse(&v("serve --client-rate -1")).is_err());
        assert!(parse(&v("serve --what")).is_err());
    }

    #[test]
    fn loadgen_defaults_and_flags() {
        let c = parsed!(Loadgen, "loadgen");
        assert_eq!(dbg(&c.load), dbg(&LoadgenConfig::default()));
        assert_eq!((c.fleet, c.workers.len(), c.direct), (false, 0, None));
        let line = "loadgen --addr 127.0.0.1:1234 --threads 2 --requests 10 --seed 7 \
                    --apps BFS,SPMV --no-keep-alive --pipeline 8 --cycle-budget 500";
        let c = parsed!(Loadgen, line);
        let l = &c.load;
        assert_eq!(
            (l.addr.as_str(), l.threads, l.requests, l.seed),
            ("127.0.0.1:1234", 2, 10, 7)
        );
        assert_eq!(
            (l.apps.clone(), l.keep_alive, l.pipeline, l.cycle_budget),
            (v("BFS SPMV"), false, 8, Some(500))
        );
        assert!(!c.fleet);
        // --keep-alive restores the default (last flag wins).
        assert!(
            parsed!(Loadgen, "loadgen --no-keep-alive --keep-alive")
                .load
                .keep_alive
        );
        // Seeds take the hex form on every verb.
        assert_eq!(parsed!(Loadgen, "loadgen --seed 0x10").load.seed, 16);
        assert!(parse(&v("loadgen --threads 0")).is_err());
        assert!(parse(&v("loadgen --pipeline 0")).is_err());
    }

    #[test]
    fn loadgen_fleet_mode() {
        // --workers implies --fleet; --cycle-budget rides along.
        let c = parsed!(
            Loadgen,
            "loadgen --workers 127.0.0.1:1,127.0.0.1:2 --cycle-budget 100000"
        );
        assert!(c.fleet);
        assert_eq!(c.workers, v("127.0.0.1:1 127.0.0.1:2"));
        assert_eq!(c.load.cycle_budget, Some(100_000));
        // --fleet without workers is an error.
        assert!(parse(&v("loadgen --fleet")).is_err());
        // The direct-only flags are refused rather than ignored, in
        // either order.
        for flag in [
            "--addr 127.0.0.1:9",
            "--keep-alive",
            "--no-keep-alive",
            "--pipeline 4",
            "--pipeline 1",
        ] {
            let err = parse(&v(&format!("loadgen --workers 127.0.0.1:1 {flag}"))).unwrap_err();
            let name = flag.split(' ').next().unwrap();
            assert!(err.contains(&format!("{name} applies to direct")), "{err}");
            assert!(parse(&v(&format!("loadgen {flag} --workers 127.0.0.1:1"))).is_err());
        }
    }

    #[test]
    fn figures_take_known_figure_names() {
        let c = parsed!(
            Figures,
            "figures fig02_timeline --out /tmp/f table_storage --csv"
        );
        assert_eq!(c.names, v("fig02_timeline table_storage"));
        assert_eq!((c.out, c.csv), (Some(PathBuf::from("/tmp/f")), true));
        assert!(err("figures fig02_timeline Nope").contains("unknown figure 'Nope'"));
    }

    #[test]
    fn coordinator_requires_workers_and_takes_one_known_figure() {
        assert!(parse(&v("coordinator")).is_err());
        let c = parsed!(
            Coordinator,
            "coordinator --workers a:1 fig13_acquire_success"
        );
        assert_eq!(c.figure.as_deref(), Some("fig13_acquire_success"));
        assert!(err("coordinator Nope --workers a:1").contains("unknown figure 'Nope'"));
        assert!(err("coordinator fig08_half_rf fig12_paired --workers a:1")
            .contains("unexpected argument 'fig12_paired'"));
        let c = parsed!(
            Coordinator,
            "coordinator --workers 127.0.0.1:1,127.0.0.1:2,127.0.0.1:3 --seed 9 --threads 8 \
             --max-attempts 5 --cycle-budget 50000"
        );
        assert_eq!(c.fleet.workers, v("127.0.0.1:1 127.0.0.1:2 127.0.0.1:3"));
        assert_eq!(
            (c.fleet.seed, c.fleet.dispatch_threads, c.fleet.max_attempts),
            (9, 8, 5)
        );
        assert_eq!(c.cycle_budget, Some(50_000));
        assert_eq!((c.journal.dir, c.journal.resume), (None, false));
        assert_eq!(
            parsed!(Coordinator, "coordinator --workers a --seed 0x10")
                .fleet
                .seed,
            16
        );
        assert!(parse(&v("coordinator --workers a --threads 0")).is_err());
    }

    #[test]
    fn chaos_fleet_defaults_and_flags() {
        let c = parsed!(ChaosFleet, "chaos-fleet");
        assert_eq!(dbg(&c), dbg(&FleetCampaignSpec::default()));
        let c = parsed!(
            ChaosFleet,
            "chaos-fleet --seeds 2 --apps BFS,SPMV --no-cycle-budget --trigger-after 3 \
             --sim-workers 1"
        );
        assert_eq!((c.seeds, c.app_sets), (vec![1, 2], vec![v("BFS SPMV")]));
        assert_eq!(
            (c.cycle_budget, c.trigger_after, c.sim_workers),
            (None, 3, 1)
        );
        assert!(parse(&v("chaos-fleet --seeds 0")).is_err());
        assert!(parse(&v("chaos-fleet --nope")).is_err());
    }

    #[test]
    fn disasm_flags() {
        let c = parsed!(Disasm, "disasm BFS --transformed --liveness");
        assert_eq!(
            (c.app.as_str(), c.transformed, c.liveness),
            ("BFS", true, true)
        );
        let c = parsed!(Disasm, "disasm BFS");
        assert_eq!(
            (c.app.as_str(), c.transformed, c.liveness),
            ("BFS", false, false)
        );
        // Unknown flags and stray arguments are refused, not ignored.
        assert_eq!(err("disasm BFS --what"), "unknown flag '--what'");
        assert_eq!(err("disasm BFS extra"), "unexpected argument 'extra'");
    }

    #[test]
    fn run_full_form() {
        let c = parsed!(Run, "run SAD -t rfv --half-rf --ctas 90 --force-es 8");
        assert_eq!(
            (c.app.as_str(), c.technique, c.half_rf),
            ("SAD", Technique::Rfv, true)
        );
        assert_eq!((c.ctas, c.force_es), (Some(90), Some(8)));
        assert_eq!(
            (c.watchdog_cycles, c.stall_multiplier, c.no_cycle_skip),
            (None, None, false)
        );
    }

    #[test]
    fn run_detector_flags() {
        let c = parsed!(
            Run,
            "run BFS --watchdog-cycles 5000000 --stall-multiplier 16"
        );
        assert_eq!(
            (c.technique, c.half_rf, c.ctas, c.force_es),
            (Technique::RegMutex, false, None, None)
        );
        assert_eq!(
            (c.watchdog_cycles, c.stall_multiplier),
            (Some(5_000_000), Some(16))
        );
        assert!(parse(&v("run BFS --watchdog-cycles soon")).is_err());
    }

    #[test]
    fn run_defaults_to_regmutex() {
        let c = parsed!(Run, "run BFS");
        assert_eq!((c.app.as_str(), c.technique), ("BFS", Technique::RegMutex));
        assert_eq!(
            (c.half_rf, c.ctas, c.force_es, c.no_cycle_skip),
            (false, None, None, false)
        );
        assert_eq!((c.watchdog_cycles, c.stall_multiplier), (None, None));
    }

    #[test]
    fn run_no_cycle_skip_flag() {
        assert!(parsed!(Run, "run BFS --no-cycle-skip").no_cycle_skip);
    }

    #[test]
    fn out_of_range_values_are_diagnosed() {
        assert_eq!(
            err("run BFS --ctas 0"),
            "invalid value '0' for --ctas: must be at least 1"
        );
        assert_eq!(
            err("run BFS --force-es 70000"),
            "invalid value '70000' for --force-es: out of range"
        );
        for line in [
            "sweep BFS --jobs 0",
            "compare BFS --jobs=0",
            "chaos --jobs 0",
            "fuzz --jobs 0",
            "serve --workers 0",
        ] {
            assert!(err(line).ends_with("must be at least 1"), "{line}");
        }
        for rate in ["NaN", "inf", "-inf", "-1", "fast"] {
            let e = err(&format!("serve --client-rate {rate}"));
            assert!(e.ends_with("expected a finite non-negative number"), "{e}");
            assert!(parse(&v(&format!("serve --client-burst {rate}"))).is_err());
        }
    }

    #[test]
    fn device_loop_shard_flag_is_unknown() {
        // The device loop is serial, so no verb takes a shard count.
        for verb in ["run BFS", "bench-loop", "serve", "fuzz"] {
            let line = format!("{verb} --sm-workers 4");
            assert_eq!(err(&line), "unknown flag '--sm-workers'", "{verb}");
        }
    }

    #[test]
    fn bench_loop_defaults_and_flags() {
        let c = parsed!(BenchLoop, "bench-loop");
        assert_eq!(
            (c.apps.len(), c.iters, c.out.as_str()),
            (0, 3, "BENCH_simloop.json")
        );
        let c = parsed!(
            BenchLoop,
            "bench-loop --apps Gaussian,BFS --iters 7 --out /tmp/b.json"
        );
        assert_eq!(
            (c.apps, c.iters, c.out.as_str()),
            (v("Gaussian BFS"), 7, "/tmp/b.json")
        );
        assert!(parse(&v("bench-loop --iters 0")).is_err());
    }

    #[test]
    fn chaos_defaults_and_flags() {
        let c = parsed!(Chaos, "chaos");
        assert_eq!(dbg(&c.spec), dbg(&CampaignSpec::default()));
        assert_eq!(c.spec.workloads.len(), 6);
        assert_eq!((c.spec.seeds, c.spec.technique), (8, Technique::RegMutex));
        assert!(!c.expect_detections);
        let line = "chaos BFS MergeSort --seeds 2 --jobs 4 --expect-detections -t paired \
                    --stall-multiplier 32";
        let c = parsed!(Chaos, line);
        let s = &c.spec;
        assert_eq!(s.workloads, v("BFS MergeSort"));
        assert_eq!(
            (s.seeds, s.technique, s.jobs),
            (2, Technique::RegMutexPaired, 4)
        );
        assert_eq!((s.watchdog_cycles, s.stall_multiplier), (None, Some(32)));
        assert!(c.expect_detections);
        // Workload names may come anywhere among the flags.
        assert_eq!(
            parsed!(Chaos, "chaos --seeds 1 SAD").spec.workloads,
            v("SAD")
        );
        assert!(parse(&v("chaos --seeds 0")).is_err());
        assert!(parse(&v("chaos --nope")).is_err());
    }

    #[test]
    fn technique_aliases() {
        assert_eq!(technique("paired"), Ok(Technique::RegMutexPaired));
        assert_eq!(technique("OWF"), Ok(Technique::Owf));
        assert!(technique("nope").is_err());
        assert!(err("run BFS --technique nope").contains("unknown technique 'nope'"));
    }

    #[test]
    fn missing_app_is_an_error() {
        assert!(parse(&v("run")).is_err());
        assert!(parse(&v("disasm --liveness")).is_err());
        // A flag where the workload belongs is named as a missing workload,
        // not as its value being an unknown flag.
        assert_eq!(
            err("sweep --jobs 4"),
            "'sweep' needs a workload name; try 'list'"
        );
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse(&v("run BFS --what")).is_err());
        assert!(parse(&v("nonsense")).is_err());
        assert_eq!(err("run BFS --ctas"), "--ctas needs a value (N)");
    }

    #[test]
    fn sweep_and_compare_jobs() {
        let c = parsed!(Sweep, "sweep BFS");
        assert_eq!(
            (c.app.as_str(), c.jobs, c.journal.dir, c.journal.resume),
            ("BFS", None, None, false)
        );
        assert_eq!(parsed!(Sweep, "sweep BFS --jobs 4").jobs, Some(4));
        let c = parsed!(Compare, "compare SAD --jobs=2 --half-rf");
        assert_eq!((c.app.as_str(), c.half_rf, c.jobs), ("SAD", true, Some(2)));
        assert!(parse(&v("sweep BFS --jobs many")).is_err());
        assert!(parse(&v("sweep BFS --half-rf")).is_err());
    }

    #[test]
    fn fuzz_defaults_and_flags() {
        let c = parsed!(Fuzz, "fuzz");
        assert_eq!(dbg(&c.campaign), dbg(&CampaignConfig::default()));
        assert_eq!(
            (c.jobs, c.stats, c.replay, c.fleet),
            (None, None, None, false)
        );
        let fault = "corrupt-lut:severe:3:regmutex";
        let c = parsed!(
            Fuzz,
            &format!(
                "fuzz --seed 42 --iters 500 --jobs 2 --cycle-budget 100000 --max-divergences 3 \
                 --stats /tmp/fuzz.json --no-minimize --fault {fault}"
            )
        );
        let k = &c.campaign;
        assert_eq!(
            (k.seed, k.iters, k.oracle.cycle_budget, k.max_divergences),
            (42, 500, 100_000, 3)
        );
        assert_eq!(
            (c.jobs, c.stats.as_deref(), k.minimize),
            (Some(2), Some("/tmp/fuzz.json"), false)
        );
        assert_eq!(dbg(&k.fault), dbg(&parse_fault(fault).ok()));
        let secs = parsed!(Fuzz, "fuzz --duration-secs 9").campaign.duration;
        assert_eq!(secs, Some(Duration::from_secs(9)));
        // Seeds parse in the same hex form the reports print them in.
        assert_eq!(parsed!(Fuzz, "fuzz --seed 0xfa017").campaign.seed, 0xfa017);
        assert_eq!(parsed!(Fuzz, "fuzz --jobs=2").jobs, Some(2));
        assert!(parse(&v("fuzz --iters 0")).is_err());
        assert!(parse(&v("fuzz --max-divergences 0")).is_err());
        assert!(parse(&v("fuzz --nope")).is_err());
        // A bad fault spec is a usage error.
        assert!(err("fuzz --fault nope").starts_with("invalid value 'nope' for --fault"));
    }

    #[test]
    fn fuzz_fleet_mode() {
        // --workers implies --fleet.
        let c = parsed!(Fuzz, "fuzz --workers 127.0.0.1:1,127.0.0.1:2");
        assert!(c.fleet);
        assert_eq!(c.workers.len(), 2);
        assert!(parse(&v("fuzz --fleet")).is_err());
        // Fleet excludes single-kernel / fault-injection modes.
        assert!(parse(&v("fuzz --fleet --workers a:1 --replay f")).is_err());
        // Flags a fleet campaign cannot honour are refused, in either order.
        for (line, flag) in [
            (
                "fuzz --fleet --workers a:1 --fault corrupt-lut:severe:1:regmutex",
                "--fault",
            ),
            (
                "fuzz --workers a:1 --max-divergences 3",
                "--max-divergences",
            ),
            ("fuzz --duration-secs 5 --workers a:1", "--duration-secs"),
            ("fuzz --workers a:1 --jobs 4", "--jobs"),
        ] {
            assert_eq!(
                err(line),
                format!("{flag} applies to local campaigns, not --fleet")
            );
        }
        // A shard larger than /v1/fuzz takes is refused before dispatch.
        assert!(parse(&v("fuzz --workers a:1,b:2 --iters 200000")).is_ok());
        assert!(err("fuzz --workers a:1,b:2 --iters 200001").contains("exceeds 100000"));
    }

    #[test]
    fn journal_and_resume_flags() {
        // Every campaign verb takes --journal DIR, optionally --resume.
        let dir = Some(Path::new("/tmp/j"));
        let j = parsed!(Sweep, "sweep BFS --journal /tmp/j --resume").journal;
        assert_eq!((j.dir.as_deref(), j.resume), (dir, true));
        let j = parsed!(Chaos, "chaos BFS --journal /tmp/j").journal;
        assert_eq!((j.dir.as_deref(), j.resume), (dir, false));
        let j = parsed!(Fuzz, "fuzz --journal /tmp/j --resume").journal;
        assert_eq!((j.dir.as_deref(), j.resume), (dir, true));
        let j = parsed!(Coordinator, "coordinator --workers a:1 --journal /tmp/j").journal;
        assert_eq!((j.dir.as_deref(), j.resume), (dir, false));
        // --resume without --journal is a usage error, on every verb.
        for bad in [
            "sweep BFS --resume",
            "chaos --resume",
            "fuzz --resume",
            "coordinator --workers a:1 --resume",
        ] {
            assert_eq!(err(bad), "--resume needs --journal DIR", "{bad}");
        }
        // The journal drives a local campaign loop; fleet fan-out and
        // single-artifact replay don't have one.
        assert!(parse(&v("fuzz --journal /tmp/j --workers a:1")).is_err());
        assert!(parse(&v("fuzz --journal /tmp/j --replay f")).is_err());
        // A value-less --journal is rejected.
        assert!(parse(&v("sweep BFS --journal")).is_err());
    }

    #[test]
    fn serve_cache_dir_flag() {
        let c = parsed!(Serve, "serve --cache-dir /tmp/cache");
        assert_eq!(c.cache_dir.as_deref(), Some("/tmp/cache"));
        assert!(parse(&v("serve --cache-dir")).is_err());
    }

    #[test]
    fn trace_max() {
        let c = parsed!(Trace, "trace SAD --max 500");
        assert_eq!((c.app.as_str(), c.max_steps), ("SAD", 500));
        assert!(parse(&v("trace SAD --max abc")).is_err());
    }

    #[test]
    fn usage_synopsis_lists_every_flag() {
        let full = usage(None);
        for verb in VERBS {
            assert!(full.contains(&format!("regmutex-cli {}", verb.name())));
            assert!(usage(Some(verb.name())).starts_with("USAGE:\n"));
        }
        for flag in FUZZ.flags {
            assert!(full.contains(&format!("[{}", flag.name)), "{}", flag.name);
        }
        assert!(usage(Some("run")).contains("-t, --technique T"));
        assert!(full.lines().all(|l| l.chars().count() <= 80), "{full}");
    }
}
