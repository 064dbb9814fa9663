//! Dependency-free argument parsing for the CLI.

use regmutex::Technique;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `list` — print the workload registry.
    List {
        /// Emit the machine-readable JSON registry instead of the table.
        json: bool,
    },
    /// `disasm <app>` — print a kernel (optionally transformed / annotated).
    Disasm {
        /// Workload name.
        app: String,
        /// Show the RegMutex-transformed kernel instead of the original.
        transformed: bool,
        /// Annotate each instruction with its live-register count.
        liveness: bool,
    },
    /// `run <app>` — simulate one workload under one technique.
    Run {
        /// Workload name.
        app: String,
        /// Technique to run.
        technique: Technique,
        /// Use the half-size register file.
        half_rf: bool,
        /// Override the grid size.
        ctas: Option<u32>,
        /// Force a specific `|Es|`.
        force_es: Option<u16>,
        /// Override the absolute watchdog cycle bound.
        watchdog_cycles: Option<u64>,
        /// Override the no-progress detector's `gmem_latency` multiplier.
        stall_multiplier: Option<u32>,
        /// Disable event-driven cycle skipping (tick every cycle).
        no_cycle_skip: bool,
    },
    /// `bench-loop` — wall-clock the simulation loop with cycle skipping
    /// on vs off over a workload basket; write `BENCH_simloop.json`.
    BenchLoop {
        /// Workload names; empty selects the default basket.
        apps: Vec<String>,
        /// Timed repetitions per configuration (median reported).
        iters: usize,
        /// Output path for the JSON report.
        out: String,
    },
    /// `compare <app>` — run all techniques and print the comparison.
    Compare {
        /// Workload name.
        app: String,
        /// Use the half-size register file.
        half_rf: bool,
        /// Simulation worker threads (default: all cores).
        jobs: Option<usize>,
    },
    /// `trace <app>` — dump the Fig 1 live-register trace as CSV.
    Trace {
        /// Workload name.
        app: String,
        /// Maximum dynamic instructions.
        max_steps: usize,
    },
    /// `sweep <app>` — the Fig 10 |Es| sweep for one workload.
    Sweep {
        /// Workload name.
        app: String,
        /// Simulation worker threads (default: all cores).
        jobs: Option<usize>,
        /// Durable campaign directory (journal + result store).
        journal: Option<String>,
        /// Resume the journaled campaign instead of starting fresh.
        resume: bool,
    },
    /// `chaos [<app>...]` — a seeded fault-injection campaign against the
    /// safety net.
    Chaos {
        /// Workload names; empty selects the default six-workload mix.
        apps: Vec<String>,
        /// Seeds per `(workload, fault class, severity)` cell.
        seeds: u64,
        /// Technique whose manager the faults attack.
        technique: Technique,
        /// Simulation worker threads (default: all cores).
        jobs: Option<usize>,
        /// Override the absolute watchdog cycle bound.
        watchdog_cycles: Option<u64>,
        /// Override the no-progress detector's `gmem_latency` multiplier.
        stall_multiplier: Option<u32>,
        /// Fail (exit 1) unless every fault class was detected at least
        /// once.
        expect_detections: bool,
        /// Durable campaign directory (journal + result store).
        journal: Option<String>,
        /// Resume the journaled campaign instead of starting fresh.
        resume: bool,
    },
    /// `serve` — run the HTTP simulation service.
    Serve {
        /// Bind address (`host:port`).
        addr: String,
        /// Simulation worker threads (default: `REGMUTEX_JOBS` or all
        /// cores).
        workers: Option<usize>,
        /// Bounded job-queue capacity.
        queue: usize,
        /// Result-cache budget in MiB.
        cache_mb: usize,
        /// Cycle cap applied to every job.
        cycle_budget: Option<u64>,
        /// Maximum concurrent connections.
        max_connections: usize,
        /// Per-client token-bucket rate in requests/second (0 = off).
        client_rate: f64,
        /// Per-client token-bucket burst size.
        client_burst: f64,
        /// Persist the result cache here; a restarted server warm-starts.
        cache_dir: Option<String>,
    },
    /// `loadgen` — closed-loop load generator against a running server,
    /// or (with `--fleet`) through the fault-tolerant coordinator.
    Loadgen {
        /// Server address (`host:port`).
        addr: String,
        /// Concurrent client threads.
        threads: usize,
        /// Requests per thread.
        requests: usize,
        /// Sampling seed.
        seed: u64,
        /// Restrict sampling to these workloads (comma-separated).
        apps: Vec<String>,
        /// Route every request through the fleet coordinator instead of
        /// speaking raw HTTP at one server.
        fleet: bool,
        /// Worker addresses for `--fleet` (comma-separated `host:port`).
        workers: Vec<String>,
        /// Per-job cycle budget in fleet mode (tightens deadlines).
        cycle_budget: Option<u64>,
        /// Reuse connections across requests (HTTP/1.1 keep-alive).
        keep_alive: bool,
        /// Requests pipelined per round trip (1 = classic).
        pipeline: usize,
    },
    /// `coordinator` — run the Fig 7 sweep across a fleet of workers with
    /// retries, backoff, and failover.
    Coordinator {
        /// Worker addresses (comma-separated `host:port`).
        workers: Vec<String>,
        /// Fleet seed (backoff jitter).
        seed: u64,
        /// Concurrent dispatch threads.
        threads: usize,
        /// Attempts per job before giving up with a labeled error row.
        max_attempts: u32,
        /// Per-job cycle budget (tightens deadlines).
        cycle_budget: Option<u64>,
        /// Durable campaign directory (journal + result store).
        journal: Option<String>,
        /// Resume the journaled campaign instead of starting fresh.
        resume: bool,
    },
    /// `chaos-fleet` — network-fault campaign against a live two-worker
    /// fleet; exits 1 on any lost or silently-wrong row.
    ChaosFleet {
        /// Fleet seeds per scenario (campaign uses seeds `1..=N`).
        seeds: u64,
        /// Restrict the campaign to one workload set (comma-separated;
        /// empty = the default two sets).
        apps: Vec<String>,
        /// Per-job cycle budget (keeps scenarios fast).
        cycle_budget: Option<u64>,
        /// Connections forwarded cleanly before each fault engages.
        trigger_after: usize,
        /// Simulation worker threads per in-process server.
        sim_workers: usize,
    },
    /// `fuzz` — mass kernel fuzzing with the differential cross-technique
    /// oracle, locally or fanned out across a fleet.
    Fuzz {
        /// Campaign seed.
        seed: u64,
        /// Kernel count (the reproducible budget).
        iters: u64,
        /// Optional wall-clock budget in seconds (coarse; trades
        /// byte-for-byte reproducibility for boundedness).
        duration_secs: Option<u64>,
        /// Simulation worker threads (default: all cores).
        jobs: Option<usize>,
        /// Per-technique cycle budget before watchdog escalation.
        cycle_budget: Option<u64>,
        /// Stop scanning after this many divergences.
        max_divergences: u64,
        /// Write the JSON stats artifact to this path.
        stats: Option<String>,
        /// Replay one artifact file instead of running a campaign.
        replay: Option<String>,
        /// Planted manager fault, `class:severity:seed:technique`
        /// (oracle self-test mode).
        fault: Option<String>,
        /// Skip minimization of found divergences.
        no_minimize: bool,
        /// Fan the campaign out across fleet workers.
        fleet: bool,
        /// Worker addresses for `--fleet` (comma-separated `host:port`).
        workers: Vec<String>,
        /// Durable campaign directory (journal + result store).
        journal: Option<String>,
        /// Resume the journaled campaign instead of starting fresh.
        resume: bool,
    },
    /// `help` — usage.
    Help,
}

/// Parse failures, with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl core::fmt::Display for ParseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Validate the `--journal DIR` / `--resume` pair shared by the campaign
/// verbs: `--resume` is meaningless without a journal to resume from.
fn check_journal(journal: &Option<String>, resume: bool) -> Result<(), ParseError> {
    if resume && journal.is_none() {
        return Err(ParseError("--resume needs --journal DIR".into()));
    }
    Ok(())
}

fn technique_from(s: &str) -> Result<Technique, ParseError> {
    match s.to_ascii_lowercase().as_str() {
        "baseline" => Ok(Technique::Baseline),
        "regmutex" => Ok(Technique::RegMutex),
        "paired" | "regmutex-paired" => Ok(Technique::RegMutexPaired),
        "rfv" => Ok(Technique::Rfv),
        "owf" => Ok(Technique::Owf),
        other => Err(ParseError(format!(
            "unknown technique '{other}' (expected baseline|regmutex|paired|rfv|owf)"
        ))),
    }
}

fn value_of<T: std::str::FromStr>(flag: &str, v: Option<&String>) -> Result<T, ParseError> {
    let v = v.ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
    v.parse()
        .map_err(|_| ParseError(format!("invalid value '{v}' for {flag}")))
}

/// Parse a u64 seed flag, accepting decimal or `0x`-prefixed hex (the
/// form fuzz reports and artifacts print seeds in).
fn seed_of(flag: &str, v: Option<&String>) -> Result<u64, ParseError> {
    let v = v.ok_or_else(|| ParseError(format!("{flag} needs a value")))?;
    let parsed = match v.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => v.parse(),
    };
    parsed.map_err(|_| ParseError(format!("invalid value '{v}' for {flag}")))
}

/// Parse the flags shared by `sweep` and `compare`: `--jobs N` (or
/// `--jobs=N`) plus any of `allowed`, returning (jobs, which allowed flags
/// were seen).
fn sweep_flags<'a>(
    rest: &[String],
    allowed: &[&'a str],
) -> Result<(Option<usize>, Vec<&'a str>), ParseError> {
    let mut jobs = None;
    let mut seen = Vec::new();
    let mut it = rest.iter().skip(1);
    while let Some(a) = it.next() {
        if a == "--jobs" {
            jobs = Some(value_of("--jobs", it.next())?);
        } else if let Some(v) = a.strip_prefix("--jobs=") {
            jobs = Some(value_of("--jobs", Some(&v.to_string()))?);
        } else if let Some(&f) = allowed.iter().find(|&&f| f == a) {
            seen.push(f);
        } else {
            return Err(ParseError(format!("unknown flag '{a}'")));
        }
    }
    Ok((jobs, seen))
}

/// Parse an argument vector (without the program name).
pub fn parse(args: &[String]) -> Result<Command, ParseError> {
    let Some(cmd) = args.first() else {
        return Ok(Command::Help);
    };
    let rest = &args[1..];
    let app = || -> Result<String, ParseError> {
        rest.first()
            .filter(|a| !a.starts_with("--"))
            .cloned()
            .ok_or_else(|| ParseError(format!("'{cmd}' needs a workload name; try 'list'")))
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => {
            let mut json = false;
            for a in rest {
                match a.as_str() {
                    "--json" => json = true,
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::List { json })
        }
        "serve" => {
            let mut addr = "127.0.0.1:8077".to_string();
            let mut workers = None;
            let mut queue = 64usize;
            let mut cache_mb = 64usize;
            let mut cycle_budget = None;
            let mut max_connections = 64usize;
            let mut client_rate = 0.0f64;
            let mut client_burst = 8.0f64;
            let mut cache_dir = None;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => {
                        addr = it
                            .next()
                            .ok_or_else(|| ParseError("--addr needs a value".into()))?
                            .clone()
                    }
                    "--workers" => workers = Some(value_of("--workers", it.next())?),
                    "--queue" => queue = value_of("--queue", it.next())?,
                    "--cache-mb" => cache_mb = value_of("--cache-mb", it.next())?,
                    "--cycle-budget" => cycle_budget = Some(value_of("--cycle-budget", it.next())?),
                    "--max-connections" => {
                        max_connections = value_of("--max-connections", it.next())?
                    }
                    "--client-rate" => client_rate = value_of("--client-rate", it.next())?,
                    "--client-burst" => client_burst = value_of("--client-burst", it.next())?,
                    "--cache-dir" => {
                        cache_dir = Some(
                            it.next()
                                .ok_or_else(|| ParseError("--cache-dir needs a directory".into()))?
                                .clone(),
                        )
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            if queue == 0 {
                return Err(ParseError("--queue must be at least 1".into()));
            }
            if client_rate < 0.0 || client_burst < 0.0 {
                return Err(ParseError(
                    "--client-rate and --client-burst must be non-negative".into(),
                ));
            }
            Ok(Command::Serve {
                addr,
                workers,
                queue,
                cache_mb,
                cycle_budget,
                max_connections,
                client_rate,
                client_burst,
                cache_dir,
            })
        }
        "loadgen" => {
            let mut addr = "127.0.0.1:8077".to_string();
            let mut threads = 4usize;
            let mut requests = 50usize;
            let mut seed = 0x5eed_2024u64;
            let mut apps = Vec::new();
            let mut fleet = false;
            let mut workers = Vec::new();
            let mut cycle_budget = None;
            let mut keep_alive = true;
            let mut pipeline = 1usize;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => {
                        addr = it
                            .next()
                            .ok_or_else(|| ParseError("--addr needs a value".into()))?
                            .clone()
                    }
                    "--threads" => threads = value_of("--threads", it.next())?,
                    "--requests" => requests = value_of("--requests", it.next())?,
                    "--seed" => seed = value_of("--seed", it.next())?,
                    "--apps" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--apps needs a value".into()))?;
                        apps = v.split(',').map(str::to_string).collect();
                    }
                    "--fleet" => fleet = true,
                    "--workers" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--workers needs a value".into()))?;
                        workers = v.split(',').map(str::to_string).collect();
                        fleet = true;
                    }
                    "--cycle-budget" => cycle_budget = Some(value_of("--cycle-budget", it.next())?),
                    "--keep-alive" => keep_alive = true,
                    "--no-keep-alive" => keep_alive = false,
                    "--pipeline" => pipeline = value_of("--pipeline", it.next())?,
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            if threads == 0 || requests == 0 {
                return Err(ParseError(
                    "--threads and --requests must be at least 1".into(),
                ));
            }
            if fleet && workers.is_empty() {
                return Err(ParseError(
                    "--fleet needs --workers HOST:PORT[,HOST:PORT...]".into(),
                ));
            }
            if pipeline == 0 {
                return Err(ParseError("--pipeline must be at least 1".into()));
            }
            if fleet && pipeline > 1 {
                return Err(ParseError(
                    "--pipeline applies to direct loadgen, not --fleet".into(),
                ));
            }
            Ok(Command::Loadgen {
                addr,
                threads,
                requests,
                seed,
                apps,
                fleet,
                workers,
                cycle_budget,
                keep_alive,
                pipeline,
            })
        }
        "coordinator" => {
            let mut workers = Vec::new();
            let mut seed = 0x5eed_2024u64;
            let mut threads = 4usize;
            let mut max_attempts = 4u32;
            let mut cycle_budget = None;
            let mut journal = None;
            let mut resume = false;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--workers" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--workers needs a value".into()))?;
                        workers = v.split(',').map(str::to_string).collect();
                    }
                    "--seed" => seed = value_of("--seed", it.next())?,
                    "--threads" => threads = value_of("--threads", it.next())?,
                    "--max-attempts" => max_attempts = value_of("--max-attempts", it.next())?,
                    "--cycle-budget" => cycle_budget = Some(value_of("--cycle-budget", it.next())?),
                    "--journal" => {
                        journal = Some(
                            it.next()
                                .ok_or_else(|| ParseError("--journal needs a directory".into()))?
                                .clone(),
                        )
                    }
                    "--resume" => resume = true,
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            check_journal(&journal, resume)?;
            if workers.is_empty() {
                return Err(ParseError(
                    "coordinator needs --workers HOST:PORT[,HOST:PORT...]".into(),
                ));
            }
            if threads == 0 || max_attempts == 0 {
                return Err(ParseError(
                    "--threads and --max-attempts must be at least 1".into(),
                ));
            }
            Ok(Command::Coordinator {
                workers,
                seed,
                threads,
                max_attempts,
                cycle_budget,
                journal,
                resume,
            })
        }
        "chaos-fleet" => {
            let mut seeds = 4u64;
            let mut apps = Vec::new();
            let mut cycle_budget = Some(150_000u64);
            let mut trigger_after = 0usize;
            let mut sim_workers = 2usize;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seeds" => seeds = value_of("--seeds", it.next())?,
                    "--apps" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--apps needs a value".into()))?;
                        apps = v.split(',').map(str::to_string).collect();
                    }
                    "--cycle-budget" => cycle_budget = Some(value_of("--cycle-budget", it.next())?),
                    "--no-cycle-budget" => cycle_budget = None,
                    "--trigger-after" => trigger_after = value_of("--trigger-after", it.next())?,
                    "--sim-workers" => sim_workers = value_of("--sim-workers", it.next())?,
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            if seeds == 0 || sim_workers == 0 {
                return Err(ParseError(
                    "--seeds and --sim-workers must be at least 1".into(),
                ));
            }
            Ok(Command::ChaosFleet {
                seeds,
                apps,
                cycle_budget,
                trigger_after,
                sim_workers,
            })
        }
        "disasm" => Ok(Command::Disasm {
            app: app()?,
            transformed: rest.iter().any(|a| a == "--transformed"),
            liveness: rest.iter().any(|a| a == "--liveness"),
        }),
        "trace" => {
            let mut max_steps = 20_000usize;
            let mut it = rest.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--max" => max_steps = value_of("--max", it.next())?,
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Trace {
                app: app()?,
                max_steps,
            })
        }
        "sweep" => {
            let mut jobs = None;
            let mut journal = None;
            let mut resume = false;
            let mut it = rest.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--jobs" => jobs = Some(value_of("--jobs", it.next())?),
                    "--journal" => {
                        journal = Some(
                            it.next()
                                .ok_or_else(|| ParseError("--journal needs a directory".into()))?
                                .clone(),
                        )
                    }
                    "--resume" => resume = true,
                    other => {
                        if let Some(v) = other.strip_prefix("--jobs=") {
                            jobs = Some(value_of("--jobs", Some(&v.to_string()))?);
                        } else {
                            return Err(ParseError(format!("unknown flag '{other}'")));
                        }
                    }
                }
            }
            check_journal(&journal, resume)?;
            Ok(Command::Sweep {
                app: app()?,
                jobs,
                journal,
                resume,
            })
        }
        "compare" => {
            let (jobs, seen) = sweep_flags(rest, &["--half-rf"])?;
            Ok(Command::Compare {
                app: app()?,
                half_rf: seen.contains(&"--half-rf"),
                jobs,
            })
        }
        "run" => {
            let app = app()?;
            let mut technique = Technique::RegMutex;
            let mut half_rf = false;
            let mut ctas = None;
            let mut force_es = None;
            let mut watchdog_cycles = None;
            let mut stall_multiplier = None;
            let mut no_cycle_skip = false;
            let mut it = rest.iter().skip(1);
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--technique" | "-t" => {
                        technique = technique_from(
                            it.next()
                                .ok_or_else(|| ParseError("--technique needs a value".into()))?,
                        )?
                    }
                    "--half-rf" => half_rf = true,
                    "--ctas" => ctas = Some(value_of("--ctas", it.next())?),
                    "--force-es" => force_es = Some(value_of("--force-es", it.next())?),
                    "--watchdog-cycles" => {
                        watchdog_cycles = Some(value_of("--watchdog-cycles", it.next())?)
                    }
                    "--stall-multiplier" => {
                        stall_multiplier = Some(value_of("--stall-multiplier", it.next())?)
                    }
                    "--no-cycle-skip" => no_cycle_skip = true,
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            Ok(Command::Run {
                app,
                technique,
                half_rf,
                ctas,
                force_es,
                watchdog_cycles,
                stall_multiplier,
                no_cycle_skip,
            })
        }
        "bench-loop" => {
            let mut apps = Vec::new();
            let mut iters = 3usize;
            let mut out = "BENCH_simloop.json".to_string();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--apps" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--apps needs a value".into()))?;
                        apps = v.split(',').map(str::to_string).collect();
                    }
                    "--iters" => iters = value_of("--iters", it.next())?,
                    "--out" => {
                        out = it
                            .next()
                            .ok_or_else(|| ParseError("--out needs a value".into()))?
                            .clone()
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            if iters == 0 {
                return Err(ParseError("--iters must be at least 1".into()));
            }
            Ok(Command::BenchLoop { apps, iters, out })
        }
        "chaos" => {
            let mut apps = Vec::new();
            let mut seeds = 8u64;
            let mut technique = Technique::RegMutex;
            let mut jobs = None;
            let mut watchdog_cycles = None;
            let mut stall_multiplier = None;
            let mut expect_detections = false;
            let mut journal = None;
            let mut resume = false;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seeds" => seeds = value_of("--seeds", it.next())?,
                    "--journal" => {
                        journal = Some(
                            it.next()
                                .ok_or_else(|| ParseError("--journal needs a directory".into()))?
                                .clone(),
                        )
                    }
                    "--resume" => resume = true,
                    "--technique" | "-t" => {
                        technique = technique_from(
                            it.next()
                                .ok_or_else(|| ParseError("--technique needs a value".into()))?,
                        )?
                    }
                    "--jobs" => jobs = Some(value_of("--jobs", it.next())?),
                    "--watchdog-cycles" => {
                        watchdog_cycles = Some(value_of("--watchdog-cycles", it.next())?)
                    }
                    "--stall-multiplier" => {
                        stall_multiplier = Some(value_of("--stall-multiplier", it.next())?)
                    }
                    "--expect-detections" => expect_detections = true,
                    other if other.starts_with("--") => {
                        if let Some(v) = other.strip_prefix("--jobs=") {
                            jobs = Some(value_of("--jobs", Some(&v.to_string()))?);
                        } else {
                            return Err(ParseError(format!("unknown flag '{other}'")));
                        }
                    }
                    name => apps.push(name.to_string()),
                }
            }
            if seeds == 0 {
                return Err(ParseError("--seeds must be at least 1".into()));
            }
            check_journal(&journal, resume)?;
            Ok(Command::Chaos {
                apps,
                seeds,
                technique,
                jobs,
                watchdog_cycles,
                stall_multiplier,
                expect_detections,
                journal,
                resume,
            })
        }
        "fuzz" => {
            let mut seed = 0x5eed_f022u64;
            let mut iters = 1000u64;
            let mut duration_secs = None;
            let mut jobs = None;
            let mut cycle_budget = None;
            let mut max_divergences = 5u64;
            let mut stats = None;
            let mut replay = None;
            let mut fault = None;
            let mut no_minimize = false;
            let mut fleet = false;
            let mut workers = Vec::new();
            let mut journal = None;
            let mut resume = false;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seed" => seed = seed_of("--seed", it.next())?,
                    "--iters" => iters = value_of("--iters", it.next())?,
                    "--duration-secs" => {
                        duration_secs = Some(value_of("--duration-secs", it.next())?)
                    }
                    "--jobs" => jobs = Some(value_of("--jobs", it.next())?),
                    "--cycle-budget" => cycle_budget = Some(value_of("--cycle-budget", it.next())?),
                    "--max-divergences" => {
                        max_divergences = value_of("--max-divergences", it.next())?
                    }
                    "--stats" => {
                        stats = Some(
                            it.next()
                                .ok_or_else(|| ParseError("--stats needs a path".into()))?
                                .clone(),
                        )
                    }
                    "--replay" => {
                        replay = Some(
                            it.next()
                                .ok_or_else(|| ParseError("--replay needs a file".into()))?
                                .clone(),
                        )
                    }
                    "--fault" => {
                        fault = Some(
                            it.next()
                                .ok_or_else(|| {
                                    ParseError("--fault needs class:severity:seed:technique".into())
                                })?
                                .clone(),
                        )
                    }
                    "--no-minimize" => no_minimize = true,
                    "--journal" => {
                        journal = Some(
                            it.next()
                                .ok_or_else(|| ParseError("--journal needs a directory".into()))?
                                .clone(),
                        )
                    }
                    "--resume" => resume = true,
                    "--fleet" => fleet = true,
                    "--workers" => {
                        let v = it
                            .next()
                            .ok_or_else(|| ParseError("--workers needs a value".into()))?;
                        workers = v.split(',').map(str::to_string).collect();
                        fleet = true;
                    }
                    other => return Err(ParseError(format!("unknown flag '{other}'"))),
                }
            }
            if iters == 0 {
                return Err(ParseError("--iters must be at least 1".into()));
            }
            if max_divergences == 0 {
                return Err(ParseError("--max-divergences must be at least 1".into()));
            }
            if fleet && workers.is_empty() {
                return Err(ParseError(
                    "--fleet needs --workers HOST:PORT[,HOST:PORT...]".into(),
                ));
            }
            if fleet && (replay.is_some() || fault.is_some()) {
                return Err(ParseError(
                    "--fleet cannot be combined with --replay or --fault".into(),
                ));
            }
            check_journal(&journal, resume)?;
            if journal.is_some() && fleet {
                return Err(ParseError(
                    "--journal applies to local campaigns, not --fleet".into(),
                ));
            }
            if journal.is_some() && replay.is_some() {
                return Err(ParseError(
                    "--journal applies to campaigns, not --replay".into(),
                ));
            }
            Ok(Command::Fuzz {
                seed,
                iters,
                duration_secs,
                jobs,
                cycle_budget,
                max_divergences,
                stats,
                replay,
                fault,
                no_minimize,
                fleet,
                workers,
                journal,
                resume,
            })
        }
        other => Err(ParseError(format!("unknown command '{other}'; try 'help'"))),
    }
}

/// Usage text.
pub const USAGE: &str = "\
regmutex-cli — drive the RegMutex (ISCA 2018) reproduction

USAGE:
  regmutex-cli list [--json]
  regmutex-cli disasm <app> [--transformed] [--liveness]
  regmutex-cli run <app> [--technique baseline|regmutex|paired|rfv|owf]
                         [--half-rf] [--ctas N] [--force-es N]
                         [--watchdog-cycles N] [--stall-multiplier N]
                         [--no-cycle-skip]
  regmutex-cli bench-loop [--apps A,B,...] [--iters N] [--out PATH]
  regmutex-cli compare <app> [--half-rf] [--jobs N]
  regmutex-cli trace <app> [--max N]
  regmutex-cli sweep <app> [--jobs N] [--journal DIR [--resume]]
  regmutex-cli chaos [<app>...] [--seeds N] [--technique T] [--jobs N]
                     [--watchdog-cycles N] [--stall-multiplier N]
                     [--expect-detections] [--journal DIR [--resume]]
  regmutex-cli serve [--addr HOST:PORT] [--workers N] [--queue N]
                     [--cache-mb N] [--cycle-budget N]
                     [--max-connections N]
                     [--client-rate R] [--client-burst N]
                     [--cache-dir DIR]
  regmutex-cli loadgen [--addr HOST:PORT] [--threads N] [--requests N]
                       [--seed N] [--apps A,B,...] [--no-keep-alive]
                       [--pipeline N]
                       [--fleet --workers H:P,H:P,...] [--cycle-budget N]
  regmutex-cli coordinator --workers H:P[,H:P...] [--seed N] [--threads N]
                           [--max-attempts N] [--cycle-budget N]
                           [--journal DIR [--resume]]
  regmutex-cli chaos-fleet [--seeds N] [--apps A,B,...] [--cycle-budget N]
                           [--no-cycle-budget] [--trigger-after N]
                           [--sim-workers N]
  regmutex-cli fuzz [--seed N] [--iters N] [--duration-secs N] [--jobs N]
                    [--cycle-budget N]
                    [--max-divergences N] [--stats PATH] [--no-minimize]
                    [--replay FILE] [--fault CLASS:SEV:SEED:TECHNIQUE]
                    [--fleet --workers H:P,H:P,...]
                    [--journal DIR [--resume]]
  regmutex-cli help

The multi-simulation commands (compare, sweep, chaos) run their
simulations on a worker pool; --jobs N sets the worker count (default:
all cores). Output is identical for any worker count.

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
and reported as goodput; pipelined batches skip retries).

coordinator schedules the Fig 7 sweep across N workers: consistent-hash
routing by job fingerprint (cache affinity), per-job deadlines from the
cycle budget, bounded retries with seeded-jittered exponential backoff,
automatic re-dispatch away from dead or hung workers (strike-based
quarantine + periodic /healthz re-admission), and response integrity
checks. Output is byte-identical to the local sweep at any worker count;
aggregated Prometheus metrics go to stderr. loadgen --fleet drives the
same coordinator closed-loop and breaks traffic down per worker.

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
workers' POST /v1/fuzz endpoints with failover and merges shard results
in index order.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn v(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(parse(&[]), Ok(Command::Help));
        assert_eq!(parse(&v(&["help"])), Ok(Command::Help));
        assert_eq!(parse(&v(&["--help"])), Ok(Command::Help));
    }

    #[test]
    fn list_parses() {
        assert_eq!(parse(&v(&["list"])), Ok(Command::List { json: false }));
        assert_eq!(
            parse(&v(&["list", "--json"])),
            Ok(Command::List { json: true })
        );
        assert!(parse(&v(&["list", "--yaml"])).is_err());
    }

    #[test]
    fn serve_defaults_and_flags() {
        assert_eq!(
            parse(&v(&["serve"])),
            Ok(Command::Serve {
                addr: "127.0.0.1:8077".into(),
                workers: None,
                queue: 64,
                cache_mb: 64,
                cycle_budget: None,
                max_connections: 64,
                client_rate: 0.0,
                client_burst: 8.0,
                cache_dir: None,
            })
        );
        assert_eq!(
            parse(&v(&[
                "serve",
                "--addr",
                "0.0.0.0:9000",
                "--workers",
                "2",
                "--queue",
                "8",
                "--cache-mb",
                "16",
                "--cycle-budget",
                "1000000",
                "--max-connections",
                "32",
                "--client-rate",
                "50.5",
                "--client-burst",
                "4"
            ])),
            Ok(Command::Serve {
                addr: "0.0.0.0:9000".into(),
                workers: Some(2),
                queue: 8,
                cache_mb: 16,
                cycle_budget: Some(1_000_000),
                max_connections: 32,
                client_rate: 50.5,
                client_burst: 4.0,
                cache_dir: None,
            })
        );
        assert!(parse(&v(&["serve", "--queue", "0"])).is_err());
        assert!(parse(&v(&["serve", "--client-rate", "-1"])).is_err());
        assert!(parse(&v(&["serve", "--what"])).is_err());
    }

    #[test]
    fn loadgen_defaults_and_flags() {
        assert_eq!(
            parse(&v(&["loadgen"])),
            Ok(Command::Loadgen {
                addr: "127.0.0.1:8077".into(),
                threads: 4,
                requests: 50,
                seed: 0x5eed_2024,
                apps: vec![],
                fleet: false,
                workers: vec![],
                cycle_budget: None,
                keep_alive: true,
                pipeline: 1,
            })
        );
        assert_eq!(
            parse(&v(&[
                "loadgen",
                "--addr",
                "127.0.0.1:1234",
                "--threads",
                "2",
                "--requests",
                "10",
                "--seed",
                "7",
                "--apps",
                "BFS,SPMV",
                "--no-keep-alive",
                "--pipeline",
                "8"
            ])),
            Ok(Command::Loadgen {
                addr: "127.0.0.1:1234".into(),
                threads: 2,
                requests: 10,
                seed: 7,
                apps: vec!["BFS".into(), "SPMV".into()],
                fleet: false,
                workers: vec![],
                cycle_budget: None,
                keep_alive: false,
                pipeline: 8,
            })
        );
        // --keep-alive restores the default (last flag wins).
        match parse(&v(&["loadgen", "--no-keep-alive", "--keep-alive"])) {
            Ok(Command::Loadgen { keep_alive, .. }) => assert!(keep_alive),
            other => panic!("expected loadgen to parse, got {other:?}"),
        }
        assert!(parse(&v(&["loadgen", "--threads", "0"])).is_err());
        assert!(parse(&v(&["loadgen", "--pipeline", "0"])).is_err());
        assert!(parse(&v(&[
            "loadgen",
            "--workers",
            "127.0.0.1:1",
            "--pipeline",
            "4"
        ]))
        .is_err());
    }

    #[test]
    fn loadgen_fleet_mode() {
        // --workers implies --fleet; --cycle-budget rides along.
        assert_eq!(
            parse(&v(&[
                "loadgen",
                "--workers",
                "127.0.0.1:1,127.0.0.1:2",
                "--cycle-budget",
                "100000"
            ])),
            Ok(Command::Loadgen {
                addr: "127.0.0.1:8077".into(),
                threads: 4,
                requests: 50,
                seed: 0x5eed_2024,
                apps: vec![],
                fleet: true,
                workers: vec!["127.0.0.1:1".into(), "127.0.0.1:2".into()],
                cycle_budget: Some(100_000),
                keep_alive: true,
                pipeline: 1,
            })
        );
        // --fleet without workers is an error.
        assert!(parse(&v(&["loadgen", "--fleet"])).is_err());
    }

    #[test]
    fn coordinator_requires_workers() {
        assert!(parse(&v(&["coordinator"])).is_err());
        assert_eq!(
            parse(&v(&[
                "coordinator",
                "--workers",
                "127.0.0.1:1,127.0.0.1:2,127.0.0.1:3",
                "--seed",
                "9",
                "--threads",
                "8",
                "--max-attempts",
                "5",
                "--cycle-budget",
                "50000"
            ])),
            Ok(Command::Coordinator {
                workers: vec![
                    "127.0.0.1:1".into(),
                    "127.0.0.1:2".into(),
                    "127.0.0.1:3".into()
                ],
                seed: 9,
                threads: 8,
                max_attempts: 5,
                cycle_budget: Some(50_000),
                journal: None,
                resume: false,
            })
        );
        assert!(parse(&v(&["coordinator", "--workers", "a", "--threads", "0"])).is_err());
    }

    #[test]
    fn chaos_fleet_defaults_and_flags() {
        assert_eq!(
            parse(&v(&["chaos-fleet"])),
            Ok(Command::ChaosFleet {
                seeds: 4,
                apps: vec![],
                cycle_budget: Some(150_000),
                trigger_after: 0,
                sim_workers: 2,
            })
        );
        assert_eq!(
            parse(&v(&[
                "chaos-fleet",
                "--seeds",
                "2",
                "--apps",
                "BFS,SPMV",
                "--no-cycle-budget",
                "--trigger-after",
                "3",
                "--sim-workers",
                "1"
            ])),
            Ok(Command::ChaosFleet {
                seeds: 2,
                apps: vec!["BFS".into(), "SPMV".into()],
                cycle_budget: None,
                trigger_after: 3,
                sim_workers: 1,
            })
        );
        assert!(parse(&v(&["chaos-fleet", "--seeds", "0"])).is_err());
        assert!(parse(&v(&["chaos-fleet", "--nope"])).is_err());
    }

    #[test]
    fn disasm_flags() {
        assert_eq!(
            parse(&v(&["disasm", "BFS", "--transformed", "--liveness"])),
            Ok(Command::Disasm {
                app: "BFS".into(),
                transformed: true,
                liveness: true
            })
        );
        assert_eq!(
            parse(&v(&["disasm", "BFS"])),
            Ok(Command::Disasm {
                app: "BFS".into(),
                transformed: false,
                liveness: false
            })
        );
    }

    #[test]
    fn run_full_form() {
        assert_eq!(
            parse(&v(&[
                "run",
                "SAD",
                "-t",
                "rfv",
                "--half-rf",
                "--ctas",
                "90",
                "--force-es",
                "8"
            ])),
            Ok(Command::Run {
                app: "SAD".into(),
                technique: Technique::Rfv,
                half_rf: true,
                ctas: Some(90),
                force_es: Some(8),
                watchdog_cycles: None,
                stall_multiplier: None,
                no_cycle_skip: false,
            })
        );
    }

    #[test]
    fn run_detector_flags() {
        assert_eq!(
            parse(&v(&[
                "run",
                "BFS",
                "--watchdog-cycles",
                "5000000",
                "--stall-multiplier",
                "16"
            ])),
            Ok(Command::Run {
                app: "BFS".into(),
                technique: Technique::RegMutex,
                half_rf: false,
                ctas: None,
                force_es: None,
                watchdog_cycles: Some(5_000_000),
                stall_multiplier: Some(16),
                no_cycle_skip: false,
            })
        );
        assert!(parse(&v(&["run", "BFS", "--watchdog-cycles", "soon"])).is_err());
    }

    #[test]
    fn run_defaults_to_regmutex() {
        assert_eq!(
            parse(&v(&["run", "BFS"])),
            Ok(Command::Run {
                app: "BFS".into(),
                technique: Technique::RegMutex,
                half_rf: false,
                ctas: None,
                force_es: None,
                watchdog_cycles: None,
                stall_multiplier: None,
                no_cycle_skip: false,
            })
        );
    }

    #[test]
    fn run_no_cycle_skip_flag() {
        assert_eq!(
            parse(&v(&["run", "BFS", "--no-cycle-skip"])),
            Ok(Command::Run {
                app: "BFS".into(),
                technique: Technique::RegMutex,
                half_rf: false,
                ctas: None,
                force_es: None,
                watchdog_cycles: None,
                stall_multiplier: None,
                no_cycle_skip: true,
            })
        );
    }

    #[test]
    fn device_loop_shard_flag_is_unknown() {
        // The device loop is serial, so no verb takes a shard count.
        for verb in [&["run", "BFS"][..], &["bench-loop"], &["serve"], &["fuzz"]] {
            let mut args = v(verb);
            args.extend(v(&["--sm-workers", "4"]));
            assert_eq!(
                parse(&args),
                Err(ParseError("unknown flag '--sm-workers'".into())),
                "{verb:?}"
            );
        }
    }

    #[test]
    fn bench_loop_defaults_and_flags() {
        assert_eq!(
            parse(&v(&["bench-loop"])),
            Ok(Command::BenchLoop {
                apps: vec![],
                iters: 3,
                out: "BENCH_simloop.json".into(),
            })
        );
        assert_eq!(
            parse(&v(&[
                "bench-loop",
                "--apps",
                "Gaussian,BFS",
                "--iters",
                "7",
                "--out",
                "/tmp/b.json"
            ])),
            Ok(Command::BenchLoop {
                apps: vec!["Gaussian".into(), "BFS".into()],
                iters: 7,
                out: "/tmp/b.json".into(),
            })
        );
        assert!(parse(&v(&["bench-loop", "--iters", "0"])).is_err());
    }

    #[test]
    fn chaos_defaults_and_flags() {
        assert_eq!(
            parse(&v(&["chaos"])),
            Ok(Command::Chaos {
                apps: vec![],
                seeds: 8,
                technique: Technique::RegMutex,
                jobs: None,
                watchdog_cycles: None,
                stall_multiplier: None,
                expect_detections: false,
                journal: None,
                resume: false,
            })
        );
        assert_eq!(
            parse(&v(&[
                "chaos",
                "BFS",
                "MergeSort",
                "--seeds",
                "2",
                "--jobs",
                "4",
                "--expect-detections",
                "-t",
                "paired",
                "--stall-multiplier",
                "32"
            ])),
            Ok(Command::Chaos {
                apps: vec!["BFS".into(), "MergeSort".into()],
                seeds: 2,
                technique: Technique::RegMutexPaired,
                jobs: Some(4),
                watchdog_cycles: None,
                stall_multiplier: Some(32),
                expect_detections: true,
                journal: None,
                resume: false,
            })
        );
        assert!(parse(&v(&["chaos", "--seeds", "0"])).is_err());
        assert!(parse(&v(&["chaos", "--nope"])).is_err());
    }

    #[test]
    fn technique_aliases() {
        assert_eq!(technique_from("paired"), Ok(Technique::RegMutexPaired));
        assert_eq!(technique_from("OWF"), Ok(Technique::Owf));
        assert!(technique_from("nope").is_err());
    }

    #[test]
    fn missing_app_is_an_error() {
        assert!(parse(&v(&["run"])).is_err());
        assert!(parse(&v(&["disasm", "--liveness"])).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(parse(&v(&["run", "BFS", "--what"])).is_err());
        assert!(parse(&v(&["nonsense"])).is_err());
    }

    #[test]
    fn sweep_and_compare_jobs() {
        assert_eq!(
            parse(&v(&["sweep", "BFS"])),
            Ok(Command::Sweep {
                app: "BFS".into(),
                jobs: None,
                journal: None,
                resume: false,
            })
        );
        assert_eq!(
            parse(&v(&["sweep", "BFS", "--jobs", "4"])),
            Ok(Command::Sweep {
                app: "BFS".into(),
                jobs: Some(4),
                journal: None,
                resume: false,
            })
        );
        assert_eq!(
            parse(&v(&["compare", "SAD", "--jobs=2", "--half-rf"])),
            Ok(Command::Compare {
                app: "SAD".into(),
                half_rf: true,
                jobs: Some(2)
            })
        );
        assert!(parse(&v(&["sweep", "BFS", "--jobs", "many"])).is_err());
        assert!(parse(&v(&["sweep", "BFS", "--half-rf"])).is_err());
    }

    #[test]
    fn fuzz_defaults_and_flags() {
        assert_eq!(
            parse(&v(&["fuzz"])),
            Ok(Command::Fuzz {
                seed: 0x5eed_f022,
                iters: 1000,
                duration_secs: None,
                jobs: None,
                cycle_budget: None,
                max_divergences: 5,
                stats: None,
                replay: None,
                fault: None,
                no_minimize: false,
                fleet: false,
                workers: vec![],
                journal: None,
                resume: false,
            })
        );
        assert_eq!(
            parse(&v(&[
                "fuzz",
                "--seed",
                "42",
                "--iters",
                "500",
                "--jobs",
                "2",
                "--cycle-budget",
                "100000",
                "--max-divergences",
                "3",
                "--stats",
                "/tmp/fuzz.json",
                "--no-minimize",
                "--fault",
                "corrupt-lut:severe:3:regmutex"
            ])),
            Ok(Command::Fuzz {
                seed: 42,
                iters: 500,
                duration_secs: None,
                jobs: Some(2),
                cycle_budget: Some(100_000),
                max_divergences: 3,
                stats: Some("/tmp/fuzz.json".into()),
                replay: None,
                fault: Some("corrupt-lut:severe:3:regmutex".into()),
                no_minimize: true,
                fleet: false,
                workers: vec![],
                journal: None,
                resume: false,
            })
        );
        // Seeds parse in the same hex form the reports print them in.
        match parse(&v(&["fuzz", "--seed", "0xfa017"])) {
            Ok(Command::Fuzz { seed, .. }) => assert_eq!(seed, 0xfa017),
            other => panic!("{other:?}"),
        }
        assert!(parse(&v(&["fuzz", "--iters", "0"])).is_err());
        assert!(parse(&v(&["fuzz", "--max-divergences", "0"])).is_err());
        assert!(parse(&v(&["fuzz", "--nope"])).is_err());
    }

    #[test]
    fn fuzz_fleet_mode() {
        // --workers implies --fleet.
        match parse(&v(&["fuzz", "--workers", "127.0.0.1:1,127.0.0.1:2"])) {
            Ok(Command::Fuzz { fleet, workers, .. }) => {
                assert!(fleet);
                assert_eq!(workers.len(), 2);
            }
            other => panic!("expected fuzz to parse, got {other:?}"),
        }
        assert!(parse(&v(&["fuzz", "--fleet"])).is_err());
        // Fleet excludes single-kernel / fault-injection modes.
        assert!(parse(&v(&[
            "fuzz",
            "--fleet",
            "--workers",
            "a:1",
            "--replay",
            "f"
        ]))
        .is_err());
        assert!(parse(&v(&[
            "fuzz",
            "--fleet",
            "--workers",
            "a:1",
            "--fault",
            "corrupt-lut:severe:1:regmutex"
        ]))
        .is_err());
    }

    #[test]
    fn journal_and_resume_flags() {
        // Every campaign verb takes --journal DIR, optionally --resume.
        match parse(&v(&["sweep", "BFS", "--journal", "/tmp/j", "--resume"])) {
            Ok(Command::Sweep {
                journal, resume, ..
            }) => {
                assert_eq!(journal.as_deref(), Some("/tmp/j"));
                assert!(resume);
            }
            other => panic!("expected sweep to parse, got {other:?}"),
        }
        match parse(&v(&["chaos", "BFS", "--journal", "/tmp/j"])) {
            Ok(Command::Chaos {
                journal, resume, ..
            }) => {
                assert_eq!(journal.as_deref(), Some("/tmp/j"));
                assert!(!resume);
            }
            other => panic!("expected chaos to parse, got {other:?}"),
        }
        match parse(&v(&["fuzz", "--journal", "/tmp/j", "--resume"])) {
            Ok(Command::Fuzz {
                journal, resume, ..
            }) => {
                assert_eq!(journal.as_deref(), Some("/tmp/j"));
                assert!(resume);
            }
            other => panic!("expected fuzz to parse, got {other:?}"),
        }
        match parse(&v(&[
            "coordinator",
            "--workers",
            "a:1",
            "--journal",
            "/tmp/j",
        ])) {
            Ok(Command::Coordinator {
                journal, resume, ..
            }) => {
                assert_eq!(journal.as_deref(), Some("/tmp/j"));
                assert!(!resume);
            }
            other => panic!("expected coordinator to parse, got {other:?}"),
        }
        // --resume without --journal is a usage error, on every verb.
        for bad in [
            vec!["sweep", "BFS", "--resume"],
            vec!["chaos", "--resume"],
            vec!["fuzz", "--resume"],
            vec!["coordinator", "--workers", "a:1", "--resume"],
        ] {
            assert!(parse(&v(&bad)).is_err(), "{bad:?} should be rejected");
        }
        // The journal drives a local campaign loop; fleet fan-out and
        // single-artifact replay don't have one.
        assert!(parse(&v(&["fuzz", "--journal", "/tmp/j", "--workers", "a:1"])).is_err());
        assert!(parse(&v(&["fuzz", "--journal", "/tmp/j", "--replay", "f"])).is_err());
        // A value-less --journal is rejected.
        assert!(parse(&v(&["sweep", "BFS", "--journal"])).is_err());
    }

    #[test]
    fn serve_cache_dir_flag() {
        match parse(&v(&["serve", "--cache-dir", "/tmp/cache"])) {
            Ok(Command::Serve { cache_dir, .. }) => {
                assert_eq!(cache_dir.as_deref(), Some("/tmp/cache"));
            }
            other => panic!("expected serve to parse, got {other:?}"),
        }
        assert!(parse(&v(&["serve", "--cache-dir"])).is_err());
    }

    #[test]
    fn trace_max() {
        assert_eq!(
            parse(&v(&["trace", "SAD", "--max", "500"])),
            Ok(Command::Trace {
                app: "SAD".into(),
                max_steps: 500
            })
        );
        assert!(parse(&v(&["trace", "SAD", "--max", "abc"])).is_err());
    }
}
