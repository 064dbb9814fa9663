//! The service wire format: JSON encodings of requests, workloads,
//! [`SimStats`], [`RunReport`] and fuzz campaigns, plus their parsers.
//!
//! Every body is decoded here, on one set of field helpers, and a
//! decoder refuses an unknown, missing or wrongly typed field by name,
//! never reading it as a default or a 0. `/v1/fuzz` carries a
//! [`CampaignConfig`] ([`campaign_to_json`]/[`campaign_from_json`]) and
//! answers a [`FuzzReport`] ([`fuzz_report_to_json`]/
//! [`fuzz_report_from_json`]): the fleet's fan-out encodes with the
//! functions the server decodes with, and `fuzz --stats` writes the same
//! reply, so a campaign has one JSON form wherever it ran.
//!
//! [`SimStats`] has exactly one serializer — [`SimStats::to_json`] in
//! `regmutex-sim` — and this module *parses* that format back; keeping a
//! single producer means the simulator and the service can never drift.
//! Checksums travel as `"0x…"` hex strings (a u64 does not survive the
//! f64 number model of generic JSON consumers).

use std::str::FromStr;
use std::time::Duration;

use regmutex::{RunReport, Technique};
use regmutex_bench::{MatrixJob, ES_VALUES};
use regmutex_compiler::RegPlan;
use regmutex_fuzz::{
    Artifact, CampaignConfig, CampaignStats, Divergence, DivergenceKind, FoundDivergence,
    FuzzReport,
};
use regmutex_sim::{GpuConfig, SimStats, StallReason};
use regmutex_workloads::suite;

use crate::json::Json;

/// A wire-format violation (unknown field value, missing field, wrong
/// type). Reported to clients as a structured 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

fn bad(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// A `POST /v1/run` body, decoded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunRequest {
    /// Workload name (required; case-insensitive against the registry).
    pub app: String,
    /// Technique (default: `regmutex`).
    pub technique: Technique,
    /// Run on the half-size register file (default: false).
    pub half_rf: bool,
    /// Grid-size override.
    pub ctas: Option<u32>,
    /// Forced `|Es|`.
    pub force_es: Option<u16>,
    /// Per-request cycle budget (min-ed with the server's cap).
    pub cycle_budget: Option<u64>,
    /// Opaque job lease id, echoed verbatim in the success response. A
    /// coordinator re-dispatching a job after a timeout stamps each attempt
    /// with a fresh lease, so a late reply from a presumed-dead worker can
    /// be told apart from the attempt actually being waited on. Execution
    /// is idempotent either way (results are content-addressed), so
    /// re-execution of a leased job is always safe.
    pub lease: Option<u64>,
}

impl RunRequest {
    /// The sweep job this request runs.
    pub fn job(&self) -> MatrixJob {
        MatrixJob {
            cfg: GpuConfig::gtx480_rf(self.half_rf),
            ctas: self.ctas,
            force_es: self.force_es,
            cycle_budget: self.cycle_budget,
            ..MatrixJob::new(self.app.clone(), self.technique)
        }
    }

    /// The request that runs `job` — or, naming the job, why none can: the
    /// wire names only the GTX480 config and its half-RF variant.
    pub fn for_job(job: &MatrixJob) -> Result<RunRequest, String> {
        let half_rf = job.cfg == GpuConfig::gtx480_half_rf();
        if !half_rf && job.cfg != GpuConfig::gtx480() {
            return Err(format!(
                "{}: /v1/run carries only the GTX480 config and its half-RF variant, \
                 and this job runs on another",
                job.label
            ));
        }
        Ok(RunRequest {
            app: job.app.clone(),
            technique: job.technique,
            half_rf,
            ctas: job.ctas,
            force_es: job.force_es,
            cycle_budget: job.cycle_budget,
            lease: None,
        })
    }
}

/// The optional field `key` of object `v`, decoded by `parse`: absent is
/// `None`, and a value `parse` refuses (`null` included) is an error
/// naming the field.
fn optional<'a, T>(
    v: &'a Json,
    key: &str,
    what: &str,
    parse: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, WireError> {
    match v.get(key) {
        None => Ok(None),
        Some(x) => parse(x)
            .map(Some)
            .ok_or_else(|| bad(format!("'{key}' must be {what}"))),
    }
}

/// [`optional`], but `null` also reads as absent, as the `/v1/run`
/// fields, a sweep's `es` and a run report's `plan` always have. The
/// `/v1/fuzz` fields and a sweep's `stream` refuse it.
fn nullable<'a, T>(
    v: &'a Json,
    key: &str,
    what: &str,
    parse: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, WireError> {
    match v.get(key) {
        Some(Json::Null) => Ok(None),
        _ => optional(v, key, what, parse),
    }
}

/// The required field `key`, decoded as by [`optional`].
fn required<'a, T>(
    v: &'a Json,
    key: &str,
    what: &str,
    parse: impl Fn(&'a Json) -> Option<T>,
) -> Result<T, WireError> {
    optional(v, key, what, parse)?.ok_or_else(|| bad(format!("missing field '{key}'")))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, WireError> {
    nullable(v, key, "a non-negative integer", Json::as_u64)
}

fn opt_bool(v: &Json, key: &str, default: bool) -> Result<bool, WireError> {
    Ok(optional(v, key, "a boolean", Json::as_bool)?.unwrap_or(default))
}

fn req_u64(v: &Json, key: &str) -> Result<u64, WireError> {
    required(v, key, "a non-negative integer", Json::as_u64)
}

fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, WireError> {
    required(v, key, "a string", Json::as_str)
}

fn narrow<T: TryFrom<u64>>(n: u64, key: &str) -> Result<T, WireError> {
    T::try_from(n).map_err(|_| bad(format!("'{key}' out of range")))
}

/// Refuse `v` unless it is an object holding only `fields`.
fn only_fields(v: &Json, fields: &[&str]) -> Result<(), WireError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| bad("body must be a JSON object"))?;
    match obj.iter().find(|(k, _)| !fields.contains(&k.as_str())) {
        Some((k, _)) => Err(bad(format!("unknown field '{k}'"))),
        None => Ok(()),
    }
}

/// Decode a `/v1/run` body. Unknown fields are rejected so typos fail
/// loudly instead of silently running a default configuration.
pub fn parse_run_request(v: &Json) -> Result<RunRequest, WireError> {
    only_fields(
        v,
        &[
            "app",
            "technique",
            "half_rf",
            "ctas",
            "force_es",
            "cycle_budget",
            "lease",
        ],
    )?;
    let app = req_str(v, "app")?.to_string();
    if !suite::is_app(&app) {
        return Err(bad(format!(
            "unknown workload '{app}'; available: {}",
            suite::names().join(", ")
        )));
    }
    let technique = match nullable(v, "technique", "a string", Json::as_str)? {
        None => Technique::RegMutex,
        Some(t) => Technique::from_str(t).map_err(|e| bad(e.to_string()))?,
    };
    Ok(RunRequest {
        app,
        technique,
        half_rf: nullable(v, "half_rf", "a boolean", Json::as_bool)?.unwrap_or(false),
        ctas: opt_u64(v, "ctas")?
            .map(|n| match n {
                0 => Err(bad("'ctas' must be at least 1")),
                n => narrow::<u32>(n, "ctas"),
            })
            .transpose()?,
        force_es: opt_u64(v, "force_es")?
            .map(|n| narrow::<u16>(n, "force_es"))
            .transpose()?,
        cycle_budget: opt_u64(v, "cycle_budget")?,
        lease: opt_u64(v, "lease")?,
    })
}

/// Encode a [`RunRequest`] as a `/v1/run` body — the client-side inverse
/// of [`parse_run_request`], used by the fleet coordinator and tests.
/// Defaults are omitted so the encoding round-trips through the strict
/// parser.
pub fn run_request_json(req: &RunRequest) -> Json {
    let mut pairs = vec![
        ("app".into(), Json::Str(req.app.clone())),
        ("technique".into(), Json::Str(req.technique.to_string())),
    ];
    if req.half_rf {
        pairs.push(("half_rf".into(), Json::Bool(true)));
    }
    if let Some(ctas) = req.ctas {
        pairs.push(("ctas".into(), Json::U64(u64::from(ctas))));
    }
    if let Some(es) = req.force_es {
        pairs.push(("force_es".into(), Json::U64(u64::from(es))));
    }
    if let Some(b) = req.cycle_budget {
        pairs.push(("cycle_budget".into(), Json::U64(b)));
    }
    if let Some(lease) = req.lease {
        pairs.push(("lease".into(), Json::U64(lease)));
    }
    Json::Obj(pairs)
}

/// A `POST /v1/sweep` body, decoded: the baseline run every row is
/// measured against, and the forced-`|Es|` RegMutex points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRequest {
    /// The baseline run; each row reruns it under RegMutex at one point.
    pub base: RunRequest,
    /// Forced `|Es|` points (default, or `null`: the Fig 10 points).
    pub es: Vec<u16>,
    /// Stream rows as chunks (default) or buffer them into one body.
    pub stream: bool,
}

/// Upper bound on the points of one `/v1/sweep`.
const SWEEP_MAX_POINTS: usize = 64;

/// Decode a `/v1/sweep` body: the `/v1/run` fields a sweep shares, plus
/// `es` and `stream`. The sweep picks each row's technique and `|Es|`
/// itself, and a lease belongs to one `/v1/run` attempt, so
/// `technique`, `force_es` and `lease` are refused by name rather than
/// dropped.
pub fn parse_sweep_request(v: &Json) -> Result<SweepRequest, WireError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| bad("body must be a JSON object"))?;
    if let Some(k) = ["technique", "force_es", "lease"]
        .into_iter()
        .find(|k| v.get(k).is_some())
    {
        return Err(bad(format!("'{k}' is not a /v1/sweep field")));
    }
    let point = |x: &Json| {
        x.as_u64()
            .and_then(|n| u16::try_from(n).ok())
            .filter(|&n| n > 0)
    };
    let es_list = |x: &Json| x.as_arr()?.iter().map(point).collect::<Option<Vec<u16>>>();
    let es = nullable(v, "es", "an array of positive integers", es_list)?
        .unwrap_or_else(|| ES_VALUES.to_vec());
    if es.len() > SWEEP_MAX_POINTS {
        return Err(bad(format!("'es' is limited to {SWEEP_MAX_POINTS} points")));
    }
    let stream = opt_bool(v, "stream", true)?;
    let mut run: Vec<(String, Json)> = obj
        .iter()
        .filter(|(k, _)| k != "es" && k != "stream")
        .cloned()
        .collect();
    run.push(("technique".into(), Json::Str("baseline".into())));
    Ok(SweepRequest {
        base: parse_run_request(&Json::Obj(run))?,
        es,
        stream,
    })
}

/// Upper bound on kernels per `/v1/fuzz` request; a larger campaign is
/// sharded over more requests.
pub const FUZZ_MAX_COUNT: u64 = 100_000;

/// A u64 as a JSON number or a `"0x..."` hex string (campaign seeds use
/// the full u64 range). A string without the prefix is refused rather
/// than read in a guessed base.
fn u64_or_hex(v: &Json) -> Option<u64> {
    match v.as_str() {
        Some(s) => u64::from_str_radix(s.strip_prefix("0x")?, 16).ok(),
        None => v.as_u64(),
    }
}

const U64_OR_HEX: &str = "a u64 or an 0x-prefixed hex string";

/// Encode the `/v1/fuzz` body that runs `cfg`: its seed, index range,
/// cycle budget, minimize switch and divergence cap. The rest of a
/// [`CampaignConfig`] (planted fault, wall-clock budget, escalation
/// factor, minimizer budget, batch size) does not cross the wire: a
/// worker runs its defaults.
pub fn campaign_to_json(cfg: &CampaignConfig) -> Json {
    Json::Obj(vec![
        ("seed".into(), Json::Str(format!("{:#x}", cfg.seed))),
        ("start".into(), Json::U64(cfg.start)),
        ("count".into(), Json::U64(cfg.iters)),
        ("cycle_budget".into(), Json::U64(cfg.oracle.cycle_budget)),
        ("minimize".into(), Json::Bool(cfg.minimize)),
        ("max_divergences".into(), Json::U64(cfg.max_divergences)),
    ])
}

/// Decode a `/v1/fuzz` body into the campaign it runs and its
/// `progress` flag (stream NDJSON progress lines). `seed` and `count`
/// are required; `count` is at most [`FUZZ_MAX_COUNT`], `start + count`
/// fits in a u64, and `max_divergences` is at least 1; any integer may
/// also be an `"0x..."` string, and `null` is refused.
pub fn campaign_from_json(v: &Json) -> Result<(CampaignConfig, bool), WireError> {
    only_fields(
        v,
        &[
            "seed",
            "start",
            "count",
            "cycle_budget",
            "minimize",
            "max_divergences",
            "progress",
        ],
    )?;
    let int = |key| optional(v, key, U64_OR_HEX, u64_or_hex);
    let count = required(v, "count", U64_OR_HEX, u64_or_hex)?;
    if !(1..=FUZZ_MAX_COUNT).contains(&count) {
        return Err(bad(format!("'count' must be in 1..={FUZZ_MAX_COUNT}")));
    }
    let start = int("start")?.unwrap_or(0);
    if start.checked_add(count).is_none() {
        return Err(bad("'start' + 'count' must fit in a u64"));
    }
    let mut cfg = CampaignConfig {
        seed: required(v, "seed", U64_OR_HEX, u64_or_hex)?,
        start,
        iters: count,
        ..CampaignConfig::default()
    };
    if let Some(budget) = int("cycle_budget")? {
        cfg.oracle.cycle_budget = budget;
    }
    cfg.minimize = opt_bool(v, "minimize", cfg.minimize)?;
    match int("max_divergences")? {
        Some(0) => return Err(bad("'max_divergences' must be at least 1")),
        Some(cap) => cfg.max_divergences = cap,
        None => {}
    }
    Ok((cfg, opt_bool(v, "progress", false)?))
}

/// Encode a finished campaign: the `/v1/fuzz` reply and the `fuzz
/// --stats` file. It carries every counter, each divergence in full, and
/// the wall clock (`elapsed_ms`, and `kernels_per_sec` derived from it),
/// which the rendered report leaves out.
pub fn fuzz_report_to_json(r: &FuzzReport) -> Json {
    let s = &r.stats;
    let ms = s.elapsed.as_millis() as u64;
    let kps = if ms > 0 {
        s.kernels as f64 * 1000.0 / ms as f64
    } else {
        0.0
    };
    let n = |key: &str, value: u64| (key.to_string(), Json::U64(value));
    Json::Obj(vec![
        n("seed", r.seed),
        n("start", r.start),
        n("kernels", s.kernels),
        n("runs", s.runs),
        n("agreements", s.agreements),
        n("divergences", s.divergences),
        n("escalations", s.escalations),
        n("minimize_steps", s.minimize_steps),
        n("minimize_tests", s.minimize_tests),
        n("cache_hits", s.cache_hits),
        n("cache_misses", s.cache_misses),
        n("compiles", s.compiles),
        n("elapsed_ms", ms),
        ("kernels_per_sec".into(), Json::F64(kps)),
        (
            "found".into(),
            Json::Arr(r.divergences.iter().map(found_to_json).collect()),
        ),
    ])
}

fn found_to_json(f: &FoundDivergence) -> Json {
    let n = |key: &str, value: u64| (key.to_string(), Json::U64(value));
    let d = &f.divergence;
    Json::Obj(vec![
        n("index", f.index),
        n("seed", f.seed),
        ("technique".into(), Json::Str(d.technique.to_string())),
        ("kind".into(), Json::Str(d.kind.name().to_string())),
        ("detail".into(), Json::Str(d.detail.clone())),
        n("instructions", f.instructions as u64),
        n("minimize_steps", f.minimize_steps),
        n("minimize_tests", f.minimize_tests),
        ("artifact".into(), Json::Str(f.artifact.to_text())),
    ])
}

/// Decode a finished campaign from [`fuzz_report_to_json`]'s encoding.
/// Every counter is required (a missing one is an error, never 0), and
/// `found` must list exactly `divergences` entries.
pub fn fuzz_report_from_json(v: &Json) -> Result<FuzzReport, WireError> {
    let n = |key| req_u64(v, key);
    let found = required(v, "found", "an array", Json::as_arr)?
        .iter()
        .map(found_from_json)
        .collect::<Result<Vec<_>, _>>()?;
    let report = FuzzReport {
        seed: n("seed")?,
        start: n("start")?,
        stats: CampaignStats {
            kernels: n("kernels")?,
            runs: n("runs")?,
            agreements: n("agreements")?,
            divergences: n("divergences")?,
            escalations: n("escalations")?,
            minimize_steps: n("minimize_steps")?,
            minimize_tests: n("minimize_tests")?,
            cache_hits: n("cache_hits")?,
            cache_misses: n("cache_misses")?,
            compiles: n("compiles")?,
            elapsed: Duration::from_millis(n("elapsed_ms")?),
        },
        divergences: found,
    };
    if report.divergences.len() as u64 != report.stats.divergences {
        return Err(bad(format!(
            "'found' lists {} divergences but 'divergences' is {}",
            report.divergences.len(),
            report.stats.divergences
        )));
    }
    Ok(report)
}

fn found_from_json(v: &Json) -> Result<FoundDivergence, WireError> {
    let n = |key| req_u64(v, key);
    Ok(FoundDivergence {
        index: n("index")?,
        seed: n("seed")?,
        divergence: Divergence {
            technique: Technique::from_str(req_str(v, "technique")?)
                .map_err(|e| bad(e.to_string()))?,
            kind: DivergenceKind::parse(req_str(v, "kind")?).map_err(bad)?,
            detail: req_str(v, "detail")?.to_string(),
        },
        artifact: Artifact::parse(req_str(v, "artifact")?)
            .map_err(|e| bad(format!("'artifact': {e}")))?,
        instructions: narrow(n("instructions")?, "instructions")?,
        minimize_steps: n("minimize_steps")?,
        minimize_tests: n("minimize_tests")?,
    })
}

/// The workload registry as machine-readable JSON — the same rows as
/// `regmutex-cli list`, structured.
pub fn workloads_json() -> Json {
    Json::Arr(
        suite::all()
            .iter()
            .map(|w| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(w.name.to_string())),
                    ("regs".into(), Json::U64(u64::from(w.table_regs))),
                    ("base_set".into(), Json::U64(u64::from(w.table_bs))),
                    (
                        "threads_per_cta".into(),
                        Json::U64(u64::from(w.kernel.threads_per_cta)),
                    ),
                    (
                        "shmem_per_cta".into(),
                        Json::U64(u64::from(w.kernel.shmem_per_cta)),
                    ),
                    ("grid_ctas".into(), Json::U64(u64::from(w.grid_ctas))),
                    ("group".into(), Json::Str(format!("{:?}", w.group))),
                ])
            })
            .collect(),
    )
}

/// Serialize stats by parsing the canonical single-producer encoding.
pub fn stats_to_json(stats: &SimStats) -> Json {
    crate::json::parse(&stats.to_json()).expect("SimStats::to_json emits valid JSON")
}

fn checksum_from(v: &Json) -> Result<u64, WireError> {
    let s = req_str(v, "checksum")?;
    let hex = s
        .strip_prefix("0x")
        .ok_or_else(|| bad("'checksum' must be an 0x-prefixed hex string"))?;
    u64::from_str_radix(hex, 16).map_err(|_| bad(format!("invalid checksum '{s}'")))
}

/// Decode [`SimStats`] from the wire encoding.
pub fn stats_from_json(v: &Json) -> Result<SimStats, WireError> {
    let mut stats = SimStats {
        cycles: req_u64(v, "cycles")?,
        instructions: req_u64(v, "instructions")?,
        ctas: req_u64(v, "ctas")?,
        warps: req_u64(v, "warps")?,
        acquire_attempts: req_u64(v, "acquire_attempts")?,
        acquire_successes: req_u64(v, "acquire_successes")?,
        releases: req_u64(v, "releases")?,
        empty_scheduler_cycles: req_u64(v, "empty_scheduler_cycles")?,
        resident_warp_cycles: req_u64(v, "resident_warp_cycles")?,
        checksum: checksum_from(v)?,
        spills: req_u64(v, "spills")?,
        mem_requests: req_u64(v, "mem_requests")?,
        reg_reads: req_u64(v, "reg_reads")?,
        reg_writes: req_u64(v, "reg_writes")?,
        skipped_cycles: req_u64(v, "skipped_cycles")?,
        step_calls: req_u64(v, "step_calls")?,
        ..Default::default()
    };
    let stalls = required(v, "stall_cycles", "an object", Json::as_obj)?;
    for (name, count) in stalls {
        let reason = StallReason::from_str(name)
            .map_err(|()| bad(format!("unknown stall reason '{name}'")))?;
        let n = count
            .as_u64()
            .ok_or_else(|| bad(format!("stall count for '{name}' must be an integer")))?;
        stats.stall_cycles[reason.index()] = n;
    }
    Ok(stats)
}

fn plan_to_json(plan: &RegPlan) -> Json {
    Json::Obj(vec![
        ("bs".into(), Json::U64(u64::from(plan.bs))),
        ("es".into(), Json::U64(u64::from(plan.es))),
        ("total_regs".into(), Json::U64(u64::from(plan.total_regs))),
        (
            "srp_sections".into(),
            Json::U64(u64::from(plan.srp_sections)),
        ),
        (
            "occupancy_warps".into(),
            Json::U64(u64::from(plan.occupancy_warps)),
        ),
    ])
}

fn plan_from_json(v: &Json) -> Result<RegPlan, WireError> {
    Ok(RegPlan {
        bs: narrow(req_u64(v, "bs")?, "bs")?,
        es: narrow(req_u64(v, "es")?, "es")?,
        total_regs: narrow(req_u64(v, "total_regs")?, "total_regs")?,
        srp_sections: narrow(req_u64(v, "srp_sections")?, "srp_sections")?,
        occupancy_warps: narrow(req_u64(v, "occupancy_warps")?, "occupancy_warps")?,
    })
}

/// Serialize a [`RunReport`] (everything a client needs to reconstruct
/// the run: identity, plan, occupancy model, and full stats).
pub fn report_to_json(report: &RunReport) -> Json {
    Json::Obj(vec![
        ("technique".into(), Json::Str(report.technique.to_string())),
        ("kernel_name".into(), Json::Str(report.kernel_name.clone())),
        (
            "theoretical_occupancy_warps".into(),
            Json::U64(u64::from(report.theoretical_occupancy_warps)),
        ),
        ("max_warps".into(), Json::U64(u64::from(report.max_warps))),
        (
            "storage_overhead_bits".into(),
            Json::U64(report.storage_overhead_bits),
        ),
        (
            "plan".into(),
            report.plan.as_ref().map_or(Json::Null, plan_to_json),
        ),
        ("stats".into(), stats_to_json(&report.stats)),
    ])
}

/// Decode a [`RunReport`] from the wire encoding.
pub fn report_from_json(v: &Json) -> Result<RunReport, WireError> {
    let technique = req_str(v, "technique")?;
    let plan = nullable(v, "plan", "an object", Some)?
        .map(plan_from_json)
        .transpose()?;
    Ok(RunReport {
        technique: Technique::from_str(technique).map_err(|e| bad(e.to_string()))?,
        kernel_name: req_str(v, "kernel_name")?.to_string(),
        stats: stats_from_json(required(v, "stats", "an object", Some)?)?,
        plan,
        theoretical_occupancy_warps: narrow(
            req_u64(v, "theoretical_occupancy_warps")?,
            "theoretical_occupancy_warps",
        )?,
        max_warps: narrow(req_u64(v, "max_warps")?, "max_warps")?,
        storage_overhead_bits: req_u64(v, "storage_overhead_bits")?,
    })
}

/// The `/v1/run` success body: the report plus request identity, derived
/// convenience metrics, and whether the result came from the cache. A
/// request that carried a lease id gets it echoed back (absent otherwise,
/// keeping lease-less responses byte-stable).
pub fn run_response_json(app: &str, report: &RunReport, cached: bool, lease: Option<u64>) -> Json {
    let mut pairs = vec![
        ("app".into(), Json::Str(app.to_string())),
        ("cached".into(), Json::Bool(cached)),
        ("cycles".into(), Json::U64(report.stats.cycles)),
        ("ipc".into(), Json::F64(report.stats.ipc())),
        (
            "occupancy_percent".into(),
            Json::U64(u64::from(report.occupancy_percent())),
        ),
        (
            "checksum".into(),
            Json::Str(format!("{:#018x}", report.stats.checksum)),
        ),
    ];
    if let Some(lease) = lease {
        pairs.push(("lease".into(), Json::U64(lease)));
    }
    if let Json::Obj(report_pairs) = report_to_json(report) {
        pairs.extend(report_pairs);
    }
    Json::Obj(pairs)
}

/// A structured error body: `{"error": "..."}`.
pub fn error_json(message: &str) -> String {
    Json::Obj(vec![("error".into(), Json::Str(message.to_string()))]).encode()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn sample_stats() -> SimStats {
        let mut s = SimStats {
            cycles: 123_456,
            instructions: 999,
            ctas: 12,
            warps: 96,
            acquire_attempts: 40,
            acquire_successes: 31,
            releases: 30,
            empty_scheduler_cycles: 17,
            resident_warp_cycles: 88_000,
            checksum: 0xFEDC_BA98_7654_3210,
            spills: 3,
            mem_requests: 421,
            reg_reads: 2500,
            reg_writes: 1300,
            skipped_cycles: 100_000,
            step_calls: 23_456,
            ..Default::default()
        };
        s.stall_cycles[StallReason::Scoreboard.index()] = 100;
        s.stall_cycles[StallReason::Acquire.index()] = 55;
        s
    }

    fn sample_report(plan: bool) -> RunReport {
        RunReport {
            technique: Technique::RegMutexPaired,
            kernel_name: "BFS".into(),
            stats: sample_stats(),
            plan: plan.then_some(RegPlan {
                bs: 10,
                es: 4,
                total_regs: 14,
                srp_sections: 12,
                occupancy_warps: 48,
            }),
            theoretical_occupancy_warps: 48,
            max_warps: 48,
            storage_overhead_bits: 1234,
        }
    }

    #[test]
    fn stats_round_trip_is_lossless() {
        let original = sample_stats();
        let wire = parse(&original.to_json()).expect("sim emits valid JSON");
        let back = stats_from_json(&wire).unwrap();
        assert_eq!(back, original);
        // And the checksum survived above-2^53 precision.
        assert_eq!(back.checksum, 0xFEDC_BA98_7654_3210);
    }

    #[test]
    fn report_round_trip_is_lossless() {
        for with_plan in [true, false] {
            let original = sample_report(with_plan);
            let wire = report_to_json(&original);
            // Through text, as a real client would see it.
            let back = report_from_json(&parse(&wire.encode()).unwrap()).unwrap();
            assert_eq!(report_to_json(&back), wire);
            assert_eq!(back.stats, original.stats);
            assert_eq!(back.technique, original.technique);
            assert_eq!(back.plan.is_some(), with_plan);
        }
    }

    #[test]
    fn run_request_defaults_and_validation() {
        let r = parse_run_request(&parse(r#"{"app":"BFS"}"#).unwrap()).unwrap();
        assert_eq!(r.technique, Technique::RegMutex);
        assert!(!r.half_rf);
        assert_eq!(r.ctas, None);

        let r = parse_run_request(
            &parse(r#"{"app":"SAD","technique":"paired","half_rf":true,"ctas":90,"force_es":8,"cycle_budget":5000}"#)
                .unwrap(),
        )
        .unwrap();
        assert_eq!(r.technique, Technique::RegMutexPaired);
        assert!(r.half_rf);
        assert_eq!(r.ctas, Some(90));
        assert_eq!(r.force_es, Some(8));
        assert_eq!(r.cycle_budget, Some(5000));
    }

    #[test]
    fn run_requests_round_trip_through_the_strict_parser_and_as_jobs() {
        for req in [
            RunRequest {
                app: "BFS".into(),
                technique: Technique::RegMutex,
                half_rf: false,
                ctas: None,
                force_es: None,
                cycle_budget: None,
                lease: None,
            },
            RunRequest {
                app: "SAD".into(),
                technique: Technique::Baseline,
                half_rf: true,
                ctas: Some(90),
                force_es: Some(8),
                cycle_budget: Some(5000),
                lease: Some(0xfeed_beef_dead_cafe),
            },
        ] {
            let body = run_request_json(&req).encode();
            let back = parse_run_request(&parse(&body).unwrap()).unwrap();
            assert_eq!(back, req, "{body}");
            // As a sweep job and back (a lease belongs to one attempt), and
            // to the same spec either way.
            let job = req.job();
            let unleased = RunRequest { lease: None, ..req };
            assert_eq!(RunRequest::for_job(&job).as_ref(), Ok(&unleased));
            let spec = crate::spec_for_request(&unleased, 0, None);
            assert_eq!(spec.fingerprint(), job.to_spec().unwrap().fingerprint());
        }
        let mut volta = MatrixJob::new("BFS", Technique::Baseline);
        volta.cfg = GpuConfig::volta_like();
        let err = RunRequest::for_job(&volta).unwrap_err();
        assert!(err.starts_with("BFS/baseline: "), "{err}");
    }

    #[test]
    fn lease_is_echoed_only_when_present() {
        let report = sample_report(true);
        let with = run_response_json("BFS", &report, false, Some(42)).encode();
        assert!(with.contains("\"lease\":42"), "{with}");
        let without = run_response_json("BFS", &report, false, None).encode();
        assert!(!without.contains("\"lease\""), "{without}");
    }

    #[test]
    fn run_request_rejects_garbage() {
        for bad_body in [
            r#"{}"#,                             // missing app
            r#"{"app":"Nope"}"#,                 // unknown workload
            r#"{"app":"BFS","technique":"x"}"#,  // unknown technique
            r#"{"app":"BFS","ctas":-1}"#,        // negative integer
            r#"{"app":"BFS","ctas":0}"#,         // an empty grid
            r#"{"app":"BFS","ctas":"many"}"#,    // wrong type
            r#"{"app":"BFS","force_es":70000}"#, // u16 overflow
            r#"{"app":"BFS","typo_field":1}"#,   // unknown field
            r#"{"app":1}"#,                      // wrong type for app
            r#"[1,2]"#,                          // not an object
        ] {
            let v = parse(bad_body).unwrap();
            assert!(parse_run_request(&v).is_err(), "should reject {bad_body}");
        }
    }

    #[test]
    fn workloads_json_lists_all_sixteen() {
        let v = workloads_json();
        let arr = v.as_arr().unwrap();
        assert_eq!(arr.len(), 16);
        let bfs = arr
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some("BFS"))
            .unwrap();
        assert!(bfs.get("regs").and_then(Json::as_u64).unwrap() > 0);
        assert!(bfs.get("grid_ctas").and_then(Json::as_u64).unwrap() > 0);
        assert!(bfs.get("group").and_then(Json::as_str).is_some());
    }

    #[test]
    fn stats_from_json_rejects_unknown_stall_reason() {
        let mut text = sample_stats().to_json();
        text = text.replace("\"scoreboard\"", "\"warpdrive\"");
        let err = stats_from_json(&parse(&text).unwrap()).unwrap_err();
        assert!(err.0.contains("warpdrive"), "{err}");
    }

    /// A planted-fault campaign small enough for a unit test that still
    /// finds and minimizes one divergence.
    fn divergent_campaign() -> FuzzReport {
        let cfg = CampaignConfig {
            seed: 0xfa_017,
            iters: 24,
            fault: Some(regmutex_fuzz::parse_fault("stuck-srp-bit:severe:5:regmutex").unwrap()),
            minimize_tests: 300,
            max_divergences: 1,
            ..CampaignConfig::default()
        };
        regmutex_fuzz::run_campaign(&cfg, &regmutex_bench::Runner::new(2))
    }

    #[test]
    fn fuzz_report_round_trips_with_its_divergences() {
        let report = divergent_campaign();
        assert_eq!(report.divergences.len(), 1);
        let wire = fuzz_report_to_json(&report);
        let back = fuzz_report_from_json(&parse(&wire.encode()).unwrap()).unwrap();
        assert_eq!(back.render(), report.render());
        assert_eq!(fuzz_report_to_json(&back), wire);

        // Every field but the derived rate is required, and so is its type.
        let Json::Obj(pairs) = &wire else {
            unreachable!()
        };
        for (key, _) in pairs.iter().filter(|(k, _)| k != "kernels_per_sec") {
            let without = Json::Obj(pairs.iter().filter(|(k, _)| k != key).cloned().collect());
            let err = fuzz_report_from_json(&without).unwrap_err();
            assert!(err.0.contains(&format!("'{key}'")), "{key}: {err}");
            let mistyped = Json::Obj(
                pairs
                    .iter()
                    .map(|(k, v)| match k == key {
                        true => (k.clone(), Json::Str("0".into())),
                        false => (k.clone(), v.clone()),
                    })
                    .collect(),
            );
            assert!(fuzz_report_from_json(&mistyped).is_err(), "{key}");
        }
        // So is every field of a divergence.
        let text = wire.encode();
        for key in ["\"technique\"", "\"kind\"", "\"detail\"", "\"artifact\""] {
            let renamed = text.replacen(key, "\"other\"", 1);
            assert!(
                fuzz_report_from_json(&parse(&renamed).unwrap()).is_err(),
                "{key}"
            );
        }
        // A divergence count the list does not back is refused.
        let miscounted = text.replace("\"divergences\":1", "\"divergences\":2");
        assert!(fuzz_report_from_json(&parse(&miscounted).unwrap()).is_err());
    }

    #[test]
    fn campaigns_round_trip_through_the_fuzz_request() {
        let mut cfg = CampaignConfig {
            seed: u64::MAX - 2,
            start: 7,
            iters: 300,
            minimize: false,
            max_divergences: 2,
            ..CampaignConfig::default()
        };
        cfg.oracle.cycle_budget = 123_456;
        let body = campaign_to_json(&cfg).encode();
        let (back, progress) = campaign_from_json(&parse(&body).unwrap()).unwrap();
        assert_eq!(format!("{back:?}"), format!("{cfg:?}"), "{body}");
        assert!(!progress);
        let (_, progress) =
            campaign_from_json(&parse(r#"{"seed":1,"count":2,"progress":true}"#).unwrap()).unwrap();
        assert!(progress);
        // A range past 2^64 and a cap that stops before the first kernel
        // are refused by name; the largest range that fits is taken.
        for (body, field) in [
            (
                r#"{"seed":1,"start":"0xffffffffffffffff","count":1}"#,
                "'start'",
            ),
            (
                r#"{"seed":1,"start":18446744073709551615,"count":2}"#,
                "'start'",
            ),
            (
                r#"{"seed":1,"count":2,"max_divergences":0}"#,
                "'max_divergences'",
            ),
        ] {
            let err = campaign_from_json(&parse(body).unwrap()).unwrap_err();
            assert!(err.0.contains(field), "{body}: {err}");
        }
        let top = r#"{"seed":1,"start":"0xfffffffffffffffe","count":1}"#;
        assert!(campaign_from_json(&parse(top).unwrap()).is_ok());
    }

    #[test]
    fn null_reads_as_absent_only_where_it_always_did() {
        let run = r#"{"app":"BFS","technique":null,"half_rf":null,"ctas":null,"lease":null}"#;
        assert_eq!(
            parse_run_request(&parse(run).unwrap()).map(|r| r.technique),
            Ok(Technique::RegMutex)
        );
        let sweep = parse_sweep_request(&parse(r#"{"app":"BFS","es":null}"#).unwrap());
        assert_eq!(sweep.map(|r| r.es), Ok(ES_VALUES.to_vec()));
        let err = parse_sweep_request(&parse(r#"{"app":"BFS","stream":null}"#).unwrap());
        assert!(err.unwrap_err().0.contains("'stream'"));
        for field in [
            "seed",
            "count",
            "start",
            "cycle_budget",
            "minimize",
            "max_divergences",
            "progress",
        ] {
            let body = format!(r#"{{"seed":1,"count":1,"{field}":null}}"#).replacen(
                &format!(r#""{field}":1,"#),
                "",
                1,
            );
            let err = campaign_from_json(&parse(&body).unwrap()).unwrap_err();
            assert!(err.0.contains(&format!("'{field}'")), "{body}: {err}");
        }
    }

    #[test]
    fn sweep_requests_refuse_fields_they_would_drop() {
        let r = parse_sweep_request(&parse(r#"{"app":"BFS","half_rf":true}"#).unwrap()).unwrap();
        assert_eq!(
            (r.base.technique, r.base.half_rf),
            (Technique::Baseline, true)
        );
        assert_eq!((r.es, r.stream), (ES_VALUES.to_vec(), true));
        let r = parse_sweep_request(&parse(r#"{"app":"BFS","es":[3],"stream":false}"#).unwrap());
        assert_eq!(r.map(|r| (r.es, r.stream)), Ok((vec![3], false)));
        for field in ["technique", "force_es", "lease"] {
            let body = format!(r#"{{"app":"BFS","{field}":1}}"#);
            let err = parse_sweep_request(&parse(&body).unwrap()).unwrap_err();
            assert!(err.0.contains(&format!("'{field}'")), "{err}");
        }
    }

    #[test]
    fn error_json_shape() {
        assert_eq!(error_json("x \"y\""), r#"{"error":"x \"y\""}"#);
    }
}
