//! The service wire format: JSON encodings of requests, workloads,
//! [`SimStats`], and [`RunReport`], plus their parsers.
//!
//! [`SimStats`] has exactly one serializer — [`SimStats::to_json`] in
//! `regmutex-sim` — and this module *parses* that format back; keeping a
//! single producer means the simulator and the service can never drift.
//! Checksums travel as `"0x…"` hex strings (a u64 does not survive the
//! f64 number model of generic JSON consumers).

use std::str::FromStr;

use regmutex::{RunReport, Technique};
use regmutex_bench::MatrixJob;
use regmutex_compiler::RegPlan;
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

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer"))),
    }
}

fn opt_bool(v: &Json, key: &str, default: bool) -> Result<bool, WireError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(x) => x
            .as_bool()
            .ok_or_else(|| bad(format!("'{key}' must be a boolean"))),
    }
}

fn req_u64(v: &Json, key: &str) -> Result<u64, WireError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| bad(format!("missing or non-integer field '{key}'")))
}

fn narrow<T: TryFrom<u64>>(n: u64, key: &str) -> Result<T, WireError> {
    T::try_from(n).map_err(|_| bad(format!("'{key}' out of range")))
}

/// Decode a `/v1/run` body. Unknown fields are rejected so typos fail
/// loudly instead of silently running a default configuration.
pub fn parse_run_request(v: &Json) -> Result<RunRequest, WireError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| bad("body must be a JSON object"))?;
    const KNOWN: [&str; 7] = [
        "app",
        "technique",
        "half_rf",
        "ctas",
        "force_es",
        "cycle_budget",
        "lease",
    ];
    if let Some((k, _)) = obj.iter().find(|(k, _)| !KNOWN.contains(&k.as_str())) {
        return Err(bad(format!("unknown field '{k}'")));
    }
    let app = v
        .get("app")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing or non-string field 'app'"))?
        .to_string();
    if !suite::is_app(&app) {
        return Err(bad(format!(
            "unknown workload '{app}'; available: {}",
            suite::names().join(", ")
        )));
    }
    let technique = match v.get("technique") {
        None | Some(Json::Null) => Technique::RegMutex,
        Some(t) => {
            let s = t
                .as_str()
                .ok_or_else(|| bad("'technique' must be a string"))?;
            Technique::from_str(s).map_err(|e| bad(e.to_string()))?
        }
    };
    Ok(RunRequest {
        app,
        technique,
        half_rf: opt_bool(v, "half_rf", false)?,
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
    let s = v
        .get("checksum")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing or non-string field 'checksum'"))?;
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
    let stalls = v
        .get("stall_cycles")
        .and_then(Json::as_obj)
        .ok_or_else(|| bad("missing or non-object field 'stall_cycles'"))?;
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
    let technique = v
        .get("technique")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing or non-string field 'technique'"))?;
    let plan = match v.get("plan") {
        None | Some(Json::Null) => None,
        Some(p) => Some(plan_from_json(p)?),
    };
    Ok(RunReport {
        technique: Technique::from_str(technique).map_err(|e| bad(e.to_string()))?,
        kernel_name: v
            .get("kernel_name")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing or non-string field 'kernel_name'"))?
            .to_string(),
        stats: stats_from_json(v.get("stats").ok_or_else(|| bad("missing field 'stats'"))?)?,
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

    #[test]
    fn error_json_shape() {
        assert_eq!(error_json("x \"y\""), r#"{"error":"x \"y\""}"#);
    }
}
