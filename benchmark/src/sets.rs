//! `run` (every workload, as child processes, in repeated sets) and
//! `compare` (two `run` outputs under the declared bounds).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use regmutex_server::json::{self, Json};

use crate::report::{label, Better, Bound, MetricDef, DETAIL, END_TO_END};
use crate::util::{bench_dir, iqr, median, nproc, num, obj};
use crate::WORKLOADS;

pub const DEFAULT_SEED: u64 = 1;
/// Must equal `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 10.0;
/// `setup_s` may also worsen by this many seconds, whichever is larger.
/// Set-ups of a millisecond or less would otherwise be judged on timer
/// and page-fault noise.
pub const SETUP_FLOOR_S: f64 = 0.05;

fn parse(text: &str, what: &str) -> Result<Json, String> {
    json::parse(text).map_err(|e| format!("{what}: {e}"))
}

fn arr(v: Option<&Json>) -> &[Json] {
    v.and_then(Json::as_arr).unwrap_or_default()
}

/// One child run's `detail` object, and whether the child succeeded.
fn run_child(
    exe: &Path,
    workload: &str,
    seed: u64,
    seconds: f64,
    spans: Option<&Path>,
) -> Result<(Json, bool), String> {
    let mut cmd = Command::new(exe);
    cmd.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
    ])
    .args(["--trace", if spans.is_some() { "1" } else { "0" }])
    .stdin(Stdio::null())
    .stderr(Stdio::inherit());
    if let Some(p) = spans {
        cmd.arg("--spans").arg(p);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        match line.strip_prefix("detail ") {
            Some(text) => detail = Some(parse(text, &format!("{workload}: detail line"))?),
            None => println!("  | {line}"),
        }
    }
    let detail =
        detail.ok_or_else(|| format!("{workload}: no detail line (exit {})", output.status))?;
    Ok((detail, output.status.success()))
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(bench_dir())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

fn print_set(n: usize, workloads: &[(String, Json)]) {
    println!("set {n}:");
    println!(
        "  {:<13} {:<26} {:>14} {:>12} {:>4}  unit",
        "workload", "metric", "median", "IQR", "n"
    );
    for (w, detail) in workloads {
        let metrics = detail.get("metrics").and_then(Json::as_obj);
        for (metric, v) in metrics.unwrap_or_default() {
            let num = |k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!(
                "  {w:<13} {:<26} {:>14.6} {:>12.6} {:>4}  {}",
                label(metric, w),
                num("median"),
                num("iqr"),
                num("n"),
                v.get("unit").and_then(Json::as_str).unwrap_or("")
            );
        }
    }
}

/// `run`: every workload in its own child process, `--sets` times with
/// alternating order; optionally one traced pass; results as JSON.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut sets = 2usize;
    let mut out_path: Option<PathBuf> = None;
    let mut trace_path: Option<PathBuf> = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let v = crate::value(flag, &mut it)?;
        match flag.as_str() {
            "--seed" => seed = crate::number(flag, v)?,
            "--seconds" => seconds = crate::number(flag, v)?,
            "--sets" => sets = crate::number(flag, v)?,
            "--out" => out_path = Some(PathBuf::from(v)),
            "--trace" => trace_path = Some(PathBuf::from(v)),
            other => return Err(format!("run: unknown argument '{other}'")),
        }
    }
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut set_json = Vec::new();
    for n in 0..sets {
        let mut order: Vec<&str> = WORKLOADS.to_vec();
        if n % 2 == 1 {
            order.reverse();
        }
        let mut results = Vec::new();
        for w in &order {
            println!("[set {n}] {w}");
            let (detail, success) = run_child(&exe, w, seed, seconds, None)?;
            ok &= success;
            results.push((w.to_string(), detail));
        }
        print_set(n, &results);
        set_json.push(obj([
            (
                "order",
                Json::Arr(order.iter().map(|w| Json::Str(w.to_string())).collect()),
            ),
            ("workloads", obj(results)),
        ]));
    }
    let command = std::iter::once("run".to_string())
        .chain(argv.iter().cloned())
        .collect::<Vec<_>>()
        .join(" ");
    let header = |extra: (&str, Json)| {
        obj([
            (
                "command",
                Json::Str(format!("regmutex-benchmark {command}")),
            ),
            ("nproc", Json::U64(nproc() as u64)),
            ("git_rev", Json::Str(git_rev())),
            ("seed", Json::U64(seed)),
            ("seconds", num(seconds)),
            extra,
        ])
    };
    let write = |path: &Path, doc: Json| {
        std::fs::write(path, format!("{}\n", doc.encode()))
            .map_err(|e| format!("write {}: {e}", path.display()))
    };
    if let Some(path) = &out_path {
        write(path, header(("sets", Json::Arr(set_json.clone()))))?;
    }

    if let Some(path) = &trace_path {
        let mut layers = Vec::new();
        for w in WORKLOADS {
            println!("[traced] {w}");
            let spans = path.with_extension(format!("{w}.spans.tsv"));
            let (detail, success) = run_child(&exe, w, seed, seconds, Some(&spans))?;
            ok &= success;
            let ops = |d: &Json| d.get("metrics")?.get("ops_per_s")?.get("median")?.as_f64();
            let untraced: Vec<f64> = set_json
                .iter()
                .filter_map(|s| s.get("workloads")?.get(w).and_then(ops))
                .collect();
            // Time per operation, traced over untraced, minus one.
            let overhead = median(&untraced) / ops(&detail).unwrap_or(f64::NAN) - 1.0;
            let wall = detail.get("wall_s").cloned().unwrap_or(Json::Null);
            println!(
                "  traced wall {} s, tracing overhead {:.1}%",
                wall.encode(),
                overhead * 100.0
            );
            // Simulator counters are exact: traced and untraced runs of the
            // same fixed work must agree.
            let sim = detail.get("sim").filter(|s| **s != Json::Null);
            for s in &set_json {
                let untraced = s.get("workloads").and_then(|x| x.get(w)?.get("sim"));
                if let (Some(a), Some(b)) = (sim, untraced.filter(|s| **s != Json::Null)) {
                    if a != b {
                        println!(
                            "  sim counters DIFFER from the untraced run: {} vs {}",
                            a.encode(),
                            b.encode()
                        );
                        ok = false;
                    }
                }
            }
            layers.push((
                w.to_string(),
                obj([
                    ("wall_s", wall),
                    ("overhead", num(overhead)),
                    (
                        "layers",
                        detail.get("layers").cloned().unwrap_or(Json::Null),
                    ),
                    ("sim", detail.get("sim").cloned().unwrap_or(Json::Null)),
                ]),
            ));
        }
        write(path, header(("workloads", obj(layers))))?;
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// End-to-end bounds from `BENCHMARK.json`.
fn file_bounds() -> Result<Vec<(String, f64)>, String> {
    let path = bench_dir().join("..").join("BENCHMARK.json");
    let what = path.display().to_string();
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{what}: {e}"))?;
    Ok(arr(parse(&text, &what)?.get("end_to_end"))
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// The share of `base` by which `def` may worsen, or `None` when any
/// worsening counts.
fn bound(def: &MetricDef, file: &[(String, f64)], base: f64) -> Result<Option<f64>, String> {
    let share = match def.bound {
        Bound::AnyIncrease => return Ok(None),
        Bound::Share(s) => s,
        Bound::File => file
            .iter()
            .find(|(n, _)| n == def.name)
            .map(|(_, b)| *b)
            .ok_or_else(|| format!("BENCHMARK.json declares no bound for {}", def.name))?,
    };
    Ok(Some(if def.name == "setup_s" {
        share.max(SETUP_FLOOR_S / base.abs())
    } else {
        share
    }))
}

/// A metric's per-set values (each a run's median) in one `run` output.
fn per_set(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    arr(doc.get("sets"))
        .iter()
        .filter_map(|s| {
            s.get("workloads")?
                .get(workload)?
                .get("metrics")?
                .get(metric)?
                .get("median")?
                .as_f64()
        })
        .collect()
}

/// Relative spread of one file's per-set values: their interquartile
/// range over their median, the statistic the README's calibration
/// reports over ten runs. Unknown (infinite) from a single set.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return f64::INFINITY;
    }
    iqr(values) / median(values).abs()
}

/// `compare A.json B.json`: B against A for every (metric, workload).
pub fn compare(argv: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = argv else {
        return Err("usage: compare A.json B.json".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        parse(
            &std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?,
            p,
        )
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let file = file_bounds()?;
    println!(
        "{:<13} {:<26} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "spread", "bound"
    );
    let mut worse = 0;
    for w in WORKLOADS {
        for def in END_TO_END.iter().chain(DETAIL.iter()) {
            let (sa, sb) = (per_set(&a, w, def.name), per_set(&b, w, def.name));
            if sa.is_empty() || sb.is_empty() {
                continue;
            }
            let (ma, mb) = (median(&sa), median(&sb));
            let bound = bound(def, &file, ma)?;
            let change = if ma == 0.0 {
                mb - ma
            } else {
                (mb - ma) / ma.abs()
            };
            let gain = match def.better {
                Better::Higher => change,
                Better::Lower => -change,
            };
            let sp = spread(&sa).max(spread(&sb));
            let verdict = match bound {
                None if gain < 0.0 => "worse",
                None => "within",
                Some(b) if sp > b => "unresolved",
                Some(b) if gain < -b => "worse",
                Some(b) if gain > b => "better",
                Some(_) => "within",
            };
            worse += usize::from(verdict == "worse");
            let (sp, bound) = match bound {
                Some(b) => (format!("{:.1}%", sp * 100.0), format!("{:.0}%", b * 100.0)),
                None => ("-".into(), "any".into()),
            };
            println!(
                "{w:<13} {:<26} {ma:>14.6} {mb:>14.6} {:>7.1}% {sp:>8} {bound:>6}  {verdict}",
                label(def.name, w),
                change * 100.0,
            );
        }
        let sim = |d: &Json| {
            arr(d.get("sets"))
                .iter()
                .filter_map(|s| {
                    s.get("workloads")?
                        .get(w)?
                        .get("sim")
                        .filter(|v| **v != Json::Null)
                        .cloned()
                })
                .collect::<Vec<_>>()
        };
        let all: Vec<Json> = sim(&a).into_iter().chain(sim(&b)).collect();
        if let Some(first) = all.first() {
            let same = all.iter().all(|s| s == first);
            println!(
                "{w:<13} sim counters {}",
                if same { "identical" } else { "DIFFER" }
            );
            worse += usize::from(!same);
        }
    }
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
