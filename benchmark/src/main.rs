//! End-to-end and per-layer benchmark of the RegMutex reproduction.
//!
//! ```text
//! regmutex-benchmark --workload W --seed N --seconds S --trace 0|1 [--spans FILE]
//! regmutex-benchmark run [--seed N] [--seconds S] [--sets N] [--out FILE] [--trace FILE]
//! regmutex-benchmark compare A.json B.json
//! regmutex-benchmark bless
//! ```
//!
//! The first form runs one workload in this process and prints, last, one
//! JSON line: `{"correct","attempted","failed","metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the shared per-layer metrics
//! (`--trace 1`). `run` runs every workload as a child process of that
//! form, `--sets` times, and `compare` applies the `BENCHMARK.json`
//! bounds to two `run` outputs. See `README.md` for the metrics.

mod fuzz;
mod http;
mod pipeline;
mod report;
mod serve;
mod sets;
mod sim;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The six workloads, in their default order.
pub const WORKLOADS: [&str; 6] = [
    "sim_sampled",
    "sim_device",
    "fuzz",
    "fuzz_durable",
    "serve_cold",
    "serve_warm",
];

/// Options of one workload run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// The `regmutex-cli` binary the serve workloads spawn:
    /// `$CARGO_TARGET_DIR/release/regmutex-cli`, else the root `target/`.
    pub cli: PathBuf,
    /// Where a traced run writes its spans (TSV), if anywhere.
    pub spans: Option<PathBuf>,
}

/// Set-ups the in-process workloads time back to back before their first
/// round (`fuzz_durable`: before each round); each is a sample of
/// `setup_s`. (CPU-bound set-ups timed between rounds read up to 1.6×
/// slower after a round's work, and flip the median.)
pub const SETUP_REPEATS: usize = 20;

/// Run rounds until `seconds` would be exceeded by one more round of the
/// median length seen so far, and at least `min` rounds.
pub fn rounds(seconds: f64, min: usize, mut round: impl FnMut(usize)) {
    let start = Instant::now();
    let mut lengths = Vec::new();
    loop {
        let n = lengths.len();
        let elapsed = util::secs(start);
        if n >= min && elapsed + util::median(&lengths) > seconds {
            break;
        }
        let t = Instant::now();
        round(n);
        lengths.push(util::secs(t));
    }
}

fn default_cli() -> PathBuf {
    let root = util::bench_dir()
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf();
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| root.join("target"), |d| root.join(d));
    target.join("release").join("regmutex-cli")
}

pub fn value<'a>(
    flag: &str,
    it: &mut impl Iterator<Item = &'a String>,
) -> Result<&'a String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

pub fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag}: invalid value '{v}'"))
}

fn run_workload(args: &Args) -> ExitCode {
    if args.traced {
        trace::enable();
    }
    let out = match args.workload {
        "sim_sampled" | "sim_device" => sim::run(args),
        "fuzz" => fuzz::run(args),
        "fuzz_durable" => fuzz::run_durable(args),
        _ => serve::run(args),
    };
    if let Some(path) = &args.spans {
        if let Err(e) = trace::write_tsv(path) {
            eprintln!("error: writing spans to {}: {e}", path.display());
        }
    }
    out.print_human(args.traced);
    println!("detail {}", out.detail_json().encode());
    println!("{}", out.result_json(args.traced).encode());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    // The program's own knobs must not leak in from the environment.
    std::env::remove_var("REGMUTEX_SM_WORKERS");
    std::env::remove_var("REGMUTEX_JOBS");
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = match argv.first().map(String::as_str) {
        Some("run") => sets::run(&argv[1..]),
        Some("compare") => sets::compare(&argv[1..]),
        Some("bless") => sim::bless().map(|msg| {
            println!("{msg}");
            ExitCode::SUCCESS
        }),
        _ => parse_workload_args(&argv).map(|a| run_workload(&a)),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

fn parse_workload_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: sets::DEFAULT_SEED,
        seconds: sets::DEFAULT_SECONDS,
        traced: false,
        cli: default_cli(),
        spans: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let w = value(flag, &mut it)?;
                args.workload = WORKLOADS.iter().find(|n| *n == w).ok_or_else(|| {
                    format!("unknown workload '{w}' (expected one of {WORKLOADS:?})")
                })?;
            }
            "--seed" => args.seed = number(flag, value(flag, &mut it)?)?,
            "--seconds" => args.seconds = number(flag, value(flag, &mut it)?)?,
            "--trace" => {
                args.traced = match value(flag, &mut it)?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got '{v}'")),
                }
            }
            "--spans" => args.spans = Some(PathBuf::from(value(flag, &mut it)?)),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if args.workload.is_empty() {
        return Err("missing --workload (or a subcommand: run, compare, bless)".into());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}
