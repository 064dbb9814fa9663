//! Hostile-argument corpus: every verb, fed malformed argument vectors,
//! must exit 2 with an `error:` diagnosis on stderr — never run, never
//! panic, never hang.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Run the binary on a whitespace-separated argument line and return
/// (exit code, stderr). A run that outlives the deadline is killed and
/// reported as a hang.
fn run(line: &str) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_regmutex-cli"))
        .args(line.split_whitespace())
        .env_remove("REGMUTEX_JOBS")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn regmutex-cli");
    let deadline = Instant::now() + Duration::from_secs(20);
    while child.try_wait().expect("poll child").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("`{line}` hung");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = child.wait_with_output().expect("reap child");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code(), stderr)
}

/// Each verb with the arguments that make it valid, an integer flag, and a
/// flag that counts something (so zero is out of range); "" where it has
/// none.
const VERBS: [[&str; 3]; 14] = [
    ["list", "", ""],
    ["disasm BFS", "", ""],
    ["run BFS", "--watchdog-cycles", "--ctas"],
    ["bench-loop", "--iters", "--iters"],
    ["compare BFS", "--jobs", "--jobs"],
    ["trace BFS", "--max", ""],
    ["sweep BFS", "--jobs", "--jobs"],
    ["chaos", "--seeds", "--jobs"],
    ["figures", "--jobs", "--jobs"],
    ["serve", "--queue", "--workers"],
    ["loadgen", "--seed", "--threads"],
    [
        "coordinator --workers 127.0.0.1:1",
        "--seed",
        "--max-attempts",
    ],
    ["chaos-fleet", "--trigger-after", "--sim-workers"],
    ["fuzz", "--seed", "--jobs"],
];

#[test]
fn every_malformed_argv_exits_2_with_a_diagnosis() {
    let mut cases: Vec<String> = Vec::new();
    for [base, int, count] in VERBS {
        let mut tails = vec![
            "--bogus",
            "--technique nope",
            "-t nope",
            "--fault nope",
            "--resume",
        ];
        // `chaos` takes any number of workload names, so a stray word is a
        // (possibly unknown) workload, diagnosed when the campaign starts.
        if base != "chaos" {
            tails.push("stray");
        }
        let int_tails = ["", " many", " NaN", " -1"].map(|v| format!("{int}{v}"));
        if !int.is_empty() {
            tails.extend(int_tails.iter().map(String::as_str));
        }
        let zero = format!("{count} 0");
        if !count.is_empty() {
            tails.push(&zero);
        }
        cases.extend(tails.iter().map(|tail| format!("{base} {tail}")));
    }
    cases.extend(
        [
            "serve --client-rate NaN",
            "serve --client-rate inf",
            "serve --client-burst -1",
            "list --json=yes",
            "run",
            "run BFS --ctas=0",
            "sweep --jobs 4",
            "fuzz --fleet",
            "fuzz --workers 127.0.0.1:1 --replay f",
            "fuzz --journal /nonexistent --replay f",
            "fuzz --replay f --fault nope",
            "fuzz --fleet --workers 127.0.0.1:1 --max-divergences 3",
            "fuzz --workers 127.0.0.1:1 --duration-secs 5",
            "fuzz --workers 127.0.0.1:1 --jobs 4",
            "fuzz --workers 127.0.0.1:1 --iters 100001",
            "loadgen --workers 127.0.0.1:1 --pipeline 4",
            "loadgen --workers 127.0.0.1:1 --addr 127.0.0.1:9",
            "loadgen --no-keep-alive --workers 127.0.0.1:1",
            "loadgen --fleet --keep-alive --workers 127.0.0.1:1",
            "loadgen --cycle-budget -1",
            "coordinator",
            "coordinator Nope --workers a:1",
            "coordinator fig07_occupancy_boost fig13_acquire_success --workers a:1",
            "figures Nope",
            "figures --jobs 0",
            "nonsense",
        ]
        .map(String::from),
    );
    for line in &cases {
        let (code, stderr) = run(line);
        assert!(!stderr.contains("panicked"), "`{line}` panicked:\n{stderr}");
        assert_eq!(code, Some(2), "`{line}` exited {code:?}:\n{stderr}");
        assert!(
            stderr.starts_with("error: "),
            "`{line}`: no diagnosis:\n{stderr}"
        );
    }
}

/// A figure with a job the `/v1/run` wire cannot carry (the ablation's
/// shrunken register files) is a command error naming that job, before
/// any worker is contacted or any journal written.
#[test]
fn coordinator_refuses_a_figure_the_wire_cannot_carry_before_contacting_a_worker() {
    let worker = std::net::TcpListener::bind("127.0.0.1:0").expect("bind a would-be worker");
    worker.set_nonblocking(true).expect("non-blocking accept");
    let addr = worker.local_addr().expect("local addr");
    let journal = std::env::temp_dir().join(format!("regmutex-refused-{}", std::process::id()));
    let line = format!(
        "coordinator ablation_rf_size --workers {addr} --journal {}",
        journal.display()
    );
    let (code, stderr) = run(&line);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: HeartWall/96KB baseline: "),
        "{stderr}"
    );
    assert!(!journal.exists(), "a refused figure writes no journal");
    let contacted = worker.accept().map_err(|e| e.kind());
    assert!(
        matches!(contacted, Err(std::io::ErrorKind::WouldBlock)),
        "a worker was contacted"
    );
}

/// A kernel no CTA of which fits an SM is a command error at launch that
/// names the CTA's register demand and the SM's register rows, not a
/// deadlock verdict after the no-progress detector's bound.
#[test]
fn compare_refuses_a_kernel_whose_cta_fits_no_sm() {
    let (code, stderr) = run("compare DWT2D --half-rf");
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: DWT2D/baseline: ") && stderr.contains("no CTA fits"),
        "{stderr}"
    );
    assert!(
        stderr.contains("a CTA needs 572 register rows under static allocation, the SM has 512"),
        "{stderr}"
    );
    assert!(!stderr.contains("deadlock"), "{stderr}");
}
