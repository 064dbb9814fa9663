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
const VERBS: [[&str; 3]; 13] = [
    ["list", "", ""],
    ["disasm BFS", "", ""],
    ["run BFS", "--watchdog-cycles", "--ctas"],
    ["bench-loop", "--iters", "--iters"],
    ["compare BFS", "--jobs", "--jobs"],
    ["trace BFS", "--max", ""],
    ["sweep BFS", "--jobs", "--jobs"],
    ["chaos", "--seeds", "--jobs"],
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
            "loadgen --workers 127.0.0.1:1 --pipeline 4",
            "loadgen --workers 127.0.0.1:1 --addr 127.0.0.1:9",
            "loadgen --no-keep-alive --workers 127.0.0.1:1",
            "loadgen --fleet --keep-alive --workers 127.0.0.1:1",
            "loadgen --cycle-budget -1",
            "coordinator",
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
