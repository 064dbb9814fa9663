//! Crash-kill end-to-end tests for the durable campaign state.
//!
//! The adversarial contract from the durability design: a campaign that
//! is SIGKILLed at an arbitrary point — including mid-record writes —
//! and then resumed must produce final output *byte-identical* to an
//! uninterrupted golden run, or refuse with a diagnosis. Never silent
//! divergence. Each test kills a real `regmutex-cli` process at several
//! pseudo-randomized points (seeded from the clock, printed for
//! reproducibility), resumes, and byte-diffs.

use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use std::io::{BufRead, BufReader};

use regmutex_server::loadgen::Rng;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regmutex-cli"))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("rmx-durable-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A kill-schedule generator seeded from the wall clock; the seed is
/// printed so a failing schedule can be replayed by hand.
fn clock_rng(tag: &str) -> Rng {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("clock after epoch")
        .subsec_nanos();
    let seed = u64::from(nanos) | 1;
    eprintln!("[{tag}] kill-schedule seed: {seed:#x}");
    Rng::new(seed)
}

/// A kill delay between 10% and 80% of the golden wall time.
fn kill_delay(rng: &mut Rng, golden: Duration) -> Duration {
    golden.mul_f64((10 + rng.next_u64() % 71) as f64 / 100.0)
}

/// Spawn `args`, send `signal` after `delay`, and reap. Returns the
/// process output; `None` exit status fields mean it died to the signal.
fn run_and_signal(args: &[&str], signal: &str, delay: Duration) -> Output {
    let child = cli()
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn regmutex-cli");
    std::thread::sleep(delay);
    let _ = Command::new("kill")
        .args([signal, &child.id().to_string()])
        .status();
    child.wait_with_output().expect("reap child")
}

fn run_to_completion(args: &[&str]) -> Output {
    cli().args(args).output().expect("run regmutex-cli")
}

#[test]
fn fuzz_campaign_survives_sigkill_storm_byte_identically() {
    let dir = temp_dir("fuzz");
    let dir_s = dir.to_string_lossy().into_owned();
    let base = ["fuzz", "--seed", "0xc1", "--iters", "120", "--jobs", "2"];

    // The uninterrupted golden run (no journal anywhere near it).
    let t0 = Instant::now();
    let golden = run_to_completion(&base);
    let golden_wall = t0.elapsed();
    let golden_out = String::from_utf8(golden.stdout).expect("utf-8 report");
    assert!(
        golden_out.contains("verdict:"),
        "golden produced no report:\n{golden_out}"
    );

    let mut rng = clock_rng("fuzz");
    let mut journaled: Vec<String> = base.iter().map(|s| s.to_string()).collect();
    journaled.extend(["--journal".to_string(), dir_s.clone()]);

    // Round 0 is a graceful SIGTERM (checkpoint-and-exit, satellite
    // path); rounds 1-2 are SIGKILL — no flush, torn tails allowed.
    for (round, sig) in ["-TERM", "-KILL", "-KILL"].iter().enumerate() {
        let mut args: Vec<&str> = journaled.iter().map(String::as_str).collect();
        if round > 0 {
            args.push("--resume");
        }
        let out = run_and_signal(&args, sig, kill_delay(&mut rng, golden_wall));
        if out.status.success() {
            // The campaign outran the kill: its output must already be
            // golden, and the remaining rounds have nothing to interrupt.
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                golden_out,
                "a completed round must match the golden run"
            );
            break;
        }
        if *sig == "-TERM" {
            // Graceful checkpoint: distinct exit code and a resume hint
            // (unless the signal landed before the handler installed).
            if let Some(code) = out.status.code() {
                let err = String::from_utf8_lossy(&out.stderr);
                assert_eq!(code, 4, "graceful checkpoint exit code; stderr: {err}");
                assert!(
                    err.contains("--resume"),
                    "checkpoint must print the resume hint: {err}"
                );
            }
        }
    }

    // Final resume: runs to completion and byte-matches the golden.
    let mut args: Vec<&str> = journaled.iter().map(String::as_str).collect();
    args.push("--resume");
    let fin = run_to_completion(&args);
    let fin_out = String::from_utf8_lossy(&fin.stdout);
    assert_eq!(
        fin.status.code(),
        golden.status.code(),
        "resumed exit code differs; stderr: {}",
        String::from_utf8_lossy(&fin.stderr)
    );
    assert_eq!(
        fin_out, golden_out,
        "resumed fuzz report must be byte-identical to the uninterrupted run"
    );

    // And a warm re-resume of the *finished* campaign is also identical.
    let again = run_to_completion(&args);
    assert_eq!(String::from_utf8_lossy(&again.stdout), golden_out);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Reap the child on scope exit so a failing assertion never leaks a
/// live server process past the test run.
struct KillOnDrop(Child);

impl Drop for KillOnDrop {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Boot `regmutex-cli serve` on an ephemeral port and parse the bound
/// address from its banner line.
fn spawn_worker() -> (KillOnDrop, String) {
    let mut child = cli()
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn regmutex-cli serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut lines = BufReader::new(stdout).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve prints its banner before exiting")
            .expect("readable stdout");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .expect("address after the scheme")
                .to_string();
        }
    };
    std::thread::spawn(move || for _ in lines {});
    (KillOnDrop(child), addr)
}

#[test]
fn fleet_sweep_survives_coordinator_sigkills_byte_identically() {
    use regmutex_bench::{figures, JobExecutor, JobSource, Runner};

    // The golden is the local sweep: the fleet determinism contract says
    // the coordinator output is byte-identical to it at any worker count.
    let source = figures::by_name("fig07_occupancy_boost").expect("fig07 is a figure");
    let jobs = source.jobs();
    let t0 = Instant::now();
    let local = Runner::new(2).execute(&jobs).expect("local run");
    let golden_wall = t0.elapsed();
    let (golden_out, golden_code) = source.render(&jobs, &local);
    assert_eq!(golden_code, 0, "local fig07 must be clean:\n{golden_out}");

    let (_w1, addr1) = spawn_worker();
    let (_w2, addr2) = spawn_worker();
    let workers = format!("{addr1},{addr2}");

    let dir = temp_dir("fleet");
    let dir_s = dir.to_string_lossy().into_owned();
    let base = [
        "coordinator",
        "--workers",
        workers.as_str(),
        "--threads",
        "4",
        "--journal",
        dir_s.as_str(),
    ];

    // The coordinator process dies three times; the workers live on, so
    // each resume finds their caches warm *and* the journal's cursor.
    let mut rng = clock_rng("fleet");
    for round in 0..3 {
        let mut args: Vec<&str> = base.to_vec();
        if round > 0 {
            args.push("--resume");
        }
        let out = run_and_signal(&args, "-KILL", kill_delay(&mut rng, golden_wall));
        if out.status.success() {
            assert_eq!(
                String::from_utf8_lossy(&out.stdout),
                golden_out,
                "a completed round must match the golden run"
            );
            break;
        }
    }

    let mut args: Vec<&str> = base.to_vec();
    args.push("--resume");
    let fin = run_to_completion(&args);
    assert_eq!(
        fin.status.code(),
        Some(0),
        "final resume must complete; stderr: {}",
        String::from_utf8_lossy(&fin.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&fin.stdout),
        golden_out,
        "resumed fleet sweep must be byte-identical to the local golden"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every campaign verb refuses `--resume` against another campaign's
/// journal before doing any work: exit code 1 and one message, quoting
/// both meta lines (`meta kind=…`) whole.
#[test]
fn every_verb_refuses_a_mismatched_resume_with_one_message() {
    let chaos = "chaos technique=regmutex seeds=N watchdog=- stall=- matrix=11 \
                 workloads=Gaussian";
    let fuzz = "fuzz seed=N start=0 iters=600 budget=400000 esc=8 fault=- \
                minimize=1 mintests=12000 maxdiv=5";
    let cases: [(&[&str], String, String); 4] = [
        (
            &["sweep", "BFS"],
            "sweep app=SAD".into(),
            "sweep app=BFS".into(),
        ),
        (
            &["chaos", "Gaussian", "--seeds", "2"],
            chaos.replace('N', "1"),
            chaos.replace('N', "2"),
        ),
        (
            &["fuzz", "--seed", "0xc1", "--iters", "600"],
            fuzz.replace('N', "0xc2"),
            fuzz.replace('N', "0xc1"),
        ),
        (
            &["coordinator", "--workers", "127.0.0.1:1"],
            "fleet fig07 budget=5000".into(),
            "fleet fig07 budget=-".into(),
        ),
    ];
    for (n, (args, journaled, invocation)) in cases.iter().enumerate() {
        let dir = temp_dir(&format!("mismatch-{n}"));
        let mut journal = regmutex_durable::Journal::create(&dir.join("journal.log")).unwrap();
        journal.append(&format!("meta kind={journaled}"));
        journal.sync();
        let out = cli()
            .args(*args)
            .arg("--journal")
            .arg(&dir)
            .arg("--resume")
            .output()
            .expect("spawn regmutex-cli");
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!(
                "error: journal campaign mismatch: journal has `meta kind={journaled}`, \
                 this invocation is `meta kind={invocation}`; refusing to resume\n"
            ),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
