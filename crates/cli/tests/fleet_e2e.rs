//! End-to-end fleet test against *real* `regmutex-cli serve` processes.
//!
//! Three "workers" join the fleet: a real server that gets SIGKILLed
//! mid-sweep, a hung socket that accepts connections and never replies
//! (a worker wedged hard enough that even its TCP stack still answers),
//! and one healthy real server. The coordinator must ride out both —
//! the merged sweep output byte-identical to a local single-process
//! run, with zero lost jobs.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use regmutex_bench::{figures, JobExecutor, JobSource, Runner};
use regmutex_fleet::{BackoffPolicy, Coordinator, FleetConfig};

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
    let mut child = Command::new(env!("CARGO_BIN_EXE_regmutex-cli"))
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
    // Keep draining stdout so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (KillOnDrop(child), addr)
}

/// A socket that accepts and then never replies — connections neither
/// progress nor fail, so only the client's deadline can save it.
fn hung_socket() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind hung socket");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for conn in listener.incoming() {
            match conn {
                Ok(s) => held.push(s),
                Err(_) => break,
            }
        }
    });
    addr
}

#[test]
fn fleet_survives_sigkill_and_hung_socket_with_byte_identical_output() {
    let source = figures::by_name("fig07_occupancy_boost").expect("fig07 is a figure");
    let jobs = source.jobs();
    let local = Runner::new(2).execute(&jobs).expect("local run");
    let (local_text, local_code) = source.render(&jobs, &local);
    assert_eq!(local_code, 0, "local fig07 must be clean:\n{local_text}");

    let (victim, victim_addr) = spawn_worker();
    let (_healthy, healthy_addr) = spawn_worker();
    let hung_addr = hung_socket();

    let coordinator = Coordinator::new(FleetConfig {
        workers: vec![victim_addr, hung_addr, healthy_addr],
        dispatch_threads: 4,
        max_attempts: 4,
        failure_threshold: 2,
        deadline_base: Duration::from_millis(500),
        deadline_cap: Duration::from_secs(3),
        backoff: BackoffPolicy {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
        },
        probe_interval: Duration::from_millis(100),
        probe_timeout: Duration::from_millis(200),
        ..FleetConfig::default()
    })
    .expect("non-empty fleet");

    // SIGKILL the victim mid-sweep: some of its jobs may already have
    // completed, the rest must be re-dispatched. `kill -9` by pid keeps
    // the Child reapable by the KillOnDrop guard afterwards.
    let victim_pid = victim.0.id();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let _ = Command::new("kill")
            .args(["-9", &victim_pid.to_string()])
            .status();
    });

    let results = coordinator.execute(&jobs).expect("fleet run");
    killer.join().expect("killer thread");

    let (fleet_text, fleet_code) = source.render(&jobs, &results);
    assert_eq!(
        fleet_code, 0,
        "no give-ups despite SIGKILL + hung socket:\n{fleet_text}"
    );
    assert_eq!(
        fleet_text, local_text,
        "fleet output must be byte-identical to the local run"
    );

    use std::sync::atomic::Ordering::Relaxed;
    let m = coordinator.metrics();
    assert_eq!(m.gave_up.load(Relaxed), 0, "zero lost jobs");
    assert!(
        m.worker_faults.load(Relaxed) > 0,
        "the hung socket and the SIGKILL must both have registered"
    );
    assert!(m.redispatches.load(Relaxed) > 0);
    assert!(
        coordinator.workers()[1].is_quarantined(),
        "the hung socket should be quarantined by its strike count"
    );
}
