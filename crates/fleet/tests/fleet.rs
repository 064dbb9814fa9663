//! Fleet integration tests against live in-process workers: the
//! determinism contract (fleet output is byte-identical to local output
//! at any worker count), failover past dead workers, and a miniature
//! chaos campaign.

use std::time::Duration;

use regmutex_bench::{Fig07Source, JobExecutor, JobSource, Runner};
use regmutex_fleet::{
    run_fleet_campaign, BackoffPolicy, Coordinator, FaultKind, FleetCampaignSpec, FleetConfig,
};
use regmutex_server::{run_loadgen, Direct, LoadgenConfig, Server, ServerConfig};

fn start_worker() -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        sim_workers: 2,
        ..ServerConfig::default()
    })
    .expect("worker boots on an ephemeral port")
}

fn fleet_over(addrs: Vec<String>) -> Coordinator {
    Coordinator::new(FleetConfig {
        workers: addrs,
        dispatch_threads: 4,
        backoff: BackoffPolicy {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(50),
        },
        ..FleetConfig::default()
    })
    .expect("non-empty fleet")
}

#[test]
fn fleet_fig07_is_byte_identical_to_local_at_one_two_and_three_workers() {
    let source = Fig07Source;
    let jobs = source.jobs();
    let local = Runner::new(2).execute(&jobs).expect("local run");
    let (local_text, local_code) = source.render(&jobs, &local);
    assert_eq!(local_code, 0, "local fig07 must be clean:\n{local_text}");

    let workers: Vec<Server> = (0..3).map(|_| start_worker()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    for n in 1..=3 {
        let coordinator = fleet_over(addrs[..n].to_vec());
        let results = coordinator.execute(&jobs).expect("fleet run");
        let (fleet_text, fleet_code) = source.render(&jobs, &results);
        assert_eq!(
            fleet_code, 0,
            "{n}-worker fleet must be clean:\n{fleet_text}"
        );
        assert_eq!(
            fleet_text, local_text,
            "{n}-worker fleet output must be byte-identical to local"
        );
        // Nothing was lost or silently replaced along the way.
        assert_eq!(
            coordinator
                .metrics()
                .gave_up
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
    }
    // Re-running against the warm fleet hits worker caches (cache
    // affinity via consistent hashing) and still matches.
    let coordinator = fleet_over(addrs.clone());
    let results = coordinator.execute(&jobs).expect("warm fleet run");
    let (warm_text, _) = source.render(&jobs, &results);
    assert_eq!(warm_text, local_text);
    assert!(
        coordinator
            .metrics()
            .jobs_cached
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "warm re-run should be served from worker caches"
    );
    for w in workers {
        w.shutdown_and_wait();
    }
}

#[test]
fn fleet_fails_over_dead_workers_without_losing_jobs() {
    // Worker 0 is a dead address (bound, then dropped — connections are
    // refused). Every job primary-routed there must fail over to the
    // live worker and the sweep must still be byte-identical to local.
    let dead_addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let live = start_worker();
    let source = Fig07Source;
    let jobs = source.jobs();
    let local = Runner::new(2).execute(&jobs).expect("local run");
    let (local_text, _) = source.render(&jobs, &local);

    let coordinator = Coordinator::new(FleetConfig {
        workers: vec![dead_addr, live.local_addr().to_string()],
        dispatch_threads: 4,
        max_attempts: 3,
        failure_threshold: 2,
        backoff: BackoffPolicy {
            base: Duration::from_millis(2),
            cap: Duration::from_millis(20),
        },
        deadline_base: Duration::from_millis(500),
        ..FleetConfig::default()
    })
    .unwrap();
    let results = coordinator.execute(&jobs).expect("fleet run");
    let (fleet_text, code) = source.render(&jobs, &results);
    assert_eq!(code, 0, "no give-ups despite a dead worker:\n{fleet_text}");
    assert_eq!(fleet_text, local_text);
    let m = coordinator.metrics();
    use std::sync::atomic::Ordering::Relaxed;
    assert!(
        m.worker_faults.load(Relaxed) > 0,
        "with 32 vnodes some primaries must land on the dead worker"
    );
    assert!(m.redispatches.load(Relaxed) > 0);
    assert!(
        coordinator.workers()[0].is_quarantined(),
        "the dead worker should be quarantined by its strike count"
    );
    // The aggregated metrics render sees one worker down, one up.
    let text = coordinator.render_metrics();
    assert!(
        text.contains(&format!(
            "regmutex_fleet_worker_up{{worker=\"{}\"}} 1",
            live.local_addr()
        )),
        "{text}"
    );
    assert!(text.contains("regmutex_fleet_worker_quarantined"), "{text}");
    live.shutdown_and_wait();
}

#[test]
fn mini_chaos_campaign_loses_nothing() {
    // The full matrix runs in `regmutex-cli chaos-fleet`; here a fast
    // slice proves the engine end-to-end: a corrupting worker and a
    // vanishing worker, zero lost, zero silently wrong.
    let spec = FleetCampaignSpec {
        seeds: vec![1, 2],
        app_sets: vec![vec!["BFS".into(), "SPMV".into()]],
        faults: vec![FaultKind::Corrupt, FaultKind::KillWorker],
        cycle_budget: Some(100_000),
        trigger_after: 0,
        sim_workers: 1,
    };
    let report = run_fleet_campaign(&spec).expect("campaign runs");
    assert_eq!(report.scenarios.len(), 4);
    let (text, code) = report.render();
    assert_eq!(code, 0, "{text}");
    assert_eq!(report.lost_total(), 0, "{text}");
    assert_eq!(report.wrong_total(), 0, "{text}");
    // The fault engaged in every scenario: trigger_after 0 faults every
    // proxied connection, and the campaign places the proxy on the
    // worker index that owns the majority of primary routes.
    assert!(
        report.scenarios.iter().all(|s| s.worker_faults > 0),
        "{text}"
    );
}

#[test]
fn fleet_loadgen_reports_per_worker_breakdown() {
    let workers: Vec<Server> = (0..2).map(|_| start_worker()).collect();
    let addrs: Vec<String> = workers.iter().map(|w| w.local_addr().to_string()).collect();
    let coordinator = fleet_over(addrs);
    let report = run_loadgen(
        &LoadgenConfig {
            threads: 3,
            requests: 6,
            seed: 11,
            apps: vec!["Gaussian".into(), "SPMV".into()],
            cycle_budget: Some(100_000),
            ..LoadgenConfig::default()
        },
        &coordinator,
    )
    .expect("fleet loadgen runs");
    assert_eq!(report.total, 18);
    assert!(report.nothing_dropped(), "{report:?}");
    assert_eq!(report.rejected, 0, "{report:?}");
    assert_eq!(report.ok, 18, "{report:?}");
    // ≤4 distinct specs over 18 requests: worker caches absorb repeats.
    assert!(report.cached > 0, "{report:?}");
    assert_eq!(report.workers.len(), 2);
    // Every ok request names the worker that served it.
    assert_eq!(report.served.len(), 18);
    let text = report.render();
    assert!(text.contains("worker"), "{text}");
    for w in workers {
        w.shutdown_and_wait();
    }
}

/// The direct and the coordinator targets sample one request stream: a
/// seed names the same (app, technique) sequence through either, so two
/// fresh single workers see the same cache hits.
#[test]
fn direct_and_coordinator_loadgen_share_one_request_stream() {
    let direct_worker = start_worker();
    let fleet_worker = start_worker();
    // One config for both: the coordinator target ignores `addr`.
    let cfg = LoadgenConfig {
        addr: direct_worker.local_addr().to_string(),
        threads: 1,
        requests: 6,
        seed: 7,
        apps: vec!["Gaussian".into(), "SPMV".into()],
        ..LoadgenConfig::default()
    };
    let direct = run_loadgen(&cfg, &Direct(&cfg)).expect("direct loadgen runs");
    let coordinator = fleet_over(vec![fleet_worker.local_addr().to_string()]);
    let via = run_loadgen(&cfg, &coordinator).expect("fleet loadgen runs");
    assert_eq!((direct.ok, via.ok), (6, 6), "{direct:?}\n{via:?}");
    assert_eq!(direct.cached, via.cached, "{direct:?}\n{via:?}");
    // Seed 7 draws two distinct specs in six requests.
    assert_eq!(direct.cached, 4, "{direct:?}");
    direct_worker.shutdown_and_wait();
    fleet_worker.shutdown_and_wait();
}

#[test]
fn fuzz_fanout_matches_local_campaign_and_fails_over_dead_workers() {
    use regmutex_fleet::{run_fuzz_fanout, FuzzFanoutConfig};

    let w1 = start_worker();
    let w2 = start_worker();
    let cfg = FuzzFanoutConfig {
        workers: vec![
            // A dead address first: every shard homed there must fail over.
            "127.0.0.1:1".to_string(),
            w1.local_addr().to_string(),
            w2.local_addr().to_string(),
        ],
        seed: 0xfee1,
        iters: 24,
        max_attempts: 3,
        timeout: Duration::from_secs(120),
        ..FuzzFanoutConfig::default()
    };
    let report = run_fuzz_fanout(&cfg).expect("fan-out completes despite the dead worker");
    assert_eq!(report.kernels, 24);
    assert_eq!(report.divergences, 0);

    // The merged counters equal a local campaign over the same range.
    let local = regmutex_fuzz::run_campaign(
        &regmutex_fuzz::CampaignConfig {
            seed: 0xfee1,
            iters: 24,
            ..regmutex_fuzz::CampaignConfig::default()
        },
        &Runner::new(2),
    );
    assert_eq!(report.kernels, local.stats.kernels);
    assert_eq!(report.agreements, local.stats.agreements);
    assert_eq!(report.escalations, local.stats.escalations);

    let (text, code) = report.render(&cfg.workers);
    assert_eq!(code, 0, "{text}");
    assert!(text.contains("verdict: CLEAN"));

    w1.shutdown_and_wait();
    w2.shutdown_and_wait();
}
