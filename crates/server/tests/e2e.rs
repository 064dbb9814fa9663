//! End-to-end tests: a real server on an ephemeral port, driven over real
//! sockets — the same path `regmutex-cli serve` exercises.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use regmutex_server::http::{client_request, ClientResponse, HttpClient, Limits};
use regmutex_server::json::{self, Json};
use regmutex_server::{run_loadgen, Direct, LoadgenConfig, Server, ServerConfig};

fn start(workers: usize, queue: usize) -> Server {
    start_with(workers, queue, Limits::default())
}

fn start_with(workers: usize, queue: usize, limits: Limits) -> Server {
    Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        sim_workers: workers,
        queue_capacity: queue,
        limits,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

fn call(server: &Server, method: &str, path: &str, body: Option<&str>) -> ClientResponse {
    client_request(
        server.local_addr(),
        method,
        path,
        body.map(str::as_bytes),
        Duration::from_secs(120),
    )
    .expect("request completes")
}

fn body_json(resp: &ClientResponse) -> Json {
    json::parse(core::str::from_utf8(&resp.body).expect("UTF-8 body")).expect("JSON body")
}

/// Grid size for requests that must still be simulating while a test polls
/// `/metrics` and sends more requests: far above every workload's default
/// grid, so the job lasts long after the poll first sees it in flight.
const SLOW_CTAS: u32 = 2000;

/// Poll `/metrics` until `line` appears (gauge transitions are racy to
/// observe exactly once; polling makes the tests deterministic).
fn wait_for_metric(server: &Server, line: &str) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let resp = call(server, "GET", "/metrics", None);
        let text = String::from_utf8_lossy(&resp.body).to_string();
        if text.lines().any(|l| l == line) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for metric line {line:?};\n{text}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn health_workloads_run_and_cache_roundtrip() {
    let server = start(1, 8);

    let health = call(&server, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    assert_eq!(
        body_json(&health).get("status").and_then(Json::as_str),
        Some("ok")
    );

    let workloads = call(&server, "GET", "/v1/workloads", None);
    assert_eq!(workloads.status, 200);
    assert_eq!(body_json(&workloads).as_arr().unwrap().len(), 16);

    let req = r#"{"app":"Gaussian","technique":"baseline"}"#;
    let cold = call(&server, "POST", "/v1/run", Some(req));
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    let cold_json = body_json(&cold);
    assert_eq!(cold_json.get("cached").and_then(Json::as_bool), Some(false));
    let cold_checksum = cold_json
        .get("checksum")
        .and_then(Json::as_str)
        .expect("checksum present")
        .to_string();
    assert!(cold_checksum.starts_with("0x"), "{cold_checksum}");

    let warm = call(&server, "POST", "/v1/run", Some(req));
    assert_eq!(warm.status, 200);
    let warm_json = body_json(&warm);
    assert_eq!(warm_json.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        warm_json.get("checksum").and_then(Json::as_str),
        Some(cold_checksum.as_str()),
        "cache must return the identical result"
    );

    server.shutdown_and_wait();
}

#[test]
fn structured_errors_not_panics() {
    let server = start(1, 8);

    // Unknown workload and unknown technique: 400 with an `error` field.
    for bad in [
        r#"{"app":"NoSuchApp"}"#,
        r#"{"app":"Gaussian","technique":"warpdrive"}"#,
        r#"{"app":"Gaussian","bogus_field":1}"#,
        r#"this is not json"#,
        r#""#,
    ] {
        let resp = call(&server, "POST", "/v1/run", Some(bad));
        assert_eq!(resp.status, 400, "{bad}");
        assert!(
            body_json(&resp)
                .get("error")
                .and_then(Json::as_str)
                .is_some(),
            "{bad}"
        );
    }

    // A cycle budget too small to finish: the watchdog converts it into a
    // structured simulation error (422), not a hang.
    let resp = call(
        &server,
        "POST",
        "/v1/run",
        Some(r#"{"app":"Gaussian","technique":"baseline","cycle_budget":10}"#),
    );
    assert_eq!(resp.status, 422, "{}", String::from_utf8_lossy(&resp.body));

    // Unknown route and bad method.
    assert_eq!(call(&server, "GET", "/v1/nope", None).status, 404);
    assert_eq!(call(&server, "PUT", "/v1/run", Some("{}")).status, 405);

    // The server is still healthy after all of that.
    assert_eq!(call(&server, "GET", "/healthz", None).status, 200);
    server.shutdown_and_wait();
}

#[test]
fn sweep_reports_baseline_relative_rows() {
    let server = start(1, 8);
    let resp = call(
        &server,
        "POST",
        "/v1/sweep",
        Some(r#"{"app":"Gaussian","es":[2,4]}"#),
    );
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let v = body_json(&resp);
    assert!(
        v.get("baseline")
            .and_then(|b| b.get("cycles"))
            .and_then(Json::as_u64)
            .unwrap()
            > 0
    );
    let rows = v.get("rows").and_then(Json::as_arr).unwrap();
    assert_eq!(rows.len(), 2);
    for row in rows {
        assert!(row.get("es").and_then(Json::as_u64).is_some());
        assert!(
            row.get("cycles").is_some() || row.get("error").is_some(),
            "row must either simulate or carry a structured error"
        );
    }
    server.shutdown_and_wait();
}

#[test]
fn full_queue_answers_429_with_retry_after() {
    // One worker, one queue slot: occupy the worker, fill the slot, then
    // the third job must be refused with backpressure. The jobs are slow by
    // construction (a large grid), so the worker is still busy when the
    // `/metrics` polls and the third request arrive.
    let server = start(1, 1);
    let addr = server.local_addr();

    let slow = |app: &'static str| {
        std::thread::spawn(move || {
            client_request(
                addr,
                "POST",
                "/v1/run",
                Some(
                    format!(r#"{{"app":"{app}","technique":"regmutex","ctas":{SLOW_CTAS}}}"#)
                        .as_bytes(),
                ),
                Duration::from_secs(120),
            )
            .expect("slow job completes")
        })
    };

    let a = slow("SPMV");
    wait_for_metric(&server, "regmutex_inflight_jobs 1");
    let b = slow("MRI-Q");
    wait_for_metric(&server, "regmutex_queue_depth 1");

    let refused = call(
        &server,
        "POST",
        "/v1/run",
        Some(r#"{"app":"Gaussian","technique":"baseline"}"#),
    );
    assert_eq!(refused.status, 429);
    assert_eq!(refused.header("retry-after"), Some("1"));
    assert!(body_json(&refused).get("error").is_some());

    // Nothing admitted was lost: both slow jobs still answer 200.
    assert_eq!(a.join().unwrap().status, 200);
    assert_eq!(b.join().unwrap().status, 200);
    server.shutdown_and_wait();
}

#[test]
fn graceful_shutdown_drains_inflight_work() {
    let server = start(1, 4);
    let addr = server.local_addr();

    // Park a real job in flight (slow by construction), then begin the
    // drain.
    let inflight = std::thread::spawn(move || {
        client_request(
            addr,
            "POST",
            "/v1/run",
            Some(
                format!(r#"{{"app":"BFS","technique":"baseline","ctas":{SLOW_CTAS}}}"#).as_bytes(),
            ),
            Duration::from_secs(120),
        )
        .expect("in-flight job survives the drain")
    });
    wait_for_metric(&server, "regmutex_inflight_jobs 1");

    let resp = call(&server, "POST", "/v1/shutdown", None);
    assert_eq!(resp.status, 200);

    let health = call(&server, "GET", "/healthz", None);
    assert_eq!(
        body_json(&health).get("status").and_then(Json::as_str),
        Some("draining")
    );

    // New work is refused while draining…
    let refused = call(
        &server,
        "POST",
        "/v1/run",
        Some(r#"{"app":"Gaussian","technique":"baseline"}"#),
    );
    assert_eq!(refused.status, 503);

    // …but the admitted job completes with a full response.
    server.shutdown_and_wait();
    assert_eq!(inflight.join().unwrap().status, 200);
}

#[test]
fn loadgen_closed_loop_drops_nothing_and_hits_cache() {
    let server = start(2, 16);
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        threads: 3,
        requests: 8,
        seed: 7,
        timeout: Duration::from_secs(120),
        apps: vec!["Gaussian".into(), "SPMV".into()],
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg, &Direct(&cfg)).expect("loadgen runs");

    assert_eq!(report.total, 24);
    assert!(report.nothing_dropped(), "{report:?}");
    assert_eq!(report.failed, 0, "{report:?}");
    assert!(report.ok > 0, "{report:?}");
    // ≤ 4 distinct (app, technique) specs over 24 requests: the shared
    // cache must absorb the repeats.
    assert!(
        report.cache_hit_rate() > 0.5,
        "hit rate {:.2} too low: {report:?}",
        report.cache_hit_rate()
    );
    server.shutdown_and_wait();
}

#[test]
fn loadgen_cycle_budget_rides_on_every_request() {
    // A budget too small to finish turns every run into a 422: the
    // budget reached the server on each request.
    let server = start(1, 8);
    let cfg = LoadgenConfig {
        addr: server.local_addr().to_string(),
        threads: 2,
        requests: 3,
        apps: vec!["Gaussian".into()],
        cycle_budget: Some(10),
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&cfg, &Direct(&cfg)).expect("loadgen runs");
    assert_eq!((report.failed, report.ok), (6, 0), "{report:?}");
    assert!(report.nothing_dropped(), "{report:?}");
    server.shutdown_and_wait();
}

/// Byte-level hostile input: raw socket writes that must yield structured
/// 4xx responses (or a clean close) — never a hang or a crash.
#[test]
fn bad_request_corpus_never_hangs() {
    let limits = Limits {
        read_timeout: Duration::from_millis(200),
        ..Limits::default()
    };
    let server = start_with(1, 4, limits);
    let addr = server.local_addr();

    let exchange = |raw: &[u8]| -> String {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(raw).expect("write");
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out).to_string()
    };

    let status_of = |reply: &str| -> Option<u16> {
        reply
            .strip_prefix("HTTP/1.1 ")
            .and_then(|r| r.get(..3))
            .and_then(|s| s.parse().ok())
    };

    // (raw bytes, expected status; None = clean close acceptable)
    let corpus: Vec<(Vec<u8>, Option<u16>)> = vec![
        (b"\r\n\r\n".to_vec(), Some(400)),
        (b"GARBAGE\r\n\r\n".to_vec(), Some(400)),
        (b"GET\r\n\r\n".to_vec(), Some(400)),
        (b"GET /healthz HTTP/9.9\r\n\r\n".to_vec(), Some(400)),
        (b"GET http://x/ HTTP/1.1\r\n\r\n".to_vec(), Some(400)),
        (
            b"POST /v1/run HTTP/1.1\r\ncontent-length: nope\r\n\r\n".to_vec(),
            Some(400),
        ),
        (
            b"POST /v1/run HTTP/1.1\r\ncontent-length: -5\r\n\r\n".to_vec(),
            Some(400),
        ),
        (
            b"POST /v1/run HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
            Some(400),
        ),
        (
            b"GET /healthz HTTP/1.1\r\nbad header no colon\r\n\r\n".to_vec(),
            Some(400),
        ),
        (
            b"POST /v1/run HTTP/1.1\r\ncontent-length: 99999999\r\n\r\n".to_vec(),
            Some(413),
        ),
        (
            {
                // Head larger than the 8 KiB cap.
                let mut raw = b"GET /healthz HTTP/1.1\r\n".to_vec();
                for i in 0..600 {
                    raw.extend_from_slice(format!("x-filler-{i}: aaaaaaaaaaaaaaaa\r\n").as_bytes());
                }
                raw.extend_from_slice(b"\r\n");
                raw
            },
            Some(413),
        ),
        // Binary junk never completes a head: timeout, not a hang.
        (vec![0xff, 0xfe, 0x00, 0x01, 0x02], Some(408)),
        // Slow loris: an unfinished head must time out (408), not hang.
        (b"GET /healthz HTTP/1.1\r\nx-partial: ".to_vec(), Some(408)),
        // Declared body never sent: read timeout again.
        (
            b"POST /v1/run HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc".to_vec(),
            Some(408),
        ),
    ];

    for (raw, expected) in &corpus {
        let reply = exchange(raw);
        let got = status_of(&reply);
        if let Some(want) = expected {
            assert_eq!(
                got,
                Some(*want),
                "raw {:?} → reply {:?}",
                String::from_utf8_lossy(raw),
                reply
            );
        }
    }

    // After the whole corpus the server still serves real traffic.
    let health = call(&server, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    server.shutdown_and_wait();
}

#[test]
fn fuzz_endpoint_runs_a_shard_and_validates_input() {
    let server = start(1, 8);

    // Missing/invalid fields: structured 400s.
    for bad in [
        r#"{"count":5}"#,
        r#"{"seed":1}"#,
        r#"{"seed":1,"count":0}"#,
        r#"{"seed":1,"count":200000}"#,
        r#"{"seed":"zz","count":5}"#,
    ] {
        let resp = call(&server, "POST", "/v1/fuzz", Some(bad));
        assert_eq!(resp.status, 400, "{bad}");
        assert!(body_json(&resp).get("error").is_some(), "{bad}");
    }

    // No silent defaults: a wrongly typed optional field, an unknown field
    // and an un-prefixed hex string are each refused, naming the field.
    for (bad, field) in [
        (
            r#"{"seed":1,"count":4,"cycle_budget":"lots"}"#,
            "cycle_budget",
        ),
        (r#"{"seed":1,"count":4,"cycle_budget":-1}"#, "cycle_budget"),
        (r#"{"seed":1,"count":4,"minimize":"no"}"#, "minimize"),
        (
            r#"{"seed":1,"count":4,"max_divergences":true}"#,
            "max_divergences",
        ),
        (r#"{"seed":1,"count":4,"progress":1}"#, "progress"),
        (r#"{"seed":1,"count":4,"minimise":false}"#, "minimise"),
        (r#"{"seed":"10","count":4}"#, "seed"),
        (r#"{"seed":1,"count":4,"start":"3"}"#, "start"),
        (r#"{"seed":1,"count":4,"minimize":null}"#, "minimize"),
        // A range past 2^64 would leave the streamed shard nothing to
        // run and nowhere to stop; a cap of 0 would run no kernel.
        (
            r#"{"seed":1,"start":"0xffffffffffffffff","count":1,"progress":true}"#,
            "start",
        ),
        (
            r#"{"seed":1,"count":4,"max_divergences":0}"#,
            "max_divergences",
        ),
    ] {
        let resp = call(&server, "POST", "/v1/fuzz", Some(bad));
        assert_eq!(resp.status, 400, "{bad}");
        let error = body_json(&resp)
            .get("error")
            .and_then(Json::as_str)
            .map(str::to_string);
        assert!(
            error
                .as_deref()
                .is_some_and(|e| e.contains(&format!("'{field}'"))),
            "{bad}: {error:?}"
        );
    }

    // `/v1/sweep` holds its `stream` flag to the same rule, and refuses
    // the run fields it would otherwise drop: it picks each row's
    // technique and |Es| itself, and a lease belongs to one `/v1/run`.
    for (bad, field) in [
        (r#"{"app":"Gaussian","es":[2],"stream":"no"}"#, "stream"),
        (r#"{"app":"Gaussian","es":[2],"stream":null}"#, "stream"),
        (
            r#"{"app":"Gaussian","es":[2],"technique":"owf"}"#,
            "technique",
        ),
        (r#"{"app":"Gaussian","es":[2],"force_es":4}"#, "force_es"),
        (r#"{"app":"Gaussian","es":[2],"lease":7}"#, "lease"),
    ] {
        let resp = call(&server, "POST", "/v1/sweep", Some(bad));
        assert_eq!(resp.status, 400, "{bad}");
        let error = body_json(&resp)
            .get("error")
            .and_then(Json::as_str)
            .map(str::to_string);
        assert!(
            error
                .as_deref()
                .is_some_and(|e| e.contains(&format!("'{field}'"))),
            "{bad}: {error:?}"
        );
    }

    // A tiny shard completes and reports campaign stats.
    let resp = call(
        &server,
        "POST",
        "/v1/fuzz",
        Some(r#"{"seed":"0xfeed","start":3,"count":4}"#),
    );
    assert_eq!(
        resp.status,
        200,
        "{:?}",
        String::from_utf8_lossy(&resp.body)
    );
    let body = body_json(&resp);
    assert_eq!(body.get("kernels").and_then(Json::as_u64), Some(4));
    assert_eq!(body.get("start").and_then(Json::as_u64), Some(3));
    assert_eq!(body.get("divergences").and_then(Json::as_u64), Some(0));
    assert!(body.get("elapsed_ms").is_some());

    server.shutdown_and_wait();
}

#[test]
fn keep_alive_reuses_one_connection_across_requests() {
    let server = start(1, 8);
    let mut client = HttpClient::new(
        server.local_addr().to_string(),
        Duration::from_secs(120),
        true,
    );

    let run = r#"{"app":"Gaussian","technique":"baseline"}"#;
    for _ in 0..3 {
        let resp = client
            .request("POST", "/v1/run", Some(run.as_bytes()))
            .expect("run over keep-alive");
        assert_eq!(resp.status, 200);
    }
    for _ in 0..3 {
        let resp = client
            .request("GET", "/healthz", None)
            .expect("healthz over keep-alive");
        assert_eq!(resp.status, 200);
    }
    assert_eq!(client.connections_opened, 1, "all six requests, one socket");
    assert_eq!(client.conn_request_counts(), vec![6]);

    // Without keep-alive every request opens its own connection.
    let mut oneshot = HttpClient::new(
        server.local_addr().to_string(),
        Duration::from_secs(120),
        false,
    );
    for _ in 0..2 {
        assert_eq!(
            oneshot.request("GET", "/healthz", None).unwrap().status,
            200
        );
    }
    assert_eq!(oneshot.connections_opened, 2);
    assert_eq!(oneshot.conn_request_counts(), vec![1, 1]);

    server.shutdown_and_wait();
}

#[test]
fn pipelined_requests_answer_in_order() {
    let server = start(1, 8);
    let mut s = TcpStream::connect(server.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();

    // Three requests in one write; the middle one is distinguishable by
    // status so reordering can't go unnoticed.
    let batch = b"GET /healthz HTTP/1.1\r\n\r\n\
                  GET /v1/nope HTTP/1.1\r\n\r\n\
                  GET /v1/workloads HTTP/1.1\r\nconnection: close\r\n\r\n";
    s.write_all(batch).expect("pipelined write");
    let mut out = Vec::new();
    s.read_to_end(&mut out).expect("read all responses");
    let reply = String::from_utf8_lossy(&out);

    let statuses: Vec<&str> = reply
        .match_indices("HTTP/1.1 ")
        .map(|(i, _)| &reply[i + 9..i + 12])
        .collect();
    assert_eq!(statuses, vec!["200", "404", "200"], "{reply}");
    server.shutdown_and_wait();
}

#[test]
fn pipelining_deeper_than_the_server_window_still_answers_everything() {
    // A burst deeper than max_pipeline (8) parks the excess bytes in the
    // connection's read buffer with no further EPOLLIN coming (the peer
    // is waiting on these very responses) — the loop must re-parse as
    // the window drains, and must not 408 the parked complete requests.
    let server = start(1, 8);
    let mut client = HttpClient::new(
        server.local_addr().to_string(),
        Duration::from_secs(30),
        true,
    );
    let body = br#"{"app":"Gaussian","technique":"baseline"}"# as &[u8];
    assert_eq!(
        client
            .request("POST", "/v1/run", Some(body))
            .unwrap()
            .status,
        200
    );

    let batch: Vec<&[u8]> = vec![body; 32];
    let resps = client
        .request_batch("POST", "/v1/run", &batch)
        .expect("deep pipelined batch");
    assert_eq!(resps.len(), 32);
    assert!(resps.iter().all(|r| r.status == 200), "all 200s");
    assert_eq!(client.connections_opened, 1, "one connection throughout");
    server.shutdown_and_wait();
}

#[test]
fn streamed_sweep_concatenates_to_the_buffered_body() {
    let server = start(1, 8);
    let sweep = r#"{"app":"Gaussian","es":[2,4]}"#;

    // Warm every (app, es) result first so both passes below are fully
    // cached — otherwise the `cached` flags in the rows would differ.
    assert_eq!(call(&server, "POST", "/v1/sweep", Some(sweep)).status, 200);

    let streamed = call(&server, "POST", "/v1/sweep", Some(sweep));
    assert_eq!(streamed.status, 200);
    assert_eq!(streamed.header("transfer-encoding"), Some("chunked"));

    let buffered = call(
        &server,
        "POST",
        "/v1/sweep",
        Some(r#"{"app":"Gaussian","es":[2,4],"stream":false}"#),
    );
    assert_eq!(buffered.status, 200);
    assert_eq!(buffered.header("transfer-encoding"), None);

    assert_eq!(
        streamed.body, buffered.body,
        "chunked concatenation must be byte-identical to the buffered body"
    );
    // And the body is one valid sweep document.
    let v = body_json(&streamed);
    assert_eq!(
        v.get("rows").and_then(Json::as_arr).map(|r| r.len()),
        Some(2)
    );
    server.shutdown_and_wait();
}

/// Corpus extensions for the event loop: fragmented heads, pipelined
/// garbage, oversized chunk extensions, and dripped headers.
#[test]
fn fragmented_and_pipelined_hostile_input() {
    let limits = Limits {
        read_timeout: Duration::from_millis(300),
        ..Limits::default()
    };
    let server = start_with(1, 4, limits);
    let addr = server.local_addr();

    // A head split mid-header across packets parses once completed.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /healthz HTT").unwrap();
        s.flush().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(b"P/1.1\r\nx-split: mid-hea").unwrap();
        std::thread::sleep(Duration::from_millis(50));
        s.write_all(b"der\r\nconnection: close\r\n\r\n").unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        let reply = String::from_utf8_lossy(&out);
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    }

    // Garbage pipelined after a valid request: the valid one answers 200,
    // the garbage answers 400, then the connection closes.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(b"GET /healthz HTTP/1.1\r\n\r\nGARBAGE\r\n\r\n")
            .unwrap();
        let mut out = Vec::new();
        s.read_to_end(&mut out).unwrap();
        let reply = String::from_utf8_lossy(&out);
        let statuses: Vec<&str> = reply
            .match_indices("HTTP/1.1 ")
            .map(|(i, _)| &reply[i + 9..i + 12])
            .collect();
        assert_eq!(statuses, vec!["200", "400"], "{reply}");
    }

    // A chunked body with an oversized chunk extension: rejected with a
    // structured 400 (chunked request bodies are not accepted), no hang.
    {
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut raw = b"POST /v1/run HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0;".to_vec();
        raw.extend(std::iter::repeat_n(b'a', 4096));
        raw.extend_from_slice(b"\r\n\r\n");
        let _ = s.write_all(&raw);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let reply = String::from_utf8_lossy(&out);
        assert!(reply.starts_with("HTTP/1.1 400"), "{reply}");
    }

    // Slow-drip header bytes: each write arrives before a per-read
    // timeout would fire, but the *absolute* request deadline still does
    // — SO_RCVTIMEO could be reset forever, the timer wheel cannot.
    {
        let started = Instant::now();
        let mut s = TcpStream::connect(addr).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for chunk in [b"G", b"E", b"T", b" ", b"/", b"h", b"e", b"a"] {
            if s.write_all(chunk).is_err() {
                break; // server already answered 408 and closed
            }
            std::thread::sleep(Duration::from_millis(100));
        }
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        let reply = String::from_utf8_lossy(&out);
        assert!(reply.starts_with("HTTP/1.1 408"), "{reply}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "drip must be cut off by the deadline, not a long stall"
        );
    }

    // The server survives all of it.
    assert_eq!(call(&server, "GET", "/healthz", None).status, 200);
    server.shutdown_and_wait();
}

#[test]
fn per_client_token_bucket_throttles_with_retry_after() {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        sim_workers: 1,
        queue_capacity: 8,
        client_rate: 1.0,
        client_burst: 1.0,
        ..ServerConfig::default()
    })
    .expect("bind test server");

    let run = r#"{"app":"Gaussian","technique":"baseline"}"#;
    let first = call(&server, "POST", "/v1/run", Some(run));
    assert_eq!(first.status, 200, "burst allows the first request");

    let mut throttled = 0;
    for _ in 0..3 {
        let resp = call(&server, "POST", "/v1/run", Some(run));
        if resp.status == 429 {
            assert!(resp.header("retry-after").is_some());
            assert!(body_json(&resp).get("error").is_some());
            throttled += 1;
        }
    }
    assert!(throttled > 0, "same-client burst must hit the token bucket");

    // Health and metrics are never throttled, and the throttle is counted.
    let health = call(&server, "GET", "/healthz", None);
    assert_eq!(health.status, 200);
    let h = body_json(&health);
    assert!(h.get("throttled_total").and_then(Json::as_u64).unwrap() >= 1);
    server.shutdown_and_wait();
}

#[test]
fn drain_finishes_streamed_sweep_and_closes_idle_keepalive() {
    let server = start(1, 8);
    let addr = server.local_addr();

    // One idle keep-alive connection, already past its first exchange.
    let mut idle = TcpStream::connect(addr).expect("connect idle");
    idle.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    idle.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").unwrap();
    let mut first = vec![0u8; 4096];
    let n = idle.read(&mut first).expect("idle first response");
    assert!(n > 0);

    // One streamed sweep in flight (slow by construction) while the drain
    // begins.
    let streamer = std::thread::spawn(move || {
        client_request(
            addr,
            "POST",
            "/v1/sweep",
            Some(format!(r#"{{"app":"SPMV","es":[2,4,8],"ctas":{SLOW_CTAS}}}"#).as_bytes()),
            Duration::from_secs(120),
        )
        .expect("in-flight streamed sweep survives the drain")
    });
    wait_for_metric(&server, "regmutex_inflight_jobs 1");

    assert_eq!(call(&server, "POST", "/v1/shutdown", None).status, 200);
    server.shutdown_and_wait();

    // Every admitted sweep point was simulated and streamed back whole.
    let resp = streamer.join().unwrap();
    assert_eq!(resp.status, 200);
    let v = body_json(&resp);
    assert_eq!(
        v.get("rows").and_then(Json::as_arr).map(|r| r.len()),
        Some(3)
    );

    // The idle connection was closed promptly, not abandoned: the next
    // read sees EOF (or a reset), never a hang.
    let mut buf = [0u8; 64];
    match idle.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => {
            // Tolerate a final in-flight response fragment, then EOF.
            assert!(n <= buf.len());
            assert_eq!(idle.read(&mut buf).unwrap_or(0), 0, "EOF after drain");
        }
        Err(_) => {} // reset is an acceptable close
    }
}

#[test]
fn healthz_and_metrics_surface_the_connection_series() {
    let server = start(1, 8);

    // Generate a little of everything: runs over keep-alive + a stream.
    let mut client = HttpClient::new(
        server.local_addr().to_string(),
        Duration::from_secs(120),
        true,
    );
    let run = r#"{"app":"Gaussian","technique":"baseline"}"#;
    for _ in 0..2 {
        assert_eq!(
            client
                .request("POST", "/v1/run", Some(run.as_bytes()))
                .unwrap()
                .status,
            200
        );
    }
    let sweep = call(
        &server,
        "POST",
        "/v1/sweep",
        Some(r#"{"app":"Gaussian","es":[2]}"#),
    );
    assert_eq!(sweep.status, 200);

    let health = body_json(&call(&server, "GET", "/healthz", None));
    for key in [
        "active_connections",
        "pipeline_depth",
        "throttled_total",
        "streamed_rows_total",
    ] {
        assert!(health.get(key).and_then(Json::as_u64).is_some(), "{key}");
    }
    assert!(
        health
            .get("streamed_rows_total")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );

    let metrics = call(&server, "GET", "/metrics", None);
    let text = String::from_utf8_lossy(&metrics.body).to_string();
    for series in [
        "regmutex_http_connections_active",
        "regmutex_http_pipeline_depth",
        "regmutex_http_throttled_total",
        "regmutex_http_streamed_rows_total",
        "regmutex_http_requests_per_connection_bucket",
    ] {
        assert!(text.contains(series), "missing {series} in:\n{text}");
    }
    server.shutdown_and_wait();
}

#[test]
fn fuzz_progress_mode_streams_ndjson() {
    let server = start(1, 8);
    let resp = call(
        &server,
        "POST",
        "/v1/fuzz",
        Some(r#"{"seed":"0xfeed","count":4,"progress":true}"#),
    );
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));

    let text = core::str::from_utf8(&resp.body).expect("UTF-8 NDJSON");
    let lines: Vec<&str> = text.lines().filter(|l| !l.is_empty()).collect();
    assert!(lines.len() >= 2, "progress + final report: {text}");
    for line in &lines {
        json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e}"));
    }
    let progress = json::parse(lines[0]).unwrap();
    assert_eq!(
        progress.get("event").and_then(Json::as_str),
        Some("progress"),
        "{text}"
    );
    let last = json::parse(lines[lines.len() - 1]).unwrap();
    assert_eq!(last.get("kernels").and_then(Json::as_u64), Some(4));
    assert_eq!(last.get("divergences").and_then(Json::as_u64), Some(0));
    server.shutdown_and_wait();
}
