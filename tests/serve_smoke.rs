//! Loopback end-to-end tests for the simulation service: a real TCP
//! server on an ephemeral port, exercised through the protocol client
//! and through the `mcr_sim serve`/`submit` CLI.
//!
//! Covers the full service contract: correct sweep results with
//! memoization, deadline expiry (`timeout`), queue-overflow load
//! shedding (429), rejection while draining (503), and a graceful
//! drain in which every accepted job still delivers its response.
//! Raw-socket cases pin the connection guards: a stalled partial line
//! hits the read deadline, an oversized line is refused and closed, and
//! a malformed line gets a typed error on a connection that lives on.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Stdio};
use std::thread::JoinHandle;
use std::time::Duration;

use mcr_serve::{Client, RunSpec, ServeConfig, ServeTelemetry, Server};
use sim_json::Json;

fn start(cfg: ServeConfig) -> (SocketAddr, JoinHandle<ServeTelemetry>) {
    let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
    let addr = server.local_addr();
    (addr, std::thread::spawn(move || server.run()))
}

fn req(client: &mut Client, line: &str) -> Json {
    client
        .request(&Json::parse(line).expect("request is valid JSON"))
        .expect("request round-trips")
}

fn status(v: &Json) -> &str {
    v.get("status").and_then(Json::as_str).unwrap_or("?")
}

/// Polls `stats` until `pred` holds; panics after ~5 s.
fn wait_for_stats(client: &mut Client, what: &str, pred: impl Fn(&Json) -> bool) {
    for _ in 0..1_000 {
        let v = req(client, r#"{"cmd": "stats"}"#);
        let stats = v.get("stats").expect("stats body");
        if pred(stats) {
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    panic!("timed out waiting for {what}");
}

fn stat_u64(stats: &Json, key: &str) -> u64 {
    stats.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

#[test]
fn serves_sweeps_with_memoization_and_drains_cleanly() {
    let (addr, handle) = start(ServeConfig {
        workers: 2,
        queue_cap: 8,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).expect("connect");
    assert_eq!(status(&req(&mut c, r#"{"cmd": "ping"}"#)), "ok");

    let line = r#"{"cmd": "sweep", "id": "grid-1", "len": 1200,
                   "workloads": ["libq"], "modes": ["off", "4/4x/100"]}"#;
    let first = req(&mut c, line);
    assert_eq!(status(&first), "ok", "response: {first:?}");
    assert_eq!(first.get("id").and_then(Json::as_str), Some("grid-1"));
    assert_eq!(first.get("kind").and_then(Json::as_str), Some("sweep"));
    let points = first
        .get("result")
        .and_then(|r| r.get("points"))
        .and_then(Json::as_array)
        .expect("result.points array");
    assert_eq!(points.len(), 2);
    for p in points {
        assert!(
            p.get("reads_done").and_then(Json::as_u64).unwrap_or(0) > 0,
            "every point simulated reads: {p:?}"
        );
    }

    // The identical request again: served entirely from the memo cache.
    let second = req(&mut c, line);
    assert_eq!(status(&second), "ok");
    assert_eq!(
        second
            .get("result")
            .and_then(|r| r.get("cache_hits"))
            .and_then(Json::as_u64),
        Some(2),
        "repeat request must be memoized: {second:?}"
    );

    let bye = req(&mut c, r#"{"cmd": "shutdown"}"#);
    assert_eq!(status(&bye), "ok");
    assert_eq!(bye.get("drained").and_then(Json::as_bool), Some(true));

    let t = handle.join().expect("server thread");
    assert_eq!(t.accepted.get(), 2);
    assert_eq!(t.completed.get(), 2);
    assert_eq!(t.timeouts.get(), 0);
    // The drain closed the listener: nothing accepts connections now.
    assert!(
        Client::connect(addr).is_err(),
        "listener must be closed after drain"
    );
}

#[test]
fn over_deadline_requests_time_out() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).expect("connect");

    // A deadline no full-length simulation can meet: the RunBudget
    // expires at the first budget-poll boundary inside the run.
    let late = req(
        &mut c,
        r#"{"cmd": "run", "id": "late", "workload": "libq",
            "mode": "4/4x/100", "len": 400000, "deadline_ms": 1}"#,
    );
    assert_eq!(status(&late), "timeout", "response: {late:?}");
    assert_eq!(late.get("id").and_then(Json::as_str), Some("late"));

    // An already-expired deadline short-circuits without simulating.
    let expired = req(
        &mut c,
        r#"{"cmd": "run", "workload": "libq", "len": 5000, "deadline_ms": 0}"#,
    );
    assert_eq!(status(&expired), "timeout");

    req(&mut c, r#"{"cmd": "shutdown"}"#);
    let t = handle.join().expect("server thread");
    assert_eq!(t.timeouts.get(), 2);
    assert_eq!(t.completed.get(), 0);
}

#[test]
fn burst_sheds_load_and_drain_rejects_new_work() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 1,
        max_line_len: 32 << 20,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).expect("connect");

    // A holds the single worker by backpressure, not by simulation
    // time: the reply echoes A's 16 MiB id, several times what loopback
    // socket buffers hold (~3 MiB on a stock Linux host), and nobody
    // reads A's connection until the end, so the worker stays blocked
    // writing the reply however fast the simulation finished.
    let mut a = raw_connect(addr);
    let hold_id = "a".repeat(16 << 20);
    writeln!(
        a,
        r#"{{"cmd": "run", "id": "{hold_id}", "workload": "libq", "len": 2000}}"#
    )
    .expect("send A");
    wait_for_stats(&mut c, "A in flight", |s| stat_u64(s, "in_flight") == 1);

    // B fills the (capacity-1) queue behind A.
    let queued = std::thread::spawn(move || {
        let mut cb = Client::connect(addr).expect("connect B");
        req(
            &mut cb,
            r#"{"cmd": "run", "id": "B", "workload": "libq", "len": 12000}"#,
        )
    });
    wait_for_stats(&mut c, "B queued", |s| stat_u64(s, "queue_depth_now") == 1);

    // C finds the queue full and is shed with the typed 429 reject. Its
    // config differs from B's, so no cache hit could answer it instead.
    let shed = req(
        &mut c,
        r#"{"cmd": "run", "id": "C", "workload": "comm1", "len": 12000}"#,
    );
    assert_eq!(status(&shed), "rejected", "response: {shed:?}");
    assert_eq!(shed.get("code").and_then(Json::as_u64), Some(429));
    assert_eq!(
        shed.get("reason").and_then(Json::as_str),
        Some("queue-full")
    );

    // Shutdown while A holds the worker and B waits: both must still
    // complete.
    let drainer = std::thread::spawn(move || {
        let mut cd = Client::connect(addr).expect("connect drainer");
        req(&mut cd, r#"{"cmd": "shutdown"}"#)
    });
    wait_for_stats(&mut c, "draining", |s| {
        s.get("draining").and_then(Json::as_bool) == Some(true)
    });

    // New work during the drain is refused with the typed 503 reject.
    let refused = req(
        &mut c,
        r#"{"cmd": "run", "id": "E", "workload": "libq", "len": 12000}"#,
    );
    assert_eq!(status(&refused), "rejected");
    assert_eq!(refused.get("code").and_then(Json::as_u64), Some(503));
    assert_eq!(
        refused.get("reason").and_then(Json::as_str),
        Some("draining")
    );

    // Zero lost responses: reading A's reply frees the worker for B,
    // both complete, and the drainer sees the drain.
    let mut reply = String::new();
    BufReader::new(a)
        .read_line(&mut reply)
        .expect("A's reply line");
    let a = Json::parse(reply.trim()).expect("A's reply is JSON");
    assert_eq!(status(&a), "ok", "A must survive the drain");
    assert_eq!(a.get("id").and_then(Json::as_str), Some(hold_id.as_str()));
    let b = queued.join().expect("thread B");
    assert_eq!(status(&b), "ok", "B must survive the drain: {b:?}");
    let d = drainer.join().expect("drainer thread");
    assert_eq!(d.get("drained").and_then(Json::as_bool), Some(true));

    let t = handle.join().expect("server thread");
    assert_eq!(t.completed.get(), 2, "A and B completed");
    assert_eq!(t.rejected_queue_full.get(), 1, "C was shed");
    assert_eq!(t.rejected_draining.get(), 1, "E was refused");
    assert_eq!(t.timeouts.get(), 0);
}

#[test]
fn campaign_jobs_report_reliability() {
    let (addr, handle) = start(ServeConfig {
        workers: 2,
        queue_cap: 4,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).expect("connect");
    let reply = req(
        &mut c,
        r#"{"cmd": "campaign", "id": "chaos-lite", "workload": "libq",
            "mode": "2/4x/100", "len": 4000, "rates": [0.0, 0.1],
            "fault_seed": 2015}"#,
    );
    assert_eq!(status(&reply), "ok", "response: {reply:?}");
    let rel = reply
        .get("reliability")
        .and_then(Json::as_array)
        .expect("reliability array");
    assert_eq!(rel.len(), 3, "control + one point per rate");
    for point in rel {
        assert_eq!(
            point.get("escapes").and_then(Json::as_u64),
            Some(0),
            "no retention escapes with the detector armed: {point:?}"
        );
    }
    assert_eq!(reply.get("clean").and_then(Json::as_bool), Some(true));
    req(&mut c, r#"{"cmd": "shutdown"}"#);
    handle.join().expect("server thread");
}

#[test]
fn oversized_requests_are_rejected_before_any_work() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        queue_cap: 4,
        max_points: 8,
        max_trace_len: 10_000,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).expect("connect");
    let too_long = req(
        &mut c,
        r#"{"cmd": "run", "workload": "libq", "len": 50000}"#,
    );
    assert_eq!(status(&too_long), "rejected");
    assert_eq!(too_long.get("code").and_then(Json::as_u64), Some(413));
    let too_wide = req(
        &mut c,
        r#"{"cmd": "sweep", "len": 1000, "workloads": ["libq"],
            "modes": ["off"], "seeds": [1,2,3,4,5,6,7,8,9]}"#,
    );
    assert_eq!(status(&too_wide), "rejected");
    assert_eq!(too_wide.get("code").and_then(Json::as_u64), Some(413));
    // Typed errors for a bad request line, not a dropped connection.
    let bad = c
        .request_line("{\"cmd\": \"run\", \"workload\": \"no-such-workload\", \"len\": 1000}")
        .expect("connection survives");
    assert!(bad.contains("unknown workload"), "{bad}");
    req(&mut c, r#"{"cmd": "shutdown"}"#);
    let t = handle.join().expect("server thread");
    assert_eq!(t.rejected_too_large.get(), 2);
    assert_eq!(t.accepted.get(), 0);
}

/// A raw protocol connection: no client-side framing or guards, so a
/// test can send partial, oversized or malformed lines. Reads give up
/// after 10 s so a server that never answers fails the test instead of
/// hanging it.
fn raw_connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
}

/// Reads until the server closes the connection; returns what arrived.
fn read_to_close(stream: &mut TcpStream) -> String {
    let mut out = Vec::new();
    stream
        .read_to_end(&mut out)
        .expect("server closes the connection within 10 s");
    String::from_utf8_lossy(&out).into_owned()
}

/// Sends one line and reads one reply line.
fn raw_request(reader: &mut BufReader<TcpStream>, line: &str) -> Json {
    writeln!(reader.get_mut(), "{line}").expect("send line");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply line");
    Json::parse(reply.trim()).expect("reply is JSON")
}

/// Drains the server through a fresh connection and returns its
/// final telemetry.
fn shutdown(addr: SocketAddr, handle: JoinHandle<ServeTelemetry>) -> ServeTelemetry {
    let mut c = Client::connect(addr).expect("connect for shutdown");
    req(&mut c, r#"{"cmd": "shutdown"}"#);
    handle.join().expect("server thread")
}

#[test]
fn stalled_partial_line_is_dropped_at_the_read_deadline() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        read_deadline_ms: 50,
        ..ServeConfig::default()
    });
    let mut stream = raw_connect(addr);
    stream
        .write_all(br#"{"cmd": "pi"#)
        .expect("send partial line");
    assert_eq!(
        read_to_close(&mut stream),
        "",
        "a stalled line gets no reply"
    );
    let t = shutdown(addr, handle);
    assert_eq!(t.read_deadline_drops.get(), 1);
    assert_eq!(t.protocol_errors.get(), 0);
}

#[test]
fn oversized_lines_are_refused_and_closed() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        max_line_len: 64,
        ..ServeConfig::default()
    });
    // Both an unterminated payload and a complete, valid request past
    // the limit, even one that arrives whole in a single read.
    let long_ping = format!("{{\"cmd\": \"ping\", \"id\": \"{}\"}}\n", "x".repeat(200));
    for payload in ["x".repeat(200), long_ping] {
        let mut stream = raw_connect(addr);
        stream
            .write_all(payload.as_bytes())
            .expect("send oversized payload");
        let reply = read_to_close(&mut stream);
        let reply = Json::parse(reply.trim()).expect("one JSON error line, then close");
        assert_eq!(status(&reply), "error");
        assert_eq!(
            reply.get("reason").and_then(Json::as_str),
            Some("request line exceeded 64 bytes")
        );
    }
    let t = shutdown(addr, handle);
    assert_eq!(t.oversized_lines.get(), 2);
    assert_eq!(t.protocol_errors.get(), 2);
    assert_eq!(t.accepted.get(), 0);
}

#[test]
fn malformed_line_gets_a_typed_error_and_the_connection_lives_on() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut conn = BufReader::new(raw_connect(addr));
    let bad = raw_request(&mut conn, "this is not json");
    assert_eq!(status(&bad), "error", "{bad:?}");
    let reason = bad.get("reason").and_then(Json::as_str).unwrap_or("");
    assert!(reason.starts_with("bad JSON"), "{reason}");
    let pong = raw_request(&mut conn, r#"{"cmd": "ping"}"#);
    assert_eq!(pong.get("pong").and_then(Json::as_bool), Some(true));
    drop(conn);
    let t = shutdown(addr, handle);
    assert_eq!(t.protocol_errors.get(), 1);
    assert_eq!(t.accepted.get(), 0);
}

#[test]
fn a_job_carrying_shard_is_refused_as_an_unknown_field() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    let mut c = Client::connect(addr).expect("connect");
    let reply = req(
        &mut c,
        r#"{"cmd": "sweep", "len": 1000, "workloads": ["libq"],
            "shard": {"index": 0, "count": 2}}"#,
    );
    assert_eq!(status(&reply), "error", "{reply:?}");
    let reason = reply.get("reason").and_then(Json::as_str).unwrap_or("");
    assert!(reason.starts_with("unknown field \"shard\""), "{reason}");
    drop(c);
    let t = shutdown(addr, handle);
    assert_eq!(t.protocol_errors.get(), 1);
    assert_eq!(t.accepted.get(), 0);
}

#[test]
fn a_grid_whose_point_count_overflows_is_too_large() {
    let (addr, handle) = start(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    // 2^13 modes x 2^17 mechanisms x 2^17 allocs x 2^17 seeds = 2^64
    // points: an unchecked product wraps to 0 and would pass the cap.
    let list = |item: &str, n: usize| vec![item; n].join(",");
    let line = format!(
        r#"{{"cmd": "sweep", "len": 1000, "workloads": ["libq"], "modes": [{}], "mechanisms": [{}], "allocs": [{}], "seeds": [{}]}}"#,
        list(r#""off""#, 1 << 13),
        list("1", 1 << 17),
        list("0", 1 << 17),
        list("0", 1 << 17),
    );
    assert!(line.len() < ServeConfig::default().max_line_len);
    let mut c = Client::connect(addr).expect("connect");
    let reply = req(&mut c, &line);
    assert_eq!(status(&reply), "rejected", "{reply:?}");
    assert_eq!(reply.get("code").and_then(Json::as_u64), Some(413));
    drop(c);
    let t = shutdown(addr, handle);
    assert_eq!(t.rejected_too_large.get(), 1);
    assert_eq!(t.accepted.get(), 0);
}

fn cache_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcr-serve-smoke-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_cache_survives_server_restart() {
    let dir = cache_dir("restart");
    let cfg = ServeConfig {
        workers: 2,
        queue_cap: 8,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let line = r#"{"cmd": "run", "id": "warm-1", "workload": "libq",
                   "mode": "4/4x/100", "len": 1500}"#;

    // First server generation: compute and persist both points.
    let (addr, handle) = start(cfg.clone());
    let mut c = Client::connect(addr).expect("connect gen 1");
    let first = req(&mut c, line);
    assert_eq!(status(&first), "ok", "response: {first:?}");
    assert_eq!(
        first
            .get("result")
            .and_then(|r| r.get("cache_hits"))
            .and_then(Json::as_u64),
        Some(0),
        "generation 1 starts cold"
    );
    let stats = req(&mut c, r#"{"cmd": "stats"}"#);
    let store = stats.get("store").expect("store member in stats");
    assert_eq!(store.get("backend").and_then(Json::as_str), Some("disk"));
    assert_eq!(store.get("warm_entries").and_then(Json::as_u64), Some(0));
    assert_eq!(store.get("inserts").and_then(Json::as_u64), Some(2));
    req(&mut c, r#"{"cmd": "shutdown"}"#);
    handle.join().expect("server gen 1");

    // Second generation on the same directory: the cache is announced
    // warm, and resubmitting the identical request is 100% hits.
    let (addr, handle) = start(cfg);
    let mut c = Client::connect(addr).expect("connect gen 2");
    let stats = req(&mut c, r#"{"cmd": "stats"}"#);
    let store = stats.get("store").expect("store member in stats");
    assert_eq!(
        store.get("warm_entries").and_then(Json::as_u64),
        Some(2),
        "restart must announce the inherited entries: {stats:?}"
    );
    let second = req(&mut c, line);
    assert_eq!(status(&second), "ok");
    assert_eq!(
        second
            .get("result")
            .and_then(|r| r.get("cache_hits"))
            .and_then(Json::as_u64),
        Some(2),
        "warm restart must serve every point from the store: {second:?}"
    );
    let stats = req(&mut c, r#"{"cmd": "stats"}"#);
    let store = stats.get("store").expect("store member in stats");
    assert_eq!(
        store.get("hits_disk").and_then(Json::as_u64),
        Some(2),
        "the hits came off disk, not a same-process hot tier: {stats:?}"
    );
    req(&mut c, r#"{"cmd": "shutdown"}"#);
    handle.join().expect("server gen 2");

    // Submitted-vs-local bit-identity is unchanged by the warm store.
    let spec = RunSpec {
        workload: Some("libq".into()),
        mode: mcr_serve::protocol::parse_mode("4/4x/100").expect("mode"),
        len: 1_500,
        ..RunSpec::default()
    };
    let mut local =
        mcr_serve::protocol::results_json(&spec.sweep(Some(1)).expect("local sweep").run());
    let mut remote = second.get("result").cloned().expect("result body");
    strip_volatile(&mut local);
    strip_volatile(&mut remote);
    assert_eq!(
        local.to_string(),
        remote.to_string(),
        "warm submitted run diverged from a cold local run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Zeroes the volatile (timing/caching) fields of a serialized sweep
/// result (mirrors `sweep_determinism.rs`).
fn strip_volatile(doc: &mut Json) {
    doc.set("wall_ns", Json::from(0u64));
    doc.set("cache_hits", Json::from(0u64));
    doc.set("jobs", Json::from(0u64));
    if let Json::Obj(members) = doc {
        for (key, value) in members.iter_mut() {
            if key == "points" {
                if let Json::Arr(points) = value {
                    for p in points {
                        p.set("wall_ns", Json::from(0u64));
                        p.set("cache_hit", Json::from(false));
                    }
                }
            }
        }
    }
}

#[test]
fn killed_server_is_restartable_on_its_warm_cache() {
    // The ungraceful path: SIGKILL the serving process outright, then
    // restart on the same --cache-dir. Publishes are durable at point
    // completion, so the second generation still inherits the work.
    let bin = env!("CARGO_BIN_EXE_mcr_sim");
    let dir = cache_dir("kill");
    let dir_s = dir.to_string_lossy().into_owned();
    let spawn_server = || {
        let mut serve = Command::new(bin)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--cache-dir",
                &dir_s,
            ])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn serve");
        let mut reader = BufReader::new(serve.stdout.take().expect("serve stdout"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("listening banner");
        let addr = line
            .split_whitespace()
            .nth(3)
            .expect("address token in banner")
            .to_string();
        // Keep the pipe reader alive: dropping it would make the
        // server's final drain message fail with EPIPE.
        (serve, addr, reader)
    };
    let request = r#"{"cmd": "run", "workload": "libq", "mode": "4/4x/100", "len": 1500}"#;

    let (mut serve, addr, _reader1) = spawn_server();
    let mut c = Client::connect(addr.as_str()).expect("connect gen 1");
    let first = req(&mut c, request);
    assert_eq!(status(&first), "ok", "response: {first:?}");
    serve.kill().expect("kill serve");
    let _ = serve.wait();

    let (mut serve, addr, _reader2) = spawn_server();
    let mut c = Client::connect(addr.as_str()).expect("connect gen 2");
    let second = req(&mut c, request);
    assert_eq!(status(&second), "ok");
    assert_eq!(
        second
            .get("result")
            .and_then(|r| r.get("cache_hits"))
            .and_then(Json::as_u64),
        Some(2),
        "killed server's publishes must survive: {second:?}"
    );
    req(&mut c, r#"{"cmd": "shutdown"}"#);
    let code = serve.wait().expect("serve exits");
    assert!(code.success(), "gen 2 must drain cleanly");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_serve_and_submit_round_trip() {
    let bin = env!("CARGO_BIN_EXE_mcr_sim");
    let mut serve = Command::new(bin)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--queue-cap",
            "4",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve");
    let stdout = serve.stdout.take().expect("serve stdout");
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    reader.read_line(&mut line).expect("listening banner");
    // "mcr-serve listening on 127.0.0.1:PORT (...)"
    let addr = line
        .split_whitespace()
        .nth(3)
        .expect("address token in banner")
        .to_string();

    let mut submit = Command::new(bin)
        .args(["submit", "-", "--addr", &addr, "--deadline-ms", "60000"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn submit");
    submit
        .stdin
        .take()
        .expect("submit stdin")
        .write_all(br#"{"cmd": "run", "workload": "libq", "mode": "4/4x/100", "len": 1500}"#)
        .expect("write request");
    let out = submit.wait_with_output().expect("submit finishes");
    assert!(out.status.success(), "submit failed: {out:?}");
    let reply = Json::parse(String::from_utf8_lossy(&out.stdout).trim()).expect("reply parses");
    assert_eq!(status(&reply), "ok", "reply: {reply:?}");

    let down = Command::new(bin)
        .args(["submit", "--shutdown", "--addr", &addr])
        .output()
        .expect("shutdown submit");
    assert!(down.status.success(), "shutdown failed: {down:?}");
    let code = serve.wait().expect("serve exits");
    assert!(code.success(), "serve must exit cleanly after drain");
}
