//! End-to-end daemon test, fully in-process: a daemon on a unix socket
//! in a temp directory, driven through the real client [`Connection`]
//! and NDJSON protocol.
//!
//! Covers the tentpole acceptance criteria that don't need a separate
//! OS process (CI's `sweep_server` section covers the kill-and-restart
//! variant against the installed binaries):
//!
//! * submit → run → fetch round trip, with live status counters
//!   (points done/total, cache hits, simulated, cycles/s);
//! * daemon-wide `stats` (job phase counts, store counters, uptime);
//! * content-addressed job dedup (same submission → same job id);
//! * restart resume: a **fresh daemon on the same store** serves the
//!   identical job 100% from the store (`simulated == 0`);
//! * daemon CSVs are byte-identical to a direct in-process run of the
//!   same artifacts at `--jobs 1`;
//! * malformed submissions fail with a message, not a dead connection;
//! * a hostile, absurdly nested request line gets an error reply instead
//!   of overflowing the reader's stack, and the daemon keeps serving;
//! * a bare `{"op":"ping"}` (absent `Option` fields) is a complete request;
//! * an overlong request line gets one error reply and a closed connection;
//! * the `vcoma-sweepd` binary's stdout is only its readiness banner.

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use vcoma::metrics::json::from_json_str;
use vcoma_experiments::cache::code_fingerprint;
use vcoma_experiments::client::{Connection, Endpoint};
use vcoma_experiments::protocol::{Request, Response, PROTOCOL_VERSION};
use vcoma_experiments::{artifacts, ExperimentConfig};
use vcoma_server::daemon::{Daemon, DaemonConfig, MAX_REQUEST_BYTES};

const SCALE: f64 = 0.005;
const SEED: u64 = 0x5EED;
const ARTIFACTS: [&str; 2] = ["table2", "table5"];

struct RunningDaemon {
    daemon: Arc<Daemon>,
    thread: std::thread::JoinHandle<()>,
    endpoint: Endpoint,
}

impl RunningDaemon {
    fn start(socket: &std::path::Path, store: &std::path::Path) -> RunningDaemon {
        let endpoint = Endpoint::Unix(socket.to_path_buf());
        let config = DaemonConfig {
            listen: endpoint.clone(),
            store_dir: store.to_path_buf(),
            jobs: 2,
            http: None,
        };
        let daemon = Daemon::new(config).expect("open store");
        let thread = {
            let daemon = Arc::clone(&daemon);
            std::thread::spawn(move || daemon.serve().expect("serve"))
        };
        RunningDaemon { daemon, thread, endpoint }
    }

    fn connect(&self) -> Connection {
        connect(&self.endpoint)
    }

    fn stop(self) {
        self.daemon.request_shutdown();
        self.thread.join().expect("serve thread");
    }
}

fn connect(endpoint: &Endpoint) -> Connection {
    for _ in 0..500 {
        if let Ok(conn) = Connection::connect(endpoint) {
            return conn;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never started listening on {endpoint}");
}

fn submit_request() -> Request {
    let mut req = Request::new("submit");
    req.artifacts = Some(ARTIFACTS.iter().map(|s| s.to_string()).collect());
    req.scale = Some(SCALE);
    req.seed = Some(SEED);
    req
}

fn ok(resp: Result<Response, String>) -> Response {
    let resp = resp.expect("transport");
    assert!(resp.ok, "daemon error: {:?}", resp.error);
    resp
}

fn wait_done(conn: &mut Connection, job: &str) -> Response {
    for _ in 0..12_000 {
        let mut req = Request::new("status");
        req.job = Some(job.to_string());
        let resp = ok(conn.request(&req));
        match resp.state.as_deref() {
            Some("done") => return resp,
            Some("failed") => panic!("job failed: {:?}", resp.error),
            _ => std::thread::sleep(Duration::from_millis(50)),
        }
    }
    panic!("job {job} never finished");
}

fn fetch_files(conn: &mut Connection, job: &str) -> Vec<(String, String)> {
    let mut req = Request::new("fetch");
    req.job = Some(job.to_string());
    let resp = ok(conn.request(&req));
    resp.files
        .expect("done jobs have files")
        .into_iter()
        .map(|f| (f.name, f.contents))
        .collect()
}

#[test]
fn daemon_serves_caches_resumes_and_matches_direct_runs() {
    let base = std::env::temp_dir().join(format!("vcoma-daemon-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("test dir");
    let socket = base.join("sweepd.sock");
    let store = base.join("store");

    // --- First daemon: simulate everything, fetch the CSVs. ---
    let server = RunningDaemon::start(&socket, &store);
    let mut conn = server.connect();

    let ping = ok(conn.request(&Request::new("ping")));
    assert_eq!(ping.protocol, Some(PROTOCOL_VERSION));
    assert_eq!(ping.fingerprint.as_deref(), Some(code_fingerprint()));

    // Bad submissions fail politely and leave the connection usable.
    let mut bad = Request::new("submit");
    bad.artifacts = Some(vec!["table99".to_string()]);
    let resp = conn.request(&bad).expect("transport");
    assert!(!resp.ok);
    assert!(resp.error.expect("message").contains("table99"));
    let mut bad_scale = submit_request();
    bad_scale.scale = Some(-1.0);
    assert!(!conn.request(&bad_scale).expect("transport").ok);
    let mut unknown = Request::new("status");
    unknown.job = Some("no-such-job".to_string());
    assert!(!conn.request(&unknown).expect("transport").ok);

    let job = ok(conn.request(&submit_request())).job.expect("job id");
    // Identical submission collapses onto the same content-addressed job.
    let dup = ok(conn.request(&submit_request()));
    assert_eq!(dup.job.as_deref(), Some(job.as_str()));

    let status = wait_done(&mut conn, &job);
    assert_eq!(status.artifacts_done, Some(ARTIFACTS.len() as u64));
    let simulated = status.simulated.expect("counter");
    assert!(simulated > 0, "a fresh store must simulate");
    // table2 and table5 run exactly one simulation per grid point, so
    // the sweep-level and resolution-level counters line up.
    assert_eq!(
        status.points_done,
        Some(status.cache_hits.expect("counter") + simulated),
        "points = hits + simulated"
    );
    assert_eq!(
        status.points_done, status.points_total,
        "a done job has finished every announced grid point"
    );
    assert!(status.points_total.expect("total") > 0);
    assert!(
        status.cycles_per_sec.expect("rate") > 0.0,
        "a job that simulated must report a nonzero frozen cycles/s"
    );

    let first_files = fetch_files(&mut conn, &job);
    assert!(first_files.iter().any(|(name, _)| name == "table2"));
    assert!(first_files.iter().any(|(name, _)| name == "table5"));

    // A done job dedups too — no re-run, state reported immediately.
    let resub = ok(conn.request(&submit_request()));
    assert_eq!(resub.job.as_deref(), Some(job.as_str()));
    assert_eq!(resub.state.as_deref(), Some("done"));
    server.stop();

    // --- Second daemon on the same store: resume = 100% cache hits. ---
    let server = RunningDaemon::start(&socket, &store);
    let mut conn = server.connect();
    let job2 = ok(conn.request(&submit_request())).job.expect("job id");
    assert_eq!(job2, job, "job ids are content-addressed, not per-daemon");
    let status = wait_done(&mut conn, &job2);
    assert_eq!(status.simulated, Some(0), "restart must serve entirely from the store");
    let hits = status.cache_hits.expect("counter");
    assert!(hits > 0);
    assert_eq!(status.points_done, Some(hits));
    assert_eq!(
        status.points_done, status.points_total,
        "a resumed job still reports full grid progress"
    );
    assert_eq!(
        status.cycles_per_sec,
        Some(0.0),
        "a pure store-served resume simulates nothing, so its rate is zero"
    );

    let second_files = fetch_files(&mut conn, &job2);
    assert_eq!(first_files, second_files, "store-served CSVs must be byte-identical");

    let stats = ok(conn.request(&Request::new("stats")));
    assert!(stats.store_hits.expect("counter") >= hits);
    assert_eq!(stats.jobs_done, Some(1), "this daemon instance ran exactly one job");
    assert_eq!(stats.jobs_queued, Some(0));
    assert_eq!(stats.jobs_running, Some(0));
    assert_eq!(stats.jobs_failed, Some(0));
    assert!(stats.uptime_seconds.is_some(), "stats must report daemon uptime");
    server.stop();

    // --- Byte-diff against a direct run of the same artifacts. ---
    let direct_cfg =
        { ExperimentConfig { seed: SEED, ..ExperimentConfig::new() } }.with_scale(SCALE).with_jobs(1);
    for name in ARTIFACTS {
        let output = artifacts::run_standard(name, &direct_cfg).expect("standard artifact");
        for (stem, table) in &output.tables {
            let daemon_csv = first_files
                .iter()
                .find(|(n, _)| n == stem)
                .unwrap_or_else(|| panic!("daemon produced no '{stem}'"));
            assert_eq!(
                &daemon_csv.1,
                &table.to_csv(),
                "daemon CSV for '{stem}' differs from the direct --jobs 1 run"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn deeply_nested_request_is_an_error_reply_not_a_crash() {
    let base = std::env::temp_dir().join(format!("vcoma-daemon-nest-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("test dir");
    let socket = base.join("sweepd.sock");
    let server = RunningDaemon::start(&socket, &base.join("store"));
    drop(server.connect());

    // One 400 KB NDJSON line of `[`, under a key the reader skips
    // recursively: an unbounded reader would overflow its stack and
    // abort the whole process.
    let mut raw = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    let line = format!("{{\"op\":\"ping\",\"pad\":{}\n", "[".repeat(400 * 1024));
    raw.write_all(line.as_bytes()).expect("send hostile line");
    let mut reply = String::new();
    BufReader::new(&raw).read_line(&mut reply).expect("read reply");
    let resp: Response = from_json_str(reply.trim_end()).expect("reply is a protocol response");
    assert!(!resp.ok);
    let error = resp.error.expect("message");
    assert!(error.contains("malformed request") && error.contains("nesting"), "{error}");

    // The connection survives the bad line, and a bare ping — every
    // `Option` field absent — is a complete request.
    raw.write_all(b"{\"op\":\"ping\"}\n").expect("send bare ping");
    let mut reply = String::new();
    BufReader::new(&raw).read_line(&mut reply).expect("read ping reply");
    let resp: Response = from_json_str(reply.trim_end()).expect("reply is a protocol response");
    assert!(resp.ok, "bare ping rejected: {:?}", resp.error);
    assert_eq!(resp.protocol, Some(PROTOCOL_VERSION));

    // The daemon is still alive: a fresh connection gets a normal reply.
    let mut conn = server.connect();
    let ping = ok(conn.request(&Request::new("ping")));
    assert_eq!(ping.protocol, Some(PROTOCOL_VERSION));
    server.stop();
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn overlong_request_line_gets_one_error_reply_and_a_closed_connection() {
    let base = std::env::temp_dir().join(format!("vcoma-daemon-long-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("test dir");
    let socket = base.join("sweepd.sock");
    let server = RunningDaemon::start(&socket, &base.join("store"));
    drop(server.connect());

    // 2 MiB with no newline. The daemon stops reading at the cap, so the
    // tail of the write may fail once it hangs up.
    let mut raw = std::os::unix::net::UnixStream::connect(&socket).expect("connect");
    raw.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    let _ = raw.write_all(&vec![b' '; 2 * 1024 * 1024]);
    let mut reader = BufReader::new(&raw);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    let resp: Response = from_json_str(reply.trim_end()).expect("reply is a protocol response");
    assert!(!resp.ok);
    let error = resp.error.expect("message");
    let want = format!("malformed request: line exceeds {MAX_REQUEST_BYTES} bytes");
    assert_eq!(error, want);
    // Then the daemon hangs up: end of stream, or a reset because it left
    // the rest of the line unread.
    let mut rest = Vec::new();
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "a second reply: {rest:?}"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
    }

    let mut conn = server.connect();
    let ping = ok(conn.request(&Request::new("ping")));
    assert_eq!(ping.protocol, Some(PROTOCOL_VERSION));
    server.stop();
    let _ = std::fs::remove_dir_all(&base);
}

/// Scripts wait for the daemon's one readiness line on stdout, so nothing
/// else may land there: sweeps report through the job's progress sink.
#[test]
fn daemon_stdout_is_only_its_listening_banner() {
    let base = std::env::temp_dir().join(format!("vcoma-daemon-stdout-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).expect("test dir");
    let socket = base.join("sweepd.sock");
    let child = Command::new(env!("CARGO_BIN_EXE_vcoma-sweepd"))
        .arg("--listen")
        .arg(format!("unix:{}", socket.display()))
        .arg("--store")
        .arg(base.join("store"))
        .args(["--jobs", "1"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vcoma-sweepd");

    let mut conn = connect(&Endpoint::Unix(socket));
    let mut req = Request::new("submit");
    req.artifacts = Some(vec!["table1".to_string()]);
    req.scale = Some(0.01);
    let job = ok(conn.request(&req)).job.expect("job id");
    wait_done(&mut conn, &job);
    assert!(!fetch_files(&mut conn, &job).is_empty());
    ok(conn.request(&Request::new("shutdown")));
    drop(conn);

    let out = child.wait_with_output().expect("daemon exits");
    assert!(out.status.success(), "daemon exit: {}", out.status);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "stdout must be the banner alone: {stdout:?}");
    assert!(lines[0].starts_with("vcoma-sweepd listening on "), "{stdout:?}");
    let _ = std::fs::remove_dir_all(&base);
}
