//! End-to-end tests for the sweep daemon: boot a server on an ephemeral
//! port, drive it purely over HTTP, and check the contract the ISSUE
//! pins down — the report CSV is byte-identical to `hintm sweep --csv`,
//! and resubmitting an identical sweep executes zero cells (visible in
//! `GET /stats`).

use hintm::cli::{csv_row, CSV_HEADER};
use hintm::{Cell, HintMode, Json};
use hintm_runner::{Cache, Runner};
use hintm_serve::http::client_request;
use hintm_serve::{join_loop, ServeConfig, Server};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A 4-cell spec cheap enough for CI (two workloads × two HTM kinds).
const SPEC: &str = r#"{"workloads":["ssca2","kmeans"],"htm":["p8","infcap"]}"#;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hintm-e2e-{}-{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(tag: &str, workers: usize) -> Server {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        cache: Some(Cache::new(tmp_dir(tag))),
    })
    .expect("bind ephemeral port")
}

fn get_json(addr: &str, path: &str) -> (u16, Json) {
    let (status, body) = client_request(addr, "GET", path, b"").expect("GET");
    let text = String::from_utf8(body).expect("UTF-8 body");
    (status, Json::parse(&text).expect("JSON body"))
}

/// Submits `spec` and returns the new job id.
fn submit(addr: &str, spec: &str) -> u64 {
    let (status, body) = client_request(addr, "POST", "/sweeps", spec.as_bytes()).expect("POST");
    assert_eq!(status, 201, "body: {}", String::from_utf8_lossy(&body));
    Json::parse(std::str::from_utf8(&body).unwrap())
        .unwrap()
        .field("id")
        .and_then(Json::as_u64)
        .expect("id in response")
}

/// Polls `GET /sweeps/{id}` until the job completes (with a deadline).
fn await_job(addr: &str, id: u64) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, j) = get_json(addr, &format!("/sweeps/{id}"));
        assert_eq!(status, 200);
        if matches!(j.field("complete"), Ok(Json::Bool(true))) {
            assert_eq!(j.field("crashed").unwrap().as_u64().unwrap(), 0);
            return;
        }
        assert!(Instant::now() < deadline, "job {id} did not complete");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn queue_counter(addr: &str, name: &str) -> u64 {
    let (status, j) = get_json(addr, "/stats");
    assert_eq!(status, 200);
    j.field("queue")
        .and_then(|q| q.field(name))
        .and_then(Json::as_u64)
        .expect("queue counter")
}

#[test]
fn report_csv_is_byte_identical_to_the_sweep_cli() {
    let server = start_server("csv", 2);
    let addr = server.addr().to_string();
    let id = submit(&addr, SPEC);
    await_job(&addr, id);
    let (status, served) = client_request(
        &addr,
        "GET",
        &format!("/sweeps/{id}/report?format=csv"),
        b"",
    )
    .unwrap();
    assert_eq!(status, 200);
    server.stop();
    server.join();

    // The same grid through the CLI, into a fresh cache.
    let out = Command::new(env!("CARGO_BIN_EXE_hintm"))
        .args([
            "sweep",
            "--workloads",
            "ssca2,kmeans",
            "--htm",
            "p8,infcap",
            "--csv",
            "--cache-dir",
        ])
        .arg(tmp_dir("csv-cli"))
        .env_remove("HINTM_CACHE_DIR")
        .output()
        .expect("run hintm sweep");
    assert!(
        out.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        served,
        out.stdout,
        "server CSV differs from CLI CSV:\n--- server ---\n{}\n--- cli ---\n{}",
        String::from_utf8_lossy(&served),
        String::from_utf8_lossy(&out.stdout)
    );
}

#[test]
fn sweep_csv_is_the_per_cell_csv_of_in_process_runs() {
    let workloads = ["kmeans", "ssca2", "tpcc-p"];
    let out = Command::new(env!("CARGO_BIN_EXE_hintm"))
        .args(["sweep", "--workloads", &workloads.join(",")])
        .args(["--hints", "full", "--csv", "--no-cache"])
        .output()
        .expect("run hintm sweep");
    assert!(
        out.status.success(),
        "sweep failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut expected = format!("{CSV_HEADER}\n");
    for name in workloads {
        let cell = Cell::new(name).hint(HintMode::Full);
        let report = cell.run().expect("registered workload");
        expected.push_str(&csv_row(&report, cell.seed));
        expected.push('\n');
    }
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);
}

#[test]
fn resubmitted_sweep_completes_entirely_from_cache() {
    let server = start_server("dedup", 2);
    let addr = server.addr().to_string();

    let first = submit(&addr, SPEC);
    await_job(&addr, first);
    let executed_after_first = queue_counter(&addr, "executed");
    assert_eq!(executed_after_first, 4);

    // Identical resubmission: every cell must come from the cache.
    let second = submit(&addr, SPEC);
    await_job(&addr, second);
    assert_eq!(
        queue_counter(&addr, "executed"),
        executed_after_first,
        "resubmission re-executed cells"
    );
    let (_, j) = get_json(&addr, &format!("/sweeps/{second}"));
    assert_eq!(j.field("cached").unwrap().as_u64().unwrap(), 4);
    for cell in j.field("cells").unwrap().as_arr().unwrap() {
        assert_eq!(cell.field("state").unwrap().as_str().unwrap(), "done");
        assert!(matches!(cell.field("cached"), Ok(Json::Bool(true))));
    }

    // And its reports are identical to the first job's.
    let (_, report_a) = client_request(
        &addr,
        "GET",
        &format!("/sweeps/{first}/report?format=csv"),
        b"",
    )
    .unwrap();
    let (_, report_b) = client_request(
        &addr,
        "GET",
        &format!("/sweeps/{second}/report?format=csv"),
        b"",
    )
    .unwrap();
    assert_eq!(report_a, report_b);

    server.stop();
    server.join();
}

#[test]
fn stats_cache_section_matches_a_cold_cache_scan() {
    // The daemon's `/stats` scans through its long-lived, memoized cache;
    // `hintm cache stats` scans cold. Both must report the same contents.
    let dir = tmp_dir("stats-cache");
    let server = Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        cache: Some(Cache::new(&dir)),
    })
    .expect("bind ephemeral port");
    let addr = server.addr().to_string();
    let served = || {
        let (status, j) = get_json(&addr, "/stats");
        assert_eq!(status, 200);
        j.field("cache").expect("cache section").to_string()
    };
    let cold = || Cache::new(&dir).stats().unwrap().to_json().to_string();

    let first = submit(&addr, SPEC);
    await_job(&addr, first);
    assert_eq!(served(), cold());
    // Age every entry past the settle window, so the daemon's next scans
    // answer from its memo rather than re-reading the files.
    let old = std::time::SystemTime::now() - Duration::from_secs(3600);
    for entry in std::fs::read_dir(&dir).unwrap() {
        let file = std::fs::File::options()
            .write(true)
            .open(entry.unwrap().path())
            .unwrap();
        file.set_modified(old).unwrap();
    }
    assert_eq!(served(), cold());

    // A warm resubmit, then a fresh cell beside the memoized ones.
    let warm = submit(&addr, SPEC);
    await_job(&addr, warm);
    assert_eq!(served(), cold());
    let fresh = submit(&addr, r#"{"workloads":["ssca2"],"seeds":[7]}"#);
    await_job(&addr, fresh);
    let cache = served();
    assert_eq!(cache, cold());
    assert!(cache.contains("\"entries\":5"), "{cache}");

    server.stop();
    server.join();
}

#[test]
fn sim_threads_is_ignored_so_a_resubmission_is_a_cache_replay() {
    // `sim_threads` is accepted but ignored, and the cell key excludes
    // it, so a warm spec resubmitted at a different value must execute
    // zero cells.
    let server = start_server("sim-threads", 2);
    let addr = server.addr().to_string();

    let spec_serial = r#"{"workloads":["ssca2","kmeans"],"sim_threads":1}"#;
    let spec_four = r#"{"workloads":["ssca2","kmeans"],"sim_threads":4}"#;

    let first = submit(&addr, spec_serial);
    await_job(&addr, first);
    let executed_after_first = queue_counter(&addr, "executed");
    assert_eq!(executed_after_first, 2);

    let second = submit(&addr, spec_four);
    await_job(&addr, second);
    assert_eq!(
        queue_counter(&addr, "executed"),
        executed_after_first,
        "a sim_threads change re-executed cells"
    );

    // Both jobs echo the value they were submitted with.
    let (_, a) = get_json(&addr, &format!("/sweeps/{first}"));
    assert_eq!(a.field("sim_threads").unwrap().as_u64().unwrap(), 1);
    let (_, b) = get_json(&addr, &format!("/sweeps/{second}"));
    assert_eq!(b.field("sim_threads").unwrap().as_u64().unwrap(), 4);
    assert_eq!(b.field("cached").unwrap().as_u64().unwrap(), 2);

    // Identical reports: sim_threads never changes results.
    let (_, report_a) = client_request(
        &addr,
        "GET",
        &format!("/sweeps/{first}/report?format=csv"),
        b"",
    )
    .unwrap();
    let (_, report_b) = client_request(
        &addr,
        "GET",
        &format!("/sweeps/{second}/report?format=csv"),
        b"",
    )
    .unwrap();
    assert_eq!(report_a, report_b);

    server.stop();
    server.join();
}

#[test]
fn trace_endpoint_streams_chrome_json_and_binlog() {
    let server = start_server("trace", 1);
    let addr = server.addr().to_string();
    let id = submit(&addr, r#"{"workloads":["ssca2"]}"#);
    await_job(&addr, id);

    let (status, body) = client_request(
        &addr,
        "GET",
        &format!("/sweeps/{id}/cells/0/trace?events=500"),
        b"",
    )
    .unwrap();
    assert_eq!(status, 200);
    assert!(
        body.starts_with(b"{\"traceEvents\":["),
        "not a Chrome trace"
    );

    let (status, body) = client_request(
        &addr,
        "GET",
        &format!("/sweeps/{id}/cells/0/trace?format=bin&events=500"),
        b"",
    )
    .unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with(b"HTRC"), "not a binlog");

    let (status, _) =
        client_request(&addr, "GET", &format!("/sweeps/{id}/cells/99/trace"), b"").unwrap();
    assert_eq!(status, 404);

    server.stop();
    server.join();
}

#[test]
fn join_worker_drains_the_queue_over_http() {
    // workers = 0: the daemon serves the API but executes nothing.
    let server = start_server("join-srv", 0);
    let addr = server.addr().to_string();

    let worker_addr = addr.clone();
    let worker = std::thread::spawn(move || {
        let runner = Runner::new().cache(Cache::new(tmp_dir("join-wrk")));
        join_loop(&worker_addr, &runner)
    });

    let id = submit(&addr, r#"{"workloads":["ssca2","kmeans"]}"#);
    await_job(&addr, id);
    assert_eq!(queue_counter(&addr, "executed"), 2);

    // The daemon published the posted reports into its own cache, so a
    // resubmission is a pure cache replay even with zero local workers.
    let second = submit(&addr, r#"{"workloads":["ssca2","kmeans"]}"#);
    await_job(&addr, second);
    assert_eq!(queue_counter(&addr, "executed"), 2);

    // Shutdown surfaces to the worker as a 410 on /claim.
    let (status, _) = client_request(&addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(status, 200);
    let summary = worker.join().unwrap().expect("worker exits cleanly");
    assert_eq!(summary.crashed, 0);
    assert!(
        summary.completed >= 2,
        "worker completed {}",
        summary.completed
    );
    server.join();
}

#[test]
fn daemon_binary_boots_serves_and_shuts_down() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_hintm"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--cache-dir",
        ])
        .arg(tmp_dir("bin"))
        .env_remove("HINTM_CACHE_DIR")
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn hintm serve");

    // The daemon announces its actual address on stderr.
    let stderr = child.stderr.take().unwrap();
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("daemon exited before announcing its address")
            .unwrap();
        if let Some(rest) = line.strip_prefix("hintm serve listening on ") {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };

    let (status, body) = client_request(&addr, "GET", "/healthz", b"").unwrap();
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    let id = submit(&addr, r#"{"workloads":["ssca2"]}"#);
    await_job(&addr, id);
    let (status, body) = client_request(
        &addr,
        "GET",
        &format!("/sweeps/{id}/report?format=csv"),
        b"",
    )
    .unwrap();
    assert_eq!(status, 200);
    assert!(body.starts_with(b"workload,"));

    let (status, _) = client_request(&addr, "POST", "/shutdown", b"").unwrap();
    assert_eq!(status, 200);
    let exit = child.wait().expect("daemon exit status");
    assert!(exit.success(), "daemon exited with {exit:?}");
}

#[test]
fn error_paths_over_the_wire() {
    let server = start_server("errors", 0);
    let addr = server.addr().to_string();

    for (method, path, body, want) in [
        ("POST", "/sweeps", r#"{"workloads":["nope"]}"#, 400),
        ("POST", "/sweeps", "not json", 400),
        ("GET", "/sweeps/7", "", 404),
        ("GET", "/sweeps/7/report", "", 404),
        ("GET", "/nope", "", 404),
        ("PUT", "/sweeps", "", 405),
    ] {
        let (status, _) = client_request(&addr, method, path, body.as_bytes()).unwrap();
        assert_eq!(status, want, "{method} {path}");
    }

    // The removed execution-tier field is rejected like any other typo.
    let (status, body) = client_request(
        &addr,
        "POST",
        "/sweeps",
        br#"{"workloads":["ssca2"],"exec":"compiled"}"#,
    )
    .unwrap();
    assert_eq!(status, 400);
    let body = String::from_utf8_lossy(&body);
    assert!(body.contains("unknown sweep spec field `exec`"), "{body}");

    // Thread overrides the simulated machine cannot run are a 400 at
    // submit, not a job of crashed cells.
    for spec in [
        r#"{"workloads":["kmeans"],"threads":9}"#,
        r#"{"workloads":["kmeans"],"threads":0}"#,
    ] {
        let (status, body) = client_request(&addr, "POST", "/sweeps", spec.as_bytes()).unwrap();
        assert_eq!(status, 400, "{spec}");
        let body = String::from_utf8_lossy(&body);
        assert!(body.contains("hardware threads"), "{body}");
    }
    let (status, _) = client_request(&addr, "GET", "/sweeps/0", b"").unwrap();
    assert_eq!(status, 404, "a rejected spec enqueued a job");

    // A pending job's report is a 409 until workers exist to finish it.
    let id = submit(&addr, r#"{"workloads":["ssca2"]}"#);
    let (status, _) = client_request(&addr, "GET", &format!("/sweeps/{id}/report"), b"").unwrap();
    assert_eq!(status, 409);

    server.stop();
    server.join();
}
