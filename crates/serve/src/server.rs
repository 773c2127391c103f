//! The sweep daemon: listener, handler pool, and executor threads.
//!
//! ```text
//!                    ┌────────────────────────────────────────────┐
//!   HTTP clients ───▶│ acceptor ─mpsc─▶ handler pool (route/JSON) │
//!                    │                     │                      │
//!                    │              submit ▼                      │
//!                    │                  JobQueue                  │
//!                    │                     ▲                      │
//!                    │   executor threads ─┘  (Runner + cache)    │
//!                    └────────────────────────────────────────────┘
//! ```
//!
//! Every route is stateless over the shared [`JobQueue`] + result cache,
//! so any number of handler threads and executor threads can
//! interleave. The executors are the only way a cell runs. Reports are
//! rendered by the same
//! [`hintm_runner::results_csv`]/[`hintm_runner::results_json`] used by
//! `hintm sweep` — a server-side sweep's CSV is byte-identical to the
//! CLI's for the same spec.

use hintm::Json;
use hintm_runner::{results_csv, results_json, Cache, Runner};
use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::api;
use crate::http::{Request, Response};
use crate::queue::JobQueue;

/// How many connection-handler threads the daemon runs. Handlers are
/// cheap (JSON in/out) except the trace endpoint, which re-simulates.
/// `GET /stats` walks the cache directory but re-reads only new or
/// changed entries (see [`Cache::stats`]).
const HANDLER_THREADS: usize = 4;

/// Read and write timeout on every accepted connection. Without it a
/// client that connects and sends nothing holds a handler thread
/// forever, and [`HANDLER_THREADS`] such clients wedge the whole API.
const IO_TIMEOUT: Duration = Duration::from_secs(3);

/// Daemon configuration (see `hintm serve --help`).
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:8191` (port 0 picks an ephemeral
    /// port — [`Server::addr`] reports the actual one).
    pub addr: String,
    /// Executor threads, the only way a cell runs. `0` makes a daemon
    /// whose jobs stay pending (tests of the API alone use it).
    pub workers: usize,
    /// The shared result cache (`None` disables caching and with it
    /// cross-job deduplication of completed results).
    pub cache: Option<Cache>,
}

struct Shared {
    addr: SocketAddr,
    queue: JobQueue,
    runner: Runner,
    cache: Option<Cache>,
    workers: usize,
    started: Instant,
    requests: AtomicU64,
    /// Shutdown requested: executors drain, and the acceptor exits at
    /// its next wake-up.
    stopping: AtomicBool,
}

/// A running daemon. Dropping the handle does **not** stop the server;
/// call [`Server::stop`] (tests) or let `POST /shutdown` end it, then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the acceptor, handler pool, and executor threads,
    /// and returns immediately.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let mut runner = Runner::new();
        runner = match config.cache.clone() {
            Some(cache) => runner.cache(cache),
            None => runner.no_cache(),
        };
        let shared = Arc::new(Shared {
            addr,
            queue: JobQueue::new(),
            runner,
            cache: config.cache,
            workers: config.workers,
            started: Instant::now(),
            requests: AtomicU64::new(0),
            stopping: AtomicBool::new(false),
        });

        let mut threads = Vec::new();
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        for _ in 0..HANDLER_THREADS {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            threads.push(std::thread::spawn(move || loop {
                let Ok(stream) = rx.lock().unwrap().recv() else {
                    return;
                };
                handle_connection(&shared, stream);
            }));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                for conn in listener.incoming() {
                    if shared.stopping.load(Ordering::SeqCst) {
                        return; // drops `tx`; handlers drain and exit
                    }
                    if let Ok(stream) = conn {
                        if tx.send(stream).is_err() {
                            return;
                        }
                    }
                }
            }));
        }
        for _ in 0..config.workers {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                while let Some(claim) = shared.queue.claim_blocking() {
                    let result = shared.runner.execute_cell(&claim.cell);
                    shared.queue.complete(&claim, result);
                }
            }));
        }
        Ok(Server { shared, threads })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Requests shutdown, exactly as `POST /shutdown` does: executors
    /// drain, the acceptor stops, handlers exit.
    pub fn stop(&self) {
        initiate_shutdown(&self.shared);
    }

    /// Blocks until the server has fully shut down (acceptor, handlers,
    /// and executor threads all exited).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Flags the stop, wakes queue waiters (executors exit), and pokes the
/// listener so the blocking `accept` notices and exits.
fn initiate_shutdown(shared: &Shared) {
    if shared.stopping.swap(true, Ordering::SeqCst) {
        return; // already shutting down
    }
    shared.queue.shutdown();
    let _ = TcpStream::connect(shared.addr);
}

fn handle_connection(shared: &Shared, stream: TcpStream) {
    if stream.set_read_timeout(Some(IO_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(IO_TIMEOUT)).is_err()
    {
        return;
    }
    let Ok(peer_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(peer_half);
    let response = match Request::read_from(&mut reader) {
        Ok(req) => {
            shared.requests.fetch_add(1, Ordering::Relaxed);
            route(shared, &req)
        }
        // The shutdown wake-up connect lands here as UnexpectedEof; a
        // client silent for IO_TIMEOUT as WouldBlock (TimedOut on
        // Windows). Neither gets an answer.
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) =>
        {
            return
        }
        Err(e) => Response::error(400, e.to_string()),
    };
    let _ = response.write_to(stream);
}

fn route(shared: &Shared, req: &Request) -> Response {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("GET", ["stats"]) => stats(shared),
        ("POST", ["sweeps"]) => submit(shared, req),
        ("GET", ["sweeps"]) => list(shared),
        ("GET", ["sweeps", id]) => job(shared, id),
        ("GET", ["sweeps", id, "report"]) => report(shared, id, req),
        ("GET", ["sweeps", id, "cells", idx, "trace"]) => trace(shared, id, idx, req),
        ("POST", ["shutdown"]) => {
            initiate_shutdown(shared);
            Response::json(
                200,
                &Json::Obj(vec![("status".into(), Json::Str("shutting down".into()))]),
            )
        }
        (_, ["healthz" | "stats" | "sweeps" | "shutdown", ..]) => {
            Response::error(405, format!("method {} not allowed here", req.method))
        }
        _ => Response::error(404, format!("no route for {}", req.path)),
    }
}

/// `GET /stats`: server uptime/requests, queue counters, cache contents.
/// The `queue.executed` counter is the proof the e2e tests lean on — a
/// resubmitted warm sweep must leave it unchanged.
fn stats(shared: &Shared) -> Response {
    let q = shared.queue.stats();
    let cache = match &shared.cache {
        Some(c) => match c.stats() {
            Ok(s) => s.to_json(),
            Err(e) => return Response::error(500, format!("cache stats failed: {e}")),
        },
        None => Json::Null,
    };
    Response::json(
        200,
        &Json::Obj(vec![
            (
                "server".into(),
                Json::Obj(vec![
                    ("addr".into(), Json::Str(shared.addr.to_string())),
                    (
                        "uptime_ms".into(),
                        Json::u64(shared.started.elapsed().as_millis() as u64),
                    ),
                    (
                        "requests".into(),
                        Json::u64(shared.requests.load(Ordering::Relaxed)),
                    ),
                    ("workers".into(), Json::u64(shared.workers as u64)),
                ]),
            ),
            (
                "queue".into(),
                Json::Obj(vec![
                    ("jobs".into(), Json::u64(q.jobs as u64)),
                    ("cells_total".into(), Json::u64(q.cells_total as u64)),
                    ("pending".into(), Json::u64(q.pending as u64)),
                    ("running".into(), Json::u64(q.running as u64)),
                    ("executed".into(), Json::u64(q.executed)),
                    ("cached".into(), Json::u64(q.cached)),
                    ("crashed".into(), Json::u64(q.crashed)),
                ]),
            ),
            ("cache".into(), cache),
        ]),
    )
}

fn submit(shared: &Shared, req: &Request) -> Response {
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let spec = match Json::parse(body) {
        Ok(j) => j,
        Err(e) => return Response::error(400, format!("bad JSON: {e}")),
    };
    let cells = match api::cells_from_spec_json(&spec) {
        Ok(cells) => cells,
        Err(e) => return Response::error(400, e),
    };
    let n = cells.len();
    let id = shared.queue.submit(cells);
    Response::json(
        201,
        &Json::Obj(vec![
            ("id".into(), Json::u64(id as u64)),
            ("cells".into(), Json::u64(n as u64)),
            ("location".into(), Json::Str(format!("/sweeps/{id}"))),
        ]),
    )
}

fn list(shared: &Shared) -> Response {
    let jobs = shared
        .queue
        .summaries()
        .into_iter()
        .map(|(id, total, finished, complete)| {
            Json::Obj(vec![
                ("id".into(), Json::u64(id as u64)),
                ("total".into(), Json::u64(total as u64)),
                ("finished".into(), Json::u64(finished as u64)),
                ("complete".into(), Json::Bool(complete)),
            ])
        })
        .collect();
    Response::json(200, &Json::Arr(jobs))
}

fn parse_index(raw: &str, what: &str) -> Result<usize, Response> {
    raw.parse()
        .map_err(|_| Response::error(400, format!("bad {what} `{raw}`")))
}

fn job(shared: &Shared, id: &str) -> Response {
    let id = match parse_index(id, "job id") {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    match shared.queue.job(id) {
        Some(snap) => Response::json(200, &api::job_to_json(&snap)),
        None => Response::error(404, format!("no job {id}")),
    }
}

/// `GET /sweeps/{id}/report?format=csv|json`. 409 until the job is
/// complete, so pollers can't read a partial table.
fn report(shared: &Shared, id: &str, req: &Request) -> Response {
    let id = match parse_index(id, "job id") {
        Ok(id) => id,
        Err(resp) => return resp,
    };
    let Some(snap) = shared.queue.job(id) else {
        return Response::error(404, format!("no job {id}"));
    };
    let Some(results) = shared.queue.results(id) else {
        return Response::error(
            409,
            format!(
                "job {id} is not complete ({}/{} cells)",
                snap.finished,
                snap.cells.len()
            ),
        );
    };
    let result = api::sweep_result_from(results, snap.wall, shared.workers.max(1));
    match req.query_param("format").unwrap_or("json") {
        "csv" => Response::bytes(
            200,
            "text/csv; charset=utf-8",
            results_csv(&result).into_bytes(),
        ),
        "json" => Response::json(200, &results_json(&result)),
        other => Response::error(400, format!("unknown report format `{other}`")),
    }
}

/// `GET /sweeps/{id}/cells/{idx}/trace?format=json|bin&events=N`:
/// re-simulates the cell with tracing enabled and streams the artifact
/// straight onto the socket (Chrome JSON via [`chrome_trace_to`] or the
/// binlog via [`write_binlog_to`]) without materializing it.
///
/// [`chrome_trace_to`]: hintm_trace::chrome_trace_to
/// [`write_binlog_to`]: hintm_trace::write_binlog_to
fn trace(shared: &Shared, id: &str, idx: &str, req: &Request) -> Response {
    let (id, idx) = match (parse_index(id, "job id"), parse_index(idx, "cell index")) {
        (Ok(id), Ok(idx)) => (id, idx),
        (Err(resp), _) | (_, Err(resp)) => return resp,
    };
    let Some(snap) = shared.queue.job(id) else {
        return Response::error(404, format!("no job {id}"));
    };
    let Some(cell) = snap.cells.get(idx) else {
        return Response::error(404, format!("job {id} has no cell {idx}"));
    };
    let cap = match req.query_param("events").map(str::parse) {
        None => 100_000,
        Some(Ok(n)) => n,
        Some(Err(_)) => return Response::error(400, "bad `events` value"),
    };
    let (_, recording) = match cell.run_traced(cap) {
        Ok(v) => v,
        Err(e) => return Response::error(500, e.to_string()),
    };
    let events = recording.events();
    match req.query_param("format").unwrap_or("json") {
        "bin" => Response::stream("application/octet-stream", move |w| {
            hintm_trace::write_binlog_to(&events, &mut &mut *w)
        }),
        "json" => Response::stream("application/json", move |w| {
            hintm_trace::chrome_trace_to(&events, &mut &mut *w)
        }),
        other => Response::error(400, format!("unknown trace format `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client_request;

    fn start_test_server(workers: usize) -> Server {
        Server::start(ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers,
            cache: None,
        })
        .expect("bind ephemeral port")
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let server = start_test_server(0);
        let addr = server.addr().to_string();
        let (status, body) = client_request(&addr, "GET", "/healthz", b"").unwrap();
        assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));
        let (status, _) = client_request(&addr, "GET", "/nope", b"").unwrap();
        assert_eq!(status, 404);
        let (status, _) = client_request(&addr, "DELETE", "/stats", b"").unwrap();
        assert_eq!(status, 405);
        server.stop();
        server.join();
    }

    #[test]
    fn idle_connections_do_not_wedge_the_handlers() {
        let server = start_test_server(0);
        let addr = server.addr().to_string();
        // One silent connection per handler thread, each accepted first.
        let idle: Vec<TcpStream> = (0..HANDLER_THREADS)
            .map(|_| TcpStream::connect(&addr).unwrap())
            .collect();
        let (tx, rx) = mpsc::channel();
        let probe_addr = addr.clone();
        let probe = std::thread::spawn(move || {
            let _ = tx.send(client_request(&probe_addr, "GET", "/healthz", b""));
        });
        let answer = rx
            .recv_timeout(IO_TIMEOUT + Duration::from_secs(5))
            .expect("/healthz blocked behind idle connections");
        assert_eq!(answer.unwrap().0, 200);
        probe.join().unwrap();
        drop(idle);
        server.stop();
        server.join();
    }

    #[test]
    fn submit_validates_and_reports_are_gated() {
        let server = start_test_server(0); // no workers: job stays pending
        let addr = server.addr().to_string();

        let (status, _) =
            client_request(&addr, "POST", "/sweeps", b"{\"workloads\":[\"nope\"]}").unwrap();
        assert_eq!(status, 400);

        let (status, body) =
            client_request(&addr, "POST", "/sweeps", b"{\"workloads\":[\"ssca2\"]}").unwrap();
        assert_eq!(status, 201);
        let j = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        assert_eq!(j.field("id").unwrap().as_u64().unwrap(), 0);

        let (status, _) = client_request(&addr, "GET", "/sweeps/0/report", b"").unwrap();
        assert_eq!(status, 409);
        let (status, _) = client_request(&addr, "GET", "/sweeps/9/report", b"").unwrap();
        assert_eq!(status, 404);

        server.stop();
        server.join();
    }

    #[test]
    fn local_workers_drain_a_job_and_stats_count_it() {
        let server = start_test_server(2);
        let addr = server.addr().to_string();
        let (status, _) = client_request(
            &addr,
            "POST",
            "/sweeps",
            b"{\"workloads\":[\"ssca2\",\"kmeans\"]}",
        )
        .unwrap();
        assert_eq!(status, 201);

        loop {
            let (_, body) = client_request(&addr, "GET", "/sweeps/0", b"").unwrap();
            let j = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
            if let Json::Bool(true) = j.field("complete").unwrap() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        let (status, body) = client_request(&addr, "GET", "/stats", b"").unwrap();
        assert_eq!(status, 200);
        let j = Json::parse(std::str::from_utf8(&body).unwrap()).unwrap();
        let queue = j.field("queue").unwrap();
        assert_eq!(queue.field("executed").unwrap().as_u64().unwrap(), 2);
        assert_eq!(queue.field("pending").unwrap().as_u64().unwrap(), 0);

        let (status, body) =
            client_request(&addr, "GET", "/sweeps/0/report?format=csv", b"").unwrap();
        assert_eq!(status, 200);
        assert!(body.starts_with(b"workload,"), "got: {:?}", &body[..40]);

        server.stop();
        server.join();
    }

    #[test]
    fn shutdown_endpoint_stops_everything() {
        let server = start_test_server(1);
        let addr = server.addr().to_string();
        let (status, _) = client_request(&addr, "POST", "/shutdown", b"").unwrap();
        assert_eq!(status, 200);
        server.join(); // returns only if acceptor/handlers/workers exited
    }
}
