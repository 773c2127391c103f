//! A closed-loop client of `hintm serve`, timing every request.

use crate::check::Checker;
use crate::spans::Tracer;
use hintm::Json;
use hintm_runner::Cache;
use hintm_serve::http::client_request;
use hintm_serve::{ServeConfig, Server};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How often a client polls a sweep it waits for.
const POLL_EVERY: Duration = Duration::from_millis(10);

/// How long a client waits for one sweep before counting it failed, so a
/// wedged daemon cannot hold the run past its time limit.
const SWEEP_TIMEOUT: Duration = Duration::from_secs(60);

/// Request latencies in milliseconds, by route.
pub type Routes = BTreeMap<&'static str, Vec<f64>>;

/// Starts a daemon with one executor worker on an ephemeral loopback
/// port, caching into `dir`.
pub fn start(dir: &Path) -> io::Result<Server> {
    Server::start(ServeConfig {
        addr: "127.0.0.1:0".into(),
        workers: 1,
        cache: Some(Cache::new(dir)),
    })
}

/// One closed-loop client: every request opens its own connection (the
/// daemon closes after each reply), and at most one is open at a time.
/// Each request is one operation in the shared checker; a non-2xx or
/// malformed reply fails it.
pub struct Client<'a> {
    addr: String,
    checker: &'a Mutex<Checker>,
    tracer: &'a Tracer,
    /// Span the requests belong to.
    pub parent: u64,
    lane: u64,
    /// Latency of every request.
    pub routes: Routes,
}

fn json(body: &[u8]) -> Result<Json, String> {
    let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
    Json::parse(text).map_err(|e| e.to_string())
}

impl<'a> Client<'a> {
    /// A client of the daemon at `addr`, drawing its spans on `lane`.
    pub fn new(addr: String, checker: &'a Mutex<Checker>, tracer: &'a Tracer, lane: u64) -> Self {
        Client {
            addr,
            checker,
            tracer,
            parent: 0,
            lane,
            routes: Routes::new(),
        }
    }

    /// The shared checker, locked.
    pub fn checker(&self) -> MutexGuard<'a, Checker> {
        self.checker.lock().expect("checker poisoned")
    }

    /// Counts one operation in the shared checker.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.checker().op(ok, what)
    }

    fn outcome<T>(&self, r: Result<T, String>) -> Option<T> {
        match r {
            Ok(v) => {
                self.check(true, String::new);
                Some(v)
            }
            Err(e) => {
                self.check(false, || e);
                None
            }
        }
    }

    /// Sends one request and records its latency under `route`.
    fn request(
        &mut self,
        route: &'static str,
        method: &str,
        path: &str,
        body: &[u8],
        want: u16,
    ) -> Result<Vec<u8>, String> {
        let span = self.tracer.start();
        let t = Instant::now();
        let reply = client_request(&self.addr, method, path, body);
        self.routes
            .entry(route)
            .or_default()
            .push(t.elapsed().as_secs_f64() * 1e3);
        self.tracer.end(span, route, self.parent, self.lane);
        match reply {
            Ok((status, body)) if status == want => Ok(body),
            Ok((status, _)) => Err(format!("{method} {path}: status {status}, expected {want}")),
            Err(e) => Err(format!("{method} {path}: {e}")),
        }
    }

    /// `POST /sweeps` of a spec enumerating `cells` cells: the job id.
    pub fn submit(&mut self, spec: &Json, cells: usize) -> Option<u64> {
        let body = spec.to_string();
        let r = self
            .request("submit", "POST", "/sweeps", body.as_bytes(), 201)
            .and_then(|b| json(&b))
            .and_then(|j| {
                let id = j.field("id").and_then(|v| v.as_u64());
                let n = j.field("cells").and_then(|v| v.as_u64());
                match (id, n) {
                    (Ok(id), Ok(n)) if n == cells as u64 => Ok(id),
                    _ => Err(format!(
                        "POST /sweeps: bad reply {j}, expected {cells} cells"
                    )),
                }
            });
        self.outcome(r)
    }

    /// Polls `GET /sweeps/{id}` until the job completes; `false` if a poll
    /// fails or the sweep times out.
    pub fn wait(&mut self, id: u64) -> bool {
        let path = format!("/sweeps/{id}");
        let started = Instant::now();
        loop {
            let r = self
                .request("poll", "GET", &path, b"", 200)
                .and_then(|b| json(&b));
            match self.outcome(r) {
                None => return false,
                Some(job) if matches!(job.get("complete"), Some(Json::Bool(true))) => return true,
                Some(_) if started.elapsed() > SWEEP_TIMEOUT => {
                    self.check(false, || {
                        format!("sweep {id} incomplete after {SWEEP_TIMEOUT:?}")
                    });
                    return false;
                }
                Some(_) => std::thread::sleep(POLL_EVERY),
            }
        }
    }

    /// `GET /sweeps/{id}/report?format=csv`.
    pub fn report_csv(&mut self, id: u64) -> Option<String> {
        let path = format!("/sweeps/{id}/report?format=csv");
        let r = self
            .request("report", "GET", &path, b"", 200)
            .and_then(|b| String::from_utf8(b).map_err(|_| format!("{path}: not UTF-8")));
        self.outcome(r)
    }

    /// `GET /sweeps/{id}/report?format=json`.
    pub fn report_json(&mut self, id: u64) -> Option<Json> {
        let path = format!("/sweeps/{id}/report?format=json");
        let r = self
            .request("report", "GET", &path, b"", 200)
            .and_then(|b| json(&b));
        self.outcome(r)
    }

    /// `GET /stats`: the daemon's `(executed, cached)` cell counters.
    pub fn stats(&mut self) -> Option<(u64, u64)> {
        let r = self
            .request("stats", "GET", "/stats", b"", 200)
            .and_then(|b| json(&b))
            .and_then(|j| {
                let counter = |name: &str| {
                    j.field("queue")
                        .and_then(|q| q.field(name))
                        .and_then(|v| v.as_u64())
                };
                match (counter("executed"), counter("cached")) {
                    (Ok(e), Ok(c)) => Ok((e, c)),
                    _ => Err("GET /stats: no queue counters".into()),
                }
            });
        self.outcome(r)
    }

    /// `GET /sweeps`: the number of jobs listed.
    pub fn list(&mut self) -> Option<usize> {
        let r = self
            .request("list", "GET", "/sweeps", b"", 200)
            .and_then(|b| json(&b))
            .and_then(|j| {
                j.as_arr()
                    .map(<[Json]>::len)
                    .map_err(|_| "GET /sweeps: not an array".into())
            });
        self.outcome(r)
    }
}
