//! The serve daemon: a Unix-socket request listener, a serial job
//! executor on the existing sweep machinery, and an HTTP sidecar serving
//! the live Prometheus exposition.
//!
//! Threading model: one accept loop (Unix socket), one HTTP loop, one
//! executor, plus a short-lived thread per client connection. Requests
//! execute **serially** in accept order — the sweeps already saturate
//! the rayon pool internally, and a serial executor keeps the simulated
//! output bit-identical to the batch path (the progress sink and metrics
//! drains are process-global). All listeners are non-blocking with
//! ~50–100 ms polls so a shutdown signal is honoured promptly.
//!
//! Lock discipline: [`Shared`] holds several small mutexes (`records`,
//! `queue`, `events`, `recent`); no thread ever holds two at once, so
//! lock ordering cannot deadlock. The event log is a bounded
//! [`ServeEventLog`] — steady-state serving records events without
//! allocating, and overflow is counted, never silently dropped. The
//! service counters are read off the records that already hold them:
//! the event log's exact per-kind totals, the request ledger and the
//! queue; only the scrape count is kept on its own.

use crate::experiments::{self, obs, Scale};
use crate::metricsio::{self, MetricsPoint};
use crate::serve::protocol::{self, Request};
use metrics::exposition::Exposition;
use metrics::sched::SweepSchedStats;
use metrics::serve::{
    ServeEventKind, ServeEventLog, ServeStats, REQUEST_FAULTS, REQUEST_POINTS, REQUEST_POINTS_DONE,
    REQUEST_STATE, REQUEST_WALL_SECONDS, SERVE_REGISTRY,
};
use serde::Value;
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use uvm_sim::SweepCache;

/// How many finished requests keep their full per-point metrics in
/// memory for the live `/metrics` exposition. Older requests age out of
/// the scrape (their artefact `metrics.prom` snapshot remains on disk)
/// but stay in the request ledger.
const RECENT_REQUESTS: usize = 8;

/// Daemon configuration, straight from the `repro serve` CLI.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Unix socket path for the NDJSON request protocol.
    pub socket: PathBuf,
    /// HTTP bind address for /metrics, /healthz, /readyz.
    pub http: String,
    /// Artefact output root.
    pub out: PathBuf,
    /// Scale denominator substituted when a request leaves `scale` out.
    pub default_scale: f64,
    /// Cross-request prepared-workload cache capacity.
    pub cache_capacity: usize,
    /// Bounded event-log capacity.
    pub event_capacity: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            socket: PathBuf::from("repro.sock"),
            http: "127.0.0.1:0".to_string(),
            out: PathBuf::from("serve-out"),
            default_scale: 128.0,
            // Large enough to hold every distinct (seed, workload) of the
            // widest experiment sweep (fig1: 28 points): a sequential
            // re-run of the same experiment must hit, and an LRU smaller
            // than the scan would thrash to zero hits instead.
            cache_capacity: 32,
            event_capacity: 4096,
        }
    }
}

/// Request lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestState {
    /// Accepted, waiting for the executor.
    Queued,
    /// Executing now.
    Running,
    /// Completed; artefacts flushed.
    Done,
    /// Failed (panic, write error, or drained at shutdown).
    Failed,
}

impl RequestState {
    /// Label value for the one-hot `uvm_serve_request_state` gauge.
    pub fn name(self) -> &'static str {
        match self {
            RequestState::Queued => "queued",
            RequestState::Running => "running",
            RequestState::Done => "done",
            RequestState::Failed => "failed",
        }
    }
}

/// One request's ledger entry, live-updated while it runs.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Request id (1-based, in accept order).
    pub id: u64,
    /// Experiment name.
    pub experiment: String,
    /// Scale denominator it runs at.
    pub scale: f64,
    /// Lifecycle state.
    pub state: RequestState,
    /// Sweep points planned (0 until the first progress callback).
    pub points: u64,
    /// Sweep points finished so far.
    pub points_done: u64,
    /// Simulated faults observed so far (final value once done).
    pub faults: u64,
    /// Host wall seconds of the execution (0 until done).
    pub wall_seconds: f64,
    /// Artefact files written.
    pub artefacts: Vec<String>,
}

/// A queued job: the request plus the client stream to answer on.
struct Job {
    id: u64,
    experiment: String,
    scale: f64,
    writer: Arc<Mutex<UnixStream>>,
}

/// A finished request as the live exposition keeps it: id, experiment,
/// per-point metrics and the sweep's scheduler stats.
type FinishedRequest = (u64, String, Vec<MetricsPoint>, SweepSchedStats);

/// State shared by every daemon thread.
pub struct Shared {
    opts: ServeOptions,
    /// `/metrics` scrapes served.
    scrapes: AtomicU64,
    records: Mutex<Vec<RequestRecord>>,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    events: Mutex<ServeEventLog>,
    /// Finished requests' per-point metrics for the live exposition.
    recent: Mutex<VecDeque<FinishedRequest>>,
    cache: Arc<SweepCache>,
    shutdown: AtomicBool,
    started: Instant,
    http_addr: Mutex<String>,
    next_id: AtomicU64,
}

impl Shared {
    fn t_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn note(&self, request: u64, kind: ServeEventKind, a: u64, b: u64) {
        self.events
            .lock()
            .unwrap()
            .record(self.t_ms(), request, kind, a, b);
    }

    /// Ask every loop to wind down.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue_cv.notify_all();
    }

    /// Has a shutdown been requested (by signal or `shutdown` op)?
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The HTTP sidecar's resolved bind address (`ip:port`).
    pub fn http_addr(&self) -> String {
        self.http_addr.lock().unwrap().clone()
    }

    /// Count one `/metrics` scrape (called by the HTTP sidecar).
    pub fn note_scrape(&self) {
        self.scrapes.fetch_add(1, Ordering::Relaxed);
    }

    /// Service-stat snapshot: request and protocol counters from the
    /// event log's per-kind totals (exact even past dropped events), the
    /// active count from the request ledger, the queue depth from the
    /// queue, cache hits/misses from the cache.
    pub fn stats_snapshot(&self) -> ServeStats {
        let total = {
            let events = self.events.lock().unwrap();
            ServeEventKind::ALL.map(|k| events.total(k))
        };
        let running = |r: &&RequestRecord| r.state == RequestState::Running;
        let requests_active = self.records.lock().unwrap().iter().filter(running).count();
        let cache = self.cache.stats();
        ServeStats {
            requests_accepted: total[ServeEventKind::Accepted.index()],
            requests_completed: total[ServeEventKind::Completed.index()],
            requests_failed: total[ServeEventKind::Failed.index()],
            protocol_errors: total[ServeEventKind::ClientError.index()],
            scrapes: self.scrapes.load(Ordering::Relaxed),
            progress_frames: total[ServeEventKind::PointDone.index()],
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            requests_active: requests_active as u64,
            queue_depth: self.queue.lock().unwrap().len() as u64,
            uptime_seconds: self.started.elapsed().as_secs(),
        }
    }

    /// Render the full live Prometheus exposition: build identity, the
    /// service registry, per-request gauges, and the per-point families
    /// of recently finished requests (labelled by `request`/`experiment`
    /// on top of the usual `workload`/`ratio`/`policy`).
    pub fn render_metrics(&self) -> String {
        let mut exp = Exposition::new();
        metricsio::push_build_info(&mut exp);
        exp.push_registry(SERVE_REGISTRY, &[], &self.stats_snapshot());
        for r in self.records.lock().unwrap().iter() {
            let id = r.id.to_string();
            let base = [
                ("request", id.as_str()),
                ("experiment", r.experiment.as_str()),
            ];
            exp.push(&REQUEST_POINTS, &base, r.points as f64);
            exp.push(&REQUEST_POINTS_DONE, &base, r.points_done as f64);
            exp.push(&REQUEST_FAULTS, &base, r.faults as f64);
            exp.push(&REQUEST_WALL_SECONDS, &base, r.wall_seconds);
            let state = [base[0], base[1], ("state", r.state.name())];
            exp.push(&REQUEST_STATE, &state, 1.0);
        }
        for (id, experiment, points, sched) in self.recent.lock().unwrap().iter() {
            let id = id.to_string();
            let extra = [
                ("request", id.as_str()),
                ("experiment", experiment.as_str()),
            ];
            metricsio::push_points(&mut exp, points, Some(sched), &extra);
        }
        exp.render()
    }

    /// The `stats` frame: service counters plus the request ledger.
    pub fn stats_frame(&self) -> String {
        let s = self.stats_snapshot();
        let requests: Vec<Value> = self
            .records
            .lock()
            .unwrap()
            .iter()
            .map(|r| {
                Value::Map(vec![
                    ("request".to_string(), Value::U64(r.id)),
                    ("experiment".to_string(), Value::Str(r.experiment.clone())),
                    ("scale".to_string(), Value::F64(r.scale)),
                    ("state".to_string(), Value::Str(r.state.name().to_string())),
                    ("points".to_string(), Value::U64(r.points)),
                    ("points_done".to_string(), Value::U64(r.points_done)),
                    ("faults".to_string(), Value::U64(r.faults)),
                    ("wall_seconds".to_string(), Value::F64(r.wall_seconds)),
                    (
                        "artefacts".to_string(),
                        Value::Seq(r.artefacts.iter().map(|a| Value::Str(a.clone())).collect()),
                    ),
                ])
            })
            .collect();
        let mut map = vec![
            ("frame".to_string(), Value::Str("stats".to_string())),
            ("build".to_string(), Value::Str(metricsio::build_info())),
            ("http".to_string(), Value::Str(self.http_addr())),
            (
                "out".to_string(),
                Value::Str(self.opts.out.display().to_string()),
            ),
        ];
        // Every service stat, keyed by its family name without the
        // `uvm_serve_` prefix and `_total` suffix (`requests_accepted`).
        map.extend(SERVE_REGISTRY.iter().map(|m| {
            let key = m.def.name.trim_start_matches("uvm_serve_");
            let key = key.trim_end_matches("_total").to_string();
            (key, Value::U64((m.read)(&s)))
        }));
        map.push(("requests".to_string(), Value::Seq(requests)));
        let map = Value::Map(map);
        serde_json::to_string(&map).expect("stats frame serializes")
    }

    fn with_record(&self, id: u64, f: impl FnOnce(&mut RequestRecord)) {
        let mut records = self.records.lock().unwrap();
        if let Some(r) = records.iter_mut().find(|r| r.id == id) {
            f(r);
        }
    }
}

/// A running daemon: shared state plus its service threads.
pub struct Daemon {
    /// Shared state, also handed to signal-driven shutdown.
    pub shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
}

/// Write one frame line to a client, ignoring errors (a vanished client
/// must never take the daemon down).
fn send_line(writer: &Arc<Mutex<UnixStream>>, frame: &str) {
    let mut w = writer.lock().unwrap();
    let _ = w.write_all(frame.as_bytes());
    let _ = w.write_all(b"\n");
    let _ = w.flush();
}

impl Daemon {
    /// Bind the sockets, arm the shared sweep cache, and start the
    /// service threads. The HTTP sidecar's resolved address is written
    /// to `<out>/serve.http` for discovery by scrapers and tests.
    pub fn start(mut opts: ServeOptions) -> std::io::Result<Daemon> {
        std::fs::create_dir_all(&opts.out)?;
        // Absolute artefact paths: `serve --check` reconciles them from
        // whatever cwd the checking client runs in.
        opts.out = std::fs::canonicalize(&opts.out)?;
        // Per-point telemetry sampling on: the request artefacts (sample
        // CSVs, lineage logs, the metrics.prom snapshot) and the live
        // per-request exposition series both come from the drained
        // MetricsPoints. Sim-clock driven, so simulated output stays
        // bit-identical to an unsampled batch run.
        obs::enable_metrics(
            metrics::DEFAULT_SAMPLE_INTERVAL_NS,
            metrics::DEFAULT_SAMPLE_CAPACITY,
        );
        // A stale socket file from a crashed daemon would make bind fail.
        if opts.socket.exists() {
            std::fs::remove_file(&opts.socket)?;
        }
        let unix = UnixListener::bind(&opts.socket)?;
        unix.set_nonblocking(true)?;
        let http = std::net::TcpListener::bind(&opts.http)?;
        http.set_nonblocking(true)?;
        let http_addr = http.local_addr()?.to_string();
        std::fs::write(opts.out.join("serve.http"), format!("{http_addr}\n"))?;

        let cache = Arc::new(SweepCache::new(opts.cache_capacity));
        obs::set_sweep_cache(Some(Arc::clone(&cache)));
        let shared = Arc::new(Shared {
            events: Mutex::new(ServeEventLog::with_capacity(opts.event_capacity)),
            opts,
            scrapes: AtomicU64::new(0),
            records: Mutex::new(Vec::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            recent: Mutex::new(VecDeque::new()),
            cache,
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
            http_addr: Mutex::new(http_addr),
            next_id: AtomicU64::new(1),
        });
        let conns = Arc::new(Mutex::new(Vec::new()));
        let mut threads = Vec::new();
        {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            threads.push(std::thread::spawn(move || accept_loop(unix, shared, conns)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                super::http::http_loop(http, shared)
            }));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || executor_loop(shared)));
        }
        Ok(Daemon {
            shared,
            threads,
            conns,
        })
    }

    /// Wind everything down: stop the loops, drain the queue with error
    /// frames, flush the event log and a final exposition snapshot to
    /// disk, and remove the socket file. Idempotent artefact flush —
    /// everything a completed request wrote is already on disk; this
    /// adds the service-level `serve-events.tsv` + `serve.prom`.
    pub fn shutdown_and_join(self) -> std::io::Result<()> {
        self.shared.request_shutdown();
        for t in self.threads {
            let _ = t.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for t in conns {
            let _ = t.join();
        }
        obs::set_progress_sink(None);
        obs::set_sweep_cache(None);
        let s = self.shared.stats_snapshot();
        self.shared.note(
            0,
            ServeEventKind::Shutdown,
            s.requests_completed,
            s.requests_failed,
        );
        let out = &self.shared.opts.out;
        std::fs::write(
            out.join("serve-events.tsv"),
            self.shared.events.lock().unwrap().to_tsv(),
        )?;
        std::fs::write(out.join("serve.prom"), self.shared.render_metrics())?;
        let _ = std::fs::remove_file(&self.shared.opts.socket);
        Ok(())
    }
}

/// Accept client connections until shutdown.
fn accept_loop(
    listener: UnixListener,
    shared: Arc<Shared>,
    conns: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>>,
) {
    while !shared.shutdown_requested() {
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(&shared);
                let handle = std::thread::spawn(move || conn_loop(stream, shared));
                conns.lock().unwrap().push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(50)),
        }
    }
}

/// Read request lines off one client connection until EOF or shutdown.
fn conn_loop(stream: UnixStream, shared: Arc<Shared>) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let writer = Arc::new(Mutex::new(stream));
    let mut reader = reader;
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        if shared.shutdown_requested() {
            return;
        }
        match reader.read(&mut chunk) {
            Ok(0) => return, // client hung up
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                // Split off every complete line; partial tails survive
                // the next WouldBlock.
                while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
                    let line: Vec<u8> = buf.drain(..=pos).collect();
                    let line = String::from_utf8_lossy(&line[..pos]).into_owned();
                    if line.trim().is_empty() {
                        continue;
                    }
                    if handle_line(&line, &writer, &shared) {
                        return;
                    }
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
    }
}

/// Handle one request line; returns `true` when the connection should
/// close (shutdown acknowledged).
fn handle_line(line: &str, writer: &Arc<Mutex<UnixStream>>, shared: &Arc<Shared>) -> bool {
    match protocol::parse_request(line) {
        Err(msg) => {
            shared.note(0, ServeEventKind::ClientError, 0, 0);
            send_line(writer, &protocol::frame_error(None, &msg));
            false
        }
        Ok(Request::Ping) => {
            send_line(writer, &protocol::frame_pong(&metricsio::build_info()));
            false
        }
        Ok(Request::Stats) => {
            send_line(writer, &shared.stats_frame());
            false
        }
        Ok(Request::Shutdown) => {
            send_line(writer, &protocol::frame_bye());
            shared.request_shutdown();
            true
        }
        Ok(Request::Run { experiment, scale }) => {
            if experiments::find_experiment(&experiment).is_none() {
                shared.note(0, ServeEventKind::ClientError, 0, 0);
                send_line(
                    writer,
                    &protocol::frame_error(
                        None,
                        &format!("unknown experiment `{experiment}` (try `repro list`)"),
                    ),
                );
                return false;
            }
            let scale = if scale > 0.0 {
                scale
            } else {
                shared.opts.default_scale
            };
            let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
            shared.records.lock().unwrap().push(RequestRecord {
                id,
                experiment: experiment.clone(),
                scale,
                state: RequestState::Queued,
                points: 0,
                points_done: 0,
                faults: 0,
                wall_seconds: 0.0,
                artefacts: Vec::new(),
            });
            shared.note(id, ServeEventKind::Accepted, scale as u64, 0);
            send_line(writer, &protocol::frame_accepted(id, &experiment, scale));
            {
                let mut queue = shared.queue.lock().unwrap();
                queue.push_back(Job {
                    id,
                    experiment,
                    scale,
                    writer: Arc::clone(writer),
                });
            }
            shared.queue_cv.notify_one();
            false
        }
    }
}

/// Pop jobs and run them serially until shutdown; drain leftovers with
/// error frames so no client hangs.
fn executor_loop(shared: Arc<Shared>) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown_requested() {
                    break None;
                }
                let (q, _) = shared
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(100))
                    .unwrap();
                queue = q;
            }
        };
        match job {
            Some(job) => run_job(&shared, job),
            None => break,
        }
    }
    // Shutdown drain: everything still queued fails cleanly.
    let leftovers = std::mem::take(&mut *shared.queue.lock().unwrap());
    for job in leftovers {
        shared.with_record(job.id, |r| r.state = RequestState::Failed);
        shared.note(job.id, ServeEventKind::Failed, 0, 0);
        send_line(
            &job.writer,
            &protocol::frame_error(Some(job.id), "daemon shutting down"),
        );
    }
}

/// Execute one request end to end: arm the progress sink, run the
/// experiment on the shared cache, flush artefacts, answer with the
/// rendered table. Panics are contained to the request.
fn run_job(shared: &Arc<Shared>, job: Job) {
    let Job {
        id,
        experiment,
        scale,
        writer,
    } = job;
    shared.with_record(id, |r| r.state = RequestState::Running);
    let f = match experiments::find_experiment(&experiment) {
        Some(f) => f,
        None => unreachable!("validated at accept"),
    };
    // Points planned = sweep size; first progress callback carries it.
    shared.note(id, ServeEventKind::Planned, scale as u64, 0);
    {
        let shared = Arc::clone(shared);
        let writer = Arc::clone(&writer);
        obs::set_progress_sink(Some(Box::new(move |u| {
            shared.with_record(id, |r| {
                r.points = u.total;
                r.points_done = u.done;
                r.faults = u.faults;
            });
            shared.note(id, ServeEventKind::PointDone, u.done, u.faults);
            send_line(
                &writer,
                &protocol::frame_progress(
                    id,
                    u.done,
                    u.total,
                    u.faults,
                    u.faults_per_sec,
                    u.eta_seconds,
                ),
            );
        })));
    }
    // Drain any residue a previous (batch or failed) run left behind so
    // this request's totals are exactly its own.
    experiments::take_sim_totals();
    metrics::sched::take();
    obs::take_metrics_points();
    let t0 = Instant::now();
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        f(Scale {
            fraction: 1.0 / scale,
        })
    }));
    let wall = t0.elapsed().as_secs_f64();
    obs::set_progress_sink(None);
    let totals = experiments::take_sim_totals();
    let sched = metrics::sched::take();
    let points = obs::take_metrics_points();
    match result {
        Ok(artifact) => {
            let dir = shared.opts.out.join(format!("req{id:04}-{experiment}"));
            let write = || -> std::io::Result<Vec<String>> {
                std::fs::create_dir_all(&dir)?;
                let mut written = Vec::new();
                let table_path = dir.join("table.txt");
                std::fs::write(&table_path, artifact.table.render())?;
                written.push(table_path.display().to_string());
                for (file, contents) in &artifact.csvs {
                    let path = dir.join(file);
                    std::fs::write(&path, contents)?;
                    written.push(path.display().to_string());
                }
                for p in metricsio::write_experiment(&dir, &experiment, &points, Some(&sched))? {
                    written.push(p.display().to_string());
                }
                Ok(written)
            };
            let artefacts = match write() {
                Ok(written) => written,
                Err(e) => {
                    fail_job(shared, id, &writer, &format!("artefact write failed: {e}"));
                    return;
                }
            };
            shared.note(
                id,
                ServeEventKind::ArtefactsWritten,
                artefacts.len() as u64,
                0,
            );
            {
                let mut recent = shared.recent.lock().unwrap();
                if recent.len() == RECENT_REQUESTS {
                    recent.pop_front();
                }
                recent.push_back((id, experiment.clone(), points, sched));
            }
            shared.with_record(id, |r| {
                r.state = RequestState::Done;
                r.points = sched.points;
                r.points_done = sched.points;
                r.faults = totals.counters.faults_fetched;
                r.wall_seconds = wall;
                r.artefacts = artefacts.clone();
            });
            shared.note(
                id,
                ServeEventKind::Completed,
                sched.points,
                totals.counters.faults_fetched,
            );
            send_line(
                &writer,
                &protocol::frame_done(
                    id,
                    &experiment,
                    wall,
                    totals.counters.faults_fetched,
                    sched.points,
                    &artefacts,
                    &artifact.table.render(),
                ),
            );
        }
        Err(_) => fail_job(shared, id, &writer, "experiment panicked"),
    }
}

fn fail_job(shared: &Arc<Shared>, id: u64, writer: &Arc<Mutex<UnixStream>>, msg: &str) {
    shared.with_record(id, |r| r.state = RequestState::Failed);
    shared.note(id, ServeEventKind::Failed, 0, 0);
    send_line(writer, &protocol::frame_error(Some(id), msg));
}
