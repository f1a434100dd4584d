//! End-to-end checks of `repro serve` through the real binary: golden
//! protocol behaviour over a live socket (including hostile lines that
//! must not kill the daemon), concurrent clients receiving bit-identical
//! simulated output vs the batch path, and the `repro submit` / `serve
//! --check` / signal-shutdown lifecycle with flushed artefacts.
//!
//! Each test runs its own daemon on its own socket in its own scratch
//! dir, so the suite parallelises safely.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

mod common;

use common::{repro, scratch, stderr, stdout};

/// A daemon under test: spawned on its own socket, killed on drop so a
/// failing assertion can't leak processes.
struct DaemonGuard {
    child: Child,
    socket: PathBuf,
    out: PathBuf,
}

impl DaemonGuard {
    fn start(dir: &Path) -> DaemonGuard {
        let socket = dir.join("serve.sock");
        let out = dir.join("serve-out");
        let child = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "serve",
                "--socket",
                socket.to_str().unwrap(),
                "--http",
                "127.0.0.1:0",
                "--out",
                out.to_str().unwrap(),
                "--threads",
                "2",
            ])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn repro serve");
        // The socket file appearing is the readiness signal.
        let t0 = Instant::now();
        while !socket.exists() {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "daemon never bound its socket"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
        DaemonGuard { child, socket, out }
    }

    fn connect(&self) -> UnixStream {
        UnixStream::connect(&self.socket).expect("connect to daemon")
    }

    /// Send one line and collect reply frames until `until` matches a
    /// frame's `"frame"` value (frames are NDJSON, one per line).
    fn roundtrip(&self, line: &str, until: &str) -> Vec<String> {
        let mut stream = self.connect();
        stream.write_all(line.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        stream.flush().unwrap();
        collect_frames(stream, until)
    }

    /// Signal the daemon (SIGTERM) and wait for a clean exit.
    fn terminate_and_wait(mut self) -> i32 {
        Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        let t0 = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("wait daemon") {
                let code = status.code().unwrap_or(-1);
                std::mem::forget(self); // already reaped; skip the kill-on-drop
                return code;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "daemon did not exit after SIGTERM"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for DaemonGuard {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Read frames off a stream until one carries `"frame":"<until>"`.
fn collect_frames(stream: UnixStream, until: &str) -> Vec<String> {
    stream
        .set_read_timeout(Some(Duration::from_secs(300)))
        .unwrap();
    let needle = format!("\"frame\":\"{until}\"");
    let mut frames = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line.expect("read frame");
        let hit = line.contains(&needle);
        frames.push(line);
        if hit {
            break;
        }
    }
    frames
}

/// The string value of `key` in a compact one-line JSON frame. Good
/// enough for the fixed frames the daemon emits; the real parser is
/// exercised by the submit client and the protocol unit tests.
fn frame_str<'a>(frame: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":\"");
    let start = frame.find(&tag)? + tag.len();
    // Table text contains escaped quotes-free content; keys we extract
    // here (frame, message, experiment) never contain escapes.
    let end = frame[start..].find('"')?;
    Some(&frame[start..start + end])
}

#[test]
fn protocol_golden_behaviour_and_hostile_lines() {
    let dir = scratch("serve_protocol");
    let daemon = DaemonGuard::start(&dir);

    // ping → pong with a build identity.
    let frames = daemon.roundtrip(r#"{"op":"ping"}"#, "pong");
    assert_eq!(frames.len(), 1, "{frames:?}");
    assert!(
        frames[0].starts_with(r#"{"frame":"pong","build":""#),
        "{}",
        frames[0]
    );

    // Malformed JSON → error frame, daemon survives.
    let frames = daemon.roundtrip("this is not json", "error");
    assert_eq!(frame_str(&frames[0], "frame"), Some("error"));
    assert!(frames[0].contains("malformed request"), "{}", frames[0]);
    // So is a line nested past the parser's depth cap: an error frame,
    // not a stack overflow that takes the daemon down.
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    let frames = daemon.roundtrip(&deep, "error");
    assert!(frames[0].contains("malformed request"), "{}", frames[0]);

    // Unknown op and unknown experiment → error frames, daemon survives.
    let frames = daemon.roundtrip(r#"{"op":"fly"}"#, "error");
    assert!(frames[0].contains("unknown op"), "{}", frames[0]);
    let frames = daemon.roundtrip(r#"{"op":"run","experiment":"fig99"}"#, "error");
    assert!(frames[0].contains("unknown experiment"), "{}", frames[0]);
    // A scale below 1 would ask for more than the paper platform: the
    // CLI's `--scale` rule applies, so it is refused before `accepted`.
    let frames = daemon.roundtrip(r#"{"op":"run","experiment":"fig1","scale":0.5}"#, "error");
    assert_eq!(frames.len(), 1, "{frames:?}");
    assert!(
        frames[0].contains("finite denominator >= 1"),
        "{}",
        frames[0]
    );

    // Still alive: ping answers, and the stats ledger counted the abuse.
    let frames = daemon.roundtrip(r#"{"op":"ping"}"#, "pong");
    assert_eq!(frame_str(&frames[0], "frame"), Some("pong"));
    let frames = daemon.roundtrip(r#"{"op":"stats"}"#, "stats");
    assert!(
        frames[0].contains(r#""protocol_errors":5"#),
        "stats must count 5 protocol errors: {}",
        frames[0]
    );

    // shutdown op → bye frame, then the process exits 0 on its own.
    let frames = daemon.roundtrip(r#"{"op":"shutdown"}"#, "bye");
    assert_eq!(frames[0], r#"{"frame":"bye"}"#);
    let t0 = Instant::now();
    let mut daemon = daemon;
    let status = loop {
        if let Some(s) = daemon.child.try_wait().expect("wait daemon") {
            break s;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "daemon did not exit after shutdown op"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(0), "clean exit after shutdown op");

    // The flushed event log recorded the client errors.
    let events = std::fs::read_to_string(daemon.out.join("serve-events.tsv"))
        .expect("serve-events.tsv flushed");
    assert!(events.contains("client_error"), "{events}");
    assert!(events.contains("# total\tclient_error\t5"), "{events}");
    std::mem::forget(daemon); // child already reaped
}

#[test]
fn concurrent_clients_get_bit_identical_batch_output() {
    let dir = scratch("serve_concurrent");

    // Ground truth: the batch path's stdout for the same experiment at
    // the same scale. It contains the rendered table verbatim.
    let batch = repro(&["fig1", "--scale", "128", "--no-progress"]);
    assert!(
        batch.status.success(),
        "batch run failed: {}",
        stderr(&batch)
    );
    let batch_stdout = stdout(&batch);

    let daemon = DaemonGuard::start(&dir);
    let run = |sock: PathBuf| {
        std::thread::spawn(move || {
            let mut stream = UnixStream::connect(&sock).expect("connect");
            stream
                .write_all(b"{\"op\":\"run\",\"experiment\":\"fig1\",\"scale\":128}\n")
                .unwrap();
            stream.flush().unwrap();
            collect_frames(stream, "done")
        })
    };
    let a = run(daemon.socket.clone());
    let b = run(daemon.socket.clone());
    let frames_a = a.join().expect("client a");
    let frames_b = b.join().expect("client b");

    for frames in [&frames_a, &frames_b] {
        assert_eq!(
            frame_str(&frames[0], "frame"),
            Some("accepted"),
            "{frames:?}"
        );
        assert!(frames.len() >= 2, "expected progress frames: {frames:?}");
        let done = frames.last().unwrap();
        assert_eq!(frame_str(done, "frame"), Some("done"));
        // The done frame's table must appear verbatim in batch stdout:
        // serving bit-identically reproduces the batch computation.
        let tag = "\"table\":\"";
        let start = done.find(tag).expect("table field") + tag.len();
        let raw = &done[start..done.rfind('"').unwrap()];
        let table = raw
            .replace("\\n", "\n")
            .replace("\\\"", "\"")
            .replace("\\\\", "\\");
        assert!(
            batch_stdout.contains(&table),
            "served table is not byte-identical to batch stdout"
        );
    }
    // Both clients saw the same table (requests 1 and 2 differ only in id).
    let ta = frames_a.last().unwrap().split("\"table\":").nth(1).unwrap();
    let tb = frames_b.last().unwrap().split("\"table\":").nth(1).unwrap();
    assert_eq!(ta, tb, "two clients saw different simulated output");

    // The second request hit the cross-request prepared-workload cache.
    let frames = daemon.roundtrip(r#"{"op":"stats"}"#, "stats");
    let stats = &frames[0];
    assert!(stats.contains(r#""requests_completed":2"#), "{stats}");
    let hits = stats
        .split("\"cache_hits\":")
        .nth(1)
        .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
        .and_then(|s| s.parse::<u64>().ok())
        .expect("cache_hits in stats");
    assert!(
        hits >= 1,
        "expected cross-request cache hits, got {hits}: {stats}"
    );
}

#[test]
fn submit_check_scrape_and_signal_shutdown() {
    let dir = scratch("serve_lifecycle");
    let daemon = DaemonGuard::start(&dir);

    // Batch ground truth for the bit-identical claim on the CLI path.
    let batch = repro(&["fig1", "--scale", "128", "--no-progress"]);
    assert!(batch.status.success());
    let batch_stdout = stdout(&batch);

    // repro submit drives the daemon; its stdout is the table.
    let sub = repro(&[
        "submit",
        daemon.socket.to_str().unwrap(),
        "fig1",
        "--scale",
        "128",
    ]);
    assert!(sub.status.success(), "submit failed: {}", stderr(&sub));
    let table = stdout(&sub);
    assert!(!table.is_empty(), "submit printed no table");
    assert!(
        batch_stdout.contains(&table),
        "submitted table is not byte-identical to batch stdout"
    );
    assert!(stderr(&sub).contains("done in"), "{}", stderr(&sub));

    // Live scrape: per-request labelled series on the HTTP endpoint.
    let addr = std::fs::read_to_string(daemon.out.join("serve.http")).expect("serve.http");
    let addr = addr.trim();
    let scrape = http_get(addr, "/metrics");
    assert!(
        scrape.contains("uvm_serve_requests_completed_total 1"),
        "{scrape}"
    );
    assert!(
        scrape.contains(r#"uvm_serve_request_faults{request="1",experiment="fig1"}"#),
        "per-request series missing from scrape"
    );
    assert!(
        scrape.contains(r#"request="1",experiment="fig1",workload="#),
        "per-point families must carry the request label"
    );
    assert!(http_get(addr, "/healthz").contains("ok"));
    assert!(http_get(addr, "/readyz").contains("ready"));

    // serve --check self-scrape reconciles exposition vs ledger vs disk.
    let check = repro(&["serve", "--check", daemon.socket.to_str().unwrap()]);
    assert!(
        check.status.success(),
        "serve --check drifted: {}{}",
        stdout(&check),
        stderr(&check)
    );
    assert!(
        stdout(&check).contains("serve check ok"),
        "{}",
        stdout(&check)
    );

    // A second scrape: the scrapes counter is monotone across scrapes.
    let scrape2 = http_get(addr, "/metrics");
    let count = |s: &str| -> u64 {
        s.lines()
            .find(|l| l.starts_with("uvm_serve_scrapes_total"))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse::<f64>().ok())
            .map(|v| v as u64)
            .unwrap_or(0)
    };
    assert!(count(&scrape2) > count(&scrape), "scrape counter must grow");

    // SIGTERM → clean exit with flushed service artefacts.
    let out = daemon.out.clone();
    let code = daemon.terminate_and_wait();
    assert_eq!(code, 0, "daemon must exit 0 on SIGTERM");
    for artefact in ["serve-events.tsv", "serve.prom"] {
        assert!(
            out.join(artefact).exists(),
            "{artefact} not flushed on shutdown"
        );
    }
    assert!(out.join("req0001-fig1/table.txt").exists());
    assert!(out.join("req0001-fig1/fig1/metrics.prom").exists());
    let events = std::fs::read_to_string(out.join("serve-events.tsv")).unwrap();
    for kind in [
        "accepted",
        "planned",
        "point_done",
        "artefacts_written",
        "completed",
    ] {
        assert!(
            events.contains(kind),
            "event log missing `{kind}`:\n{events}"
        );
    }
    assert!(events.contains("# dropped\t0"), "{events}");
    // Each kind's payload follows the `ServeEventKind` schema.
    let log = metrics::ServeEventLog::from_tsv(&events).expect("event log reconciles");
    let of = |kind: metrics::ServeEventKind| -> Vec<(u64, u64, u64)> {
        log.events()
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| (e.request, e.a, e.b))
            .collect()
    };
    use metrics::ServeEventKind as K;
    assert_eq!(of(K::Accepted), [(1, 128, 0)], "accepted: a = scale");
    assert_eq!(of(K::Planned), [(1, 128, 0)], "planned: a = scale");
    let done = of(K::PointDone);
    let mut points: Vec<u64> = done.iter().map(|&(_, a, _)| a).collect();
    points.sort_unstable();
    let n = done.len() as u64;
    assert_eq!(
        points,
        (1..=n).collect::<Vec<_>>(),
        "point_done: a = points done"
    );
    let faults = done.iter().map(|&(_, _, b)| b).max().unwrap();
    assert!(faults > 0, "point_done: b = faults so far");
    assert_eq!(
        of(K::Completed),
        [(1, n, faults)],
        "completed: (points, faults)"
    );
    let written = of(K::ArtefactsWritten);
    let files = walk_files(&out.join("req0001-fig1"));
    assert_eq!(written, [(1, files, 0)], "artefacts_written: a = files");
    assert_eq!(
        of(K::Shutdown),
        [(0, 1, 0)],
        "shutdown: (completed, failed)"
    );
    // The final exposition snapshot validates and still carries the
    // completed request's series.
    let prom = std::fs::read_to_string(out.join("serve.prom")).unwrap();
    metrics::exposition::validate(&prom).expect("flushed exposition validates");
    assert!(
        prom.contains(r#"uvm_serve_request_state{request="1",experiment="fig1",state="done"} 1"#)
    );
}

/// Files under `dir`, recursively.
fn walk_files(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| if p.is_dir() { walk_files(&p) } else { 1 })
        .sum()
}

/// Minimal HTTP GET over a raw TcpStream (no client dependencies).
fn http_get(addr: &str, path: &str) -> String {
    let mut stream = std::net::TcpStream::connect(addr).expect("connect http");
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let split = response.find("\r\n\r\n").expect("header/body split");
    assert!(
        response.starts_with("HTTP/1.0 200"),
        "non-200: {}",
        response.lines().next().unwrap_or("")
    );
    response[split + 4..].to_string()
}
