//! Client side of the serve protocol: `repro submit` (drive a request
//! and stream its frames) and `repro serve --check` (self-scrape
//! reconciliation — the live exposition must agree with the daemon's
//! own request ledger *and* with the artefact `metrics.prom` snapshots
//! on disk).

use crate::serve::protocol::{self, f64_field, field, str_field, u64_field};
use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;

/// Send one request line and hand back a frame reader.
fn connect(socket: &Path, line: &str) -> std::io::Result<BufReader<UnixStream>> {
    let mut stream = UnixStream::connect(socket)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    Ok(BufReader::new(stream))
}

/// `repro submit <socket> <experiment>`: run an experiment through the
/// daemon. In `--ndjson` mode every frame is forwarded raw to stdout
/// (machine consumers); otherwise progress goes to stderr and the final
/// table — byte-identical to the batch path — to stdout. Returns the
/// process exit code.
pub fn submit(socket: &Path, experiment: &str, scale: Option<f64>, ndjson: bool) -> i32 {
    let reader = match connect(socket, &protocol::request_run(experiment, scale)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: connect {}: {e}", socket.display());
            return 1;
        }
    };
    for line in reader.lines() {
        let line = match line {
            Ok(l) => l,
            Err(e) => {
                eprintln!("error: read frame: {e}");
                return 1;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        if ndjson {
            println!("{line}");
        }
        let v: Value = match serde_json::from_str(&line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: malformed frame `{line}`: {e}");
                return 1;
            }
        };
        match str_field(&v, "frame") {
            Some("accepted") => {
                if !ndjson {
                    eprintln!(
                        "request {} accepted: {} at scale {}",
                        u64_field(&v, "request").unwrap_or(0),
                        str_field(&v, "experiment").unwrap_or("?"),
                        f64_field(&v, "scale").unwrap_or(0.0),
                    );
                }
            }
            Some("progress") => {
                if !ndjson {
                    eprintln!(
                        "  [{}/{}] {} faults, {:.0} faults/s, ETA {:.1}s",
                        u64_field(&v, "done").unwrap_or(0),
                        u64_field(&v, "total").unwrap_or(0),
                        u64_field(&v, "faults").unwrap_or(0),
                        f64_field(&v, "faults_per_sec").unwrap_or(0.0),
                        f64_field(&v, "eta_seconds").unwrap_or(0.0),
                    );
                }
            }
            Some("done") => {
                if !ndjson {
                    if let Some(table) = str_field(&v, "table") {
                        print!("{table}");
                    }
                    eprintln!(
                        "request {} done in {:.1}s: {} faults, {} artefact(s)",
                        u64_field(&v, "request").unwrap_or(0),
                        f64_field(&v, "wall_seconds").unwrap_or(0.0),
                        u64_field(&v, "faults").unwrap_or(0),
                        match field(&v, "artefacts") {
                            Some(Value::Seq(a)) => a.len(),
                            _ => 0,
                        },
                    );
                }
                return 0;
            }
            Some("error") => {
                eprintln!(
                    "error: {}",
                    str_field(&v, "message").unwrap_or("unknown daemon error")
                );
                return 1;
            }
            other => {
                eprintln!("error: unexpected frame `{}`", other.unwrap_or("?"));
                return 1;
            }
        }
    }
    eprintln!("error: daemon closed the stream without a done frame");
    1
}

/// Ask the daemon to shut down. Returns the process exit code.
pub fn shutdown(socket: &Path) -> i32 {
    let reader = match connect(socket, &protocol::request_op("shutdown")) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: connect {}: {e}", socket.display());
            return 1;
        }
    };
    for line in reader.lines().map_while(Result::ok) {
        if let Ok(v) = serde_json::from_str::<Value>(&line) {
            if str_field(&v, "frame") == Some("bye") {
                eprintln!("daemon acknowledged shutdown");
                return 0;
            }
        }
    }
    eprintln!("error: no shutdown acknowledgement");
    1
}

/// Fetch one frame for a single-op request.
fn one_frame(socket: &Path, op: &str) -> Result<Value, String> {
    let reader = connect(socket, &protocol::request_op(op))
        .map_err(|e| format!("connect {}: {e}", socket.display()))?;
    let mut line = String::new();
    let mut reader = reader;
    reader
        .read_line(&mut line)
        .map_err(|e| format!("read {op} frame: {e}"))?;
    serde_json::from_str(&line).map_err(|e| format!("malformed {op} frame: {e}"))
}

/// GET a path from the daemon's HTTP sidecar over a raw TCP stream.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: {addr}\r\n\r\n").as_bytes())
        .map_err(|e| format!("send GET {path}: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read GET {path}: {e}"))?;
    let Some(split) = response.find("\r\n\r\n") else {
        return Err(format!("GET {path}: no header/body split"));
    };
    if !response.starts_with("HTTP/1.0 200") && !response.starts_with("HTTP/1.1 200") {
        return Err(format!(
            "GET {path}: non-200 status `{}`",
            response.lines().next().unwrap_or("")
        ));
    }
    Ok(response[split + 4..].to_string())
}

/// All samples of `family` in a Prometheus text exposition, as
/// `(label_block, value)` pairs (label block includes the braces, empty
/// for unlabelled samples).
pub fn prom_values(text: &str, family: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let name_end = series.find('{').unwrap_or(series.len());
        if &series[..name_end] != family {
            continue;
        }
        if let Ok(v) = value.parse::<f64>() {
            out.push((series[name_end..].to_string(), v));
        }
    }
    out
}

/// The value of `family` whose label block contains `needle` (e.g.
/// `request="3"`).
fn prom_value_with(text: &str, family: &str, needle: &str) -> Option<f64> {
    prom_values(text, family)
        .into_iter()
        .find(|(labels, _)| labels.contains(needle))
        .map(|(_, v)| v)
}

/// Monotone service counters that must not move backwards between a
/// stats frame and a scrape taken after it.
const MONOTONE: &[(&str, &str)] = &[
    ("uvm_serve_requests_accepted_total", "requests_accepted"),
    ("uvm_serve_requests_completed_total", "requests_completed"),
    ("uvm_serve_requests_failed_total", "requests_failed"),
    ("uvm_serve_protocol_errors_total", "protocol_errors"),
    ("uvm_serve_scrapes_total", "scrapes"),
    ("uvm_serve_progress_frames_total", "progress_frames"),
];

/// Reconcile one scrape against two bracketing stats frames and the
/// on-disk artefacts. Returns the list of drift findings (empty = ok).
/// Pure over its inputs, so the unit tests can feed synthetic frames.
pub fn reconcile(before: &Value, scrape: &str, after: &Value) -> Vec<String> {
    let mut drift = Vec::new();
    if let Err(e) = metrics::exposition::validate(scrape) {
        drift.push(format!("scrape fails exposition validation: {e}"));
    }
    for (family, key) in MONOTONE {
        let a = u64_field(before, key).unwrap_or(0) as f64;
        let b = u64_field(after, key).unwrap_or(0) as f64;
        let Some(v) = prom_value_with(scrape, family, "") else {
            drift.push(format!("scrape has no `{family}` sample"));
            continue;
        };
        // The scrape happened between the two stats frames, so every
        // monotone counter must land in [before, after].
        if v < a || v > b {
            drift.push(format!(
                "{family} = {v} outside its stats bracket [{a}, {b}]"
            ));
        }
    }
    match prom_value_with(scrape, "uvm_build_info", "") {
        Some(1.0) => {}
        Some(v) => drift.push(format!("uvm_build_info = {v}, want 1")),
        None => drift.push("scrape has no uvm_build_info sample".to_string()),
    }
    // Per-request gauges: completed requests' scraped series must equal
    // the ledger exactly (they are final once the request is done).
    if let Some(Value::Seq(requests)) = field(before, "requests") {
        for r in requests {
            if str_field(r, "state") != Some("done") {
                continue;
            }
            let id = u64_field(r, "request").unwrap_or(0);
            let needle = format!("request=\"{id}\"");
            for (family, key) in [
                ("uvm_serve_request_faults", "faults"),
                ("uvm_serve_request_points_done", "points_done"),
                ("uvm_serve_request_points", "points"),
            ] {
                let want = u64_field(r, key).unwrap_or(0) as f64;
                match prom_value_with(scrape, family, &needle) {
                    Some(v) if v == want => {}
                    Some(v) => {
                        drift.push(format!("{family}{{{needle}}} = {v}, ledger says {want}"))
                    }
                    None => drift.push(format!("scrape has no {family}{{{needle}}}")),
                }
            }
        }
    }
    drift
}

/// Reconcile a done request's ledger faults against its artefact
/// exposition on disk: the summed `uvm_faults_fetched_total` across the
/// request's points must equal the ledger total exactly.
fn reconcile_artefacts(record: &Value) -> Vec<String> {
    let mut drift = Vec::new();
    let id = u64_field(record, "request").unwrap_or(0);
    let Some(Value::Seq(artefacts)) = field(record, "artefacts") else {
        return vec![format!("request {id}: ledger has no artefact list")];
    };
    let Some(prom) = artefacts.iter().find_map(|a| match a {
        Value::Str(p) if p.ends_with(crate::metricsio::EXPERIMENT_MARKER) => Some(p.clone()),
        _ => None,
    }) else {
        return vec![format!("request {id}: no metrics.prom artefact")];
    };
    match std::fs::read_to_string(&prom) {
        Ok(text) => {
            let want = u64_field(record, "faults").unwrap_or(0) as f64;
            let got: f64 = prom_values(&text, "uvm_faults_fetched_total")
                .iter()
                .map(|(_, v)| v)
                .sum();
            if got != want {
                drift.push(format!(
                    "request {id}: artefact faults {got} != ledger faults {want} ({prom})"
                ));
            }
        }
        Err(e) => drift.push(format!("request {id}: read {prom}: {e}")),
    }
    drift
}

/// `repro serve --check <socket>`: self-scrape the daemon and reconcile
/// the live exposition against the request ledger and on-disk
/// artefacts. Exits 0 when everything agrees, 1 on any drift.
pub fn check(socket: &Path) -> i32 {
    let before = match one_frame(socket, "stats") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let Some(addr) = str_field(&before, "http").map(str::to_string) else {
        eprintln!("error: stats frame has no `http` address");
        return 1;
    };
    let scrape = match http_get(&addr, "/metrics") {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let after = match one_frame(socket, "stats") {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {e}");
            return 1;
        }
    };
    let mut drift = reconcile(&before, &scrape, &after);
    if let Some(Value::Seq(requests)) = field(&before, "requests") {
        for r in requests {
            if str_field(r, "state") == Some("done") {
                drift.extend(reconcile_artefacts(r));
            }
        }
    }
    let families = scrape.lines().filter(|l| l.starts_with("# TYPE")).count();
    let done = match field(&before, "requests") {
        Some(Value::Seq(rs)) => rs
            .iter()
            .filter(|r| str_field(r, "state") == Some("done"))
            .count(),
        _ => 0,
    };
    if drift.is_empty() {
        println!(
            "serve check ok: {families} exposition families, {done} completed request(s) \
             reconciled against the live scrape and on-disk artefacts"
        );
        0
    } else {
        for d in &drift {
            eprintln!("drift: {d}");
        }
        eprintln!("serve check FAILED: {} finding(s)", drift.len());
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(accepted: u64, completed: u64, scrapes: u64, requests: Vec<Value>) -> Value {
        Value::Map(vec![
            ("frame".to_string(), Value::Str("stats".to_string())),
            ("requests_accepted".to_string(), Value::U64(accepted)),
            ("requests_completed".to_string(), Value::U64(completed)),
            ("requests_failed".to_string(), Value::U64(0)),
            ("protocol_errors".to_string(), Value::U64(0)),
            ("scrapes".to_string(), Value::U64(scrapes)),
            ("progress_frames".to_string(), Value::U64(0)),
            ("requests".to_string(), Value::Seq(requests)),
        ])
    }

    fn done_request(id: u64, faults: u64, points: u64) -> Value {
        Value::Map(vec![
            ("request".to_string(), Value::U64(id)),
            ("state".to_string(), Value::Str("done".to_string())),
            ("faults".to_string(), Value::U64(faults)),
            ("points".to_string(), Value::U64(points)),
            ("points_done".to_string(), Value::U64(points)),
        ])
    }

    fn scrape_for(id: u64, faults: u64, points: u64, scrapes: u64) -> String {
        format!(
            "# HELP uvm_build_info x\n# TYPE uvm_build_info gauge\n\
             uvm_build_info{{version=\"0\",git=\"x\"}} 1\n\
             # HELP uvm_serve_requests_accepted_total x\n# TYPE uvm_serve_requests_accepted_total counter\n\
             uvm_serve_requests_accepted_total 1\n\
             # HELP uvm_serve_requests_completed_total x\n# TYPE uvm_serve_requests_completed_total counter\n\
             uvm_serve_requests_completed_total 1\n\
             # HELP uvm_serve_requests_failed_total x\n# TYPE uvm_serve_requests_failed_total counter\n\
             uvm_serve_requests_failed_total 0\n\
             # HELP uvm_serve_protocol_errors_total x\n# TYPE uvm_serve_protocol_errors_total counter\n\
             uvm_serve_protocol_errors_total 0\n\
             # HELP uvm_serve_scrapes_total x\n# TYPE uvm_serve_scrapes_total counter\n\
             uvm_serve_scrapes_total {scrapes}\n\
             # HELP uvm_serve_progress_frames_total x\n# TYPE uvm_serve_progress_frames_total counter\n\
             uvm_serve_progress_frames_total 0\n\
             # HELP uvm_serve_request_points x\n# TYPE uvm_serve_request_points gauge\n\
             uvm_serve_request_points{{request=\"{id}\",experiment=\"fig1\"}} {points}\n\
             # HELP uvm_serve_request_points_done x\n# TYPE uvm_serve_request_points_done gauge\n\
             uvm_serve_request_points_done{{request=\"{id}\",experiment=\"fig1\"}} {points}\n\
             # HELP uvm_serve_request_faults x\n# TYPE uvm_serve_request_faults gauge\n\
             uvm_serve_request_faults{{request=\"{id}\",experiment=\"fig1\"}} {faults}\n"
        )
    }

    #[test]
    fn prom_values_parses_labelled_and_bare_series() {
        let text = "a_total 3\na_total{x=\"1\"} 4\nb 5\n";
        assert_eq!(
            prom_values(text, "a_total"),
            vec![(String::new(), 3.0), ("{x=\"1\"}".to_string(), 4.0)]
        );
        assert_eq!(prom_values(text, "b"), vec![(String::new(), 5.0)]);
        assert!(prom_values(text, "a").is_empty(), "prefix must not match");
    }

    #[test]
    fn reconcile_accepts_agreeing_snapshots() {
        let before = stats(1, 1, 4, vec![done_request(1, 4096, 8)]);
        let after = stats(1, 1, 6, vec![done_request(1, 4096, 8)]);
        let scrape = scrape_for(1, 4096, 8, 5);
        assert_eq!(reconcile(&before, &scrape, &after), Vec::<String>::new());
    }

    #[test]
    fn reconcile_flags_fault_drift_and_bracket_violations() {
        let before = stats(1, 1, 4, vec![done_request(1, 4096, 8)]);
        let after = stats(1, 1, 6, vec![done_request(1, 4096, 8)]);
        // Faults drifted by one; scrape counter outside its bracket.
        let scrape = scrape_for(1, 4095, 8, 9);
        let drift = reconcile(&before, &scrape, &after);
        assert!(
            drift.iter().any(|d| d.contains("uvm_serve_request_faults")),
            "{drift:?}"
        );
        assert!(
            drift.iter().any(|d| d.contains("uvm_serve_scrapes_total")),
            "{drift:?}"
        );
    }

    #[test]
    fn reconcile_flags_missing_request_series() {
        let before = stats(1, 1, 4, vec![done_request(2, 10, 2)]);
        let after = stats(1, 1, 6, vec![done_request(2, 10, 2)]);
        let scrape = scrape_for(1, 10, 2, 5); // series for request 1, ledger has 2
        let drift = reconcile(&before, &scrape, &after);
        assert!(
            drift.iter().any(|d| d.contains("request=\"2\"")),
            "{drift:?}"
        );
    }
}
