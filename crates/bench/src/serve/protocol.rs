//! The `repro serve` wire protocol: line-delimited JSON over a Unix
//! socket. One request per line in, a stream of NDJSON frames out.
//!
//! Requests are parsed *tolerantly* from the generic [`Value`] tree (the
//! vendored derive has no field defaults, and a daemon must survive any
//! client): unknown `op`s and missing fields produce an error string —
//! and an `error` frame on the wire — never a panic or a dropped
//! connection. Outgoing frames are hand-assembled `Value::Map`s rendered
//! through [`serde_json::to_string`], so field order is fixed and the
//! golden tests below can pin exact bytes.
//!
//! Frame grammar (the `frame` key always comes first):
//!
//! | frame      | sent when                                            |
//! |------------|------------------------------------------------------|
//! | `accepted` | a `run` request was validated and queued             |
//! | `progress` | a sweep point finished (live faults/s + ETA)         |
//! | `done`     | the request completed; carries the rendered table    |
//! | `error`    | the request failed or could not be parsed            |
//! | `pong`     | reply to `ping`; carries the build identity          |
//! | `stats`    | reply to `stats`; service counters + request ledger  |
//! | `bye`      | reply to `shutdown`, sent before the daemon exits    |

use serde::Value;

/// A parsed client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run `experiment` at 1/`scale` of the paper platform. `scale` is
    /// 0.0 when the client left it out; the daemon substitutes its
    /// `--scale` default.
    Run {
        /// Experiment name (must exist in `experiments::EXPERIMENTS`).
        experiment: String,
        /// Scale denominator; 0.0 = use the daemon default.
        scale: f64,
    },
    /// Ask for the service counters and request ledger.
    Stats,
    /// Liveness check; answered with `pong` + build identity.
    Ping,
    /// Ask the daemon to shut down cleanly.
    Shutdown,
}

/// Find `key` in a JSON object.
pub fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Map(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Find `key` and read it as a string.
pub fn str_field<'v>(v: &'v Value, key: &str) -> Option<&'v str> {
    match field(v, key) {
        Some(Value::Str(s)) => Some(s),
        _ => None,
    }
}

/// Find `key` and read it as an unsigned integer.
pub fn u64_field(v: &Value, key: &str) -> Option<u64> {
    match field(v, key) {
        Some(Value::U64(n)) => Some(*n),
        Some(Value::I64(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Find `key` and read it as a float (integers widen).
pub fn f64_field(v: &Value, key: &str) -> Option<f64> {
    match field(v, key) {
        Some(Value::F64(x)) => Some(*x),
        Some(Value::U64(n)) => Some(*n as f64),
        Some(Value::I64(n)) => Some(*n as f64),
        _ => None,
    }
}

/// Parse one request line. Every failure mode maps to a human-readable
/// error string the daemon echoes back in an `error` frame.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let v: Value =
        serde_json::from_str(line.trim()).map_err(|e| format!("malformed request: {}", e))?;
    let op = match str_field(&v, "op") {
        Some(op) => op,
        None => return Err("request has no string `op` field".to_string()),
    };
    match op {
        "run" => {
            let experiment = match str_field(&v, "experiment") {
                Some(e) if !e.is_empty() => e.to_string(),
                _ => return Err("run request has no `experiment` field".to_string()),
            };
            let scale = match field(&v, "scale") {
                None => 0.0,
                Some(_) => match f64_field(&v, "scale") {
                    Some(s) if s.is_finite() && s >= 1.0 => s,
                    _ => {
                        return Err(
                            "run request `scale` must be a finite denominator >= 1".to_string()
                        )
                    }
                },
            };
            Ok(Request::Run { experiment, scale })
        }
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op `{other}`")),
    }
}

fn render(entries: Vec<(&str, Value)>) -> String {
    let map = Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    );
    serde_json::to_string(&map).expect("frame serializes")
}

/// `run` request line for clients (the inverse of [`parse_request`]).
pub fn request_run(experiment: &str, scale: Option<f64>) -> String {
    let mut entries = vec![
        ("op", Value::Str("run".to_string())),
        ("experiment", Value::Str(experiment.to_string())),
    ];
    if let Some(s) = scale {
        entries.push(("scale", Value::F64(s)));
    }
    render(entries)
}

/// Single-op request line (`stats`/`ping`/`shutdown`).
pub fn request_op(op: &str) -> String {
    render(vec![("op", Value::Str(op.to_string()))])
}

/// The request was validated and queued.
pub fn frame_accepted(request: u64, experiment: &str, scale: f64) -> String {
    render(vec![
        ("frame", Value::Str("accepted".to_string())),
        ("request", Value::U64(request)),
        ("experiment", Value::Str(experiment.to_string())),
        ("scale", Value::F64(scale)),
    ])
}

/// A sweep point finished; live telemetry for the request.
pub fn frame_progress(
    request: u64,
    done: u64,
    total: u64,
    faults: u64,
    faults_per_sec: f64,
    eta_seconds: f64,
) -> String {
    render(vec![
        ("frame", Value::Str("progress".to_string())),
        ("request", Value::U64(request)),
        ("done", Value::U64(done)),
        ("total", Value::U64(total)),
        ("faults", Value::U64(faults)),
        ("faults_per_sec", Value::F64(faults_per_sec)),
        ("eta_seconds", Value::F64(eta_seconds)),
    ])
}

/// The request completed. `table` is the rendered experiment table —
/// byte-identical to what the batch `repro <experiment>` path prints,
/// which is how clients (and the gate tests) check determinism.
pub fn frame_done(
    request: u64,
    experiment: &str,
    wall_seconds: f64,
    faults: u64,
    points: u64,
    artefacts: &[String],
    table: &str,
) -> String {
    render(vec![
        ("frame", Value::Str("done".to_string())),
        ("request", Value::U64(request)),
        ("experiment", Value::Str(experiment.to_string())),
        ("wall_seconds", Value::F64(wall_seconds)),
        ("faults", Value::U64(faults)),
        ("points", Value::U64(points)),
        (
            "artefacts",
            Value::Seq(artefacts.iter().map(|a| Value::Str(a.clone())).collect()),
        ),
        ("table", Value::Str(table.to_string())),
    ])
}

/// The request failed, or the line could not be parsed (no `request`).
pub fn frame_error(request: Option<u64>, message: &str) -> String {
    let mut entries = vec![("frame", Value::Str("error".to_string()))];
    if let Some(id) = request {
        entries.push(("request", Value::U64(id)));
    }
    entries.push(("message", Value::Str(message.to_string())));
    render(entries)
}

/// Liveness reply; `build` is `metricsio::build_info()`.
pub fn frame_pong(build: &str) -> String {
    render(vec![
        ("frame", Value::Str("pong".to_string())),
        ("build", Value::Str(build.to_string())),
    ])
}

/// Shutdown acknowledgement, sent before the daemon exits.
pub fn frame_bye() -> String {
    render(vec![("frame", Value::Str("bye".to_string()))])
}

#[cfg(test)]
mod tests {
    use super::*;

    // Golden framing: the vendored serde_json renders compact JSON with
    // no spaces and maps in insertion order, so these pin exact bytes.
    // A frame change that breaks a deployed scraper breaks here first.
    #[test]
    fn golden_request_lines() {
        assert_eq!(
            request_run("fig1", Some(128.0)),
            r#"{"op":"run","experiment":"fig1","scale":128.0}"#
        );
        assert_eq!(
            request_run("table2", None),
            r#"{"op":"run","experiment":"table2"}"#
        );
        assert_eq!(request_op("ping"), r#"{"op":"ping"}"#);
        assert_eq!(request_op("shutdown"), r#"{"op":"shutdown"}"#);
    }

    #[test]
    fn golden_frames() {
        assert_eq!(
            frame_accepted(1, "fig1", 128.0),
            r#"{"frame":"accepted","request":1,"experiment":"fig1","scale":128.0}"#
        );
        assert_eq!(
            frame_progress(1, 2, 8, 4096, 1000.5, 3.0),
            concat!(
                r#"{"frame":"progress","request":1,"done":2,"total":8,"#,
                r#""faults":4096,"faults_per_sec":1000.5,"eta_seconds":3.0}"#
            )
        );
        assert_eq!(
            frame_done(1, "fig1", 2.5, 4096, 8, &["a.csv".to_string()], "row\n"),
            concat!(
                r#"{"frame":"done","request":1,"experiment":"fig1","wall_seconds":2.5,"#,
                r#""faults":4096,"points":8,"artefacts":["a.csv"],"table":"row\n"}"#
            )
        );
        assert_eq!(
            frame_error(Some(3), "boom"),
            r#"{"frame":"error","request":3,"message":"boom"}"#
        );
        assert_eq!(
            frame_error(None, "bad line"),
            r#"{"frame":"error","message":"bad line"}"#
        );
        assert_eq!(
            frame_pong("0.1.0+gabc"),
            r#"{"frame":"pong","build":"0.1.0+gabc"}"#
        );
        assert_eq!(frame_bye(), r#"{"frame":"bye"}"#);
    }

    #[test]
    fn requests_roundtrip_through_parse() {
        assert_eq!(
            parse_request(&request_run("fig1", Some(128.0))),
            Ok(Request::Run {
                experiment: "fig1".to_string(),
                scale: 128.0
            })
        );
        assert_eq!(
            parse_request(&request_run("fig1", None)),
            Ok(Request::Run {
                experiment: "fig1".to_string(),
                scale: 0.0
            })
        );
        // Integer scale widens.
        assert_eq!(
            parse_request(r#"{"op":"run","experiment":"fig1","scale":64}"#),
            Ok(Request::Run {
                experiment: "fig1".to_string(),
                scale: 64.0
            })
        );
        assert_eq!(parse_request(&request_op("stats")), Ok(Request::Stats));
        assert_eq!(parse_request(&request_op("ping")), Ok(Request::Ping));
        assert_eq!(
            parse_request(&request_op("shutdown")),
            Ok(Request::Shutdown)
        );
    }

    #[test]
    fn hostile_lines_become_errors_not_panics() {
        for (line, needle) in [
            ("not json", "malformed request"),
            ("{}", "no string `op`"),
            (r#"{"op":42}"#, "no string `op`"),
            (r#"{"op":"fly"}"#, "unknown op `fly`"),
            (r#"{"op":"run"}"#, "no `experiment`"),
            (r#"{"op":"run","experiment":""}"#, "no `experiment`"),
            (
                r#"{"op":"run","experiment":"fig1","scale":"big"}"#,
                "finite denominator >= 1",
            ),
            (
                r#"{"op":"run","experiment":"fig1","scale":-2}"#,
                "finite denominator >= 1",
            ),
            (
                r#"{"op":"run","experiment":"fig1","scale":0}"#,
                "finite denominator >= 1",
            ),
            (
                r#"{"op":"run","experiment":"fig1","scale":0.5}"#,
                "finite denominator >= 1",
            ),
        ] {
            let err = parse_request(line).expect_err(line);
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn table_text_with_newlines_survives_framing() {
        let table = "col_a  col_b\n1.000  2.000\n";
        let frame = frame_done(7, "fig3", 0.1, 10, 2, &[], table);
        assert!(
            !frame.contains('\n'),
            "frames must be single lines: {frame}"
        );
        let v: Value = serde_json::from_str(&frame).unwrap();
        assert_eq!(str_field(&v, "table"), Some(table));
        assert_eq!(u64_field(&v, "request"), Some(7));
        assert_eq!(f64_field(&v, "wall_seconds"), Some(0.1));
    }
}
