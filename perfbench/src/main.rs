//! `perfbench` — the repository benchmark's command line.
//!
//! ```text
//! perfbench --workload <fig1_s16|apps_s16|thrash_rec_s16> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Repeats the workload's set-up and untraced sweep for `--seconds`, and with `--trace 1` adds one traced pass. Prints a
//! summary on stderr and, as the last line of stdout, one JSON object:
//! `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits 1 when any
//! point failed its checks, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;
use uvm_perfbench::*;

const USAGE: &str = "usage: perfbench --workload <fig1_s16|apps_s16|thrash_rec_s16> \
[--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: BenchWorkload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: BenchWorkload::Fig1,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(BenchWorkload::from_name(value).ok_or_else(bad)?);
            }
            "--seed" => parsed.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                parsed.seconds = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&parsed.seconds) {
                    return Err(bad());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = bench::Scale::DEFAULT;
    let name = args.workload.name();
    let pinned = (args.seed == DEFAULT_SEED).then(|| args.workload.pinned_digest());
    // Artefacts of the recording workload go to a scratch directory in
    // the working directory, removed before exit.
    let dir = PathBuf::from(".bench_out").join(std::process::id().to_string());

    let set = PointSet::new(args.workload, scale, args.seed);
    let mut m = measure(&set, args.seconds, 3, pinned, &dir);
    let rss = peak_rss_mb();
    let metrics = if args.trace {
        let traced = trace_workload(&set, &mut m, &dir);
        if traced.diverged {
            eprintln!(
                "{name}: the traced mirror diverged from run_prepared; layer numbers withheld"
            );
        }
        per_layer(&m, &traced)
    } else {
        let err = table1_err_for(&set, &mut m, scale, args.seed);
        end_to_end(&m, rss, err)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_out");

    let digest: Option<Vec<_>> = m.reference.iter().cloned().collect();
    eprintln!(
        "{name}: seed {} · {} points × {} reps · {} sweep thread(s) · set digest {}",
        args.seed,
        set.points.len(),
        m.reps.len(),
        set.threads,
        digest.map_or("none".into(), |f| format!("{:#018x}", set_digest(&f))),
    );
    let walls: Vec<String> = m
        .reps
        .iter()
        .map(|r| format!("{:.3}/{:.3}", r.sweep.as_secs_f64(), r.wall.as_secs_f64()))
        .collect();
    eprintln!("  repetitions (sweep/wall s): {}", walls.join(" "));
    let mut setup: Vec<f64> = m.setup.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    setup.sort_by(f64::total_cmp);
    eprintln!(
        "  set-up: {} repetitions, min {:.3} / median {:.3} / max {:.3} ms",
        setup.len(),
        setup[0],
        median(&setup),
        setup[setup.len() - 1]
    );
    for metric in &metrics {
        match metric.value {
            Some(v) => eprintln!("  {:<32} {v:>16.4} {}", metric.name, metric.unit),
            None => eprintln!("  {:<32} {:>16} {}", metric.name, "diverged", metric.unit),
        }
    }
    for reason in &m.tally.reasons {
        eprintln!("  FAILED: {reason}");
    }
    println!("{}", result_json(&m.tally, &metrics));
    if m.tally.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
