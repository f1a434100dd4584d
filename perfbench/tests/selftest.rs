//! Self-tests of the benchmark: its fidelity arithmetic, its ratio
//! metrics at zero denominators, and a 1/128-scale smoke run of every
//! workload that checks the emitted metrics against `BENCHMARK.json`.

use bench::Scale;
use metrics::Counters;
use serde::Value;
use std::path::{Path, PathBuf};
use uvm_perfbench::*;
use uvm_sim::SweepCache;

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}"))
}

#[test]
fn table1_err_matches_a_hand_computed_row() {
    // `repro table1 --scale 16` at the default seed, rounded to 0.01.
    let row = [88.25, 96.96, 91.55, 79.62, 85.19, 69.11, 62.31, 72.50];
    // |gaps| = 5.95 1.04 5.05 4.78 4.91 2.11 1.79 1.40, summing to 27.03.
    assert!((table1_err_pp(&row) - 27.03 / 8.0).abs() < 1e-9);
    assert_eq!(table1_err_pp(&TABLE1_PAPER_PCT), 0.0);

    let faults = |n| Counters {
        faults_fetched: n,
        ..Counters::default()
    };
    let got = table1_reductions(&[
        faults(1000),
        faults(100),
        faults(0),
        faults(0),
        faults(8),
        faults(8),
    ]);
    assert_eq!(got, vec![90.0, 0.0, 0.0]);
}

fn empty_measurement() -> Measurement {
    Measurement {
        setup: Vec::new(),
        reps: Vec::new(),
        reference: Vec::new(),
        cache: SweepCache::new(1),
        tally: Tally::default(),
    }
}

#[test]
fn ratio_metrics_are_zero_when_their_denominator_is() {
    assert_eq!(ratio(5.0, 0.0), 0.0);
    assert_eq!(ratio(6.0, 3.0), 2.0);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);

    let m = empty_measurement();
    let traced = TracedPass::default();
    let layer = per_layer(&m, &traced);
    for metric in &layer {
        let v = metric.value.expect("not withheld");
        assert!(v.is_finite(), "{} = {v}", metric.name);
        assert_eq!(v, 0.0, "{} with nothing measured", metric.name);
    }
    let e2e = end_to_end(&m, 1.0, 2.0);
    assert_eq!(
        e2e.iter().find(|x| x.name == "faults_per_s").unwrap().value,
        Some(0.0)
    );

    // A diverged mirror withholds every layer number.
    let diverged = TracedPass {
        diverged: true,
        ..traced
    };
    let layer = per_layer(&m, &diverged);
    assert!(layer.iter().all(|x| x.value.is_none()));
    let json = result_json(&Tally::default(), &layer);
    assert!(json.contains("\"gpu_model.run_ns\": {\"value\": \"diverged\", \"unit\": \"ns\"}"));
}

#[test]
fn a_wrong_pinned_digest_fails_every_point() {
    let mut set = PointSet::new(BenchWorkload::Fig1, Scale::QUICK, DEFAULT_SEED);
    set.points.truncate(2);
    let m = measure(&set, 0.0, 2, Some(0), &scratch("pinned"));
    assert_eq!(m.tally.attempted, 4);
    assert_eq!(m.tally.failed, 4);
    let right = set_digest(
        &m.reference
            .iter()
            .cloned()
            .map(Option::unwrap)
            .collect::<Vec<_>>(),
    );
    let m = measure(&set, 0.0, 2, Some(right), &scratch("pinned"));
    assert_eq!(m.tally.failed, 0, "{:?}", m.tally.reasons);
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let field = |v: &Value, key: &str| match v {
        Value::Map(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone()),
        _ => None,
    };
    let Some(Value::Seq(items)) = field(&doc, section) else {
        panic!("BENCHMARK.json has no {section} list")
    };
    items
        .iter()
        .map(|item| match (field(item, "name"), field(item, "unit")) {
            (Some(Value::Str(n)), Some(Value::Str(u))) => (n, u),
            other => panic!("{section} entry without name and unit: {other:?}"),
        })
        .collect()
}

fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
    table
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn declared_metrics_match_benchmark_json() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
}

#[test]
fn smoke_every_workload_at_1_128() {
    for workload in BenchWorkload::ALL {
        let name = workload.name();
        let dir = scratch(name);
        let set = PointSet::new(workload, Scale::QUICK, DEFAULT_SEED);
        let mut m = measure(&set, 0.0, 2, None, &dir);
        assert_eq!(m.reps.len(), 2);

        let err = table1_err_for(&set, &mut m, Scale::QUICK, DEFAULT_SEED);
        let e2e = end_to_end(&m, peak_rss_mb(), err);
        let pairs: Vec<(String, String)> = e2e
            .iter()
            .map(|x| (x.name.to_string(), x.unit.to_string()))
            .collect();
        assert_eq!(pairs, owned(END_TO_END), "{name}");
        for x in &e2e {
            let v = x.value.unwrap();
            assert!(v.is_finite() && v > 0.0, "{name}: {} = {v}", x.name);
        }

        let traced = trace_workload(&set, &mut m, &dir);
        assert!(
            !traced.diverged,
            "{name}: mirror diverged: {:?}",
            m.tally.reasons
        );
        assert_eq!(m.tally.failed, 0, "{name}: {:?}", m.tally.reasons);
        let layer = per_layer(&m, &traced);
        let pairs: Vec<(String, String)> = layer
            .iter()
            .map(|x| (x.name.to_string(), x.unit.to_string()))
            .collect();
        assert_eq!(pairs, owned(PER_LAYER), "{name}");
        let value = |n: &str| layer.iter().find(|x| x.name == n).unwrap().value.unwrap();
        assert!(layer.iter().all(|x| x.value.unwrap().is_finite()), "{name}");
        assert!(
            value("gpu_model.run_ns") > 0.0 && value("uvm_driver.pass_ns") > 0.0,
            "{name}"
        );
        if set.records() {
            assert!(value("bench.bytes_written") > 0.0 && value("metrics.events_recorded") > 0.0);
            assert!(dir.join("thrash_rec/metrics.prom").is_file());
            assert!(dir.join("trace.json").is_file());
        } else {
            assert_eq!(value("metrics.recorder_ns"), 0.0, "{name}");
            assert_eq!(value("bench.write_ns"), 0.0, "{name}");
        }
        let json = result_json(&m.tally, &layer);
        assert!(
            json.starts_with("{\"correct\": true, \"attempted\": "),
            "{json}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
