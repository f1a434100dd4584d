//! Property test of `offenders.tsv`: random offender tables render and
//! parse back unchanged, and a row cut short, missing a cell, carrying
//! an extra cell or holding a non-number is an `Err`, never a panic.

#[path = "../../metrics/tests/malformed/mod.rs"]
mod malformed;

use bench::metricsio::{parse_offenders_tsv, render_offenders_tsv, MetricsPoint};
use malformed::{malformed, replace_line};
use metrics::{Attribution, BlockStats, Counters, LineageLog, Offender, Timeseries};
use proptest::collection::vec;
use proptest::prelude::*;

/// A point carrying only what `offenders.tsv` renders.
fn point(workload: &str, offenders: Vec<Offender>) -> MetricsPoint {
    MetricsPoint {
        workload: workload.into(),
        ratio: 1.5,
        policy: "density",
        counters: Counters::default(),
        h2d_bytes: 0,
        d2h_bytes: 0,
        trace_dropped: 0,
        span_dropped: 0,
        total_time_ns: 0,
        timeseries: Timeseries::default(),
        attribution: Attribution::default(),
        top_offenders: offenders,
        lineage: LineageLog::default(),
    }
}

proptest! {
    #[test]
    fn offenders_tsv_round_trips_and_rejects_malformed_rows(
        points in vec(vec(vec(0u64..1 << 62, 4), 0..4), 1..4),
        pick in any::<u64>(),
    ) {
        let points: Vec<MetricsPoint> = points
            .iter()
            .enumerate()
            .map(|(i, blocks)| {
                let offenders = blocks
                    .iter()
                    .map(|v| Offender {
                        block: v[0],
                        stats: BlockStats {
                            refault_faults: v[1],
                            prefetch_evicted_pages: v[2],
                            evictions: v[3],
                        },
                    })
                    .collect();
                point(["regular", "random", "sgemm"][i % 3], offenders)
            })
            .collect();
        let text = render_offenders_tsv(&points);
        let rows = parse_offenders_tsv(&text).expect("valid table parses");
        let want: Vec<(String, Offender)> = points
            .iter()
            .enumerate()
            .flat_map(|(i, p)| p.top_offenders.iter().map(move |&o| (p.file_stem(i), o)))
            .collect();
        let got: Vec<(String, Offender)> =
            rows.into_iter().map(|r| (r.point, r.offender)).collect();
        prop_assert_eq!(got, want.clone());

        prop_assume!(!want.is_empty());
        let index = 1 + pick as usize % want.len();
        let line = text.lines().nth(index).unwrap();
        for bad in malformed(line, '\t', &[1, 2, 3, 4, 5], pick) {
            let doctored = replace_line(&text, index, &bad);
            prop_assert!(parse_offenders_tsv(&doctored).is_err(), "{}", bad);
        }
    }
}
