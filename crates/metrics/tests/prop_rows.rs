//! Property tests of the four row formats the metrics crate owns (the
//! sample CSV, `.lineage`, `oversub.tsv`, `serve-events.tsv`): random
//! valid values render and parse back unchanged, and a row cut short,
//! missing a cell, carrying an extra cell or holding a non-number is an
//! `Err`, never a panic.

mod malformed;

use malformed::{malformed, replace_line};
use metrics::lineage::LINEAGE_KINDS;
use metrics::oversub::{check_table, detect_cliffs, parse_table, render_table};
use metrics::serve::SERVE_EVENT_KINDS;
use metrics::timeseries::{parse_csv, SAMPLE_COLUMNS};
use metrics::{
    LineageEventKind, LineageLog, LineageRecorder, OversubCell, ServeEventKind, ServeEventLog,
    Timeseries,
};
use proptest::collection::vec;
use proptest::prelude::*;

proptest! {
    #[test]
    fn sample_csv_round_trips_and_rejects_malformed_rows(
        steps in vec(vec(0u64..1 << 40, SAMPLE_COLUMNS.len()), 1..6),
        pick in any::<u64>(),
    ) {
        // Cumulative sums keep every column non-decreasing; `t_ns`
        // grows by at least one per row.
        let mut acc = vec![0u64; SAMPLE_COLUMNS.len()];
        // A stream of no samples renders as its header line.
        let mut text = Timeseries::default().to_csv();
        for step in &steps {
            for (a, s) in acc.iter_mut().zip(step) {
                *a += s;
            }
            acc[0] += 1;
            let row: Vec<String> = acc.iter().map(u64::to_string).collect();
            text += &(row.join(",") + "\n");
        }
        let samples = parse_csv(&text).expect("valid rows parse");
        let ts = Timeseries { samples, ..Timeseries::default() };
        prop_assert_eq!(ts.to_csv(), text.clone());

        let index = 1 + pick as usize % steps.len();
        let line = text.lines().nth(index).unwrap();
        let numeric: Vec<usize> = (0..SAMPLE_COLUMNS.len()).collect();
        for bad in malformed(line, ',', &numeric, pick) {
            prop_assert!(parse_csv(&replace_line(&text, index, &bad)).is_err(), "{}", bad);
        }
    }

    #[test]
    fn lineage_round_trips_and_rejects_malformed_rows(
        events in vec(vec(0u64..1 << 40, 6), 0..12),
        pick in any::<u64>(),
    ) {
        let mut rec = LineageRecorder::new(true, 1);
        let mut t = 0;
        for e in &events {
            t += e[0] % 1000;
            let kind = LineageEventKind::ALL[e[3] as usize % LINEAGE_KINDS];
            // `aux` is a share of `pages`, as the recorder requires.
            rec.record(kind, t, e[1], e[2], e[4], e[5] % (e[4] + 1));
        }
        let log = rec.take();
        let text = log.to_artefact();
        let back = LineageLog::from_artefact(&text).expect("valid artefact parses");
        prop_assert_eq!(&back.events, &log.events);
        prop_assert_eq!(&back.totals, &log.totals);
        prop_assert_eq!(back.to_artefact(), text.clone());

        // A total row (lines 1..=9) or an event row (after the header).
        let rows: Vec<usize> = (1..=LINEAGE_KINDS)
            .chain(LINEAGE_KINDS + 2..LINEAGE_KINDS + 2 + events.len())
            .collect();
        let index = rows[pick as usize % rows.len()];
        let numeric: &[usize] = if index <= LINEAGE_KINDS { &[2, 3, 4] } else { &[1, 2, 3, 5, 6] };
        let line = text.lines().nth(index).unwrap();
        for bad in malformed(line, ',', numeric, pick) {
            let doctored = replace_line(&text, index, &bad);
            prop_assert!(LineageLog::from_artefact(&doctored).is_err(), "{}", bad);
        }
    }

    #[test]
    fn oversub_tsv_round_trips_and_rejects_malformed_rows(
        cells in vec(vec(0u64..1 << 40, 10), 1..8),
        pick in any::<u64>(),
    ) {
        let cells: Vec<OversubCell> = cells
            .iter()
            .map(|v| OversubCell {
                workload: ["regular", "random"][v[0] as usize % 2].into(),
                policy: ["fault_lru", "random"][v[1] as usize % 2].into(),
                ratio_centi: (v[2] % 300) as u32,
                faults: v[3],
                evictions: v[4],
                pages_evicted: v[5],
                refault_faults: v[6],
                prefetch_evicted_pages: v[7],
                sim_time_ns: v[8],
                footprint_bytes: v[9],
            })
            .collect();
        let cliffs = detect_cliffs(&cells);
        let text = render_table(&cells, &cliffs);
        prop_assert_eq!(parse_table(&text), Ok((cells.clone(), cliffs.clone())));
        prop_assert!(check_table(&text).is_ok());

        // A cell row, or a cliff row (after the marker and its header).
        let rows: Vec<usize> = (1..=cells.len())
            .chain(cells.len() + 3..cells.len() + 3 + cliffs.len())
            .collect();
        let index = rows[pick as usize % rows.len()];
        let numeric: Vec<usize> = if index <= cells.len() { (2..13).collect() } else { vec![2, 3] };
        let line = text.lines().nth(index).unwrap();
        for bad in malformed(line, '\t', &numeric, pick) {
            prop_assert!(parse_table(&replace_line(&text, index, &bad)).is_err(), "{}", bad);
        }
    }

    #[test]
    fn serve_events_round_trip_and_reject_malformed_rows(
        events in vec(vec(0u64..1 << 40, 5), 0..12),
        capacity in 1usize..8,
        pick in any::<u64>(),
    ) {
        let mut log = ServeEventLog::with_capacity(capacity);
        let mut t = 0;
        for e in &events {
            t += e[0] % 1000;
            let kind = ServeEventKind::ALL[e[2] as usize % SERVE_EVENT_KINDS];
            log.record(t, e[1], kind, e[3], e[4]);
        }
        let text = log.to_tsv();
        let back = ServeEventLog::from_tsv(&text).expect("valid log parses");
        prop_assert_eq!(back.events(), log.events());
        prop_assert_eq!(back.dropped, log.dropped);
        prop_assert_eq!(back.to_tsv(), text.clone());

        // An event row, or a footer total row.
        let stored = log.events().len();
        let index = 1 + pick as usize % (stored + SERVE_EVENT_KINDS);
        let numeric: &[usize] = if index <= stored { &[0, 1, 3, 4] } else { &[2] };
        let line = text.lines().nth(index).unwrap();
        for bad in malformed(line, '\t', numeric, pick) {
            let doctored = replace_line(&text, index, &bad);
            prop_assert!(ServeEventLog::from_tsv(&doctored).is_err(), "{}", bad);
        }
    }
}
