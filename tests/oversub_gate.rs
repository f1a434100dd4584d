//! End-to-end checks of the oversubscription observatory through the
//! real binary: `repro oversub` artefact emission, bit-identical output
//! across host thread counts and planning widths, the `repro check`
//! artefact-only verification (including the non-zero exit on a
//! doctored heatmap), and the `report` cliff-map rendering.

mod common;

use common::{repro, scratch, stderr, stdout};
use std::path::Path;

/// Run the small-grid sweep into `out`, with extra flags appended.
fn run_small(out: &Path, extra: &[&str]) {
    let mut args = vec![
        "oversub",
        "--grid",
        "small",
        "--scale",
        "512",
        "--no-progress",
        "--out",
        out.to_str().unwrap(),
    ];
    args.extend_from_slice(extra);
    let run = repro(&args);
    assert!(
        run.status.success(),
        "repro oversub failed: {}",
        stderr(&run)
    );
}

#[test]
fn oversub_artefacts_are_bit_identical_across_threads() {
    let dir = scratch("oversub_determinism");
    let base = dir.join("base");
    run_small(&base, &["--threads", "1"]);
    let tsv = std::fs::read_to_string(base.join("oversub.tsv")).unwrap();
    let prom = std::fs::read_to_string(base.join("oversub.prom")).unwrap();
    assert!(tsv.starts_with("workload\tpolicy\tratio_centi\t"), "{tsv}");
    assert!(
        tsv.contains("\nrandom\t") || tsv.contains("\trandom\t"),
        "all policies swept"
    );
    assert!(tsv.contains("access_frequency"), "all policies swept");
    assert!(tsv.contains("#cliffs"), "cliff rows recorded");
    assert!(prom.contains("uvm_oversub_faults{"), "cell gauges exported");
    assert!(
        prom.contains("uvm_oversub_cliff_ratio{"),
        "cliff gauges exported"
    );

    let other = dir.join("threads4");
    run_small(&other, &["--threads", "4"]);
    assert_eq!(
        tsv,
        std::fs::read_to_string(other.join("oversub.tsv")).unwrap(),
        "oversub.tsv differs under --threads 4"
    );
    assert_eq!(
        prom,
        std::fs::read_to_string(other.join("oversub.prom")).unwrap(),
        "oversub.prom differs under --threads 4"
    );

    // The artefacts re-verify from disk alone.
    let check = repro(&["check", base.to_str().unwrap()]);
    assert!(check.status.success(), "check: {}", stderr(&check));
    assert!(
        stdout(&check).contains("cliff(s) reproduced"),
        "{}",
        stdout(&check)
    );
    assert!(
        stdout(&check).contains("match the tsv"),
        "{}",
        stdout(&check)
    );
}

#[test]
fn oversub_check_fails_on_doctored_artefacts() {
    let dir = scratch("oversub_tamper");
    run_small(&dir, &[]);
    let tsv_path = dir.join("oversub.tsv");
    let clean = std::fs::read_to_string(&tsv_path).unwrap();

    // Breaking a derived column breaks the parse-time recomputation.
    let (head, tail) = clean.split_once("#cliffs").expect("cliff section");
    let doctored = format!(
        "{}#cliffs{}",
        head.replacen("\t8750\n", "\t8751\n", 1),
        tail
    );
    assert_ne!(doctored, clean, "fixture must actually tamper a row");
    std::fs::write(&tsv_path, &doctored).unwrap();
    let check = repro(&["check", dir.to_str().unwrap()]);
    assert!(!check.status.success(), "doctored tsv must fail check");
    assert!(
        stderr(&check).contains("derived column"),
        "{}",
        stderr(&check)
    );

    // Moving a recorded cliff row contradicts the knee detector.
    let doctored = format!("{head}#cliffs{}", tail.replacen("\t150\t", "\t175\t", 1));
    assert_ne!(doctored, clean);
    std::fs::write(&tsv_path, &doctored).unwrap();
    let check = repro(&["check", dir.to_str().unwrap()]);
    assert!(!check.status.success(), "moved cliff must fail check");
    assert!(
        stderr(&check).contains("knee detector"),
        "{}",
        stderr(&check)
    );

    // A prom value that drifts from the tsv fails the reconciliation.
    std::fs::write(&tsv_path, &clean).unwrap();
    let prom_path = dir.join("oversub.prom");
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    let line = prom
        .lines()
        .find(|l| l.starts_with("uvm_oversub_faults{"))
        .expect("a cell gauge");
    std::fs::write(&prom_path, prom.replacen(line, &format!("{line}0"), 1)).unwrap();
    let check = repro(&["check", dir.to_str().unwrap()]);
    assert!(!check.status.success(), "drifted prom must fail check");
    assert!(
        stderr(&check).contains("drifts from oversub.tsv"),
        "{}",
        stderr(&check)
    );
}

#[test]
fn oversub_report_renders_cliff_map_and_bracket_diffs() {
    let dir = scratch("oversub_report");
    let metrics = dir.join("metrics");
    run_small(
        &dir.join("out"),
        &["--metrics-out", metrics.to_str().unwrap()],
    );

    // The heatmap lands beside the per-point CSVs, and the generic
    // metrics validators still pass over the mixed tree.
    assert!(metrics.join("oversub/oversub.tsv").exists());
    let check = repro(&["check", metrics.to_str().unwrap()]);
    assert!(check.status.success(), "check: {}", stderr(&check));

    let report = repro(&["report", metrics.to_str().unwrap()]);
    assert!(report.status.success(), "report: {}", stderr(&report));
    let text = stdout(&report);
    assert!(text.contains("thrash-cliff map"), "{text}");
    // The small grid always produces at least one cliff at this scale,
    // and its bracketing cells' CSVs are on disk — so the root-cause
    // delta table across the cliff must render too.
    assert!(text.contains("root-cause delta across the cliff"), "{text}");
    assert!(text.contains("refault_used_faults"), "{text}");

    // `repro explain` on the mixed tree must not ingest oversub.tsv as
    // an offender table.
    let explain = repro(&["explain", metrics.to_str().unwrap()]);
    assert!(explain.status.success(), "explain: {}", stderr(&explain));
    assert!(
        !stdout(&explain).contains("ratio_centi"),
        "oversub.tsv leaked into explain"
    );

    // Relabel one eviction write-back as a host migration and move the
    // totals to match: the stream still parses and the device-to-host
    // byte total still closes, but the page split contradicts the CSV's
    // counters, so `repro check` must refuse it.
    let mut lineages: Vec<_> = std::fs::read_dir(metrics.join("oversub"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "lineage"))
        .collect();
    lineages.sort();
    let totals = |text: &str, kind: &str| -> (u64, u64) {
        let prefix = format!("total,{kind},");
        let line = text.lines().find(|l| l.starts_with(&prefix)).unwrap();
        let cells: Vec<u64> = line[prefix.len()..]
            .split(',')
            .map(|c| c.parse().unwrap())
            .collect();
        (cells[0], cells[1])
    };
    let (path, text) = lineages
        .iter()
        .map(|p| (p, std::fs::read_to_string(p).unwrap()))
        .find(|(_, text)| totals(text, "writeback").1 > 0)
        .expect("an oversubscribed point writes back dirty pages");
    let row = text
        .lines()
        .find(|l| l.starts_with("event,") && l.contains(",writeback,"))
        .expect("a stored writeback event");
    let pages: u64 = row.split(',').nth(5).unwrap().parse().unwrap();
    let ((wb_events, wb_pages), (host_events, host_pages)) =
        (totals(&text, "writeback"), totals(&text, "host_writeback"));
    let doctored = text
        .replacen(row, &row.replacen(",writeback,", ",host_writeback,", 1), 1)
        .replacen(
            &format!("total,writeback,{wb_events},{wb_pages},"),
            &format!("total,writeback,{},{},", wb_events - 1, wb_pages - pages),
            1,
        )
        .replacen(
            &format!("total,host_writeback,{host_events},{host_pages},"),
            &format!(
                "total,host_writeback,{},{},",
                host_events + 1,
                host_pages + pages
            ),
            1,
        );
    std::fs::write(path, doctored).unwrap();
    let check = repro(&["check", metrics.to_str().unwrap()]);
    let err = stderr(&check);
    assert_eq!(
        check.status.code(),
        Some(1),
        "relabelled write-back must fail check: {err}"
    );
    assert!(err.contains("lineage does not reconcile"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn explain_diff_json_emits_delta_rows() {
    let dir = scratch("explain_diff_json");
    let metrics = dir.join("metrics");
    run_small(
        &dir.join("out"),
        &["--metrics-out", metrics.to_str().unwrap()],
    );
    let a = metrics.join("oversub");
    let diff = repro(&[
        "explain",
        "--diff",
        a.to_str().unwrap(),
        a.to_str().unwrap(),
        "--json",
    ]);
    assert!(
        diff.status.success(),
        "explain --diff --json: {}",
        stderr(&diff)
    );
    let root: serde::Value = serde_json::from_str(&stdout(&diff)).expect("valid JSON");
    let serde::Value::Map(keys) = &root else {
        panic!("diff JSON is not an object")
    };
    let Some((_, serde::Value::Seq(rows))) = keys.iter().find(|(k, _)| k == "rows") else {
        panic!("no rows array")
    };
    // 10 ledger rows plus the evict-before-use rate; a self-diff has
    // all-zero deltas.
    assert_eq!(rows.len(), 11);
    for row in rows {
        let serde::Value::Map(fields) = row else {
            panic!("row is not an object")
        };
        for key in ["metric", "a", "b", "delta"] {
            assert!(fields.iter().any(|(k, _)| k == key), "row missing `{key}`");
        }
        assert!(
            fields
                .iter()
                .any(|(k, v)| k == "delta"
                    && matches!(v, serde::Value::I64(0) | serde::Value::U64(0))),
            "self-diff delta must be zero"
        );
    }
}
