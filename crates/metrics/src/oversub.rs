//! Oversubscription-observatory analytics: the `oversub.tsv` heatmap
//! schema (ratio × workload × policy), its Prometheus projection, and
//! the integer knee-detector that locates each curve's thrash cliff.
//!
//! Everything here is integer arithmetic over simulated counters, so a
//! rendered artefact is a pure function of the sweep's `SimReport`s and
//! `repro check` can re-derive every derived column and cliff
//! from the raw columns alone — byte-identical or exit 1.

use crate::exposition::{Exposition, MetricDef, MetricKind};
use crate::rows::Rows;

/// One sweep cell: a (workload, eviction policy, device-memory ratio)
/// simulation's raw totals. Ratios are carried as integer centi-ratios
/// (`125` = footprint at 1.25× GPU memory) so ordering, parsing, and
/// labels never touch float formatting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OversubCell {
    /// Workload label.
    pub workload: String,
    /// Eviction-policy label.
    pub policy: String,
    /// 100 × (footprint ÷ GPU memory).
    pub ratio_centi: u32,
    /// Far-faults serviced (fetched minus filtered duplicates).
    pub faults: u64,
    /// VABlock evictions.
    pub evictions: u64,
    /// Pages evicted in total.
    pub pages_evicted: u64,
    /// Faults on previously-evicted pages.
    pub refault_faults: u64,
    /// Evicted pages that were prefetched but never touched.
    pub prefetch_evicted_pages: u64,
    /// Simulated wall time of the cell's run, in nanoseconds.
    pub sim_time_ns: u64,
    /// Workload footprint in bytes (the ratio numerator).
    pub footprint_bytes: u64,
}

impl OversubCell {
    /// Block evictions per kilo-fault (integer milli ratio).
    pub fn evictions_per_fault_milli(&self) -> u64 {
        per(self.evictions, 1000, self.faults)
    }

    /// Refaults per fault, in basis points.
    pub fn refault_rate_bp(&self) -> u64 {
        per(self.refault_faults, 10_000, self.faults)
    }

    /// Evicted-before-use share of evicted pages, in basis points.
    pub fn evict_before_use_bp(&self) -> u64 {
        per(self.prefetch_evicted_pages, 10_000, self.pages_evicted)
    }

    /// Footprint-normalised cost: simulated nanoseconds per footprint
    /// MiB. Dividing out the linear footprint growth leaves the knee
    /// detector a curve that is flat until eviction pressure bends it.
    pub fn norm_cost(&self) -> u64 {
        self.sim_time_ns / (self.footprint_bytes >> 20).max(1)
    }

    /// The ratio label used everywhere (`"1.25"` for `ratio_centi` 125):
    /// fixed two-decimal text derived from the integer, never a float.
    pub fn ratio_label(&self) -> String {
        ratio_label(self.ratio_centi)
    }
}

/// `n * scale / d` (`d` clamped to 1) without intermediate overflow,
/// saturating at `u64::MAX`, so a doctored heatmap cannot panic a check.
fn per(n: u64, scale: u64, d: u64) -> u64 {
    u64::try_from(n as u128 * scale as u128 / d.max(1) as u128).unwrap_or(u64::MAX)
}

/// Format a centi-ratio as its canonical two-decimal label.
pub fn ratio_label(ratio_centi: u32) -> String {
    format!("{}.{:02}", ratio_centi / 100, ratio_centi % 100)
}

/// The thrash cliff of one (workload, policy) curve: the grid ratio
/// where the footprint-normalised cost jumps the most, provided the
/// jump clears [`CLIFF_THRESHOLD_BP`]. `ratio_centi == 0` means the
/// curve has no cliff (it never bends hard enough).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cliff {
    /// Workload label.
    pub workload: String,
    /// Eviction-policy label.
    pub policy: String,
    /// Cliff position as a centi-ratio, or 0 for "no cliff".
    pub ratio_centi: u32,
    /// The detected jump in basis points of the previous cell's cost
    /// (the curve's largest step, even when below threshold).
    pub jump_bp: u64,
}

/// Minimum normalised-cost step (in basis points of the preceding
/// cell) for a grid point to count as a cliff: 2000 bp = the cost
/// jumped ≥20% between adjacent ratios.
pub const CLIFF_THRESHOLD_BP: u64 = 2000;

/// Locate the cliff on one curve given `(ratio_centi, norm_cost)`
/// points sorted by ratio. Pure integer arithmetic: the jump at point
/// `i` is `(cost_i − cost_{i−1}) · 10000 / max(cost_{i−1}, 1)`
/// (negative steps count as 0), the cliff is the first largest jump
/// (ties resolve to the lower ratio), and it must clear
/// [`CLIFF_THRESHOLD_BP`]. Returns `(ratio_centi_or_0, jump_bp)`.
pub fn detect_cliff(curve: &[(u32, u64)]) -> (u32, u64) {
    let mut best_ratio = 0u32;
    let mut best_jump = 0u64;
    for w in curve.windows(2) {
        let (_, prev) = w[0];
        let (ratio, cur) = w[1];
        let jump = if cur > prev {
            ((cur - prev) as u128 * 10_000 / prev.max(1) as u128) as u64
        } else {
            0
        };
        if jump > best_jump {
            best_jump = jump;
            best_ratio = ratio;
        }
    }
    if best_jump >= CLIFF_THRESHOLD_BP {
        (best_ratio, best_jump)
    } else {
        (0, best_jump)
    }
}

/// Group `cells` into (workload, policy) curves — first-appearance
/// order, each curve sorted by ratio — and run [`detect_cliff`] on
/// every one. Emits a [`Cliff`] row per curve even when no cliff is
/// found, so downstream gates always see a stable key set.
pub fn detect_cliffs(cells: &[OversubCell]) -> Vec<Cliff> {
    let mut keys: Vec<(&str, &str)> = Vec::new();
    for c in cells {
        let k = (c.workload.as_str(), c.policy.as_str());
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    keys.iter()
        .map(|&(w, p)| {
            let mut curve: Vec<(u32, u64)> = cells
                .iter()
                .filter(|c| c.workload == w && c.policy == p)
                .map(|c| (c.ratio_centi, c.norm_cost()))
                .collect();
            curve.sort_unstable_by_key(|&(r, _)| r);
            let (ratio_centi, jump_bp) = detect_cliff(&curve);
            Cliff {
                workload: w.to_string(),
                policy: p.to_string(),
                ratio_centi,
                jump_bp,
            }
        })
        .collect()
}

/// Declares the `oversub.tsv` cell rows and their gauges from one list
/// of value columns: [`CELL_ROWS`] is the three key columns, then the
/// value columns (raw counters, then derived integers), and
/// [`OVERSUB_REGISTRY`] holds one `uvm_oversub_<column>` gauge family
/// per value column, in the same order.
macro_rules! oversub_columns {
    ($($kind:ident $column:ident: $help:literal,)*) => {
        /// The `oversub.tsv` cell rows.
        pub const CELL_ROWS: Rows<OversubCell> = Rows {
            sep: '\t',
            columns: &[
                crate::field_column!(workload),
                crate::field_column!(policy),
                crate::field_column!(ratio_centi),
                $(oversub_columns!(@$kind $column)),*
            ],
        };

        /// Per-cell gauge families, one per value column of [`CELL_ROWS`]
        /// (same order), all labelled `{workload,policy,ratio}`.
        pub const OVERSUB_REGISTRY: &[MetricDef] = &[$(MetricDef {
            name: concat!("uvm_oversub_", stringify!($column)),
            kind: MetricKind::Gauge,
            help: $help,
        }),*];
    };
    (@field $column:ident) => { crate::field_column!($column) };
    (@derived $column:ident) => { crate::derived_column!($column) };
}

oversub_columns! {
    field faults: "Far-faults serviced by the sweep cell's run",
    field evictions: "VABlock evictions in the sweep cell's run",
    field pages_evicted: "Pages evicted in the sweep cell's run",
    field refault_faults: "Faults on previously-evicted pages in the sweep cell's run",
    field prefetch_evicted_pages: "Evicted pages that were prefetched but never touched",
    field sim_time_ns: "Simulated wall time of the sweep cell's run (ns)",
    field footprint_bytes: "Workload footprint of the sweep cell (bytes)",
    derived evictions_per_fault_milli: "Block evictions per kilo-fault (integer milli ratio)",
    derived refault_rate_bp: "Refaults per fault in basis points",
    derived evict_before_use_bp: "Evicted-before-use share of evicted pages in basis points",
}

/// Key columns ahead of the value columns in [`CELL_ROWS`].
const KEY_COLUMNS: usize = 3;

/// `oversub.tsv` cliff-section marker line.
pub const CLIFFS_MARKER: &str = "#cliffs";

/// The cliff rows, under their header line after [`CLIFFS_MARKER`].
pub const CLIFF_ROWS: Rows<Cliff> = Rows {
    sep: '\t',
    columns: &[
        crate::field_column!(workload),
        crate::field_column!(policy),
        crate::field_column!("cliff_ratio_centi", ratio_centi),
        crate::field_column!(jump_bp),
    ],
};

/// The per-curve cliff gauge (labels `{workload,policy}`); value is the
/// cliff ratio (e.g. 1.25), or 0 when the curve has no cliff.
pub const OVERSUB_CLIFF_RATIO: MetricDef = MetricDef {
    name: "uvm_oversub_cliff_ratio",
    kind: MetricKind::Gauge,
    help: "Thrash-cliff position of the (workload, policy) curve as a device-memory ratio (0 = no cliff)",
};

/// The per-curve cliff jump gauge (labels `{workload,policy}`): the
/// largest normalised-cost step of the curve, in basis points.
pub const OVERSUB_CLIFF_JUMP_BP: MetricDef = MetricDef {
    name: "uvm_oversub_cliff_jump_bp",
    kind: MetricKind::Gauge,
    help: "Largest footprint-normalised cost step of the (workload, policy) curve (basis points)",
};

/// Render the `oversub.tsv` artefact: the cell table in input order,
/// then the `#cliffs` section. Input order is the sweep's canonical
/// nested-loop order, so renders are deterministic.
pub fn render_table(cells: &[OversubCell], cliffs: &[Cliff]) -> String {
    let mut out = String::with_capacity(128 * (cells.len() + cliffs.len() + 3));
    CELL_ROWS.write_header(&mut out);
    for c in cells {
        CELL_ROWS.write_row(c, &mut out);
    }
    out.push_str(CLIFFS_MARKER);
    out.push('\n');
    CLIFF_ROWS.write_header(&mut out);
    for cl in cliffs {
        CLIFF_ROWS.write_row(cl, &mut out);
    }
    out
}

/// Parse an `oversub.tsv` artefact, validating structure *and* that
/// every derived column equals its recomputation from the raw columns
/// (the artefact is self-checking). Returns the cells and the cliff
/// rows exactly as recorded.
pub fn parse_table(text: &str) -> Result<(Vec<OversubCell>, Vec<Cliff>), String> {
    let tsv = |e: String| format!("oversub.tsv: {e}");
    let marker = format!("\n{CLIFFS_MARKER}\n");
    let Some((cells, cliffs)) = text.split_once(&marker) else {
        return Err(tsv(format!("missing {CLIFFS_MARKER} section")));
    };
    let cells = CELL_ROWS.read_table(cells, 1).map_err(tsv)?;
    let cliff_header = text[..text.len() - cliffs.len()].lines().count() + 1;
    Ok((
        cells,
        CLIFF_ROWS.read_table(cliffs, cliff_header).map_err(tsv)?,
    ))
}

/// Verify an `oversub.tsv` artefact from its text alone: parse (which
/// re-derives every derived column), re-render byte-identically, and
/// re-run the knee detector against the recorded `#cliffs` section (one
/// row per (workload, policy) curve; `ratio_centi` 0 where none was
/// found). Returns the table it parsed.
pub fn check_table(text: &str) -> Result<(Vec<OversubCell>, Vec<Cliff>), String> {
    let (cells, cliffs) = parse_table(text)?;
    if cells.is_empty() {
        return Err("oversub.tsv: no cells".into());
    }
    let rerendered = render_table(&cells, &cliffs);
    if rerendered != text {
        return Err("oversub.tsv: parse → re-render is not byte-identical".into());
    }
    let recomputed = detect_cliffs(&cells);
    if recomputed != cliffs {
        return Err(format!(
            "oversub.tsv: recorded #cliffs section disagrees with the knee detector \
             (recorded {} rows, recomputed {} rows{})",
            cliffs.len(),
            recomputed.len(),
            recomputed
                .iter()
                .find(|r| !cliffs.contains(r))
                .map(|r| format!(
                    "; first divergence: {}/{} cliff at ratio_centi {} jump {} bp",
                    r.workload, r.policy, r.ratio_centi, r.jump_bp
                ))
                .unwrap_or_default()
        ));
    }
    Ok((cells, cliffs))
}

/// Push every cell gauge and the per-curve cliff gauges into `exp`,
/// prefixing `extra` labels (the serve-side request prefix) before the
/// `{workload,policy,ratio}` identity, mirroring the sample-CSV
/// convention.
pub fn push_cells(
    exp: &mut Exposition,
    cells: &[OversubCell],
    cliffs: &[Cliff],
    extra: &[(&str, &str)],
) {
    let mut value = String::new();
    for c in cells {
        let ratio = c.ratio_label();
        let mut labels: Vec<(&str, &str)> = extra.to_vec();
        labels.push(("workload", &c.workload));
        labels.push(("policy", &c.policy));
        labels.push(("ratio", &ratio));
        // Each gauge is its value column's cell, as the tsv renders it.
        for (def, col) in OVERSUB_REGISTRY
            .iter()
            .zip(&CELL_ROWS.columns[KEY_COLUMNS..])
        {
            value.clear();
            (col.write)(c, &mut value);
            exp.push(
                def,
                &labels,
                value.parse().expect("value columns are integers"),
            );
        }
    }
    for cl in cliffs {
        let mut labels: Vec<(&str, &str)> = extra.to_vec();
        labels.push(("workload", &cl.workload));
        labels.push(("policy", &cl.policy));
        exp.push(&OVERSUB_CLIFF_RATIO, &labels, cl.ratio_centi as f64 / 100.0);
        exp.push(&OVERSUB_CLIFF_JUMP_BP, &labels, cl.jump_bp as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exposition;

    fn cell(workload: &str, policy: &str, ratio_centi: u32, sim_time_ns: u64) -> OversubCell {
        OversubCell {
            workload: workload.into(),
            policy: policy.into(),
            ratio_centi,
            faults: 1000 + ratio_centi as u64,
            evictions: if ratio_centi > 100 { 40 } else { 0 },
            pages_evicted: if ratio_centi > 100 { 20_480 } else { 0 },
            refault_faults: if ratio_centi > 100 { 300 } else { 0 },
            prefetch_evicted_pages: if ratio_centi > 100 { 512 } else { 0 },
            sim_time_ns,
            footprint_bytes: ratio_centi as u64 * (1 << 20),
        }
    }

    fn grid() -> (Vec<OversubCell>, Vec<Cliff>) {
        // One curve with a sharp knee at 1.25×, one flat curve.
        let mut cells = Vec::new();
        for (r, t) in [(50u32, 100u64), (100, 210), (125, 2000), (150, 2600)] {
            cells.push(cell(
                "regular",
                "fault_lru",
                r,
                t * (r as u64) * (1 << 20) / 1000,
            ));
        }
        for (r, t) in [(50u32, 100u64), (100, 101), (125, 102), (150, 103)] {
            cells.push(cell(
                "stream",
                "random",
                r,
                t * (r as u64) * (1 << 20) / 1000,
            ));
        }
        let cliffs = detect_cliffs(&cells);
        (cells, cliffs)
    }

    #[test]
    fn detector_finds_the_knee_with_integer_math() {
        let (cells, cliffs) = grid();
        assert_eq!(cliffs.len(), 2);
        assert_eq!(cliffs[0].ratio_centi, 125, "knee at the 1.25× jump");
        assert!(cliffs[0].jump_bp >= CLIFF_THRESHOLD_BP);
        assert_eq!(cliffs[1].ratio_centi, 0, "flat curve has no cliff");
        assert!(cliffs[1].jump_bp < CLIFF_THRESHOLD_BP);
        // Ties resolve to the lower ratio; order of input cells within a
        // curve does not matter (curves are sorted by ratio).
        let mut shuffled = cells.clone();
        shuffled.reverse();
        let mut re = detect_cliffs(&shuffled);
        re.sort_by(|a, b| (&a.workload, &a.policy).cmp(&(&b.workload, &b.policy)));
        let mut want = cliffs.clone();
        want.sort_by(|a, b| (&a.workload, &a.policy).cmp(&(&b.workload, &b.policy)));
        assert_eq!(re, want);
    }

    #[test]
    fn tsv_roundtrips_byte_identical() {
        let (cells, cliffs) = grid();
        let text = render_table(&cells, &cliffs);
        let (cells2, cliffs2) = parse_table(&text).unwrap();
        assert_eq!(cells, cells2);
        assert_eq!(cliffs, cliffs2);
        assert_eq!(render_table(&cells2, &cliffs2), text);
        let found = cliffs.iter().filter(|c| c.ratio_centi != 0).count();
        assert_eq!((cells.len(), cliffs.len(), found), (8, 2, 1));
        assert_eq!(check_table(&text), Ok((cells, cliffs)));
    }

    #[test]
    fn check_rejects_tampered_artefacts() {
        let (cells, cliffs) = grid();
        let text = render_table(&cells, &cliffs);
        // Tamper with a derived column.
        let tampered = text.replacen("\t1953\t", "\t1952\t", 1);
        let changed = tampered != text;
        if changed {
            assert!(parse_table(&tampered).is_err());
        }
        // Tamper with a recorded cliff position (cliffs section only).
        let (head, tail) = text.split_once(CLIFFS_MARKER).unwrap();
        let tampered = format!(
            "{head}{CLIFFS_MARKER}{}",
            tail.replace("\t125\t", "\t150\t")
        );
        assert_ne!(tampered, text);
        assert!(check_table(&tampered).is_err());
        // Drop the cliffs section entirely.
        let truncated = text.split(CLIFFS_MARKER).next().unwrap().to_string();
        assert!(parse_table(&truncated).is_err());
        // A raw count too large for the derived arithmetic is an error,
        // not an overflow.
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let col = lines[0].split('\t').position(|c| c == "evictions").unwrap();
        let mut row: Vec<String> = lines[1].split('\t').map(String::from).collect();
        row[col] = u64::MAX.to_string();
        lines[1] = row.join("\t");
        assert!(check_table(&(lines.join("\n") + "\n")).is_err());
    }

    #[test]
    fn registry_is_in_lockstep_with_tsv_value_columns() {
        let value_cols: Vec<&str> = CELL_ROWS.columns[KEY_COLUMNS..]
            .iter()
            .map(|c| c.name)
            .collect();
        assert_eq!(
            value_cols.len(),
            OVERSUB_REGISTRY.len(),
            "one gauge per value column"
        );
        for (col, def) in value_cols.iter().zip(OVERSUB_REGISTRY) {
            assert_eq!(
                def.name,
                format!("uvm_oversub_{col}"),
                "column {col} and family {} out of lockstep",
                def.name
            );
            assert!(exposition::valid_metric_name(def.name));
        }
    }

    #[test]
    fn exposition_projection_validates_and_labels_cells() {
        let (cells, cliffs) = grid();
        let mut exp = Exposition::new();
        push_cells(&mut exp, &cells, &cliffs, &[("experiment", "oversub")]);
        let text = exp.render();
        let stats = exposition::validate(&text).unwrap();
        assert_eq!(stats.families, OVERSUB_REGISTRY.len() + 2);
        assert!(text.contains(
            "uvm_oversub_faults{experiment=\"oversub\",workload=\"regular\",\
             policy=\"fault_lru\",ratio=\"0.50\"}"
        ));
        assert!(text.contains(
            "uvm_oversub_cliff_ratio{experiment=\"oversub\",workload=\"regular\",\
             policy=\"fault_lru\"} 1.25"
        ));
    }

    #[test]
    fn ratio_labels_are_two_decimal_integers() {
        assert_eq!(ratio_label(25), "0.25");
        assert_eq!(ratio_label(100), "1.00");
        assert_eq!(ratio_label(115), "1.15");
        assert_eq!(ratio_label(200), "2.00");
    }

    #[test]
    fn tsv_bytes_are_pinned() {
        // One curve with a cliff at 1.25×, one flat curve without.
        let cells = [
            cell("regular", "fault_lru", 100, 100 << 20),
            cell("regular", "fault_lru", 125, 500 << 20),
            cell("stream", "random", 100, 100 << 20),
            cell("stream", "random", 125, 125 << 20),
        ];
        let cliffs = detect_cliffs(&cells);
        let golden = "workload\tpolicy\tratio_centi\tfaults\tevictions\tpages_evicted\t\
            refault_faults\tprefetch_evicted_pages\tsim_time_ns\tfootprint_bytes\t\
            evictions_per_fault_milli\trefault_rate_bp\tevict_before_use_bp\n\
            regular\tfault_lru\t100\t1100\t0\t0\t0\t0\t104857600\t104857600\t0\t0\t0\n\
            regular\tfault_lru\t125\t1125\t40\t20480\t300\t512\t524288000\t131072000\t\
            35\t2666\t250\n\
            stream\trandom\t100\t1100\t0\t0\t0\t0\t104857600\t104857600\t0\t0\t0\n\
            stream\trandom\t125\t1125\t40\t20480\t300\t512\t131072000\t131072000\t\
            35\t2666\t250\n\
            #cliffs\n\
            workload\tpolicy\tcliff_ratio_centi\tjump_bp\n\
            regular\tfault_lru\t125\t30000\n\
            stream\trandom\t0\t0\n";
        assert_eq!(render_table(&cells, &cliffs), golden);
        assert_eq!(parse_table(golden), Ok((cells.to_vec(), cliffs)));
    }
}
