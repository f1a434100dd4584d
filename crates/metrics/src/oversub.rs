//! Oversubscription-observatory analytics: the `oversub.tsv` heatmap
//! schema (ratio × workload × policy), its Prometheus projection, and
//! the integer knee-detector that locates each curve's thrash cliff.
//!
//! Everything here is integer arithmetic over simulated counters, so a
//! rendered artefact is a pure function of the sweep's `SimReport`s and
//! `repro check` can re-derive every derived column and cliff
//! from the raw columns alone — byte-identical or exit 1.

use crate::exposition::{Exposition, MetricDef, MetricKind};

/// One sweep cell: a (workload, eviction policy, device-memory ratio)
/// simulation's raw totals. Ratios are carried as integer centi-ratios
/// (`125` = footprint at 1.25× GPU memory) so ordering, parsing, and
/// labels never touch float formatting.
#[derive(Debug, Clone, PartialEq, Eq)]
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
#[derive(Debug, Clone, PartialEq, Eq)]
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

/// `oversub.tsv` cell-section header: three key columns, then the raw
/// counters, then the derived integer columns — in lockstep with
/// [`OVERSUB_REGISTRY`] (tested).
pub const OVERSUB_HEADER: &str = "workload\tpolicy\tratio_centi\tfaults\tevictions\t\
pages_evicted\trefault_faults\tprefetch_evicted_pages\tsim_time_ns\tfootprint_bytes\t\
evictions_per_fault_milli\trefault_rate_bp\tevict_before_use_bp";

/// `oversub.tsv` cliff-section marker line.
pub const CLIFFS_MARKER: &str = "#cliffs";

/// `oversub.tsv` cliff-section header.
pub const CLIFFS_HEADER: &str = "workload\tpolicy\tcliff_ratio_centi\tjump_bp";

/// Per-cell gauge families, one per value column of [`OVERSUB_HEADER`]
/// (same order), all labelled `{workload,policy,ratio}`.
pub const OVERSUB_REGISTRY: &[MetricDef] = &[
    MetricDef {
        name: "uvm_oversub_faults",
        kind: MetricKind::Gauge,
        help: "Far-faults serviced by the sweep cell's run",
    },
    MetricDef {
        name: "uvm_oversub_evictions",
        kind: MetricKind::Gauge,
        help: "VABlock evictions in the sweep cell's run",
    },
    MetricDef {
        name: "uvm_oversub_pages_evicted",
        kind: MetricKind::Gauge,
        help: "Pages evicted in the sweep cell's run",
    },
    MetricDef {
        name: "uvm_oversub_refault_faults",
        kind: MetricKind::Gauge,
        help: "Faults on previously-evicted pages in the sweep cell's run",
    },
    MetricDef {
        name: "uvm_oversub_prefetch_evicted_pages",
        kind: MetricKind::Gauge,
        help: "Evicted pages that were prefetched but never touched",
    },
    MetricDef {
        name: "uvm_oversub_sim_time_ns",
        kind: MetricKind::Gauge,
        help: "Simulated wall time of the sweep cell's run (ns)",
    },
    MetricDef {
        name: "uvm_oversub_footprint_bytes",
        kind: MetricKind::Gauge,
        help: "Workload footprint of the sweep cell (bytes)",
    },
    MetricDef {
        name: "uvm_oversub_evictions_per_fault_milli",
        kind: MetricKind::Gauge,
        help: "Block evictions per kilo-fault (integer milli ratio)",
    },
    MetricDef {
        name: "uvm_oversub_refault_rate_bp",
        kind: MetricKind::Gauge,
        help: "Refaults per fault in basis points",
    },
    MetricDef {
        name: "uvm_oversub_evict_before_use_bp",
        kind: MetricKind::Gauge,
        help: "Evicted-before-use share of evicted pages in basis points",
    },
];

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

/// The values of one cell's value columns, in [`OVERSUB_HEADER`] /
/// [`OVERSUB_REGISTRY`] order.
fn cell_values(c: &OversubCell) -> [u64; 10] {
    [
        c.faults,
        c.evictions,
        c.pages_evicted,
        c.refault_faults,
        c.prefetch_evicted_pages,
        c.sim_time_ns,
        c.footprint_bytes,
        c.evictions_per_fault_milli(),
        c.refault_rate_bp(),
        c.evict_before_use_bp(),
    ]
}

/// Render the `oversub.tsv` artefact: the cell table in input order,
/// then the `#cliffs` section. Input order is the sweep's canonical
/// nested-loop order, so renders are deterministic.
pub fn render_table(cells: &[OversubCell], cliffs: &[Cliff]) -> String {
    let mut out = String::new();
    out.push_str(OVERSUB_HEADER);
    out.push('\n');
    for c in cells {
        out.push_str(&c.workload);
        out.push('\t');
        out.push_str(&c.policy);
        for v in std::iter::once(c.ratio_centi as u64).chain(cell_values(c)) {
            out.push('\t');
            out.push_str(&v.to_string());
        }
        out.push('\n');
    }
    out.push_str(CLIFFS_MARKER);
    out.push('\n');
    out.push_str(CLIFFS_HEADER);
    out.push('\n');
    for cl in cliffs {
        out.push_str(&format!(
            "{}\t{}\t{}\t{}\n",
            cl.workload, cl.policy, cl.ratio_centi, cl.jump_bp
        ));
    }
    out
}

fn parse_u64(cell: &str, line: usize, col: &str) -> Result<u64, String> {
    cell.parse::<u64>()
        .map_err(|_| format!("oversub.tsv line {line}: column {col} is not an integer: {cell:?}"))
}

/// Parse an `oversub.tsv` artefact, validating structure *and* that
/// every derived column equals its recomputation from the raw columns
/// (the artefact is self-checking). Returns the cells and the cliff
/// rows exactly as recorded.
pub fn parse_table(text: &str) -> Result<(Vec<OversubCell>, Vec<Cliff>), String> {
    let mut lines = text.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h == OVERSUB_HEADER => {}
        other => {
            return Err(format!(
                "oversub.tsv: bad header: {:?}",
                other.map(|(_, h)| h)
            ))
        }
    }
    let mut cells = Vec::new();
    let mut cliffs = Vec::new();
    let mut in_cliffs = false;
    let mut saw_cliff_header = false;
    for (i, line) in lines {
        let line_no = i + 1;
        if line.is_empty() {
            continue;
        }
        if line == CLIFFS_MARKER {
            if in_cliffs {
                return Err(format!(
                    "oversub.tsv line {line_no}: duplicate {CLIFFS_MARKER}"
                ));
            }
            in_cliffs = true;
            continue;
        }
        let cols: Vec<&str> = line.split('\t').collect();
        if in_cliffs && !saw_cliff_header {
            if line != CLIFFS_HEADER {
                return Err(format!(
                    "oversub.tsv line {line_no}: bad cliff header: {line:?}"
                ));
            }
            saw_cliff_header = true;
            continue;
        }
        if in_cliffs {
            if cols.len() != 4 {
                return Err(format!(
                    "oversub.tsv line {line_no}: expected 4 cliff columns"
                ));
            }
            cliffs.push(Cliff {
                workload: cols[0].to_string(),
                policy: cols[1].to_string(),
                ratio_centi: parse_u64(cols[2], line_no, "cliff_ratio_centi")? as u32,
                jump_bp: parse_u64(cols[3], line_no, "jump_bp")?,
            });
            continue;
        }
        if cols.len() != 13 {
            return Err(format!(
                "oversub.tsv line {line_no}: expected 13 columns, got {}",
                cols.len()
            ));
        }
        let cell = OversubCell {
            workload: cols[0].to_string(),
            policy: cols[1].to_string(),
            ratio_centi: parse_u64(cols[2], line_no, "ratio_centi")? as u32,
            faults: parse_u64(cols[3], line_no, "faults")?,
            evictions: parse_u64(cols[4], line_no, "evictions")?,
            pages_evicted: parse_u64(cols[5], line_no, "pages_evicted")?,
            refault_faults: parse_u64(cols[6], line_no, "refault_faults")?,
            prefetch_evicted_pages: parse_u64(cols[7], line_no, "prefetch_evicted_pages")?,
            sim_time_ns: parse_u64(cols[8], line_no, "sim_time_ns")?,
            footprint_bytes: parse_u64(cols[9], line_no, "footprint_bytes")?,
        };
        let derived = [
            (
                "evictions_per_fault_milli",
                10,
                cell.evictions_per_fault_milli(),
            ),
            ("refault_rate_bp", 11, cell.refault_rate_bp()),
            ("evict_before_use_bp", 12, cell.evict_before_use_bp()),
        ];
        for (name, idx, want) in derived {
            let got = parse_u64(cols[idx], line_no, name)?;
            if got != want {
                return Err(format!(
                    "oversub.tsv line {line_no}: derived column {name} is {got}, \
                     recomputation from raw columns gives {want}"
                ));
            }
        }
        cells.push(cell);
    }
    if !in_cliffs {
        return Err(format!("oversub.tsv: missing {CLIFFS_MARKER} section"));
    }
    Ok((cells, cliffs))
}

/// Summary of a verified artefact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversubStats {
    /// Sweep cells present.
    pub cells: usize,
    /// (workload, policy) curves present.
    pub curves: usize,
    /// Curves with a detected cliff (`ratio_centi != 0`).
    pub cliffs_found: usize,
}

/// Verify an `oversub.tsv` artefact from its text alone: parse (which
/// re-derives every derived column), re-render byte-identically, and
/// re-run the knee detector against the recorded `#cliffs` section.
pub fn check_table(text: &str) -> Result<OversubStats, String> {
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
    Ok(OversubStats {
        cells: cells.len(),
        curves: cliffs.len(),
        cliffs_found: cliffs.iter().filter(|c| c.ratio_centi != 0).count(),
    })
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
    for c in cells {
        let ratio = c.ratio_label();
        let mut labels: Vec<(&str, &str)> = extra.to_vec();
        labels.push(("workload", &c.workload));
        labels.push(("policy", &c.policy));
        labels.push(("ratio", &ratio));
        for (def, v) in OVERSUB_REGISTRY.iter().zip(cell_values(c)) {
            exp.push(def, &labels, v as f64);
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
        let stats = check_table(&text).unwrap();
        assert_eq!(stats.cells, 8);
        assert_eq!(stats.curves, 2);
        assert_eq!(stats.cliffs_found, 1);
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
        let value_cols: Vec<&str> = OVERSUB_HEADER.split('\t').skip(3).collect();
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
        let c = cell("w", "p", 125, 77);
        assert_eq!(cell_values(&c).len(), OVERSUB_REGISTRY.len());
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
}
