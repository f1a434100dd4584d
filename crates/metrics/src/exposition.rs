//! Prometheus-style text exposition of end-of-run metrics.
//!
//! The repro harness publishes each sweep point's final counters and
//! gauges in the [text exposition format] so the artefacts are directly
//! comparable across workloads and scrapeable by standard tooling:
//!
//! ```text
//! # HELP uvm_faults_fetched_total Fault entries fetched from the hardware buffer.
//! # TYPE uvm_faults_fetched_total counter
//! uvm_faults_fetched_total{workload="regular",ratio="1.25",policy="density"} 81920
//! ```
//!
//! [`Exposition`] assembles families (declared once, samples per label
//! set, in insertion order — deterministic output); [`validate`] parses a
//! rendered blob back and checks the format invariants (name and label
//! legality, TYPE-before-sample, single declaration per family,
//! non-negative counters), powering `repro check` and the format
//! unit tests.
//!
//! [text exposition format]: https://prometheus.io/docs/instrumenting/exposition_formats/

use std::fmt::Write;

/// Prometheus metric kinds used here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Cumulative, non-decreasing.
    Counter,
    /// Point-in-time value.
    Gauge,
}

impl MetricKind {
    /// The TYPE keyword.
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// A metric family's identity: name, kind, and help text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// Metric name (must satisfy [`valid_metric_name`]).
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// One-line HELP text.
    pub help: &'static str,
}

/// One family of a metric struct's registry: its identity plus the
/// extractor reading it off a snapshot of the struct.
pub struct Metric<T> {
    /// Metric name/kind/help for the exposition output.
    pub def: MetricDef,
    /// Field (or derived-total) extractor.
    pub read: fn(&T) -> u64,
}

/// Declares a struct of `u64` metric fields and its exposition registry
/// from one list. Each field entry is its doc, its name, then its
/// family's kind, name and help; the registry lists the fields in
/// order, then any derived families after `+`, each read off a method
/// of the struct. The struct also gets a private field-wise
/// `add_fields`, which its merge calls.
macro_rules! metric_struct {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $($(#[doc = $doc:literal])* $field:ident: $kind:ident $family:literal $help:literal,)*
        }
        $(#[$reg_meta:meta])*
        pub const $registry:ident $(+ {
            $($method:ident(): $dkind:ident $dfamily:literal $dhelp:literal,)*
        })?;
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[doc = $doc])* pub $field: u64,)*
        }

        $(#[$reg_meta])*
        pub const $registry: &[$crate::exposition::Metric<$name>] = &[
            $($crate::exposition::metric_struct!(@metric $kind $family $help, |s| s.$field),)*
            $($($crate::exposition::metric_struct!(
                @metric $dkind $dfamily $dhelp, |s| s.$method()
            ),)*)?
        ];

        impl $name {
            /// Combine each field of `o` into the same field of `self`.
            #[allow(dead_code)]
            fn add_fields(&mut self, o: &$name, mut add: impl FnMut(&mut u64, u64)) {
                $(add(&mut self.$field, o.$field);)*
            }
        }
    };
    (@metric $kind:ident $family:literal $help:literal, $read:expr) => {
        $crate::exposition::Metric {
            def: $crate::exposition::MetricDef {
                name: $family,
                kind: $crate::exposition::MetricKind::$kind,
                help: $help,
            },
            read: $read,
        }
    };
}
pub(crate) use metric_struct;

/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — the Prometheus metric-name charset.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// `[a-zA-Z_][a-zA-Z0-9_]*` — the label-name charset (no colons).
pub fn valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Escape a label value per the exposition format (`\\`, `\"`, `\n`).
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escape HELP text per the exposition format: only `\\` and `\n` — a
/// HELP line is unquoted, so quotes are legal but a raw newline would
/// split the declaration in two.
pub fn escape_help(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

struct Family {
    def: MetricDef,
    /// (rendered label block, value) per sample, in insertion order.
    samples: Vec<(String, f64)>,
}

/// An exposition under assembly: families keyed by name, samples appended
/// per label set. `push` order fixes the output order, so renders are
/// deterministic.
#[derive(Default)]
pub struct Exposition {
    families: Vec<Family>,
}

impl Exposition {
    /// An empty exposition.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append one sample of `def` with the given labels. Panics on an
    /// illegal metric/label name or a negative counter value — those are
    /// programming errors in the registry, not data.
    pub fn push(&mut self, def: &MetricDef, labels: &[(&str, &str)], value: f64) {
        assert!(
            valid_metric_name(def.name),
            "illegal metric name {}",
            def.name
        );
        assert!(
            def.kind != MetricKind::Counter || value >= 0.0,
            "negative counter {}",
            def.name
        );
        let mut block = String::new();
        if !labels.is_empty() {
            block.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                assert!(valid_label_name(k), "illegal label name {k}");
                if i > 0 {
                    block.push(',');
                }
                let _ = write!(block, "{k}=\"{}\"", escape_label_value(v));
            }
            block.push('}');
        }
        match self.families.iter_mut().find(|f| f.def.name == def.name) {
            Some(f) => {
                assert_eq!(f.def.kind, def.kind, "kind clash for {}", def.name);
                f.samples.push((block, value));
            }
            None => self.families.push(Family {
                def: *def,
                samples: vec![(block, value)],
            }),
        }
    }

    /// Append one sample of every family in `registry`, read off `value`.
    pub fn push_registry<T>(&mut self, registry: &[Metric<T>], labels: &[(&str, &str)], value: &T) {
        for m in registry {
            self.push(&m.def, labels, (m.read)(value) as f64);
        }
    }

    /// Render the text exposition (HELP + TYPE once per family, then its
    /// samples). Integral values render without a decimal point.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.families {
            let _ = writeln!(out, "# HELP {} {}", f.def.name, escape_help(f.def.help));
            let _ = writeln!(out, "# TYPE {} {}", f.def.name, f.def.kind.as_str());
            for (labels, value) in &f.samples {
                if value.fract() == 0.0 && value.abs() < 9.007_199_254_740_992e15 {
                    let _ = writeln!(out, "{}{} {}", f.def.name, labels, *value as i64);
                } else {
                    let _ = writeln!(out, "{}{} {}", f.def.name, labels, value);
                }
            }
        }
        out
    }
}

/// Statistics from a successful [`validate`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExpositionStats {
    /// Metric families declared.
    pub families: usize,
    /// Sample lines parsed.
    pub samples: usize,
}

/// Split a sample line `name{labels} value` into its parts; labels block
/// may be absent. Returns `(name, labels_or_empty, value_text)`.
fn split_sample(line: &str) -> Result<(&str, &str, &str), String> {
    let (head, value) = line
        .rsplit_once(' ')
        .ok_or_else(|| format!("sample line without value: `{line}`"))?;
    if let Some(open) = head.find('{') {
        if !head.ends_with('}') {
            return Err(format!("unterminated label block: `{line}`"));
        }
        Ok((&head[..open], &head[open + 1..head.len() - 1], value))
    } else {
        Ok((head, "", value))
    }
}

/// Check one label block body (`k="v",k2="v2"`), honouring escapes.
fn check_labels(body: &str, line: &str) -> Result<(), String> {
    let mut rest = body;
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without `=` in `{line}`"))?;
        let name = &rest[..eq];
        if !valid_label_name(name) {
            return Err(format!("illegal label name `{name}` in `{line}`"));
        }
        rest = &rest[eq + 1..];
        if !rest.starts_with('"') {
            return Err(format!("unquoted label value in `{line}`"));
        }
        // Scan the quoted value. Only `\\`, `\"` and `\n` are legal
        // escapes in a label value; anything else after a backslash is an
        // unescaped value the format forbids (a raw `\` must be `\\`).
        let bytes = rest.as_bytes();
        let mut i = 1;
        loop {
            match bytes.get(i) {
                None => return Err(format!("unterminated label value in `{line}`")),
                Some(b'\\') => match bytes.get(i + 1) {
                    Some(b'\\') | Some(b'"') | Some(b'n') => i += 2,
                    Some(&c) => {
                        return Err(format!(
                            "illegal escape `\\{}` in label value in `{line}` \
                             (only \\\\, \\\" and \\n are legal)",
                            c as char
                        ))
                    }
                    None => {
                        return Err(format!("unterminated label value in `{line}`"));
                    }
                },
                Some(b'"') => break,
                Some(_) => i += 1,
            }
        }
        rest = &rest[i + 1..];
        if let Some(r) = rest.strip_prefix(',') {
            rest = r;
        } else if !rest.is_empty() {
            return Err(format!("junk after label value in `{line}`"));
        }
    }
    Ok(())
}

/// Parse a rendered exposition and check the format invariants. Returns
/// family/sample counts on success, the first violation otherwise.
pub fn validate(text: &str) -> Result<ExpositionStats, String> {
    // name -> (kind, has_help, sample_count)
    let mut families: Vec<(String, String, bool, usize)> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("HELP for illegal metric name `{name}`"));
            }
            match families.iter_mut().find(|(n, ..)| n == name) {
                Some((_, _, has_help, _)) => {
                    if *has_help {
                        return Err(format!("duplicate HELP for `{name}`"));
                    }
                    *has_help = true;
                }
                None => families.push((name.to_string(), String::new(), true, 0)),
            }
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !valid_metric_name(name) {
                return Err(format!("TYPE for illegal metric name `{name}`"));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(format!("unknown TYPE `{kind}` for `{name}`"));
            }
            match families.iter_mut().find(|(n, ..)| n == name) {
                Some((_, k, _, samples)) => {
                    if !k.is_empty() {
                        return Err(format!("duplicate TYPE for `{name}`"));
                    }
                    if *samples > 0 {
                        return Err(format!("TYPE for `{name}` after its samples"));
                    }
                    *k = kind.to_string();
                }
                None => families.push((name.to_string(), kind.to_string(), false, 0)),
            }
        } else if line.starts_with('#') {
            // Free-form comment: legal, ignored.
        } else {
            let (name, labels, value) = split_sample(line)?;
            if !valid_metric_name(name) {
                return Err(format!("sample for illegal metric name `{name}`"));
            }
            check_labels(labels, line)?;
            let v: f64 = value
                .parse()
                .map_err(|_| format!("unparseable value `{value}` in `{line}`"))?;
            let fam = families
                .iter_mut()
                .find(|(n, ..)| n == name)
                .ok_or_else(|| format!("sample for undeclared metric `{name}`"))?;
            if fam.1.is_empty() {
                return Err(format!("sample for `{name}` before its TYPE"));
            }
            if fam.1 == "counter" && (v.is_nan() || v < 0.0) {
                return Err(format!("negative counter sample in `{line}`"));
            }
            fam.3 += 1;
        }
    }
    for (name, kind, _, samples) in &families {
        if kind.is_empty() {
            return Err(format!("metric `{name}` has HELP but no TYPE"));
        }
        if *samples == 0 {
            return Err(format!("metric `{name}` declared but has no samples"));
        }
    }
    Ok(ExpositionStats {
        families: families.len(),
        samples: families.iter().map(|f| f.3).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const FAULTS: MetricDef = MetricDef {
        name: "uvm_faults_fetched_total",
        kind: MetricKind::Counter,
        help: "Fault entries fetched from the hardware buffer.",
    };
    const RESIDENT: MetricDef = MetricDef {
        name: "uvm_resident_pages",
        kind: MetricKind::Gauge,
        help: "Pages currently backed by GPU memory.",
    };

    #[test]
    fn name_legality() {
        assert!(valid_metric_name("uvm_faults_total"));
        assert!(valid_metric_name("_x"));
        assert!(valid_metric_name("ns:metric"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("9lives"));
        assert!(!valid_metric_name("has-dash"));
        assert!(!valid_metric_name("has space"));
        assert!(valid_label_name("workload"));
        assert!(!valid_label_name("ns:label"));
        assert!(!valid_label_name("1st"));
    }

    #[test]
    fn escaping() {
        assert_eq!(escape_label_value(r#"a"b\c"#), r#"a\"b\\c"#);
        assert_eq!(escape_label_value("x\ny"), "x\\ny");
    }

    #[test]
    fn render_declares_each_family_once() {
        let mut e = Exposition::new();
        e.push(
            &FAULTS,
            &[("workload", "regular"), ("ratio", "0.50")],
            100.0,
        );
        e.push(&FAULTS, &[("workload", "random"), ("ratio", "1.25")], 250.0);
        e.push(&RESIDENT, &[("workload", "regular")], 4096.0);
        let text = e.render();
        assert_eq!(text.matches("# TYPE uvm_faults_fetched_total").count(), 1);
        assert_eq!(text.matches("# HELP uvm_faults_fetched_total").count(), 1);
        assert!(text.contains("uvm_faults_fetched_total{workload=\"regular\",ratio=\"0.50\"} 100"));
        assert!(text.contains("uvm_resident_pages{workload=\"regular\"} 4096"));
        let stats = validate(&text).expect("self-rendered exposition validates");
        assert_eq!(stats.families, 2);
        assert_eq!(stats.samples, 3);
    }

    #[test]
    fn render_escapes_label_values() {
        let mut e = Exposition::new();
        e.push(&RESIDENT, &[("workload", "odd\"name")], 1.0);
        let text = e.render();
        assert!(text.contains(r#"workload="odd\"name""#));
        validate(&text).expect("escaped value still validates");
    }

    #[test]
    #[should_panic(expected = "negative counter")]
    fn negative_counter_rejected_at_push() {
        let mut e = Exposition::new();
        e.push(&FAULTS, &[], -1.0);
    }

    #[test]
    fn validate_rejects_format_violations() {
        // Sample before TYPE.
        let bad = "# HELP m help\nm 1\n# TYPE m counter\n";
        assert!(validate(bad).unwrap_err().contains("before its TYPE"));
        // Undeclared metric.
        assert!(validate("m 1\n").unwrap_err().contains("undeclared"));
        // Duplicate TYPE.
        let dup = "# TYPE m counter\n# TYPE m counter\nm 1\n";
        assert!(validate(dup).unwrap_err().contains("duplicate TYPE"));
        // Negative counter sample.
        let neg = "# HELP m h\n# TYPE m counter\nm -5\n";
        assert!(validate(neg).unwrap_err().contains("negative counter"));
        // Illegal label name.
        let lbl = "# HELP m h\n# TYPE m gauge\nm{9x=\"v\"} 1\n";
        assert!(validate(lbl).unwrap_err().contains("illegal label name"));
        // Unparseable value.
        let val = "# HELP m h\n# TYPE m gauge\nm{} x\n";
        assert!(validate(val).is_err());
        // Declared but sample-less family.
        let empty = "# HELP m h\n# TYPE m gauge\n";
        assert!(validate(empty).unwrap_err().contains("no samples"));
    }

    #[test]
    fn validate_rejects_illegal_label_escapes() {
        // `\t` is not a legal label-value escape — a raw backslash must
        // arrive as `\\`. The validator must reject it, not skip it.
        let tab = "# HELP m h\n# TYPE m gauge\nm{l=\"a\\tb\"} 1\n";
        assert!(validate(tab).unwrap_err().contains("illegal escape"));
        // A trailing lone backslash is unterminated, not a valid escape.
        let lone = "# HELP m h\n# TYPE m gauge\nm{l=\"a\\";
        assert!(validate(lone).is_err());
        // The three legal escapes all pass.
        let ok = "# HELP m h\n# TYPE m gauge\nm{l=\"a\\\\b\\\"c\\nd\"} 1\n";
        validate(ok).expect("legal escapes validate");
    }

    #[test]
    fn hostile_label_values_roundtrip() {
        // Request-id / workload labels may carry quotes, backslashes and
        // newlines; the renderer must escape them so its own validator
        // accepts the output.
        let mut e = Exposition::new();
        e.push(&RESIDENT, &[("workload", "a\\b\"c\nd")], 2.0);
        let text = e.render();
        assert!(text.contains(r#"workload="a\\b\"c\nd""#));
        let stats = validate(&text).expect("hostile value roundtrips");
        assert_eq!(stats.samples, 1);
    }

    #[test]
    fn help_text_is_escaped() {
        const ODD: MetricDef = MetricDef {
            name: "odd_help",
            kind: MetricKind::Gauge,
            help: "line one\nline two with \\ backslash",
        };
        let mut e = Exposition::new();
        e.push(&ODD, &[], 1.0);
        let text = e.render();
        assert!(text.contains("# HELP odd_help line one\\nline two with \\\\ backslash"));
        validate(&text).expect("escaped HELP keeps the blob parseable");
    }

    #[test]
    fn gauge_may_be_negative_and_fractional() {
        let text = "# HELP g h\n# TYPE g gauge\ng -1.5\n";
        let stats = validate(text).expect("negative gauge is fine");
        assert_eq!(stats.samples, 1);
    }
}
