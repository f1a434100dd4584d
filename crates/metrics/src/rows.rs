//! The one row codec of the tabular artefacts (the sample CSV,
//! `.lineage`, `oversub.tsv`, `offenders.tsv`, `serve-events.tsv`): a
//! format declares each row layout once, as a [`Rows`] table that its
//! writer and its reader both walk. The table owns the separator, the
//! header line, the cell-count check and the error wording; whatever
//! else a format checks stays with the format.

use std::any::Any;
use std::fmt::{Display, Write};
use std::str::FromStr;

/// One column: header name, cell writer, cell reader. A derived column
/// has no reader: it is write-only (see [`Rows::read_row`]).
pub struct Column<T> {
    /// Header name.
    pub name: &'static str,
    /// Appends the row's cell.
    pub write: fn(&T, &mut String),
    /// Parses a cell into the row; the error says what is wrong with it.
    pub read: Option<ReadCell<T>>,
}

/// Reads one cell into a row (see [`Column::read`]).
pub type ReadCell<T> = fn(&mut T, &str) -> Result<(), String>;

/// A row layout: the separator and the columns in order.
pub struct Rows<T: 'static> {
    /// Cell separator.
    pub sep: char,
    /// The columns, in order.
    pub columns: &'static [Column<T>],
}

impl<T> Rows<T> {
    /// The header line (the column names), without its newline.
    pub fn header(&self) -> String {
        let names: Vec<&str> = self.columns.iter().map(|c| c.name).collect();
        names.join(&self.sep.to_string())
    }

    /// Append the header line.
    pub fn write_header(&self, out: &mut String) {
        self.write_cells(out, |c, out| out.push_str(c.name));
    }

    /// Append one row.
    pub fn write_row(&self, row: &T, out: &mut String) {
        self.write_cells(out, |c, out| (c.write)(row, out));
    }

    fn write_cells(&self, out: &mut String, cell: impl Fn(&Column<T>, &mut String)) {
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                out.push(self.sep);
            }
            cell(c, out);
        }
        out.push('\n');
    }

    /// Check that `line` is the header line.
    pub fn check_header(&self, line: &str) -> Result<(), String> {
        let want = self.header();
        (line == want)
            .then_some(())
            .ok_or_else(|| format!("header mismatch: got `{line}`, expected `{want}`"))
    }

    /// Read a table: its header line (line `first` of the artefact),
    /// then one row per non-blank line.
    pub fn read_table(&self, text: &str, first: usize) -> Result<Vec<T>, String>
    where
        T: Default,
    {
        let mut lines = text.lines().zip(first..);
        self.check_header(lines.next().map_or("", |(l, _)| l))?;
        lines
            .filter(|(l, _)| !l.is_empty())
            .map(|(l, n)| self.read_row(n, l))
            .collect()
    }

    /// Read line `n` of an artefact as one row: one cell per column, each
    /// read column parsed, and every cell as the writer renders it from
    /// the row (`+5` is refused), which checks each derived column (placed
    /// after the columns it derives from).
    pub fn read_row(&self, n: usize, line: &str) -> Result<T, String>
    where
        T: Default,
    {
        let (want, got) = (self.columns.len(), line.split(self.sep).count());
        if got != want {
            return Err(format!("row {n}: {got} cells, expected {want}"));
        }
        let (mut row, mut written) = (T::default(), String::new());
        for (c, cell) in self.columns.iter().zip(line.split(self.sep)) {
            if let Some(read) = c.read {
                read(&mut row, cell)
                    .map_err(|e| format!("row {n}: column {} = `{cell}` {e}", c.name))?;
            }
            written.clear();
            (c.write)(&row, &mut written);
            if written != cell {
                let derived = if c.read.is_some() { "" } else { "derived " };
                let name = c.name;
                return Err(format!(
                    "row {n}: {derived}column {name} = `{cell}`, written as `{written}`"
                ));
            }
        }
        Ok(row)
    }
}

/// Append a field's cell: its `Display` form, written directly for a
/// `u64` (most cells), which skips the formatting machinery.
pub fn write_cell<V: Display + 'static>(v: &V, out: &mut String) {
    match (v as &dyn Any).downcast_ref::<u64>() {
        Some(&n) => write_u64(n, out),
        None => {
            let _ = write!(out, "{v}");
        }
    }
}

/// Append `n` in decimal, two digits per division.
fn write_u64(mut n: u64, out: &mut String) {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        i -= 2;
        digits[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        i -= 2;
        digits[i..i + 2].copy_from_slice(&PAIRS[2 * n as usize..2 * n as usize + 2]);
    } else {
        i -= 1;
        digits[i] = b'0' + n as u8;
    }
    out.extend(digits[i..].iter().map(|&d| d as char));
}

/// Parse a field's cell with `FromStr`; the error names the type.
pub fn parse_cell<V: FromStr>(cell: &str) -> Result<V, String> {
    let ty = std::any::type_name::<V>();
    cell.parse()
        .map_err(|_| format!("is not a {}", ty.rsplit("::").next().unwrap_or(ty)))
}

/// A [`Column`] for one `Display + FromStr` field: `field_column!(t_ns)`
/// is named after the field, `field_column!("block", offender.block)`
/// names a nested one.
#[macro_export]
macro_rules! field_column {
    ($field:ident) => {
        $crate::field_column!(stringify!($field), $field)
    };
    ($name:expr, $($field:ident).+) => {
        $crate::rows::Column {
            name: $name,
            write: |r, out| $crate::rows::write_cell(&r.$($field).+, out),
            read: Some(|r, cell| {
                r.$($field).+ = $crate::rows::parse_cell(cell)?;
                Ok(())
            }),
        }
    };
}

/// A derived [`Column`] rendering a method of the row (or of a nested
/// field: `derived_column!("badness", offender.stats.badness)`).
#[macro_export]
macro_rules! derived_column {
    ($method:ident) => {
        $crate::derived_column!(stringify!($method), $method)
    };
    ($name:expr, $($method:ident).+) => {
        $crate::rows::Column {
            name: $name,
            write: |r, out| $crate::rows::write_cell(&r.$($method).+(), out),
            read: None,
        }
    };
}

/// A [`Column`] headed `name` whose cell is `cell` on every row (a row
/// tag such as `event`).
#[macro_export]
macro_rules! tag_column {
    ($name:expr, $cell:expr) => {
        $crate::rows::Column {
            name: $name,
            write: |_, out| out.push_str($cell),
            read: Some(|_, cell| match cell == $cell {
                true => Ok(()),
                false => Err(format!("is not `{}`", $cell)),
            }),
        }
    };
}

/// The `kind` [`Column`] of a row whose `kind` field is an enum with
/// `name()` and `from_name()`.
#[macro_export]
macro_rules! kind_column {
    ($kind:ty) => {
        $crate::rows::Column {
            name: "kind",
            write: |r, out| out.push_str(r.kind.name()),
            read: Some(|r, cell| {
                r.kind = <$kind>::from_name(cell).ok_or("is not a known kind")?;
                Ok(())
            }),
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default, PartialEq)]
    struct Row {
        a: u64,
        b: String,
    }

    impl Row {
        fn twice(&self) -> u64 {
            self.a.saturating_mul(2)
        }
    }

    const ROWS: Rows<Row> = Rows {
        sep: '\t',
        columns: &[
            tag_column!("kind", "row"),
            field_column!(a),
            field_column!(b),
            derived_column!(twice),
        ],
    };

    #[test]
    fn rows_write_and_read_through_one_table() {
        let mut out = String::new();
        ROWS.write_header(&mut out);
        let row = Row {
            a: 21,
            b: "x".into(),
        };
        ROWS.write_row(&row, &mut out);
        assert_eq!(out, "kind\ta\tb\ttwice\nrow\t21\tx\t42\n");
        assert_eq!(ROWS.header(), "kind\ta\tb\ttwice");
        assert_eq!(ROWS.check_header("kind\ta\tb\ttwice"), Ok(()));
        assert!(ROWS
            .check_header("kind\ta\tb")
            .unwrap_err()
            .contains("header mismatch"));
        assert_eq!(ROWS.read_row(2, "row\t21\tx\t42"), Ok(row));
        let err = |line: &str| ROWS.read_row(7, line).unwrap_err();
        assert_eq!(err("row\t21\tx"), "row 7: 3 cells, expected 4");
        assert_eq!(err("row\tq\tx\t42"), "row 7: column a = `q` is not a u64");
        assert_eq!(
            err("row\t+21\tx\t42"),
            "row 7: column a = `+21`, written as `21`"
        );
        assert_eq!(
            err("rho\t21\tx\t42"),
            "row 7: column kind = `rho` is not `row`"
        );
        assert!(err("row\t21\tx\t43").starts_with("row 7: derived column twice = `43`"));
    }

    #[test]
    fn u64_cells_match_display() {
        for n in [0, 7, 10, 99, 100, 1_000, 4_096, 123_456_789, u64::MAX] {
            let mut out = String::new();
            write_cell(&n, &mut out);
            assert_eq!(out, n.to_string());
        }
    }
}
