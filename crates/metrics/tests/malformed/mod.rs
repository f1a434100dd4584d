//! Malformed variants of one artefact row, shared by the row-format
//! proptests of the crates that own the formats.

/// Tokens no numeric cell accepts: empty, a word, signed, fractional,
/// padded, and one past `u64::MAX`.
const NOT_NUMBERS: [&str; 6] = ["", "x", "-1", "1.5", " 7", "18446744073709551616"];

/// Four malformed variants of `line` (cells split by `sep`), chosen by
/// `pick`: the line cut before its last separator, one cell missing, one
/// cell extra, and one of the `numeric` cells replaced by a non-number.
/// Each must make the format's reader fail.
pub fn malformed(line: &str, sep: char, numeric: &[usize], pick: u64) -> [String; 4] {
    let cells: Vec<&str> = line.split(sep).collect();
    let at = pick as usize % cells.len();
    let last_sep = line.rfind(sep).expect("a row has two cells or more");
    let cut = line[..1 + pick as usize % last_sep].to_string();
    let join = |cells: Vec<&str>| cells.join(&sep.to_string());
    let mut missing = cells.clone();
    missing.remove(at);
    let mut extra = cells.clone();
    extra.insert(at, "7");
    let mut bad = cells.clone();
    bad[numeric[pick as usize % numeric.len()]] = NOT_NUMBERS[(pick / 7) as usize % 6];
    [cut, join(missing), join(extra), join(bad)]
}

/// `text` with its line `index` (0-based) replaced by `line`.
pub fn replace_line(text: &str, index: usize, line: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines[index] = line;
    lines.join("\n") + "\n"
}
