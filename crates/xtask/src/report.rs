//! `cargo xtask report-check` — the report golden gate.
//!
//! The release `repro all --csv DIR` at tenth scale and seed 20170301
//! must reproduce the committed report byte for byte: its stdout equals
//! `results/results_tenth.txt` and `DIR` holds exactly the files of
//! `results/results_tenth_csv/`, each with the same bytes. Only stdout
//! is compared: stderr carries a wall-clock "lab ready" line. The
//! thread count is left to the environment, because the report is
//! byte-identical at every width.
//!
//! A change that moves a figure the same way at every thread count
//! passes the determinism gate; this gate is what catches it across
//! commits. Refresh the golden with `--bless` only when a figure is
//! meant to move.
//!
//! Bytes alone would let a re-bless flip a finding unnoticed, so the
//! fresh run's CSVs must first hold the orderings the README's "at a
//! glance" table states ([`ordering_violations`]), both before the
//! compare and before a bless.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

/// The golden report's stdout, relative to the workspace root.
pub const GOLDEN_STDOUT: &str = "results/results_tenth.txt";

/// The golden CSV directory, relative to the workspace root.
pub const GOLDEN_CSV_DIR: &str = "results/results_tenth_csv";

/// Scale the golden report is rendered at (`ROUTERGEO_SCALE`).
pub const SCALE: &str = "tenth";

/// Master seed of the golden report (`ROUTERGEO_SEED`).
pub const SEED: &str = "20170301";

/// Country and city coverage over the Ark set, per database.
const COVERAGE: &str = "02_coverage.csv";
/// Pairwise country-level agreement over the Ark set.
const CONSISTENCY: &str = "03_consistency_country.csv";
/// Coverage and accuracy over the ground truth, per database.
const ACCURACY: &str = "05_fig2_summary.csv";
/// Percent of ground truth placed in the wrong country, per RIR and
/// database.
const BY_RIR: &str = "06_fig3_rir.csv";

/// One report CSV: its header and rows, split on commas (no cell of the
/// report holds one).
struct Csv<'a> {
    name: &'a str,
    header: Vec<&'a str>,
    rows: Vec<Vec<&'a str>>,
}

impl<'a> Csv<'a> {
    fn new(name: &'a str, text: &'a str) -> Csv<'a> {
        let mut lines = text.lines().map(|line| line.split(',').collect());
        Csv {
            name,
            header: lines.next().unwrap_or_default(),
            rows: lines.collect(),
        }
    }

    /// Each row's label: its first cell.
    fn labels(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.rows.iter().filter_map(|row| row.first().copied())
    }

    /// The percentage at (`row`, `column`) in tenths of a percent.
    fn tenths(&self, row: &str, column: &str) -> Result<u32, String> {
        let at = self.header.iter().position(|h| *h == column);
        let cell = at.and_then(|at| {
            let row = self.rows.iter().find(|r| r.first() == Some(&row))?;
            row.get(at)
        });
        cell.and_then(|cell| parse_tenths(cell))
            .ok_or_else(|| format!("{}: no percentage at ({row}, {column})", self.name))
    }
}

/// A cell such as `89.9%` as tenths of a percent (899).
fn parse_tenths(cell: &str) -> Option<u32> {
    let (whole, tenth) = cell.strip_suffix('%')?.split_once('.')?;
    if tenth.len() != 1 {
        return None;
    }
    let whole = whole.parse::<u32>().ok()?.checked_mul(10)?;
    whole.checked_add(tenth.parse().ok()?)
}

/// Render tenths of a percent as the report does.
fn pct(tenths: u32) -> String {
    format!("{}.{}%", tenths / 10, tenths % 10)
}

/// The findings of the README's "at a glance" table, checked on the
/// report CSVs in `csv_dir`: one message per finding the report
/// contradicts, empty when all hold.
///
/// * NetAcuity has the highest country accuracy.
/// * City coverage orders MaxMind-GeoLite < MaxMind-Paid < both
///   IP2Location-Lite and NetAcuity.
/// * The two MaxMind databases agree more often than any other pair.
/// * In every database, ARIN and RIPENCC have the two highest shares of
///   wrong countries, and NetAcuity's share is the lowest (ties
///   allowed) in every RIR.
pub fn ordering_violations(csv_dir: &Path) -> io::Result<Vec<String>> {
    let read = |name| fs::read_to_string(csv_dir.join(name));
    let texts = [
        read(COVERAGE)?,
        read(CONSISTENCY)?,
        read(ACCURACY)?,
        read(BY_RIR)?,
    ];
    Ok(orderings(&texts).unwrap_or_else(|missing| vec![missing]))
}

/// [`ordering_violations`] over the texts of [`COVERAGE`],
/// [`CONSISTENCY`], [`ACCURACY`] and [`BY_RIR`]; `Err` names a cell the
/// check needs and the report lacks.
fn orderings(
    [coverage, consistency, accuracy, by_rir]: &[String; 4],
) -> Result<Vec<String>, String> {
    let mut out = Vec::new();

    let accuracy = Csv::new(ACCURACY, accuracy);
    let best = accuracy.tenths("NetAcuity", "country acc")?;
    for db in accuracy.labels().filter(|db| *db != "NetAcuity") {
        let acc = accuracy.tenths(db, "country acc")?;
        if acc >= best {
            out.push(format!(
                "{ACCURACY}: {db}'s country accuracy {} is not below NetAcuity's {}",
                pct(acc),
                pct(best)
            ));
        }
    }

    let coverage = Csv::new(COVERAGE, coverage);
    let city = |db| coverage.tenths(db, "city-level");
    let (free, paid) = (city("MaxMind-GeoLite")?, city("MaxMind-Paid")?);
    let full = city("IP2Location-Lite")?.min(city("NetAcuity")?);
    if !(free < paid && paid < full) {
        out.push(format!(
            "{COVERAGE}: city coverage {} (MaxMind-GeoLite), {} (MaxMind-Paid), {} (lower of \
             IP2Location-Lite and NetAcuity) is not strictly increasing",
            pct(free),
            pct(paid),
            pct(full)
        ));
    }

    let consistency = Csv::new(CONSISTENCY, consistency);
    let vendor = "MaxMind-GeoLite vs MaxMind-Paid";
    let top = consistency.tenths(vendor, "agreement")?;
    for pair in consistency
        .labels()
        .filter(|p| *p != vendor && *p != "ALL databases")
    {
        let agree = consistency.tenths(pair, "agreement")?;
        if agree >= top {
            out.push(format!(
                "{CONSISTENCY}: {pair} agrees on {}, not below {vendor}'s {}",
                pct(agree),
                pct(top)
            ));
        }
    }

    let by_rir = Csv::new(BY_RIR, by_rir);
    // After the RIR and n columns, one column per database.
    let dbs: Vec<&str> = by_rir.header.iter().skip(2).copied().collect();
    for &db in &dbs {
        let floor = by_rir
            .tenths("ARIN", db)?
            .min(by_rir.tenths("RIPENCC", db)?);
        for rir in by_rir.labels().filter(|r| *r != "ARIN" && *r != "RIPENCC") {
            let wrong = by_rir.tenths(rir, db)?;
            if wrong >= floor {
                out.push(format!(
                    "{BY_RIR}: {db} is wrong on {} of {rir}, not below ARIN and RIPENCC (both at least {})",
                    pct(wrong),
                    pct(floor)
                ));
            }
        }
    }
    for rir in by_rir.labels() {
        let netacuity = by_rir.tenths(rir, "NetAcuity")?;
        for &db in &dbs {
            let wrong = by_rir.tenths(rir, db)?;
            if wrong < netacuity {
                out.push(format!(
                    "{BY_RIR}: in {rir}, {db} is wrong on {}, below NetAcuity's {}",
                    pct(wrong),
                    pct(netacuity)
                ));
            }
        }
    }
    Ok(out)
}

/// Where `golden` and `fresh` first differ, as `line N: expected … got …`
/// (1-based), or `None` when they are byte-identical.
pub fn first_difference(golden: &[u8], fresh: &[u8]) -> Option<String> {
    if golden == fresh {
        return None;
    }
    let mut expected = golden.split(|b| *b == b'\n');
    let mut got = fresh.split(|b| *b == b'\n');
    let show = |l: Option<&[u8]>| {
        l.map_or_else(
            || "end of file".to_string(),
            |l| format!("{:?}", String::from_utf8_lossy(l)),
        )
    };
    let mut line = 0usize;
    loop {
        line += 1;
        let (e, g) = (expected.next(), got.next());
        if e != g {
            return Some(format!(
                "line {line}: expected {}, got {}",
                show(e),
                show(g)
            ));
        }
        e?;
    }
}

/// Compare every file of two directories by name and bytes: one
/// message per file that is missing from `fresh`, extra in `fresh`, or
/// different, in file-name order. Empty when the directories match.
pub fn compare_dirs(golden: &Path, fresh: &Path) -> io::Result<Vec<String>> {
    let names = |dir: &Path| -> io::Result<BTreeSet<String>> {
        let mut out = BTreeSet::new();
        for entry in fs::read_dir(dir)? {
            out.insert(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(out)
    };
    let (want, have) = (names(golden)?, names(fresh)?);
    let mut problems = Vec::new();
    for name in want.union(&have) {
        match (want.contains(name), have.contains(name)) {
            (true, false) => problems.push(format!("{name}: missing from the fresh run")),
            (false, true) => problems.push(format!("{name}: not in the golden")),
            _ => {
                let diff =
                    first_difference(&fs::read(golden.join(name))?, &fs::read(fresh.join(name))?);
                if let Some(diff) = diff {
                    problems.push(format!("{name}: {diff}"));
                }
            }
        }
    }
    Ok(problems)
}

/// Replace the golden with a fresh run: `stdout` becomes the report
/// text, and the golden CSV directory is emptied and refilled from
/// `fresh_csv`.
pub fn bless(root: &Path, stdout: &[u8], fresh_csv: &Path) -> io::Result<()> {
    fs::write(root.join(GOLDEN_STDOUT), stdout)?;
    let golden_csv = root.join(GOLDEN_CSV_DIR);
    if golden_csv.exists() {
        fs::remove_dir_all(&golden_csv)?;
    }
    fs::create_dir_all(&golden_csv)?;
    for entry in fs::read_dir(fresh_csv)? {
        let entry = entry?;
        fs::copy(entry.path(), golden_csv.join(entry.file_name()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn golden_csv() -> std::path::PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(GOLDEN_CSV_DIR)
    }

    /// `text` with every cell equal to `a` renamed `b` and vice versa:
    /// two rows or two columns trade places.
    fn swap(text: &str, a: &str, b: &str) -> String {
        let line = |line: &str| {
            let cells: Vec<&str> = line
                .split(',')
                .map(|c| {
                    if c == a {
                        b
                    } else if c == b {
                        a
                    } else {
                        c
                    }
                })
                .collect();
            cells.join(",")
        };
        text.lines().map(|l| line(l) + "\n").collect()
    }

    #[test]
    fn the_golden_report_holds_every_finding() {
        let violations = ordering_violations(&golden_csv()).expect("the golden is readable");
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn a_flipped_row_breaks_its_finding() {
        let files = [COVERAGE, CONSISTENCY, ACCURACY, BY_RIR];
        let golden = files.map(|f| fs::read_to_string(golden_csv().join(f)).expect("golden"));
        let flips = [
            (ACCURACY, "NetAcuity", "IP2Location-Lite"),
            (COVERAGE, "MaxMind-GeoLite", "MaxMind-Paid"),
            (COVERAGE, "MaxMind-Paid", "NetAcuity"),
            (
                CONSISTENCY,
                "MaxMind-GeoLite vs MaxMind-Paid",
                "MaxMind-Paid vs NetAcuity",
            ),
            (BY_RIR, "RIPENCC", "APNIC"),
            (BY_RIR, "NetAcuity", "MM-Paid"),
        ];
        for (file, a, b) in flips {
            let mut texts = golden.clone();
            let at = files
                .iter()
                .position(|f| *f == file)
                .expect("a finding file");
            texts[at] = swap(&texts[at], a, b);
            assert_ne!(texts[at], golden[at], "{a} and {b} are in {file}");
            let violations = orderings(&texts).expect("every cell is there");
            assert!(
                !violations.is_empty() && violations.iter().all(|v| v.starts_with(file)),
                "{file} with {a} and {b} swapped: {violations:?}"
            );
        }
    }

    #[test]
    fn only_one_decimal_percentages_parse() {
        assert_eq!(parse_tenths("100.0%"), Some(1000));
        assert_eq!(parse_tenths("0.0%"), Some(0));
        for bad in ["89.95%", "89.9", "12%", "x.1%", "99999999999.9%"] {
            assert_eq!(parse_tenths(bad), None, "{bad}");
        }
    }

    #[test]
    fn a_missing_cell_is_a_violation() {
        let files = [COVERAGE, CONSISTENCY, ACCURACY, BY_RIR];
        let mut texts = files.map(|f| fs::read_to_string(golden_csv().join(f)).expect("golden"));
        texts[2] = swap(&texts[2], "country acc", "country accuracy");
        assert_eq!(
            orderings(&texts),
            Err(format!(
                "{ACCURACY}: no percentage at (NetAcuity, country acc)"
            ))
        );
    }

    #[test]
    fn identical_bytes_have_no_difference() {
        assert_eq!(first_difference(b"a\nb\n", b"a\nb\n"), None);
    }

    #[test]
    fn first_differing_line_is_reported() {
        assert_eq!(
            first_difference(b"a\nb\nc\n", b"a\nB\nc\n").as_deref(),
            Some("line 2: expected \"b\", got \"B\"")
        );
        assert_eq!(
            first_difference(b"a\n", b"a\nextra").as_deref(),
            Some("line 2: expected \"\", got \"extra\"")
        );
        assert_eq!(
            first_difference(b"a", b"a\n").as_deref(),
            Some("line 2: expected end of file, got \"\"")
        );
    }

    #[test]
    fn directories_compare_by_name_and_bytes() {
        let base = std::env::temp_dir().join(format!("xtask-report-{}", std::process::id()));
        let (golden, fresh) = (base.join("golden"), base.join("fresh"));
        for dir in [&golden, &fresh] {
            fs::create_dir_all(dir).expect("temp dir");
        }
        let write = |dir: &Path, name: &str, text: &str| {
            fs::write(dir.join(name), text).expect("write");
        };
        write(&golden, "01_same.csv", "x,y\n");
        write(&fresh, "01_same.csv", "x,y\n");
        assert!(compare_dirs(&golden, &fresh).expect("readable").is_empty());

        write(&golden, "02_moved.csv", "1\n2\n");
        write(&fresh, "02_moved.csv", "1\n3\n");
        write(&golden, "03_gone.csv", "");
        write(&fresh, "04_new.csv", "");
        let problems = compare_dirs(&golden, &fresh).expect("readable");
        fs::remove_dir_all(&base).expect("cleanup");
        assert_eq!(
            problems,
            [
                "02_moved.csv: line 2: expected \"2\", got \"3\"",
                "03_gone.csv: missing from the fresh run",
                "04_new.csv: not in the golden",
            ]
        );
    }
}
