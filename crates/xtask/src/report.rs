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
