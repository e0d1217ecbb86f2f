//! The global `--sanitize` flag governs every subcommand that reads trip
//! files. `group` and `search` read a whole directory: without the flag a
//! defective `trip_*.csv` is skipped with a warning, and under
//! `--sanitize repair` it is repaired and summarized like the others.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_stmaker-cli");

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn stmaker-cli");
    (
        out.status.code().expect("exit code"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A three-trip world with a trained model, where `trip_001.csv` carries
/// one out-of-range row: strict parsing refuses it, repair drops the row.
fn world_with_one_corrupt_trip(name: &str) -> (PathBuf, PathBuf) {
    let dir =
        std::env::temp_dir().join(format!("stmaker_trip_files_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf8 path");
    let (code, _, err) = run(&["gen", "--dir", d, "--trips", "3", "--seed", "5"]);
    assert_eq!(code, 0, "{err}");
    let model = dir.join("model.json");
    let (code, _, err) =
        run(&["train", "--dir", d, "--out", model.to_str().expect("utf8"), "--n-train", "40"]);
    assert_eq!(code, 0, "{err}");
    corrupt(&dir.join("trip_001.csv"));
    (dir, model)
}

fn corrupt(path: &Path) {
    let text = std::fs::read_to_string(path).expect("read trip");
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(3, "99.0,116.3,0");
    std::fs::write(path, lines.join("\n") + "\n").expect("write trip");
}

#[test]
fn group_repairs_a_corrupt_trip_under_sanitize_and_skips_it_without() {
    let (dir, model) = world_with_one_corrupt_trip("group");
    let (d, m) = (dir.to_str().expect("utf8"), model.to_str().expect("utf8"));

    let (code, out, err) = run(&["group", "--dir", d, "--model", m]);
    assert_eq!(code, 0, "{err}");
    assert!(err.contains("warning: skipping") && err.contains("trip_001.csv"), "{err}");
    assert!(err.contains("out of range"), "{err}");
    assert!(out.contains("of 2 trips summarized"), "{out}");

    let (code, out, err) = run(&["group", "--dir", d, "--model", m, "--sanitize", "repair"]);
    assert_eq!(code, 0, "{err}");
    assert!(!err.contains("skipping"), "{err}");
    assert!(err.contains("sanitize:"), "the repair report goes to stderr: {err}");
    assert!(out.contains("of 3 trips summarized"), "{out}");
}

#[test]
fn search_repairs_a_corrupt_trip_under_sanitize_and_skips_it_without() {
    let (dir, model) = world_with_one_corrupt_trip("search");
    let (d, m) = (dir.to_str().expect("utf8"), model.to_str().expect("utf8"));
    // Query with the repaired trip's own summary so it ranks whenever it
    // is indexed at all.
    let (code, text, err) = run(&[
        "summarize",
        "--dir",
        d,
        "--trip",
        "trip_001.csv",
        "--model",
        m,
        "--sanitize",
        "repair",
    ]);
    assert_eq!(code, 0, "{err}");
    let query = ["search", "--dir", d, "--model", m, "--query", text.trim(), "--top", "3"];

    let (code, out, err) = run(&query);
    assert_eq!(code, 0, "{err}");
    assert!(err.contains("warning: skipping") && err.contains("trip_001.csv"), "{err}");
    assert!(!out.contains("trip_001.csv"), "{out}");

    let (code, out, err) = run(&[&query[..], &["--sanitize", "repair"]].concat());
    assert_eq!(code, 0, "{err}");
    assert!(!err.contains("skipping"), "{err}");
    assert!(out.contains("trip_001.csv"), "the repaired trip is indexed: {out}");
}
