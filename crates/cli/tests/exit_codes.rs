//! Integration tests for the CLI exit-code contract.
//!
//! The contract (documented in `print_usage`):
//!
//! * 0  — success, including `obs diff --timing-warn-only` findings.
//! * 1  — any error outside `obs`: bad or missing arguments, an unknown
//!   subcommand, unreadable input, a model that does not load; or an
//!   `obs diff` timing regression.
//! * 2  — `obs diff` hard key-loss ONLY (a metric/span present in the
//!   baseline is missing from the new report).
//! * 64 — `obs` usage error (`EX_USAGE`): bad or missing `obs` arguments,
//!   or a report/trace input that cannot be read or parsed.
//!
//! The regression this pins down: a missing or unparseable report file
//! used to exit 2, indistinguishable from a real telemetry key-loss —
//! a typo'd path in CI would read as a structural regression.

use std::path::PathBuf;
use std::process::Command;
use std::time::Duration;

use stmaker_obs::Recorder;

const BIN: &str = env!("CARGO_BIN_EXE_stmaker-cli");

/// Per-test scratch directory under the target tmpdir.
fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("stmaker_exit_codes_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Builds a minimal report with one span/counter/gauge/histogram; the
/// span mean is `span_ms`, so two reports with different values diff as
/// a timing regression.
fn report_json(span_ms: u64) -> String {
    let obs = Recorder::enabled();
    obs.span_observed("summarize", Duration::from_millis(span_ms));
    obs.add("batch.summaries_ok", 10);
    obs.gauge("exec.threads", 1.0);
    obs.observe_ms("summarize", 1.0);
    obs.report().to_json_pretty()
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN).args(args).output().expect("spawn stmaker-cli");
    let code = out.status.code().expect("exit code");
    (
        code,
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn diff_of_identical_reports_exits_zero() {
    let dir = scratch("identical");
    let path = dir.join("r.json");
    std::fs::write(&path, report_json(10)).expect("write report");
    let p = path.to_str().expect("utf8 path");
    let (code, stdout, _) = run(&["obs", "diff", p, p]);
    assert_eq!(code, 0, "stdout: {stdout}");
    assert!(stdout.contains("no regressions"), "{stdout}");
}

#[test]
fn timing_regression_exits_one_and_warn_only_exits_zero() {
    let dir = scratch("timing");
    let base = dir.join("base.json");
    let new = dir.join("new.json");
    std::fs::write(&base, report_json(10)).expect("write base");
    std::fs::write(&new, report_json(200)).expect("write new");
    let (b, n) = (base.to_str().expect("utf8"), new.to_str().expect("utf8"));

    let (code, stdout, stderr) = run(&["obs", "diff", b, n, "--min-base-ms", "0"]);
    assert_eq!(code, 1, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stderr.contains("timing regression"), "{stderr}");

    let (code, _, stderr) = run(&["obs", "diff", b, n, "--min-base-ms", "0", "--timing-warn-only"]);
    assert_eq!(code, 0, "stderr: {stderr}");
    assert!(stderr.contains("warnings"), "{stderr}");
}

#[test]
fn hard_key_loss_exits_two() {
    let dir = scratch("keyloss");
    let base = dir.join("base.json");
    let new = dir.join("new.json");
    std::fs::write(&base, report_json(10)).expect("write base");
    // The new report never records the counter the baseline had.
    let obs = Recorder::enabled();
    obs.span_observed("summarize", Duration::from_millis(10));
    obs.gauge("exec.threads", 1.0);
    obs.observe_ms("summarize", 1.0);
    std::fs::write(&new, obs.report().to_json_pretty()).expect("write new");

    let (code, stdout, stderr) =
        run(&["obs", "diff", base.to_str().expect("utf8"), new.to_str().expect("utf8")]);
    assert_eq!(code, 2, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("HARD"), "{stdout}");
    assert!(stderr.contains("structural regression"), "{stderr}");
}

#[test]
fn missing_report_file_is_a_usage_error_not_a_key_loss() {
    let dir = scratch("missing");
    let real = dir.join("real.json");
    std::fs::write(&real, report_json(10)).expect("write report");
    let ghost = dir.join("no_such_file.json");
    let (code, _, stderr) =
        run(&["obs", "diff", real.to_str().expect("utf8"), ghost.to_str().expect("utf8")]);
    assert_eq!(code, 64, "stderr: {stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
}

#[test]
fn unparseable_report_file_is_a_usage_error() {
    let dir = scratch("garbage");
    let good = dir.join("good.json");
    let bad = dir.join("bad.json");
    std::fs::write(&good, report_json(10)).expect("write good");
    std::fs::write(&bad, "this is not a report {{{").expect("write bad");
    let (code, _, stderr) =
        run(&["obs", "diff", good.to_str().expect("utf8"), bad.to_str().expect("utf8")]);
    assert_eq!(code, 64, "stderr: {stderr}");
    assert!(stderr.contains("bad.json"), "{stderr}");
}

#[test]
fn diff_argument_mistakes_exit_sixty_four() {
    let dir = scratch("args");
    let path = dir.join("r.json");
    std::fs::write(&path, report_json(10)).expect("write report");
    let p = path.to_str().expect("utf8");

    // Wrong path count.
    let (code, _, stderr) = run(&["obs", "diff", p]);
    assert_eq!(code, 64, "{stderr}");
    // Flag without a value.
    let (code, _, stderr) = run(&["obs", "diff", p, p, "--threshold"]);
    assert_eq!(code, 64, "{stderr}");
    // Unparseable flag value.
    let (code, _, stderr) = run(&["obs", "diff", p, p, "--threshold", "banana"]);
    assert_eq!(code, 64, "{stderr}");
    // Unknown obs subcommand.
    let (code, _, stderr) = run(&["obs", "frobnicate"]);
    assert_eq!(code, 64, "{stderr}");
}

#[test]
fn obs_top_input_mistakes_exit_sixty_four() {
    let dir = scratch("top");
    let (code, _, stderr) = run(&["obs", "top"]);
    assert_eq!(code, 64, "{stderr}");

    let ghost = dir.join("no_trace.json");
    let (code, _, stderr) = run(&["obs", "top", ghost.to_str().expect("utf8")]);
    assert_eq!(code, 64, "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");

    let bad = dir.join("bad_trace.json");
    std::fs::write(&bad, "not a trace").expect("write bad trace");
    let (code, _, stderr) = run(&["obs", "top", bad.to_str().expect("utf8")]);
    assert_eq!(code, 64, "{stderr}");

    let worse = bad.to_str().expect("utf8");
    let (code, _, stderr) = run(&["obs", "top", worse, "--depth", "none"]);
    assert_eq!(code, 64, "{stderr}");
}

#[test]
fn runtime_errors_stay_exit_one() {
    // `serve` pointed at a directory with no world.json is a runtime
    // failure, not a usage error: the arguments parsed fine.
    let dir = scratch("serve");
    let (code, _, stderr) = run(&["serve", "--dir", dir.to_str().expect("utf8")]);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("error"), "{stderr}");

    // So is a model that does not fit the world: one trained against a
    // different registry size, or one missing a section (here the
    // popular-route winners table). And so is a model in the JSON shape
    // model files once had (here an empty model for this registry): STC1
    // is the only model encoding.
    let d = dir.to_str().expect("utf8");
    let model = dir.join("model.stc");
    assert_eq!(run(&["gen", "--dir", d, "--trips", "1", "--seed", "7"]).0, 0);
    let out = model.to_str().expect("utf8");
    assert_eq!(run(&["train", "--dir", d, "--out", out, "--n-train", "20"]).0, 0);
    let stc = std::fs::read(&model).expect("read model");
    let meta = stmaker_io::stc::section_range(&stc, 0x20).expect("meta section");
    let mut other_world = stc.clone();
    let len_at = meta.start + 8;
    let n = u64::from_le_bytes(stc[len_at..len_at + 8].try_into().expect("registry length"));
    other_world[len_at..len_at + 8].copy_from_slice(&(n + 1).to_le_bytes());
    let legacy = without_section(&stc, 0x3F);
    let json = format!(
        "{{\"popular\":{{\"corpus\":[],\"pairs\":[],\"transfers\":[],\"supports\":[],\
         \"winners\":[],\"cfg\":{{\"min_support\":1,\"max_indexed_span\":64}}}},\
         \"featmap\":{{\"edges\":[],\"categorical\":[]}},\"n_trained\":0,\"registry_len\":{n}}}"
    );
    for (name, body, needle) in [
        ("other_world.stc", other_world, "different world"),
        ("legacy.stc", legacy, "missing STC1 section 0x3f (win_from)"),
        ("m.json", json.into_bytes(), "not an STC1 file"),
    ] {
        let bad = dir.join(name);
        std::fs::write(&bad, body).expect("write model");
        let (code, _, stderr) = summarize_with(d, &bad);
        assert_eq!(code, 1, "{name}: {stderr}");
        assert!(stderr.contains(needle) && stderr.contains(name), "{name}: {stderr}");
    }
}

/// The `error: …` line of a failed run's stderr.
fn error_line(stderr: &str) -> &str {
    stderr.lines().find(|l| l.starts_with("error: ")).unwrap_or_default()
}

#[test]
fn serve_and_summarize_report_start_up_errors_alike() {
    // `serve` and `summarize` start through one helper: the model is read
    // while the world builds, yet each error reads as it did when the two
    // ran in turn, and a bad world.json still comes before a bad model.
    let dir = scratch("startup");
    let d = dir.to_str().expect("utf8");
    let model = dir.join("model.stc");
    assert_eq!(run(&["gen", "--dir", d, "--trips", "1", "--seed", "7"]).0, 0);
    let out = model.to_str().expect("utf8");
    assert_eq!(run(&["train", "--dir", d, "--out", out, "--n-train", "20"]).0, 0);
    let stc = std::fs::read(&model).expect("read model");
    let meta = stmaker_io::stc::section_range(&stc, 0x20).expect("meta section");
    let mut other_world = stc.clone();
    let len_at = meta.start + 8;
    let n = u64::from_le_bytes(stc[len_at..len_at + 8].try_into().expect("registry length"));
    other_world[len_at..len_at + 8].copy_from_slice(&(n + 1).to_le_bytes());
    let serve_with = |dir: &str, model: &std::path::Path| {
        let m = model.to_str().expect("utf8");
        run(&["serve", "--dir", dir, "--addr", "127.0.0.1:0", "--model", m])
    };
    for (name, body, needle) in [
        ("corrupt.stc", stc[..stc.len() / 2].to_vec(), "cannot load model"),
        ("other_world.stc", other_world, "retrain with `train` or point --dir at"),
    ] {
        let bad = dir.join(name);
        std::fs::write(&bad, body).expect("write model");
        let (code, _, summarize_err) = summarize_with(d, &bad);
        assert_eq!(code, 1, "{name}: {summarize_err}");
        let (code, _, serve_err) = serve_with(d, &bad);
        assert_eq!(code, 1, "{name}: {serve_err}");
        let line = error_line(&serve_err);
        assert!(line.contains(needle) && line.contains(name), "{name}: {serve_err}");
        assert_eq!(line, error_line(&summarize_err), "{name}");
    }

    // Without world.json, a missing model is never reached.
    std::fs::remove_file(dir.join("world.json")).expect("remove world.json");
    let ghost = dir.join("no_such_model.stc");
    for (code, _, stderr) in [summarize_with(d, &ghost), serve_with(d, &ghost)] {
        assert_eq!(code, 1, "{stderr}");
        let line = error_line(&stderr);
        assert!(line.contains("world.json") && line.contains("run `gen` first"), "{stderr}");
        assert!(!stderr.contains("cannot load model"), "{stderr}");
    }
}

/// `summarize` over `trip_000.csv` in `dir` with the model file `model`.
fn summarize_with(dir: &str, model: &std::path::Path) -> (i32, String, String) {
    let m = model.to_str().expect("utf8");
    run(&["summarize", "--dir", dir, "--trip", "trip_000.csv", "--model", m])
}

/// `stc` with section `tag` renamed in the section table to a tag no
/// reader asks for, so the section reads as missing.
fn without_section(stc: &[u8], tag: u32) -> Vec<u8> {
    let n = u32::from_le_bytes(stc[8..12].try_into().expect("section count")) as usize;
    let entry = (0..n)
        .map(|i| 16 + 24 * i)
        .find(|&at| stc[at..at + 4] == tag.to_le_bytes())
        .expect("section present");
    let mut bytes = stc.to_vec();
    bytes[entry..entry + 4].copy_from_slice(&0xFFu32.to_le_bytes());
    bytes
}

#[test]
fn out_of_corpus_occurrence_exits_one() {
    // A popular-route occurrence pointing past the corpus would panic the
    // first query that reaches the occurrence scan, so it is a load-time
    // error.
    let dir = scratch("occ");
    let d = dir.to_str().expect("utf8");
    assert_eq!(run(&["gen", "--dir", d, "--trips", "1", "--seed", "7"]).0, 0);
    assert_eq!(run(&["train", "--dir", d, "--n-train", "20"]).0, 0);
    let mut patched = std::fs::read(dir.join("model.stc")).expect("read model");
    let occ_traj = stmaker_io::stc::section_range(&patched, 0x35).expect("occ_traj section");
    patched[occ_traj.start..occ_traj.start + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    let bad = dir.join("bad_occ.stc");
    std::fs::write(&bad, patched).expect("write model");
    let (code, _, stderr) = summarize_with(d, &bad);
    assert_eq!(code, 1, "{stderr}");
    assert!(stderr.contains("outside the corpus") && stderr.contains("bad_occ.stc"), "{stderr}");
}

/// Patches a trained STC1 model: `zero` sets the first numeric
/// feature-map count to 0, `far` moves the last numeric feature-map key's
/// target to landmark 999999 (past any registry; the rows stay sorted).
fn poisoned_models(stc: &[u8]) -> [(&'static str, Vec<u8>); 2] {
    let patch = |tag: u32, from_end: bool, value: &[u8]| {
        let mut bytes = stc.to_vec();
        let s = stmaker_io::stc::section_range(&bytes, tag).expect("section present");
        let at = if from_end { s.end - value.len() } else { s.start };
        bytes[at..at + value.len()].copy_from_slice(value);
        bytes
    };
    [
        ("zero_count.stc", patch(0x26, false, &0u64.to_le_bytes())),
        ("far_landmark.stc", patch(0x23, true, &999_999u32.to_le_bytes())),
    ]
}

#[test]
fn poisoned_feature_rows_and_far_landmarks_exit_one() {
    // A zero count would make a hop's regular value infinite, and a
    // landmark past the registry names nothing; both refuse to load.
    let dir = scratch("poison");
    let d = dir.to_str().expect("utf8");
    assert_eq!(run(&["gen", "--dir", d, "--trips", "1", "--seed", "7"]).0, 0);
    assert_eq!(run(&["train", "--dir", d, "--n-train", "20"]).0, 0);
    let stc = std::fs::read(dir.join("model.stc")).expect("read model");
    for (name, body) in poisoned_models(&stc) {
        let bad = dir.join(name);
        std::fs::write(&bad, body).expect("write model");
        let (code, _, stderr) = summarize_with(d, &bad);
        assert_eq!(code, 1, "{name}: {stderr}");
        let reason = if name.starts_with("zero") { "zero count" } else { "registry" };
        assert!(stderr.contains(reason) && stderr.contains(name), "{name}: {stderr}");
    }
}

#[test]
fn argument_mistakes_outside_obs_exit_one() {
    // Only `obs` answers a usage mistake with 64; every other subcommand,
    // and an unknown one, exits 1. A subcommand flag given last has no
    // value: it used to be ignored, so `summarize … --model` quietly
    // trained a fresh model instead. An unknown flag (here the removed
    // `--format`) was ignored the same way. The removed global
    // `--spatial-index` is now an unknown subcommand option too.
    let dir = scratch("arguments");
    let d = dir.to_str().expect("utf8");
    assert_eq!(run(&["gen", "--dir", d, "--trips", "1", "--seed", "7"]).0, 0);
    for (args, message) in [
        (&["summarize", "--trip", "trip_000.csv"][..], "missing required option --dir"),
        (&["frobnicate"][..], "unknown subcommand"),
        (
            &["summarize", "--dir", d, "--trip", "trip_000.csv", "--model"][..],
            "missing value after --model",
        ),
        (&["train", "--dir", d, "--out"][..], "missing value after --out"),
        (&["serve", "--dir", d, "--model"][..], "missing value after --model"),
        (&["train", "--dir", d, "--format", "json"][..], "unknown option \"--format\""),
        (&["demo", "--spatial-index", "grid"][..], "unknown option \"--spatial-index\""),
    ] {
        let (code, _, stderr) = run(args);
        assert_eq!(code, 1, "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}
