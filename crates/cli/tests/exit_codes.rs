//! Integration tests for the CLI exit-code contract.
//!
//! The contract (documented in `print_usage` and USAGE.md):
//!
//! * 0  — success, including `obs diff --timing-warn-only` findings.
//! * 1  — generic runtime error, or an `obs diff` timing regression.
//! * 2  — `obs diff` hard key-loss ONLY (a metric/span present in the
//!        baseline is missing from the new report).
//! * 64 — usage error (`EX_USAGE`): unknown/missing arguments, or a
//!        report/trace input that cannot be read or parsed.
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
    // different registry size, or one written before the precomputed
    // popular-route winners table existed.
    let d = dir.to_str().expect("utf8");
    let model = dir.join("model.json");
    let m = model.to_str().expect("utf8");
    assert_eq!(run(&["gen", "--dir", d, "--trips", "1", "--seed", "7"]).0, 0);
    assert_eq!(run(&["train", "--dir", d, "--out", m, "--n-train", "20"]).0, 0);
    let json = std::fs::read_to_string(&model).expect("read model");
    let len_at = json.find("\"registry_len\":").expect("registry_len key") + 15;
    let len_end = len_at + json[len_at..].find(|c: char| !c.is_ascii_digit()).expect("number end");
    let n: usize = json[len_at..len_end].parse().expect("registry length");
    let other_world = format!("{}{}{}", &json[..len_at], n + 1, &json[len_end..]);
    let start = json.find(",\"winners\":").expect("winners key");
    let end = start + json[start..].find(",\"cfg\":").expect("cfg follows winners");
    let legacy = format!("{}{}", &json[..start], &json[end..]);
    for (name, body, needle) in
        [("other_world", other_world, "different world"), ("legacy", legacy, "winners")]
    {
        let bad = dir.join(format!("{name}.json"));
        std::fs::write(&bad, body).expect("write model");
        let args = ["summarize", "--dir", d, "--trip", "trip_000.csv", "--model"];
        let (code, _, stderr) = run(&[&args[..], &[bad.to_str().expect("utf8")]].concat());
        assert_eq!(code, 1, "{name}: {stderr}");
        assert!(stderr.contains(needle) && stderr.contains(name), "{name}: {stderr}");
    }
}

#[test]
fn out_of_corpus_occurrence_exits_one() {
    // A popular-route occurrence pointing past the corpus would panic the
    // first query that reaches the occurrence scan, so it is a load-time
    // error in either encoding.
    let dir = scratch("occ");
    let d = dir.to_str().expect("utf8");
    assert_eq!(run(&["gen", "--dir", d, "--trips", "1", "--seed", "7"]).0, 0);
    let json_model = dir.join("model.json");
    let stc_model = dir.join("model.stc");
    for (path, format) in [(&json_model, "json"), (&stc_model, "stc")] {
        let p = path.to_str().expect("utf8");
        let args = ["train", "--dir", d, "--out", p, "--n-train", "20", "--format", format];
        assert_eq!(run(&args).0, 0);
    }

    let json = std::fs::read_to_string(&json_model).expect("read model");
    let at = json.find("{\"traj\":").expect("an occurrence") + 8;
    let end = at + json[at..].find(',').expect("traj value end");
    let patched_json = format!("{}1000000{}", &json[..at], &json[end..]);
    let mut patched_stc = std::fs::read(&stc_model).expect("read model");
    let occ_traj = stmaker_io::stc::section_range(&patched_stc, 0x35).expect("occ_traj section");
    patched_stc[occ_traj.start..occ_traj.start + 4].copy_from_slice(&u32::MAX.to_le_bytes());

    for (name, body) in [("bad_occ.json", patched_json.into_bytes()), ("bad_occ.stc", patched_stc)]
    {
        let bad = dir.join(name);
        std::fs::write(&bad, body).expect("write model");
        let args = ["summarize", "--dir", d, "--trip", "trip_000.csv", "--model"];
        let (code, _, stderr) = run(&[&args[..], &[bad.to_str().expect("utf8")]].concat());
        assert_eq!(code, 1, "{name}: {stderr}");
        assert!(stderr.contains("outside the corpus") && stderr.contains(name), "{name}: {stderr}");
    }
}

/// Patches a trained model in both encodings: `zero` sets the first
/// numeric feature-map count to 0, `far` moves the last numeric
/// feature-map key's target to landmark 999999 (past any registry; the
/// rows stay sorted).
fn poisoned_models(json: &str, stc: &[u8]) -> [(&'static str, Vec<u8>); 4] {
    let featmap = json.find("\"featmap\"").expect("feature map");
    let at = featmap + json[featmap..].find("\"count\":").expect("a count") + 8;
    let end = at + json[at..].find('}').expect("count value end");
    let zero_json = format!("{}0{}", &json[..at], &json[end..]);
    let categorical = featmap + json[featmap..].find("\"categorical\"").expect("categorical");
    let key = json[..categorical].rfind("[[").expect("a numeric edge key") + 2;
    let to = key + json[key..].find(',').expect("key separator") + 1;
    let to_end = to + json[to..].find(']').expect("key end");
    let far_json = format!("{}999999{}", &json[..to], &json[to_end..]);

    let patch = |tag: u32, from_end: bool, value: &[u8]| {
        let mut bytes = stc.to_vec();
        let s = stmaker_io::stc::section_range(&bytes, tag).expect("section present");
        let at = if from_end { s.end - value.len() } else { s.start };
        bytes[at..at + value.len()].copy_from_slice(value);
        bytes
    };
    [
        ("zero_count.json", zero_json.into_bytes()),
        ("zero_count.stc", patch(0x26, false, &0u64.to_le_bytes())),
        ("far_landmark.json", far_json.into_bytes()),
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
    let json_model = dir.join("model.json");
    let stc_model = dir.join("model.stc");
    for (path, format) in [(&json_model, "json"), (&stc_model, "stc")] {
        let p = path.to_str().expect("utf8");
        let args = ["train", "--dir", d, "--out", p, "--n-train", "20", "--format", format];
        assert_eq!(run(&args).0, 0);
    }
    let json = std::fs::read_to_string(&json_model).expect("read model");
    let stc = std::fs::read(&stc_model).expect("read model");
    for (name, body) in poisoned_models(&json, &stc) {
        let bad = dir.join(name);
        std::fs::write(&bad, body).expect("write model");
        let args = ["summarize", "--dir", d, "--trip", "trip_000.csv", "--model"];
        let (code, _, stderr) = run(&[&args[..], &[bad.to_str().expect("utf8")]].concat());
        assert_eq!(code, 1, "{name}: {stderr}");
        let reason = if name.starts_with("zero") { "zero count" } else { "registry" };
        assert!(stderr.contains(reason) && stderr.contains(name), "{name}: {stderr}");
    }
}
