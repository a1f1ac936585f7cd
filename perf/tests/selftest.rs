//! Self-tests of the benchmark package: the in-code tables equal
//! `BENCHMARK.json`, the release profile equals the root's, the sources
//! stay clear of identifiers scheduled for deletion, and a shrunk run of
//! every workload emits every metric and passes every check.

use rvs_perf::json::{self, Value};
use rvs_perf::table::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

fn perf_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn repo_root() -> PathBuf {
    perf_dir()
        .parent()
        .expect("perf/ sits in the repository root")
        .to_path_buf()
}

fn legal_name(s: &str) -> bool {
    s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn legal_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

fn rows<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    json::at(doc, key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
}

fn field<'a>(row: &'a Value, key: &str) -> &'a str {
    json::str_at(row, key).unwrap_or_else(|| panic!("row {row:?} has no string `{key}`"))
}

#[test]
fn tables_equal_benchmark_json() {
    let doc = json::load(&repo_root().join("BENCHMARK.json")).unwrap();

    let keys: Vec<&str> = doc
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let paths: Vec<&str> = rows(&doc, "paths")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert_eq!(paths, ["perf"]);
    let command: Vec<&str> = rows(&doc, "command")
        .iter()
        .filter_map(Value::as_str)
        .collect();
    assert!(command.contains(&"perf/Cargo.toml"), "{command:?}");
    let secs = json::f64_at(&doc, "run_seconds").unwrap();
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);

    let workloads = rows(&doc, "workloads");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (row, w) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(field(row, "name"), w.name);
        assert_eq!(field(row, "why"), w.why);
        assert!(legal_name(w.name));
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }

    let e2e = rows(&doc, "end_to_end");
    assert!(e2e.len() <= 16);
    assert_eq!(e2e.len(), END_TO_END.len());
    for (row, m) in e2e.iter().zip(&END_TO_END) {
        assert_eq!(field(row, "name"), m.name);
        assert_eq!(field(row, "unit"), m.unit);
        assert_eq!(field(row, "better"), m.better.as_str());
        assert_eq!(json::f64_at(row, "bound"), Some(m.bound), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(legal_name(m.name) && legal_unit(m.unit), "{}", m.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.as_str()), ("s", "lower"));
    let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, widest, "setup_s takes the largest bound");

    let per_layer = rows(&doc, "per_layer");
    assert!(per_layer.len() <= 128);
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (row, m) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(field(row, "name"), m.name);
        assert_eq!(field(row, "unit"), m.unit);
        assert_eq!(field(row, "better"), m.better.as_str());
        assert!(legal_name(m.name) && legal_unit(m.unit), "{}", m.name);
        assert!(
            END_TO_END.iter().any(|e| e.name == m.moves),
            "{} names end-to-end metric {}",
            m.name,
            m.moves
        );
        assert!(
            WORKLOADS.iter().any(|w| w.name == m.on),
            "{} names workload {}",
            m.name,
            m.on
        );
        assert!("CSRPD".contains(m.source), "{}", m.name);
    }

    // A name is used once across the whole file.
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().map(|m| m.name))
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    names.sort_unstable();
    let before = names.len();
    names.dedup();
    assert_eq!(names.len(), before, "a name is used twice");
}

/// The body of a manifest's `[profile.release]` table, comments and blank
/// lines dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).unwrap();
    text.lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn release_profile_equals_the_roots() {
    let root = release_profile(&repo_root().join("Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has a [profile.release]");
    assert_eq!(release_profile(&perf_dir().join("Cargo.toml")), root);
}

#[test]
fn sources_avoid_identifiers_scheduled_for_deletion() {
    // ROADMAP items 2 and 3 delete or reshape these; a benchmark that later
    // changes may not edit must not depend on them.
    let doomed = [
        "ShardBus",
        "shard_bus",
        "set_shards",
        "run_indexed",
        "Pss::",
    ];
    for entry in std::fs::read_dir(perf_dir().join("src")).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        for word in doomed {
            // Whole identifiers only: `OraclePss::new` is not `Pss::`.
            let hit = text
                .match_indices(word)
                .any(|(at, _)| !text[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'));
            assert!(!hit, "{} mentions `{word}`", path.display());
        }
    }
}

fn rvs_perf() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rvs-perf"))
}

#[test]
fn committed_baseline_sets_agree_within_the_bounds() {
    // Two sets of runs of the same code: no `regressed`, no `unresolved`,
    // and every exact-repeat counter identical.
    let baseline = perf_dir().join("baseline");
    for kind in ["e2e", "layers"] {
        let run = rvs_perf()
            .arg("compare")
            .arg(baseline.join(format!("{kind}.A.json")))
            .arg(baseline.join(format!("{kind}.B.json")))
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(run.status.success(), "{kind}:\n{stdout}");
        assert!(
            !stdout.contains("unresolved") && !stdout.contains("DIFFERS"),
            "{stdout}"
        );
    }
}

fn two_cores() -> bool {
    std::thread::available_parallelism().map_or(1, |p| p.get()) >= 2
}

#[test]
fn shrunk_run_emits_every_metric_and_passes_every_check() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    let mut cmd = rvs_perf();
    cmd.args(["all", "--reps", "1", "--seed", "11"])
        .args(["--peers", "12", "--span-mins", "120"])
        .arg("--out")
        .arg(&out);
    let picked: Vec<_> = WORKLOADS
        .iter()
        .filter(|w| w.threads == 1 || two_cores())
        .collect();
    for w in &picked {
        cmd.args(["--workload", w.name]);
    }
    let run = cmd.output().unwrap();
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "rvs-perf all failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let e2e = json::load(&out.join("e2e.json")).unwrap();
    let layers = json::load(&out.join("layers.json")).unwrap();
    for w in &picked {
        let summary = json::at(&e2e, &format!("workloads.{}", w.name)).expect(w.name);
        assert_eq!(
            json::f64_at(summary, "checks_failed"),
            Some(0.0),
            "{}",
            w.name
        );
        assert!(json::f64_at(summary, "checks_attempted").unwrap() >= 5.0);
        for m in &END_TO_END {
            let n = json::f64_at(summary, &format!("metrics.{}.n", m.name));
            assert_eq!(n, Some(1.0), "{} {}", w.name, m.name);
            assert!(stdout.contains(m.name) && stdout.contains(m.unit));
        }

        let summary = json::at(&layers, &format!("workloads.{}", w.name)).expect(w.name);
        assert_eq!(
            json::f64_at(summary, "checks_failed"),
            Some(0.0),
            "{}",
            w.name
        );
        let metrics = json::at(summary, "metrics")
            .and_then(Value::as_object)
            .unwrap();
        for m in &PER_LAYER {
            assert!(
                metrics.iter().any(|(k, _)| k == m.name),
                "{} lacks {}",
                w.name,
                m.name
            );
            assert!(stdout.contains(m.name));
        }
        // Nothing the tables ask for is missing from today's snapshot.
        assert_eq!(
            json::at(summary, "missing"),
            Some(&Value::Array(Vec::new()))
        );
        // The scenario counters exist on every workload.
        let steps = rvs_perf::driver::layer_value(summary, "scenario.steps");
        assert_eq!(steps, Some(720.0), "{}: 2 h of 10 s ticks", w.name);
    }
}

#[test]
fn contract_line_carries_every_named_metric() {
    let run = rvs_perf()
        .args([
            "--workload",
            "fig6_100p",
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            "1",
        ])
        .args(["--peers", "12", "--span-mins", "120"])
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let stdout = String::from_utf8_lossy(&run.stdout);
    let last = json::parse(stdout.lines().last().unwrap()).unwrap();
    let keys: Vec<&str> = last
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(json::at(&last, "correct"), Some(&Value::Bool(true)));
    let metrics = json::at(&last, "metrics")
        .and_then(Value::as_object)
        .unwrap();
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let want: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    assert!(metrics
        .iter()
        .all(|(_, m)| json::f64_at(m, "value").is_some()));
}

#[test]
fn a_workload_never_runs_on_fewer_threads_than_it_states() {
    // Pin the child to one CPU: the 2-thread workload must refuse to run
    // rather than downgrade silently.
    let pinned = Command::new("taskset")
        .args(["-c", "0"])
        .arg(env!("CARGO_BIN_EXE_rvs-perf"))
        .args(["run-one", "scale_1k", "--seed", "7", "--mode", "timed"])
        .args(["--peers", "12", "--span-mins", "120"])
        .output();
    let Ok(run) = pinned else {
        eprintln!("taskset not available; skipping");
        return;
    };
    assert!(!run.status.success());
    assert!(String::from_utf8_lossy(&run.stderr).contains("refusing to downgrade"));
}
