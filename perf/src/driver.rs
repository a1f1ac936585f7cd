//! The parent side: runs one child process at a time, aggregates their
//! reports, prints every metric by name with its unit and runs the
//! cross-run checks.

use crate::child::Mode;
use crate::json::{self, num, obj, text, Value};
use crate::layers;
use crate::table::{Better, Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// What the sub-commands share.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed handed to every child.
    pub seed: u64,
    /// Timed runs per workload (`e2e`, `all`).
    pub reps: usize,
    /// Directory for `e2e.json` / `layers.json`.
    pub out: Option<PathBuf>,
    /// Shrunk `(peers, span_mins)` for the self-tests.
    pub shrink: Option<(usize, u64)>,
    /// Chrome trace destination prefix for the traced passes.
    pub dump_spans: Option<PathBuf>,
    /// The workloads to run, in round-robin order.
    pub workloads: Vec<&'static Workload>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 7,
            reps: 3,
            out: None,
            shrink: None,
            dump_spans: None,
            workloads: WORKLOADS.iter().collect(),
        }
    }
}

/// Run one child to completion and parse the report on its last line.
fn spawn(w: &Workload, mode: Mode, opts: &Options) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run-one", w.name, "--mode", mode.as_str()])
        .args(["--seed", &opts.seed.to_string()]);
    if let Some((peers, span_mins)) = opts.shrink {
        cmd.args(["--peers", &peers.to_string()])
            .args(["--span-mins", &span_mins.to_string()]);
    }
    if let (Some(prefix), true) = (&opts.dump_spans, mode != Mode::Timed) {
        let mut path = prefix.clone().into_os_string();
        path.push(format!(".{}.{}.json", w.name, mode.as_str()));
        cmd.arg("--dump-spans").arg(path);
    }
    // The child's thread count is the workload's; keep the environment
    // from overriding it.
    cmd.env_remove("RVS_THREADS");
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} {} child: {}",
            w.name,
            mode.as_str(),
            out.status
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    json::parse(last)
        .map_err(|e| format!("{} {} child printed no report: {e}", w.name, mode.as_str()))
}

fn median(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| crate::compare::median(values))
}

/// Checks and digests accumulated over the children of one workload.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: Vec<String>,
    digests: Vec<String>,
    missing: Vec<String>,
}

impl Tally {
    /// Book one child's outcome: its exit status is a check of its own.
    fn book(&mut self, outcome: &Result<Value, String>) {
        self.attempted += 1;
        match outcome {
            Err(e) => self.failed.push(format!("exit_status: {e}")),
            Ok(report) => {
                self.attempted += json::f64_at(report, "checks_attempted").unwrap_or(0.0) as u64;
                self.failed
                    .extend(json::strs_at(report, "failed_checks").map(String::from));
                for m in json::strs_at(report, "missing") {
                    if !self.missing.iter().any(|x| x == m) {
                        self.missing.push(m.to_string());
                    }
                }
                if let Some(d) = json::str_at(report, "result_digest") {
                    self.digests.push(d.to_string());
                }
            }
        }
    }

    /// The cross-run check: every `System` pass of one workload and seed —
    /// timed reps and the step trace alike — ends in the same result.
    fn close(&mut self) {
        self.attempted += 1;
        if self.digests.windows(2).any(|w| w[0] != w[1]) {
            self.failed.push(format!(
                "result_digest differs across runs: {:?}",
                self.digests
            ));
        }
    }

    fn fields(&self) -> [(&'static str, Value); 5] {
        [
            (
                "result_digest",
                self.digests
                    .first()
                    .map_or(Value::Null, |d| text(d.as_str())),
            ),
            ("checks_attempted", Value::UInt(self.attempted)),
            ("checks_failed", Value::UInt(self.failed.len() as u64)),
            (
                "failed_checks",
                json::texts(self.failed.iter().map(String::as_str)),
            ),
            (
                "missing",
                json::texts(self.missing.iter().map(String::as_str)),
            ),
        ]
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and on what the numbers were taken.
fn host() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    obj([
        ("nproc", Value::UInt(nproc as u64)),
        ("cpu", text(cpu)),
        ("rustc", text(command_line("rustc", &["--version"]))),
        ("git_rev", text(command_line("git", &["rev-parse", "HEAD"]))),
    ])
}

fn workload_head(w: &Workload, opts: &Options) -> [(&'static str, Value); 3] {
    let (peers, span_mins) = opts.shrink.unwrap_or((w.peers, w.span_mins));
    [
        ("peers", Value::UInt(peers as u64)),
        ("span_mins", Value::UInt(span_mins)),
        ("threads", Value::UInt(w.threads as u64)),
    ]
}

fn write_out(opts: &Options, file: &str, set: &Value) -> Result<(), String> {
    let Some(dir) = &opts.out else { return Ok(()) };
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, json::render_pretty(set) + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("written to {}", path.display());
    Ok(())
}

// ----------------------------------------------------------------------
// End to end
// ----------------------------------------------------------------------

/// The timed reports of one workload, with their checks.
struct TimedRuns {
    reports: Vec<Value>,
    tally: Tally,
}

fn e2e_summary(w: &Workload, runs: &TimedRuns, opts: &Options) -> Value {
    let metrics = END_TO_END.iter().map(|m| {
        let values: Vec<f64> = runs
            .reports
            .iter()
            .filter_map(|r| json::f64_at(r, m.name))
            .collect();
        let (lo, hi) = crate::compare::range(&values);
        let summary = obj([
            ("unit", text(m.unit)),
            ("median", num(median(&values))),
            ("min", num(lo)),
            ("max", num(hi)),
            ("n", Value::UInt(values.len() as u64)),
            (
                "values",
                Value::Array(values.into_iter().map(Value::Float).collect()),
            ),
        ]);
        (m.name, summary)
    });
    let mut fields: Vec<(&str, Value)> = workload_head(w, opts).into();
    fields.extend(runs.tally.fields());
    fields.push(("metrics", obj(metrics)));
    obj(fields)
}

fn print_e2e(name: &str, summary: &Value) {
    println!("\n{name}  (end to end, telemetry off)");
    println!(
        "  {:<14} {:<9} {:>14} {:>14} {:>14} {:>3}",
        "metric", "unit", "median", "min", "max", "n"
    );
    for m in &END_TO_END {
        let get = |f: &str| json::f64_at(summary, &format!("metrics.{}.{f}", m.name));
        println!(
            "  {:<14} {:<9} {:>14.6} {:>14.6} {:>14.6} {:>3}",
            m.name,
            m.unit,
            get("median").unwrap_or(f64::NAN),
            get("min").unwrap_or(f64::NAN),
            get("max").unwrap_or(f64::NAN),
            get("n").unwrap_or(0.0)
        );
    }
    print_checks(summary);
}

fn print_checks(summary: &Value) {
    println!(
        "  result_digest {}  checks_failed {} / checks_attempted {}",
        json::str_at(summary, "result_digest").unwrap_or("-"),
        json::f64_at(summary, "checks_failed").unwrap_or(f64::NAN),
        json::f64_at(summary, "checks_attempted").unwrap_or(f64::NAN),
    );
    for key in ["failed_checks", "missing"] {
        let items: Vec<&str> = json::strs_at(summary, key).collect();
        if !items.is_empty() {
            println!("  {key}: {}", items.join("; "));
        }
    }
}

/// Failed checks summed over a set's workloads.
pub fn failed_checks(set: &Value) -> u64 {
    json::at(set, "workloads")
        .and_then(Value::as_object)
        .into_iter()
        .flatten()
        .filter_map(|(_, w)| json::f64_at(w, "checks_failed"))
        .sum::<f64>() as u64
}

/// `rvs-perf e2e`: `reps` timed runs per workload, interleaved round-robin
/// (w1 w2 w3 w4 w1 …) so host drift hits all workloads alike. `budget_s`,
/// when set, replaces the fixed rep count: reps continue until the
/// measured time reaches it.
pub fn e2e(opts: &Options, budget_s: Option<f64>) -> Result<Value, String> {
    let mut runs: Vec<TimedRuns> = opts
        .workloads
        .iter()
        .map(|_| TimedRuns {
            reports: Vec::new(),
            tally: Tally::default(),
        })
        .collect();
    let began = Instant::now();
    let mut rep = 0;
    loop {
        let rep_began = Instant::now();
        for (w, r) in opts.workloads.iter().zip(&mut runs) {
            let outcome = spawn(w, Mode::Timed, opts);
            r.tally.book(&outcome);
            match outcome {
                Ok(report) => r.reports.push(report),
                Err(e) => eprintln!("{e}"),
            }
        }
        rep += 1;
        let done = match budget_s {
            // Stop when another round would overshoot the budget by more
            // than it undershoots now.
            Some(b) => began.elapsed().as_secs_f64() + rep_began.elapsed().as_secs_f64() / 2.0 > b,
            None => rep >= opts.reps,
        };
        if done {
            break;
        }
    }
    let mut summaries = Vec::new();
    for (w, r) in opts.workloads.iter().zip(&mut runs) {
        r.tally.close();
        let summary = e2e_summary(w, r, opts);
        print_e2e(w.name, &summary);
        summaries.push((w.name, summary));
    }
    let set = obj([
        ("kind", text("e2e")),
        ("host", host()),
        ("seed", Value::UInt(opts.seed)),
        ("reps", Value::UInt(rep as u64)),
        ("workloads", obj(summaries)),
    ]);
    write_out(opts, "e2e.json", &set)?;
    Ok(set)
}

// ----------------------------------------------------------------------
// Traced run
// ----------------------------------------------------------------------

fn print_layers(name: &str, summary: &Value) {
    println!("\n{name}  (traced run: step trace + layer-stack replay + probes)");
    println!(
        "  {:<36} {:<9} {:>16}  src  should move",
        "metric", "unit", "value"
    );
    for m in &PER_LAYER {
        let value = layer_value(summary, m.name);
        let shown = value.map_or("null".to_string(), |v| format!("{v:.6}"));
        println!(
            "  {:<36} {:<9} {:>16}  {}    {} on {}",
            m.name, m.unit, shown, m.source, m.moves, m.on
        );
    }
    print_checks(summary);
}

/// A per-layer value from a `layers` summary (metric names contain dots,
/// so they are whole keys, not key paths).
pub fn layer_value(summary: &Value, name: &str) -> Option<f64> {
    let metrics = json::at(summary, "metrics")?.as_object()?;
    json::f64_at(serde::object_get(metrics, name)?, "value")
}

/// `rvs-perf layers`: per workload one step trace and one layer-stack
/// replay, each in its own child. The untraced reference they are read
/// against is `reference` (an `e2e` set of the same seed) when given, and
/// one more timed child otherwise.
pub fn layers(opts: &Options, reference: Option<&Value>) -> Result<Value, String> {
    let mut summaries = Vec::new();
    for w in &opts.workloads {
        let mut tally = Tally::default();
        let reference = reference.and_then(|set| {
            let summary = json::at(set, &format!("workloads.{}", w.name))?;
            let digest = json::str_at(summary, "result_digest")?;
            tally.digests.push(digest.to_string());
            Some(obj([(
                "wall_s",
                num(json::f64_at(summary, "metrics.wall_s.median")),
            )]))
        });
        let mut pass = |mode| {
            let outcome = spawn(w, mode, opts);
            tally.book(&outcome);
            outcome.unwrap_or_else(|e| {
                eprintln!("{e}");
                Value::Null
            })
        };
        let timed = reference.unwrap_or_else(|| pass(Mode::Timed));
        let (steps, replay) = (pass(Mode::Steps), pass(Mode::Replay));
        tally.close();
        let combined = layers::combine(&timed, &steps, &replay);
        for m in combined.missing {
            if !tally.missing.contains(&m) {
                tally.missing.push(m);
            }
        }
        let metrics = PER_LAYER
            .iter()
            .zip(&combined.values)
            .map(|(m, (_, v))| (m.name, obj([("unit", text(m.unit)), ("value", num(*v))])));
        let mut fields: Vec<(&str, Value)> = workload_head(w, opts).into();
        fields.extend(tally.fields());
        fields.push(("metrics", obj(metrics)));
        fields.push((
            "replay_spans",
            json::at(&replay, "raw.spans")
                .cloned()
                .unwrap_or(Value::Null),
        ));
        let summary = obj(fields);
        print_layers(w.name, &summary);
        summaries.push((w.name, summary));
    }
    let set = obj([
        ("kind", text("layers")),
        ("host", host()),
        ("seed", Value::UInt(opts.seed)),
        ("workloads", obj(summaries)),
    ]);
    write_out(opts, "layers.json", &set)?;
    Ok(set)
}

/// `rvs-perf all`: `e2e` then `layers`; whether every check passed.
pub fn all(opts: &Options) -> Result<bool, String> {
    let e = e2e(opts, None)?;
    let l = layers(opts, Some(&e))?;
    let failed = failed_checks(&e) + failed_checks(&l);
    println!("\nchecks_failed total: {failed}");
    Ok(failed == 0)
}

/// `rvs-perf list`: the benchmark's definition.
pub fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!(
            "  {:<16} {} peers x {} min, {} thread(s)\n{:18}{}",
            w.name, w.peers, w.span_mins, w.threads, "", w.why
        );
    }
    println!("\nend-to-end metrics (per workload; one run reports the best rep where marked *, else the median):");
    for m in &END_TO_END {
        println!(
            "  {:<14}{} {:<9} better {:<6} bound {:>4.0}%  {}",
            m.name,
            if m.best_of_reps { "*" } else { " " },
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("\nper-layer metrics (traced run; C counter, S step trace, R replay span, P probe, D derived):");
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:<9} better {:<6} {}  should move {} on {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.source,
            m.moves,
            m.on
        );
    }
}

// ----------------------------------------------------------------------
// The builder's contract
// ----------------------------------------------------------------------

/// How long one contract run measures, in seconds: two reps of `scale_1k`,
/// three or four of the others. A run ends within `RUN_SECONDS` + half a
/// rep + the checks, about 27 s, so the contract's 4 + 22 x 4 runs plus two
/// 25-s builds take about 2500 s of its 3420 s.
pub const RUN_SECONDS: u64 = 24;

/// `rvs-perf benchmark-json`: the `BENCHMARK.json` the tables define.
pub fn benchmark_json() -> Value {
    let strings = |items: &[&str]| json::texts(items.iter().copied());
    let manifest = "perf/Cargo.toml";
    obj([
        (
            "command",
            strings(&[
                "cargo",
                "run",
                "--release",
                "--offline",
                "--manifest-path",
                manifest,
                "--",
            ]),
        ),
        ("paths", strings(&["perf"])),
        ("run_seconds", Value::UInt(RUN_SECONDS)),
        (
            "workloads",
            Value::Array(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", text(w.name)), ("why", text(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                            ("bound", Value::Float(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", text(m.name)),
                            ("unit", text(m.unit)),
                            ("better", text(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn measured(value: f64, unit: &str) -> Value {
    obj([("value", Value::Float(value)), ("unit", text(unit))])
}

/// `--workload W --seed N --seconds S --trace 0|1`: one workload, measured
/// for about `seconds`; the last line of standard output is one JSON
/// object `{correct, attempted, failed, metrics}` holding every end-to-end
/// metric (`--trace 0`: the best rep for the timings, the median of the
/// reps otherwise) or every per-layer metric (`--trace 1`).
pub fn contract(opts: &Options, seconds: f64, trace: bool) -> Result<bool, String> {
    let [w] = opts.workloads[..] else {
        return Err("exactly one --workload, please".to_string());
    };
    let (set, metrics): (Value, Vec<(&str, Value)>) = if trace {
        let set = layers(opts, None)?;
        let summary = json::at(&set, &format!("workloads.{}", w.name)).unwrap_or(&Value::Null);
        let metrics = PER_LAYER
            .iter()
            .map(|m| {
                // A layer that does no work on this workload, or whose
                // counter is gone, reads 0 here; the table above prints it
                // as null and `missing` names it.
                let v = layer_value(summary, m.name).unwrap_or(0.0);
                (m.name, measured(v, m.unit))
            })
            .collect();
        (set, metrics)
    } else {
        let set = e2e(opts, Some(seconds))?;
        let metrics = END_TO_END
            .iter()
            .map(|m| {
                let pick = match (m.best_of_reps, m.better) {
                    (false, _) => "median",
                    (true, Better::Lower) => "min",
                    (true, Better::Higher) => "max",
                };
                let path = format!("workloads.{}.metrics.{}.{pick}", w.name, m.name);
                json::f64_at(&set, &path)
                    .map(|v| (m.name, measured(v, m.unit)))
                    .ok_or_else(|| format!("no run of {} produced {}", w.name, m.name))
            })
            .collect::<Result<_, _>>()?;
        (set, metrics)
    };
    let path = |f: &str| format!("workloads.{}.{f}", w.name);
    let attempted = json::f64_at(&set, &path("checks_attempted")).unwrap_or(0.0) as u64;
    let failed = json::f64_at(&set, &path("checks_failed")).unwrap_or(0.0) as u64;
    let correct = failed == 0 && attempted > 0;
    println!(
        "{}",
        json::render(&obj([
            ("correct", Value::Bool(correct)),
            ("attempted", Value::UInt(attempted.max(1))),
            ("failed", Value::UInt(failed)),
            ("metrics", obj(metrics)),
        ]))
    );
    Ok(correct)
}
