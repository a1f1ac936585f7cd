//! `rvs-perf` — the repository's benchmark.
//!
//! ```text
//! rvs-perf all     [--seed S] [--reps R] [--out DIR]   e2e + layers, every check
//! rvs-perf e2e     [--seed S] [--reps R] [--out DIR]   end-to-end metrics, telemetry off
//! rvs-perf layers  [--seed S] [--out DIR] [--dump-spans PREFIX]
//!                                                       traced run: per-layer metrics
//! rvs-perf list                                         workloads and metrics
//! rvs-perf benchmark-json                               BENCHMARK.json, from the tables
//! rvs-perf compare A.json B.json                        apply the bounds to two sets
//! rvs-perf --workload W --seed N --seconds S --trace 0|1
//!                                                       one workload, one JSON result line
//! ```
//!
//! `all`, `e2e` and `layers` also take `--workload W` (repeatable) to run a
//! subset, and `--peers N --span-mins M` to shrink every run (self-tests).
//! Each simulation runs in a child process of its own
//! (`rvs-perf run-one W --seed S --mode timed|steps|replay`), one at a time.

use rvs_perf::{child, compare, driver, json, table, workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: rvs-perf all|e2e|layers [--seed S] [--reps R] [--out DIR] [--workload W]...
                               [--dump-spans PREFIX] [--peers N --span-mins M]
       rvs-perf list | benchmark-json
       rvs-perf compare A.json B.json
       rvs-perf run-one W --seed S --mode timed|steps|replay [--dump-spans FILE]
       rvs-perf --workload W --seed N --seconds S --trace 0|1";

/// Parsed command line: positional words and `--key value` flags. Unlike
/// `rvs`, an unknown or valueless flag is an error, not ignored.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String], known: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(key) if known.contains(&key) => {
                    let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    args.flags.push((key.to_string(), v.clone()));
                }
                Some(key) => return Err(format!("unknown flag --{key}")),
                None => args.words.push(a.clone()),
            }
        }
        Ok(args)
    }

    fn all(&self, key: &str) -> impl Iterator<Item = &str> {
        let key = key.to_string();
        self.flags
            .iter()
            .filter(move |(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.all(key)
            .last()
            .map(|v| v.parse().map_err(|_| format!("bad value for --{key}: {v}")))
            .transpose()
    }
}

fn workload_named(name: &str) -> Result<&'static table::Workload, String> {
    table::workload(name).ok_or_else(|| {
        let names: Vec<&str> = table::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (have: {})", names.join(", "))
    })
}

fn shrink(args: &Args) -> Result<Option<(usize, u64)>, String> {
    match (args.get("peers")?, args.get("span-mins")?) {
        (Some(p), Some(m)) => Ok(Some((p, m))),
        (None, None) => Ok(None),
        _ => Err("--peers and --span-mins go together".to_string()),
    }
}

fn options(args: &Args) -> Result<driver::Options, String> {
    let mut opts = driver::Options::default();
    if let Some(seed) = args.get("seed")? {
        opts.seed = seed;
    }
    if let Some(reps) = args.get::<usize>("reps")? {
        opts.reps = reps.max(1);
    }
    opts.out = args.get::<PathBuf>("out")?;
    opts.dump_spans = args.get::<PathBuf>("dump-spans")?;
    opts.shrink = shrink(args)?;
    let picked: Vec<_> = args
        .all("workload")
        .map(workload_named)
        .collect::<Result<_, _>>()?;
    if !picked.is_empty() {
        opts.workloads = picked;
    }
    Ok(opts)
}

fn run_one(args: &Args) -> Result<bool, String> {
    let w = workload_named(args.words.get(1).ok_or("run-one needs a workload")?)?;
    let mode = args.get::<String>("mode")?.ok_or("run-one needs --mode")?;
    let mut scale = workload::Scale::of(w);
    if let Some((peers, span_mins)) = shrink(args)? {
        scale = workload::Scale {
            peers,
            span_mins,
            full: false,
            ..scale
        };
    }
    let job = child::Job {
        workload: w,
        scale,
        seed: args.get("seed")?.ok_or("run-one needs --seed")?,
        mode: child::Mode::parse(&mode).ok_or(format!("unknown mode `{mode}`"))?,
        dump_spans: args.get::<PathBuf>("dump-spans")?,
    };
    let report = child::run(&job)?;
    println!("{}", json::render(&report));
    Ok(json::f64_at(&report, "checks_failed").unwrap_or(0.0) == 0.0)
}

fn dispatch(raw: &[String]) -> Result<bool, String> {
    const FLAGS: [&str; 11] = [
        "seed",
        "reps",
        "out",
        "workload",
        "dump-spans",
        "peers",
        "span-mins",
        "mode",
        "seconds",
        "trace",
        "help",
    ];
    let args = Args::parse(raw, &FLAGS)?;
    match args.words.first().map(String::as_str) {
        Some("all") => driver::all(&options(&args)?),
        Some("e2e") => {
            let set = driver::e2e(&options(&args)?, None)?;
            Ok(driver::failed_checks(&set) == 0)
        }
        Some("layers") => {
            let set = driver::layers(&options(&args)?, None)?;
            Ok(driver::failed_checks(&set) == 0)
        }
        Some("list") => {
            driver::list();
            Ok(true)
        }
        Some("benchmark-json") => {
            println!("{}", json::render_pretty(&driver::benchmark_json()));
            Ok(true)
        }
        Some("compare") => match &args.words[1..] {
            [a, b] => compare::run(a.as_ref(), b.as_ref()),
            _ => Err("compare needs two files".to_string()),
        },
        Some("run-one") => run_one(&args),
        Some(other) => Err(format!("unknown command `{other}`")),
        None => {
            // The builder's contract: flags only.
            if args.all("workload").next().is_none() {
                return Err(USAGE.to_string());
            }
            args.get::<u64>("seed")?.ok_or("--seed is required")?;
            let seconds: f64 = args.get("seconds")?.ok_or("--seconds is required")?;
            let trace = match args.get::<u8>("trace")?.ok_or("--trace is required")? {
                0 => false,
                1 => true,
                t => return Err(format!("--trace is 0 or 1, not {t}")),
            };
            driver::contract(&options(&args)?, seconds, trace)
        }
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if raw
        .iter()
        .any(|a| a == "--help" || a == "-h" || a == "help")
    {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match dispatch(&raw) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rvs-perf: {e}");
            ExitCode::from(2)
        }
    }
}
