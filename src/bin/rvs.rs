//! `rvs` — command-line front end for the robust-vote-sampling library.
//!
//! ```text
//! rvs trace --seed 42 --peers 100 --hours 168 [--out trace.json]
//! rvs stats --traces 10 --seed 1
//! rvs run   --seed 7 --peers 40 --hours 48 [--t-mib 5] [--loss 0.1]
//! rvs attack --seed 7 --core 10 --crowd 20 --hours 48
//! ```
//!
//! Every command is deterministic in its `--seed`. This is the quickest
//! way to poke at the system without writing code; the experiment
//! binaries in `rvs-bench` regenerate the paper's figures.

use robust_vote_sampling::attacks::{Flooder, Malformer};
use robust_vote_sampling::checkpoint::FORMAT_VERSION;
use robust_vote_sampling::core::ModeratorBoard;
use robust_vote_sampling::faults::FaultSchedule;
use robust_vote_sampling::guard::GuardConfig;
use robust_vote_sampling::metrics::TimeSeries;
use robust_vote_sampling::scenario::checkpoint::{
    first_divergence, golden_checkpoint, golden_coverage_system, golden_file_name, golden_result,
    GOLDEN_COVERAGE, GOLDEN_RESULTS, GOLDEN_SEEDS,
};
use robust_vote_sampling::scenario::experiments::experience::dataset_statistics;
use robust_vote_sampling::scenario::experiments::vote_sampling::{fig6_moderators, FIG6_MIN_PEERS};
use robust_vote_sampling::scenario::{
    Checkpoint, ProtocolConfig, SpamAttackConfig, System, VoteSamplingConfig,
};
use robust_vote_sampling::sim::{NodeId, SimDuration, SimTime};
use robust_vote_sampling::telemetry;
use robust_vote_sampling::trace::{io, TraceGenConfig, TraceStats};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    // rvs-lint: allow(ambient-env) -- CLI argument parsing at the binary entry point
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let outcome = match cmd.as_str() {
        "trace" => parse_flags(rest, TRACE_FLAGS).and_then(|f| cmd_trace(&f)),
        "stats" => parse_flags(rest, STATS_FLAGS).and_then(|f| cmd_stats(&f)),
        "run" => parse_flags(rest, RUN_FLAGS).and_then(cmd_run),
        "attack" => parse_flags(rest, ATTACK_FLAGS).and_then(cmd_attack),
        "ckpt" => cmd_ckpt(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(usage_error(&format!("unknown command `{other}`"))),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(code) => code,
    }
}

const USAGE: &str = "\
rvs — robust vote sampling playground

USAGE:
    rvs trace  [--seed N] [--peers N] [--hours N] [--out FILE]
        generate a filelist-calibrated churn trace (JSON when --out given)
    rvs stats  [--seed N] [--traces N] [--peers N] [--hours N]
        dataset statistics over N traces (the paper's §VI summary)
    rvs run    [--seed N] [--peers N] [--hours N] [--t-mib X] [--loss X]
               [--faults FILE] [--guard on|FILE] [--threads N]
               [--telemetry FILE|-] [--checkpoint-every N]
               [--checkpoint-dir D] [--resume FILE]
        full-stack Figure 6 scenario; prints the accuracy curve and the
        best-informed node's moderator board. --faults loads a JSON
        FaultSchedule (latency/jitter, loss, burst loss, duplication,
        partitions, crash-restarts, retry/backoff; see DESIGN.md §10)
        and routes every delivery through the fault-injection plane.
        --guard arms the Byzantine message plane (DESIGN.md §13): `on`
        uses the built-in active preset, otherwise FILE is a GuardConfig
        JSON naming every knob.
        --checkpoint-every N writes a checkpoint every N simulated hours,
        N fewer than the run has left, into --checkpoint-dir (default
        `.`); --resume FILE restores a
        checkpoint and continues the run to --hours — byte-identical to
        never having stopped (DESIGN.md §12), on any --threads; the
        checkpoint fixes --seed --peers --t-mib --loss --faults, so
        those are refused next to --resume
    rvs attack [--seed N] [--peers N] [--core N] [--crowd N] [--hours N]
               [--t-mib X] [--flood N] [--flood-rate N] [--malform PM]
               [--guard on|FILE] [--threads N] [--telemetry FILE|-]
        Figure 8 flash-crowd scenario; prints the pollution curve.
        --flood N turns the N highest-index trace peers into flooders
        (--flood-rate extra sends per member per round, default 12);
        --malform PM mutates PM per mille (at most 1000) of guarded
        wire messages.
        Either attack arms the guard plane's active preset unless
        --guard overrides it; rejection counters land in --telemetry
    rvs ckpt inspect FILE
        print a checkpoint's header summary (any format version) and, for
        a file this build restores, each section's bytes and share
    rvs ckpt diff A B
        compare two checkpoints this build can restore: prints the header
        fields that differ and the first section whose bytes differ;
        exits 0 and prints `identical` when the files are equal, 1 otherwise
    rvs ckpt regen [--dir D]
        regenerate the golden corpus: checkpoints in D (default
        tests/golden), result goldens in D/results

    --threads N shards the simulation round engine across N worker
    threads (0 = honour RVS_THREADS, the default). Results are
    byte-identical for every N; see DESIGN.md §11.
    --telemetry dumps a JSON snapshot of the per-protocol counters (and
    wall-clock phase timings) to FILE, or to stdout when FILE is `-`.";

const TRACE_FLAGS: &[&str] = &["seed", "peers", "hours", "out"];
const STATS_FLAGS: &[&str] = &["seed", "traces", "peers", "hours"];
const RUN_FLAGS: &[&str] = &[
    "seed",
    "peers",
    "hours",
    "t-mib",
    "loss",
    "faults",
    "guard",
    "threads",
    "telemetry",
    "checkpoint-every",
    "checkpoint-dir",
    "resume",
];
const ATTACK_FLAGS: &[&str] = &[
    "seed",
    "peers",
    "core",
    "crowd",
    "hours",
    "t-mib",
    "flood",
    "flood-rate",
    "malform",
    "guard",
    "threads",
    "telemetry",
];

/// Report a command-line mistake: one line naming it, then the usage
/// text, both on stderr.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}\n{USAGE}");
    ExitCode::FAILURE
}

/// Parse `--name value` pairs, accepting only the names in `allowed`.
/// Anything else — an unknown flag, a positional argument, a flag with no
/// value — is an error rather than a silently different run.
fn parse_flags(rest: &[String], allowed: &[&str]) -> Result<BTreeMap<String, String>, ExitCode> {
    let mut flags = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(usage_error(&format!("unexpected argument `{arg}`")));
        };
        if !allowed.contains(&name) {
            return Err(usage_error(&format!("unknown flag `{arg}`")));
        }
        let Some(value) = it.next() else {
            return Err(usage_error(&format!("flag `{arg}` needs a value")));
        };
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

/// The value of `--key`, or `default` when the flag is absent; a value
/// that does not parse as `T` is an error.
fn get<T: std::str::FromStr>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, ExitCode> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| usage_error(&format!("invalid value `{v}` for --{key}"))),
    }
}

/// Like [`get`], for a value that must also lie in a range: `ok` decides,
/// `want` names the range in the complaint. A parsable but impossible
/// value (`--peers 0`, `--loss 1.5`, `--t-mib nan`) is the user's mistake
/// and is reported here, not by an assertion deep inside the library.
fn get_in<T: std::str::FromStr + std::fmt::Display>(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: T,
    want: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, ExitCode> {
    let v = get(flags, key, default)?;
    if ok(&v) {
        Ok(v)
    } else {
        Err(usage_error(&format!("--{key} must be {want}, got {v}")))
    }
}

/// A count that must be at least `min`.
fn get_at_least(
    flags: &BTreeMap<String, String>,
    key: &str,
    default: usize,
    min: usize,
) -> Result<usize, ExitCode> {
    get_in(flags, key, default, &format!("at least {min}"), |&n| {
        n >= min
    })
}

/// `--hours N`: a span no larger than the simulated clock can count in
/// milliseconds.
fn get_hours(flags: &BTreeMap<String, String>, default: u64) -> Result<u64, ExitCode> {
    let want = format!("at most {}", SimTime::MAX_HOURS);
    get_in(flags, "hours", default, &want, |&h| h <= SimTime::MAX_HOURS)
}

/// `--t-mib X`: the experience threshold `T` in MiB.
fn get_t_mib(flags: &BTreeMap<String, String>) -> Result<f64, ExitCode> {
    get_in(flags, "t-mib", 5.0, "a finite number >= 0", |t| {
        t.is_finite() && *t >= 0.0
    })
}

/// Honour `--telemetry FILE|-`: dump the system's counter snapshot as JSON
/// to FILE (stdout when `-`). Call `telemetry::set_enabled(true)` *before*
/// the run so the wall-clock phase timers populate too.
fn dump_telemetry(system: &System, flags: &BTreeMap<String, String>) -> Result<(), ExitCode> {
    let Some(dest) = flags.get("telemetry") else {
        return Ok(());
    };
    let json = system.telemetry_snapshot().to_json();
    if dest == "-" {
        println!("{json}");
    } else if let Err(e) = std::fs::write(dest, json + "\n") {
        eprintln!("failed to write telemetry to {dest}: {e}");
        return Err(ExitCode::FAILURE);
    } else {
        println!("\ntelemetry snapshot written to {dest}");
    }
    Ok(())
}

/// Honour `--threads N`: shard the round engine across N workers. 0 (the
/// default) keeps the RVS_THREADS-derived count the System booted with.
/// Thread count never changes results — only wall-clock time — which is
/// proven byte-for-byte by tests/parallel_differential.rs.
fn apply_threads(system: &mut System, flags: &BTreeMap<String, String>) -> Result<(), ExitCode> {
    let threads: usize = get(flags, "threads", 0)?;
    if threads > 0 {
        system.set_threads(threads.min(64));
    }
    Ok(())
}

/// Honour `--guard on|FILE`: arm the Byzantine guard plane with the
/// built-in active preset, or with a `GuardConfig` JSON file (a config
/// file names every knob — start from the JSON of the active preset).
fn apply_guard(system: &mut System, flags: &BTreeMap<String, String>) -> Result<(), ExitCode> {
    let Some(spec) = flags.get("guard") else {
        return Ok(());
    };
    let cfg = if spec == "on" {
        GuardConfig::active()
    } else {
        let text = match std::fs::read_to_string(spec) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("failed to read guard config {spec}: {e}");
                return Err(ExitCode::FAILURE);
            }
        };
        match serde_json::from_str(&text) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("invalid guard config {spec}: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    };
    system.set_guard_config(cfg);
    Ok(())
}

/// The trace generator's configuration from `--peers` / `--hours`;
/// `min_peers` is the smallest population the calling command can cast.
fn trace_cfg(
    flags: &BTreeMap<String, String>,
    min_peers: usize,
) -> Result<TraceGenConfig, ExitCode> {
    let peers = get_at_least(flags, "peers", 100, min_peers)?;
    let hours = get_hours(flags, 168)?;
    Ok(TraceGenConfig::scaled(
        peers,
        SimDuration::from_hours(hours),
    ))
}

fn cmd_trace(flags: &BTreeMap<String, String>) -> Result<(), ExitCode> {
    let seed: u64 = get(flags, "seed", 42)?;
    let cfg = trace_cfg(flags, 1)?;
    let trace = cfg.generate(seed);
    println!("{}", TraceStats::compute(&trace));
    if let Some(path) = flags.get("out") {
        match io::save(&trace, std::path::Path::new(path)) {
            Ok(()) => println!("\nwritten to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    Ok(())
}

fn cmd_stats(flags: &BTreeMap<String, String>) -> Result<(), ExitCode> {
    let seed: u64 = get(flags, "seed", 1)?;
    let traces = get_at_least(flags, "traces", 10, 1)?;
    let cfg = trace_cfg(flags, 1)?;
    let (_, mean) = dataset_statistics(&cfg, traces, seed);
    println!("mean over {traces} traces:\n{mean}");
    Ok(())
}

fn cmd_run(mut flags: BTreeMap<String, String>) -> Result<(), ExitCode> {
    // --resume takes everything that shapes a fresh run from the
    // checkpoint; naming one of those flags too asks for a run that
    // cannot be had, not for one that quietly ignores it.
    if flags.contains_key("resume") {
        let fresh = ["seed", "peers", "t-mib", "loss", "faults"];
        if let Some(flag) = fresh.iter().find(|f| flags.contains_key(**f)) {
            return Err(usage_error(&format!(
                "--{flag} cannot be combined with --resume: the checkpoint fixes it"
            )));
        }
    }
    let seed: u64 = get(&flags, "seed", 7)?;
    flags.entry("peers".into()).or_insert_with(|| "40".into());
    flags.entry("hours".into()).or_insert_with(|| "48".into());
    let hours = get_hours(&flags, 48)?;
    if flags.contains_key("telemetry") {
        telemetry::set_enabled(true);
    }
    // --resume restores everything (seed, trace, cast, fault plane) from
    // the checkpoint; the fresh-run flags configure a new system.
    let (mut system, m) = if let Some(path) = flags.get("resume") {
        let ckpt = load_ckpt(path)?;
        let system = match System::restore(&ckpt) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot restore {path}: {e}");
                return Err(ExitCode::FAILURE);
            }
        };
        // The Fig 6 moderators are the trace's first three arrivals, and
        // the checkpoint carries the trace — recompute the expected order.
        let m = fig6_moderators(system.trace());
        (system, m)
    } else {
        let cfg = VoteSamplingConfig {
            trace: trace_cfg(&flags, FIG6_MIN_PEERS)?,
            protocol: ProtocolConfig {
                experience_t_mib: get_t_mib(&flags)?,
                message_loss: get_in(&flags, "loss", 0.0, "a probability in [0, 1]", |l| {
                    (0.0..=1.0).contains(l)
                })?,
                ..ProtocolConfig::default()
            },
            positive_fraction: 0.15,
            negative_fraction: 0.15,
            ..VoteSamplingConfig::paper()
        };
        let schedule = match flags.get("faults") {
            Some(path) => {
                let text = match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("failed to read fault schedule {path}: {e}");
                        return Err(ExitCode::FAILURE);
                    }
                };
                match FaultSchedule::from_json(&text) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("invalid fault schedule {path}: {e}");
                        return Err(ExitCode::FAILURE);
                    }
                }
            }
            None => FaultSchedule::default(),
        };
        cfg.system(seed, schedule)
    };
    let end = SimTime::from_hours(hours);
    // The loop below writes only before `end`: a cadence that first falls
    // at or past it would write nothing, silently.
    let ckpt_every: u64 = get(&flags, "checkpoint-every", 0)?;
    let left = end.since(system.now());
    if ckpt_every > 0 && SimDuration::from_hours(1).saturating_mul(ckpt_every) >= left {
        let left_hours = left.as_secs_f64() / 3600.0;
        return Err(usage_error(&format!(
            "--checkpoint-every must be less than the {left_hours} h left to run, got {ckpt_every}"
        )));
    }
    if let Some(path) = flags.get("resume") {
        eprintln!("resumed from {path} at {}", system.now());
    }
    apply_threads(&mut system, &flags)?;
    apply_guard(&mut system, &flags)?;
    let sample = SimDuration::from_hours((hours / 12).max(1));
    let mut series = TimeSeries::new("accuracy");
    if ckpt_every == 0 {
        system.run_until(end, sample, |sys, now| {
            series.push(now, sys.ordering_accuracy(&m));
        });
    } else {
        // Observe hourly so both the sampling cadence and the checkpoint
        // cadence land on exact hour marks; failures inside the closure
        // are carried out and reported after the run.
        let dir = flags
            .get("checkpoint-dir")
            .cloned()
            .unwrap_or_else(|| ".".to_string());
        let mut next_series = system.now();
        let mut next_ckpt = system.now() + SimDuration::from_hours(ckpt_every);
        let mut save_error: Option<String> = None;
        system.run_until(end, SimDuration::from_hours(1), |sys, now| {
            if now >= next_series || now >= end {
                series.push(now, sys.ordering_accuracy(&m));
                next_series = now + sample;
            }
            if now >= next_ckpt && now < end && save_error.is_none() {
                next_ckpt = now + SimDuration::from_hours(ckpt_every);
                let hours_mark = now.as_millis() / 3_600_000;
                let path = Path::new(&dir).join(format!("ckpt-{hours_mark}h.ckpt"));
                match sys.checkpoint().save(&path) {
                    Ok(()) => eprintln!("checkpoint written to {}", path.display()),
                    Err(e) => save_error = Some(format!("{}: {e}", path.display())),
                }
            }
        });
        if let Some(msg) = save_error {
            eprintln!("failed to write checkpoint {msg}");
            return Err(ExitCode::FAILURE);
        }
    }
    println!("fraction of nodes ranking M1 > M2 > M3:");
    print!("{}", TimeSeries::render_table(&[&series]));
    let observer = (0..system.trace_peer_count())
        .map(NodeId::from_index)
        .max_by_key(|&n| system.votes().ballot(n).unique_voters())
        .expect("non-empty population");
    println!("\nmoderator board at {observer}:");
    println!(
        "{}",
        ModeratorBoard::from_ballot(system.votes().ballot(observer), 5)
    );
    dump_telemetry(&system, &flags)
}

fn load_ckpt(path: &str) -> Result<Checkpoint, ExitCode> {
    Checkpoint::load(Path::new(path)).map_err(|e| {
        eprintln!("failed to load checkpoint {path}: {e}");
        ExitCode::FAILURE
    })
}

/// `rvs ckpt inspect FILE` / `rvs ckpt diff A B` / `rvs ckpt regen [--dir D]`.
fn cmd_ckpt(rest: &[String]) -> Result<(), ExitCode> {
    match rest.first().map(String::as_str) {
        Some("inspect") => {
            let [_, path] = rest else {
                return Err(usage_error("usage: rvs ckpt inspect FILE"));
            };
            let ckpt = load_ckpt(path)?;
            let info = match ckpt.peek_info() {
                Ok(info) => info,
                Err(e) => {
                    eprintln!("cannot read checkpoint header of {path}: {e}");
                    return Err(ExitCode::FAILURE);
                }
            };
            println!("{info}");
            if info.version != FORMAT_VERSION {
                println!(
                    "note: this build restores version {FORMAT_VERSION} only; \
                     the file cannot be resumed here"
                );
                return Ok(());
            }
            // Where the bytes are; the header and identity prefix in front
            // of the first section are in no line.
            match ckpt.sections() {
                Ok(sections) => {
                    println!("sections (bytes, share of the file):");
                    for (name, range) in sections {
                        let share = 100.0 * range.len() as f64 / info.bytes as f64;
                        println!("  {name:<12}{:>12} {share:>6.1} %", range.len());
                    }
                    Ok(())
                }
                Err(e) => {
                    eprintln!("cannot index the sections of {path}: {e}");
                    Err(ExitCode::FAILURE)
                }
            }
        }
        Some("diff") => {
            if let Some(flag) = rest.iter().find(|arg| arg.starts_with("--")) {
                return Err(usage_error(&format!("unknown flag `{flag}`")));
            }
            let [_, a, b] = rest else {
                return Err(usage_error("usage: rvs ckpt diff A B"));
            };
            match first_divergence(&load_ckpt(a)?, &load_ckpt(b)?) {
                None => {
                    println!("identical");
                    Ok(())
                }
                Some(report) => {
                    println!("{report}");
                    Err(ExitCode::FAILURE)
                }
            }
        }
        Some("regen") => {
            let dir = parse_flags(&rest[1..], &["dir"])?
                .remove("dir")
                .unwrap_or_else(|| "tests/golden".to_string());
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("cannot create {dir}: {e}");
                return Err(ExitCode::FAILURE);
            }
            let fig6 = GOLDEN_SEEDS.map(|seed| (golden_file_name(seed), golden_checkpoint(seed)));
            let coverage = (
                GOLDEN_COVERAGE.to_string(),
                golden_coverage_system().checkpoint(),
            );
            for (name, ckpt) in fig6.into_iter().chain([coverage]) {
                let path = Path::new(&dir).join(name);
                if let Err(e) = ckpt.save(&path) {
                    eprintln!("failed to write {}: {e}", path.display());
                    return Err(ExitCode::FAILURE);
                }
                println!("wrote {}", path.display());
            }
            let results = Path::new(&dir).join("results");
            if let Err(e) = std::fs::create_dir_all(&results) {
                eprintln!("cannot create {}: {e}", results.display());
                return Err(ExitCode::FAILURE);
            }
            for name in GOLDEN_RESULTS {
                let path = results.join(format!("{name}.json"));
                if let Err(e) = std::fs::write(&path, golden_result(name, 1)) {
                    eprintln!("failed to write {}: {e}", path.display());
                    return Err(ExitCode::FAILURE);
                }
                println!("wrote {}", path.display());
            }
            Ok(())
        }
        _ => Err(usage_error(
            "usage: rvs ckpt inspect FILE | rvs ckpt diff A B | rvs ckpt regen [--dir D]",
        )),
    }
}

fn cmd_attack(mut flags: BTreeMap<String, String>) -> Result<(), ExitCode> {
    let seed: u64 = get(&flags, "seed", 7)?;
    flags.entry("peers".into()).or_insert_with(|| "40".into());
    flags.entry("hours".into()).or_insert_with(|| "48".into());
    let hours = get_hours(&flags, 48)?;
    let core = get_at_least(&flags, "core", 10, 1)?;
    let crowd = get_at_least(&flags, "crowd", 20, 1)?;
    let trace = trace_cfg(&flags, 1)?;
    if trace.n_peers <= core {
        eprintln!("--core must be smaller than --peers");
        return Err(ExitCode::FAILURE);
    }
    let cfg = SpamAttackConfig {
        trace,
        protocol: ProtocolConfig {
            experience_t_mib: get_t_mib(&flags)?,
            ..ProtocolConfig::default()
        },
        core_size: core,
        ..SpamAttackConfig::paper()
    };
    if flags.contains_key("telemetry") {
        telemetry::set_enabled(true);
    }
    let (mut system, spam) = cfg.system(seed, crowd, FaultSchedule::default());
    apply_threads(&mut system, &flags)?;
    // Byzantine adversaries: flooders are the highest-index trace peers
    // (the founder core occupies the low indices), the malformer mutates
    // guarded wire messages at the given per-mille rate. Either attack
    // needs the guard plane up to be observable, so arm the active
    // preset unless --guard picked a config explicitly.
    let flood: usize = get(&flags, "flood", 0)?;
    let flood_rate: u32 = get(&flags, "flood-rate", 12)?;
    let malform: u32 = get_in(&flags, "malform", 0, "at most 1000", |&pm| pm <= 1000)?;
    let n_trace = system.trace_peer_count();
    if flood > 0 {
        let members = (n_trace.saturating_sub(flood)..n_trace).map(NodeId::from_index);
        system.set_flooder(Flooder::new(members, flood_rate));
    }
    if malform > 0 {
        system.set_malformer(Malformer::new(malform));
    }
    if (flood > 0 || malform > 0) && !flags.contains_key("guard") {
        system.set_guard_config(GuardConfig::active());
    }
    apply_guard(&mut system, &flags)?;
    let mut series = TimeSeries::new(format!("crowd={crowd}/core={core}"));
    system.run_until(
        SimTime::from_hours(hours),
        SimDuration::from_hours((hours / 12).max(1)),
        |sys, now| series.push(now, sys.new_node_pollution(spam)),
    );
    println!("proportion of newly arrived honest nodes ranking spam top:");
    print!("{}", TimeSeries::render_table(&[&series]));
    if system.guard().enabled() {
        let g = system.guard().counters();
        println!(
            "\nguard plane: {} accepted, {} rate-limited, {} dropped-in-quarantine, \
             {} quarantines started ({} released), {} flood sends, {} wire mutations",
            g.accepted,
            g.rejected_rate_limited,
            g.rejected_quarantined,
            g.quarantines_started,
            g.quarantines_released,
            g.flooder_sends,
            g.malformer_mutations,
        );
    }
    dump_telemetry(&system, &flags)
}
