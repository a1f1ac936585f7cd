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
use robust_vote_sampling::cli::{self, Args};
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
use robust_vote_sampling::trace::{io, TraceGenConfig, TraceStats};
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv = cli::argv();
    let Some((cmd, rest)) = argv.split_first() else {
        cli::refuse(USAGE, "missing command");
    };
    let outcome = match cmd.as_str() {
        "trace" => cmd_trace(&cli::accept(rest, TRACE, USAGE)),
        "stats" => cmd_stats(&cli::accept(rest, STATS, USAGE)),
        "run" => cmd_run(&cli::accept(rest, RUN, USAGE)),
        "attack" => cmd_attack(&cli::accept(rest, ATTACK, USAGE)),
        "ckpt" => cmd_ckpt(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => cli::refuse(USAGE, &format!("unknown command `{other}`")),
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
        checkpoint and continues the run to --hours, which must lie past
        the checkpoint's time — byte-identical to
        never having stopped (DESIGN.md §12), on any --threads; the
        checkpoint fixes --seed --peers --t-mib --loss --faults, so
        those are refused next to --resume
    rvs attack [--seed N] [--peers N] [--core N] [--crowd N] [--hours N]
               [--t-mib X] [--flood N] [--flood-rate N] [--malform PM]
               [--guard on|FILE] [--threads N] [--telemetry FILE|-]
        Figure 8 flash-crowd scenario; prints the pollution curve.
        --flood N (at most --peers) turns the N highest-index trace peers
        into flooders (--flood-rate extra sends per member per round, at
        most --peers + --crowd, default 12 or that if smaller);
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
    threads (at most 64; 0 = honour RVS_THREADS, the default). Results are
    byte-identical for every N; see DESIGN.md §11.
    --telemetry dumps a JSON snapshot of the per-protocol counters (and
    wall-clock phase timings) to FILE, or to stdout when FILE is `-`.
    --hours N runs N simulated hours, at least 1.

EXIT STATUS:
    0   success
    1   a failure at run time, or `ckpt diff` finding a difference
    2   a command line rvs cannot run: the complaint is the first line on
        stderr, this text follows, and nothing is simulated";

const TRACE: &[&str] = &["--seed N", "--peers N", "--hours N", "--out FILE"];
const STATS: &[&str] = &["--seed N", "--traces N", "--peers N", "--hours N"];
const RUN: &[&str] = &[
    "--seed N",
    "--peers N",
    "--hours N",
    "--t-mib X",
    "--loss X",
    "--faults FILE",
    "--guard SPEC",
    "--threads N",
    "--telemetry FILE",
    "--checkpoint-every N",
    "--checkpoint-dir D",
    "--resume FILE",
];
const ATTACK: &[&str] = &[
    "--seed N",
    "--peers N",
    "--core N",
    "--crowd N",
    "--hours N",
    "--t-mib X",
    "--flood N",
    "--flood-rate N",
    "--malform PM",
    "--guard SPEC",
    "--threads N",
    "--telemetry FILE",
];

/// Report a failure at run time on stderr; the exit code is 1.
fn fail(msg: impl std::fmt::Display) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::FAILURE
}

/// `--t-mib X`: the experience threshold `T` in MiB.
fn t_mib(args: &Args) -> f64 {
    let ok = |t: &f64| t.is_finite() && *t >= 0.0;
    args.get_in("t-mib", "a finite number >= 0", ok)
        .unwrap_or(5.0)
}

/// `--threads N`: shard the round engine across N workers, at most 64. 0
/// (the default) keeps the RVS_THREADS-derived count the System booted
/// with. Thread count never changes results — only wall-clock time —
/// which is proven byte-for-byte by tests/parallel_differential.rs.
fn threads(args: &Args) -> usize {
    args.within("threads", 0, 64).unwrap_or(0)
}

/// Honour `--telemetry FILE|-`: dump the system's counter snapshot as JSON
/// to FILE (stdout when `-`). The wall-clock phase timers are on unless
/// something cleared `telemetry::enabled`, so the snapshot carries them too.
fn dump_telemetry(system: &System, args: &Args) -> Result<(), ExitCode> {
    let Some(dest) = args.value("telemetry") else {
        return Ok(());
    };
    let json = system.telemetry_snapshot().to_json();
    if dest == "-" {
        println!("{json}");
    } else {
        std::fs::write(dest, json + "\n")
            .map_err(|e| fail(format!("failed to write telemetry to {dest}: {e}")))?;
        println!("\ntelemetry snapshot written to {dest}");
    }
    Ok(())
}

/// Honour `--guard on|FILE`: arm the Byzantine guard plane with the
/// built-in active preset, or with a `GuardConfig` JSON file (a config
/// file names every knob — start from the JSON of the active preset).
fn apply_guard(system: &mut System, args: &Args) -> Result<(), ExitCode> {
    let Some(spec) = args.value("guard") else {
        return Ok(());
    };
    let cfg = if spec == "on" {
        GuardConfig::active()
    } else {
        let text = std::fs::read_to_string(spec)
            .map_err(|e| fail(format!("failed to read guard config {spec}: {e}")))?;
        serde_json::from_str(&text)
            .map_err(|e| fail(format!("invalid guard config {spec}: {e}")))?
    };
    system.set_guard_config(cfg);
    Ok(())
}

/// The trace generator's configuration from `--peers` (at least
/// `min_peers`, the smallest population the calling command can cast) and
/// `--hours`, or from the command's `defaults` for the two.
fn trace_cfg(args: &Args, min_peers: usize, defaults: (usize, u64)) -> TraceGenConfig {
    let peers = args.at_least("peers", min_peers).unwrap_or(defaults.0);
    let hours = args.hours().unwrap_or(defaults.1);
    TraceGenConfig::scaled(peers, SimDuration::from_hours(hours))
}

fn cmd_trace(args: &Args) -> Result<(), ExitCode> {
    let seed = args.get("seed").unwrap_or(42);
    let trace = trace_cfg(args, 1, (100, 168)).generate(seed);
    println!("{}", TraceStats::compute(&trace));
    if let Some(path) = args.value("out") {
        io::save(&trace, Path::new(path))
            .map_err(|e| fail(format!("failed to write {path}: {e}")))?;
        println!("\nwritten to {path}");
    }
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), ExitCode> {
    let seed = args.get("seed").unwrap_or(1);
    let traces = args.at_least("traces", 1).unwrap_or(10);
    let (_, mean) = dataset_statistics(&trace_cfg(args, 1, (100, 168)), traces, seed);
    println!("mean over {traces} traces:\n{mean}");
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), ExitCode> {
    // --resume takes everything that shapes a fresh run from the
    // checkpoint; naming one of those flags too asks for a run that
    // cannot be had, not for one that quietly ignores it.
    let resume = args.value("resume");
    if resume.is_some() {
        let fresh = ["seed", "peers", "t-mib", "loss", "faults"];
        if let Some(flag) = fresh.iter().find(|f| args.has(f)) {
            args.refuse(&format!(
                "--{flag} cannot be combined with --resume: the checkpoint fixes it"
            ));
        }
    }
    let hours = args.hours().unwrap_or(48);
    let threads = threads(args);
    let ckpt_every: u64 = args.get("checkpoint-every").unwrap_or(0);
    // --resume restores everything (seed, trace, cast, fault plane) from
    // the checkpoint; the fresh-run flags configure a new system.
    let (mut system, m) = if let Some(path) = resume {
        let system = System::restore(&load_ckpt(path)?)
            .map_err(|e| fail(format!("cannot restore {path}: {e}")))?;
        // The Fig 6 moderators are the trace's first three arrivals, and
        // the checkpoint carries the trace — recompute the expected order.
        let m = fig6_moderators(system.trace());
        (system, m)
    } else {
        let cfg = VoteSamplingConfig {
            trace: trace_cfg(args, FIG6_MIN_PEERS, (40, hours)),
            protocol: ProtocolConfig {
                experience_t_mib: t_mib(args),
                message_loss: args
                    .get_in("loss", "a probability in [0, 1]", |l| {
                        (0.0..=1.0).contains(l)
                    })
                    .unwrap_or(0.0),
                ..ProtocolConfig::default()
            },
            positive_fraction: 0.15,
            negative_fraction: 0.15,
            ..VoteSamplingConfig::paper()
        };
        let schedule = match args.value("faults") {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| fail(format!("failed to read fault schedule {path}: {e}")))?;
                FaultSchedule::from_json(&text)
                    .map_err(|e| fail(format!("invalid fault schedule {path}: {e}")))?
            }
            None => FaultSchedule::default(),
        };
        cfg.system(args.get("seed").unwrap_or(7), schedule)
    };
    let end = SimTime::from_hours(hours);
    // A resumed run that ends at or before the checkpoint's time would
    // simulate nothing and print a row for a time it never reached.
    if end <= system.now() {
        let at = system.now().as_hours_f64();
        args.refuse(&format!(
            "--hours must be past the checkpoint's {at} h, got {hours}"
        ));
    }
    // The loop below writes only before `end`: a cadence that first falls
    // at or past it would write nothing, silently.
    let left = end.since(system.now());
    if ckpt_every > 0 && SimDuration::from_hours(1).saturating_mul(ckpt_every) >= left {
        let left_hours = left.as_secs_f64() / 3600.0;
        args.refuse(&format!(
            "--checkpoint-every must be less than the {left_hours} h left to run, got {ckpt_every}"
        ));
    }
    if threads > 0 {
        system.set_threads(threads);
    }
    if let Some(path) = resume {
        eprintln!("resumed from {path} at {}", system.now());
    }
    apply_guard(&mut system, args)?;
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
        let dir = args.value("checkpoint-dir").unwrap_or(".");
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
                let path = Path::new(dir).join(format!("ckpt-{hours_mark}h.ckpt"));
                match sys.checkpoint().save(&path) {
                    Ok(()) => eprintln!("checkpoint written to {}", path.display()),
                    Err(e) => save_error = Some(format!("{}: {e}", path.display())),
                }
            }
        });
        if let Some(msg) = save_error {
            return Err(fail(format!("failed to write checkpoint {msg}")));
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
    dump_telemetry(&system, args)
}

fn load_ckpt(path: &str) -> Result<Checkpoint, ExitCode> {
    Checkpoint::load(Path::new(path))
        .map_err(|e| fail(format!("failed to load checkpoint {path}: {e}")))
}

/// `rvs ckpt inspect FILE` / `rvs ckpt diff A B` / `rvs ckpt regen [--dir D]`.
fn cmd_ckpt(rest: &[String]) -> Result<(), ExitCode> {
    let (sub, rest) = rest
        .split_first()
        .unwrap_or_else(|| cli::refuse(USAGE, "missing ckpt command: inspect, diff or regen"));
    match sub.as_str() {
        "inspect" => ckpt_inspect(cli::accept(rest, &["FILE"], USAGE).operand(0)),
        "diff" => {
            let args = cli::accept(rest, &["A", "B"], USAGE);
            let (a, b) = (args.operand(0), args.operand(1));
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
        "regen" => {
            let args = cli::accept(rest, &["--dir D"], USAGE);
            ckpt_regen(Path::new(args.value("dir").unwrap_or("tests/golden")))
        }
        other => cli::refuse(USAGE, &format!("unknown ckpt command `{other}`")),
    }
}

fn ckpt_inspect(path: &str) -> Result<(), ExitCode> {
    let ckpt = load_ckpt(path)?;
    let info = ckpt
        .peek_info()
        .map_err(|e| fail(format!("cannot read checkpoint header of {path}: {e}")))?;
    println!("{info}");
    if info.version != FORMAT_VERSION {
        println!(
            "note: this build restores version {FORMAT_VERSION} only; \
             the file cannot be resumed here"
        );
        return Ok(());
    }
    // Where the bytes are; the header and identity prefix in front of the
    // first section are in no line.
    let sections = ckpt
        .sections()
        .map_err(|e| fail(format!("cannot index the sections of {path}: {e}")))?;
    println!("sections (bytes, share of the file):");
    for (name, range) in sections {
        let share = 100.0 * range.len() as f64 / info.bytes as f64;
        println!("  {name:<12}{:>12} {share:>6.1} %", range.len());
    }
    Ok(())
}

fn ckpt_regen(dir: &Path) -> Result<(), ExitCode> {
    let results = dir.join("results");
    std::fs::create_dir_all(&results)
        .map_err(|e| fail(format!("cannot create {}: {e}", results.display())))?;
    let fig6 = GOLDEN_SEEDS.map(|seed| (golden_file_name(seed), golden_checkpoint(seed)));
    let coverage = (
        GOLDEN_COVERAGE.to_string(),
        golden_coverage_system().checkpoint(),
    );
    for (name, ckpt) in fig6.into_iter().chain([coverage]) {
        let path = dir.join(name);
        ckpt.save(&path)
            .map_err(|e| fail(format!("failed to write {}: {e}", path.display())))?;
        println!("wrote {}", path.display());
    }
    for name in GOLDEN_RESULTS {
        let path = results.join(format!("{name}.json"));
        std::fs::write(&path, golden_result(name, 1))
            .map_err(|e| fail(format!("failed to write {}: {e}", path.display())))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn cmd_attack(args: &Args) -> Result<(), ExitCode> {
    let seed = args.get("seed").unwrap_or(7);
    let hours = args.hours().unwrap_or(48);
    let core = args.at_least("core", 1).unwrap_or(10);
    let crowd = args.at_least("crowd", 1).unwrap_or(20);
    let trace = trace_cfg(args, 1, (40, hours));
    let n_trace = trace.n_peers;
    if n_trace <= core {
        args.refuse(&format!(
            "--core must be less than --peers ({n_trace}), got {core}"
        ));
    }
    // Byzantine adversaries: flooders are the highest-index trace peers
    // (the founder core occupies the low indices), the malformer mutates
    // guarded wire messages at the given per-mille rate. Either attack
    // needs the guard plane up to be observable, so arm the active
    // preset unless --guard picked a config explicitly.
    let want = format!("at most --peers ({n_trace})");
    let flood = args.get_in("flood", &want, |&f| f <= n_trace).unwrap_or(0);
    let population = n_trace + crowd;
    let want = format!("at most the population, --peers + --crowd ({population})");
    let within = |rate: &u32| Flooder::rate_within(*rate, population);
    let default_rate = u32::try_from(population).map_or(12, |p| p.min(12));
    let flood_rate = args
        .get_in("flood-rate", &want, within)
        .unwrap_or(default_rate);
    let malform = args.within("malform", 0, 1000).unwrap_or(0);
    let threads = threads(args);
    let cfg = SpamAttackConfig {
        trace,
        protocol: ProtocolConfig {
            experience_t_mib: t_mib(args),
            ..ProtocolConfig::default()
        },
        core_size: core,
        ..SpamAttackConfig::paper()
    };
    let (mut system, spam) = cfg.system(seed, crowd, FaultSchedule::default());
    if threads > 0 {
        system.set_threads(threads);
    }
    if flood > 0 {
        let members = (n_trace - flood..n_trace).map(NodeId::from_index);
        system.set_flooder(Flooder::new(members, flood_rate));
    }
    if malform > 0 {
        system.set_malformer(Malformer::new(malform));
    }
    if (flood > 0 || malform > 0) && !args.has("guard") {
        system.set_guard_config(GuardConfig::active());
    }
    apply_guard(&mut system, args)?;
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
    dump_telemetry(&system, args)
}
