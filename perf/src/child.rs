//! One simulation in one process: `rvs-perf run-one <workload> --seed S
//! --mode timed|steps|replay`. The driver runs one child at a time, so
//! `peak_rss_mb` is a clean per-run `VmHWM`, allocator state never leaks
//! between runs, and the load never uses more threads than the workload
//! states. The child prints its report as one JSON object on the last
//! line of its standard output.

use crate::compare::median;
use crate::json::{self, num, text, Value};
use crate::spans::Spans;
use crate::table::Workload;
use crate::workload::{self, Quality, Scale, OBSERVE_EVERY_HOURS};
use robust_vote_sampling::scenario::{Checkpoint, ProtocolConfig, System};
use robust_vote_sampling::sim::{Pool, SimDuration};
use robust_vote_sampling::telemetry;
use std::path::PathBuf;
use std::time::Instant;

/// How many times a child assembles its `System`. The child reports the
/// fastest: a set-up takes 0.2–0.8 ms and the host slows down by up to 1.7×
/// for anything from milliseconds to minutes, only ever in one direction.
const SETUP_REPS: usize = 31;
/// Checkpoint cycles timed after one warm-up (the first cycle is ~3×
/// slower from page faults).
const CKPT_REPS: usize = 5;

/// What a child measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// End-to-end: telemetry off, `System::run_until` untouched.
    Timed,
    /// Step trace: telemetry on, the harness drives `System::step` itself
    /// with one span per step, then runs the stand-alone probes.
    Steps,
    /// Layer-stack replay: see [`crate::replay`].
    Replay,
}

impl Mode {
    /// Parse the `--mode` argument.
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "timed" => Some(Mode::Timed),
            "steps" => Some(Mode::Steps),
            "replay" => Some(Mode::Replay),
            _ => None,
        }
    }

    /// The `--mode` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Steps => "steps",
            Mode::Replay => "replay",
        }
    }
}

/// One child's assignment.
pub struct Job {
    /// The workload row.
    pub workload: &'static Workload,
    /// Population, span and threads (the row's, unless a self-test shrank
    /// them).
    pub scale: Scale,
    /// Input seed.
    pub seed: u64,
    /// What to measure.
    pub mode: Mode,
    /// Where to write the Chrome trace of every span, if asked.
    pub dump_spans: Option<PathBuf>,
}

/// Run the job and return its report.
pub fn run(job: &Job) -> Result<Value, String> {
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    if job.scale.threads > cores {
        return Err(format!(
            "{} needs {} threads but this host offers {cores}; refusing to downgrade silently",
            job.workload.name, job.scale.threads
        ));
    }
    let mut fields = vec![
        ("workload", text(job.workload.name)),
        ("seed", Value::UInt(job.seed)),
        ("mode", text(job.mode.as_str())),
        ("peers", Value::UInt(job.scale.peers as u64)),
        ("span_mins", Value::UInt(job.scale.span_mins)),
        ("threads", Value::UInt(job.scale.threads as u64)),
    ];
    fields.extend(match job.mode {
        Mode::Timed => timed(job)?,
        Mode::Steps => steps(job)?,
        Mode::Replay => crate::replay::run(job)?,
    });
    Ok(json::obj(fields))
}

/// The fields of a child's report, in print order.
pub type Fields = Vec<(&'static str, Value)>;

/// Assemble the system [`SETUP_REPS`] times, keeping the last; returns the
/// fastest set-up time in seconds.
fn setup(job: &Job) -> (System, Quality, f64) {
    let mut fastest = f64::INFINITY;
    let mut built = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous system first so two never coexist in the RSS.
        drop(built.take());
        let began = Instant::now();
        built = Some(workload::build(job.workload, &job.scale, job.seed));
        fastest = fastest.min(began.elapsed().as_secs_f64());
    }
    let (system, judge) = built.expect("SETUP_REPS > 0");
    (system, Quality::new(judge), fastest)
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds (user + system, all threads) this process has used.
/// `/proc/self/stat` counts in `USER_HZ` ticks, which Linux fixes at 100.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields overall.
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// 64-bit FNV-1a.
fn fnv1a(chunks: &[&[u8]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in chunks.iter().flat_map(|c| c.iter()) {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The checks every `System` run performs, and what they leave behind.
struct Verified {
    /// `(name, passed)` per check.
    checks: Vec<(&'static str, bool)>,
    /// The full telemetry snapshot, parsed from its JSON.
    snapshot: Value,
    /// Key paths the checks wanted but the snapshot no longer carries.
    missing: Vec<String>,
    ckpt_bytes: usize,
    digest: u64,
}

/// Terms of the encounter conservation identity of `tests/chaos.rs`:
/// every attempt is delivered, dropped for an attributed reason, or still
/// in flight.
const CONSERVATION_TERMS: [&str; 9] = [
    "encounters.delivered",
    "encounters.dropped_no_sample",
    "encounters.dropped_offline_target",
    "encounters.dropped_self_target",
    "encounters.dropped_message_loss",
    "faults.dropped_burst",
    "faults.partitioned",
    "faults.dropped_expired",
    "guard.inbox_dropped",
];

fn verify(job: &Job, system: &System, quality: f64) -> Result<Verified, String> {
    let snapshot = json::parse(&system.telemetry_snapshot().to_json())?;
    let mut missing = Vec::new();
    let mut term = |path: &str| {
        json::f64_at(&snapshot, path).unwrap_or_else(|| {
            missing.push(path.to_string());
            0.0
        })
    };
    let attempted = term("encounters.attempted");
    let accounted: f64 =
        CONSERVATION_TERMS.iter().map(|p| term(p)).sum::<f64>() + system.in_flight() as f64;
    let conserved = attempted > 0.0 && attempted.to_bits() == accounted.to_bits();

    let first = system.checkpoint();
    let ckpt_bytes = first.as_bytes().len();
    let reread = Checkpoint::from_bytes(first.as_bytes().to_vec())
        .map_err(|e| format!("checkpoint does not re-read: {e}"))?;
    let restored = System::restore(&reread).map_err(|e| format!("restore failed: {e}"))?;
    let round_trip = restored.checkpoint().as_bytes() == first.as_bytes();

    // Wall-clock phases are not part of the result; everything else is.
    let counters = match &snapshot {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .filter(|(k, _)| k != "phase_nanos")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    let digest = fnv1a(&[
        json::render(&counters).as_bytes(),
        &quality.to_bits().to_le_bytes(),
        &(ckpt_bytes as u64).to_le_bytes(),
    ]);

    let floor = if job.scale.full {
        job.workload.quality_floor
    } else {
        0.0
    };
    Ok(Verified {
        checks: vec![
            ("conservation", conserved),
            ("checkpoint_round_trip", round_trip),
            ("quality_floor", quality >= floor),
        ],
        snapshot,
        missing,
        ckpt_bytes,
        digest,
    })
}

/// The report fields shared by the timed and the step-trace pass.
fn system_report(
    job: &Job,
    system: &System,
    quality: f64,
    wall_s: f64,
    setup_s: f64,
    rss_mb: Option<f64>,
) -> Result<(Fields, Verified), String> {
    let v = verify(job, system, quality)?;
    let delivered = json::f64_at(&v.snapshot, "encounters.delivered");
    let failed: Vec<&str> = v
        .checks
        .iter()
        .filter(|(_, ok)| !ok)
        .map(|(name, _)| *name)
        .collect();
    let fields = vec![
        ("wall_s", num(wall_s)),
        ("enc_per_s", num(delivered.map(|d| d / wall_s))),
        ("peak_rss_mb", num(rss_mb)),
        ("setup_s", num(setup_s)),
        ("ckpt_mb", num(v.ckpt_bytes as f64 / (1024.0 * 1024.0))),
        ("quality", num(quality)),
        ("result_digest", text(format!("{:016x}", v.digest))),
        ("checks_attempted", Value::UInt(v.checks.len() as u64)),
        ("checks_failed", Value::UInt(failed.len() as u64)),
        ("failed_checks", json::texts(failed)),
        ("missing", json::texts(v.missing.iter().map(String::as_str))),
    ];
    Ok((fields, v))
}

fn timed(job: &Job) -> Result<Fields, String> {
    telemetry::set_enabled(false);
    let (mut system, mut quality, setup_s) = setup(job);
    let began = Instant::now();
    system.run_until(
        job.scale.end(),
        SimDuration::from_hours(OBSERVE_EVERY_HOURS),
        |s, _| quality.observe(s),
    );
    let wall_s = began.elapsed().as_secs_f64();
    let rss = peak_rss_mb();
    let (fields, _) = system_report(job, &system, quality.value(), wall_s, setup_s, rss)?;
    Ok(fields)
}

/// Step trace: the harness runs `run_until`'s loop itself over the public
/// `System::step`, one span per step, sampling through a zero-length
/// `run_until` so pending BitTorrent windows materialize before each
/// observation exactly as they do in the untraced run.
fn steps(job: &Job) -> Result<Fields, String> {
    telemetry::set_enabled(true);
    let mut spans = Spans::calibrated();
    let n_step = spans.name("scenario.step");
    let n_gossip = spans.name("scenario.gossip_step");
    let n_observe = spans.name("metrics.observe");

    let (mut system, mut quality, setup_s) = setup(job);
    let end = job.scale.end();
    let sample = SimDuration::from_hours(OBSERVE_EVERY_HOURS);
    let gossip_ms = ProtocolConfig::default().gossip_every.as_millis();

    let cpu0 = cpu_seconds();
    let began = Instant::now();
    let mut next_sample = system.now();
    while system.now() < end {
        let name = if system.now().as_millis() % gossip_ms == 0 {
            n_gossip
        } else {
            n_step
        };
        let o = spans.enter(name);
        system.step();
        spans.exit(o);
        if system.now() >= next_sample {
            let now = system.now();
            system.run_until(now, sample, |s, _| {
                spans.time(n_observe, || quality.observe(s));
            });
            next_sample = now + sample;
        }
    }
    system.run_until(end, sample, |s, _| {
        spans.time(n_observe, || quality.observe(s));
    });
    let wall_s = began.elapsed().as_secs_f64();
    let cpu_s = cpu0.zip(cpu_seconds()).map(|(a, b)| b - a);
    let rss = peak_rss_mb();

    let (mut fields, verified) =
        system_report(job, &system, quality.value(), wall_s, setup_s, rss)?;

    let agg = spans.aggregate();
    let get = |name: &str| agg.get(name).cloned().unwrap_or_default();
    let (step, gossip, observe) = (
        get("scenario.step"),
        get("scenario.gossip_step"),
        get("metrics.observe"),
    );
    let mut raw = vec![
        ("steps", num((step.count + gossip.count) as f64)),
        ("gossip_rounds", num(gossip.count as f64)),
        ("step_total_s", num((step.total_ns + gossip.total_ns) / 1e9)),
        ("gossip_step_p50_ms", num(gossip.p50_ns / 1e6)),
        ("gossip_step_p99_ms", num(gossip.p99_ns / 1e6)),
        ("observer_s", num(observe.total_ns / 1e9)),
        ("observe_us", num(observe.mean_ns().map(|ns| ns / 1e3))),
        ("cpu_s", num(cpu_s)),
        ("span_overhead_ns", num(spans.overhead_ns())),
    ];

    // Stand-alone probes, after the measured loop.
    let gen_cfg = workload::trace_config(&job.scale);
    let mut gen_ms = Vec::new();
    let mut events = 0;
    for _ in 0..3 {
        let t = Instant::now();
        events = std::hint::black_box(gen_cfg.generate(workload::DATASET_SEED))
            .events
            .len();
        gen_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    raw.push(("trace_generate_ms", num(median(&gen_ms))));
    raw.push(("trace_events", num(events as f64)));

    let pool = Pool::new(job.scale.threads);
    const SCATTERS: usize = 2000;
    let t = Instant::now();
    for _ in 0..SCATTERS {
        let jobs: Vec<Box<dyn FnOnce() + Send>> = (0..job.scale.threads)
            .map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>)
            .collect();
        std::hint::black_box(pool.scatter(jobs));
    }
    raw.push((
        "pool_scatter_us",
        num(t.elapsed().as_secs_f64() * 1e6 / SCATTERS as f64),
    ));
    drop(pool);

    let (mut encode_ms, mut restore_ms) = (Vec::new(), Vec::new());
    for rep in 0..=CKPT_REPS {
        let t = Instant::now();
        let ckpt = system.checkpoint();
        let e = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let reread = Checkpoint::from_bytes(ckpt.into_bytes()).map_err(|e| e.to_string())?;
        std::hint::black_box(System::restore(&reread).map_err(|e| e.to_string())?);
        let r = t.elapsed().as_secs_f64() * 1e3;
        if rep > 0 {
            encode_ms.push(e);
            restore_ms.push(r);
        }
    }
    let cycle: Vec<f64> = encode_ms
        .iter()
        .zip(&restore_ms)
        .map(|(e, r)| e + r)
        .collect();
    raw.push(("ckpt_encode_ms", num(median(&encode_ms))));
    raw.push(("ckpt_restore_ms", num(median(&restore_ms))));
    raw.push(("ckpt_cycle_ms", num(median(&cycle))));
    raw.push(("ckpt_bytes", num(verified.ckpt_bytes as f64)));

    fields.push(("raw", json::obj(raw)));
    fields.push(("snapshot", verified.snapshot));

    if let Some(path) = &job.dump_spans {
        dump_spans(&spans, path)?;
    }
    Ok(fields)
}

/// Honour `--dump-spans FILE`.
pub fn dump_spans(spans: &Spans, path: &std::path::Path) -> Result<(), String> {
    let file = std::fs::File::create(path)
        .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
    spans
        .dump_chrome(std::io::BufWriter::new(file))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("{} spans written to {}", spans.count(), path.display());
    Ok(())
}
