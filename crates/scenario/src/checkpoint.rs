//! Checkpoint container: the serialized form of a paused [`crate::System`].
//!
//! A [`Checkpoint`] is a self-contained byte blob — seed, configuration,
//! scenario cast, trace, and every layer of protocol state — produced by
//! [`crate::System::checkpoint`] and consumed by [`crate::System::restore`].
//! Resuming from one is byte-identical to never having stopped (proven by
//! `tests/checkpoint_differential.rs`). The format is versioned
//! ([`rvs_checkpoint::FORMAT_VERSION`]); layout and versioning policy are
//! documented in DESIGN.md §12.

use rvs_checkpoint::{peek_version, DecodeError, Decoder, Persist as _};
use rvs_sim::SimTime;
use std::fmt;
use std::io;
use std::ops::Range;
use std::path::Path;

/// A serialized [`crate::System`] snapshot.
///
/// The blob always starts with the format header (magic + version) followed
/// by the identity fields ([`CheckpointInfo`]); the rest is the sectioned
/// system state. Construction goes through [`crate::System::checkpoint`] or
/// [`Checkpoint::from_bytes`] — both guarantee a well-formed header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    pub(crate) bytes: Vec<u8>,
}

/// Header-level summary of a checkpoint, cheap to read (no full decode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Format version the blob was written with.
    pub version: u32,
    /// The run's seed (every RNG stream derives from it).
    pub seed: u64,
    /// Simulation time at which the snapshot was taken.
    pub now: SimTime,
    /// Peers in the underlying trace.
    pub trace_peers: usize,
    /// Total nodes including any flash crowd.
    pub total_nodes: usize,
    /// Size of the whole blob in bytes.
    pub bytes: usize,
}

/// The identity prefix that follows the header, frozen across format
/// versions so `rvs ckpt inspect` can summarize any checkpoint file.
/// [`crate::System::checkpoint`] writes it, [`crate::System::restore`]
/// and [`Checkpoint::peek_info`] read it — through this one layout.
pub(crate) struct Identity {
    pub(crate) seed: u64,
    pub(crate) now: SimTime,
    pub(crate) trace_peers: usize,
    pub(crate) total_nodes: usize,
}

rvs_checkpoint::persist_struct!(Identity {
    seed,
    now,
    trace_peers,
    total_nodes
});

impl fmt::Display for CheckpointInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "format version : {}", self.version)?;
        writeln!(f, "seed           : {}", self.seed)?;
        writeln!(f, "simulated time : {}", self.now)?;
        writeln!(f, "trace peers    : {}", self.trace_peers)?;
        writeln!(f, "total nodes    : {}", self.total_nodes)?;
        write!(f, "size           : {} bytes", self.bytes)
    }
}

impl Checkpoint {
    /// Wrap raw bytes read from elsewhere, validating the magic bytes and
    /// the identity prefix. Version skew is *not* rejected here — so
    /// `rvs ckpt inspect` can summarize foreign files — only by
    /// [`crate::System::restore`], which needs the full format to match.
    pub fn from_bytes(bytes: Vec<u8>) -> Result<Checkpoint, DecodeError> {
        let ckpt = Checkpoint { bytes };
        ckpt.peek_info()?;
        Ok(ckpt)
    }

    /// The serialized blob.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consume the checkpoint, yielding the blob.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Decode the header-level summary without decoding the full state.
    ///
    /// Works on any version whose identity prefix matches (the prefix is
    /// frozen across versions precisely so `inspect` keeps working), but
    /// reports [`DecodeError::WrongVersion`] for blobs this build cannot
    /// restore.
    pub fn info(&self) -> Result<CheckpointInfo, DecodeError> {
        rvs_checkpoint::read_header(&mut Decoder::new(&self.bytes))?;
        self.peek_info()
    }

    /// Like [`Checkpoint::info`], but tolerant of future format versions:
    /// returns the summary even when [`crate::System::restore`] would
    /// refuse the blob. Only the magic bytes and identity prefix must
    /// parse.
    pub fn peek_info(&self) -> Result<CheckpointInfo, DecodeError> {
        let version = peek_version(&self.bytes)?;
        let mut dec = Decoder::new(&self.bytes);
        // Skip magic + version (already validated by peek_version).
        dec.take(rvs_checkpoint::MAGIC.len())?;
        dec.u32()?;
        let id = Identity::restore(&mut dec)?;
        Ok(CheckpointInfo {
            version,
            seed: id.seed,
            now: id.now,
            trace_peers: id.trace_peers,
            total_nodes: id.total_nodes,
            bytes: self.bytes.len(),
        })
    }

    /// The tagged sections as `(name, byte range)`, tag included, in file
    /// order; the header and identity prefix precede the first. Tags are
    /// not self-delimiting, so the index is recovered by restoring and
    /// re-encoding: only a blob this build reproduces byte-for-byte has
    /// one.
    pub fn sections(&self) -> Result<Vec<(String, Range<usize>)>, DecodeError> {
        let enc = crate::System::restore(self)?.encode();
        let starts = enc.sections();
        let ends = starts.iter().skip(1).map(|&(_, start)| start);
        let index = starts
            .iter()
            .zip(ends.chain([enc.len()]))
            .map(|((name, start), end)| (name.clone(), *start..end))
            .collect();
        if enc.into_bytes() != self.bytes {
            return Err(DecodeError::Corrupt(
                "not in this build's canonical encoding".into(),
            ));
        }
        Ok(index)
    }

    /// Write the blob to `path` (atomically: temp file + rename, so a
    /// crash mid-write never leaves a torn checkpoint behind).
    pub fn save(&self, path: &Path) -> io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &self.bytes)?;
        std::fs::rename(&tmp, path)
    }

    /// Read a checkpoint from `path`, validating header and identity
    /// fields.
    pub fn load(path: &Path) -> io::Result<Checkpoint> {
        let bytes = std::fs::read(path)?;
        Checkpoint::from_bytes(bytes)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

/// Where two checkpoints part ways, for humans: the identity-prefix
/// fields that differ, then the first tagged section whose bytes differ,
/// with its offset and length on either side — and, when that is
/// `bartercast`, what differs first in it: the config, the population,
/// the first node whose graph differs (with the edge and both weights) or
/// a counter. `None` when the blobs are equal. `rvs ckpt diff` prints
/// this, and the byte-identity tests put it in their failure messages, so
/// a refactor that moves a byte says *which section* moved. A blob this
/// build cannot restore has no section index; the report then falls back
/// to the first differing byte, placed in the other blob's sections when
/// that one restores.
pub fn first_divergence(a: &Checkpoint, b: &Checkpoint) -> Option<String> {
    if a.bytes == b.bytes {
        return None;
    }
    let mut out = String::new();
    if let (Ok(ia), Ok(ib)) = (a.peek_info(), b.peek_info()) {
        for (la, lb) in ia.to_string().lines().zip(ib.to_string().lines()) {
            if la != lb {
                let value_b = lb.split_once(": ").map_or(lb, |(_, v)| v);
                out.push_str(&format!("{la}  vs  {value_b}\n"));
            }
        }
    }
    match (a.sections(), b.sections()) {
        (Ok(ia), Ok(ib)) => {
            let differing = ia
                .iter()
                .zip(&ib)
                .find(|((_, ra), (_, rb))| a.bytes[ra.clone()] != b.bytes[rb.clone()]);
            match differing {
                Some(((name, ra), (_, rb))) => {
                    out.push_str(&format!(
                        "first differing section: `{name}` (A: offset {}, {} bytes; B: offset {}, {} bytes)",
                        ra.start,
                        ra.len(),
                        rb.start,
                        rb.len()
                    ));
                    if name == "bartercast" {
                        out.push_str(&bartercast_difference(a, b));
                    }
                }
                None => out.push_str("every tagged section is equal"),
            }
        }
        (ia, ib) => {
            let common = a.bytes.iter().zip(&b.bytes).take_while(|(x, y)| x == y);
            let at = common.count();
            out.push_str(&format!("first differing byte: offset {at}"));
            for (label, index) in [("A", ia), ("B", ib)] {
                match index {
                    Ok(index) => {
                        if let Some((name, _)) = index.iter().find(|(_, r)| r.contains(&at)) {
                            out.push_str(&format!("\n{label}: inside section `{name}`"));
                        }
                    }
                    Err(e) => out.push_str(&format!("\n{label}: no section index ({e})")),
                }
            }
        }
    }
    Some(out)
}

/// The line `first_divergence` adds when `bartercast` is the first section
/// that differs: an offset inside its record table says nothing of whose
/// graph moved, so the two states say what differs first
/// ([`rvs_bartercast::BarterCast::first_difference`]). Both blobs index
/// their sections, so both restore.
fn bartercast_difference(a: &Checkpoint, b: &Checkpoint) -> String {
    match (crate::System::restore(a), crate::System::restore(b)) {
        (Ok(a), Ok(b)) => a
            .bartercast()
            .first_difference(b.bartercast())
            .map_or(String::new(), |what| format!("\nbartercast: {what}")),
        _ => String::new(),
    }
}

/// Seeds of the committed golden checkpoint corpus under `tests/golden/`.
pub const GOLDEN_SEEDS: [u64; 2] = [1, 2];

/// Simulated hours the golden run advances before the snapshot is taken.
pub const GOLDEN_HOURS: u64 = 2;

/// File name of the committed golden checkpoint for `seed`.
pub fn golden_file_name(seed: u64) -> String {
    format!("fig6-seed{seed}.ckpt")
}

/// The canonical small fixed-seed Figure-6 run the golden corpus snapshots:
/// [`crate::VoteSamplingConfig::quick`] at 12 peers × 6 hours, advanced
/// [`GOLDEN_HOURS`] simulated hours. `rvs ckpt regen` rebuilds the corpus
/// from this single definition; the forward-compat test restores the
/// committed blobs against the current build and re-encodes them
/// byte-identically.
pub fn golden_system(seed: u64) -> crate::System {
    let (mut system, _) = crate::VoteSamplingConfig::quick(12, rvs_sim::SimDuration::from_hours(6))
        .system(seed, rvs_faults::FaultSchedule::default());
    system.run_until(
        SimTime::from_hours(GOLDEN_HOURS),
        rvs_sim::SimDuration::from_hours(1),
        |_, _| {},
    );
    system
}

/// The golden checkpoint for `seed` — [`golden_system`] snapshotted.
pub fn golden_checkpoint(seed: u64) -> Checkpoint {
    golden_system(seed).checkpoint()
}

/// File name of the committed coverage golden under `tests/golden/`.
pub const GOLDEN_COVERAGE: &str = "coverage-seed1.ckpt";

/// Simulated instant the coverage golden is cut at: inside the partition
/// (4 h–8 h), after the first crash-restart (6 h), and one tick past a
/// gossip round, so that round's delayed deliveries are still in flight.
pub const GOLDEN_COVERAGE_CUT: SimTime = SimTime::from_secs(7 * 3600 + 30 * 60 + 10);

/// The state the two fig6 goldens never hold, in one run: the fig8 cast
/// (pre-seeded core of 6 + churning crowd of 8 on an 18-peer trace) over
/// the Newscast PSS with adaptive thresholds, under the chaos schedule, an
/// armed guard, flooders and a malformer, advanced to
/// [`GOLDEN_COVERAGE_CUT`]. With `persist_struct!` a field's wire width
/// follows its declared type; this blob is what pins those widths for
/// crowd, view, threshold, partition, burst, backoff and quarantine state.
pub fn golden_coverage_system() -> crate::System {
    let quick = crate::SpamAttackConfig::quick(1);
    let cfg = crate::SpamAttackConfig {
        trace: rvs_trace::TraceGenConfig::quick(18, rvs_sim::SimDuration::from_hours(18)),
        protocol: crate::ProtocolConfig {
            adaptive_t: Some(rvs_bartercast::AdaptiveThreshold {
                t_mib: 1.0,
                t_min_mib: 0.25,
                ..rvs_bartercast::AdaptiveThreshold::default()
            }),
            use_newscast_pss: true,
            ..quick.protocol
        },
        core_size: 6,
        ..quick
    };
    let (mut system, _) = cfg.system(1, 8, chaos_schedule());
    arm_byzantine(&mut system, 4, 10);
    system.run_until(
        GOLDEN_COVERAGE_CUT,
        rvs_sim::SimDuration::from_hours(1),
        |_, _| {},
    );
    system
}

/// The chaos schedule the byzantine goldens and the differential suites'
/// chaos cases run under: latency + jitter, burst loss, duplication, one
/// partition of nodes 0–5 (4 h–8 h), two crash-restarts (6 h, 12 h),
/// retry.
pub fn chaos_schedule() -> rvs_faults::FaultSchedule {
    use rvs_faults::{BurstLoss, CrashSpec, FaultConfig, PartitionSpec, RetryConfig};
    use rvs_sim::NodeId;
    rvs_faults::FaultSchedule {
        config: FaultConfig {
            base_latency_ms: 5_000,
            jitter_spread: 1.0,
            loss: 0.0,
            duplicate: 0.05,
            burst: Some(BurstLoss::with_overall_loss(0.3, 8.0)),
            retry: Some(RetryConfig::default()),
        },
        partitions: vec![PartitionSpec {
            name: "split".into(),
            members: (0..6).map(NodeId::from_index).collect(),
            start: SimTime::from_hours(4),
            heal: SimTime::from_hours(8),
        }],
        crashes: vec![
            CrashSpec {
                node: NodeId::from_index(3),
                at: SimTime::from_hours(6),
            },
            CrashSpec {
                node: NodeId::from_index(9),
                at: SimTime::from_hours(12),
            },
        ],
    }
}

/// Loss with retry: 15 % of messages lost and resent with backoff, so
/// backoff resends interleave with the round sends. The `churn-retry`
/// result golden and the differential suites' churn cases run under it.
pub fn churn_schedule() -> rvs_faults::FaultSchedule {
    use rvs_faults::{FaultConfig, RetryConfig};
    rvs_faults::FaultSchedule {
        config: FaultConfig {
            loss: 0.15,
            retry: Some(RetryConfig::default()),
            ..FaultConfig::default()
        },
        ..rvs_faults::FaultSchedule::default()
    }
}

/// Arm the byzantine adversaries: the active guard preset with a small
/// inbox (so flood pressure reaches the bounded-inbox drop policy, not
/// just the token buckets), the `flooders` highest-index trace peers each
/// sending `sends` extra messages a round, and a malformer mutating 10 %
/// of guarded messages. Every byzantine fixture arms through here.
pub fn arm_byzantine(system: &mut crate::System, flooders: usize, sends: u32) {
    let peers = system.trace_peer_count();
    system.set_guard_config(rvs_guard::GuardConfig {
        inbox_cap: 8,
        ..rvs_guard::GuardConfig::active()
    });
    system.set_flooder(rvs_attacks::Flooder::new(
        (peers - flooders..peers).map(rvs_sim::NodeId::from_index),
        sends,
    ));
    system.set_malformer(rvs_attacks::Malformer::new(100));
}

/// Names of the committed result goldens under `tests/golden/results/`
/// (`<name>.json`): one fixed-seed run per send path — plain fig6, loss
/// with backoff resends, and the chaos schedule under flooders, a
/// malformer and an armed guard.
pub const GOLDEN_RESULTS: [&str; 3] = ["fig6-seed1", "churn-retry-seed1", "byzantine-chaos-seed1"];

/// Re-run the result golden `name` on `threads` workers and render what
/// it observed as pretty JSON: the telemetry counters, every trace
/// peer's displayed ranking, and the in-flight count. Unlike the
/// checkpoint goldens this carries no encoding, so it survives
/// `FORMAT_VERSION` bumps and pins the *results* of the faulty and
/// guarded paths across refactors. Wall-clock `phase_nanos` is stripped,
/// and so is a `shard` block: the committed files were recorded on a
/// commit whose snapshots still had one, and must reproduce there too.
///
/// # Panics
/// On a name outside [`GOLDEN_RESULTS`].
pub fn golden_result(name: &str, threads: usize) -> String {
    use rvs_sim::{NodeId, SimDuration};
    use serde::{Serialize as _, Value};

    let (peers, hours, attack, schedule) = match name {
        "fig6-seed1" => (16, 12, false, rvs_faults::FaultSchedule::default()),
        "churn-retry-seed1" => (14, 15, false, churn_schedule()),
        "byzantine-chaos-seed1" => (18, 18, true, chaos_schedule()),
        other => panic!("unknown result golden `{other}`"),
    };
    let (mut system, _) =
        crate::VoteSamplingConfig::quick(peers, SimDuration::from_hours(hours)).system(1, schedule);
    if attack {
        arm_byzantine(&mut system, 4, 10);
    }
    system.set_threads(threads);
    system.run_until(
        SimTime::from_hours(hours),
        SimDuration::from_hours(hours / 3),
        |_, _| {},
    );

    let Value::Object(mut telemetry) = system.telemetry_snapshot().to_value() else {
        unreachable!("a snapshot serializes as an object");
    };
    telemetry.retain(|(key, _)| key != "phase_nanos" && key != "shard");
    let rankings = (0..system.trace_peer_count())
        .map(|i| system.display_ranking(NodeId::from_index(i)).to_value())
        .collect();
    let result = Value::Object(vec![
        ("telemetry".into(), Value::Object(telemetry)),
        ("rankings".into(), Value::Array(rankings)),
        ("in_flight".into(), Value::UInt(system.in_flight())),
    ]);
    serde_json::to_string_pretty(&result).expect("value serialization cannot fail") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(matches!(
            Checkpoint::from_bytes(vec![0u8; 64]),
            Err(DecodeError::Corrupt(_))
        ));
        assert!(matches!(
            Checkpoint::from_bytes(Vec::new()),
            Err(DecodeError::Truncated { .. })
        ));
    }

    #[test]
    fn info_rejects_wrong_version_but_peek_reads_it() {
        let mut enc = rvs_checkpoint::Encoder::new();
        enc.raw(&rvs_checkpoint::MAGIC);
        enc.u32(rvs_checkpoint::FORMAT_VERSION + 1);
        enc.u64(42); // seed
        enc.u64(0); // SimTime millis
        enc.usize(10);
        enc.usize(12);
        let ckpt = Checkpoint {
            bytes: enc.into_bytes(),
        };
        assert!(matches!(ckpt.info(), Err(DecodeError::WrongVersion { .. })));
        let peeked = ckpt.peek_info().expect("identity prefix parses");
        assert_eq!(peeked.version, rvs_checkpoint::FORMAT_VERSION + 1);
        assert_eq!(peeked.seed, 42);
        assert_eq!(peeked.trace_peers, 10);
        assert_eq!(peeked.total_nodes, 12);
    }
}
