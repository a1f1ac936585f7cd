//! Turns the three traced-run reports of one workload (untraced reference,
//! step trace, layer-stack replay) into the named per-layer metrics.
//!
//! Every **C** metric is read from the telemetry snapshot's JSON by key
//! path: a counter that a later change removes reads as `None` and lands
//! in `missing`; it never stops this package from compiling.

use crate::json::{self, Value};
use crate::table::PER_LAYER;
use std::collections::BTreeMap;

/// The per-layer metrics of one workload, in [`PER_LAYER`] order.
pub struct Layers {
    /// `(name, value)`; `None` where the layer does no work on this
    /// workload or its source is gone.
    pub values: Vec<(&'static str, Option<f64>)>,
    /// Snapshot key paths that were asked for and not found.
    pub missing: Vec<String>,
}

/// Reads snapshot counters by key path, remembering what was absent.
struct Counters<'a> {
    snapshot: &'a Value,
    missing: Vec<String>,
}

impl Counters<'_> {
    fn get(&mut self, path: &str) -> Option<f64> {
        let v = json::f64_at(self.snapshot, path);
        if v.is_none() && !self.missing.iter().any(|m| m == path) {
            self.missing.push(path.to_string());
        }
        v
    }

    fn sum(&mut self, paths: &[&str]) -> Option<f64> {
        paths.iter().map(|p| self.get(p)).sum()
    }

    /// Sum of every numeric field of object `block` whose key starts with
    /// `prefix` (the guard's one-counter-per-reason rejections).
    fn sum_prefixed(&mut self, block: &str, prefix: &str) -> Option<f64> {
        match json::at(self.snapshot, block).and_then(Value::as_object) {
            Some(fields) => Some(
                fields
                    .iter()
                    .filter(|(k, _)| k.starts_with(prefix))
                    .filter_map(|(_, v)| v.as_f64())
                    .sum(),
            ),
            None => {
                self.missing.push(format!("{block}.{prefix}*"));
                None
            }
        }
    }
}

fn ratio(num: Option<f64>, den: Option<f64>) -> Option<f64> {
    match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    }
}

/// Combine one workload's three reports.
pub fn combine(timed: &Value, steps: &Value, replay: &Value) -> Layers {
    let null = Value::Null;
    let mut c = Counters {
        snapshot: json::at(steps, "snapshot").unwrap_or(&null),
        missing: Vec::new(),
    };
    let s = |key: &str| json::f64_at(steps, &format!("raw.{key}"));
    let r = |key: &str| json::f64_at(replay, &format!("raw.{key}"));
    // Replay span aggregates. Span names contain dots, so they are looked
    // up as whole keys, not as key paths.
    let spans = json::at(replay, "raw.spans").and_then(Value::as_object);
    let span = |name: &str, field: &str| -> Option<f64> {
        json::f64_at(serde::object_get(spans?, name)?, field)
    };
    let layer_total = |layer: &str| -> f64 {
        spans.map_or(0.0, |all| {
            all.iter()
                .filter(|(k, _)| k.split('.').next() == Some(layer))
                .filter_map(|(_, v)| json::f64_at(v, "total_ns"))
                .sum()
        })
    };
    let observer_ns = [
        span("replay.round", "total_ns"),
        span("replay.sample", "total_ns"),
    ]
    .into_iter()
    .flatten()
    .sum::<f64>();
    let share = |layer: &str| ratio(Some(layer_total(layer)), Some(observer_ns));

    let wall_untraced = json::f64_at(timed, "wall_s");
    let wall_traced = json::f64_at(steps, "wall_s");
    let bt_window_s = c.get("phase_nanos.bittorrent").map(|ns| ns / 1e9);
    let gossip_round_s = c.get("phase_nanos.gossip").map(|ns| ns / 1e9);
    let observer_s = s("observer_s");
    let unattributed_s = match (wall_traced, bt_window_s, gossip_round_s, observer_s) {
        (Some(w), Some(b), Some(g), Some(o)) => Some((w - b - g - o).max(0.0)),
        _ => None,
    };
    let attempted = c.get("encounters.attempted");
    let delivered = c.get("encounters.delivered");
    let sys_protocol_s = match (wall_traced, bt_window_s, observer_s) {
        (Some(w), Some(b), Some(o)) => Some(w - b - o),
        _ => None,
    };

    // Replay fidelity, against the encounters `System` actually ran
    // (`barter.exchanges`; a delivery refused at the quarantine gate counts
    // as delivered but runs no encounter). Coverage prices `System`'s own
    // call counts with the replay's per-call costs: every layer span scaled
    // by the ratio of encounters run, except the contribution queries,
    // whose hit/miss mix `System` counts itself.
    let replay_encounters = r("encounters");
    let sys_exchanges = c.get("barter.exchanges").or(delivered);
    let scale = ratio(sys_exchanges, replay_encounters);
    let hits = c.get("barter.cache_hits");
    let evals = c.get("barter.maxflow_evaluations");
    let coverage = (|| {
        let scale = scale?;
        let mut ns = 0.0;
        for (name, v) in spans? {
            let layer = name.split('.').next().unwrap_or("");
            if matches!(layer, "replay" | "bittorrent")
                || name.starts_with("bartercast.contribution")
            {
                continue;
            }
            ns += json::f64_at(v, "total_ns").unwrap_or(0.0) * scale;
        }
        ns += span("bartercast.contribution_hit", "mean_ns").unwrap_or(0.0) * hits?;
        ns += span("bartercast.contribution_miss", "mean_ns").unwrap_or(0.0) * evals?;
        ratio(Some(ns / 1e9), sys_protocol_s)
    })();

    let run_trace_s = r("run_trace_s");
    let ticks = r("ticks");
    let mc_exchange_ns = span("modcast.exchange", "mean_ns").or_else(|| {
        // Guarded path: one exchange is two extracts and up to two
        // deliveries.
        let total = span("modcast.extract_from", "total_ns")?
            + span("modcast.deliver_list", "total_ns").unwrap_or(0.0);
        ratio(
            Some(total),
            span("modcast.extract_from", "count").map(|n| n / 2.0),
        )
    });
    let engine_ns = ratio(
        Some(
            span("sim.engine_schedule", "total_ns").unwrap_or(0.0)
                + span("sim.engine_next_before", "total_ns").unwrap_or(0.0),
        ),
        r("engine_events"),
    );
    let ckpt_bytes = s("ckpt_bytes");
    let mib_per_s = |ms: Option<f64>| {
        ratio(
            ckpt_bytes.map(|b| b / (1024.0 * 1024.0)),
            ms.map(|ms| ms / 1e3),
        )
    };
    let accepted = c.get("guard.accepted");
    let rejected = c.sum_prefixed("guard", "rejected_");
    let lists_acc = c.get("votes.lists_accepted");
    let lists_rej = c.get("votes.lists_rejected_inexperienced");
    let quality_delta = json::f64_at(steps, "quality")
        .zip(r("quality"))
        .map(|(a, b)| (a - b).abs());

    let computed: BTreeMap<&str, Option<f64>> = [
        ("scenario.steps", s("steps")),
        ("scenario.gossip_rounds", s("gossip_rounds")),
        ("scenario.step_total_s", s("step_total_s")),
        ("scenario.bt_window_s", bt_window_s),
        ("scenario.gossip_round_s", gossip_round_s),
        ("scenario.unattributed_s", unattributed_s),
        ("scenario.gossip_step_p50_ms", s("gossip_step_p50_ms")),
        ("scenario.gossip_step_p99_ms", s("gossip_step_p99_ms")),
        ("scenario.observer_s", observer_s),
        ("scenario.cpu_s", s("cpu_s")),
        ("scenario.cpu_over_wall", ratio(s("cpu_s"), wall_traced)),
        ("scenario.encounters_attempted", attempted),
        ("scenario.encounters_delivered", delivered),
        ("scenario.delivered_ratio", ratio(delivered, attempted)),
        (
            "scenario.us_per_encounter",
            ratio(
                wall_untraced.zip(bt_window_s).map(|(w, b)| (w - b) * 1e6),
                delivered,
            ),
        ),
        ("scenario.glue_share", coverage.map(|cov| 1.0 - cov)),
        ("trace.generate_ms", s("trace_generate_ms")),
        ("trace.events", s("trace_events")),
        ("bittorrent.run_trace_s", run_trace_s),
        ("bittorrent.ticks", ticks),
        (
            "bittorrent.us_per_tick",
            ratio(run_trace_s.map(|t| t * 1e6), ticks),
        ),
        ("bittorrent.kib_total", r("kib_total")),
        ("bittorrent.window_speedup", ratio(run_trace_s, bt_window_s)),
        ("pss.sample_ns", span("pss.sample_from", "mean_ns")),
        (
            "bartercast.sync_ns",
            span("bartercast.sync_own_records", "mean_ns"),
        ),
        (
            "bartercast.exchange_ns",
            span("bartercast.exchange", "mean_ns"),
        ),
        (
            "bartercast.contribution_hit_ns",
            span("bartercast.contribution_hit", "mean_ns"),
        ),
        (
            "bartercast.contribution_miss_ns",
            span("bartercast.contribution_miss", "mean_ns"),
        ),
        ("bartercast.share", share("bartercast")),
        ("bartercast.maxflow_evals", evals),
        ("bartercast.cache_hits", hits),
        (
            "bartercast.hit_ratio",
            ratio(hits, hits.zip(evals).map(|(h, e)| h + e)),
        ),
        ("modcast.exchange_ns", mc_exchange_ns),
        ("modcast.share", share("modcast")),
        ("modcast.pushed", c.get("moderation.pushed")),
        (
            "modcast.gate_reject_ratio",
            ratio(
                c.get("moderation.rejected_by_gate"),
                c.get("moderation.pulled"),
            ),
        ),
        ("core.vote_list_ns", span("core.vote_list_of", "mean_ns")),
        (
            "core.deliver_vote_list_ns",
            span("core.deliver_vote_list", "mean_ns"),
        ),
        ("core.vox_request_ns", span("core.vox_request", "mean_ns")),
        (
            "core.ranking_ns",
            span("core.ranking_with_known", "mean_ns"),
        ),
        ("core.share", share("core")),
        ("core.lists_accepted", lists_acc),
        ("core.lists_rejected_inexperienced", lists_rej),
        (
            "core.accept_ratio",
            ratio(lists_acc, lists_acc.zip(lists_rej).map(|(a, b)| a + b)),
        ),
        ("core.votes_merged", c.get("votes.votes_merged")),
        ("core.vox_requests", c.get("voxpopuli.requests")),
        (
            "core.vox_answer_ratio",
            ratio(c.get("voxpopuli.responses"), c.get("voxpopuli.requests")),
        ),
        ("faults.decide_ns", span("faults.decide", "mean_ns")),
        ("faults.delayed", c.get("faults.delayed")),
        ("faults.retries", c.get("faults.retries")),
        (
            "faults.retry_ratio",
            ratio(c.get("faults.retries"), attempted),
        ),
        ("faults.dedup_suppressed", c.get("faults.dedup_suppressed")),
        (
            "faults.dropped_total",
            c.sum(&[
                "encounters.dropped_no_sample",
                "encounters.dropped_offline_target",
                "encounters.dropped_self_target",
                "encounters.dropped_message_loss",
                "faults.dropped_burst",
                "faults.partitioned",
                "faults.dropped_expired",
                "guard.inbox_dropped",
            ]),
        ),
        ("guard.admit_ns", span("guard.admit", "mean_ns")),
        ("guard.validate_ns", span("guard.validate", "mean_ns")),
        ("guard.accepted", accepted),
        ("guard.rejected_total", rejected),
        (
            "guard.reject_ratio",
            ratio(rejected, accepted.zip(rejected).map(|(a, b)| a + b)),
        ),
        (
            "guard.quarantines_started",
            c.get("guard.quarantines_started"),
        ),
        ("attacks.flooder_sends", c.get("guard.flooder_sends")),
        (
            "attacks.malformer_mutations",
            c.get("guard.malformer_mutations"),
        ),
        ("sim.engine_ns_per_event", engine_ns),
        ("sim.pool_scatter_us", s("pool_scatter_us")),
        ("shard.bus_bytes", c.get("shard.bus_bytes")),
        (
            "shard.envelopes",
            c.sum(&["shard.envelopes_routed", "shard.envelopes_local"]),
        ),
        ("checkpoint.encode_ms", s("ckpt_encode_ms")),
        ("checkpoint.restore_ms", s("ckpt_restore_ms")),
        ("checkpoint.cycle_ms", s("ckpt_cycle_ms")),
        ("checkpoint.encode_mb_per_s", mib_per_s(s("ckpt_encode_ms"))),
        (
            "checkpoint.restore_mb_per_s",
            mib_per_s(s("ckpt_restore_ms")),
        ),
        (
            "checkpoint.bytes_per_peer",
            ratio(ckpt_bytes, json::f64_at(steps, "peers")),
        ),
        (
            "telemetry.overhead_frac",
            ratio(wall_traced, wall_untraced).map(|x| x - 1.0),
        ),
        ("replay.span_overhead_ns", r("span_overhead_ns")),
        ("metrics.observe_us", s("observe_us")),
        (
            "replay.encounter_ratio",
            ratio(replay_encounters, sys_exchanges),
        ),
        ("replay.quality_delta", quality_delta),
        ("replay.coverage", coverage),
    ]
    .into_iter()
    .collect();

    debug_assert_eq!(
        computed.len(),
        PER_LAYER.len(),
        "a formula without a table row"
    );
    Layers {
        values: PER_LAYER
            .iter()
            .map(|m| {
                let v = computed
                    .get(m.name)
                    .expect("every per-layer row has a formula");
                (m.name, *v)
            })
            .collect(),
        missing: c.missing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_table_row_is_computed_and_absent_counters_read_as_missing() {
        // Empty reports: nothing can be computed, nothing may panic, and
        // the counters asked for by key path are all listed as missing.
        let empty = json::parse("{}").unwrap();
        let out = combine(&empty, &empty, &empty);
        assert_eq!(out.values.len(), PER_LAYER.len());
        assert!(out.values.iter().all(|(_, v)| v.is_none()));
        assert!(out.missing.iter().any(|m| m == "shard.bus_bytes"));
        assert!(out.missing.iter().any(|m| m == "encounters.delivered"));
    }

    #[test]
    fn counters_are_read_by_key_path() {
        let steps = json::parse(
            r#"{"snapshot":{"encounters":{"attempted":10,"delivered":8},
                "guard":{"accepted":6,"rejected_rate_limited":1,"rejected_quarantined":2,"strikes":9}}}"#,
        )
        .unwrap();
        let empty = json::parse("{}").unwrap();
        let out = combine(&empty, &steps, &empty);
        let get = |name: &str| out.values.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(get("scenario.delivered_ratio"), Some(0.8));
        assert_eq!(get("guard.rejected_total"), Some(3.0));
        assert_eq!(get("guard.reject_ratio"), Some(3.0 / 9.0));
        assert_eq!(get("shard.bus_bytes"), None);
    }
}
