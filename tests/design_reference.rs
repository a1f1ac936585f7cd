//! DESIGN.md §7, §8 and §11 are where the paper's operating point and
//! every counter the experiments read are written down. This suite keeps
//! those tables in step with the code, reading DESIGN.md once:
//!
//! * every counter in `Snapshot::default()`'s JSON is named somewhere in
//!   it (that every counter block has a `Snapshot` slot, and that `merge`
//!   folds every slot, is held by the compiler: `rvs-telemetry` declares
//!   the blocks and `Snapshot` from one list);
//! * every field of the five protocol config structs is named,
//!   case-insensitively, so prose may write the paper's `B_max` for the
//!   `b_max` field, and the paper symbols `B_min`, `B_max` and `V_max`
//!   appear verbatim. The field lists are exhaustive patterns with no
//!   `..`, so a field added to a struct does not compile here until it is
//!   listed, and so checked;
//! * every threading knob exists in the file that owns it and is named in
//!   DESIGN.md.

use rvs_bartercast::BarterCastConfig;
use rvs_core::VoteSamplingConfig;
use rvs_faults::FaultConfig;
use rvs_guard::GuardConfig;
use rvs_scenario::ProtocolConfig;
use rvs_telemetry::Snapshot;
use std::path::Path;

const DESIGN: &str = include_str!("../DESIGN.md");

/// `(struct, its fields)`, the fields taken from a pattern with no `..`.
/// A field added to the struct stops this compiling until it is listed;
/// because the pattern is built by a macro, rustc words that as "pattern
/// requires `..` due to inaccessible fields".
macro_rules! documented {
    ($ty:ident { $($field:ident),+ $(,)? }) => {{
        let $ty { $($field: _),+ } = $ty::default();
        (stringify!($ty), &[$(stringify!($field)),+] as &[&str])
    }};
}

/// The paper's symbols for the [`VoteSamplingConfig`] fields they name
/// (§VI-B), which DESIGN.md must spell as the paper does.
const PAPER_SYMBOLS: [&str; 3] = ["B_min", "B_max", "V_max"];

/// The ways to change the worker count, with the file that implements
/// each. `tests/parallel_differential.rs` proves none changes results;
/// users only know they are safe to turn if DESIGN.md keeps naming them.
const THREADING_KNOBS: [(&str, &str); 3] = [
    ("RVS_THREADS", "crates/sim/src/pool.rs"),
    ("--threads", "src/bin/rvs.rs"),
    ("set_threads", "crates/scenario/src/system.rs"),
];

#[test]
fn every_snapshot_counter_is_named_in_design() {
    let json = serde_json::parse_value_str(&Snapshot::default().to_json()).expect("own JSON");
    let slots = json.as_object().expect("a snapshot is an object");
    let blocks: Vec<_> = slots
        .iter()
        .filter_map(|(slot, block)| Some((slot, block.as_object()?)))
        .collect();
    assert!(
        !blocks.is_empty(),
        "no counter block in the snapshot's JSON"
    );
    let missing: Vec<String> = blocks
        .iter()
        .flat_map(|(slot, counters)| counters.iter().map(move |(c, _)| (slot, c)))
        .filter(|(_, counter)| !DESIGN.contains(counter.as_str()))
        .map(|(slot, counter)| format!("{slot}.{counter}"))
        .collect();
    assert!(
        missing.is_empty(),
        "counters not named in DESIGN.md — add them to §7's counter reference: {missing:?}"
    );
}

#[test]
fn every_config_field_and_paper_symbol_is_named_in_design() {
    let votes = documented!(VoteSamplingConfig {
        b_min,
        b_max,
        v_max,
        k,
        max_votes_per_msg,
        policy,
        revalidate,
    });
    let configs = [
        documented!(ProtocolConfig {
            net,
            bartercast,
            modcast,
            votes,
            gossip_every,
            experience_t_mib,
            adaptive_t,
            vox_enabled,
            use_newscast_pss,
            message_loss,
        }),
        documented!(BarterCastConfig {
            max_records_per_exchange
        }),
        votes,
        documented!(FaultConfig {
            base_latency_ms,
            jitter_spread,
            loss,
            duplicate,
            burst,
            retry,
        }),
        documented!(GuardConfig {
            enabled,
            bucket_capacity,
            bucket_refill,
            inbox_cap,
            strike_threshold,
            strike_decay,
            quarantine_base,
            quarantine_cap,
            max_timestamp_skew,
            replay_window,
            max_record_kib,
            id_slack,
            seen_window,
        }),
    ];
    let design = DESIGN.to_lowercase();
    let missing: Vec<String> = configs
        .iter()
        .flat_map(|(ty, fields)| fields.iter().map(move |f| (ty, f)))
        .filter(|(_, field)| !design.contains(&field.to_lowercase()))
        .map(|(ty, field)| format!("{ty}.{field}"))
        .collect();
    assert!(
        missing.is_empty(),
        "config fields not named in DESIGN.md — paper parameters must never silently \
         diverge from their documentation; add them to §8: {missing:?}"
    );

    for symbol in PAPER_SYMBOLS {
        assert!(
            votes.1.contains(&symbol.to_lowercase().as_str()),
            "paper parameter `{symbol}` has no VoteSamplingConfig field"
        );
        assert!(
            DESIGN.contains(symbol),
            "paper symbol `{symbol}` is no longer written in DESIGN.md"
        );
    }
}

#[test]
fn every_threading_knob_is_implemented_and_named_in_design() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for (knob, owner) in THREADING_KNOBS {
        let src = std::fs::read_to_string(root.join(owner))
            .unwrap_or_else(|e| panic!("{owner}, the owner of `{knob}`: {e}"));
        assert!(
            src.contains(knob),
            "threading knob `{knob}` is no longer in {owner} — update THREADING_KNOBS \
             (and DESIGN.md) if it moved or was removed"
        );
        assert!(
            DESIGN.contains(knob),
            "threading knob `{knob}` ({owner}) is not named in DESIGN.md — every way to \
             change the worker count must appear in §11's knob table"
        );
    }
}
