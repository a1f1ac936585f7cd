//! Algebraic properties of [`Snapshot::merge`]: associative, commutative,
//! with `Snapshot::default()` as identity. The parallel experiment harness
//! folds per-run snapshots in whatever order threads finish, so these
//! properties are what make the aggregate independent of scheduling.
//! Field values range over all of `u64` — saturating addition keeps the
//! algebra intact even at the overflow boundary.

use proptest::prelude::*;
use rvs_telemetry::Snapshot;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// `Snapshot::default()` as the serde value tree: one object per counter
/// block, keyed by slot, holding one entry per counter.
fn default_tree() -> Vec<(String, Value)> {
    match Snapshot::default().to_value() {
        Value::Object(slots) => slots,
        other => panic!("a snapshot serializes as an object, not {other:?}"),
    }
}

/// How many counters the snapshot's JSON carries, over every block.
fn counter_count() -> usize {
    default_tree()
        .iter()
        .filter_map(|(_, block)| block.as_object())
        .map(<[_]>::len)
        .sum()
}

/// A snapshot whose every counter is set, in JSON order, from `vals`
/// (exactly [`counter_count`] of them), plus a phase map. The counters are
/// addressed through the snapshot's own JSON, so a new block or counter is
/// generated without editing this function.
fn snapshot_from(vals: &[u64], phases: BTreeMap<u8, u64>) -> Snapshot {
    let mut vals = vals.iter();
    let mut tree = default_tree();
    for (_, block) in &mut tree {
        if let Value::Object(counters) = block {
            for (_, v) in counters {
                *v = Value::UInt(*vals.next().expect("one value per counter"));
            }
        }
    }
    assert!(vals.next().is_none(), "more values than counters");
    let mut s = Snapshot::from_value(&Value::Object(tree)).expect("a snapshot's own shape");
    for (k, nanos) in phases {
        s.phase_nanos.insert(format!("phase{k}"), nanos);
    }
    s
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    let n = counter_count();
    (
        prop::collection::vec(any::<u64>(), n..n + 1),
        prop::collection::btree_map(0u8..5, any::<u64>(), 0..4),
    )
        .prop_map(|(vals, phases)| snapshot_from(&vals, phases))
}

/// The generator reaches every counter: values `1..=n` come back out of
/// the snapshot's JSON in order, none left at zero.
#[test]
fn every_counter_is_generated() {
    let n = counter_count();
    let want: Vec<u64> = (1..=n as u64).collect();
    let got: Vec<u64> = match snapshot_from(&want, BTreeMap::new()).to_value() {
        Value::Object(slots) => slots
            .iter()
            .filter_map(|(_, block)| block.as_object())
            .flatten()
            .map(|(_, v)| v.as_u64().expect("a counter is a u64"))
            .collect(),
        other => panic!("a snapshot serializes as an object, not {other:?}"),
    };
    assert!(n > 0, "the snapshot's JSON holds no counters");
    assert_eq!(got, want);
}

proptest! {
    #[test]
    fn merge_is_commutative(a in arb_snapshot(), b in arb_snapshot()) {
        prop_assert_eq!(a.merged(&b), b.merged(&a));
    }

    #[test]
    fn merge_is_associative(
        a in arb_snapshot(),
        b in arb_snapshot(),
        c in arb_snapshot(),
    ) {
        prop_assert_eq!(a.merged(&b).merged(&c), a.merged(&b.merged(&c)));
    }

    #[test]
    fn default_is_identity(a in arb_snapshot()) {
        prop_assert_eq!(a.merged(&Snapshot::default()), a.clone());
        prop_assert_eq!(Snapshot::default().merged(&a), a);
    }

    #[test]
    fn json_roundtrips_exactly(a in arb_snapshot()) {
        prop_assert_eq!(Snapshot::from_json(&a.to_json()).unwrap(), a.clone());
        prop_assert_eq!(Snapshot::from_json(&a.to_json_compact()).unwrap(), a);
    }

    #[test]
    fn counters_only_strips_exactly_the_phases(a in arb_snapshot()) {
        let c = a.counters_only();
        prop_assert!(c.phase_nanos.is_empty());
        prop_assert_eq!(c.encounters, a.encounters);
        prop_assert_eq!(c.moderation, a.moderation);
        prop_assert_eq!(c.votes, a.votes);
        prop_assert_eq!(c.voxpopuli, a.voxpopuli);
        prop_assert_eq!(c.barter, a.barter);
        prop_assert_eq!(c.pss, a.pss);
        prop_assert_eq!(c.faults, a.faults);
        prop_assert_eq!(c.guard, a.guard);
    }
}
