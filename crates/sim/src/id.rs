//! Identifier newtypes shared across the workspace.
//!
//! In the deployed Tribler system every peer holds a non-spoofable public-key
//! identity. In the simulation we model identities as dense `u32` indices;
//! the [`crate::rng::DetRng`]-driven signature layer in `rvs-modcast` binds
//! message authorship to these IDs.

use serde::{Deserialize, Serialize};
use std::fmt;

macro_rules! id_newtype {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }

            /// Construct from a dense index.
            #[inline]
            pub fn from_index(i: usize) -> Self {
                debug_assert!(i <= u32::MAX as usize);
                Self(i as u32)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            #[inline]
            fn from(v: u32) -> Self {
                Self(v)
            }
        }

        rvs_checkpoint::persist_struct!($name { 0 });
    };
}

id_newtype!(
    /// A peer node in the population. Nodes are numbered densely from zero in
    /// trace order (the paper's moderators M1, M2, M3 are the first three
    /// nodes to enter the system).
    NodeId,
    "n"
);

id_newtype!(
    /// A swarm (one shared file / .torrent).
    SwarmId,
    "s"
);

/// A moderator is simply a peer that has published moderations; votes are
/// bound to moderators, not to individual metadata items (paper §II).
pub type ModeratorId = NodeId;

#[cfg(test)]
mod tests {
    use super::*;
    #[expect(
        clippy::disallowed_types,
        reason = "this test exists to prove NodeId implements Hash; only set cardinality is \
                  asserted, never iteration order"
    )]
    use std::collections::HashSet;

    #[test]
    fn index_roundtrip() {
        let n = NodeId::from_index(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n, NodeId(42));
        assert_eq!(NodeId::from(7u32), NodeId(7));
    }

    #[test]
    fn display_prefixes() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(SwarmId(9).to_string(), "s9");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        #[expect(
            clippy::disallowed_types,
            reason = "asserts the Hash impl itself; cardinality-only use"
        )]
        let mut set = HashSet::new();
        set.insert(NodeId(1));
        set.insert(NodeId(1));
        set.insert(NodeId(2));
        assert_eq!(set.len(), 2);
        assert!(NodeId(1) < NodeId(2));
    }

    #[test]
    fn node_and_swarm_ids_are_distinct_types() {
        // Purely a compile-shape test: both exist independently.
        let _n: NodeId = NodeId(0);
        let _s: SwarmId = SwarmId(0);
    }
}
