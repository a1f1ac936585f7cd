//! Crate-level tests that need more than one module: the map-based graph
//! the rows replaced, and the lock-step run that holds the rows to it.

mod lockstep;
mod map_graph;
