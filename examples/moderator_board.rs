//! The moderator leaderboard and swarm health: what a Tribler-style client
//! could render from its local protocol state (paper §V-A's "top-K
//! moderators screen").
//!
//! Run with:
//! ```text
//! cargo run --release --example moderator_board
//! ```

use robust_vote_sampling::bittorrent::network_health;
use robust_vote_sampling::core::ModeratorBoard;
use robust_vote_sampling::faults::FaultSchedule;
use robust_vote_sampling::scenario::VoteSamplingConfig;
use robust_vote_sampling::sim::{NodeId, SimDuration, SimTime};

fn main() {
    let (mut system, m) = VoteSamplingConfig::quick(24, SimDuration::from_hours(30))
        .system(8, FaultSchedule::default());
    println!("running 30 simulated hours of the full stack…\n");
    system.run_until(
        SimTime::from_hours(30),
        SimDuration::from_hours(30),
        |_, _| {},
    );

    // Pick the node with the largest ballot sample as "our" client.
    let observer = (0..system.trace_peer_count())
        .map(NodeId::from_index)
        .max_by_key(|&n| system.votes().ballot(n).unique_voters())
        .expect("population non-empty");
    let board = ModeratorBoard::from_ballot(system.votes().ballot(observer), 5);
    println!("moderator leaderboard as seen by {observer}:");
    println!("{board}\n");
    println!("(ground truth: M1={} was voted up, M3={} down)", m[0], m[2]);

    println!("\nswarm health at the end of the run:");
    for h in network_health(system.net()) {
        println!("  {h}");
    }

    assert_eq!(
        board.entries.first().map(|e| e.moderator),
        Some(m[0]),
        "the approved moderator should lead the board"
    );
    println!("\nboard and health rendered — example OK");
}
