//! Trace statistics — regenerates the dataset summary the paper quotes in
//! §VI (our experiment index calls it "Table 1").

use crate::model::{Trace, TraceEventKind};
use std::fmt;

/// Summary statistics of a [`Trace`], matching the quantities reported for
/// the filelist.org dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of unique peers observed (paper: 100).
    pub unique_peers: usize,
    /// Number of swarms.
    pub swarm_count: usize,
    /// Total trace events (paper: ≈23,000 per trace).
    pub event_count: usize,
    /// Time-averaged fraction of the total population online
    /// (paper: ≈50%).
    pub avg_online_fraction: f64,
    /// Fraction of peers flagged as free-riders (paper: ≈25% "uploaded
    /// little to others").
    pub free_rider_fraction: f64,
    /// Fraction of freely connectable peers.
    pub connectable_fraction: f64,
    /// Mean online-session length in minutes.
    pub mean_session_mins: f64,
    /// Mean number of sessions per peer.
    pub mean_sessions_per_peer: f64,
    /// Peers online for less than 10% of the trace ("rarely present").
    pub rarely_online_peers: usize,
    /// Mean number of downloads started per peer.
    pub mean_downloads_per_peer: f64,
    /// Trace duration in hours.
    pub duration_hours: f64,
}

impl TraceStats {
    /// Compute statistics for a trace.
    pub fn compute(trace: &Trace) -> TraceStats {
        let n = trace.peer_count().max(1);
        let duration_ms = trace.duration.as_millis().max(1);

        let online = trace.online_time_per_peer();
        let total_online_ms: u64 = online.iter().map(|d| d.as_millis()).sum();
        let avg_online_fraction = total_online_ms as f64 / (n as u64 * duration_ms) as f64;
        let rarely_online_peers = online
            .iter()
            .filter(|d| (d.as_millis() as f64 / duration_ms as f64) < 0.10)
            .count();

        let mut sessions = 0usize;
        let mut downloads = 0usize;
        for ev in &trace.events {
            match ev.kind {
                TraceEventKind::Online => sessions += 1,
                TraceEventKind::StartDownload { .. } => downloads += 1,
                TraceEventKind::Offline => {}
            }
        }
        let mean_session_mins = if sessions > 0 {
            (total_online_ms as f64 / sessions as f64) / 60_000.0
        } else {
            0.0
        };

        let free_riders = trace.peers.iter().filter(|p| p.free_rider).count();
        let connectable = trace.peers.iter().filter(|p| p.connectable).count();

        TraceStats {
            unique_peers: trace.peer_count(),
            swarm_count: trace.swarms.len(),
            event_count: trace.events.len(),
            avg_online_fraction,
            free_rider_fraction: free_riders as f64 / n as f64,
            connectable_fraction: connectable as f64 / n as f64,
            mean_session_mins,
            mean_sessions_per_peer: sessions as f64 / n as f64,
            rarely_online_peers,
            mean_downloads_per_peer: downloads as f64 / n as f64,
            duration_hours: duration_ms as f64 / 3_600_000.0,
        }
    }

    /// Aggregate (mean) statistics over several traces, e.g. the 10-trace
    /// dataset.
    pub fn mean_over(stats: &[TraceStats]) -> TraceStats {
        assert!(!stats.is_empty(), "mean_over needs at least one trace");
        let k = stats.len() as f64;
        let sum_usize = |f: fn(&TraceStats) -> usize| -> usize {
            (stats.iter().map(|s| f(s) as f64).sum::<f64>() / k).round() as usize
        };
        let sum_f64 = |f: fn(&TraceStats) -> f64| -> f64 { stats.iter().map(f).sum::<f64>() / k };
        TraceStats {
            unique_peers: sum_usize(|s| s.unique_peers),
            swarm_count: sum_usize(|s| s.swarm_count),
            event_count: sum_usize(|s| s.event_count),
            avg_online_fraction: sum_f64(|s| s.avg_online_fraction),
            free_rider_fraction: sum_f64(|s| s.free_rider_fraction),
            connectable_fraction: sum_f64(|s| s.connectable_fraction),
            mean_session_mins: sum_f64(|s| s.mean_session_mins),
            mean_sessions_per_peer: sum_f64(|s| s.mean_sessions_per_peer),
            rarely_online_peers: sum_usize(|s| s.rarely_online_peers),
            mean_downloads_per_peer: sum_f64(|s| s.mean_downloads_per_peer),
            duration_hours: sum_f64(|s| s.duration_hours),
        }
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "unique peers            {:>10}", self.unique_peers)?;
        writeln!(f, "swarms                  {:>10}", self.swarm_count)?;
        writeln!(f, "events                  {:>10}", self.event_count)?;
        writeln!(f, "duration (h)            {:>10.1}", self.duration_hours)?;
        writeln!(
            f,
            "avg online fraction     {:>10.3}",
            self.avg_online_fraction
        )?;
        writeln!(
            f,
            "free-rider fraction     {:>10.3}",
            self.free_rider_fraction
        )?;
        writeln!(
            f,
            "connectable fraction    {:>10.3}",
            self.connectable_fraction
        )?;
        writeln!(
            f,
            "mean session (min)      {:>10.1}",
            self.mean_session_mins
        )?;
        writeln!(
            f,
            "sessions per peer       {:>10.1}",
            self.mean_sessions_per_peer
        )?;
        writeln!(
            f,
            "rarely-online peers     {:>10}",
            self.rarely_online_peers
        )?;
        write!(
            f,
            "downloads per peer      {:>10.2}",
            self.mean_downloads_per_peer
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenConfig;
    use rvs_sim::SimDuration;

    #[test]
    fn stats_reflect_generated_trace() {
        let cfg = TraceGenConfig::quick(25, SimDuration::from_days(1));
        let t = cfg.generate(8);
        let st = TraceStats::compute(&t);
        assert_eq!(st.unique_peers, 25);
        assert_eq!(st.swarm_count, 3);
        assert_eq!(st.event_count, t.events.len());
        assert!(st.avg_online_fraction > 0.0 && st.avg_online_fraction < 1.0);
        assert!((st.duration_hours - 24.0).abs() < 1e-9);
    }

    #[test]
    fn mean_over_averages() {
        let cfg = TraceGenConfig::quick(10, SimDuration::from_hours(12));
        let stats: Vec<TraceStats> = (0..4)
            .map(|s| TraceStats::compute(&cfg.generate(s)))
            .collect();
        let mean = TraceStats::mean_over(&stats);
        assert_eq!(mean.unique_peers, 10);
        let lo = stats.iter().map(|s| s.event_count).min().unwrap();
        let hi = stats.iter().map(|s| s.event_count).max().unwrap();
        assert!(mean.event_count >= lo && mean.event_count <= hi);
    }

    #[test]
    #[should_panic(expected = "at least one trace")]
    fn mean_over_empty_panics() {
        TraceStats::mean_over(&[]);
    }

    #[test]
    fn display_prints_all_rows() {
        let cfg = TraceGenConfig::quick(5, SimDuration::from_hours(6));
        let st = TraceStats::compute(&cfg.generate(0));
        let s = st.to_string();
        for key in [
            "unique peers",
            "events",
            "avg online fraction",
            "free-rider fraction",
            "rarely-online peers",
        ] {
            assert!(s.contains(key), "missing row {key}");
        }
    }
}
