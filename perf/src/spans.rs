//! In-memory span recorder for the traced passes.
//!
//! Spans are `(id, parent, name, start_ns, end_ns)`; the id is the span's
//! index in the record vector. They are recorded from the benchmark's own
//! files, around the calls into each layer, kept in memory and aggregated
//! at exit. The cost of an empty span is calibrated at start-up and
//! subtracted, because several layer calls take only 100–500 ns.

use std::collections::BTreeMap;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Rec {
    name: u16,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Handle to an open span; pass it back to [`Spans::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(u32);

/// The recorder.
pub struct Spans {
    t0: Instant,
    names: Vec<&'static str>,
    recs: Vec<Rec>,
    current: u32,
    /// `end − start` of an empty span.
    inner_ns: f64,
    /// What an empty span costs the code around it (enter + exit).
    outer_ns: f64,
}

/// Aggregate of all spans sharing a name, overhead-corrected.
#[derive(Debug, Clone, Default)]
pub struct Agg {
    /// Number of spans.
    pub count: u64,
    /// Sum of durations, ns.
    pub total_ns: f64,
    /// Sum of durations minus the part covered by direct children, ns.
    pub self_ns: f64,
    /// Median duration, ns.
    pub p50_ns: f64,
    /// 99th-percentile duration, ns.
    pub p99_ns: f64,
}

impl Agg {
    /// Mean duration per span, or `None` when the name never occurred.
    pub fn mean_ns(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_ns / self.count as f64)
    }
}

impl Spans {
    /// A recorder with the empty-span cost calibrated on this host.
    pub fn calibrated() -> Spans {
        let mut s = Spans {
            t0: Instant::now(),
            names: Vec::new(),
            recs: Vec::new(),
            current: NO_PARENT,
            inner_ns: 0.0,
            outer_ns: 0.0,
        };
        let probe = s.name("calibrate");
        const N: usize = 200_000;
        // Warm the record vector so calibration sees steady-state pushes.
        for _ in 0..N {
            let o = s.enter(probe);
            s.exit(o);
        }
        s.recs.clear();
        let began = s.now_ns();
        for _ in 0..N {
            let o = s.enter(probe);
            s.exit(o);
        }
        let elapsed = s.now_ns() - began;
        let mut durs: Vec<u64> = s.recs.iter().map(|r| r.end_ns - r.start_ns).collect();
        durs.sort_unstable();
        s.inner_ns = durs[durs.len() / 2] as f64;
        s.outer_ns = elapsed as f64 / N as f64;
        s.recs.clear();
        s.names.clear();
        s
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Intern a span name; do this once, outside the measured loop.
    pub fn name(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        u16::try_from(self.names.len() - 1).expect("fewer than 65536 span names")
    }

    /// Open a span under the currently open one.
    #[inline]
    pub fn enter(&mut self, name: u16) -> Open {
        let id = u32::try_from(self.recs.len()).expect("fewer than 2^32 spans");
        let parent = self.current;
        self.current = id;
        let start_ns = self.now_ns();
        self.recs.push(Rec {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Open(id)
    }

    /// Close `span` (spans close in LIFO order).
    #[inline]
    pub fn exit(&mut self, span: Open) {
        let end_ns = self.now_ns();
        let rec = &mut self.recs[span.0 as usize];
        rec.end_ns = end_ns;
        self.current = rec.parent;
    }

    /// File an already recorded span under another name (for calls whose
    /// kind is only known once they return, such as cache hit or miss).
    pub fn rename(&mut self, span: Open, name: u16) {
        self.recs[span.0 as usize].name = name;
    }

    /// Time one call as a span.
    #[inline]
    pub fn time<T>(&mut self, name: u16, f: impl FnOnce() -> T) -> T {
        let o = self.enter(name);
        let out = f();
        self.exit(o);
        out
    }

    /// Calibrated cost of one span to the code around it, ns.
    pub fn overhead_ns(&self) -> f64 {
        self.outer_ns
    }

    /// Number of spans recorded.
    pub fn count(&self) -> usize {
        self.recs.len()
    }

    /// Aggregate by name with the calibrated overhead subtracted: a span's
    /// own duration loses `inner_ns`, and its self time additionally loses
    /// each direct child's duration plus that child's bookkeeping.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Agg> {
        let mut child_cost = vec![0.0f64; self.recs.len()];
        for r in &self.recs {
            if r.parent != NO_PARENT {
                let dur = (r.end_ns - r.start_ns) as f64;
                child_cost[r.parent as usize] += dur + (self.outer_ns - self.inner_ns).max(0.0);
            }
        }
        let mut durs: Vec<Vec<f64>> = vec![Vec::new(); self.names.len()];
        let mut selfs = vec![0.0f64; self.names.len()];
        for (i, r) in self.recs.iter().enumerate() {
            let dur = ((r.end_ns - r.start_ns) as f64 - self.inner_ns).max(0.0);
            durs[r.name as usize].push(dur);
            selfs[r.name as usize] += (dur - child_cost[i]).max(0.0);
        }
        let mut out = BTreeMap::new();
        for (k, mut d) in durs.into_iter().enumerate() {
            if d.is_empty() {
                continue;
            }
            d.sort_unstable_by(f64::total_cmp);
            out.insert(
                self.names[k],
                Agg {
                    count: d.len() as u64,
                    total_ns: d.iter().sum(),
                    self_ns: selfs[k],
                    p50_ns: d[d.len() / 2],
                    p99_ns: d[(d.len() * 99 / 100).min(d.len() - 1)],
                },
            );
        }
        out
    }

    /// Write every span as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): complete events, one track (`tid`) per layer, where a
    /// span's layer is the part of its name before the first dot.
    pub fn dump_chrome(&self, mut w: impl std::io::Write) -> std::io::Result<()> {
        let mut layers: Vec<&str> = Vec::new();
        let layer_of: Vec<usize> = self
            .names
            .iter()
            .map(|n| {
                let layer = n.split('.').next().unwrap_or(n);
                layers.iter().position(|l| *l == layer).unwrap_or_else(|| {
                    layers.push(layer);
                    layers.len() - 1
                })
            })
            .collect();
        w.write_all(b"[")?;
        for (tid, layer) in layers.iter().enumerate() {
            writeln!(
                w,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{layer}\"}}}},"
            )?;
        }
        for (id, r) in self.recs.iter().enumerate() {
            let sep = if id + 1 == self.recs.len() { "" } else { ",\n" };
            write!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{}",
                self.names[r.name as usize],
                layer_of[r.name as usize],
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                id,
                if r.parent == NO_PARENT { -1 } else { i64::from(r.parent) },
                sep
            )?;
        }
        w.write_all(b"]\n")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_overhead_is_subtracted() {
        let mut s = Spans::calibrated();
        assert!(s.overhead_ns() > 0.0);
        let outer = s.name("layer.outer");
        let inner = s.name("layer.inner");
        let o = s.enter(outer);
        for _ in 0..1000 {
            s.time(inner, || std::hint::black_box(0u64));
        }
        s.exit(o);
        let agg = s.aggregate();
        assert_eq!(agg["layer.inner"].count, 1000);
        assert_eq!(agg["layer.outer"].count, 1);
        // An empty span reads (close to) zero once calibrated.
        assert!(agg["layer.inner"].p50_ns < 2.0 * s.overhead_ns());
        // The parent's self time is what its children do not cover.
        assert!(agg["layer.outer"].self_ns <= agg["layer.outer"].total_ns);
        assert!(agg["layer.outer"].self_ns < 0.5 * agg["layer.outer"].total_ns);
    }

    #[test]
    fn chrome_dump_is_json_with_one_track_per_layer() {
        let mut s = Spans::calibrated();
        let a = s.name("alpha.x");
        let b = s.name("beta.y");
        s.time(a, || ());
        s.time(b, || ());
        let mut bytes = Vec::new();
        s.dump_chrome(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let v = serde_json::parse_value_str(&text).expect("valid JSON");
        let events = v.as_array().unwrap();
        // Two thread_name records (alpha, beta) + two spans.
        assert_eq!(events.len(), 4);
    }
}
