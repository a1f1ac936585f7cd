//! `rvs-perf compare A.json B.json`: apply the benchmark's own bounds to
//! two sets of runs (A the parent, B the change), one verdict per
//! end-to-end metric × workload.

use crate::json::{self, Value};
use crate::table::{Better, EndToEnd, END_TO_END, PER_LAYER, WORKLOADS};

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound and the floor.
    Regressed,
    /// Run-to-run spread is wider than the bound and the two sets of runs
    /// overlap: the data cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The median of a non-empty slice (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Distance between the first and the third quartile, as Python's
/// `statistics.quantiles(values, n=4)` places them (so for three values it
/// is max − min). Fewer than two values have no spread.
pub fn quartile_distance(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    if v.len() < 2 {
        return 0.0;
    }
    let at = |q: f64| {
        // 1-based position q·(n+1), clamped into the data.
        let pos = (q * (v.len() + 1) as f64).clamp(1.0, v.len() as f64);
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len());
        v[lo - 1] + (pos - lo as f64) * (v[hi - 1] - v[lo - 1])
    };
    at(0.75) - at(0.25)
}

/// Smallest and largest value.
pub fn range(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

/// Judge metric `m` from the runs of the parent (`a`) and the change (`b`).
///
/// "Worse" follows the metric's direction. A worsening below the metric's
/// absolute floor never counts. When either side's spread (the distance
/// between its quartiles) is wider than the bound (and the floor), the
/// verdict is `Unresolved` unless the two sets of runs do not overlap, in
/// which case the medians decide as usual.
pub fn judge(m: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (med_a, med_b) = (median(a), median(b));
    // Orient so that larger is worse.
    let sign = match m.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = sign * (med_b - med_a);
    let allowed = (m.bound * med_a.abs()).max(m.abs_floor);
    let (lo_a, hi_a) = range(a);
    let (lo_b, hi_b) = range(b);
    let wide = quartile_distance(a).max(quartile_distance(b)) > allowed;
    let overlap = lo_a <= hi_b && lo_b <= hi_a;
    if wide && overlap {
        Verdict::Unresolved
    } else if worsening > allowed {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

// Workload and end-to-end metric names contain no dots, so they can sit
// inside a key path; per-layer names do and go through `layer_value`.
fn values_of(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    json::at(
        set,
        &format!("workloads.{workload}.metrics.{metric}.values"),
    )
    .and_then(Value::as_array)
    .map(|vs| vs.iter().filter_map(Value::as_f64).collect())
    .unwrap_or_default()
}

fn workload_field<'a>(set: &'a Value, workload: &str, field: &str) -> Option<&'a Value> {
    json::at(set, &format!("workloads.{workload}.{field}"))
}

fn failure_share(set: &Value, workload: &str) -> f64 {
    let get = |f| {
        workload_field(set, workload, f)
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    };
    let attempted = get("checks_attempted");
    if attempted > 0.0 {
        get("checks_failed") / attempted
    } else {
        0.0
    }
}

/// Compare two end-to-end sets; prints one row per metric × workload and
/// returns whether B is acceptable (no `regressed`, no higher failure
/// share).
fn compare_e2e(a: &Value, b: &Value) -> bool {
    let mut acceptable = true;
    println!(
        "{:<16} {:<12} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values_of(a, w.name, m.name), values_of(b, w.name, m.name));
            let verdict = judge(m, &va, &vb);
            acceptable &= verdict != Verdict::Regressed;
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<16} {:<12} (no runs on one side)  {}",
                    w.name,
                    m.name,
                    verdict.as_str()
                );
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<16} {:<12} {:>14.6} {:>14.6} {:>+8.2}% {:>6.0}%  {}",
                w.name,
                m.name,
                ma,
                mb,
                (mb - ma) / ma * 100.0,
                m.bound * 100.0,
                verdict.as_str()
            );
        }
        let (fa, fb) = (failure_share(a, w.name), failure_share(b, w.name));
        if fb > fa {
            println!(
                "{:<16} checks_failed share rose {fa:.4} -> {fb:.4}  regressed",
                w.name
            );
            acceptable = false;
        }
        let digest = |s| workload_field(s, w.name, "result_digest").and_then(Value::as_str);
        println!(
            "{:<16} result_digest {}",
            w.name,
            if digest(a) == digest(b) {
                "same"
            } else {
                "DIFFERS"
            }
        );
    }
    acceptable
}

/// Compare two traced sets: every exact-repeat counter must be identical.
fn compare_layers(a: &Value, b: &Value) -> bool {
    let mut same = true;
    for w in &WORKLOADS {
        for m in PER_LAYER.iter().filter(|m| m.source == 'C') {
            let get = |s| {
                workload_field(s, w.name, "metrics").and_then(|ms| {
                    json::at(serde::object_get(ms.as_object()?, m.name)?, "value").cloned()
                })
            };
            let (va, vb) = (get(a), get(b));
            if va != vb {
                same = false;
                println!("{:<16} {:<36} differs: {va:?} vs {vb:?}", w.name, m.name);
            }
        }
    }
    if same {
        println!("every exact-repeat counter is identical");
    }
    same
}

/// Entry point of `rvs-perf compare A B`.
pub fn run(a_path: &std::path::Path, b_path: &std::path::Path) -> Result<bool, String> {
    let (a, b) = (json::load(a_path)?, json::load(b_path)?);
    match (json::str_at(&a, "kind"), json::str_at(&b, "kind")) {
        (Some("e2e"), Some("e2e")) => Ok(compare_e2e(&a, &b)),
        (Some("layers"), Some("layers")) => Ok(compare_layers(&a, &b)),
        (ka, kb) => Err(format!(
            "cannot compare a {ka:?} file with a {kb:?} file (want two e2e or two layers sets)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric with the given direction, relative bound and absolute
    /// floor — the tests fix their own so that re-tuning the table's bounds
    /// cannot change what they prove.
    fn metric(better: Better, bound: f64, abs_floor: f64) -> EndToEnd {
        EndToEnd {
            name: "m",
            unit: "u",
            better,
            bound,
            abs_floor,
            best_of_reps: false,
            what: "",
        }
    }

    #[test]
    fn direction_decides_which_way_is_worse() {
        let wall = metric(Better::Lower, 0.10, 0.0);
        assert_eq!(
            judge(&wall, &[10.0, 10.1, 10.2], &[11.5, 11.6, 11.7]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&wall, &[10.0, 10.1, 10.2], &[8.0, 8.1, 8.2]),
            Verdict::Ok
        );
        let rate = metric(Better::Higher, 0.10, 0.0);
        assert_eq!(
            judge(&rate, &[1000.0, 1001.0], &[800.0, 801.0]),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&rate, &[1000.0, 1001.0], &[1300.0, 1301.0]),
            Verdict::Ok
        );
        // Within the bound either way.
        assert_eq!(
            judge(&wall, &[10.0, 10.1, 10.2], &[10.5, 10.6, 10.7]),
            Verdict::Ok
        );
    }

    #[test]
    fn absolute_floors_absorb_small_worsenings() {
        // 25 % or 0.02 s, whichever is larger: 5 ms -> 15 ms is +200 % but
        // only 10 ms.
        let setup = metric(Better::Lower, 0.25, 0.02);
        assert_eq!(judge(&setup, &[0.005, 0.005], &[0.015, 0.015]), Verdict::Ok);
        assert_eq!(
            judge(&setup, &[0.005, 0.005], &[0.040, 0.040]),
            Verdict::Regressed
        );
        // 5 % of 0.5 is 0.025, but the floor is 0.05 absolute.
        let quality = metric(Better::Higher, 0.05, 0.05);
        assert_eq!(judge(&quality, &[0.50], &[0.46]), Verdict::Ok);
        assert_eq!(judge(&quality, &[0.50], &[0.40]), Verdict::Regressed);
    }

    #[test]
    fn wide_overlapping_runs_are_unresolved_not_unchanged() {
        let wall = metric(Better::Lower, 0.10, 0.0);
        // A's own runs span 30 % and B sits inside them.
        assert_eq!(
            judge(&wall, &[10.0, 11.5, 13.0], &[11.0, 12.0, 12.5]),
            Verdict::Unresolved
        );
        // Same spread, but every run of B beats every run of A.
        assert_eq!(
            judge(&wall, &[10.0, 11.5, 13.0], &[7.0, 8.0, 9.0]),
            Verdict::Ok
        );
        // Same spread, every run of B is worse than every run of A.
        assert_eq!(
            judge(&wall, &[10.0, 11.5, 13.0], &[14.0, 15.0, 16.0]),
            Verdict::Regressed
        );
        // No runs on one side cannot be judged.
        assert_eq!(judge(&wall, &[], &[1.0]), Verdict::Unresolved);
    }

    #[test]
    fn median_and_quartiles_follow_pythons_statistics_module() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartile_distance(&[2.0, 3.0, 1.0]), 2.0);
        // statistics.quantiles(range(1, 8), n=4) == [2.0, 4.0, 6.0]
        assert_eq!(quartile_distance(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]), 4.0);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartile_distance(&[5.0, 4.0, 3.0, 2.0, 1.0]), 3.0);
        // One slow run in seven does not widen the spread.
        assert_eq!(
            quartile_distance(&[7.0, 7.25, 7.5, 7.75, 8.0, 8.25, 12.0]),
            1.0
        );
        assert_eq!(quartile_distance(&[4.0]), 0.0);
    }
}
