//! Result files and `benchmark compare`.
//!
//! `--out <file>` appends each run to `{"schema": 1, "runs": [...]}`, so one
//! file can hold the ten runs a comparison needs.  `compare` prints, per
//! workload and end-to-end metric, both medians, the ratio with its base, the
//! bound from `BENCHMARK.json`, and a verdict.

use std::path::Path;

use crate::json::{self, Value};
use crate::stats::median;
use crate::workloads::WORKLOADS;
use crate::{declared, Declared};

pub fn append_runs(path: &Path, runs: Vec<Value>) -> Result<(), String> {
    let mut all = if path.exists() {
        read_runs(path)?
    } else {
        Vec::new()
    };
    all.extend(runs);
    let doc = Value::obj(vec![("schema", Value::Num(1.0)), ("runs", Value::Arr(all))]);
    std::fs::write(path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

fn read_runs(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .get("runs")
        .and_then(Value::as_arr)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| format!("{}: not a result file", path.display()))
}

/// Untraced runs of one workload in a result file.
struct Side<'a> {
    runs: Vec<&'a Value>,
}

impl<'a> Side<'a> {
    fn of(runs: &'a [Value], workload: &str) -> Side<'a> {
        Side {
            runs: runs
                .iter()
                .filter(|r| {
                    r.get("workload").and_then(Value::as_str) == Some(workload)
                        && r.get("trace") == Some(&Value::Bool(false))
                })
                .collect(),
        }
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.runs
            .iter()
            .filter_map(|r| r.get("metrics")?.get(metric)?.get("value")?.as_f64())
            .collect()
    }

    fn failed_share(&self) -> f64 {
        let sum = |key| -> f64 {
            self.runs
                .iter()
                .filter_map(|r| r.get(key).and_then(Value::as_f64))
                .sum()
        };
        sum("failed") / sum("attempted").max(1.0)
    }
}

/// Distance between the first and third quartile as a share of the median,
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let quantile = |i: usize| {
        let pos = i as f64 * (v.len() + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, v.len() - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (quantile(3) - quantile(1)) / median(&v)
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

/// The rule of the choosing-metrics guide: worse beyond the bound is worse;
/// where the base's own spread exceeds the bound nothing is "unchanged"
/// unless every run of `b` beats every run of `a`.
pub fn verdict(a: &[f64], b: &[f64], d: &Declared) -> Verdict {
    let bound = d.bound.unwrap_or(0.0);
    let (ma, mb) = (median(a), median(b));
    let worse_by = if d.higher_is_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    let every_b_beats_every_a = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if d.higher_is_better { y > x } else { y < x })
    });
    if worse_by > bound {
        Verdict::Worse
    } else if quartile_spread(a) > bound {
        if every_b_beats_every_a {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Prints the comparison; `Ok(false)` when anything got worse.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let metrics = declared("end_to_end");
    let mut ok = true;
    let mut compared = 0;
    let (a_runs, b_runs) = (read_runs(a_path)?, read_runs(b_path)?);
    for workload in WORKLOADS {
        let (a, b) = (Side::of(&a_runs, workload), Side::of(&b_runs, workload));
        if a.runs.is_empty() || b.runs.is_empty() {
            continue;
        }
        println!(
            "== {workload}: {} runs vs {} runs",
            a.runs.len(),
            b.runs.len()
        );
        for d in &metrics {
            let (va, vb) = (a.values(&d.name), b.values(&d.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            compared += 1;
            let (ma, mb) = (median(&va), median(&vb));
            let v = verdict(&va, &vb, d);
            ok &= v != Verdict::Worse;
            println!(
                "   {:<18} {:>14.6} -> {:>14.6} {:<10} x{:.4} of base {:.6}, {} is better, bound {:.1} %, \
                 base spread {:.1} %: {}",
                d.name,
                ma,
                mb,
                d.unit,
                mb / ma,
                ma,
                if d.higher_is_better { "higher" } else { "lower" },
                d.bound.unwrap_or(0.0) * 100.0,
                quartile_spread(&va) * 100.0,
                format!("{v:?}").to_lowercase(),
            );
        }
        let (fa, fb) = (a.failed_share(), b.failed_share());
        println!("   failed share       {fa:.6} -> {fb:.6}");
        if fb > fa {
            println!("   failed share rose: worse");
            ok = false;
        }
    }
    if compared == 0 {
        return Err("the two files share no untraced workload runs".into());
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> Declared {
        Declared {
            name: "latency_ms".into(),
            unit: "ms".into(),
            higher_is_better: false,
            bound: Some(bound),
        }
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0];
        assert_eq!(
            verdict(&steady, &[10.2, 10.3, 10.1, 10.2], &lower(0.1)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&steady, &[12.0, 12.1, 11.9, 12.0], &lower(0.1)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.0], &lower(0.1)),
            Verdict::Better
        );
        let noisy = [8.0, 12.0, 9.0, 11.0];
        assert_eq!(
            verdict(&noisy, &[9.5, 10.5, 10.0, 10.2], &lower(0.1)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[5.0, 6.0, 5.5, 5.2], &lower(0.1)),
            Verdict::Better
        );
        let higher = Declared {
            higher_is_better: true,
            ..lower(0.1)
        };
        assert_eq!(
            verdict(&steady, &[8.0, 8.1, 7.9, 8.0], &higher),
            Verdict::Worse
        );
    }
}
