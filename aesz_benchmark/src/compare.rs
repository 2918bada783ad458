//! `aesz_benchmark compare PARENT_RUNS CHANGE_RUNS`: the paired comparison
//! of a change against its parent.
//!
//! Each file holds the stdout of all-workload runs (only their JSON
//! document lines are read), in the order they ran; run `i` of the parent
//! pairs with run `i` of the change. Run the pairs alternately (parent
//! first, then change first, …) with identical settings and at least ten
//! pairs. One row per workload × metric gives both medians and quartiles,
//! the pairs the change won, and a verdict by [`stats::compare`] with the
//! bounds of `BENCHMARK.json`. Exits non-zero when an end-to-end metric
//! regressed.

use std::process::ExitCode;

use crate::json::Json;
use crate::spec::Spec;
use crate::stats::{self, Verdict};

pub fn run(spec: &Spec, parent_path: &str, change_path: &str) -> ExitCode {
    let (parent, change) = match (load(parent_path), load(change_path)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let pairs = parent.len().min(change.len());
    if pairs < 10 {
        eprintln!("compare: only {pairs} pairs; a claim needs at least ten");
    }
    println!(
        "{:<8} {:<34} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    let mut regressed = false;
    for workload in &spec.workloads {
        for metric in spec.end_to_end.iter().chain(&spec.per_layer) {
            let p = values(&parent, workload, &metric.name);
            let c = values(&change, workload, &metric.name);
            if p.is_empty() || c.is_empty() {
                continue;
            }
            let cmp = stats::compare(&p, &c, metric.higher_is_better, metric.bound);
            // Five significant digits, whatever the magnitude.
            let num = |v: f64| format!("{v:.4e}").parse().unwrap_or(v).to_string();
            let show = |m, (q1, q3)| format!("{} [{}, {}]", num(m), num(q1), num(q3));
            println!(
                "{workload:<8} {:<34} {:>30} {:>30} {:>6}  {}",
                metric.name,
                show(cmp.parent_median, cmp.parent_quartiles),
                show(cmp.change_median, cmp.change_quartiles),
                format!("{}/{}", cmp.wins, cmp.pairs),
                cmp.verdict.label()
            );
            regressed |= cmp.verdict == Verdict::Regressed && metric.bound.is_some();
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The all-workload result documents of a run file, in order.
fn load(path: &str) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let docs: Vec<Json> = text
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .filter_map(|l| Json::parse(l).ok())
        .filter(|doc| doc.get("workloads").is_some())
        .collect();
    if docs.is_empty() {
        return Err(format!("{path}: no all-workload result lines"));
    }
    Ok(docs)
}

/// One metric's value in every correct run of `docs` that has it.
fn values(docs: &[Json], workload: &str, metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|doc| {
            let result = doc.get("workloads")?.get(workload)?;
            if result.get("correct") != Some(&Json::Bool(true)) {
                return None;
            }
            result.get("metrics")?.get(metric)?.get("value")?.as_f64()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_skip_incorrect_and_missing_runs() {
        let line = |ok: bool, v: f64| {
            Json::parse(&format!(
                r#"{{"seed": 1, "workloads": {{"sz2-3d": {{"correct": {ok}, "attempted": 3,
                "failed": 0, "metrics": {{"compress_ms": {{"value": {v}, "unit": "ms"}}}}}}}}}}"#
            ))
            .expect("valid document")
        };
        let docs = [line(true, 1.5), line(false, 9.0), line(true, 2.5)];
        assert_eq!(values(&docs, "sz2-3d", "compress_ms"), [1.5, 2.5]);
        assert!(values(&docs, "serve", "compress_ms").is_empty());
        assert!(values(&docs, "sz2-3d", "psnr_db").is_empty());
    }
}
