//! The benchmark's definition, read from the repo-root `BENCHMARK.json`
//! (compiled in): the workload names and every metric with its unit,
//! direction and regression bound. The harness prints units from here and
//! refuses to print a metric the file does not list, so the file and the
//! output cannot drift apart.

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in definition.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid (checked by the unit tests)")
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("run_seconds missing")? as u64;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_array)
            .ok_or("workloads missing")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| "workload without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            run_seconds,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// The metrics a run prints: end-to-end ones untraced, per-layer ones
    /// traced.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }

    /// Look a metric up in either list.
    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    let list = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or(format!("{key} missing"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("{key} entry without {k}"))
            };
            let better = field("better")?;
            if better != "higher" && better != "lower" {
                return Err(format!("better must be higher or lower, got {better}"));
            }
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: better == "higher",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

/// A workload or metric name: starts with a letter or digit, at most 64 of
/// `[A-Za-z0-9_.-]`.
#[cfg(test)]
pub fn valid_name(s: &str) -> bool {
    s.len() <= 64
        && s.starts_with(|c: char| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
#[cfg(test)]
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_charset_is_enforced() {
        for good in [
            "aesz-2d",
            "compress_ms",
            "nn.layer.conv_ms",
            "9lives",
            "a.b-c_d",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "-lead",
            ".lead",
            "has space",
            "slash/ed",
            "ünïcode",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        assert!(valid_unit("1/s") && valid_unit("GMAC/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("m s") && !valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn benchmark_json_is_well_formed() {
        let spec = Spec::parse(BENCHMARK_JSON).expect("parses");
        assert!((1..=60).contains(&spec.run_seconds));
        assert!((2..=8).contains(&spec.workloads.len()));
        assert!((1..=16).contains(&spec.end_to_end.len()));
        assert!((1..=128).contains(&spec.per_layer.len()));
        let mut names: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
        for m in spec.end_to_end.iter().chain(&spec.per_layer) {
            assert!(valid_unit(&m.unit), "unit of {}", m.name);
            names.push(&m.name);
        }
        for m in &spec.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "bound of {}", m.name);
        }
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec.metric("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "every name is used once");
    }
}
