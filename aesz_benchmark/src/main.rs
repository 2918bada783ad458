//! `aesz_benchmark`: one seeded command that measures the AE-SZ
//! reproduction end to end and layer by layer. See `README.md` beside this
//! package for the workloads, the metrics and how to read them.
//!
//! ```text
//! aesz_benchmark --workload NAME --seed N [--seconds S] [--trace 0|1]
//! aesz_benchmark --seed N [--seconds S] [--trace 0|1]      # every workload
//! aesz_benchmark compare PARENT_RUNS CHANGE_RUNS
//! ```
//!
//! A single-workload run prints one `workload metric value unit` line per
//! metric, then, as its last line, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics of
//! `BENCHMARK.json` untraced, its per-layer metrics with `--trace 1`. It
//! exits non-zero when any output is wrong. Without `--workload` every
//! workload runs in a fresh child process and the last line is one JSON
//! document holding every workload's object; `compare` reads files of such
//! lines.

#![forbid(unsafe_code)]

mod compare;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use json::{quote, Json};
use spec::Spec;
use stats::{median, tail};
use trace::Tracer;
use workloads::{Kind, Scale};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed rounds (or probe iterations) per run, however short the
/// time budget.
const MIN_ROUNDS: usize = 5;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// The measured outcome of one workload run.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: BTreeMap<String, f64>,
    /// Informational `name value unit` lines printed but not in the JSON.
    extras: Vec<(String, f64, &'static str)>,
    /// The spans of a traced run.
    trace: Option<Tracer>,
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, parent, change] => compare::run(&Spec::load(), parent, change),
            _ => usage("compare takes two run files"),
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => return usage(&e),
    };
    match args.workload {
        Some(kind) => run_one(kind, &args),
        None => run_all(&args),
    }
}

fn usage(problem: &str) -> ExitCode {
    eprintln!(
        "aesz_benchmark: {problem}\nusage: aesz_benchmark [--workload NAME] --seed N \
         [--seconds S] [--trace 0|1]\n       aesz_benchmark compare PARENT_RUNS CHANGE_RUNS"
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 0,
        seconds: Spec::load().run_seconds as f64,
        trace: false,
    };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Kind::parse(value).ok_or(format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    Ok(args)
}

/// Measure one workload and print its lines and JSON result.
fn run_one(kind: Kind, args: &Args) -> ExitCode {
    let spec = Spec::load();
    let result = match collect(
        kind,
        args.seed,
        args.seconds,
        MIN_ROUNDS,
        args.trace,
        &Scale::full(),
    ) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("{}: run failed: {e}", kind.name());
            RunResult {
                correct: false,
                attempted: 1,
                failed: 0,
                metrics: BTreeMap::new(),
                extras: Vec::new(),
                trace: None,
            }
        }
    };
    if let Some(tr) = &result.trace {
        write_trace(kind, args.seed, tr);
    }
    if !result.correct {
        println!("{}", result_json(&spec, args.trace, &result));
        return ExitCode::FAILURE;
    }
    match render(&spec, kind.name(), args.trace, &result) {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{}: {e}", kind.name());
            ExitCode::FAILURE
        }
    }
}

/// Run the workload: untraced, set up [`SETUPS`] times and time the closed
/// loop; traced, run the layer probes for the same time budget. An `Err` is
/// a wrong answer, or a run with nothing to report.
fn collect(
    kind: Kind,
    seed: u64,
    seconds: f64,
    min_rounds: usize,
    traced: bool,
    scale: &Scale,
) -> Result<RunResult, String> {
    if traced {
        let mut bench = workloads::setup(kind, seed, scale);
        bench.warm_up()?;
        let mut tr = Tracer::default();
        let start = Instant::now();
        let mut iterations = 0;
        while iterations < min_rounds || start.elapsed().as_secs_f64() < seconds {
            bench.probe(&mut tr)?;
            iterations += 1;
        }
        let metrics = tr
            .metrics()
            .into_iter()
            .filter(|(name, _)| !name.starts_with("probe."))
            .collect();
        return Ok(RunResult {
            correct: true,
            attempted: 1 + iterations,
            failed: 0,
            metrics,
            extras: vec![("probe_iterations".into(), iterations as f64, "count")],
            trace: Some(tr),
        });
    }

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut bench = None;
    for _ in 0..SETUPS {
        drop(bench.take());
        let t0 = Instant::now();
        bench = Some(workloads::setup(kind, seed, scale));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut bench = bench.expect("at least one set-up");
    let quality = bench.warm_up()?;
    let m = bench.measure(seconds, min_rounds)?;
    if m.compress_s.is_empty() || m.decompress_s.is_empty() {
        return Err(format!("all {} ops failed", m.attempted));
    }
    let ms = |samples: &[f64]| median(samples) * 1e3;
    let metrics = BTreeMap::from([
        ("compress_ms".to_string(), ms(&m.compress_s)),
        ("decompress_ms".to_string(), ms(&m.decompress_s)),
        ("compression_ratio".to_string(), quality.ratio),
        ("psnr_db".to_string(), quality.psnr_db),
        ("setup_s".to_string(), median(&setup_s)),
        ("peak_rss_mb".to_string(), peak_rss_mb()?),
    ]);
    let mut extras = Vec::new();
    for (name, samples) in [
        ("compress_ms", &m.compress_s),
        ("decompress_ms", &m.decompress_s),
    ] {
        extras.push((format!("{name}.samples"), samples.len() as f64, "count"));
        if let Some((p, v)) = tail(samples) {
            extras.push((format!("{name}.p{p}"), v * 1e3, "ms"));
        }
    }
    extras.push(("ops_per_s".into(), m.completed() as f64 / m.wall_s, "1/s"));
    extras.push((
        "failed_frac".into(),
        m.failed as f64 / m.attempted.max(1) as f64,
        "ratio",
    ));
    Ok(RunResult {
        correct: true,
        attempted: m.attempted + 1,
        failed: m.failed,
        metrics,
        extras,
        trace: None,
    })
}

/// The lines a run prints: one per metric, the extras, then the JSON
/// result. Fails when the metrics are not exactly `BENCHMARK.json`'s.
fn render(spec: &Spec, workload: &str, traced: bool, result: &RunResult) -> Result<String, String> {
    let listed = spec.metrics(traced);
    for name in result.metrics.keys() {
        if !listed.iter().any(|m| &m.name == name) {
            return Err(format!("metric {name} is not listed in BENCHMARK.json"));
        }
    }
    let mut out = String::new();
    for m in listed {
        let value = *result
            .metrics
            .get(&m.name)
            .ok_or(format!("metric {} was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", m.name));
        }
        let _ = writeln!(out, "{workload} {} {value} {}", m.name, m.unit);
    }
    for (name, value, unit) in &result.extras {
        let _ = writeln!(out, "{workload} {name} {value} {unit}");
    }
    let _ = writeln!(out, "{}", result_json(spec, traced, result));
    Ok(out)
}

/// The one-line JSON result (metrics in `BENCHMARK.json` order).
fn result_json(spec: &Spec, traced: bool, result: &RunResult) -> String {
    let metrics: Vec<String> = spec
        .metrics(traced)
        .iter()
        .filter_map(|m| {
            result.metrics.get(&m.name).map(|v| {
                format!(
                    "{}: {{\"value\": {v}, \"unit\": {}}}",
                    quote(&m.name),
                    quote(&m.unit)
                )
            })
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.correct,
        result.attempted,
        result.failed,
        metrics.join(", ")
    )
}

/// Peak resident set (`VmHWM`) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0 / 1e6)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

/// Write the spans under the build directory: `$CARGO_TARGET_DIR`, else
/// `target/`.
fn write_trace(kind: Kind, seed: u64, tr: &Tracer) {
    let root = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    let dir = std::path::Path::new(&root).join("aesz_benchmark");
    let path = dir.join(format!("trace-{}-seed{seed}.json", kind.name()));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tr.to_json(kind.name(), seed)));
    match written {
        Ok(()) => eprintln!("trace written to {}", path.display()),
        Err(e) => eprintln!("trace not written to {}: {e}", path.display()),
    }
}

/// Every workload, each in a fresh child process (so `setup_s` and
/// `peak_rss_mb` are per workload); prints the children's lines and one
/// JSON document of all their results.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut results = Vec::new();
    for kind in Kind::ALL {
        let output = Command::new(&exe)
            .args(["--workload", kind.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .output();
        let output = match output {
            Ok(output) => output,
            Err(e) => {
                eprintln!("{}: could not run: {e}", kind.name());
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        ok &= output.status.success();
        match Json::parse(last) {
            Ok(_) => results.push(format!("{}: {last}", quote(kind.name()))),
            Err(e) => {
                eprintln!("{}: no result line ({e})", kind.name());
                ok = false;
            }
        }
    }
    println!(
        "{{\"seed\": {}, \"trace\": {}, \"workloads\": {{{}}}}}",
        args.seed,
        u8::from(args.trace),
        results.join(", ")
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn workloads_match_benchmark_json() {
        let spec = Spec::load();
        let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(spec.workloads, names);
    }

    /// Each workload once at toy size, untraced and traced, with no time
    /// budget: every output must check out and exactly the metrics
    /// `BENCHMARK.json` lists must come out.
    #[test]
    fn every_workload_emits_exactly_the_listed_metrics() {
        let spec = Spec::load();
        for kind in Kind::ALL {
            for traced in [false, true] {
                let result = collect(kind, 3, 0.0, 1, traced, &Scale::toy())
                    .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", kind.name()));
                let emitted: BTreeSet<&str> = result.metrics.keys().map(String::as_str).collect();
                let listed: BTreeSet<&str> = spec
                    .metrics(traced)
                    .iter()
                    .map(|m| m.name.as_str())
                    .collect();
                assert_eq!(emitted, listed, "{} traced={traced}", kind.name());
                let text = render(&spec, kind.name(), traced, &result).expect("renders");
                let last = Json::parse(text.lines().last().expect("a result line")).expect("JSON");
                let keys: Vec<&str> = last
                    .as_object()
                    .expect("object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                if !traced {
                    assert!(
                        result.metrics.values().all(|&v| v > 0.0),
                        "{}: end-to-end metrics are never 0: {:?}",
                        kind.name(),
                        result.metrics
                    );
                }
            }
        }
    }

    #[test]
    fn arguments_parse_and_malformed_ones_are_refused() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload serve --seed 7 --seconds 10 --trace 1")).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Some(Kind::Serve), 7, 10.0, true)
        );
        let a = parse_args(&argv("--seed 3")).expect("all workloads");
        assert_eq!(a.workload, None);
        assert_eq!(a.seconds, Spec::load().run_seconds as f64);
        for bad in [
            "--seed",
            "--workload nope --seed 1",
            "--seed 1 --trace 2",
            "--seconds 1",
            "--x 1 --seed 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
