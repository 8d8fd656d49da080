//! End-to-end, layer-by-layer benchmark of the CBVR system.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload frame_query|ingest|catalog_churn|all --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object holding every
//! end-to-end metric of `BENCHMARK.json`; with `--trace 1` it holds every
//! per-layer metric. The lines above it are the human-readable report:
//! the environment, each metric under the workload's own name with its
//! unit and sample count, and (traced) the per-layer table. See
//! `e2ebench/README.md`.

mod data;
mod http;
mod layers;
mod stats;
mod trace;
mod wl_churn;
mod wl_frame;
mod wl_ingest;

use layers::{LayerValue, PER_LAYER};
use stats::Dist;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Every end-to-end metric (name, unit, better), as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str, &str); 5] = [
    ("setup_s", "s", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["frame_query", "ingest", "catalog_churn"];

/// How many times the light workloads set up; `setup_s` is their
/// median (a set-up there takes milliseconds, so many are cheap).
pub const SETUP_REPS: usize = 51;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A workload-specific metric, reported under the name a user of that
/// workload knows it by.
pub struct Named {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What one workload run measured.
pub struct Outcome {
    /// Set-up durations (seconds), one per repetition.
    pub setup_s: Vec<f64>,
    /// The workload's primary operation latency, untraced.
    pub op: Dist,
    /// Primary work completed per second, untraced.
    pub throughput: f64,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric under the workload's own names.
    pub named: Vec<Named>,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<BTreeMap<&'static str, LayerValue>>,
    /// Latency shares of the primary operation (traced runs only).
    pub shares: Vec<(String, f64)>,
}

impl Outcome {
    fn end_to_end(&self) -> [(&'static str, f64); 5] {
        [
            ("setup_s", stats::median(&self.setup_s).unwrap_or(0.0)),
            ("latency_p50_ms", self.op.p50()),
            ("latency_p90_ms", self.op.p90()),
            ("throughput_per_s", self.throughput),
            ("peak_rss_mb", self.peak_rss_mb),
        ]
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The printed p90 is a checked output too: it counts one failed
    /// check when the primary latency lacks the samples the tail rule
    /// asks for, so a p90 without its support is never printed silently.
    fn check_tail(&mut self) {
        self.attempted += 1;
        self.failed += u64::from(!stats::tail_supported(self.op.n(), 0.90));
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: e2ebench --workload frame_query|ingest|catalog_churn|all --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2)
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut prepare: Option<(String, PathBuf)> = None;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value == "1",
            "--prepare" => prepare = Some((value.clone(), PathBuf::new())),
            "--dir" => {
                if let Some(p) = prepare.as_mut() {
                    p.1 = PathBuf::from(value);
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 2;
    }
    if let Some((workload, dir)) = prepare {
        // Child mode: build the prepared database and exit.
        match data::prepare(&workload, args.seed, &dir) {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("prepare: {e}");
                std::process::exit(1)
            }
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let dir = data::work_dir(&args.workload);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let out = match args.workload.as_str() {
        "frame_query" => wl_frame::run(args, &dir),
        "ingest" => wl_ingest::run(args, &dir),
        "catalog_churn" => wl_churn::run(args, &dir),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let mut out = out?;
    if out.attempted == 0 {
        return Err(format!("{}: no operation was attempted", args.workload));
    }
    if !args.trace {
        out.check_tail();
    }
    Ok(out)
}

/// The environment every result records.
fn environment(args: &Args) -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown".to_string(), |v| {
            v.trim_start_matches([' ', '\t', ':']).to_string()
        });
    vec![
        ("nproc", cbvr_core::pool::available_threads().to_string()),
        ("cpu", cpu),
        (
            "cbvr_pool_helpers",
            std::env::var("CBVR_POOL_HELPERS").unwrap_or_else(|_| "unset".into()),
        ),
        (
            "pool_width",
            cbvr_core::ExecPool::global().max_threads().to_string(),
        ),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
        (
            "commit",
            git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        ),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
    ]
}

/// `HEAD`'s commit, read from `.git` without running git (a benchmark
/// checkout need not be a repository).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn report(workload: &str, o: &Outcome, trace: bool, text: &mut String) {
    let _ = writeln!(text, "== {workload}");
    for m in &o.named {
        let _ = writeln!(
            text,
            "  {:<26} {:>14.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let _ = writeln!(
        text,
        "  {:<26} {:>14.4} {:<6} n={} (failed {})",
        "error_rate",
        o.error_rate(),
        "ratio",
        o.attempted,
        o.failed
    );
    let _ = writeln!(text, "  primary latency tail: {}", o.op.p90_note());
    if !trace {
        return;
    }
    if let Some(layers) = &o.layers {
        let _ = writeln!(
            text,
            "  per-layer (source: path = this workload's operations, sweep = all-layer sweep)"
        );
        for (name, unit, _) in PER_LAYER {
            match layers.get(name) {
                Some(v) => {
                    let src = if v.source == trace::Phase::Path {
                        "path"
                    } else {
                        "sweep"
                    };
                    let _ = writeln!(text, "  {:<36} {:>14.4} {:<6} {src}", name, v.value, unit);
                }
                None => {
                    let _ = writeln!(text, "  {name:<36} {:>14} {unit:<6} not measured", "-");
                }
            }
        }
    }
    for (name, share) in &o.shares {
        let _ = writeln!(text, "  share of op latency: {name:<28} {share:>8.3}");
    }
}

fn result_json(o: &Outcome, correct: bool, trace: bool) -> String {
    let mut metrics = Vec::new();
    if trace {
        let layers = o.layers.as_ref();
        for (name, unit, _) in PER_LAYER {
            let v = layers.and_then(|l| l.get(name)).map_or(0.0, |v| v.value);
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(v)
            ));
        }
    } else {
        for ((name, v), (_, unit, _)) in o.end_to_end().iter().zip(END_TO_END) {
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                json_number(*v)
            ));
        }
    }
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(",")
    )
}

/// `--workload all`: every workload in turn, then all fourteen
/// end-to-end metrics under their workload names in one table.
fn run_all(args: &Args) -> Result<(String, String), String> {
    let mut text = String::new();
    let mut named = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for w in WORKLOADS {
        let a = Args {
            workload: w.to_string(),
            ..args.clone()
        };
        let o = run_workload(&a)?;
        report(w, &o, args.trace, &mut text);
        attempted += o.attempted;
        failed += o.failed;
        for m in o.named {
            // A name two workloads share is qualified by the workload.
            let shared = matches!(m.name, "setup_s" | "peak_rss_mb")
                || named.iter().any(|(n, _, _, _)| n == m.name);
            let name = if shared {
                format!("{w}.{}", m.name)
            } else {
                m.name.to_string()
            };
            named.push((name, m.value, m.unit, m.samples));
        }
    }
    let rate = failed as f64 / attempted.max(1) as f64;
    named.push(("error_rate".to_string(), rate, "ratio", attempted as usize));
    let _ = writeln!(text, "== all end-to-end metrics");
    for (n, v, u, s) in &named {
        let _ = writeln!(text, "  {n:<26} {v:>14.4} {u:<6} n={s}");
    }
    let metrics: Vec<String> = named
        .iter()
        .map(|(n, v, u, _)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
        .collect();
    let json = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        attempted,
        metrics.join(",")
    );
    Ok((text, json))
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("{e}");
        usage()
    });
    if !WORKLOADS.contains(&args.workload.as_str()) && args.workload != "all" {
        usage();
    }
    let mut text = String::new();
    for (k, v) in environment(&args) {
        let _ = writeln!(text, "env {k}={v}");
    }
    let result = if args.workload == "all" {
        run_all(&args).map(|(t, json)| {
            text.push_str(&t);
            json
        })
    } else {
        run_workload(&args).map(|o| {
            report(&args.workload, &o, args.trace, &mut text);
            result_json(&o, o.failed == 0, args.trace)
        })
    };
    let json = match result {
        Ok(json) => json,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    let file = out_dir.join(format!(
        "result-{}-seed{}-trace{}.txt",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if std::fs::create_dir_all(&out_dir).is_ok() {
        let _ = std::fs::write(&file, format!("{text}{json}\n"));
    }
    print!("{text}");
    println!("{json}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names, units and directions printed are exactly those of
    /// `BENCHMARK.json` at the repository root.
    #[test]
    fn metric_names_match_benchmark_json() {
        let manifest = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String, String)> {
            let start = manifest
                .find(&format!("\"{key}\""))
                .expect("section present");
            let body = &manifest[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|item| {
                    let field = |f: &str| {
                        let at = item.find(&format!("\"{f}\"")).expect("field present");
                        let rest = &item[at + f.len() + 2..];
                        let rest = &rest[rest.find('"').expect("value opens") + 1..];
                        rest[..rest.find('"').expect("value closes")].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let want = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), want(&END_TO_END));
        assert_eq!(section("per_layer"), want(&PER_LAYER));
        let workloads = section_names(&manifest, "workloads");
        assert_eq!(
            workloads,
            WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>()
        );
    }

    fn section_names(manifest: &str, key: &str) -> Vec<String> {
        let start = manifest
            .find(&format!("\"{key}\""))
            .expect("section present");
        let body = &manifest[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|rest| {
                let rest = &rest[rest.find('"').expect("value opens") + 1..];
                rest[..rest.find('"').expect("value closes")].to_string()
            })
            .collect()
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            setup_s: vec![0.5, 0.25, 1.0],
            op: Dist {
                ms: vec![1.0, 2.0, 3.0],
            },
            throughput: 4.5,
            peak_rss_mb: 12.0,
            attempted: 3,
            failed: 0,
            named: Vec::new(),
            layers: None,
            shares: Vec::new(),
        };
        let line = result_json(&o, true, false);
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"));
        for (name, unit, _) in END_TO_END {
            assert!(
                line.contains(&format!("\"{name}\":{{\"value\":")),
                "{name} missing"
            );
            assert!(line.contains(&format!("\"unit\":\"{unit}\"")));
        }
        assert!(line.contains("\"setup_s\":{\"value\":0.5,"));
        let traced = result_json(&o, true, true);
        assert_eq!(traced.matches("\"unit\"").count(), PER_LAYER.len());
    }

    #[test]
    fn p90_without_its_samples_is_a_failed_check() {
        let outcome = |n: usize| Outcome {
            setup_s: vec![1.0],
            op: Dist { ms: vec![1.0; n] },
            throughput: 1.0,
            peak_rss_mb: 1.0,
            attempted: n as u64,
            failed: 0,
            named: Vec::new(),
            layers: None,
            shares: Vec::new(),
        };
        let mut short = outcome(stats::P90_SAMPLES - 1);
        short.check_tail();
        assert_eq!(
            (short.attempted, short.failed),
            (stats::P90_SAMPLES as u64, 1)
        );
        let mut enough = outcome(stats::P90_SAMPLES);
        enough.check_tail();
        assert_eq!(enough.failed, 0);
    }
}
