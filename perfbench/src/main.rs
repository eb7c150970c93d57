//! The repository benchmark: three workloads, one command each.
//!
//! ```text
//! perfbench --workload <solve-sweep|serve-hot|campaign> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>] [--spec <file>]
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a
//! traced run (`--trace 1`) of the same inputs prints every per-layer
//! metric, computed from spans the benchmark records around its calls
//! into the system's public functions. Both metric lists, with their
//! units, are read from the repository's `BENCHMARK.json` (`--spec`).
//! Either way the last stdout line is one JSON object `{correct,
//! attempted, failed, metrics}`, a result file with the host facts lands
//! under `<out>/results`, and a failed correctness check makes the exit
//! code non-zero.
//!
//! `serve-hot` starts its warm-up as a child process of this binary
//! (`--warm-up <dir>`), so the measured process holds none of it.

mod campaign;
mod serve_hot;
mod solve_sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const WORKLOADS: &[&str] = &["solve-sweep", "serve-hot", "campaign"];

/// A run's end, at the latest: past it the watchdog aborts the run.
const WATCHDOG: Duration = Duration::from_secs(170);

/// One run's parameters.
pub struct Ctx {
    pub spec: PathBuf,
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
    /// `serve-hot` only: run just the warm-up into this directory and
    /// exit (the measured run starts it as a child process).
    pub warm_up: Option<PathBuf>,
}

impl Ctx {
    /// Where the run's spans are written.
    pub fn spans_path(&self, tag: &str) -> PathBuf {
        self.out
            .join("spans")
            .join(format!("{}-seed{}-{tag}.jsonl", self.workload, self.seed))
    }
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
    errors: Vec<String>,
}

impl Outcome {
    /// Records a metric (its unit is the one `BENCHMARK.json` names).
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, error: String) {
        self.errors.push(error);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--out <dir>] [--spec <file>]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Ctx {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 12.0f64;
    let mut trace = false;
    let mut out = PathBuf::from("perfbench/out");
    let mut spec = PathBuf::from("BENCHMARK.json");
    let mut warm_up = None;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => trace = matches!(value.as_str(), "1" | "true"),
            "--out" => out = PathBuf::from(value),
            "--spec" => spec = PathBuf::from(value),
            "--warm-up" => warm_up = Some(PathBuf::from(value)),
            _ => usage(),
        }
        i += 2;
    }
    let workload = workload
        .filter(|w| WORKLOADS.contains(&w.as_str()))
        .unwrap_or_else(|| usage());
    if !(seconds > 0.0 && seconds <= 60.0) || (warm_up.is_some() && workload != "serve-hot") {
        usage();
    }
    Ctx {
        spec,
        workload,
        seed,
        seconds,
        trace,
        out,
        warm_up,
    }
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
type MetricList = Vec<(String, String)>;

/// The `(name, unit)` lists of a `BENCHMARK.json` section.
fn metric_list(spec: &serde::Value, section: &str) -> Result<MetricList, String> {
    let Ok(serde::Value::Seq(items)) = spec.field(section) else {
        return Err(format!("no `{section}` list"));
    };
    items
        .iter()
        .map(|item| match (item.field("name"), item.field("unit")) {
            (Ok(serde::Value::Str(n)), Ok(serde::Value::Str(u))) => Ok((n.clone(), u.clone())),
            _ => Err(format!("a `{section}` entry lacks a name or unit")),
        })
        .collect()
}

fn load_spec(path: &std::path::Path) -> Result<(MetricList, MetricList), String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let spec: serde::Value =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    Ok((
        metric_list(&spec, "end_to_end")?,
        metric_list(&spec, "per_layer")?,
    ))
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("encode JSON string")
}

fn main() {
    let ctx = parse_args();
    let (end_to_end, per_layer) = load_spec(&ctx.spec).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let started = Instant::now();
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: run exceeded {} s; aborting", WATCHDOG.as_secs());
        std::process::exit(3);
    });
    if let Some(dir) = &ctx.warm_up {
        let outcome = serve_hot::warm_up(&ctx, dir);
        for e in &outcome.errors {
            eprintln!("perfbench: warm-up: {e}");
        }
        std::process::exit(i32::from(!outcome.errors.is_empty()));
    }
    let host = util::Host::probe();

    let mut outcome = match ctx.workload.as_str() {
        "solve-sweep" => solve_sweep::run(&ctx),
        "serve-hot" => serve_hot::run(&ctx),
        "campaign" => campaign::run(&ctx),
        _ => unreachable!("workload validated by parse_args"),
    };
    if !ctx.trace {
        outcome.metric("peak_rss_mb", util::peak_rss_mb());
    }
    let failed_share = outcome.failed as f64 / outcome.attempted.max(1) as f64;

    let wanted = if ctx.trace { &per_layer } else { &end_to_end };
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    let unlisted: Vec<String> = outcome
        .metrics
        .keys()
        .filter(|name| !end_to_end.iter().chain(&per_layer).any(|(n, _)| n == *name))
        .cloned()
        .collect();
    for name in unlisted {
        outcome.fail(format!(
            "metric {name} is not listed in {}",
            ctx.spec.display()
        ));
    }
    for (name, unit) in wanted {
        let (name, unit) = (name.as_str(), unit.as_str());
        let value = outcome.metrics.get(name).copied();
        match value {
            Some(v) if v.is_finite() => metrics.push((name, unit, v)),
            // A layer this workload does not exercise reads 0.
            None if ctx.trace => metrics.push((name, unit, 0.0)),
            _ => {
                outcome.fail(format!("metric {name} was not measured or is not finite"));
                metrics.push((name, unit, 0.0));
            }
        }
    }
    if !ctx.trace {
        for &(name, _, v) in &metrics {
            if v <= 0.0 {
                outcome.fail(format!(
                    "end-to-end metric {name} read {v}, not a positive value"
                ));
            }
        }
    }
    let correct = outcome.errors.is_empty();

    println!(
        "workload {} | seed {} | seconds {} | trace {} | host: {} cores, {} | commit {}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        host.parallelism,
        host.cpu_model,
        host.commit
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for &(name, unit, v) in &metrics {
        println!("  {name:<28} {v:>14.4} {unit}");
    }
    println!(
        "  failed_share                 {:>14.4} ratio ({} failed of {} attempted)",
        failed_share, outcome.failed, outcome.attempted
    );
    for e in &outcome.errors {
        println!("  CHECK FAILED: {e}");
    }
    println!("  wall {:.3} s", started.elapsed().as_secs_f64());

    let metrics_json: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}:{{\"value\":{v},\"unit\":{}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics_json.join(",")
    );

    let record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"available_parallelism\":{},\"cpu_model\":{},\"commit\":{}}},\"failed_share\":{},\"notes\":[{}],\"errors\":[{}],\"result\":{result}}}\n",
        json_str(&ctx.workload),
        ctx.seed,
        ctx.seconds,
        ctx.trace,
        host.parallelism,
        json_str(&host.cpu_model),
        json_str(&host.commit),
        failed_share,
        outcome.notes.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(","),
        outcome.errors.iter().map(|n| json_str(n)).collect::<Vec<_>>().join(","),
    );
    let results = ctx.out.join("results");
    let path = results.join(format!(
        "{}-seed{}-trace{}.json",
        ctx.workload,
        ctx.seed,
        u8::from(ctx.trace)
    ));
    if let Err(e) = std::fs::create_dir_all(&results).and_then(|()| std::fs::write(&path, record)) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }

    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
