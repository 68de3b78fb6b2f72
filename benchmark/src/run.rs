//! The command's modes: one run of one workload (what the driver
//! calls), every workload in child processes, and the smoke check.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::{json, Value};

use crate::ladder::Ladder;
use crate::loads::{Bigfile, Kv, Load, Office};
use crate::measure::{measure, run_timed};
use crate::report::{
    end_to_end, metrics_json, per_layer, step_p99_us, windows_of, LayerInputs, Metric,
};
use crate::session::{Budget, Session};
use crate::stack::{fs_type_of, PlainDev};
use crate::workloads::{spec, Spec, WORKLOADS};

/// Share of the run's budget the traced run spends on its untraced part
/// (the counters), leaving the rest of the time for the ladder.
const TRACE_COUNTER_SHARE: f64 = 0.35;
/// Side rates of `office_rate`'s traced run, steps/s, and how long each
/// is held.
const SIDE_RATES: [f64; 2] = [5_000.0, 20_000.0];
const SIDE_RATE_SECONDS: f64 = 1.5;
/// `kv_clean` is only meaningful once cleaning has levelled: the write
/// costs of the two halves of the timed part may differ by this much.
const LEVEL_TOLERANCE: f64 = 0.10;

/// Arguments of one run.
#[derive(Clone, Debug)]
pub struct RunArgs {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Length of the timed part.
    pub budget: Budget,
    /// `false`: measured run, end-to-end metrics. `true`: traced run,
    /// per-layer metrics.
    pub trace: bool,
    /// Where scratch images go.
    pub image_dir: PathBuf,
    /// Where `trace.jsonl` and result files go.
    pub results_dir: PathBuf,
    /// Shrunk data sets and a single set-up (see [`smoke`]).
    pub smoke: bool,
}

/// What one run produced.
pub struct Outcome {
    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub line: Value,
    /// Extra detail for the result file (windows, sample counts, host).
    pub detail: Value,
    /// The metrics, for printing.
    pub metrics: Vec<Metric>,
    /// Every answer was right.
    pub correct: bool,
}

/// Runs one workload once.
pub fn run_one(args: &RunArgs) -> Result<Outcome, String> {
    let spec = spec(&args.workload, args.smoke).ok_or_else(|| {
        format!(
            "unknown workload {:?} (expected one of {WORKLOADS:?})",
            args.workload
        )
    })?;
    match spec.name {
        "kv_clean" => run_with::<Kv>(&spec, args),
        "bigfile" => run_with::<Bigfile>(&spec, args),
        _ => run_with::<Office>(&spec, args),
    }
}

fn run_with<L: Load>(spec: &Spec, args: &RunArgs) -> Result<Outcome, String> {
    let dir = args.image_dir.as_path();
    let (m, traced) = if args.trace {
        let budget = match args.budget {
            Budget::Seconds(s) => Budget::Seconds((s * TRACE_COUNTER_SHARE).max(1.0)),
            steps => steps,
        };
        let mut m = measure::<L>(spec, args.seed, budget, false, spec.clients == 1, dir)?;
        let mut rate_p99_us = [0.0; 2];
        if spec.open_rate.is_some() {
            for (out, rate) in rate_p99_us.iter_mut().zip(SIDE_RATES) {
                *out = side_rate::<L>(spec, args, rate)?;
            }
        }
        // With one client the untraced part above already made the calls
        // the ladder's top rung replays.
        let untraced_top = (spec.clients == 1).then(|| std::mem::take(&mut m.part.rec.spans));
        let ladder = Ladder::run::<L>(spec, args.seed, dir, untraced_top)?;
        ladder
            .write_trace(&args.results_dir.join("trace.jsonl"))
            .map_err(|e| format!("write trace: {e}"))?;
        (m, Some((ladder, rate_p99_us)))
    } else {
        let m = measure::<L>(spec, args.seed, args.budget, !args.smoke, false, dir)?;
        (m, None)
    };
    let wins = windows_of(&m);
    let metrics = match &traced {
        Some((ladder, rate_p99_us)) => {
            let inputs = LayerInputs {
                ladder,
                rate_p99_us: *rate_p99_us,
            };
            per_layer(&m, &wins, &inputs)
        }
        None => end_to_end(&m, &wins),
    };
    let correct = m.failed == 0 && m.remount.is_none_or(|r| r.check_ok);
    Ok(Outcome {
        line: json!({
            "correct": correct,
            "attempted": m.attempted.max(1),
            "failed": m.failed,
            "metrics": metrics_json(&metrics),
        }),
        detail: json!({
            "windows_ops_per_s": wins.rates(),
            "samples": wins.sample_counts(),
            "calls": m.part.rec.calls,
            "setup_s": m.setup_s.clone(),
            "image_fs": fs_type_of(dir),
            "nproc": std::thread::available_parallelism().map_or(0, |n| n.get()),
        }),
        metrics,
        correct,
    })
}

/// Step p99 of a short open-loop run at another rate.
fn side_rate<L: Load>(spec: &Spec, args: &RunArgs, rate: f64) -> Result<f64, String> {
    let mut session =
        Session::<PlainDev, L>::setup(spec, spec.top, spec.clients, args.seed, &args.image_dir)?;
    let budget = match args.budget {
        Budget::Seconds(_) => Budget::Seconds(SIDE_RATE_SECONDS),
        steps => steps,
    };
    let part = run_timed(&mut session, budget, Some(rate), None, false);
    match part.step_error {
        Some(e) => Err(format!("side rate {rate}: a step failed: {e}")),
        None => Ok(step_p99_us(&part.steps)),
    }
}

/// Prints `metrics` one per line, by name, with units.
pub fn print_metrics(workload: &str, metrics: &[Metric]) {
    for m in metrics {
        println!("{workload:<12} {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Arguments of the all-workloads mode.
pub struct AllArgs {
    /// Seed of every run.
    pub seed: u64,
    /// Timed seconds of every run.
    pub seconds: f64,
    /// Full passes over the workloads.
    pub runs: usize,
    /// Result file.
    pub out: PathBuf,
    /// Add the runs to those already in the result file (for collecting
    /// two sets alternately) instead of replacing it.
    pub append: bool,
    /// Scratch image directory.
    pub image_dir: PathBuf,
    /// Directory of `trace.jsonl`.
    pub results_dir: PathBuf,
}

/// Runs this executable as a child for one workload, passes on the
/// metrics it prints and parses its last two lines (`detail: {...}` and
/// the result line).
fn child_run(workload: &str, trace: bool, a: &AllArgs) -> Result<(Value, Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &a.seed.to_string()])
        .args(["--seconds", &a.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--image-dir")
        .arg(&a.image_dir)
        .arg("--results-dir")
        .arg(&a.results_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let line = lines.next().unwrap_or_default();
    let detail = lines
        .next()
        .and_then(|l| l.strip_prefix("detail: "))
        .unwrap_or("{}");
    println!(
        "# {workload}: {}",
        if trace { "per layer" } else { "end to end" }
    );
    for printed in lines.rev() {
        println!("{printed}");
    }
    if !out.status.success() && serde_json::from_str(line).is_err() {
        return Err(format!("{workload}: child failed ({})", out.status));
    }
    let line =
        serde_json::from_str(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let detail =
        serde_json::from_str(detail).map_err(|e| format!("{workload}: bad detail: {e}"))?;
    Ok((line, detail))
}

fn get_metric(line: &Value, name: &str) -> f64 {
    line.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Every workload, measured then traced, each in its own child process
/// (so `peak_rss_mb` is per workload); prints every metric and writes
/// the result file. Fails when any answer was wrong or `kv_clean` had
/// not levelled.
pub fn run_all(a: &AllArgs) -> Result<(), String> {
    let mut runs = Vec::new();
    if a.append && a.out.exists() {
        let text =
            std::fs::read_to_string(&a.out).map_err(|e| format!("{}: {e}", a.out.display()))?;
        let old = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", a.out.display()))?;
        runs.extend(
            old.get("runs")
                .and_then(Value::as_array)
                .cloned()
                .unwrap_or_default(),
        );
    }
    let mut problems = Vec::new();
    for run in 0..a.runs {
        let mut per_workload = Vec::new();
        for w in WORKLOADS {
            let (e2e, detail) = child_run(w, false, a)?;
            let (layers, _) = child_run(w, true, a)?;
            for (line, kind) in [(&e2e, "end-to-end"), (&layers, "per-layer")] {
                if line.get("correct") != Some(&Value::Bool(true)) {
                    problems.push(format!("run {run}: {w}: {kind} run reported wrong answers"));
                }
            }
            if w == "kv_clean" {
                let (first, second) = (
                    get_metric(&layers, "core.write_cost_first_half"),
                    get_metric(&layers, "core.write_cost_second_half"),
                );
                if (first - second).abs() > LEVEL_TOLERANCE * first.min(second) {
                    problems.push(format!(
                        "run {run}: kv_clean: write cost has not levelled ({first:.3} then {second:.3})"
                    ));
                }
            }
            let field = |line: &Value, key: &str| line.get(key).cloned().unwrap_or(Value::Null);
            per_workload.push((
                w.to_string(),
                json!({
                    "correct": field(&e2e, "correct"),
                    "attempted": field(&e2e, "attempted"),
                    "failed": field(&e2e, "failed"),
                    "end_to_end": field(&e2e, "metrics"),
                    "per_layer": field(&layers, "metrics"),
                    "detail": detail,
                }),
            ));
        }
        runs.push(json!({
            "seed": a.seed,
            "seconds": a.seconds,
            "workloads": Value::Object(per_workload),
        }));
    }
    if let Some(dir) = a.out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&a.out, format!("{}\n", json!({ "runs": runs })))
        .map_err(|e| format!("{}: {e}", a.out.display()))?;
    println!("# wrote {}", a.out.display());
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// Names (with units) a section of `BENCHMARK.json` declares.
fn declared(bench: &Value, section: &str) -> Vec<(String, String)> {
    let items = bench.get(section).and_then(Value::as_array);
    items
        .into_iter()
        .flatten()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("unit")?.as_str()?.to_string(),
            ))
        })
        .collect()
}

/// Checks one smoke run's metrics against the names `BENCHMARK.json`
/// declares; returns what is wrong.
fn check_names(workload: &str, declared: &[(String, String)], got: &[Metric]) -> Vec<String> {
    let mut bad = Vec::new();
    let ok_name = |n: &str| {
        !n.is_empty()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    for (name, unit) in declared {
        match got.iter().find(|m| m.name == name) {
            None => bad.push(format!(
                "{workload}: declared metric {name} was not emitted"
            )),
            Some(m) if m.unit != unit => bad.push(format!(
                "{workload}: {name} has unit {:?}, declared {unit:?}",
                m.unit
            )),
            Some(m) if !m.value.is_finite() => {
                bad.push(format!("{workload}: {name} is not finite"))
            }
            Some(_) => {}
        }
    }
    for m in got {
        if !ok_name(m.name) {
            bad.push(format!("{workload}: bad metric name {:?}", m.name));
        }
        if !declared.iter().any(|(n, _)| n == m.name) {
            bad.push(format!(
                "{workload}: emitted metric {} is not declared",
                m.name
            ));
        }
    }
    bad
}

/// A few seconds in all: every workload, measured and traced, for a
/// fixed small number of steps. Every declared name must be emitted,
/// finite, unit-tagged and well-formed, every answer right, and the
/// single-client workloads' counts identical across two runs.
pub fn smoke(bench_json: &Path, image_dir: &Path, results_dir: &Path) -> Result<(), String> {
    let text = std::fs::read_to_string(bench_json)
        .map_err(|e| format!("{}: {e}", bench_json.display()))?;
    let bench =
        serde_json::from_str(&text).map_err(|e| format!("{}: {e}", bench_json.display()))?;
    let mut bad = Vec::new();
    for w in WORKLOADS {
        let spec = spec(w, true).expect("listed workload");
        let args = |trace| RunArgs {
            workload: w.to_string(),
            seed: 12,
            budget: Budget::Steps(if spec.window_steps == Some(1) { 1 } else { 512 }),
            trace,
            image_dir: image_dir.to_path_buf(),
            results_dir: results_dir.to_path_buf(),
            smoke: true,
        };
        let e2e = run_one(&args(false))?;
        let layers = run_one(&args(true))?;
        bad.extend(check_names(
            w,
            &declared(&bench, "end_to_end"),
            &e2e.metrics,
        ));
        bad.extend(check_names(
            w,
            &declared(&bench, "per_layer"),
            &layers.metrics,
        ));
        if !(e2e.correct && layers.correct) {
            bad.push(format!("{w}: wrong answers"));
        }
        if spec.clients == 1 {
            let again = run_one(&args(true))?;
            for (a, b) in layers.metrics.iter().zip(&again.metrics) {
                let timed = ["us", "ms"].contains(&a.unit)
                    || a.name.starts_with("trace.")
                    || a.name.starts_with("loadgen.");
                if !timed && a.value != b.value {
                    bad.push(format!(
                        "{w}: count {} differs between two runs: {} then {}",
                        a.name, a.value, b.value
                    ));
                }
            }
        }
        println!("smoke: {w} ok");
    }
    if bad.is_empty() {
        Ok(())
    } else {
        Err(bad.join("\n"))
    }
}
