//! Command line of the benchmark; see `benchmark/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;

use lfs_benchmark::compare::compare;
use lfs_benchmark::run::{print_metrics, run_all, run_one, smoke, AllArgs, RunArgs};
use lfs_benchmark::session::Budget;

const USAGE: &str = "\
usage: run.sh --workload NAME --seed N --seconds S --trace 0|1   one run; last line is the result
       run.sh [--seed N] [--seconds S] [--runs K] [--out FILE [--append]]
                                                                 every workload, measured and traced
       run.sh --smoke                                            seconds-long self-check
       run.sh --compare A.json B.json                            compare two result files
options: --steps N (fixed step count instead of --seconds), --image-dir DIR, --results-dir DIR";

/// Seed and timed seconds of a plain `run.sh`; the committed baseline
/// was taken with them.
const DEFAULT_SEED: u64 = 12;
const DEFAULT_SECONDS: f64 = 10.0;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    steps: Option<u64>,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    append: bool,
    image_dir: PathBuf,
    results_dir: PathBuf,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        steps: None,
        trace: false,
        runs: 1,
        out: None,
        append: false,
        image_dir: PathBuf::from("benchmark/work"),
        results_dir: PathBuf::from("benchmark/results"),
        smoke: false,
        compare: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: String) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value {v:?}"))
        }
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = num(flag, value()?)?,
            "--seconds" => cli.seconds = num(flag, value()?)?,
            "--steps" => cli.steps = Some(num(flag, value()?)?),
            "--trace" => cli.trace = num::<u8>(flag, value()?)? != 0,
            "--runs" => cli.runs = num(flag, value()?)?,
            "--out" => cli.out = Some(value()?.into()),
            "--append" => cli.append = true,
            "--image-dir" => cli.image_dir = value()?.into(),
            "--results-dir" => cli.results_dir = value()?.into(),
            "--smoke" => cli.smoke = true,
            "--compare" => cli.compare = Some((value()?.into(), value()?.into())),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if !(cli.seconds.is_finite() && cli.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(cli)
}

fn run(cli: Cli) -> Result<bool, String> {
    let bench_json = PathBuf::from("BENCHMARK.json");
    if let Some((a, b)) = &cli.compare {
        compare(&bench_json, a, b)?;
        return Ok(true);
    }
    if cli.smoke {
        smoke(&bench_json, &cli.image_dir, &cli.results_dir)?;
        return Ok(true);
    }
    let Some(workload) = cli.workload else {
        let out = cli
            .out
            .unwrap_or_else(|| cli.results_dir.join("latest.json"));
        run_all(&AllArgs {
            seed: cli.seed,
            seconds: cli.seconds,
            runs: cli.runs,
            out,
            append: cli.append,
            image_dir: cli.image_dir,
            results_dir: cli.results_dir,
        })?;
        return Ok(true);
    };
    let outcome = run_one(&RunArgs {
        workload: workload.clone(),
        seed: cli.seed,
        budget: cli
            .steps
            .map_or(Budget::Seconds(cli.seconds), Budget::Steps),
        trace: cli.trace,
        image_dir: cli.image_dir,
        results_dir: cli.results_dir,
        smoke: false,
    })?;
    print_metrics(&workload, &outcome.metrics);
    println!("detail: {}", outcome.detail);
    println!("{}", outcome.line);
    Ok(outcome.correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: wrong answers (see the result line)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
