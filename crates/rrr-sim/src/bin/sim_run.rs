//! Executes a scenario corpus (or one scenario/artifact file) and reports
//! per-scenario pass/fail. Exits nonzero if any scenario fails; failing
//! fault plans are minimized and written as replayable artifacts.
//!
//! ```text
//! sim_run [--scenarios DIR] [--file PATH] [--only NAME]
//!         [--artifacts DIR] [--no-minimize] [--list]
//! sim_run --weather REGIME [--seed N] [--windows N] [--scale full|small]
//!         [--verify-repro]
//! ```
//!
//! The `--weather` mode streams a weather regime (see
//! [`rrr_sim::weather`]) through a fresh detector window by window on the
//! lazily materialized large world, prints the precision/coverage
//! trajectory table, and enforces the instrument's acceptance bar:
//! peak RSS under 8 GiB and a non-degenerate report.

use rrr_bench::weather::{Regime, WeatherScale};
use rrr_sim::{
    default_artifact_dir, load_corpus, load_scenario_or_artifact, run_weather, RunOptions,
    Scenario, WeatherSpec,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    scenarios_dir: PathBuf,
    file: Option<PathBuf>,
    only: Option<String>,
    artifacts: PathBuf,
    minimize: bool,
    list: bool,
    weather: Option<String>,
    seed: u64,
    windows: u64,
    scale_small: bool,
    verify_repro: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sim_run [--scenarios DIR] [--file PATH] [--only NAME]\n\
         \x20              [--artifacts DIR] [--no-minimize] [--list]\n\
         \x20      sim_run --weather REGIME [--seed N] [--windows N] [--scale full|small]\n\
         \x20              [--verify-repro]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        scenarios_dir: PathBuf::from("tests/scenarios"),
        file: None,
        only: None,
        artifacts: default_artifact_dir(),
        minimize: true,
        list: false,
        weather: None,
        seed: 1,
        windows: 520,
        scale_small: false,
        verify_repro: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        let number = |name: &str, v: String| -> u64 {
            v.parse().unwrap_or_else(|_| {
                eprintln!("{name} takes a number");
                usage()
            })
        };
        match flag.as_str() {
            "--scenarios" => args.scenarios_dir = PathBuf::from(value("--scenarios")),
            "--file" => args.file = Some(PathBuf::from(value("--file"))),
            "--only" => args.only = Some(value("--only")),
            "--artifacts" => args.artifacts = PathBuf::from(value("--artifacts")),
            "--no-minimize" => args.minimize = false,
            "--list" => args.list = true,
            "--weather" => args.weather = Some(value("--weather")),
            "--seed" => args.seed = number("--seed", value("--seed")),
            "--windows" => args.windows = number("--windows", value("--windows")),
            "--scale" => match value("--scale").as_str() {
                "full" => args.scale_small = false,
                "small" => args.scale_small = true,
                other => {
                    eprintln!("--scale must be `full` or `small`, got `{other}`");
                    usage()
                }
            },
            "--verify-repro" => args.verify_repro = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    args
}

/// Peak resident set size in bytes, from `/proc/self/status` (Linux).
/// `None` where the file doesn't exist — the RSS gate is then skipped
/// explicitly, never passed vacuously without saying so.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Peak-RSS ceiling for a full-scale weather run.
const RSS_LIMIT_BYTES: u64 = 8 << 30;

fn run_weather_mode(args: &Args, regime: &str) -> ExitCode {
    if Regime::by_name(regime).is_none() {
        eprintln!("error: unknown regime `{regime}` (families: {})", Regime::FAMILIES.join(", "));
        return ExitCode::from(2);
    }
    let spec = WeatherSpec { regime: regime.to_string(), seed: args.seed, windows: args.windows };
    let scale = if args.scale_small { WeatherScale::small() } else { WeatherScale::full() };
    println!(
        "weather regime={} seed={} windows={} scale={}x{} corpus={} vps={}",
        spec.regime, spec.seed, spec.windows, scale.ases, scale.prefixes, scale.corpus, scale.vps
    );
    let start = Instant::now();
    let (report, stats) = match run_weather(&spec, scale) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let secs = start.elapsed().as_secs_f64();

    println!();
    print!("{}", report.trajectory_table(16));
    println!();
    let (precision, coverage) = report.totals();
    let fmt = |v: Option<f64>| v.map_or("—".to_string(), |x| format!("{x:.3}"));
    println!(
        "totals: precision={} coverage={} updates={} signals={} chains={} digest={:016x} ({secs:.1}s)",
        fmt(precision),
        fmt(coverage),
        stats.updates_fed,
        stats.signals_emitted,
        stats.materialized_chains,
        report.digest
    );
    for t in &report.techniques {
        println!(
            "  {:<18} precision={} ({} of {} signals true)",
            t.technique.to_string(),
            fmt(t.precision()),
            t.signals_true,
            t.signals
        );
    }

    let mut ok = true;
    if args.verify_repro {
        match run_weather(&spec, scale) {
            Ok((again, _)) if again.digest == report.digest && again == report => {
                println!("repro:  second run matched bit for bit");
            }
            Ok((again, _)) => {
                eprintln!(
                    "FAIL: second run diverged (digest {:016x} vs {:016x})",
                    again.digest, report.digest
                );
                ok = false;
            }
            Err(e) => {
                eprintln!("FAIL: second run errored: {e}");
                ok = false;
            }
        }
    }
    match peak_rss_bytes() {
        Some(rss) => {
            let gib = rss as f64 / (1u64 << 30) as f64;
            if rss < RSS_LIMIT_BYTES {
                println!("rss:    peak {gib:.2} GiB (< 8 GiB)");
            } else {
                eprintln!("FAIL: peak RSS {gib:.2} GiB breaches the 8 GiB ceiling");
                ok = false;
            }
        }
        None => println!("rss:    /proc/self/status unavailable — RSS gate skipped"),
    }
    if report.non_degenerate() {
        println!("report: non-degenerate (mixed-precision and mixed-coverage windows exist)");
    } else {
        eprintln!(
            "FAIL: degenerate report — no window has precision and no window has coverage \
             strictly inside (0, 1)"
        );
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some(regime) = args.weather.clone() {
        return run_weather_mode(&args, &regime);
    }

    let scenarios: Vec<Scenario> = if let Some(file) = &args.file {
        match load_scenario_or_artifact(file) {
            Ok(sc) => vec![sc],
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        match load_corpus(&args.scenarios_dir) {
            Ok(corpus) => corpus,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    };

    let scenarios: Vec<Scenario> = match &args.only {
        Some(name) => scenarios.into_iter().filter(|s| s.name.contains(name.as_str())).collect(),
        None => scenarios,
    };
    if scenarios.is_empty() {
        eprintln!("error: no scenarios matched");
        return ExitCode::from(2);
    }

    if args.list {
        for sc in &scenarios {
            println!(
                "{:32} seed={:<6} {:?} rounds={:<3} faults={} oracles={}",
                sc.name,
                sc.seed,
                sc.world,
                sc.rounds,
                sc.faults.len(),
                sc.oracles.len()
            );
        }
        return ExitCode::SUCCESS;
    }

    let opts = RunOptions { artifact_dir: Some(args.artifacts.clone()), minimize: args.minimize };

    let mut failures = 0usize;
    let total = scenarios.len();
    for sc in &scenarios {
        let start = Instant::now();
        let outcome = rrr_sim::run_scenario(sc, &opts);
        let secs = start.elapsed().as_secs_f64();
        match &outcome.failure {
            None => println!("PASS {:32} ({secs:.1}s)", outcome.name),
            Some(f) => {
                failures += 1;
                println!("FAIL {:32} ({secs:.1}s)", outcome.name);
                println!("     oracle:  {}", f.oracle);
                println!("     seed:    {}", sc.seed);
                println!("     reason:  {}", f.message.replace('\n', "\n              "));
                if !f.minimized.is_empty() {
                    println!("     minimized fault plan:");
                    for fault in &f.minimized {
                        println!("       {fault:?}");
                    }
                }
                if let Some(path) = &f.artifact {
                    println!("     replay:  sim_run --file {}", path.display());
                }
            }
        }
    }
    println!("{}/{} scenarios passed", total - failures, total);
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
