//! `rrr-perf`: the end-to-end benchmark. MRT bytes in, published
//! snapshots and answered queries out, through the real `rrr_serve`
//! daemon; four workloads, nine end-to-end metrics, a per-layer trace.
//! See this crate's README for the definitions and how to run each mode.

mod defs;
mod feeds;
mod gate;
mod inputs;
mod load;
mod measure;
mod procfs;
mod report;
mod run;
mod scratch;
mod stats;
mod trace;

use inputs::{Inputs, Kind, Sizes};
use load::Schedule;
use measure::WorkloadResult;
use report::Receipt;
use scratch::Scratch;
use std::process::ExitCode;
use std::time::Instant;

/// Seconds each workload's timed section runs unless `--seconds` says
/// otherwise; `BENCHMARK.json` passes the same value.
const DEFAULT_SECONDS: f64 = 26.0;

/// Blocks of twenty queries in the schedule (cycled past that).
const SCHEDULE_BLOCKS: usize = 512;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    check_repeat: bool,
    /// Test hook: flips one bit of the reference digest so the gate must
    /// fail. Proves a wrong answer cannot print numbers.
    corrupt_reference: bool,
}

const USAGE: &str = "usage: rrr-perf [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] \
                     [--quick] [--check-repeat] [--corrupt-reference]
  --workload NAME   run one of replay_dense, replay_sparse_durable, replay_mixed_2feed,
                    live_paced_tcp and end with one JSON result line (default: all four)
  --seed N          seed every input and the query schedule derive from (default 1)
  --seconds S       length of each workload's timed section (default 26)
  --trace [0|1]     1: the separate traced run that yields the per-layer metrics
  --quick           small scales, one repeat, every metric checked present (CI smoke)
  --check-repeat    measure every workload twice (A then B) and compare against the bounds";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        check_repeat: false,
        corrupt_reference: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload =
                    Some(Kind::by_name(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("--seed")?.parse().map_err(|_| "--seed takes a number")?;
            }
            "--seconds" => {
                args.seconds =
                    value("--seconds")?.parse().map_err(|_| "--seconds takes a number")?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                // `--trace` alone means on; the driver passes `--trace 0|1`.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => args.quick = true,
            "--check-repeat" => args.check_repeat = true,
            "--corrupt-reference" => args.corrupt_reference = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Generates one workload's inputs and query schedule.
fn prepare(
    kind: Kind,
    args: &Args,
    sizes: &Sizes,
    scratch: &Scratch,
) -> Result<(Inputs, Schedule), String> {
    let inputs = Inputs::generate(kind, args.seed, sizes, scratch.path())?;
    let schedule = Schedule::new(args.seed, &inputs.keys, SCHEDULE_BLOCKS)?;
    println!(
        "== {} seed {}: {} windows, {} updates + {} public traceroutes, MRT {} bytes, gen_s {:.3}",
        kind.name(),
        args.seed,
        inputs.windows,
        inputs.updates,
        inputs.public_items,
        inputs.mrt_bytes,
        inputs.gen_s
    );
    Ok((inputs, schedule))
}

fn measure_untraced(
    inputs: &mut Inputs,
    schedule: &Schedule,
    args: &Args,
    sizes: &Sizes,
    scratch: &Scratch,
) -> Result<WorkloadResult, String> {
    // The quick smoke makes its one repeat and stops.
    let seconds = if sizes.quick { 0.0 } else { args.seconds };
    let result = measure::measure(
        inputs,
        schedule,
        scratch.path(),
        seconds,
        sizes.min_repeats,
        args.corrupt_reference,
    )?;
    report::print_end_to_end(&result);
    Ok(result)
}

fn run(args: &Args, receipt: &mut Receipt) -> Result<(), String> {
    let sizes = if args.quick { Sizes::quick() } else { Sizes::standard() };
    let root = scratch::root();
    let scratch = Scratch::create(&root, &std::process::id().to_string())?;
    let kinds: Vec<Kind> = args.workload.map_or_else(|| Kind::ALL.to_vec(), |k| vec![k]);
    let mut last_line = None;
    for kind in kinds {
        let (mut inputs, schedule) = prepare(kind, args, &sizes, &scratch)?;
        receipt.workload(&inputs);
        if args.check_repeat {
            let a = measure_untraced(&mut inputs, &schedule, args, &sizes, &scratch)?;
            let b = measure_untraced(&mut inputs, &schedule, args, &sizes, &scratch)?;
            receipt.end_to_end(kind, &a);
            report::check_repeat(kind, &a, &b, receipt);
            continue;
        }
        // `--quick` smokes both halves; otherwise `--trace` picks one.
        if !args.trace || args.quick {
            let result = measure_untraced(&mut inputs, &schedule, args, &sizes, &scratch)?;
            receipt.end_to_end(kind, &result);
            if args.quick {
                report::require_all_end_to_end(kind, &result)?;
            }
            last_line = Some(report::result_line_end_to_end(&result));
        }
        if args.trace || args.quick {
            let traced = trace::traced_run(&mut inputs, &schedule, scratch.path(), &root)?;
            report::print_per_layer(&traced);
            receipt.per_layer(&traced);
            if args.quick {
                report::require_all_per_layer(kind, &traced)?;
            }
            last_line = Some(report::result_line_per_layer(&traced));
        }
    }
    if receipt.repeat_failures > 0 {
        return Err(format!(
            "--check-repeat: {} metric/workload pairs outside their bound",
            receipt.repeat_failures
        ));
    }
    // The driver reads the last line of standard output.
    if let (Some(line), Some(_)) = (last_line, args.workload) {
        println!("{line}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("error: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    let mut receipt = Receipt::new(args.seed, args.seconds, args.quick, args.trace);
    let outcome = run(&args, &mut receipt);
    receipt.finish(started.elapsed().as_secs_f64(), outcome.as_ref().err());
    if let Err(e) = receipt.write(&scratch::root()) {
        eprintln!("warning: run receipt not written: {e}");
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("FAIL: {e}");
            ExitCode::FAILURE
        }
    }
}
