//! Run one benchmark workload and print its result line.
//!
//! ```text
//! wheels-perfbench --workload <standard|quick> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Exit codes: 0 with a result line; 1 when an output check failed (the
//! line then reads `"correct": false`); 2 on bad arguments, a stalled
//! step or an error from the program, without a result line.

use std::path::PathBuf;
use std::process::ExitCode;

use wheels_perfbench::checks::Failure;
use wheels_perfbench::pipeline::{self, Config, WORKLOADS};
use wheels_perfbench::scratch::WORK_ROOT;
use wheels_perfbench::{reported, result_line, trace};

/// Where traced runs write their spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2022,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\nusage: wheels-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>", WORKLOADS.join("|"));
            return ExitCode::from(2);
        }
    };
    let cfg = Config::workload(
        &args.workload,
        args.seed,
        args.seconds,
        PathBuf::from(WORK_ROOT),
    )
    .expect("workload name was validated");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!(
        "wheels-perfbench: workload {} seed {} steady {}s trace {} on {cores} cores",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = pipeline::run(&cfg, args.trace).and_then(|rep| {
        let metrics = reported(&rep, args.trace)?.clone();
        Ok((rep, metrics))
    });
    match outcome {
        Ok((rep, metrics)) => {
            if args.trace {
                let path = PathBuf::from(TRACE_DIR)
                    .join(format!("{}-seed{}.json", args.workload, args.seed));
                let written = std::fs::create_dir_all(TRACE_DIR)
                    .and_then(|()| std::fs::write(&path, trace::to_json(&rep.spans)));
                if let Err(e) = written {
                    eprintln!("step trace.write failed: {e}");
                    return ExitCode::from(2);
                }
                eprintln!("{} spans written to {}", rep.spans.len(), path.display());
            }
            for (name, value, unit) in &metrics.0 {
                eprintln!("  {name:<36} {value:>14.4} {unit}");
            }
            println!("{}", result_line(true, rep.attempted, rep.failed, &metrics));
            ExitCode::SUCCESS
        }
        Err(e @ Failure::Check { .. }) => {
            eprintln!("{e}");
            println!("{}", result_line(false, 1, 1, &Default::default()));
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
