//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [--quick|--standard|--full] [--seed N] [--threads N]
//!       [--merge-window N] [--faults]
//!       [--checkpoint DIR | --resume DIR] [--load FILE] [ids...]
//! repro --list
//! ```
//!
//! `--load FILE` skips the simulation and analyses an exported dataset
//! instead. The format is auto-detected: a WCD1 file (from
//! `dataset --format bin`) loads without a parse step — checksummed bulk
//! column copies — while anything else is read as the pinned JSON
//! interchange format.
//!
//! `--faults` injects the demo measurement-disruption mix (server
//! outages, app crashes, logger gaps, clock drift); the `quality`
//! experiment then reports retry/salvage/loss accounting. Off by
//! default, and the default dataset is unchanged by this feature.
//!
//! `--checkpoint DIR` journals each completed campaign shard to `DIR`;
//! a run killed mid-campaign restarts with `--resume DIR`, replaying the
//! journalled shards and re-simulating only the missing ones. The report
//! is byte-identical to an uninterrupted run.
//!
//! With no ids, every experiment runs. Experiments execute on a worker
//! pool (`--threads N`, default = host cores) with output buffered per
//! experiment and printed in registry order, so stdout is byte-identical
//! at any thread count. `--merge-window N` bounds the campaign merge to
//! at most N resident completed shards (the rest spill through the
//! checkpoint journal, or wait for their turn without one) — like
//! `--threads`, it never changes any output, only peak memory. Run in
//! release mode; `--full` is the paper's continuous protocol and takes
//! minutes.

use std::io::Write;

use wheels_core::analysis::view::DatasetView;
use wheels_core::disrupt::FaultConfig;
use wheels_experiments::world::{Scale, Tuning, World};
use wheels_experiments::{cli, registry, render_report, resolve};

/// Write report output to stdout, exiting 0 quietly on a broken pipe
/// (`repro ... | head` closing early is normal Unix usage, not an
/// error) and 1 with a diagnostic on any other write failure.
fn write_stdout_or_exit(bytes: &[u8]) {
    let mut out = std::io::stdout().lock();
    let done = out.write_all(bytes).and_then(|()| out.flush());
    if let Err(e) = done {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("cannot write report to stdout: {e}");
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--list") {
        let mut listing = String::new();
        for (id, desc, _) in registry() {
            listing.push_str(&format!("{id:<8} {desc}\n"));
        }
        write_stdout_or_exit(listing.as_bytes());
        return;
    }
    let args = cli::parse_args(Scale::Standard, argv).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let ids = if args.rest.is_empty() {
        registry().iter().map(|(id, _, _)| id.to_string()).collect()
    } else {
        args.rest.clone()
    };
    let exps = resolve(&ids).unwrap_or_else(|id| {
        eprintln!("unknown experiment id: {id} (try --list)");
        std::process::exit(2);
    });

    eprintln!(
        "building world at scale {:?} (seed {})...",
        args.scale, args.seed
    );
    let t0 = std::time::Instant::now();
    let faults = if args.faults {
        FaultConfig::demo()
    } else {
        FaultConfig::default()
    };
    let world = if let Some(path) = &args.load {
        let bytes = std::fs::read(path).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        });
        let (view, fmt) = DatasetView::load(&bytes).unwrap_or_else(|e| {
            eprintln!("cannot load {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("loaded {path} ({fmt} format, {} bytes)", bytes.len());
        Ok(World::from_view(args.scale, args.seed, view))
    } else {
        let tuning = Tuning {
            threads: args.threads,
            merge_window: args.merge_window,
        };
        match (&args.checkpoint, &args.resume) {
            (Some(dir), _) => World::build_checkpointed(
                args.scale,
                args.seed,
                tuning,
                faults,
                std::path::Path::new(dir),
                false,
            ),
            (_, Some(dir)) => World::build_checkpointed(
                args.scale,
                args.seed,
                tuning,
                faults,
                std::path::Path::new(dir),
                true,
            ),
            _ => Ok(World::build_tuned(args.scale, args.seed, tuning, faults)),
        }
    }
    .unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    let cols = world.view().columns();
    eprintln!(
        "world ready in {:.1}s: {} tput samples, {} rtt samples, {} app runs, {} handovers",
        t0.elapsed().as_secs_f64(),
        cols.tput.len(),
        cols.rtt.len(),
        cols.apps.len(),
        cols.handovers.len()
    );

    let report = render_report(&world, &exps, args.threads);
    write_stdout_or_exit(report.as_bytes());
}
