//! # wheels-bench
//!
//! The benchmark harness. The Criterion bench targets are:
//!
//! - `components` — microbenchmarks of the simulator's hot paths
//!   (channel sampling, CUBIC ticks, session polls, route queries).
//! - `ablations` — the DESIGN.md design-choice probes (upgrade policy,
//!   buffer sizing, BBA, CA, local tracking).
//!
//! The remaining targets (`campaign`, `analysis`, `storage`, `ingest`,
//! `serve`, `lint`, `stress`) each write a tracked `BENCH_*.json`
//! baseline at the repository root. The paper's tables and figures are
//! printed by the `repro` binary; their regeneration time is measured
//! per experiment by the `perfbench` package.
//!
//! `ablations` prints each probe's rows once (to stderr), so its output
//! doubles as a reproduction log.

#![forbid(unsafe_code)]

/// Print an experiment's output once per process (so Criterion's repeated
/// iterations don't spam).
pub fn print_once(id: &str, text: &str) {
    use std::collections::HashSet;
    use std::sync::Mutex;
    use std::sync::OnceLock;
    static PRINTED: OnceLock<Mutex<HashSet<String>>> = OnceLock::new();
    let set = PRINTED.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = set.lock().expect("dedup-print mutex poisoned");
    if set.insert(id.to_string()) {
        eprintln!("\n----- {id} -----\n{text}");
    }
}
