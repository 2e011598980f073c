//! Table 1: driving dataset statistics.
//!
//! The paper's "# of handovers" row comes from the three *passive*
//! handover-logger phones (ICMP-only, mostly on large LTE cells — few
//! handovers), not from the backlogged test phones (dense 5G layers —
//! many). We estimate the passive count by running the logger over a
//! subsample of the trip and scaling up.

use wheels_ran::operator::Operator;
use wheels_sim_core::rng::SimRng;
use wheels_ue::hologger::HandoverLogger;

use crate::fmt;
use crate::targets;
use crate::world::World;

/// Estimate the trip-total passive handovers for one operator by sampling
/// `chunk`-second windows every `stride` seconds.
pub fn passive_handover_estimate(world: &World, op: Operator) -> usize {
    let trace = &world.campaign.trace;
    let dep = world.campaign.deployment(op);
    let n = trace.samples().len();
    let chunk = 120;
    let stride = 2400;
    let mut events = 0usize;
    let mut sampled = 0usize;
    let mut start = 0;
    while start + chunk < n {
        let (_, ev) = HandoverLogger::run_with_events(
            dep,
            trace,
            start,
            start + chunk,
            SimRng::seed(7).split(&format!("t1/{}/{start}", op.label())),
        );
        events += ev.len();
        sampled += chunk;
        start += stride;
    }
    if sampled == 0 {
        return 0;
    }
    events * n / sampled
}

/// Regenerate Table 1 next to the paper's numbers.
pub fn run(world: &World) -> String {
    let view = world.view();
    let cols = view.columns();
    let trace = &world.campaign.trace;

    let cells = |op: Operator| {
        view.unique_cells()
            .find(|(o, _)| *o == op)
            .map_or(0, |(_, n)| n)
    };
    let hos = |op: Operator| passive_handover_estimate(world, op);
    let runtime = |op: Operator| {
        view.runtime_min()
            .find(|(o, _)| *o == op)
            .map_or(0.0, |(_, m)| m)
    };

    let rows = vec![
        vec![
            "Total distance (km)".into(),
            format!("{:.0}", trace.total_distance().as_km()),
            format!("{:.0}", targets::table1::DISTANCE_KM),
        ],
        vec![
            "Unique cells (V/T/A)".into(),
            format!(
                "{}/{}/{}",
                cells(Operator::Verizon),
                cells(Operator::TMobile),
                cells(Operator::Att)
            ),
            format!(
                "{}/{}/{}",
                targets::table1::UNIQUE_CELLS[0],
                targets::table1::UNIQUE_CELLS[1],
                targets::table1::UNIQUE_CELLS[2]
            ),
        ],
        vec![
            "Handovers, passive loggers (V/T/A)".into(),
            format!(
                "{}/{}/{}",
                hos(Operator::Verizon),
                hos(Operator::TMobile),
                hos(Operator::Att)
            ),
            format!(
                "{}/{}/{}",
                targets::table1::HANDOVERS[0],
                targets::table1::HANDOVERS[1],
                targets::table1::HANDOVERS[2]
            ),
        ],
        vec![
            "Data received (GB)".into(),
            format!("{:.1}", cols.rx_bytes / 1e9),
            format!("{:.0}+", targets::table1::RX_GB),
        ],
        vec![
            "Data transmitted (GB)".into(),
            format!("{:.1}", cols.tx_bytes / 1e9),
            format!("{:.0}+", targets::table1::TX_GB),
        ],
        vec![
            "Log size (GB)".into(),
            format!("{:.1}", cols.log_bytes / 1e9),
            format!("{:.0}+", targets::table1::LOG_GB),
        ],
        vec![
            "Runtime (min, V/T/A)".into(),
            format!(
                "{:.0}/{:.0}/{:.0}",
                runtime(Operator::Verizon),
                runtime(Operator::TMobile),
                runtime(Operator::Att)
            ),
            format!(
                "{:.0}/{:.0}/{:.0}",
                targets::table1::RUNTIME_MIN[0],
                targets::table1::RUNTIME_MIN[1],
                targets::table1::RUNTIME_MIN[2]
            ),
        ],
    ];
    format!(
        "Table 1 — driving dataset statistics (scale: {:?})\n{}",
        world.scale,
        fmt::table(&["statistic", "measured", "paper"], &rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_renders_and_distance_matches() {
        let w = World::quick();
        let out = run(w);
        assert!(out.contains("Total distance"));
        assert!(out.contains("5711"), "distance row missing:\n{out}");
        assert!(out.contains("Handovers"));
    }

    #[test]
    fn trip_distance_within_one_percent_of_paper() {
        let w = World::quick();
        let km = w.campaign.trace.total_distance().as_km();
        assert!((km - targets::table1::DISTANCE_KM).abs() / targets::table1::DISTANCE_KM < 0.01);
    }
}
