//! Fig. 16 (and 22): cloud gaming.

use wheels_apps::gaming::GamingStats;
use wheels_core::records::TestKind;
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::pearson;
#[cfg(test)]
use wheels_sim_core::stats::Cdf;

use crate::fmt;
use crate::world::World;

/// All driving gaming runs for one operator.
pub fn runs(world: &World, op: Operator) -> Vec<GamingStats> {
    world
        .view()
        .apps()
        .filter(|a| a.operator == op && a.kind == TestKind::Gaming && a.driving)
        .filter_map(|a| a.gaming)
        .collect()
}

/// Best-static baseline (bitrate, latency, drop %).
pub fn best_static() -> (f64, f64, f64) {
    use wheels_apps::link::{ConstantLink, LinkState};
    let mut link = ConstantLink(LinkState::best_static());
    let s =
        wheels_apps::gaming::GamingRun::execute(&mut link, wheels_sim_core::time::SimTime::EPOCH);
    (
        s.median_bitrate().unwrap_or(0.0),
        s.median_latency().unwrap_or(0.0),
        s.drop_rate_pct(),
    )
}

fn render_op(world: &World, op: Operator) -> String {
    let rs = runs(world, op);
    if rs.is_empty() {
        return "  (no runs)\n".into();
    }
    let bitrates: Vec<f64> = rs.iter().filter_map(|s| s.median_bitrate()).collect();
    let latencies: Vec<f64> = rs.iter().filter_map(|s| s.median_latency()).collect();
    let drops: Vec<f64> = rs.iter().map(|s| s.drop_rate_pct()).collect();
    let mut out = String::new();
    out.push_str(&format!("  bitrate Mbps : {}\n", fmt::cdf_line(bitrates)));
    out.push_str(&format!("  latency ms   : {}\n", fmt::cdf_line(latencies)));
    out.push_str(&format!(
        "  frame drop % : {}\n",
        fmt::cdf_line(drops.iter().copied())
    ));
    let (h, d): (Vec<f64>, Vec<f64>) = rs
        .iter()
        .map(|s| (s.high_speed_5g_fraction, s.drop_rate_pct()))
        .unzip();
    out.push_str(&format!(
        "  corr(hs5G%, drop%) = {}\n",
        fmt::num(pearson(&h, &d))
    ));
    let (hos, d2): (Vec<f64>, Vec<f64>) = rs
        .iter()
        .map(|s| (s.handovers as f64, s.drop_rate_pct()))
        .unzip();
    out.push_str(&format!(
        "  corr(#HO, drop%)   = {}\n",
        fmt::num(pearson(&hos, &d2))
    ));
    out
}

/// Render Fig. 16 (Verizon).
pub fn run(world: &World) -> String {
    let (b, l, d) = best_static();
    format!(
        "Fig. 16 — cloud gaming (Verizon)\n  best static: bitrate {b:.1} Mbps, latency {l:.1} ms, drops {d:.2}%\n{}",
        render_op(world, Operator::Verizon)
    )
}

/// Render Fig. 22 (all operators).
pub fn run_all_ops(world: &World) -> String {
    let mut out = String::from("Fig. 22 — cloud gaming across operators\n");
    for op in Operator::ALL {
        out.push_str(&format!("{}:\n{}", op.label(), render_op(world, op)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driving_bitrate_well_below_static() {
        // Fig. 16a: driving median ~17.5 Mbps vs static 98.5.
        let w = World::quick();
        let (stat_b, _, _) = best_static();
        assert!(stat_b > 80.0, "static bitrate {stat_b}");
        let rs = runs(w, Operator::Verizon);
        assert!(rs.len() >= 5);
        let med = Cdf::from_samples(rs.iter().filter_map(|s| s.median_bitrate()))
            .median()
            .unwrap();
        assert!(med < stat_b * 0.6, "driving {med} vs static {stat_b}");
    }

    #[test]
    fn drop_rate_typically_low() {
        // Fig. 16: drops protected by frame-rate adaptation (median ~1.6%).
        let w = World::quick();
        let mut drops = Vec::new();
        for op in Operator::ALL {
            drops.extend(runs(w, op).iter().map(|s| s.drop_rate_pct()));
        }
        let med = Cdf::from_samples(drops.iter().copied()).median().unwrap();
        assert!(med < 20.0, "median drop rate {med}");
    }

    #[test]
    fn latency_exceeds_best_static() {
        let w = World::quick();
        let (_, stat_l, _) = best_static();
        let rs = runs(w, Operator::Verizon);
        let med = Cdf::from_samples(rs.iter().filter_map(|s| s.median_latency()))
            .median()
            .unwrap();
        assert!(med > stat_l, "driving latency {med} vs static {stat_l}");
    }

    #[test]
    fn renders() {
        let w = World::quick();
        assert!(run(w).contains("best static"));
        assert!(run_all_ops(w).contains("T-Mobile"));
    }
}
