//! Fig. 15 (and 21): 360° video streaming QoE.

use wheels_apps::video::VideoStats;
use wheels_core::records::TestKind;
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::pearson;
#[cfg(test)]
use wheels_sim_core::stats::Cdf;
use wheels_transport::servers::ServerKind;

use crate::fmt;
use crate::world::World;

/// All driving video runs for one operator.
pub fn runs(world: &World, op: Operator) -> Vec<(VideoStats, ServerKind)> {
    world
        .view()
        .apps()
        .filter(|a| a.operator == op && a.kind == TestKind::Video && a.driving)
        .filter_map(|a| Some((a.video?, a.server)))
        .collect()
}

/// Best-static baseline QoE.
pub fn best_static_qoe() -> f64 {
    use wheels_apps::link::{ConstantLink, LinkState};
    let mut link = ConstantLink(LinkState::best_static());
    wheels_apps::video::VideoRun::execute(&mut link, wheels_sim_core::time::SimTime::EPOCH)
        .avg_qoe()
}

fn render_op(world: &World, op: Operator) -> String {
    let rs = runs(world, op);
    if rs.is_empty() {
        return "  (no runs)\n".into();
    }
    let qoes: Vec<f64> = rs.iter().map(|(s, _)| s.avg_qoe()).collect();
    let rebuf: Vec<f64> = rs.iter().map(|(s, _)| s.rebuffer_pct()).collect();
    let rates: Vec<f64> = rs.iter().map(|(s, _)| s.avg_bitrate()).collect();
    let mut out = String::new();
    out.push_str(&format!(
        "  QoE/run      : {}\n",
        fmt::cdf_line(qoes.iter().copied())
    ));
    out.push_str(&format!("  rebuffer %   : {}\n", fmt::cdf_line(rebuf)));
    out.push_str(&format!("  bitrate Mbps : {}\n", fmt::cdf_line(rates)));
    let neg = qoes.iter().filter(|q| **q < 0.0).count() as f64 / qoes.len() as f64;
    out.push_str(&format!("  negative-QoE runs: {}\n", fmt::pct(neg * 100.0)));
    // Edge vs cloud.
    for server in [ServerKind::Edge, ServerKind::Cloud] {
        let sub: Vec<f64> = rs
            .iter()
            .filter(|(_, k)| *k == server)
            .map(|(s, _)| s.avg_qoe())
            .collect();
        if sub.len() >= 3 {
            out.push_str(&format!(
                "  {} QoE: {}\n",
                server.label(),
                fmt::cdf_line(sub)
            ));
        }
    }
    // High-speed-5G and handover relationships.
    let (h, q): (Vec<f64>, Vec<f64>) = rs
        .iter()
        .map(|(s, _)| (s.high_speed_5g_fraction, s.avg_qoe()))
        .unzip();
    out.push_str(&format!(
        "  corr(hs5G%, QoE) = {}\n",
        fmt::num(pearson(&h, &q))
    ));
    let (hos, q2): (Vec<f64>, Vec<f64>) = rs
        .iter()
        .map(|(s, _)| (s.handovers as f64, s.avg_qoe()))
        .unzip();
    out.push_str(&format!(
        "  corr(#HO, QoE)   = {}\n",
        fmt::num(pearson(&hos, &q2))
    ));
    out
}

/// Render Fig. 15 (Verizon).
pub fn run(world: &World) -> String {
    format!(
        "Fig. 15 — 360° video streaming (Verizon)\n  best static QoE: {:.2}\n{}",
        best_static_qoe(),
        render_op(world, Operator::Verizon)
    )
}

/// Render Fig. 21 (all operators).
pub fn run_all_ops(world: &World) -> String {
    let mut out = String::from("Fig. 21 — 360° video streaming across operators\n");
    for op in Operator::ALL {
        out.push_str(&format!("{}:\n{}", op.label(), render_op(world, op)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets;

    #[test]
    fn driving_qoe_far_below_static() {
        let w = World::quick();
        let stat = best_static_qoe();
        assert!(stat > 80.0, "static QoE {stat}");
        let rs = runs(w, Operator::Verizon);
        assert!(rs.len() >= 5, "runs {}", rs.len());
        let med = Cdf::from_samples(rs.iter().map(|(s, _)| s.avg_qoe()))
            .median()
            .unwrap();
        assert!(
            med < stat - 40.0,
            "driving median QoE {med} vs static {stat}"
        );
    }

    #[test]
    fn substantial_negative_qoe_fraction() {
        // Fig. 15a: ~40% of driving runs have negative QoE.
        let w = World::quick();
        let mut qoes = Vec::new();
        for op in Operator::ALL {
            qoes.extend(runs(w, op).iter().map(|(s, _)| s.avg_qoe()));
        }
        let neg = qoes.iter().filter(|q| **q < 0.0).count() as f64 / qoes.len() as f64;
        assert!(
            (0.08..0.9).contains(&neg),
            "negative fraction {neg} (target ~{})",
            targets::apps::VIDEO_NEGATIVE_FRACTION
        );
    }

    #[test]
    fn rebuffering_happens_while_driving() {
        let w = World::quick();
        let mut any = false;
        for op in Operator::ALL {
            for (s, _) in runs(w, op) {
                if s.rebuffer_pct() > 5.0 {
                    any = true;
                }
            }
        }
        assert!(any, "no run rebuffered >5%");
    }

    #[test]
    fn renders() {
        let w = World::quick();
        assert!(run(w).contains("best static QoE"));
        assert!(run_all_ops(w).contains("AT&T"));
    }
}
