//! Figs. 13–14 (and 18–20): the AR and CAV apps — E2E latency, offloaded
//! frame rate, detection accuracy (AR), latency-vs-5G-time and
//! latency-vs-handover breakdowns.

use wheels_apps::arcav::{accuracy, AppConfig, OffloadStats};
use wheels_core::records::TestKind;
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::pearson;
#[cfg(test)]
use wheels_sim_core::stats::Cdf;
use wheels_transport::servers::ServerKind;

use crate::fmt;
use crate::world::World;

/// All driving offload runs of one app/operator/compression.
pub fn runs(
    world: &World,
    op: Operator,
    kind: TestKind,
    compressed: bool,
) -> Vec<(OffloadStats, ServerKind)> {
    world
        .view()
        .apps()
        .filter(|a| a.operator == op && a.kind == kind && a.driving)
        .filter_map(|a| {
            let s = a.offload?;
            (s.compressed == compressed).then_some((s, a.server))
        })
        .collect()
}

/// Best-static baseline run for an app config.
pub fn best_static(config: &AppConfig, compressed: bool) -> OffloadStats {
    use wheels_apps::link::{ConstantLink, LinkState};
    let mut link = ConstantLink(LinkState::best_static());
    wheels_apps::arcav::OffloadRun::execute(
        config,
        &mut link,
        wheels_sim_core::time::SimTime::EPOCH,
        compressed,
    )
}

fn render_app(world: &World, op: Operator, kind: TestKind, config: &AppConfig) -> String {
    let mut out = String::new();
    let static_run = best_static(config, !matches!(kind, TestKind::Cav));
    out.push_str(&format!(
        "  best static: E2E median {} ms, {:.1} FPS\n",
        fmt::num(static_run.median_e2e_ms()),
        static_run.offloaded_fps(config.duration_s)
    ));
    for compressed in [false, true] {
        let rs = runs(world, op, kind, compressed);
        if rs.is_empty() {
            continue;
        }
        let e2e: Vec<f64> = rs.iter().filter_map(|(s, _)| s.median_e2e_ms()).collect();
        let fps: Vec<f64> = rs
            .iter()
            .map(|(s, _)| s.offloaded_fps(config.duration_s))
            .collect();
        out.push_str(&format!(
            "  driving {}comp E2E/run (ms): {}\n",
            if compressed { "" } else { "no-" },
            fmt::cdf_line(e2e.iter().copied())
        ));
        out.push_str(&format!(
            "  driving {}comp FPS/run      : {}\n",
            if compressed { "" } else { "no-" },
            fmt::cdf_line(fps)
        ));
        if kind == TestKind::Ar {
            let maps: Vec<f64> = rs
                .iter()
                .filter_map(|(s, _)| {
                    accuracy::mean_map(&s.e2e_ms, config.frame_interval_ms(), compressed)
                })
                .collect();
            out.push_str(&format!(
                "  driving {}comp mAP/run      : {}\n",
                if compressed { "" } else { "no-" },
                fmt::cdf_line(maps)
            ));
        }
        // Edge vs cloud split (Verizon only has edge runs).
        for server in [ServerKind::Edge, ServerKind::Cloud] {
            let sub: Vec<f64> = rs
                .iter()
                .filter(|(_, k)| *k == server)
                .filter_map(|(s, _)| s.median_e2e_ms())
                .collect();
            if sub.len() >= 3 {
                out.push_str(&format!(
                    "    {} E2E: {}\n",
                    server.label(),
                    fmt::cdf_line(sub)
                ));
            }
        }
        // Handover correlation.
        let pairs: Vec<(f64, f64)> = rs
            .iter()
            .filter_map(|(s, _)| Some((s.handovers as f64, s.median_e2e_ms()?)))
            .collect();
        if pairs.len() >= 10 {
            let (hos, e2es): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            out.push_str(&format!(
                "    corr(#HO, E2E) = {}\n",
                fmt::num(pearson(&hos, &e2es))
            ));
        }
    }
    out
}

/// Render Fig. 13 (AR, Verizon).
pub fn run_fig13(world: &World) -> String {
    format!(
        "Fig. 13 — AR application (Verizon)\n{}",
        render_app(world, Operator::Verizon, TestKind::Ar, &AppConfig::ar())
    )
}

/// Render Fig. 14 (CAV, Verizon).
pub fn run_fig14(world: &World) -> String {
    format!(
        "Fig. 14 — CAV application (Verizon)\n{}",
        render_app(world, Operator::Verizon, TestKind::Cav, &AppConfig::cav())
    )
}

/// Render Figs. 18–20 (all three operators).
pub fn run_fig18_20(world: &World) -> String {
    let mut out = String::from("Figs. 18–20 — AR & CAV across operators\n\n");
    for op in Operator::ALL {
        out.push_str(&format!("{} AR:\n", op.label()));
        out.push_str(&render_app(world, op, TestKind::Ar, &AppConfig::ar()));
        out.push_str(&format!("{} CAV:\n", op.label()));
        out.push_str(&render_app(world, op, TestKind::Cav, &AppConfig::cav()));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::targets;

    #[test]
    fn driving_ar_much_slower_than_static() {
        // Fig. 13: driving median E2E ~3x the best static 68 ms.
        let w = World::quick();
        let static_run = best_static(&AppConfig::ar(), true);
        let static_med = static_run.median_e2e_ms().unwrap();
        let driving: Vec<f64> = runs(w, Operator::Verizon, TestKind::Ar, true)
            .iter()
            .filter_map(|(s, _)| s.median_e2e_ms())
            .collect();
        assert!(driving.len() >= 5, "driving runs {}", driving.len());
        let med = Cdf::from_samples(driving).median().unwrap();
        assert!(
            med > static_med * 1.5,
            "driving {med} vs static {static_med}"
        );
    }

    #[test]
    fn ar_static_baseline_near_paper() {
        let s = best_static(&AppConfig::ar(), false);
        let e2e = s.median_e2e_ms().unwrap();
        // Paper: 68 ms / 12.5 FPS.
        assert!(
            (e2e - targets::apps::AR_STATIC_E2E_MS).abs() < 40.0,
            "static AR E2E {e2e}"
        );
        let fps = s.offloaded_fps(20);
        assert!((8.0..25.0).contains(&fps), "fps {fps}");
    }

    #[test]
    fn cav_never_hits_100ms_driving() {
        // Fig. 14 / §7.1.2: minimum driving CAV E2E was 148 ms.
        let w = World::quick();
        for compressed in [false, true] {
            for (s, _) in runs(w, Operator::Verizon, TestKind::Cav, compressed) {
                for e in &s.e2e_ms {
                    assert!(*e > 100.0, "CAV E2E {e} ms < 100");
                }
            }
        }
    }

    #[test]
    fn compression_helps_cav_dramatically() {
        // §7.1.2: ~8× median E2E reduction.
        let w = World::quick();
        let med = |compressed: bool| {
            let v: Vec<f64> = runs(w, Operator::Verizon, TestKind::Cav, compressed)
                .iter()
                .filter_map(|(s, _)| s.median_e2e_ms())
                .collect();
            Cdf::from_samples(v).median()
        };
        if let (Some(raw), Some(comp)) = (med(false), med(true)) {
            assert!(raw / comp > 2.0, "raw {raw} comp {comp}");
        }
    }

    #[test]
    fn handovers_do_not_correlate_with_ar_quality() {
        // Fig. 13c: no strong correlation between #HOs and mAP.
        let w = World::quick();
        let rs = runs(w, Operator::Verizon, TestKind::Ar, true);
        let pairs: Vec<(f64, f64)> = rs
            .iter()
            .filter_map(|(s, _)| {
                Some((
                    s.handovers as f64,
                    accuracy::mean_map(&s.e2e_ms, AppConfig::ar().frame_interval_ms(), true)?,
                ))
            })
            .collect();
        if pairs.len() >= 12 {
            let (hos, maps): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            if let Some(r) = pearson(&hos, &maps) {
                assert!(r.abs() < 0.7, "corr(#HO, mAP) = {r}");
            }
        }
    }

    #[test]
    fn renders_all() {
        let w = World::quick();
        assert!(run_fig13(w).contains("Fig. 13"));
        assert!(run_fig14(w).contains("Fig. 14"));
        let all = run_fig18_20(w);
        assert!(all.contains("T-Mobile AR"));
        assert!(all.contains("AT&T CAV"));
    }
}
