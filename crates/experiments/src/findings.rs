//! The findings digest: the paper's §1 key findings, each checked
//! automatically against the regenerated dataset and reported with the
//! supporting numbers. This is the one-screen answer to "did the
//! reproduction work?".

use wheels_core::analysis::handover::{drop_fraction, improve_fraction};
use wheels_radio::tech::Direction;
use wheels_ran::operator::Operator;
use wheels_sim_core::stats::Cdf;
use wheels_transport::servers::ServerKind;

use crate::table2;
use crate::world::World;

/// One checked finding.
pub struct Finding {
    /// Paper finding, paraphrased.
    pub claim: &'static str,
    /// Whether the regenerated dataset supports it.
    pub holds: bool,
    /// The supporting numbers.
    pub evidence: String,
}

/// Evaluate all key findings.
pub fn evaluate(world: &World) -> Vec<Finding> {
    let view = world.view();
    let mut out = Vec::new();

    // 1. 5G coverage low and fragmented; T-Mobile leads.
    {
        let t = view.coverage_share(Operator::TMobile).pct_5g();
        let v = view.coverage_share(Operator::Verizon).pct_5g();
        let a = view.coverage_share(Operator::Att).pct_5g();
        out.push(Finding {
            claim: "5G coverage while driving is low and uneven; T-Mobile leads, V/A trail",
            holds: t > v && t > a && v < 40.0 && a < 40.0,
            evidence: format!("5G miles share: T {t:.1}%, V {v:.1}%, A {a:.1}%"),
        });
    }

    // 2. Driving collapses throughput vs static.
    {
        let med = |driving| {
            view.tput_cdf(None, Some(Direction::Downlink), Some(driving))
                .median()
                .unwrap_or(0.0)
        };
        let (s, d) = (med(false), med(true));
        out.push(Finding {
            claim: "network performance deteriorates drastically under driving",
            holds: d < s * 0.25,
            evidence: format!("DL median: static {s:.0} Mbps vs driving {d:.0} Mbps"),
        });
    }

    // 3. Substantial very-low-throughput time even with 5G deployed.
    {
        let frac = view
            .tput_cdf(None, None, Some(true))
            .fraction_at_or_below(5.0)
            * 100.0;
        let hs_frac = Cdf::from_samples(
            view.tput_iter(None, Some(Direction::Downlink), Some(true))
                .filter(|s| s.tech.is_high_speed())
                .map(|s| s.mbps),
        )
        .fraction_at_or_below(10.0)
            * 100.0;
        out.push(Finding {
            claim: "a large fraction of driving time sits below 5 Mbps, even on high-speed 5G",
            holds: frac > 10.0 && hs_frac > 3.0,
            evidence: format!(
                "below 5 Mbps: {frac:.1}% of all driving samples; below 10 Mbps on \
                 mid/mmWave: {hs_frac:.1}%"
            ),
        });
    }

    // 4. Edge servers help.
    {
        let rtt = |kind| {
            Cdf::from_samples(
                view.rtt_iter(Some(Operator::Verizon), Some(true))
                    .filter(|r| r.server == kind)
                    .filter_map(|r| r.rtt_ms),
            )
            .median()
        };
        let (e, c) = (rtt(ServerKind::Edge), rtt(ServerKind::Cloud));
        let holds = match (e, c) {
            (Some(e), Some(c)) => e < c,
            _ => false,
        };
        out.push(Finding {
            claim: "edge servers bring a significant RTT boost over remote cloud",
            holds,
            evidence: format!(
                "Verizon driving RTT median: edge {} ms vs cloud {} ms",
                e.map(|v| format!("{v:.0}")).unwrap_or("-".into()),
                c.map(|v| format!("{v:.0}")).unwrap_or("-".into())
            ),
        });
    }

    // 5. No KPI strongly correlates with throughput.
    {
        let mut max_r: f64 = 0.0;
        for row in table2::rows_for(world) {
            for (_, r) in &row.r {
                if let Some(r) = r {
                    max_r = max_r.max(r.abs());
                }
            }
        }
        out.push(Finding {
            claim: "no single KPI (RSRP/MCS/CA/BLER/speed/HO) strongly predicts throughput",
            holds: max_r < 0.75,
            evidence: format!("largest |r| across all 36 cells: {max_r:.2}"),
        });
    }

    // 6. Handovers: frequent enough, short, and roughly throughput-neutral.
    {
        let imp = view.impacts();
        let drop = drop_fraction(imp) * 100.0;
        let improve = improve_fraction(imp) * 100.0;
        let med_dur = Cdf::from_samples(
            view.columns()
                .handovers
                .duration_ms
                .iter()
                .map(|&ms| ms as f64),
        )
        .median()
        .unwrap_or(0.0);
        out.push(Finding {
            claim: "handovers are short and their cost is largely repaid post-handover",
            holds: (30.0..150.0).contains(&med_dur)
                && drop > 50.0
                && (40.0..90.0).contains(&improve),
            evidence: format!(
                "median interruption {med_dur:.0} ms; {drop:.0}% of HOs dip during \
                 execution; {improve:.0}% improve afterwards"
            ),
        });
    }

    out
}

/// Render the digest.
pub fn run(world: &World) -> String {
    let findings = evaluate(world);
    let mut out = String::from("Findings digest — the paper's key findings, re-checked\n\n");
    for f in &findings {
        out.push_str(&format!(
            "[{}] {}\n      {}\n",
            if f.holds { "HOLDS " } else { "FAILED" },
            f.claim,
            f.evidence
        ));
    }
    let held = findings.iter().filter(|f| f.holds).count();
    out.push_str(&format!(
        "\n{held}/{} findings reproduced\n",
        findings.len()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_findings_hold_at_quick_scale() {
        let w = World::quick();
        let findings = evaluate(w);
        assert_eq!(findings.len(), 6);
        for f in &findings {
            assert!(f.holds, "finding failed: {} — {}", f.claim, f.evidence);
        }
    }

    #[test]
    fn digest_renders_verdicts() {
        let out = run(World::quick());
        assert!(out.contains("HOLDS"));
        assert!(out.contains("6/6 findings reproduced"), "{out}");
    }
}
