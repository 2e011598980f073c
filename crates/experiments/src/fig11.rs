//! Fig. 11: handover frequency (per mile) and interruption durations.

use wheels_core::analysis::handover;
use wheels_radio::tech::Direction;
use wheels_ran::operator::Operator;

use crate::fmt;
use crate::world::World;

/// Render the figure.
pub fn run(world: &World) -> String {
    let cols = world.view().columns();
    let mut out = String::from("Fig. 11a — handovers per mile during throughput tests\n");
    for dir in Direction::ALL {
        out.push_str(&format!("{}:\n", dir.label()));
        for op in Operator::ALL {
            out.push_str(&format!(
                "  {:<9}: {}\n",
                op.label(),
                fmt::cdf_line(handover::handovers_per_mile(&cols.runs, op, dir))
            ));
        }
    }
    out.push_str("\nFig. 11b — handover durations (ms)\n");
    for dir in Direction::ALL {
        out.push_str(&format!("{}:\n", dir.label()));
        for op in Operator::ALL {
            out.push_str(&format!(
                "  {:<9}: {}\n",
                op.label(),
                fmt::cdf_line(handover::durations_ms(&cols.handovers, op, dir))
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wheels_sim_core::stats::Cdf;

    #[test]
    fn per_mile_medians_low_single_digits() {
        // Fig. 11a: medians 1–3, p75 3–6.
        let w = World::quick();
        for op in Operator::ALL {
            for dir in Direction::ALL {
                let rates = handover::handovers_per_mile(&w.view().columns().runs, op, dir);
                if rates.len() < 10 {
                    continue;
                }
                let med = Cdf::from_samples(rates.iter().copied()).median().unwrap();
                assert!((0.0..=8.0).contains(&med), "{op:?} {dir:?}: median {med}");
            }
        }
    }

    #[test]
    fn extreme_tests_exceed_ten_per_mile_somewhere() {
        // The paper saw 20+ per mile in extreme cases; our tail should at
        // least reach several per mile.
        let w = World::quick();
        let mut max = 0.0f64;
        for op in Operator::ALL {
            for dir in Direction::ALL {
                for r in handover::handovers_per_mile(&w.view().columns().runs, op, dir) {
                    max = max.max(r);
                }
            }
        }
        assert!(max > 4.0, "max HOs/mile {max}");
    }

    #[test]
    fn duration_medians_match_operator_calibration() {
        // Fig. 11b: V ≈ 53 ms, T ≈ 76 ms, A ≈ 58 ms (DL).
        let w = World::quick();
        let med = |op: Operator| {
            let hos = &w.view().columns().handovers;
            let mut d = handover::durations_ms(hos, op, Direction::Downlink);
            d.extend(handover::durations_ms(hos, op, Direction::Uplink));
            Cdf::from_samples(d).median()
        };
        if let (Some(v), Some(t), Some(a)) = (
            med(Operator::Verizon),
            med(Operator::TMobile),
            med(Operator::Att),
        ) {
            assert!(t > v, "T {t} should exceed V {v}");
            assert!((30.0..120.0).contains(&v), "V median {v}");
            assert!((45.0..150.0).contains(&t), "T median {t}");
            assert!((30.0..120.0).contains(&a), "A median {a}");
        }
    }

    #[test]
    fn renders_both_panels() {
        let out = run(World::quick());
        assert!(out.contains("Fig. 11a"));
        assert!(out.contains("Fig. 11b"));
    }
}
