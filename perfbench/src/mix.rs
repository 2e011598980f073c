//! The query mix the load generator sends.
//!
//! The requests are the four that `crates/bench/benches/serve.rs` cycles
//! through, in the same shares (two quantiles, one cdf, one `table1` in
//! every four requests), so that serve figures here can be set beside
//! `BENCH_serve.json`. The seed only sets the order of the four requests
//! inside each block of four slots.

use wheels_serve::protocol::{parse_request, Request};
use wheels_sim_core::rng::SimRng;

/// Request kinds, for per-kind respond times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Quantile,
    Cdf,
    Table1,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Quantile, Kind::Cdf, Kind::Table1];

    pub fn label(self) -> &'static str {
        match self {
            Kind::Quantile => "quantile",
            Kind::Cdf => "cdf",
            Kind::Table1 => "table1",
        }
    }
}

/// The query set of the repo's serve bench, with each request's kind.
const QUERIES: [(Kind, &str); 4] = [
    (
        Kind::Quantile,
        "{\"cmd\":\"quantile\",\"table\":\"tput\",\"q\":0.5}",
    ),
    (
        Kind::Quantile,
        "{\"cmd\":\"quantile\",\"table\":\"rtt\",\"op\":\"verizon\",\"driving\":true,\"q\":0.9}",
    ),
    (
        Kind::Cdf,
        "{\"cmd\":\"cdf\",\"table\":\"tput\",\"op\":\"tmobile\",\"dir\":\"dl\",\"points\":11}",
    ),
    (Kind::Table1, "{\"cmd\":\"table1\"}"),
];

/// Slots in the request sequence before it repeats.
const SEQUENCE: usize = 4096;

/// Distinct requests plus the slot sequence over them.
pub struct Mix {
    pub requests: Vec<Request>,
    pub kinds: Vec<Kind>,
    /// Wire lines, each ending in `\n`.
    pub lines: Vec<String>,
    /// Request index per slot.
    pub seq: Vec<u16>,
}

impl Mix {
    /// The mix for `seed`: every block of four slots holds each of the
    /// four requests once, in a seeded order.
    pub fn new(seed: u64) -> Mix {
        let mut rng = SimRng::seed(seed).split("perfbench/mix");
        let n = QUERIES.len();
        let mut seq = Vec::with_capacity(SEQUENCE);
        while seq.len() < SEQUENCE {
            let mut block: Vec<u16> = (0..n as u16).collect();
            for i in (1..n).rev() {
                let j = rng.uniform_u64(0, i as u64 + 1) as usize;
                block.swap(i, j);
            }
            seq.extend(block);
        }
        Mix {
            requests: QUERIES
                .iter()
                .map(|(_, l)| parse_request(l).expect("the mix only holds valid requests"))
                .collect(),
            kinds: QUERIES.iter().map(|(k, _)| *k).collect(),
            lines: QUERIES.iter().map(|(_, l)| format!("{l}\n")).collect(),
            seq,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_order_is_seeded_and_the_shares_are_fixed() {
        let a = Mix::new(7);
        assert_eq!(a.seq, Mix::new(7).seq);
        assert_ne!(a.seq, Mix::new(8).seq);
        for block in a.seq.chunks(QUERIES.len()) {
            let mut b = block.to_vec();
            b.sort_unstable();
            assert_eq!(b, [0, 1, 2, 3]);
        }
        for k in Kind::ALL {
            assert!(a.kinds.contains(&k), "{k:?}");
        }
    }
}
