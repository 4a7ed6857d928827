//! Background-traffic scenario generation (paper §IV and §IV-C).
//!
//! Three scenarios:
//! * **Default** — "at any given time, one or two iperf transfers run
//!   between randomly selected nodes for 30 s or 60 s duration".
//! * **Traffic 1** (infrequent change) — three transfers of 30 s with 10 s
//!   staggered starts, followed by 30 s of silence, repeating.
//! * **Traffic 2** (frequent change) — three transfers of 5 s, 5 s of
//!   silence, repeating.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One constant-rate background flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BgFlow {
    /// Sending node.
    pub src: u32,
    /// Receiving node.
    pub dst: u32,
    /// Absolute start time, ns.
    pub start_ns: u64,
    /// Duration, ns.
    pub duration_ns: u64,
    /// Offered rate, bit/s.
    pub rate_bps: u64,
}

impl BgFlow {
    /// End time, ns.
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.duration_ns
    }
}

/// A background-traffic scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackgroundScenario {
    /// One or two concurrent 30/60 s flows at all times.
    Default,
    /// Fig. 9 "Traffic 1": 3×30 s flows, 10 s stagger, 30 s gap.
    Traffic1,
    /// Fig. 9 "Traffic 2": 3×5 s flows, 5 s gap.
    Traffic2,
}

impl BackgroundScenario {
    /// Generate the flow schedule for `[0, horizon_ns)` between `nodes`.
    /// `rate_bps` is the per-flow offered rate (the paper saturates its
    /// ~20 Mbit/s bottlenecks; 18 Mbit/s ≈ 90 % utilization is a sensible
    /// default). Deterministic in `seed`.
    pub fn generate(
        self,
        nodes: &[u32],
        horizon_ns: u64,
        rate_bps: u64,
        seed: u64,
    ) -> Vec<BgFlow> {
        assert!(nodes.len() >= 2, "need at least two nodes for background flows");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x00BA_C600_00F1_0A75_u64);
        let mut flows = Vec::new();
        const S: u64 = 1_000_000_000;

        let pick_pair = |rng: &mut SmallRng| {
            let src = nodes[rng.gen_range(0..nodes.len())];
            loop {
                let dst = nodes[rng.gen_range(0..nodes.len())];
                if dst != src {
                    return (src, dst);
                }
            }
        };

        match self {
            BackgroundScenario::Default => {
                // Epochs: in each, 1–2 flows of 30 or 60 s; the next epoch
                // begins when the shortest-lived flow of this epoch ends so
                // 1–2 flows are active at any given time.
                let mut t = 0u64;
                while t < horizon_ns {
                    let count = rng.gen_range(1..=2);
                    let mut shortest = u64::MAX;
                    for _ in 0..count {
                        let (src, dst) = pick_pair(&mut rng);
                        let duration = if rng.gen_bool(0.5) { 30 * S } else { 60 * S };
                        shortest = shortest.min(duration);
                        flows.push(BgFlow {
                            src,
                            dst,
                            start_ns: t,
                            duration_ns: duration,
                            rate_bps,
                        });
                    }
                    t += shortest;
                }
            }
            BackgroundScenario::Traffic1 => {
                // Cycle of 60 s: flows at +0/+10/+20 s, each 30 s long.
                let mut t = 0u64;
                while t < horizon_ns {
                    for i in 0..3u64 {
                        let (src, dst) = pick_pair(&mut rng);
                        flows.push(BgFlow {
                            src,
                            dst,
                            start_ns: t + i * 10 * S,
                            duration_ns: 30 * S,
                            rate_bps,
                        });
                    }
                    t += 60 * S;
                }
            }
            BackgroundScenario::Traffic2 => {
                // Cycle of 10 s: three concurrent 5 s flows, 5 s silence.
                let mut t = 0u64;
                while t < horizon_ns {
                    for _ in 0..3 {
                        let (src, dst) = pick_pair(&mut rng);
                        flows.push(BgFlow {
                            src,
                            dst,
                            start_ns: t,
                            duration_ns: 5 * S,
                            rate_bps,
                        });
                    }
                    t += 10 * S;
                }
            }
        }
        flows.retain(|f| f.start_ns < horizon_ns);
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const S: u64 = 1_000_000_000;
    const NODES: [u32; 8] = [0, 1, 2, 3, 4, 5, 6, 7];

    fn active_count(flows: &[BgFlow], t: u64) -> usize {
        flows.iter().filter(|f| (f.start_ns..f.end_ns()).contains(&t)).count()
    }

    #[test]
    fn default_keeps_one_or_two_flows_active() {
        let flows = BackgroundScenario::Default.generate(&NODES, 300 * S, 18_000_000, 1);
        // Sample interior instants (skip exact boundaries).
        for t in (1..295).map(|s| s * S + 500_000_000) {
            let n = active_count(&flows, t);
            assert!((1..=4).contains(&n), "{n} flows active at {t}");
        }
    }

    #[test]
    fn traffic1_structure() {
        let flows = BackgroundScenario::Traffic1.generate(&NODES, 120 * S, 18_000_000, 1);
        assert_eq!(flows.len(), 6, "two 60 s cycles of three flows");
        // Stagger: starts at 0, 10, 20 s within the first cycle.
        let starts: Vec<u64> = flows[..3].iter().map(|f| f.start_ns / S).collect();
        assert_eq!(starts, vec![0, 10, 20]);
        assert!(flows.iter().all(|f| f.duration_ns == 30 * S));
        // 50–60 s window is silent.
        assert_eq!(active_count(&flows, 55 * S), 0);
        // 20–30 s window has all three.
        assert_eq!(active_count(&flows, 25 * S), 3);
    }

    #[test]
    fn traffic2_structure() {
        let flows = BackgroundScenario::Traffic2.generate(&NODES, 40 * S, 18_000_000, 1);
        assert_eq!(flows.len(), 12, "four 10 s cycles of three flows");
        assert!(flows.iter().all(|f| f.duration_ns == 5 * S));
        assert_eq!(active_count(&flows, 2 * S), 3);
        assert_eq!(active_count(&flows, 7 * S), 0, "silent half of the cycle");
    }

    #[test]
    fn no_self_flows_and_deterministic() {
        for scenario in
            [BackgroundScenario::Default, BackgroundScenario::Traffic1, BackgroundScenario::Traffic2]
        {
            let a = scenario.generate(&NODES, 100 * S, 18_000_000, 42);
            assert!(a.iter().all(|f| f.src != f.dst));
            let b = scenario.generate(&NODES, 100 * S, 18_000_000, 42);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn horizon_respected() {
        let flows = BackgroundScenario::Default.generate(&NODES, 10 * S, 18_000_000, 7);
        assert!(flows.iter().all(|f| f.start_ns < 10 * S));
        assert!(!flows.is_empty());
    }
}
