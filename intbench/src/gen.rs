//! Seeded input generators for the control-plane workloads, and the
//! FNV-1a digest the correctness checks compare.
//!
//! Everything here is a pure function of its arguments: the program under
//! test receives only what these functions produce.

use int_core::rank::StaticDistances;
use int_core::shard::RankQuery;
use int_core::{ExcludeReason, RankOutcome};
use int_packet::int::IntRecord;
use int_packet::ProbePayload;

/// Round cadence on the collector clock, ns (the paper's 100 ms probing).
pub const ROUND_NS: u64 = 100_000_000;

/// Deterministic 64-bit LCG step (MMIX constants).
pub fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state
}

/// A fabric as the scheduler learns it: every host probes through a fixed
/// chain of four switches.
#[derive(Debug, Clone, Copy)]
pub struct Fabric {
    pub hosts: u32,
    pub switches: u32,
    /// The scheduler's own host id.
    pub scheduler: u32,
    chain: fn(u32) -> [u32; 4],
    /// Hosts `a`, `b` share a leaf when `a % leaves == b % leaves`.
    leaves: u32,
}

/// The `experiments::sustained` shape: 128 hosts behind 32 leaf, 16
/// aggregation, 8 spine and 8 core switches.
pub const SUSTAINED: Fabric = Fabric {
    hosts: 128,
    switches: 64,
    scheduler: 1000,
    chain: |h| [100 + h % 32, 200 + h % 16, 300 + h % 8, 400 + (h / 16) % 8],
    leaves: 32,
};

/// The 512-switch shape of `benches/core.rs`: 960 hosts behind 256 leaf,
/// 128 aggregation, 64 spine and 64 core switches.
pub const CLOS_512: Fabric = Fabric {
    hosts: 960,
    switches: 512,
    scheduler: 10_000,
    chain: |h| [1000 + h % 256, 2000 + h % 128, 3000 + h % 64, 4000 + h % 64],
    leaves: 256,
};

impl Fabric {
    /// Host `h`'s probe for `round`, queue depths and link latencies
    /// churned from the seeded LCG.
    pub fn probe(&self, seed: u64, round: usize, h: u32, now_ns: u64) -> ProbePayload {
        let mut p = ProbePayload::new(h, round as u64, 0);
        let mut st = seed ^ ((round as u64) << 32) ^ ((h as u64) << 8) ^ 0x5DEE_CE66;
        lcg(&mut st);
        for (i, sw) in (self.chain)(h).into_iter().enumerate() {
            let maxq = (lcg(&mut st) % 40) as u32;
            p.int.push(IntRecord {
                switch_id: sw,
                ingress_port: 0,
                egress_port: 1,
                max_qlen_pkts: maxq,
                qlen_at_probe_pkts: maxq / 2,
                link_latency_ns: 5_000_000 + lcg(&mut st) % 10_000_000,
                egress_ts_ns: now_ns.saturating_sub((4 - i as u64) * 50_000),
            });
        }
        p
    }

    /// Static hop counts for the Nearest baseline: 2 for hosts sharing a
    /// leaf, 4 otherwise.
    pub fn distances(&self) -> StaticDistances {
        let mut d = StaticDistances::new();
        for a in 0..self.hosts {
            for b in (a + 1)..self.hosts {
                d.set(
                    a,
                    b,
                    if a % self.leaves == b % self.leaves {
                        2
                    } else {
                        4
                    },
                );
            }
        }
        d
    }
}

/// Which policies a batch cycles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMix {
    /// IntDelay / IntBandwidth / Nearest in turn.
    Cycle,
    /// IntDelay only.
    DelayOnly,
}

/// Is host `h` silent at `round`? Every eighth host, chosen by the seed,
/// stops probing for the rounds in `window`.
pub fn silenced(seed: u64, window: Option<(usize, usize)>, round: usize, h: u32) -> bool {
    window.is_some_and(|(from, to)| (from..to).contains(&round)) && h % 8 == (seed % 8) as u32
}

/// FNV-1a 64 running digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf29ce484222325)
    }
}

impl Digest {
    pub fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }

    pub fn u32(&mut self, v: u32) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    pub fn u64(&mut self, v: u64) {
        v.to_le_bytes().into_iter().for_each(|b| self.byte(b));
    }

    /// Fold one answered query: who asked, under which policy, the ranked
    /// hosts with their estimates, and every exclusion with its reason.
    pub fn outcome(&mut self, q: &RankQuery, o: &RankOutcome) {
        self.u32(q.requester);
        self.byte(q.policy as u8);
        self.u32(o.ranked.len() as u32);
        for r in &o.ranked {
            self.u32(r.host);
            self.u64(r.est_delay_ns);
            self.u64(r.est_bandwidth_bps);
        }
        self.u32(o.excluded.len() as u32);
        for (h, reason) in &o.excluded {
            self.u32(*h);
            self.byte(matches!(reason, ExcludeReason::OriginSilent) as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_repeat_for_a_seed_and_differ_across_seeds() {
        for fabric in [SUSTAINED, CLOS_512] {
            let a = fabric.probe(1, 3, 17, 400_000_000);
            assert_eq!(a, fabric.probe(1, 3, 17, 400_000_000));
            assert_ne!(a, fabric.probe(2, 3, 17, 400_000_000));
            assert_ne!(a, fabric.probe(1, 4, 17, 400_000_000));
            assert_eq!(a.int.hop_count(), 4);
        }
    }

    #[test]
    fn silence_hits_every_eighth_host_inside_the_window() {
        assert!(silenced(3, Some((40, 110)), 40, 11));
        assert!(!silenced(3, Some((40, 110)), 110, 11));
        assert!(!silenced(3, Some((40, 110)), 50, 12));
        assert!(!silenced(3, None, 50, 11));
    }

    #[test]
    fn digest_separates_outcomes() {
        let q = RankQuery {
            requester: 1,
            policy: int_core::Policy::IntDelay,
            now_ns: 0,
        };
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.outcome(&q, &RankOutcome::default());
        let other = RankOutcome {
            excluded: vec![(4, ExcludeReason::OriginSilent)],
            ..Default::default()
        };
        b.outcome(&q, &other);
        assert_ne!(a, b);
        assert_ne!(a, Digest::default());
    }
}
