//! Ground-truth simulator statistics (what *actually* happened, as opposed
//! to what INT *measured* — the tests compare the two).

use int_obs::DropReason;
use serde::Serialize;

/// Engine-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct NetStats {
    /// Events dispatched by the engine.
    pub events_processed: u64,
    /// Frames handed to host applications / transports.
    pub frames_delivered: u64,
    /// Frames forwarded by switches.
    pub frames_forwarded: u64,
    /// Frames dropped because an egress queue was full.
    pub drops_queue_full: u64,
    /// Frames dropped by the data plane (no route, TTL, parse failure).
    pub drops_dataplane: u64,
    /// Frames dropped at a host (wrong address, unbound port).
    pub drops_host: u64,
    /// Frames dropped because their link was administratively down
    /// (fault injection): transmitted into the void or lost in flight.
    pub drops_link_down: u64,
    /// Frames dropped at or by a failed switch (fault injection).
    pub drops_switch_down: u64,
    /// Frames lost to probabilistic per-link loss (fault injection).
    pub drops_link_loss: u64,
}

impl NetStats {
    /// Accumulate another domain's counters (saturating: a merged view of
    /// giant runs must clamp, not wrap).
    pub fn merge(&mut self, other: &NetStats) {
        self.events_processed = self.events_processed.saturating_add(other.events_processed);
        self.frames_delivered = self.frames_delivered.saturating_add(other.frames_delivered);
        self.frames_forwarded = self.frames_forwarded.saturating_add(other.frames_forwarded);
        self.drops_queue_full = self.drops_queue_full.saturating_add(other.drops_queue_full);
        self.drops_dataplane = self.drops_dataplane.saturating_add(other.drops_dataplane);
        self.drops_host = self.drops_host.saturating_add(other.drops_host);
        self.drops_link_down = self.drops_link_down.saturating_add(other.drops_link_down);
        self.drops_switch_down = self.drops_switch_down.saturating_add(other.drops_switch_down);
        self.drops_link_loss = self.drops_link_loss.saturating_add(other.drops_link_loss);
    }

    /// Total drops of any kind (saturating: totals over merged giant-run
    /// counters must clamp at `u64::MAX`, not wrap in release builds).
    pub fn total_drops(&self) -> u64 {
        self.drops_queue_full
            .saturating_add(self.drops_dataplane)
            .saturating_add(self.drops_host)
            .saturating_add(self.fault_drops())
    }

    /// Count one dropped frame under the counter its reason names (one
    /// counter per [`DropReason`]).
    pub(crate) fn count_drop(&mut self, reason: DropReason) {
        let counter = match reason {
            DropReason::QueueFull => &mut self.drops_queue_full,
            DropReason::DataPlane => &mut self.drops_dataplane,
            DropReason::HostUnbound => &mut self.drops_host,
            DropReason::LinkDown => &mut self.drops_link_down,
            DropReason::SwitchDown => &mut self.drops_switch_down,
            DropReason::LinkLoss => &mut self.drops_link_loss,
        };
        *counter += 1;
    }

    /// Drops attributable to injected faults.
    pub fn fault_drops(&self) -> u64 {
        self.drops_link_down
            .saturating_add(self.drops_switch_down)
            .saturating_add(self.drops_link_loss)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_drops_sums() {
        let s = NetStats {
            drops_queue_full: 1,
            drops_dataplane: 2,
            drops_host: 3,
            drops_link_down: 4,
            drops_switch_down: 5,
            drops_link_loss: 6,
            ..Default::default()
        };
        assert_eq!(s.fault_drops(), 15);
        assert_eq!(s.total_drops(), 21);
    }

    #[test]
    fn totals_saturate_at_u64_max() {
        let s = NetStats {
            drops_queue_full: u64::MAX,
            drops_dataplane: 1,
            drops_link_loss: u64::MAX,
            ..Default::default()
        };
        assert_eq!(s.fault_drops(), u64::MAX);
        assert_eq!(s.total_drops(), u64::MAX);
    }

    #[test]
    fn each_drop_reason_moves_exactly_its_own_counter() {
        let counters = |s: &NetStats| {
            [
                s.drops_queue_full,
                s.drops_dataplane,
                s.drops_host,
                s.drops_link_down,
                s.drops_switch_down,
                s.drops_link_loss,
            ]
        };
        let reasons = [
            DropReason::QueueFull,
            DropReason::DataPlane,
            DropReason::HostUnbound,
            DropReason::LinkDown,
            DropReason::SwitchDown,
            DropReason::LinkLoss,
        ];
        for (i, reason) in reasons.into_iter().enumerate() {
            let mut s = NetStats::default();
            s.count_drop(reason);
            s.count_drop(reason);
            let mut expected = [0; 6];
            expected[i] = 2;
            assert_eq!(counters(&s), expected, "{reason:?}");
            assert_eq!(s.total_drops(), 2);
            assert_eq!((s.events_processed, s.frames_delivered, s.frames_forwarded), (0, 0, 0));
        }
    }

    #[test]
    fn merge_sums_and_saturates() {
        let mut a = NetStats { events_processed: 3, frames_delivered: u64::MAX, ..Default::default() };
        let b = NetStats { events_processed: 4, frames_delivered: 9, drops_host: 2, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.events_processed, 7);
        assert_eq!(a.frames_delivered, u64::MAX);
        assert_eq!(a.drops_host, 2);
    }
}
