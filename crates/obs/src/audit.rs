//! Scheduler decision audit trail.
//!
//! Records, per scheduling query, everything the scheduler believed at
//! the moment it decided: the candidate set with per-host estimated
//! delay and bandwidth, the hosts it excluded and why, and the host it
//! chose. Answers "why was host 7 excluded at t=42 s" from the exported
//! artifact instead of a debugger.

use crate::json::JsonBuf;

/// One ranked candidate with the estimates that ranked it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateEstimate {
    /// Host (simulator node id).
    pub host: u32,
    /// Estimated one-way network delay, nanoseconds.
    pub est_delay_ns: u64,
    /// Estimated available bandwidth, bits/s.
    pub est_bandwidth_bps: u64,
}

/// One scheduling decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Sim time of the query, nanoseconds.
    pub at_ns: u64,
    /// Requesting host (simulator node id).
    pub requester: u32,
    /// Ranking policy label (`Policy::name()`).
    pub policy: &'static str,
    /// Chosen host — the top-ranked candidate, if any survived.
    pub chosen: Option<u32>,
    /// Candidates in rank order with the estimates used.
    pub ranked: Vec<CandidateEstimate>,
    /// Excluded hosts with the stable `ExcludeReason` label.
    pub excluded: Vec<(u32, &'static str)>,
}

/// Bounded audit trail; disabled by default (one branch per record).
#[derive(Debug)]
pub struct DecisionAudit {
    enabled: bool,
    capacity: usize,
    total: u64,
    evicted: u64,
    records: Vec<DecisionRecord>,
}

impl Default for DecisionAudit {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl DecisionAudit {
    /// A disabled trail holding at most `capacity` records once enabled.
    pub fn new(capacity: usize) -> Self {
        Self {
            enabled: false,
            capacity: capacity.max(1),
            total: 0,
            evicted: 0,
            records: Vec::new(),
        }
    }

    /// Enable or disable recording.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is the trail recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record a decision (single branch when disabled). Oldest records
    /// are evicted to respect the capacity bound.
    #[inline]
    pub fn record(&mut self, rec: DecisionRecord) {
        if !self.enabled {
            return;
        }
        self.total += 1;
        if self.records.len() == self.capacity {
            self.records.remove(0);
            self.evicted += 1;
        }
        self.records.push(rec);
    }

    /// Decisions recorded while enabled (before eviction).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> &[DecisionRecord] {
        &self.records
    }

    /// Deterministic JSON export:
    /// `{"total":…,"evicted":…,"decisions":[{…}]}` with ranked
    /// candidates and exclusions in the order the scheduler produced
    /// them.
    pub fn to_json(&self) -> String {
        let mut j = JsonBuf::new();
        j.obj_open();
        j.key("total").u64(self.total);
        j.key("evicted").u64(self.evicted);
        j.key("decisions").arr_open();
        for rec in &self.records {
            write_record(&mut j, rec);
        }
        j.arr_close();
        j.obj_close();
        j.finish()
    }
}

/// Render one decision record as the next value in `j`: one element of
/// [`DecisionAudit::to_json`]'s `"decisions"` array.
fn write_record(j: &mut JsonBuf, rec: &DecisionRecord) {
    j.obj_open();
    j.key("at_ns").u64(rec.at_ns);
    j.key("requester").u64(rec.requester as u64);
    j.key("policy").str(rec.policy);
    match rec.chosen {
        Some(h) => j.key("chosen").u64(h as u64),
        None => j.key("chosen").null(),
    };
    j.key("ranked").arr_open();
    for c in &rec.ranked {
        j.obj_open();
        j.key("host").u64(c.host as u64);
        j.key("est_delay_ns").u64(c.est_delay_ns);
        j.key("est_bandwidth_bps").u64(c.est_bandwidth_bps);
        j.obj_close();
    }
    j.arr_close();
    j.key("excluded").arr_open();
    for (h, why) in &rec.excluded {
        j.obj_open();
        j.key("host").u64(*h as u64);
        j.key("reason").str(why);
        j.obj_close();
    }
    j.arr_close();
    j.obj_close();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at: u64) -> DecisionRecord {
        DecisionRecord {
            at_ns: at,
            requester: 7,
            policy: "IntDelay",
            chosen: Some(8),
            ranked: vec![CandidateEstimate { host: 8, est_delay_ns: 40, est_bandwidth_bps: 1000 }],
            excluded: vec![(3, "NoFreshPath")],
        }
    }

    #[test]
    fn disabled_audit_records_nothing() {
        let mut a = DecisionAudit::new(4);
        a.record(rec(1));
        assert_eq!((a.total(), a.records().len()), (0, 0));
    }

    #[test]
    fn bounded_with_eviction() {
        let mut a = DecisionAudit::new(2);
        a.set_enabled(true);
        for t in 0..4 {
            a.record(rec(t));
        }
        assert_eq!(a.total(), 4);
        let held: Vec<u64> = a.records().iter().map(|r| r.at_ns).collect();
        assert_eq!(held, vec![2, 3]);
    }

    #[test]
    fn json_export_shape() {
        let mut a = DecisionAudit::new(4);
        a.set_enabled(true);
        a.record(rec(42));
        let mut none = rec(43);
        none.chosen = None;
        none.ranked.clear();
        a.record(none);
        assert_eq!(
            a.to_json(),
            concat!(
                r#"{"total":2,"evicted":0,"decisions":["#,
                r#"{"at_ns":42,"requester":7,"policy":"IntDelay","chosen":8,"#,
                r#""ranked":[{"host":8,"est_delay_ns":40,"est_bandwidth_bps":1000}],"#,
                r#""excluded":[{"host":3,"reason":"NoFreshPath"}]},"#,
                r#"{"at_ns":43,"requester":7,"policy":"IntDelay","chosen":null,"#,
                r#""ranked":[],"excluded":[{"host":3,"reason":"NoFreshPath"}]}]}"#
            )
        );
    }
}
