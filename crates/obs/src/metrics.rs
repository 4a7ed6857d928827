//! Deterministic metrics registry: counters, gauges and histograms keyed
//! by a `'static` name plus a small label set, timestamped in **sim
//! time** (never wall clock), owned per instrumented component (one per
//! `Simulator`) — no global state, no interior mutability.
//!
//! Determinism rules (DESIGN.md §5.3):
//! * values are integers only — no float accumulation order to worry
//!   about;
//! * every series is **interned** on its first record: it gets a dense
//!   id into a value slab, its place in the `(name, labels)` render
//!   order, and its rendered `name{k=v,…}` key bytes, all computed once —
//!   so the JSON snapshot iterates in one fixed order regardless of
//!   insertion order, and a snapshot formats no key;
//! * a **disabled** registry (the default) returns from every `record`
//!   call after a single branch — before any lookup — so the hot path of
//!   an uninstrumented simulation pays ~one predictable branch per event.
//!
//! A keyed record (`counter_add`, `gauge_set`, `histogram_record`) is a
//! hash of the name *content* and labels plus a slab index. A site that
//! records the same series millions of times keeps the id the first
//! record returned ([`CounterId`] / [`HistogramId`] through the
//! `*_cached` calls) and skips the hash too.

use crate::index::SlabIndex;
use crate::json::{push_u64, JsonBuf};
use std::ops::Range;

/// Up to two `(key, value)` integer labels attached to a series.
///
/// Two is enough for every site in this workspace (`node` + `port`);
/// keeping the set inline and `Copy` means building a key allocates
/// nothing. Label *keys* are `'static` by construction so a series name
/// can never be built from runtime strings (another determinism rule —
/// and it keeps the record path allocation-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct Labels {
    labels: [Option<(&'static str, u64)>; 2],
}

impl Labels {
    /// No labels.
    pub const fn none() -> Self {
        Self { labels: [None, None] }
    }

    /// One label.
    pub const fn one(k: &'static str, v: u64) -> Self {
        Self { labels: [Some((k, v)), None] }
    }

    /// Two labels.
    pub const fn two(k1: &'static str, v1: u64, k2: &'static str, v2: u64) -> Self {
        Self { labels: [Some((k1, v1)), Some((k2, v2))] }
    }
}

/// A gauge sample: last value and the sim time it was set.
#[derive(Debug, Clone, Copy, Default)]
struct Gauge {
    value: i64,
    at_ns: u64,
}

/// Power-of-two bucketed histogram (bucket `i` counts values whose
/// bit-length is `i`, i.e. `0`, `1`, `2–3`, `4–7`, …). Coarse, but
/// integer-exact and fixed-shape, which is what the determinism
/// guarantee needs.
#[derive(Debug, Clone)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Self { count: 0, sum: 0, min: 0, max: 0, buckets: [0; 65] }
    }
}

impl Histogram {
    fn record(&mut self, v: u64) {
        if self.count == 0 || v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(v);
        let b = &mut self.buckets[(64 - v.leading_zeros()) as usize];
        *b = b.saturating_add(1);
    }

    /// Fold another histogram into this one (fieldwise: counts and
    /// buckets add, min/max widen, sum saturates). Exact regardless of
    /// merge order, which is what lets per-domain registries reproduce
    /// the single-loop registry byte-for-byte.
    fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 || other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b = b.saturating_add(*o);
        }
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> u64 {
        self.min
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }
}

/// Handle of an interned counter series, handed out by
/// [`MetricsRegistry::counter_add_cached`]. It indexes the slab of the
/// registry that issued it and means nothing to any other registry, so
/// a holder must live and die with that registry (the engine never
/// replaces its own).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(u32);

/// Handle of an interned histogram series; see [`CounterId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramId(u32);

/// What interning computes once per series.
#[derive(Debug)]
struct Meta {
    name: &'static str,
    labels: Labels,
    hash: u64,
    /// Where the rendered `name{k=v,…}` key sits in [`Table::keys`].
    key: Range<u32>,
}

/// Hash of a series key by *content*: the same name reached through two
/// different `&'static str` addresses is one series. Keys come from the
/// program, never from outside input, so a plain multiplicative hash
/// with a final avalanche is enough.
fn hash_key(name: &str, labels: &Labels) -> u64 {
    const PRIME: u64 = 0x100000001b3;
    fn bytes(mut h: u64, s: &str) -> u64 {
        for b in s.bytes() {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        // Terminator: ("ab", "c") and ("a", "bc") must differ.
        (h ^ 0xff).wrapping_mul(PRIME)
    }
    let mut h = bytes(0xcbf29ce484222325, name);
    for (k, v) in labels.labels.iter().flatten() {
        h = (bytes(h, k) ^ v).wrapping_mul(PRIME);
    }
    h ^= h >> 32;
    h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

/// One kind's series: an index from key content to a dense id, the value
/// slab the ids index, and the render order and rendered keys every
/// snapshot reuses.
#[derive(Debug)]
struct Table<V> {
    /// Key content ([`Meta::hash`]) → id.
    index: SlabIndex,
    meta: Vec<Meta>,
    values: Vec<V>,
    /// Ids in `(name, labels)` order — name by content, label values
    /// numerically (`node=9` before `node=10`), fewer labels first.
    order: Vec<u32>,
    /// Rendered keys, back to back.
    keys: String,
}

impl<V> Default for Table<V> {
    fn default() -> Self {
        Self {
            index: SlabIndex::default(),
            meta: Vec::new(),
            values: Vec::new(),
            order: Vec::new(),
            keys: String::new(),
        }
    }
}

impl<V: Default> Table<V> {
    /// The id of the series `(name, labels)` hashing to `hash`, if held.
    fn find(&self, hash: u64, name: &str, labels: &Labels) -> Option<u32> {
        self.index.find(hash, |id| {
            let m = &self.meta[id as usize];
            m.hash == hash && m.name == name && m.labels == *labels
        })
    }

    fn get(&self, name: &str, labels: &Labels) -> Option<&V> {
        let id = self.find(hash_key(name, labels), name, labels)?;
        Some(&self.values[id as usize])
    }

    /// Append a series the table does not hold yet; the caller places
    /// the returned id in `order`.
    fn push(&mut self, name: &'static str, labels: Labels, hash: u64) -> u32 {
        let id = u32::try_from(self.meta.len()).expect("fewer than 2^32 series");
        let start = self.keys.len();
        self.keys.push_str(name);
        let mut open = '{';
        for (k, v) in labels.labels.iter().flatten() {
            self.keys.push(open);
            self.keys.push_str(k);
            self.keys.push('=');
            push_u64(&mut self.keys, *v);
            open = ',';
        }
        if open == ',' {
            self.keys.push('}');
        }
        let end = u32::try_from(self.keys.len()).expect("fewer than 4 GiB of series keys");
        self.meta.push(Meta { name, labels, hash, key: start as u32..end });
        self.values.push(V::default());
        let meta = &self.meta;
        self.index.insert(hash, id, |old| meta[old as usize].hash);
        id
    }

    fn sort_key(&self, id: u32) -> (&'static str, Labels) {
        let m = &self.meta[id as usize];
        (m.name, m.labels)
    }

    /// The series' value, interning it first if this is its first record.
    fn intern(&mut self, name: &'static str, labels: Labels) -> u32 {
        let hash = hash_key(name, &labels);
        if let Some(id) = self.find(hash, name, &labels) {
            return id;
        }
        let id = self.push(name, labels, hash);
        let at = self.order.partition_point(|&o| self.sort_key(o) < (name, labels));
        self.order.insert(at, id);
        id
    }

    /// Fold every series of `other` into this table; `fold` receives the
    /// held value, the incoming one, and whether the series is new here.
    fn merge(&mut self, other: &Table<V>, mut fold: impl FnMut(&mut V, &V, bool)) {
        let held = self.meta.len();
        for &oid in &other.order {
            let m = &other.meta[oid as usize];
            let (id, new) = match self.find(m.hash, m.name, &m.labels) {
                Some(id) => (id, false),
                None => (self.push(m.name, m.labels, m.hash), true),
            };
            fold(&mut self.values[id as usize], &other.values[oid as usize], new);
        }
        if self.meta.len() > held {
            // The new ids arrive in `other`'s order, so `order` is two
            // sorted runs: the (stable, run-detecting) sort is one merge.
            self.order.extend(held as u32..self.meta.len() as u32);
            let mut order = std::mem::take(&mut self.order);
            order.sort_by_key(|&id| self.sort_key(id));
            self.order = order;
        }
    }

    /// Forget every series, keeping the allocations.
    fn clear(&mut self) {
        self.index.clear();
        self.meta.clear();
        self.values.clear();
        self.order.clear();
        self.keys.clear();
    }

    /// `(rendered key, value)` in render order.
    fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        self.order.iter().map(|&id| {
            let key = &self.meta[id as usize].key;
            (&self.keys[key.start as usize..key.end as usize], &self.values[id as usize])
        })
    }
}

/// The registry. One per instrumented component; dropped with it.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Table<u64>,
    gauges: Table<Gauge>,
    histograms: Table<Histogram>,
}

impl MetricsRegistry {
    /// A disabled registry: every record call is a single branch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable or disable recording. Series recorded so far are kept.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Is the registry recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn counter_add(&mut self, name: &'static str, labels: Labels, delta: u64) {
        self.counter_add_cached(&mut None, name, labels, delta);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn counter_inc(&mut self, name: &'static str, labels: Labels) {
        self.counter_add(name, labels, 1);
    }

    /// [`counter_add`](Self::counter_add) for a site that records one
    /// series over and over: the first enabled record interns the series
    /// and leaves its id in `cache`; later ones index the slab directly.
    /// `cache` must always be passed with the same `name` and `labels`,
    /// and only to this registry.
    #[inline]
    pub fn counter_add_cached(
        &mut self,
        cache: &mut Option<CounterId>,
        name: &'static str,
        labels: Labels,
        delta: u64,
    ) {
        if !self.enabled {
            return;
        }
        let id = match *cache {
            Some(id) => id,
            None => *cache.insert(CounterId(self.counters.intern(name, labels))),
        };
        let c = &mut self.counters.values[id.0 as usize];
        *c = c.saturating_add(delta);
    }

    /// Set a gauge to `value` at sim time `at_ns`.
    #[inline]
    pub fn gauge_set(&mut self, name: &'static str, labels: Labels, value: i64, at_ns: u64) {
        if !self.enabled {
            return;
        }
        let id = self.gauges.intern(name, labels);
        self.gauges.values[id as usize] = Gauge { value, at_ns };
    }

    /// Record one histogram observation. Test accessor: the registry's
    /// tests record through this keyed form, the `BTreeMap` reference
    /// comparison included; the engine keeps its series ids and calls
    /// [`histogram_record_cached`](Self::histogram_record_cached).
    #[inline]
    pub fn histogram_record(&mut self, name: &'static str, labels: Labels, value: u64) {
        self.histogram_record_cached(&mut None, name, labels, value);
    }

    /// [`histogram_record`](Self::histogram_record) with the series id
    /// kept by the caller; see
    /// [`counter_add_cached`](Self::counter_add_cached).
    #[inline]
    pub fn histogram_record_cached(
        &mut self,
        cache: &mut Option<HistogramId>,
        name: &'static str,
        labels: Labels,
        value: u64,
    ) {
        if !self.enabled {
            return;
        }
        let id = match *cache {
            Some(id) => id,
            None => *cache.insert(HistogramId(self.histograms.intern(name, labels))),
        };
        self.histograms.values[id.0 as usize].record(value);
    }

    /// Current value of a counter (0 when never recorded).
    pub fn counter(&self, name: &'static str, labels: Labels) -> u64 {
        self.counters.get(name, &labels).copied().unwrap_or(0)
    }

    /// Current value of a gauge. Test accessor: the registry's tests read
    /// gauges back through it to check recording and merging.
    pub fn gauge(&self, name: &'static str, labels: Labels) -> Option<i64> {
        self.gauges.get(name, &labels).map(|g| g.value)
    }

    /// Histogram for a series, if any observation was recorded. Test
    /// accessor: the registry's tests read histograms back through it.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Option<&Histogram> {
        self.histograms.get(name, &labels)
    }

    /// Number of live series across all kinds.
    pub fn series(&self) -> usize {
        self.counters.meta.len() + self.gauges.meta.len() + self.histograms.meta.len()
    }

    /// Fold another registry's series into this one: counters add
    /// (saturating), histograms merge fieldwise, and a gauge keeps the
    /// sample with the larger `at_ns` (on a tie, the already-held one).
    ///
    /// Counter and histogram merging is exact and order-independent, so
    /// per-domain registries folded in any order reproduce the registry
    /// a single event loop would have built. Gauge merging is only
    /// well-defined when at most one source writes each gauge series
    /// (true in this workspace: the engine records no gauges).
    ///
    /// Aggregation ignores the `enabled` flags — a disabled accumulator
    /// can collect from enabled sources.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.counters.merge(&other.counters, |c, v, _| *c = c.saturating_add(*v));
        self.gauges.merge(&other.gauges, |held, g, new| {
            if new || held.at_ns < g.at_ns {
                *held = *g;
            }
        });
        self.histograms.merge(&other.histograms, |h, o, _| h.merge(o));
    }

    /// Forget every series but keep the allocations and the `enabled`
    /// flag: an accumulator refolded every epoch interns into warm
    /// tables instead of building a fresh registry.
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Deterministic JSON snapshot.
    ///
    /// Series keys flatten to `name{k=v,k=v}`; kinds are grouped under
    /// `"counters"` / `"gauges"` / `"histograms"`; each kind iterates in
    /// `(name, labels)` order, so two registries holding the same data
    /// render byte-identically.
    pub fn snapshot_json(&self) -> String {
        let mut j = JsonBuf::new();
        self.snapshot_into(&mut j);
        j.finish()
    }

    /// Render the snapshot as the next value in an existing [`JsonBuf`]
    /// — how the streaming epoch export puts a metrics snapshot inside
    /// each epoch line: into one reused buffer, allocating nothing.
    pub fn snapshot_into(&self, j: &mut JsonBuf) {
        j.obj_open();
        j.key("counters").obj_open();
        for (key, v) in self.counters.iter() {
            j.key(key).u64(*v);
        }
        j.obj_close();
        j.key("gauges").obj_open();
        for (key, g) in self.gauges.iter() {
            j.key(key);
            j.obj_open();
            j.key("value").i64(g.value);
            j.key("at_ns").u64(g.at_ns);
            j.obj_close();
        }
        j.obj_close();
        j.key("histograms").obj_open();
        for (key, h) in self.histograms.iter() {
            j.key(key);
            j.obj_open();
            j.key("count").u64(h.count);
            j.key("sum").u64(h.sum);
            j.key("min").u64(h.min);
            j.key("max").u64(h.max);
            j.key("log2_buckets").obj_open();
            for (i, n) in h.buckets.iter().enumerate() {
                if *n > 0 {
                    let digits = [b'0' + (i / 10) as u8, b'0' + (i % 10) as u8];
                    let digits = if i < 10 { &digits[1..] } else { &digits[..] };
                    j.key(std::str::from_utf8(digits).expect("ASCII digits")).u64(*n);
                }
            }
            j.obj_close();
            j.obj_close();
        }
        j.obj_close();
        j.obj_close();
    }
}

/// The `BTreeMap`-keyed registry the interned layout replaced, kept as
/// the oracle the differential tests compare against: same operations,
/// same snapshot bytes.
#[cfg(test)]
mod reference {
    use super::{Gauge, Histogram, Labels};
    use crate::json::JsonBuf;
    use std::collections::BTreeMap;

    type Key = (&'static str, Labels);

    /// Render as `{k=v,k=v}`, or the empty string when unlabelled.
    fn suffix(labels: &Labels) -> String {
        let mut s = String::new();
        for (k, v) in labels.labels.iter().flatten() {
            s.push(if s.is_empty() { '{' } else { ',' });
            s.push_str(k);
            s.push('=');
            s.push_str(&v.to_string());
        }
        if !s.is_empty() {
            s.push('}');
        }
        s
    }

    #[derive(Default)]
    pub struct RefRegistry {
        pub enabled: bool,
        counters: BTreeMap<Key, u64>,
        gauges: BTreeMap<Key, Gauge>,
        histograms: BTreeMap<Key, Histogram>,
    }

    impl RefRegistry {
        pub fn counter_add(&mut self, name: &'static str, labels: Labels, delta: u64) {
            if !self.enabled {
                return;
            }
            let c = self.counters.entry((name, labels)).or_insert(0);
            *c = c.saturating_add(delta);
        }

        pub fn gauge_set(&mut self, name: &'static str, labels: Labels, value: i64, at_ns: u64) {
            if !self.enabled {
                return;
            }
            self.gauges.insert((name, labels), Gauge { value, at_ns });
        }

        pub fn histogram_record(&mut self, name: &'static str, labels: Labels, value: u64) {
            if !self.enabled {
                return;
            }
            self.histograms.entry((name, labels)).or_default().record(value);
        }

        pub fn merge(&mut self, other: &RefRegistry) {
            for (k, v) in &other.counters {
                let c = self.counters.entry(*k).or_insert(0);
                *c = c.saturating_add(*v);
            }
            for (k, g) in &other.gauges {
                match self.gauges.get(k) {
                    Some(held) if held.at_ns >= g.at_ns => {}
                    _ => {
                        self.gauges.insert(*k, *g);
                    }
                }
            }
            for (k, h) in &other.histograms {
                self.histograms.entry(*k).or_default().merge(h);
            }
        }

        pub fn series(&self) -> usize {
            self.counters.len() + self.gauges.len() + self.histograms.len()
        }

        pub fn snapshot_json(&self) -> String {
            let mut j = JsonBuf::new();
            j.obj_open();
            j.key("counters").obj_open();
            for ((name, labels), v) in &self.counters {
                j.key(&format!("{name}{}", suffix(labels))).u64(*v);
            }
            j.obj_close();
            j.key("gauges").obj_open();
            for ((name, labels), g) in &self.gauges {
                j.key(&format!("{name}{}", suffix(labels)));
                j.obj_open();
                j.key("value").i64(g.value);
                j.key("at_ns").u64(g.at_ns);
                j.obj_close();
            }
            j.obj_close();
            j.key("histograms").obj_open();
            for ((name, labels), h) in &self.histograms {
                j.key(&format!("{name}{}", suffix(labels)));
                j.obj_open();
                j.key("count").u64(h.count);
                j.key("sum").u64(h.sum);
                j.key("min").u64(h.min);
                j.key("max").u64(h.max);
                j.key("log2_buckets").obj_open();
                for (i, n) in h.buckets.iter().enumerate() {
                    if *n > 0 {
                        j.key(&i.to_string()).u64(*n);
                    }
                }
                j.obj_close();
                j.obj_close();
            }
            j.obj_close();
            j.obj_close();
            j.finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use super::reference::RefRegistry;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn disabled_registry_records_nothing() {
        let mut m = MetricsRegistry::new();
        m.counter_inc("x", Labels::none());
        m.gauge_set("g", Labels::none(), 5, 1);
        m.histogram_record("h", Labels::none(), 9);
        assert_eq!(m.series(), 0);
        assert_eq!(m.counter("x", Labels::none()), 0);
    }

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.counter_add("frames", Labels::one("node", 3), 2);
        m.counter_inc("frames", Labels::one("node", 3));
        m.gauge_set("depth", Labels::two("node", 1, "port", 0), -4, 77);
        m.histogram_record("qlen", Labels::none(), 0);
        m.histogram_record("qlen", Labels::none(), 7);
        assert_eq!(m.counter("frames", Labels::one("node", 3)), 3);
        assert_eq!(m.gauge("depth", Labels::two("node", 1, "port", 0)), Some(-4));
        let h = m.histogram("qlen", Labels::none()).unwrap();
        assert_eq!((h.count(), h.sum(), h.max()), (2, 7, 7));
    }

    #[test]
    fn snapshot_is_order_independent() {
        let build = |order_flip: bool| {
            let mut m = MetricsRegistry::new();
            m.set_enabled(true);
            let keys = if order_flip { ["b", "a"] } else { ["a", "b"] };
            for k in keys {
                m.counter_inc(if k == "a" { "a" } else { "b" }, Labels::none());
            }
            m.snapshot_json()
        };
        assert_eq!(build(false), build(true));
        assert_eq!(
            build(false),
            r#"{"counters":{"a":1,"b":1},"gauges":{},"histograms":{}}"#
        );
    }

    #[test]
    fn label_suffix_renders_in_key() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.counter_inc("drops", Labels::two("node", 2, "port", 1));
        assert!(m.snapshot_json().contains(r#""drops{node=2,port=1}":1"#));
    }

    #[test]
    fn counter_saturates_at_u64_max() {
        // Satellite audit: giant-run counters must saturate, not wrap or
        // panic, at the u64 boundary.
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.counter_add("big", Labels::none(), u64::MAX - 1);
        m.counter_add("big", Labels::none(), 5);
        assert_eq!(m.counter("big", Labels::none()), u64::MAX);
        m.counter_inc("big", Labels::none());
        assert_eq!(m.counter("big", Labels::none()), u64::MAX);
    }

    #[test]
    fn histogram_boundary_values_round_trip() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.histogram_record("h", Labels::none(), u64::MAX);
        m.histogram_record("h", Labels::none(), u64::MAX);
        let h = m.histogram("h", Labels::none()).unwrap();
        assert_eq!((h.count(), h.min(), h.max()), (2, u64::MAX, u64::MAX));
        assert_eq!(h.sum(), u64::MAX, "sum saturates instead of wrapping");
    }

    #[test]
    fn merged_shards_render_like_one_registry() {
        // The parallel-DES aggregation contract: split the same record
        // stream across registries, merge in any order, and the snapshot
        // must match the one an unsplit registry renders.
        let record = |m: &mut MetricsRegistry, i: u64| {
            m.counter_add("frames", Labels::one("node", i % 3), i);
            m.histogram_record("qlen", Labels::none(), i * 7);
        };
        let mut whole = MetricsRegistry::new();
        whole.set_enabled(true);
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.set_enabled(true);
        b.set_enabled(true);
        for i in 0..100 {
            record(&mut whole, i);
            record(if i % 2 == 0 { &mut a } else { &mut b }, i);
        }
        let mut ab = MetricsRegistry::new();
        ab.merge(&a);
        ab.merge(&b);
        let mut ba = MetricsRegistry::new();
        ba.merge(&b);
        ba.merge(&a);
        assert_eq!(ab.snapshot_json(), whole.snapshot_json());
        assert_eq!(ba.snapshot_json(), whole.snapshot_json());
    }

    #[test]
    fn gauge_merge_keeps_latest_sample() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.set_enabled(true);
        b.set_enabled(true);
        a.gauge_set("g", Labels::none(), 1, 10);
        b.gauge_set("g", Labels::none(), 2, 20);
        let mut m = MetricsRegistry::new();
        m.merge(&a);
        m.merge(&b);
        assert_eq!(m.gauge("g", Labels::none()), Some(2));
        let mut rev = MetricsRegistry::new();
        rev.merge(&b);
        rev.merge(&a);
        assert_eq!(rev.gauge("g", Labels::none()), Some(2), "order-independent");
    }

    #[test]
    fn snapshot_into_composes_with_outer_document() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        m.counter_inc("x", Labels::none());
        let mut j = JsonBuf::new();
        j.obj_open();
        j.key("metrics");
        m.snapshot_into(&mut j);
        j.key("tail").u64(1);
        j.obj_close();
        assert_eq!(
            j.finish(),
            format!(r#"{{"metrics":{},"tail":1}}"#, m.snapshot_json())
        );
    }

    #[test]
    fn render_order_is_name_then_fewer_labels_then_numeric_values() {
        let mut m = MetricsRegistry::new();
        m.set_enabled(true);
        for labels in [
            Labels::two("node", 9, "port", 0),
            Labels::one("node", 10),
            Labels::none(),
            Labels::one("node", 9),
        ] {
            m.counter_inc("b", labels);
        }
        m.counter_inc("a", Labels::one("node", 100));
        assert_eq!(
            m.snapshot_json(),
            concat!(
                r#"{"counters":{"a{node=100}":1,"b":1,"b{node=9}":1,"#,
                r#""b{node=9,port=0}":1,"b{node=10}":1},"gauges":{},"histograms":{}}"#
            )
        );
    }

    /// The series universe of the differential test: few enough names
    /// and label values that ops collide on series, with one name
    /// reachable through a second address.
    fn series_key(name: u8, shape: u8, v: u8, w: u8, alias: &'static str) -> (&'static str, Labels) {
        const VALUES: [u64; 5] = [0, 2, 9, 10, 100];
        let name = match name % 4 {
            0 => "sim.a",
            1 => alias,
            2 => "sim.b",
            _ => "z",
        };
        let (v, w) = (VALUES[v as usize % 5], VALUES[w as usize % 5]);
        let labels = match shape % 4 {
            0 => Labels::none(),
            1 => Labels::one("node", v),
            2 => Labels::one("port", v),
            _ => Labels::two("node", v, "port", w),
        };
        (name, labels)
    }

    /// An interned registry, its reference twin, and the ids a by-id
    /// caller would be holding.
    #[derive(Default)]
    struct Pair {
        new: MetricsRegistry,
        oracle: RefRegistry,
        counter_ids: BTreeMap<(&'static str, Labels), Option<CounterId>>,
        histogram_ids: BTreeMap<(&'static str, Labels), Option<HistogramId>>,
    }

    impl Pair {
        fn lit() -> Pair {
            let mut p = Pair::default();
            p.new.set_enabled(true);
            p.oracle.enabled = true;
            p
        }

        fn check(&self) {
            assert_eq!(self.new.snapshot_json(), self.oracle.snapshot_json());
            assert_eq!(self.new.series(), self.oracle.series());
        }
    }

    proptest! {
        /// Random op sequences against the `BTreeMap` reference: keyed
        /// and by-id records, enable flips, in-place merges, and — after
        /// every op, so snapshots interleave with first-time interning —
        /// both registries' snapshots plus a reused accumulator refolded
        /// in alternating order, all byte-equal to the oracle's.
        #[test]
        fn interned_registry_matches_the_btreemap_reference(
            ops in proptest::collection::vec(
                (0u8..8, any::<bool>(), any::<[u8; 4]>(), any::<u64>(), any::<bool>()),
                1..120,
            )
        ) {
            // Same content as "sim.a", different address.
            let alias: &'static str = String::from("sim.a").leak();
            let mut regs = [Pair::lit(), Pair::lit()];
            let mut acc = MetricsRegistry::new();
            for (step, (op, which, [n, shape, v, w], value, by_id)) in ops.into_iter().enumerate() {
                let (name, labels) = series_key(n, shape, v, w, alias);
                let key = (name, labels);
                let r = &mut regs[which as usize];
                // Near-saturation deltas exercise the u64::MAX clamp.
                let value = if value % 7 == 0 { u64::MAX - value % 3 } else { value % 1_000 };
                match op {
                    0 | 1 => {
                        if by_id {
                            let cache = r.counter_ids.entry(key).or_default();
                            r.new.counter_add_cached(cache, name, labels, value);
                        } else {
                            r.new.counter_add(name, labels, value);
                        }
                        r.oracle.counter_add(name, labels, value);
                    }
                    2 | 3 => {
                        if by_id {
                            let cache = r.histogram_ids.entry(key).or_default();
                            r.new.histogram_record_cached(cache, name, labels, value);
                        } else {
                            r.new.histogram_record(name, labels, value);
                        }
                        r.oracle.histogram_record(name, labels, value);
                    }
                    4 | 5 => {
                        // Three timestamps only, so merges meet ties.
                        let (val, at_ns) = (value as i64 - 500, value % 3);
                        r.new.gauge_set(name, labels, val, at_ns);
                        r.oracle.gauge_set(name, labels, val, at_ns);
                    }
                    6 => {
                        r.new.set_enabled(by_id);
                        r.oracle.enabled = by_id;
                    }
                    _ => {
                        let [a, b] = &mut regs;
                        let (dst, src) = if which { (a, b) } else { (b, a) };
                        dst.new.merge(&src.new);
                        dst.oracle.merge(&src.oracle);
                    }
                }
                regs[0].check();
                regs[1].check();
                let (first, second) = (step % 2, 1 - step % 2);
                acc.clear();
                acc.merge(&regs[first].new);
                acc.merge(&regs[second].new);
                let mut oracle = RefRegistry::default();
                oracle.merge(&regs[first].oracle);
                oracle.merge(&regs[second].oracle);
                prop_assert_eq!(acc.snapshot_json(), oracle.snapshot_json());
            }
        }
    }

    #[test]
    fn index_growth_across_ten_thousand_series_keeps_every_series() {
        const N: u64 = 12_000;
        let mut p = Pair::lit();
        // A stride coprime to N visits every series once, out of order.
        for i in 0..N {
            let s = (i * 7_919) % N;
            let labels = Labels::two("node", s / 8, "port", s % 8);
            p.new.histogram_record("sim.queue_depth_pkts", labels, s);
            p.oracle.histogram_record("sim.queue_depth_pkts", labels, s);
            p.new.counter_add("sim.frames", Labels::one("node", s), s);
            p.oracle.counter_add("sim.frames", Labels::one("node", s), s);
        }
        assert_eq!(p.new.series(), 2 * N as usize);
        p.check();
        for s in [0, 1, 4_095, 4_096, N - 1] {
            assert_eq!(p.new.counter("sim.frames", Labels::one("node", s)), s);
            let h = p.new.histogram("sim.queue_depth_pkts", Labels::two("node", s / 8, "port", s % 8));
            assert_eq!(h.map(Histogram::sum), Some(s));
        }
        // Folding it into a warm accumulator twice doubles, never forks.
        let mut acc = MetricsRegistry::new();
        acc.merge(&p.new);
        acc.merge(&p.new);
        assert_eq!(acc.series(), p.new.series());
        assert_eq!(acc.counter("sim.frames", Labels::one("node", 77)), 154);
    }
}
