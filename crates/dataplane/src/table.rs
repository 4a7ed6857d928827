//! Match-action tables — the P4 `table { key; actions; }` construct.
//!
//! A table is declared with a [`MatchKind`] and holds entries installed by
//! the control plane. Lookup takes the packet's key bytes and returns the
//! bound action data (generic `A`), falling back to the default action.
//!
//! Three match kinds are supported, mirroring `p4runtime`:
//! * **exact** — byte-for-byte equality,
//! * **lpm** — longest-prefix match on a big-endian key (IPv4 forwarding),
//! * **ternary** — value/mask with an explicit priority.
//!
//! Lookup is the per-packet-per-hop hot path, so each kind keeps a
//! specialized index beside the entry list (DESIGN.md §5.4): exact keys
//! hash into an `int_obs::SlabIndex`, LPM resolves as exact probes per
//! prefix length from longest to shortest (the standard software-LPM
//! scheme), and ternary scans entries in (priority, insertion) order. The
//! pre-index linear scan survives as [`MatchActionTable::lookup_linear`],
//! the semantics oracle the property tests pin `lookup` against.

use int_obs::SlabIndex;
use serde::{Deserialize, Serialize};

/// How a table matches its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchKind {
    /// Exact equality on the full key.
    Exact,
    /// Longest-prefix match.
    Lpm,
    /// Value/mask match with priority.
    Ternary,
}

/// One installed key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Key {
    /// Exact key bytes.
    Exact(Vec<u8>),
    /// LPM: value plus prefix length in bits.
    Lpm {
        /// Key value (only the first `prefix_len` bits are significant).
        value: Vec<u8>,
        /// Number of leading significant bits.
        prefix_len: u16,
    },
    /// Ternary: value, bit mask, and match priority (higher wins).
    Ternary {
        /// Key value.
        value: Vec<u8>,
        /// Significant-bit mask (same length as `value`).
        mask: Vec<u8>,
        /// Priority among overlapping entries; higher wins.
        priority: i32,
    },
}

impl Key {
    fn kind(&self) -> MatchKind {
        match self {
            Key::Exact(_) => MatchKind::Exact,
            Key::Lpm { .. } => MatchKind::Lpm,
            Key::Ternary { .. } => MatchKind::Ternary,
        }
    }

    /// Does this key match `bytes`?
    fn matches(&self, bytes: &[u8]) -> bool {
        match self {
            Key::Exact(v) => v == bytes,
            Key::Lpm { value, prefix_len } => {
                if value.len() != bytes.len() {
                    return false;
                }
                prefix_matches(value, bytes, *prefix_len)
            }
            Key::Ternary { value, mask, .. } => {
                if value.len() != bytes.len() || mask.len() != bytes.len() {
                    return false;
                }
                value
                    .iter()
                    .zip(mask)
                    .zip(bytes)
                    .all(|((v, m), b)| (v & m) == (b & m))
            }
        }
    }

    /// Specificity used to pick the winner among matches: prefix length for
    /// LPM, priority for ternary, `i64::MAX` for exact.
    fn specificity(&self) -> i64 {
        match self {
            Key::Exact(_) => i64::MAX,
            Key::Lpm { prefix_len, .. } => *prefix_len as i64,
            Key::Ternary { priority, .. } => *priority as i64,
        }
    }
}

fn prefix_matches(value: &[u8], bytes: &[u8], prefix_len: u16) -> bool {
    let full = (prefix_len / 8) as usize;
    let rem = (prefix_len % 8) as u32;
    if full > value.len() {
        return false;
    }
    if value[..full] != bytes[..full] {
        return false;
    }
    if rem == 0 || full >= value.len() {
        return true;
    }
    let mask = !(0xFFu8 >> rem);
    (value[full] & mask) == (bytes[full] & mask)
}

/// Longest LPM key the index can mask into a stack buffer. Longer keys
/// (none exist in practice — IPv4 is 4 bytes) drop the whole table to the
/// reference linear path rather than risk a semantics split.
const MAX_LPM_KEY: usize = 64;

/// Write the first `prefix_len` bits of `bytes` into `buf`, zeroing the
/// rest; returns the masked length (= `bytes.len()`). Mirrors
/// [`prefix_matches`]: equality of masked forms ⟺ a prefix match, for any
/// `prefix_len` up to and past the key width.
fn mask_into(buf: &mut [u8; MAX_LPM_KEY], bytes: &[u8], prefix_len: u16) -> usize {
    let n = bytes.len();
    let full = ((prefix_len / 8) as usize).min(n);
    buf[..full].copy_from_slice(&bytes[..full]);
    buf[full..n].fill(0);
    let rem = (prefix_len % 8) as u32;
    if rem != 0 && full < n {
        buf[full] = bytes[full] & !(0xFFu8 >> rem);
    }
    n
}

fn hash_bytes(bytes: &[u8]) -> u64 {
    // FNV-1a: tiny keys, no DoS surface (the control plane installs them).
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Byte-slice → entry-index map over a [`SlabIndex`]. Insert-only; the
/// table rebuilds it on removal, which is a control-plane-rate event.
#[derive(Debug, Clone, Default)]
struct ByteIndex {
    /// (key bytes, entry index) in insertion order; `index` refers here.
    pairs: Vec<(Box<[u8]>, u32)>,
    index: SlabIndex,
}

impl ByteIndex {
    fn get(&self, key: &[u8]) -> Option<u32> {
        let pair = self
            .index
            .find(hash_bytes(key), |p| &self.pairs[p as usize].0[..] == key)?;
        Some(self.pairs[pair as usize].1)
    }

    /// First-wins insert: keeps the existing binding if `key` is present
    /// (matching the reference scan, where the earliest entry wins ties).
    fn insert_first(&mut self, key: &[u8], entry: u32) {
        if self.get(key).is_some() {
            return;
        }
        let pair = self.pairs.len() as u32;
        self.pairs.push((key.into(), entry));
        let pairs = &self.pairs;
        self.index
            .insert(hash_bytes(key), pair, |p| hash_bytes(&pairs[p as usize].0));
    }
}

/// Kind-specialized lookup index over the entry list.
#[derive(Debug, Clone)]
enum Index {
    /// Full key bytes → entry.
    Exact(ByteIndex),
    /// Per raw prefix length, longest first: masked key bytes → entry.
    Lpm(Vec<(u16, ByteIndex)>),
    /// Entry indices in (priority descending, insertion ascending) order;
    /// lookup scans and takes the first match, as real TCAM rules demand.
    Ternary(Vec<u32>),
}

impl Index {
    fn empty(kind: MatchKind) -> Index {
        match kind {
            MatchKind::Exact => Index::Exact(ByteIndex::default()),
            MatchKind::Lpm => Index::Lpm(Vec::new()),
            MatchKind::Ternary => Index::Ternary(Vec::new()),
        }
    }
}

/// A match-action table with entries bound to action data `A`.
#[derive(Debug, Clone)]
pub struct MatchActionTable<A> {
    name: &'static str,
    kind: MatchKind,
    /// Entries in insertion order; `index` holds the lookup structure.
    entries: Vec<(Key, A)>,
    default_action: Option<A>,
    index: Index,
    /// Set when an entry exceeds what the index can represent (an LPM key
    /// longer than [`MAX_LPM_KEY`]): every operation then takes the
    /// reference linear path.
    linear_only: bool,
}

impl<A: Clone> MatchActionTable<A> {
    /// Declare an empty table.
    pub fn new(name: &'static str, kind: MatchKind) -> Self {
        MatchActionTable {
            name,
            kind,
            entries: Vec::new(),
            default_action: None,
            index: Index::empty(kind),
            linear_only: false,
        }
    }

    /// Table name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Set the action used when no entry matches.
    pub fn set_default(&mut self, action: A) {
        self.default_action = Some(action);
    }

    /// Install an entry. Panics if the key kind does not match the table's
    /// declared kind — that is a control-plane programming error, the same
    /// class of failure p4runtime rejects at insert time.
    pub fn insert(&mut self, key: Key, action: A) {
        assert_eq!(
            key.kind(),
            self.kind,
            "key kind mismatch inserting into table `{}`",
            self.name
        );
        // Replace an identical key in place (p4runtime MODIFY semantics).
        if let Some(i) = self.find_identical(&key) {
            self.entries[i].1 = action;
            return;
        }
        self.entries.push((key, action));
        let idx = self.entries.len() as u32 - 1;
        Self::index_entry(&mut self.index, &mut self.linear_only, &self.entries, idx);
    }

    /// Position of an entry whose key equals `key` exactly, if any. Served
    /// from the index when it can answer authoritatively; the scan fallback
    /// covers shadowed and unindexed keys (control-plane-rate events).
    fn find_identical(&self, key: &Key) -> Option<usize> {
        if self.linear_only {
            return self.entries.iter().position(|(k, _)| k == key);
        }
        match (&self.index, key) {
            (Index::Exact(map), Key::Exact(v)) => map.get(v).map(|e| e as usize),
            (Index::Lpm(buckets), Key::Lpm { value, prefix_len }) => {
                if value.len() > MAX_LPM_KEY || (prefix_len / 8) as usize > value.len() {
                    // Oversize or dead-prefix entries are not indexed.
                    return self.entries.iter().position(|(k, _)| k == key);
                }
                let (_, map) = buckets.iter().find(|(p, _)| p == prefix_len)?;
                let mut buf = [0u8; MAX_LPM_KEY];
                let n = mask_into(&mut buf, value, *prefix_len);
                let cand = map.get(&buf[..n])? as usize;
                if self.entries[cand].0 == *key {
                    Some(cand)
                } else {
                    // A same-prefix entry shadows this masked value; an
                    // identical key may still exist behind it.
                    self.entries.iter().position(|(k, _)| k == key)
                }
            }
            (Index::Ternary(_), _) => self.entries.iter().position(|(k, _)| k == key),
            _ => unreachable!("kind checked at insert"),
        }
    }

    /// File `entries[idx]` into the index. Associated fn so callers can
    /// split-borrow the table.
    fn index_entry(index: &mut Index, linear_only: &mut bool, entries: &[(Key, A)], idx: u32) {
        if *linear_only {
            return;
        }
        match (index, &entries[idx as usize].0) {
            (Index::Exact(map), Key::Exact(v)) => map.insert_first(v, idx),
            (Index::Lpm(buckets), Key::Lpm { value, prefix_len }) => {
                if value.len() > MAX_LPM_KEY {
                    *linear_only = true;
                    return;
                }
                if (prefix_len / 8) as usize > value.len() {
                    // `prefix_matches` rejects such entries unconditionally:
                    // nothing to index.
                    return;
                }
                let pos = buckets.partition_point(|(p, _)| *p > *prefix_len);
                if buckets.get(pos).is_none_or(|(p, _)| p != prefix_len) {
                    buckets.insert(pos, (*prefix_len, ByteIndex::default()));
                }
                let mut buf = [0u8; MAX_LPM_KEY];
                let n = mask_into(&mut buf, value, *prefix_len);
                buckets[pos].1.insert_first(&buf[..n], idx);
            }
            (Index::Ternary(order), Key::Ternary { priority, .. }) => {
                // Positional insert keeping (priority desc, insertion asc):
                // `idx` is the newest entry, so it goes after every entry
                // of equal or higher priority. Replaces the old full
                // re-sort per insert (O(n² log n) to build a table).
                let pos = order.partition_point(|&e| {
                    ternary_priority(&entries[e as usize].0) >= *priority
                });
                order.insert(pos, idx);
            }
            _ => unreachable!("kind checked at insert"),
        }
    }

    fn rebuild_index(&mut self) {
        self.index = Index::empty(self.kind);
        self.linear_only = false;
        for idx in 0..self.entries.len() as u32 {
            Self::index_entry(&mut self.index, &mut self.linear_only, &self.entries, idx);
        }
    }

    /// Remove an entry by exact key equality; returns true if removed.
    pub fn remove(&mut self, key: &Key) -> bool {
        let before = self.entries.len();
        self.entries.retain(|(k, _)| k != key);
        if self.entries.len() == before {
            return false;
        }
        // Entry indices shifted: rebuild (removal is control-plane-rate).
        self.rebuild_index();
        true
    }

    /// Look up the action for `key_bytes`: most specific matching entry, or
    /// the default action. Served from the kind-specialized index; agrees
    /// with [`lookup_linear`](Self::lookup_linear) on every probe (pinned
    /// by property tests).
    pub fn lookup(&self, key_bytes: &[u8]) -> Option<&A> {
        if self.linear_only {
            return self.lookup_linear(key_bytes);
        }
        let hit = match &self.index {
            Index::Exact(map) => map.get(key_bytes).map(|e| &self.entries[e as usize].1),
            Index::Lpm(buckets) => {
                if key_bytes.len() > MAX_LPM_KEY {
                    return self.lookup_linear(key_bytes);
                }
                let mut buf = [0u8; MAX_LPM_KEY];
                let mut hit = None;
                for (plen, map) in buckets {
                    let n = mask_into(&mut buf, key_bytes, *plen);
                    if let Some(e) = map.get(&buf[..n]) {
                        hit = Some(&self.entries[e as usize].1);
                        break;
                    }
                }
                hit
            }
            Index::Ternary(order) => order
                .iter()
                .find(|&&e| self.entries[e as usize].0.matches(key_bytes))
                .map(|&e| &self.entries[e as usize].1),
        };
        hit.or(self.default_action.as_ref())
    }

    /// Reference lookup: linear scan over all entries tracking the most
    /// specific match (earliest-inserted wins ties) — the pre-index
    /// implementation. Kept public as the semantics oracle for property
    /// tests and as the bench baseline the indexed path is measured
    /// against.
    pub fn lookup_linear(&self, key_bytes: &[u8]) -> Option<&A> {
        let mut best: Option<(i64, usize)> = None;
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if k.matches(key_bytes) {
                let s = k.specificity();
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, i));
                }
            }
        }
        best.map(|(_, i)| &self.entries[i].1).or(self.default_action.as_ref())
    }
}

fn ternary_priority(k: &Key) -> i32 {
    match k {
        Key::Ternary { priority, .. } => *priority,
        _ => unreachable!("ternary index holds only ternary keys"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match() {
        let mut t = MatchActionTable::new("t", MatchKind::Exact);
        t.insert(Key::Exact(vec![10, 0, 0, 1]), "to-h1");
        t.insert(Key::Exact(vec![10, 0, 0, 2]), "to-h2");
        assert_eq!(t.lookup(&[10, 0, 0, 2]), Some(&"to-h2"));
        assert_eq!(t.lookup(&[10, 0, 0, 3]), None);
    }

    #[test]
    fn lpm_longest_prefix_wins() {
        let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
        t.insert(Key::Lpm { value: vec![10, 0, 0, 0], prefix_len: 8 }, 1u16);
        t.insert(Key::Lpm { value: vec![10, 1, 0, 0], prefix_len: 16 }, 2u16);
        t.insert(Key::Lpm { value: vec![10, 1, 2, 0], prefix_len: 24 }, 3u16);
        assert_eq!(t.lookup(&[10, 9, 9, 9]), Some(&1));
        assert_eq!(t.lookup(&[10, 1, 9, 9]), Some(&2));
        assert_eq!(t.lookup(&[10, 1, 2, 9]), Some(&3));
        assert_eq!(t.lookup(&[11, 0, 0, 1]), None);
    }

    #[test]
    fn lpm_non_byte_aligned_prefix() {
        let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
        // 10.0.0.0/12 covers 10.0.x.x – 10.15.x.x
        t.insert(Key::Lpm { value: vec![10, 0, 0, 0], prefix_len: 12 }, ());
        assert!(t.lookup(&[10, 15, 0, 1]).is_some());
        assert!(t.lookup(&[10, 16, 0, 1]).is_none());
    }

    #[test]
    fn lpm_zero_prefix_is_catch_all() {
        let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
        t.insert(Key::Lpm { value: vec![0, 0, 0, 0], prefix_len: 0 }, "default-route");
        assert_eq!(t.lookup(&[192, 168, 1, 1]), Some(&"default-route"));
    }

    #[test]
    fn ternary_priority_breaks_overlap() {
        let mut t = MatchActionTable::new("acl", MatchKind::Ternary);
        t.insert(
            Key::Ternary { value: vec![10, 0, 0, 0], mask: vec![255, 0, 0, 0], priority: 1 },
            "allow",
        );
        t.insert(
            Key::Ternary { value: vec![10, 0, 0, 99], mask: vec![255, 255, 255, 255], priority: 9 },
            "deny",
        );
        assert_eq!(t.lookup(&[10, 0, 0, 99]), Some(&"deny"));
        assert_eq!(t.lookup(&[10, 0, 0, 98]), Some(&"allow"));
    }

    #[test]
    fn default_action_fires_when_nothing_matches() {
        let mut t = MatchActionTable::new("t", MatchKind::Exact);
        t.set_default("drop");
        assert_eq!(t.lookup(&[1]), Some(&"drop"));
    }

    #[test]
    fn reinsert_same_key_modifies() {
        let mut t = MatchActionTable::new("t", MatchKind::Exact);
        t.insert(Key::Exact(vec![1]), 1);
        t.insert(Key::Exact(vec![1]), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&[1]), Some(&2));
    }

    #[test]
    fn remove_entry() {
        let mut t = MatchActionTable::new("t", MatchKind::Exact);
        let k = Key::Exact(vec![1]);
        t.insert(k.clone(), 1);
        assert!(t.remove(&k));
        assert!(!t.remove(&k));
        assert!(t.lookup(&[1]).is_none());
    }

    #[test]
    #[should_panic(expected = "key kind mismatch")]
    fn wrong_kind_insert_panics() {
        let mut t = MatchActionTable::<u8>::new("t", MatchKind::Exact);
        t.insert(Key::Lpm { value: vec![1], prefix_len: 8 }, 0);
    }

    #[test]
    fn length_mismatch_never_matches() {
        let mut t = MatchActionTable::new("t", MatchKind::Lpm);
        t.insert(Key::Lpm { value: vec![10, 0, 0, 0], prefix_len: 8 }, ());
        assert!(t.lookup(&[10, 0]).is_none());
    }

    /// Interleaved insert / remove / lookup stays consistent — the
    /// regression test for the old behavior of re-sorting the whole entry
    /// vector per insert and for index staleness after removal.
    #[test]
    fn interleaved_insert_remove_lookup() {
        let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
        let k8 = Key::Lpm { value: vec![10, 0, 0, 0], prefix_len: 8 };
        let k16 = Key::Lpm { value: vec![10, 1, 0, 0], prefix_len: 16 };
        let k24 = Key::Lpm { value: vec![10, 1, 2, 0], prefix_len: 24 };
        t.insert(k8.clone(), 1);
        t.insert(k24.clone(), 3);
        assert_eq!(t.lookup(&[10, 1, 2, 9]), Some(&3));
        t.insert(k16.clone(), 2);
        assert_eq!(t.lookup(&[10, 1, 9, 9]), Some(&2));
        assert!(t.remove(&k24));
        assert_eq!(t.lookup(&[10, 1, 2, 9]), Some(&2), "falls back to /16 after /24 removal");
        t.insert(k24.clone(), 33);
        assert_eq!(t.lookup(&[10, 1, 2, 9]), Some(&33));
        t.insert(k16.clone(), 22); // MODIFY in place
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(&[10, 1, 9, 9]), Some(&22));
        assert!(t.remove(&k8));
        assert!(t.remove(&k16));
        assert_eq!(t.lookup(&[10, 9, 9, 9]), None);
        assert_eq!(t.lookup(&[10, 1, 2, 9]), Some(&33));
    }

    /// Two same-prefix entries whose values differ only past the prefix
    /// alias to one masked key: the earliest wins lookups (as the
    /// reference scan dictates), and MODIFY still reaches the shadowed one.
    #[test]
    fn lpm_shadowed_same_prefix_entry() {
        let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
        t.insert(Key::Lpm { value: vec![10, 1, 2, 3], prefix_len: 8 }, 1);
        t.insert(Key::Lpm { value: vec![10, 9, 9, 9], prefix_len: 8 }, 2);
        assert_eq!(t.len(), 2, "distinct keys, both installed");
        assert_eq!(t.lookup(&[10, 0, 0, 1]), Some(&1), "earliest same-mask entry wins");
        assert_eq!(t.lookup(&[10, 0, 0, 1]), t.lookup_linear(&[10, 0, 0, 1]));
        t.insert(Key::Lpm { value: vec![10, 9, 9, 9], prefix_len: 8 }, 22);
        assert_eq!(t.len(), 2, "MODIFY hit the shadowed entry");
        t.remove(&Key::Lpm { value: vec![10, 1, 2, 3], prefix_len: 8 });
        assert_eq!(t.lookup(&[10, 0, 0, 1]), Some(&22), "shadowed entry surfaces after removal");
    }

    /// A prefix length past the key width can never match (mirroring
    /// `prefix_matches`), indexed or not.
    #[test]
    fn lpm_dead_prefix_never_matches() {
        let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
        t.insert(Key::Lpm { value: vec![10, 0], prefix_len: 24 }, ());
        assert_eq!(t.lookup(&[10, 0]), None);
        assert_eq!(t.lookup_linear(&[10, 0]), None);
        // But a full-width prefix (with stray trailing bits) matches whole.
        t.insert(Key::Lpm { value: vec![10, 1], prefix_len: 16 }, ());
        assert!(t.lookup(&[10, 1]).is_some());
    }

    /// Keys longer than the index's mask buffer drop the table to the
    /// linear path without changing answers.
    #[test]
    fn lpm_oversize_key_falls_back_to_linear() {
        let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
        let long = vec![7u8; MAX_LPM_KEY + 8];
        t.insert(Key::Lpm { value: long.clone(), prefix_len: 16 }, 1);
        t.insert(Key::Lpm { value: vec![10, 0, 0, 0], prefix_len: 8 }, 2);
        let mut probe = vec![0u8; MAX_LPM_KEY + 8];
        probe[0] = 7;
        probe[1] = 7;
        assert_eq!(t.lookup(&probe), Some(&1));
        assert_eq!(t.lookup(&[10, 5, 5, 5]), Some(&2));
        assert_eq!(t.lookup(&probe), t.lookup_linear(&probe));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// `lookup` (indexed) must agree with `lookup_linear` (the
        /// reference) on every probe.
        fn check_agreement(t: &MatchActionTable<u32>, probes: &[Vec<u8>]) {
            for p in probes {
                prop_assert_eq!(
                    t.lookup(p),
                    t.lookup_linear(p),
                    "indexed vs reference disagree on probe {:?}",
                    p
                );
            }
        }

        proptest! {
            /// Exact tables: random inserts (duplicate values exercise
            /// MODIFY), removes, and probes drawn from the same byte pool
            /// so hits are common.
            #[test]
            fn exact_agrees_with_reference(
                inserts in proptest::collection::vec((0u8..8, 0u8..8, 0u32..100), 1..60),
                removes in proptest::collection::vec(0usize..60, 0..12),
            ) {
                let mut t = MatchActionTable::new("t", MatchKind::Exact);
                let keys: Vec<Vec<u8>> =
                    inserts.iter().map(|&(a, b, _)| vec![a, b]).collect();
                let probes: Vec<Vec<u8>> = keys.iter().cloned()
                    .chain([vec![], vec![0], vec![0, 0, 0]])
                    .collect();
                for (i, &(a, b, act)) in inserts.iter().enumerate() {
                    t.insert(Key::Exact(vec![a, b]), act);
                    if i % 5 == 0 {
                        check_agreement(&t, &probes);
                    }
                }
                for &r in &removes {
                    t.remove(&Key::Exact(keys[r % keys.len()].clone()));
                }
                check_agreement(&t, &probes);
            }

            /// LPM tables: random values (non-canonical bits past the
            /// prefix included), prefix lengths past the key width
            /// included, interleaved removes; probes drawn from installed
            /// values plus mutations.
            #[test]
            fn lpm_agrees_with_reference(
                inserts in proptest::collection::vec(
                    (any::<[u8; 4]>(), 0u16..40, 0u32..100), 1..60),
                removes in proptest::collection::vec(0usize..60, 0..12),
                flips in proptest::collection::vec((0usize..60, 0u8..32), 0..20),
            ) {
                let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
                let mut probes: Vec<Vec<u8>> =
                    inserts.iter().map(|&(v, _, _)| v.to_vec()).collect();
                // Perturb single bits so shorter prefixes get exercised.
                for &(i, bit) in &flips {
                    let mut p = probes[i % probes.len()].clone();
                    p[bit as usize / 8] ^= 1 << (bit % 8);
                    probes.push(p);
                }
                probes.push(vec![10, 0]); // length mismatch
                for (i, &(v, plen, act)) in inserts.iter().enumerate() {
                    t.insert(Key::Lpm { value: v.to_vec(), prefix_len: plen }, act);
                    if i % 5 == 0 {
                        check_agreement(&t, &probes);
                    }
                }
                check_agreement(&t, &probes);
                for &r in &removes {
                    let (v, plen, _) = inserts[r % inserts.len()];
                    t.remove(&Key::Lpm { value: v.to_vec(), prefix_len: plen });
                }
                check_agreement(&t, &probes);
            }

            /// Ternary tables: random value/mask/priority triples
            /// (duplicate priorities exercise the insertion-order
            /// tie-break), interleaved removes.
            #[test]
            fn ternary_agrees_with_reference(
                inserts in proptest::collection::vec(
                    (any::<[u8; 2]>(), any::<[u8; 2]>(), 0i32..4, 0u32..100), 1..40),
                removes in proptest::collection::vec(0usize..40, 0..8),
                probes in proptest::collection::vec(any::<[u8; 2]>(), 1..30),
            ) {
                let mut t = MatchActionTable::new("acl", MatchKind::Ternary);
                let probes: Vec<Vec<u8>> = probes.iter().map(|p| p.to_vec())
                    .chain(inserts.iter().map(|&(v, _, _, _)| v.to_vec()))
                    .collect();
                for (i, &(v, m, prio, act)) in inserts.iter().enumerate() {
                    t.insert(
                        Key::Ternary {
                            value: v.to_vec(),
                            mask: m.to_vec(),
                            priority: prio,
                        },
                        act,
                    );
                    if i % 5 == 0 {
                        check_agreement(&t, &probes);
                    }
                }
                for &r in &removes {
                    let (v, m, prio, _) = &inserts[r % inserts.len()];
                    t.remove(&Key::Ternary {
                        value: v.to_vec(),
                        mask: m.to_vec(),
                        priority: *prio,
                    });
                }
                check_agreement(&t, &probes);
            }
        }
    }
}
