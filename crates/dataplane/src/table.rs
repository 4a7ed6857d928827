//! The forwarding table — the P4 `table { key: lpm; actions; }` construct.
//!
//! The control plane installs entries; lookup takes the packet's key bytes
//! (the IPv4 destination) and returns the action data (generic `A`) bound
//! to the longest matching prefix. An unmatched packet has no action, and
//! the program drops it.
//!
//! Lookup is the per-packet-per-hop hot path, so the table keeps an index
//! beside the entry list (DESIGN.md §5.4): per prefix length, from longest
//! to shortest, an `int_obs::SlabIndex` of masked key bytes (the standard
//! software-LPM scheme). The pre-index linear scan survives as
//! [`MatchActionTable::lookup_linear`], the semantics oracle the property
//! tests pin `lookup` against.

use int_obs::SlabIndex;
use serde::Serialize;

/// How a table matches its key: longest-prefix match is the one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum MatchKind {
    /// Longest-prefix match.
    Lpm,
}

/// One installed key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum Key {
    /// LPM: value plus prefix length in bits.
    Lpm {
        /// Key value (only the first `prefix_len` bits are significant).
        value: Vec<u8>,
        /// Number of leading significant bits.
        prefix_len: u16,
    },
}

impl Key {
    /// Does this key match `bytes`?
    fn matches(&self, bytes: &[u8]) -> bool {
        let Key::Lpm { value, prefix_len } = self;
        value.len() == bytes.len() && prefix_matches(value, bytes, *prefix_len)
    }

    /// Specificity used to pick the winner among matches: the prefix length.
    fn specificity(&self) -> u16 {
        let Key::Lpm { prefix_len, .. } = self;
        *prefix_len
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

/// Longest LPM key the index can mask into a stack buffer. IPv4 keys are
/// 4 bytes; [`MatchActionTable::insert`] rejects a longer key as the
/// control-plane programming error it is.
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

/// Byte-slice → entry-index map over a [`SlabIndex`]. Insert-only, like
/// the table.
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

/// An LPM table with entries bound to action data `A`.
#[derive(Debug, Clone)]
pub struct MatchActionTable<A> {
    name: &'static str,
    /// Entries in insertion order; `buckets` index them.
    entries: Vec<(Key, A)>,
    /// Per raw prefix length, longest first: masked key bytes → entry.
    buckets: Vec<(u16, ByteIndex)>,
}

impl<A: Clone> MatchActionTable<A> {
    /// Declare an empty table. `kind` is always [`MatchKind::Lpm`].
    pub fn new(name: &'static str, kind: MatchKind) -> Self {
        let MatchKind::Lpm = kind;
        MatchActionTable { name, entries: Vec::new(), buckets: Vec::new() }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Install an entry. Panics on a key longer than the index can mask —
    /// a control-plane programming error, the class of failure p4runtime
    /// rejects at insert time.
    pub fn insert(&mut self, key: Key, action: A) {
        let Key::Lpm { value, .. } = &key;
        assert!(
            value.len() <= MAX_LPM_KEY,
            "LPM key of {} bytes exceeds the {MAX_LPM_KEY}-byte limit of table `{}`",
            value.len(),
            self.name
        );
        // Replace an identical key in place (p4runtime MODIFY semantics).
        if let Some(i) = self.find_identical(&key) {
            self.entries[i].1 = action;
            return;
        }
        self.entries.push((key, action));
        let idx = self.entries.len() - 1;
        let Key::Lpm { value, prefix_len } = &self.entries[idx].0;
        if (prefix_len / 8) as usize > value.len() {
            // `prefix_matches` rejects such entries unconditionally:
            // nothing to index.
            return;
        }
        let pos = self.buckets.partition_point(|(p, _)| p > prefix_len);
        if self.buckets.get(pos).is_none_or(|(p, _)| p != prefix_len) {
            self.buckets.insert(pos, (*prefix_len, ByteIndex::default()));
        }
        let mut buf = [0u8; MAX_LPM_KEY];
        let n = mask_into(&mut buf, value, *prefix_len);
        self.buckets[pos].1.insert_first(&buf[..n], idx as u32);
    }

    /// Position of an entry whose key equals `key` exactly, if any. Served
    /// from the index when it can answer authoritatively; the scan fallback
    /// covers shadowed and unindexed keys (control-plane-rate events).
    fn find_identical(&self, key: &Key) -> Option<usize> {
        let Key::Lpm { value, prefix_len } = key;
        if (prefix_len / 8) as usize > value.len() {
            // Dead-prefix entries are not indexed.
            return self.entries.iter().position(|(k, _)| k == key);
        }
        let (_, map) = self.buckets.iter().find(|(p, _)| p == prefix_len)?;
        let mut buf = [0u8; MAX_LPM_KEY];
        let n = mask_into(&mut buf, value, *prefix_len);
        let cand = map.get(&buf[..n])? as usize;
        if self.entries[cand].0 == *key {
            Some(cand)
        } else {
            // A same-prefix entry shadows this masked value; an identical
            // key may still exist behind it.
            self.entries.iter().position(|(k, _)| k == key)
        }
    }

    /// Look up the action for `key_bytes`: the longest matching prefix.
    /// Served from the index; agrees with
    /// [`lookup_linear`](Self::lookup_linear) on every probe (pinned by
    /// property tests).
    pub fn lookup(&self, key_bytes: &[u8]) -> Option<&A> {
        if key_bytes.len() > MAX_LPM_KEY {
            return None; // no entry is that long, and lengths must agree
        }
        let mut buf = [0u8; MAX_LPM_KEY];
        for (plen, map) in &self.buckets {
            let n = mask_into(&mut buf, key_bytes, *plen);
            if let Some(e) = map.get(&buf[..n]) {
                return Some(&self.entries[e as usize].1);
            }
        }
        None
    }

    /// Reference lookup: linear scan over all entries tracking the longest
    /// match (earliest-inserted wins ties) — the pre-index implementation.
    /// Kept public as the semantics oracle for property tests and as the
    /// bench baseline the indexed path is measured against.
    pub fn lookup_linear(&self, key_bytes: &[u8]) -> Option<&A> {
        let mut best: Option<(u16, usize)> = None;
        for (i, (k, _)) in self.entries.iter().enumerate() {
            if k.matches(key_bytes) {
                let s = k.specificity();
                if best.is_none_or(|(bs, _)| s > bs) {
                    best = Some((s, i));
                }
            }
        }
        best.map(|(_, i)| &self.entries[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn reinsert_same_key_modifies() {
        let mut t = MatchActionTable::new("t", MatchKind::Lpm);
        t.insert(Key::Lpm { value: vec![10, 0, 0, 1], prefix_len: 32 }, 1);
        t.insert(Key::Lpm { value: vec![10, 0, 0, 1], prefix_len: 32 }, 2);
        assert_eq!(t.len(), 1);
        assert_eq!(t.lookup(&[10, 0, 0, 1]), Some(&2));
    }

    #[test]
    fn length_mismatch_never_matches() {
        let mut t = MatchActionTable::new("t", MatchKind::Lpm);
        t.insert(Key::Lpm { value: vec![10, 0, 0, 0], prefix_len: 8 }, ());
        assert!(t.lookup(&[10, 0]).is_none());
    }

    /// Interleaved insert / modify / lookup stays consistent — the
    /// regression test for the old behavior of re-sorting the whole entry
    /// vector per insert.
    #[test]
    fn interleaved_insert_lookup() {
        let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
        let k8 = Key::Lpm { value: vec![10, 0, 0, 0], prefix_len: 8 };
        let k16 = Key::Lpm { value: vec![10, 1, 0, 0], prefix_len: 16 };
        let k24 = Key::Lpm { value: vec![10, 1, 2, 0], prefix_len: 24 };
        t.insert(k8, 1);
        t.insert(k24.clone(), 3);
        assert_eq!(t.lookup(&[10, 1, 2, 9]), Some(&3));
        t.insert(k16.clone(), 2);
        assert_eq!(t.lookup(&[10, 1, 9, 9]), Some(&2));
        t.insert(k24, 33);
        assert_eq!(t.lookup(&[10, 1, 2, 9]), Some(&33));
        t.insert(k16, 22); // MODIFY in place
        assert_eq!(t.len(), 3);
        assert_eq!(t.lookup(&[10, 1, 9, 9]), Some(&22));
        assert_eq!(t.lookup(&[10, 9, 9, 9]), Some(&1));
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
        assert_eq!(t.lookup(&[10, 0, 0, 1]), Some(&1), "the shadowed entry stays shadowed");
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

    /// A key longer than the index's mask buffer is rejected at insert.
    #[test]
    #[should_panic(expected = "exceeds the 64-byte limit of table `fwd`")]
    fn lpm_oversize_key_panics_at_insert() {
        let mut t = MatchActionTable::new("fwd", MatchKind::Lpm);
        t.insert(Key::Lpm { value: vec![7u8; MAX_LPM_KEY + 8], prefix_len: 16 }, 1);
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
            /// LPM tables: random values (non-canonical bits past the
            /// prefix included), prefix lengths past the key width
            /// included; probes drawn from installed values plus
            /// mutations.
            #[test]
            fn lpm_agrees_with_reference(
                inserts in proptest::collection::vec(
                    (any::<[u8; 4]>(), 0u16..40, 0u32..100), 1..60),
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
            }
        }
    }
}
