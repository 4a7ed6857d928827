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
//! software-LPM scheme). Every entry's key bytes sit back to back in one
//! arena and the index stores entry positions only, so installing a route
//! allocates nothing of its own: the table's vectors grow by doubling. The
//! pre-index linear scan survives as [`MatchActionTable::lookup_linear`],
//! the semantics oracle the property tests pin `lookup` against.

use int_obs::{fnv1a, SlabIndex};
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

/// One installed entry; its key bytes are `keys[start..start + len]` of
/// the owning table.
#[derive(Debug, Clone)]
struct Entry<A> {
    start: u32,
    len: u16,
    prefix_len: u16,
    action: A,
}

impl<A> Entry<A> {
    fn key<'k>(&self, keys: &'k [u8]) -> &'k [u8] {
        &keys[self.start as usize..][..self.len as usize]
    }
}

/// The indexed entries of one raw prefix length, keyed by masked key
/// bytes. Insert-only, like the table; the earliest entry per masked key
/// is the one indexed (matching the reference scan, where the earliest
/// entry wins ties).
#[derive(Debug, Clone)]
struct Bucket {
    prefix_len: u16,
    /// `(entry position, low 32 bits of its masked key's hash)` in
    /// insertion order; `index` ids refer here. The hash bits reject most
    /// probed-past entries without reading their keys, and are all a
    /// regrow needs (the index places ids by low bits only).
    entries: Vec<(u32, u32)>,
    index: SlabIndex,
}

impl Bucket {
    /// The entry indexed under `masked` (already masked to this bucket's
    /// prefix length, with `hash` its FNV-1a).
    fn get<A>(&self, hash: u64, masked: &[u8], keys: &[u8], entries: &[Entry<A>]) -> Option<u32> {
        let id = self.index.find(hash, |id| {
            let (e, low) = self.entries[id as usize];
            low == hash as u32 && {
                let key = entries[e as usize].key(keys);
                key.len() == masked.len() && prefix_matches(key, masked, self.prefix_len)
            }
        })?;
        Some(self.entries[id as usize].0)
    }

    /// Index entry position `e` under `hash`: the caller has checked that
    /// no entry is indexed under the same masked key.
    fn push(&mut self, hash: u64, e: u32) {
        let id = self.entries.len() as u32;
        self.entries.push((e, hash as u32));
        let entries = &self.entries;
        self.index.insert(hash, id, |old| entries[old as usize].1 as u64);
    }
}

/// An LPM table with entries bound to action data `A`.
#[derive(Debug, Clone)]
pub struct MatchActionTable<A> {
    name: &'static str,
    /// Every entry's key bytes, back to back in insertion order.
    keys: Vec<u8>,
    /// Entries in insertion order; `buckets` index them.
    entries: Vec<Entry<A>>,
    /// One per raw prefix length, longest first.
    buckets: Vec<Bucket>,
}

impl<A: Clone> MatchActionTable<A> {
    /// Declare an empty table. `kind` is always [`MatchKind::Lpm`].
    pub fn new(name: &'static str, kind: MatchKind) -> Self {
        let MatchKind::Lpm = kind;
        MatchActionTable { name, keys: Vec::new(), entries: Vec::new(), buckets: Vec::new() }
    }

    /// Number of installed entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entries are installed.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Install an entry, replacing an identical key's action in place
    /// (p4runtime MODIFY semantics). Panics on a key longer than the index
    /// can mask — a control-plane programming error, the class of failure
    /// p4runtime rejects at insert time.
    pub fn insert(&mut self, key: Key, action: A) {
        let Key::Lpm { value, prefix_len } = &key;
        self.insert_prefix(value, *prefix_len, action);
    }

    /// [`insert`](Self::insert) of `Key::Lpm { value, prefix_len }` on
    /// borrowed bytes: the one install path, which the forwarding stage's
    /// route installs call directly. Copies `value` into the key arena.
    pub(crate) fn insert_prefix(&mut self, value: &[u8], prefix_len: u16, action: A) {
        assert!(
            value.len() <= MAX_LPM_KEY,
            "LPM key of {} bytes exceeds the {MAX_LPM_KEY}-byte limit of table `{}`",
            value.len(),
            self.name
        );
        // `prefix_matches` rejects a prefix longer than the key
        // unconditionally: such an entry is never indexed.
        let live = (prefix_len / 8) as usize <= value.len();
        let mut buf = [0u8; MAX_LPM_KEY];
        let n = mask_into(&mut buf, value, prefix_len);
        let masked = &buf[..n];
        let hash = fnv1a(masked.iter().copied());
        let pos = self.buckets.partition_point(|b| b.prefix_len > prefix_len);
        let bucket = self.buckets.get(pos).filter(|b| b.prefix_len == prefix_len);
        let has_bucket = bucket.is_some();
        let indexed = match bucket {
            Some(b) if live => b.get(hash, masked, &self.keys, &self.entries),
            _ => None,
        };
        let identical = |e: &Entry<A>| e.prefix_len == prefix_len && e.key(&self.keys) == value;
        let modify = match indexed {
            Some(e) if identical(&self.entries[e as usize]) => Some(e as usize),
            // Nothing indexed under a live key's masked value: the key is new.
            None if live => None,
            // A dead key is never indexed, and the entry indexed under this
            // masked value may shadow an identical one: scan (control-plane
            // rate, never a route install of a fabric).
            _ => self.entries.iter().position(identical),
        };
        if let Some(i) = modify {
            self.entries[i].action = action;
            return;
        }
        let id = self.entries.len() as u32;
        self.entries.push(Entry {
            start: self.keys.len() as u32,
            len: value.len() as u16,
            prefix_len,
            action,
        });
        self.keys.extend_from_slice(value);
        if !live || indexed.is_some() {
            return; // dead, or shadowed by the earlier same-mask entry
        }
        if !has_bucket {
            let new = Bucket { prefix_len, entries: Vec::new(), index: SlabIndex::default() };
            self.buckets.insert(pos, new);
        }
        self.buckets[pos].push(hash, id);
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
        for b in &self.buckets {
            let n = mask_into(&mut buf, key_bytes, b.prefix_len);
            let masked = &buf[..n];
            let hash = fnv1a(masked.iter().copied());
            if let Some(e) = b.get(hash, masked, &self.keys, &self.entries) {
                return Some(&self.entries[e as usize].action);
            }
        }
        None
    }

    /// Reference lookup: linear scan over all entries tracking the longest
    /// match (earliest-inserted wins ties) — the pre-index implementation.
    /// Oracle: kept public so the property tests below and
    /// `tests/alloc_build.rs` hold the indexed [`lookup`](Self::lookup)
    /// equal to it.
    pub fn lookup_linear(&self, key_bytes: &[u8]) -> Option<&A> {
        let mut best: Option<&Entry<A>> = None;
        for e in &self.entries {
            let key = e.key(&self.keys);
            let matches =
                key.len() == key_bytes.len() && prefix_matches(key, key_bytes, e.prefix_len);
            if matches && best.is_none_or(|b| e.prefix_len > b.prefix_len) {
                best = Some(e);
            }
        }
        best.map(|e| &e.action)
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
