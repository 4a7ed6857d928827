//! The open-addressed hash index every hand-written lookup table shares.
//!
//! [`SlabIndex`] maps a caller's 64-bit hash to a dense `u32` id into a
//! slab the caller owns (an edge slab, a route list, a series table, a
//! node list). It stores only the ids: the caller keeps its keys, its hash
//! function and its key equality, and answers "is this id the key I am
//! looking for?" through a closure. Linear probing over a power-of-two
//! slot array; one growth rule for every caller.
//!
//! Ids are handed out densely and in order (`0, 1, 2, …`) and an entry is
//! never removed, so the id being inserted is also the number of entries
//! already held, and a regrow can re-enter `0..id` by asking the caller
//! for each one's hash. The index never decides an iteration order: every
//! caller that iterates keeps its own ordered id list.

/// Marks an empty slot.
const EMPTY: u32 = u32::MAX;
/// Capacity of the first slot array; every later one doubles it.
const MIN_CAPACITY: usize = 16;
/// Load bound, as `LOAD_NUM / LOAD_DEN` of the slots: an insert that would
/// take the index past it doubles the capacity first.
const LOAD_NUM: usize = 3;
const LOAD_DEN: usize = 4;

/// FNV-1a over `bytes`: the hash of the byte-keyed callers (node names,
/// masked LPM keys, ECMP port groups). Their keys come from the program,
/// never from outside input, so there is no flooding to defend against.
#[inline]
pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Open-addressed index from a caller-supplied hash to a dense id.
#[derive(Debug, Clone, Default)]
pub struct SlabIndex {
    /// Power-of-two sized (or empty): ids, [`EMPTY`] where none is.
    slots: Vec<u32>,
}

impl SlabIndex {
    /// The first id whose slot chain starts at `hash` and for which `is`
    /// returns true, or `None` once the chain reaches an empty slot.
    #[inline]
    pub fn find(&self, hash: u64, mut is: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                EMPTY => return None,
                id if is(id) => return Some(id),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Enter `id` under `hash`. `id` must be the next dense id (every id
    /// below it already inserted since the last [`clear`](Self::clear));
    /// when the insert would pass the load bound the capacity doubles and
    /// `0..id` are re-entered under `hash_of(old_id)`.
    #[inline]
    pub fn insert(&mut self, hash: u64, id: u32, mut hash_of: impl FnMut(u32) -> u64) {
        if (id as usize + 1) * LOAD_DEN > self.slots.len() * LOAD_NUM {
            let capacity = (self.slots.len() * 2).max(MIN_CAPACITY);
            self.slots.clear();
            self.slots.resize(capacity, EMPTY);
            for old in 0..id {
                self.place(hash_of(old), old);
            }
        }
        self.place(hash, id);
    }

    /// Put `id` in the first empty slot of `hash`'s chain (there is one:
    /// the load bound keeps a quarter of the slots empty).
    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        while self.slots[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = id;
    }

    /// Forget every id, keeping the capacity: the next insert is id 0.
    pub fn clear(&mut self) {
        self.slots.fill(EMPTY);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_key_colliding_is_still_found_and_an_absent_one_missed() {
        let mut ix = SlabIndex::default();
        for id in 0..1_000u32 {
            ix.insert(0, id, |_| 0);
        }
        for id in 0..1_000u32 {
            assert_eq!(ix.find(0, |got| got == id), Some(id));
        }
        assert_eq!(ix.find(0, |got| got == 1_000), None);
    }

    #[test]
    fn growth_through_a_hundred_thousand_dense_ids_finds_every_id() {
        let hash = |id: u32| (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut ix = SlabIndex::default();
        for id in 0..100_000u32 {
            ix.insert(hash(id), id, hash);
            let (capacity, entries) = (ix.slots.len(), id as usize + 1);
            assert!(capacity.is_power_of_two(), "capacity {capacity}");
            assert!(
                entries * LOAD_DEN <= capacity * LOAD_NUM,
                "{entries}/{capacity}"
            );
        }
        assert_eq!(ix.slots.iter().filter(|&&s| s != EMPTY).count(), 100_000);
        for id in 0..100_000u32 {
            assert_eq!(ix.find(hash(id), |got| got == id), Some(id));
        }
    }

    #[test]
    fn clear_forgets_every_id_and_keeps_the_capacity() {
        let mut ix = SlabIndex::default();
        for id in 0..100u32 {
            ix.insert(id as u64, id, |old| old as u64);
        }
        let capacity = ix.slots.len();
        ix.clear();
        assert_eq!(ix.slots.len(), capacity);
        for id in 0..100u32 {
            assert_eq!(ix.find(id as u64, |got| got == id), None);
        }
        ix.insert(7, 0, |_| unreachable!("no regrow below the kept capacity"));
        assert_eq!(ix.find(7, |got| got == 0), Some(0));
    }

    #[test]
    fn find_on_a_never_filled_index_is_none() {
        assert_eq!(SlabIndex::default().find(42, |_| true), None);
    }
}
