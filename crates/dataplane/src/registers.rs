//! Stateful register arrays, the P4 `register<bit<64>>(N)` construct.
//!
//! The paper's INT collection scheme (§III-A) keeps one register per INT
//! parameter per port — here the maximum egress-queue occupancy observed
//! since the last probe harvested (and reset) it.

/// A fixed-size array of 64-bit registers, as declared in a P4 program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterArray {
    cells: Vec<u64>,
}

impl RegisterArray {
    /// Allocate `size` zeroed registers.
    pub fn new(size: usize) -> Self {
        RegisterArray { cells: vec![0; size] }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True if the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read cell `idx` (0 for out-of-range, matching P4 target semantics of
    /// bounded reads returning a default rather than trapping).
    pub fn read(&self, idx: usize) -> u64 {
        self.cells.get(idx).copied().unwrap_or(0)
    }

    /// `cells[idx] = max(cells[idx], value)` — the update the INT program
    /// applies on every packet for queue-occupancy tracking.
    pub fn write_max(&mut self, idx: usize, value: u64) {
        if let Some(c) = self.cells.get_mut(idx) {
            *c = (*c).max(value);
        }
    }

    /// Read cell `idx` and reset it to zero (probe harvest).
    pub fn take(&mut self, idx: usize) -> u64 {
        match self.cells.get_mut(idx) {
            Some(c) => std::mem::take(c),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_max_keeps_maximum() {
        let mut a = RegisterArray::new(4);
        a.write_max(2, 10);
        a.write_max(2, 3);
        a.write_max(2, 17);
        assert_eq!(a.read(2), 17);
        assert_eq!(a.read(1), 0, "other cells untouched");
    }

    #[test]
    fn take_resets_to_zero() {
        let mut a = RegisterArray::new(2);
        a.write_max(0, 42);
        assert_eq!(a.take(0), 42);
        assert_eq!(a.read(0), 0);
        assert_eq!(a.take(0), 0, "second take sees the reset value");
    }

    #[test]
    fn out_of_range_ops_are_safe() {
        let mut a = RegisterArray::new(1);
        assert_eq!(a.read(5), 0);
        a.write_max(5, 9);
        assert_eq!(a.take(5), 0);
        assert_eq!(a.len(), 1);
    }
}
