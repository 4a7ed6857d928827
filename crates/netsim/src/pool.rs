//! Frame-buffer pooling for the DES hot path.
//!
//! Every simulated packet used to allocate a fresh `BytesMut` at the
//! sending host and free it at the receiving host (or at a drop point).
//! Under a saturating flow that is two allocator round-trips per simulated
//! packet — measurable against the engine's per-event work. The pool keeps
//! delivered and dropped frames on a freelist; the host send paths refill
//! them in place, so a steady-state simulation reaches zero frame
//! allocations after warm-up (the freelist high-water mark is the maximum
//! number of frames ever simultaneously in flight).
//!
//! Frames travel as `Box<Frame>` so recycling moves one pointer and the
//! event queue stays compact; the box itself is reused along with the byte
//! buffer inside it.

use int_dataplane::Frame;

/// Pool counters (diagnostics and steady-state tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Frames handed out by [`BufPool::take`].
    pub takes: u64,
    /// Frames returned via [`BufPool::recycle`].
    pub recycles: u64,
    /// Takes that had to allocate because the freelist was empty.
    pub allocs: u64,
}

/// A freelist of reusable frame boxes.
#[derive(Debug, Default)]
pub struct BufPool {
    // Boxes on purpose (not `Vec<Frame>`): frames circulate through the
    // event queue as `Box<Frame>`, and the pool recycles that exact box —
    // unboxing here would re-allocate it on every take.
    #[allow(clippy::vec_box)]
    free: Vec<Box<Frame>>,
    stats: PoolStats,
}

/// Freelist size cap: beyond this, recycled frames are freed instead of
/// kept. Bounds pool memory after a transient burst (e.g. a queue flushing
/// at simulation teardown) while comfortably covering steady-state flight.
const MAX_FREE: usize = 4096;

impl BufPool {
    /// Empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a frame box: recycled if available (reset, allocation kept),
    /// freshly allocated otherwise.
    pub fn take(&mut self) -> Box<Frame> {
        self.stats.takes += 1;
        match self.free.pop() {
            Some(mut f) => {
                f.reset_for_reuse();
                f
            }
            None => {
                self.stats.allocs += 1;
                Box::new(Frame::new(bytes::BytesMut::new()))
            }
        }
    }

    /// Return a spent frame to the freelist.
    pub fn recycle(&mut self, frame: Box<Frame>) {
        self.stats.recycles += 1;
        if self.free.len() < MAX_FREE {
            self.free.push(frame);
        }
    }

    /// Lifetime counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_reuses_the_allocation() {
        let mut pool = BufPool::new();
        let mut f = pool.take();
        f.bytes.extend_from_slice(&[1, 2, 3]);
        f.meta.ingress_port = Some(7);
        let cap = f.bytes.capacity();
        pool.recycle(f);

        let f2 = pool.take();
        assert!(f2.bytes.is_empty(), "recycled frame is reset");
        assert_eq!(f2.meta.ingress_port, None);
        assert!(f2.bytes.capacity() >= cap, "byte-buffer allocation survives recycling");

        let s = pool.stats();
        assert_eq!(s.takes, 2);
        assert_eq!(s.recycles, 1);
        assert_eq!(s.allocs, 1, "only the first take allocated");
    }

    #[test]
    fn freelist_is_bounded() {
        let mut pool = BufPool::new();
        let frames: Vec<_> = (0..MAX_FREE + 10).map(|_| pool.take()).collect();
        for f in frames {
            pool.recycle(f);
        }
        assert_eq!(pool.free.len(), MAX_FREE);
    }
}
