//! Drop-tail FIFO egress queues — the congestion mechanism whose occupancy
//! the INT program measures.

use int_dataplane::Frame;
use std::collections::VecDeque;

/// Statistics a queue keeps about itself (ground truth, used to validate
//  what INT *measures* against what actually happened).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Frames accepted.
    pub enqueued: u64,
    /// Frames rejected because the queue was full.
    pub dropped: u64,
    /// Maximum depth ever reached (packets).
    pub max_depth_pkts: u32,
    /// Bytes currently queued.
    pub bytes: u64,
}

/// A bounded FIFO of frames with drop-tail admission.
///
/// Frames are boxed so admission and rejection move one pointer, and so a
/// rejected frame can be handed back to the caller for buffer recycling.
#[derive(Debug, Default)]
pub struct DropTailQueue {
    frames: VecDeque<Box<Frame>>,
    cap_pkts: usize,
    stats: QueueStats,
}

impl DropTailQueue {
    /// Queue holding at most `cap_pkts` packets. Its buffer grows on
    /// demand: most ports never hold more than a few frames.
    pub fn new(cap_pkts: usize) -> Self {
        assert!(cap_pkts > 0, "zero-capacity queue");
        DropTailQueue { frames: VecDeque::new(), cap_pkts, stats: QueueStats::default() }
    }

    /// Try to enqueue. Returns `None` on success; when the queue is full
    /// the drop is counted and the frame comes back to the caller (so its
    /// buffer can be recycled instead of freed). Ignoring the returned
    /// frame silently leaks a pooled buffer, hence `#[must_use]`.
    #[must_use = "a rejected frame must be recycled, not dropped"]
    pub fn enqueue(&mut self, frame: Box<Frame>) -> Option<Box<Frame>> {
        if self.frames.len() >= self.cap_pkts {
            self.stats.dropped += 1;
            return Some(frame);
        }
        self.stats.enqueued += 1;
        self.stats.bytes += frame.wire_len() as u64;
        self.frames.push_back(frame);
        let depth = self.frames.len() as u32;
        if depth > self.stats.max_depth_pkts {
            self.stats.max_depth_pkts = depth;
        }
        None
    }

    /// Remove the head frame.
    pub fn dequeue(&mut self) -> Option<Box<Frame>> {
        let f = self.frames.pop_front()?;
        self.stats.bytes -= f.wire_len() as u64;
        Some(f)
    }

    /// Current depth in packets.
    pub fn depth_pkts(&self) -> usize {
        self.frames.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Capacity in packets.
    pub fn capacity_pkts(&self) -> usize {
        self.cap_pkts
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn frame(len: usize) -> Box<Frame> {
        Box::new(Frame::new(BytesMut::from(vec![0u8; len].as_slice())))
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(10);
        assert!(q.enqueue(frame(1)).is_none());
        assert!(q.enqueue(frame(2)).is_none());
        assert!(q.enqueue(frame(3)).is_none());
        assert_eq!(q.dequeue().unwrap().wire_len(), 1);
        assert_eq!(q.dequeue().unwrap().wire_len(), 2);
        assert_eq!(q.dequeue().unwrap().wire_len(), 3);
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn drop_tail_when_full() {
        let mut q = DropTailQueue::new(2);
        assert!(q.enqueue(frame(10)).is_none());
        assert!(q.enqueue(frame(20)).is_none());
        let rejected = q.enqueue(frame(30)).expect("third frame dropped");
        assert_eq!(rejected.wire_len(), 30, "the rejected frame comes back intact");
        assert_eq!(q.depth_pkts(), 2);
        let s = q.stats();
        assert_eq!(s.enqueued, 2);
        assert_eq!(s.dropped, 1);
        // Head is still the first frame (tail-drop, not head-drop).
        assert_eq!(q.dequeue().unwrap().wire_len(), 10);
    }

    #[test]
    fn stats_track_bytes_and_max_depth() {
        let mut q = DropTailQueue::new(5);
        assert!(q.enqueue(frame(100)).is_none());
        assert!(q.enqueue(frame(50)).is_none());
        assert_eq!(q.stats().bytes, 150);
        assert_eq!(q.stats().max_depth_pkts, 2);
        q.dequeue();
        assert_eq!(q.stats().bytes, 50);
        assert_eq!(q.stats().max_depth_pkts, 2, "max depth is a high-water mark");
    }

    #[test]
    #[should_panic(expected = "zero-capacity")]
    fn zero_capacity_rejected() {
        DropTailQueue::new(0);
    }
}
