//! Deterministic parallel execution of experiment cells.
//!
//! Every figure harness has the same shape: a grid of independent
//! simulation cells (policy × seed × sweep point), each deterministic
//! given its config. This module runs such a grid across a scoped thread
//! pool while keeping the *output order* identical to the input order —
//! results land in pre-assigned slots, so the merge order (and therefore
//! every serialized artifact) is independent of thread count and
//! scheduling.
//!
//! Every grid takes its worker count from the caller: `repro` passes
//! [`crate::report::host_cores`], `tests/invariance.rs` 1 and 4.

/// Map `f` over `items` on up to `workers` threads, preserving order.
///
/// Items are split into `workers` contiguous chunks, one scoped thread
/// per chunk, each writing into its own slice of the result vector —
/// order is preserved by construction, no result reordering or locking.
/// A worker that panics panics the caller once every worker has joined.
pub fn parallel_map<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.clamp(1, items.len().max(1));
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }

    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    let chunk = items.len().div_ceil(workers);
    let f = &f;
    std::thread::scope(|s| {
        for (out_chunk, in_chunk) in slots.chunks_mut(chunk).zip(items.chunks(chunk)) {
            s.spawn(move || {
                for (slot, item) in out_chunk.iter_mut().zip(in_chunk) {
                    *slot = Some(f(item));
                }
            });
        }
    });

    slots.into_iter().map(|r| r.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        for workers in [1, 2, 3, 7, 100, 1000] {
            let out = parallel_map(workers, &items, |&x| x * x);
            let expected: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(out, expected, "order broken at workers={workers}");
        }
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..37).collect();
        let serial = parallel_map(1, &items, |&x| x.wrapping_mul(0x9E3779B9).rotate_left(7));
        let par = parallel_map(4, &items, |&x| x.wrapping_mul(0x9E3779B9).rotate_left(7));
        assert_eq!(serial, par);
    }

    #[test]
    fn empty_and_single_inputs() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map(8, &none, |&x| x).is_empty());
        assert_eq!(parallel_map(8, &[5u32], |&x| x + 1), vec![6]);
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let items: Vec<u32> = (0..16).collect();
        parallel_map(4, &items, |&x| assert_ne!(x, 11, "one bad cell"));
    }
}
