//! Minimal order-preserving data parallelism over scoped threads.
//!
//! Both corpus analysis and workload evaluation are embarrassingly
//! parallel: a list of independent items, one result each, merged back in
//! input order. This module is the one shared implementation — chunked
//! `std::thread::scope` fan-out with a deterministic in-order merge — so
//! every parallel path in the workspace (corpus analysis, workload
//! evaluation, and the sharded snapshot save/load in `rightcrowd-store`)
//! has identical semantics: the output of `par_map(items, t, f)` equals
//! `items.iter().map(f).collect()` for every thread count `t`.

/// Number of worker threads to use when the caller does not pin one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` on up to `threads` scoped worker threads and
/// returns the results in input order.
///
/// With `threads <= 1` (or fewer than two items) this degrades to a plain
/// sequential map on the calling thread — same results, no spawn cost.
pub fn par_map<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(f).collect();
    }
    let chunk_size = items.len().div_ceil(threads).max(1);
    let chunks: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| scope.spawn(|| chunk.iter().map(&f).collect()))
            .collect();
        handles.into_iter().map(|h| h.join().expect("parallel map worker")).collect()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u32> = (0..257).collect();
        for threads in [1, 2, 3, 8, 300] {
            let doubled = par_map(&items, threads, |&x| x * 2);
            assert_eq!(doubled, items.iter().map(|&x| x * 2).collect::<Vec<_>>(), "{threads}");
        }
    }

    #[test]
    fn handles_empty_and_singleton() {
        assert!(par_map(&[] as &[u32], 4, |&x| x).is_empty());
        assert_eq!(par_map(&[7u32], 4, |&x| x + 1), vec![8]);
    }

    #[test]
    fn worker_spans_are_published_when_par_map_returns() {
        // Workers start fresh span stacks, so the span is a thread root.
        fn calls() -> u64 {
            rightcrowd_obs::span::spans_snapshot()
                .into_iter()
                .find(|(path, _)| path == "test_par_worker_span")
                .map_or(0, |(_, stat)| stat.calls)
        }
        let items: Vec<u32> = (0..8).collect();
        let per_round = if rightcrowd_obs::PROBES_ENABLED { items.len() as u64 } else { 0 };
        for round in 0..200 {
            let before = calls();
            par_map(&items, 4, |&x| {
                let _span = rightcrowd_obs::span!("test_par_worker_span");
                x
            });
            assert_eq!(calls() - before, per_round, "round {round}: a worker's spans were lost");
        }
    }
}
