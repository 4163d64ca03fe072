//! The one scoped fan-out used everywhere a fit shards work across threads.
//!
//! Shard fits, per-shard transforms, cross-validation folds and the serve
//! registry's per-kind fits all need the same thing: run `f` over each item on
//! its own scoped thread and collect the results *in item order*. [`scoped_map`]
//! is that pattern, written once — callers decide how many items (and therefore
//! threads) to create, typically from a
//! [`ThreadBudget`](crate::cv::ThreadBudget).
//!
//! [`tree_reduce`] is the matching reduce: pairwise merge rounds over an
//! ordered sequence, each round merging adjacent pairs in parallel, so the
//! reduce step of a map-reduce fit costs `O(log n)` sequential rounds instead
//! of a single-threaded `O(n)` fold. For an associative merge it is
//! result-identical to the left fold.

/// Run `f` over each item on its own scoped thread, returning results in item
/// order (spawn handles are joined in spawn order).
///
/// Spawns one thread per item unconditionally; callers with a cheap
/// single-item case should branch before calling. Panics propagate: a
/// panicking worker fails the whole map.
pub fn scoped_map<I, T, F>(items: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(&I) -> T + Sync,
{
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("scoped_map worker thread panicked"))
            .collect()
    })
}

/// Reduce `items` to one value by rounds of adjacent-pair merges, running the
/// merges of each round on scoped threads when a round has more than one pair
/// (a round with a single pair merges inline — a thread would cost more than
/// it buys). An odd item at the end of a round passes through unmerged.
///
/// Order is preserved: every merge is `merge(left, right)` of *adjacent*
/// survivors, so for an associative `merge` the result equals the sequential
/// left fold exactly — which is why the sharded vocabulary fit can swap its
/// single-threaded reduce for this without changing a bit of output (integer
/// frequency sums are associative; the property tests in
/// `crates/ml/tests/property.rs` pin bit-identity at shard counts up to 16).
///
/// Returns `None` for an empty input.
pub fn tree_reduce<T, F>(items: Vec<T>, merge: F) -> Option<T>
where
    T: Send,
    F: Fn(T, T) -> T + Sync,
{
    let mut layer = items;
    while layer.len() > 1 {
        let mut next: Vec<T> = Vec::with_capacity(layer.len().div_ceil(2));
        let mut pairs: Vec<(T, T)> = Vec::with_capacity(layer.len() / 2);
        let mut tail: Option<T> = None;
        let mut iter = layer.into_iter();
        while let Some(left) = iter.next() {
            match iter.next() {
                Some(right) => pairs.push((left, right)),
                None => tail = Some(left),
            }
        }
        if pairs.len() == 1 {
            let (left, right) = pairs.pop().expect("one pair");
            next.push(merge(left, right));
        } else {
            let merge = &merge;
            let merged = std::thread::scope(|scope| {
                let handles: Vec<_> = pairs
                    .into_iter()
                    .map(|(left, right)| scope.spawn(move || merge(left, right)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("tree_reduce worker thread panicked"))
                    .collect::<Vec<T>>()
            });
            next.extend(merged);
        }
        next.extend(tail);
        layer = next;
    }
    layer.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..17).collect();
        let doubled = scoped_map(&items, |&i| i * 2);
        assert_eq!(doubled, items.iter().map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_is_an_empty_output() {
        let none: Vec<u8> = Vec::new();
        assert!(scoped_map(&none, |&b| b).is_empty());
    }

    #[test]
    fn workers_may_borrow_from_the_caller() {
        let corpus = ["a b", "c", "d e f"];
        let counts = scoped_map(&corpus, |doc| doc.split_whitespace().count());
        assert_eq!(counts, vec![2, 1, 3]);
    }

    #[test]
    fn tree_reduce_handles_empty_single_and_many() {
        assert_eq!(tree_reduce(Vec::<u64>::new(), |a, b| a + b), None);
        assert_eq!(tree_reduce(vec![7u64], |a, b| a + b), Some(7));
        for n in 2usize..=17 {
            let items: Vec<u64> = (1..=n as u64).collect();
            let expected: u64 = items.iter().sum();
            assert_eq!(tree_reduce(items, |a, b| a + b), Some(expected), "n = {n}");
        }
    }

    /// String concatenation is associative but NOT commutative: equality with
    /// the sequential left fold proves the pairwise rounds preserve item
    /// order, not just the multiset of items.
    #[test]
    fn tree_reduce_preserves_order_for_noncommutative_merges() {
        for n in 1usize..=16 {
            let items: Vec<String> = (0..n).map(|i| format!("[{i}]")).collect();
            let expected = items.concat();
            let got = tree_reduce(items, |a, b| a + &b).expect("non-empty");
            assert_eq!(got, expected, "n = {n}");
        }
    }
}
