//! Subset enumeration in ascending-cardinality order.
//!
//! Constraint-based discovery (CD phase I/II, FGS skeleton pruning)
//! searches for *separating sets*: small conditioning sets that render
//! two variables independent. Enumerating subsets smallest-first finds
//! separators early and mirrors the PC-style search the paper's
//! references use.

/// Iterates all subsets of `items` with size `0..=max_size`, in
/// ascending size, each subset sorted in `items` order.
pub fn subsets_ascending<T: Copy>(items: &[T], max_size: usize) -> Vec<Vec<T>> {
    let n = items.len();
    let cap = max_size.min(n);
    let mut out = Vec::new();
    for k in 0..=cap {
        combinations_into(items, k, &mut out);
    }
    out
}

/// Appends all `k`-combinations of `items` to `out`.
fn combinations_into<T: Copy>(items: &[T], k: usize, out: &mut Vec<Vec<T>>) {
    let n = items.len();
    if k > n {
        return;
    }
    if k == 0 {
        out.push(Vec::new());
        return;
    }
    // Standard index-vector enumeration.
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        // Advance.
        let mut i = k;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return;
            }
        }
        idx[i] += 1;
        for j in i + 1..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subsets_small() {
        let s = subsets_ascending(&[1, 2, 3], 3);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0], Vec::<i32>::new());
        // Ascending size order.
        for w in s.windows(2) {
            assert!(w[0].len() <= w[1].len());
        }
        assert!(s.contains(&vec![1, 3]));
        assert!(s.contains(&vec![1, 2, 3]));
    }

    #[test]
    fn max_size_caps() {
        let s = subsets_ascending(&[1, 2, 3, 4], 2);
        assert_eq!(s.len(), 1 + 4 + 6);
        assert!(s.iter().all(|x| x.len() <= 2));
    }

    #[test]
    fn combinations_counts() {
        // Size k of n items comes C(n, k) times; a size above n, never.
        let s = subsets_ascending(&[1, 2, 3, 4, 5], 5);
        let count = |k| s.iter().filter(|x| x.len() == k).count();
        assert_eq!([0, 1, 2, 3, 4, 5].map(count), [1, 5, 10, 10, 5, 1]);
        assert_eq!(subsets_ascending(&[1, 2], 3).len(), 4);
    }

    #[test]
    fn empty_items() {
        assert_eq!(subsets_ascending::<i32>(&[], 5), vec![Vec::<i32>::new()]);
    }

    #[test]
    fn combinations_are_sorted_and_unique() {
        let s = subsets_ascending(&[10, 20, 30, 40], 4);
        assert_eq!(s.len(), 16);
        let mut seen = std::collections::HashSet::new();
        for combo in &s {
            assert!(combo.windows(2).all(|w| w[0] < w[1]));
            assert!(seen.insert(combo.clone()));
        }
    }
}
