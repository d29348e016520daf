//! Combinatorial helpers: binomial coefficients and k-subset enumeration.

/// `C(n, k)` as an exact `u128`. Panics on overflow (not reachable for the
/// instance sizes in this repository).
pub fn binomial(n: usize, k: usize) -> u128 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    let mut result: u128 = 1;
    for i in 0..k {
        result = result
            .checked_mul((n - i) as u128)
            .expect("binomial overflow");
        result /= (i + 1) as u128;
    }
    result
}

/// Enumerates all k-subsets of `{0, .., n−1}` in lexicographic order,
/// invoking `f` with each sorted index slice. `f` returns `false` to stop
/// early; the function returns `true` iff enumeration ran to completion.
pub fn for_each_k_subset<F: FnMut(&[usize]) -> bool>(n: usize, k: usize, mut f: F) -> bool {
    if k > n {
        return true;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    if k == 0 {
        return f(&idx);
    }
    loop {
        if !f(&idx) {
            return false;
        }
        // Advance to the next combination.
        let mut i = k;
        loop {
            if i == 0 {
                return true;
            }
            i -= 1;
            if idx[i] != i + n - k {
                break;
            }
            if i == 0 {
                return true;
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

    fn all_k_subsets(n: usize, k: usize) -> Vec<Vec<usize>> {
        let mut out = Vec::new();
        for_each_k_subset(n, k, |s| {
            out.push(s.to_vec());
            true
        });
        out
    }

    #[test]
    fn binomial_table() {
        assert_eq!(binomial(0, 0), 1);
        assert_eq!(binomial(5, 0), 1);
        assert_eq!(binomial(5, 5), 1);
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(5, 6), 0);
        assert_eq!(binomial(52, 5), 2_598_960);
        assert_eq!(binomial(100, 3), 161_700);
    }

    #[test]
    fn enumeration_counts_match_binomial() {
        for n in 0..=8 {
            for k in 0..=n + 1 {
                let subsets = all_k_subsets(n, k);
                assert_eq!(subsets.len() as u128, binomial(n, k), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn enumeration_is_lexicographic_and_sorted() {
        let subsets = all_k_subsets(4, 2);
        assert_eq!(
            subsets,
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3]
            ]
        );
    }

    #[test]
    fn early_stop() {
        let mut seen = 0;
        let completed = for_each_k_subset(5, 2, |_| {
            seen += 1;
            seen < 3
        });
        assert!(!completed);
        assert_eq!(seen, 3);
    }

    #[test]
    fn zero_k_yields_empty_set_once() {
        assert_eq!(all_k_subsets(3, 0), vec![Vec::<usize>::new()]);
    }

    #[test]
    fn k_equals_n() {
        assert_eq!(all_k_subsets(3, 3), vec![vec![0, 1, 2]]);
    }
}
