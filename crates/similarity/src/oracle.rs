//! The plain greedy-string-tiling scan that tries every (i, j) start pair on
//! every pass.  It is the reference the seeded tiling is tested against.  It
//! depends on nothing but hashed token streams, so integration tests in
//! other crates include this file with `#[path]`.

/// JPlag coverage of two hashed token streams by the O(n·m)-per-pass scan:
/// the fraction of the shorter stream covered by tiles of at least
/// `min_match` tokens.
pub fn scan_coverage(ta: &[u64], tb: &[u64], min_match: usize) -> f64 {
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    let mut marked_a = vec![false; ta.len()];
    let mut marked_b = vec![false; tb.len()];
    let mut covered = 0usize;
    loop {
        // Find the longest unmarked common substring.
        let mut best_len = 0usize;
        let mut best: Option<(usize, usize)> = None;
        for i in 0..ta.len() {
            if marked_a[i] {
                continue;
            }
            for j in 0..tb.len() {
                if marked_b[j] || ta[i] != tb[j] {
                    continue;
                }
                let mut l = 0;
                while i + l < ta.len()
                    && j + l < tb.len()
                    && !marked_a[i + l]
                    && !marked_b[j + l]
                    && ta[i + l] == tb[j + l]
                {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best = Some((i, j));
                }
            }
        }
        if best_len < min_match.max(1) {
            break;
        }
        let (i, j) = best.expect("a best match exists when best_len > 0");
        for o in 0..best_len {
            marked_a[i + o] = true;
            marked_b[j + o] = true;
        }
        covered += best_len;
    }
    covered as f64 / ta.len().min(tb.len()) as f64
}
