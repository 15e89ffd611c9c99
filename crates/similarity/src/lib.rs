//! # bsg-similarity — software-plagiarism-style similarity detection
//!
//! The paper verifies that its synthetic benchmark clones hide proprietary
//! information by feeding the original and synthetic C files to two
//! plagiarism detectors, Moss and JPlag, and observing that neither reports
//! any similarity (§V-E).  Both tools are closed web services, so this crate
//! reimplements their published core algorithms over C source text:
//!
//! * a **Moss-style detector** ([`moss_similarity`]) — winnowed k-gram
//!   fingerprints (Schleimer, Wilkerson & Aiken) compared by containment;
//! * a **JPlag-style detector** ([`jplag_similarity`]) — greedy string tiling
//!   over normalized token streams, reporting the fraction of tokens covered
//!   by shared tiles.
//!
//! Both operate on a normalized token stream (identifiers and literals are
//! collapsed to canonical tokens), exactly because real plagiarism detectors
//! must be insensitive to renaming — so a clone that merely renamed variables
//! would still be caught.
//!
//! # Example
//!
//! ```
//! use bsg_similarity::{moss_similarity, jplag_similarity};
//! let a = "int main(void) { int x = 0; for (x = 0; x < 10; x++) { g[x] = x; } return x; }";
//! let b = "int kernel(int n) { double z = 1.5; while (n > 0) { n = n - 3; z = z * 2.0; } return (int)z; }";
//! assert!(moss_similarity(a, a) > 0.99);
//! assert!(moss_similarity(a, b) < 0.35);
//! assert!(jplag_similarity(a, a) > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;

/// A normalized C token.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Token {
    /// A reserved word (`for`, `if`, `while`, `return`, ...).
    Keyword(String),
    /// Any identifier (normalized — the identifier text is discarded).
    Identifier,
    /// Any numeric literal (normalized).
    Number,
    /// A punctuation / operator character sequence.
    Symbol(String),
}

const KEYWORDS: &[&str] = &[
    "auto", "break", "case", "char", "const", "continue", "default", "do", "double", "else",
    "enum", "extern", "float", "for", "goto", "if", "int", "long", "register", "return", "short",
    "signed", "sizeof", "static", "struct", "switch", "typedef", "union", "unsigned", "void",
    "volatile", "while", "printf",
];

/// Tokenizes C source into a normalized token stream (identifiers and
/// literals collapsed; preprocessor lines, `//` comments and `/* */`
/// comments dropped).
pub fn tokenize(source: &str) -> Vec<Token> {
    let mut tokens = Vec::new();
    // Inside a `/* */` comment, which may span lines.
    let mut in_comment = false;
    for line in source.lines() {
        let line = line.trim();
        if !in_comment && line.starts_with('#') {
            continue;
        }
        let mut chars = line.chars().peekable();
        while let Some(&c) = chars.peek() {
            if in_comment {
                chars.next();
                if c == '*' && chars.peek() == Some(&'/') {
                    chars.next();
                    in_comment = false;
                }
            } else if c.is_whitespace() {
                chars.next();
            } else if c.is_ascii_alphabetic() || c == '_' {
                let mut word = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '_' {
                        word.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                if KEYWORDS.contains(&word.as_str()) {
                    tokens.push(Token::Keyword(word));
                } else {
                    tokens.push(Token::Identifier);
                }
            } else if c.is_ascii_digit() {
                while let Some(&c) = chars.peek() {
                    if c.is_ascii_alphanumeric() || c == '.' || c == 'x' {
                        chars.next();
                    } else {
                        break;
                    }
                }
                tokens.push(Token::Number);
            } else if c == '"' {
                chars.next();
                while let Some(c) = chars.next() {
                    match c {
                        // An escaped character never ends the literal.
                        '\\' => {
                            chars.next();
                        }
                        '"' => break,
                        _ => {}
                    }
                }
                tokens.push(Token::Number); // string literals normalize like data
            } else {
                chars.next();
                match (c, chars.peek()) {
                    ('/', Some('/')) => break,
                    ('/', Some('*')) => {
                        chars.next();
                        in_comment = true;
                        continue;
                    }
                    _ => {}
                }
                let mut sym = String::new();
                sym.push(c);
                // Two-character operators stay together so `<=`, `==`, `++` count as one token.
                if let Some(&n) = chars.peek() {
                    if matches!(
                        (c, n),
                        ('<', '=')
                            | ('>', '=')
                            | ('=', '=')
                            | ('!', '=')
                            | ('+', '+')
                            | ('-', '-')
                            | ('&', '&')
                            | ('|', '|')
                            | ('<', '<')
                            | ('>', '>')
                    ) {
                        sym.push(n);
                        chars.next();
                    }
                }
                tokens.push(Token::Symbol(sym));
            }
        }
    }
    tokens
}

/// The normalized token stream of `source`, one hash per token: the input
/// both detectors work on.
pub fn token_hashes(source: &str) -> Vec<u64> {
    tokenize(source)
        .iter()
        .map(|t| {
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut h = DefaultHasher::new();
            t.hash(&mut h);
            h.finish()
        })
        .collect()
}

/// One hash per `k`-gram of a hashed token stream (none when the stream is
/// shorter than `k`).
fn kgram_hashes(hashes: &[u64], k: usize) -> Vec<u64> {
    hashes
        .windows(k)
        .map(|win| {
            win.iter().fold(0xcbf29ce484222325u64, |acc, h| {
                (acc ^ h).wrapping_mul(0x100000001b3)
            })
        })
        .collect()
}

/// Winnowing over a hashed token stream: the minimum of every window of
/// `w` consecutive `k`-gram hashes.
fn winnow(hashes: &[u64], k: usize, w: usize) -> HashSet<u64> {
    if hashes.len() < k {
        return hashes.iter().copied().collect();
    }
    let kgrams = kgram_hashes(hashes, k);
    if kgrams.len() <= w {
        return kgrams.into_iter().collect();
    }
    kgrams
        .windows(w)
        .filter_map(|win| win.iter().min().copied())
        .collect()
}

/// Moss `k`-gram length, in tokens.
const MOSS_K: usize = 5;
/// Moss winnowing window, in `k`-grams.
const MOSS_W: usize = 4;
/// JPlag's conventional minimum match length, in tokens.
const JPLAG_MIN_MATCH: usize = 9;

/// Moss containment of two hashed token streams.
fn moss_of(ta: &[u64], tb: &[u64]) -> f64 {
    let fa = winnow(ta, MOSS_K, MOSS_W);
    let fb = winnow(tb, MOSS_K, MOSS_W);
    if fa.is_empty() || fb.is_empty() {
        return 0.0;
    }
    let shared = fa.intersection(&fb).count() as f64;
    shared / fa.len().min(fb.len()) as f64
}

/// Moss-style similarity: containment of the smaller fingerprint set within
/// the larger one, in `[0, 1]`.
pub fn moss_similarity(a: &str, b: &str) -> f64 {
    moss_of(&token_hashes(a), &token_hashes(b))
}

/// Greedy string tiling over two hashed token streams: the fraction of the
/// shorter stream covered by tiles of at least `min_match` tokens.
fn tile_coverage(ta: &[u64], tb: &[u64], min_match: usize) -> f64 {
    if ta.is_empty() || tb.is_empty() {
        return 0.0;
    }
    tiled_tokens(ta, tb, min_match.max(1)) as f64 / ta.len().min(tb.len()) as f64
}

/// The number of tokens greedy string tiling covers with tiles of at least
/// `k` tokens (`k >= 1`).
///
/// Each pass marks the longest common substring of unmarked tokens, the
/// first one in (i ascending, j ascending) order on ties, until none is `k`
/// tokens long.  A match of length `l >= k` at (i, j) starts with the same
/// `k`-gram on both sides, so a pass only visits the pairs whose `k`-grams
/// hash equal: the positions of `tb` are indexed once by `k`-gram hash.
/// The visited pairs come in the same (i, j) order as in a scan of all
/// n·m pairs, and every pair left out is shorter than `k`, so each pass
/// picks the same tile as that scan.
fn tiled_tokens(ta: &[u64], tb: &[u64], k: usize) -> usize {
    // `(hash, j)` for every k-gram of `tb`, sorted: the positions sharing
    // one hash form a run, in ascending order.
    let mut index: Vec<(u64, usize)> = kgram_hashes(tb, k)
        .into_iter()
        .enumerate()
        .map(|(j, h)| (h, j))
        .collect();
    index.sort_unstable();
    // `(i, run start, run end)` for every position of `ta` whose k-gram
    // hash occurs in `tb`, in ascending i.
    let seeds: Vec<(usize, usize, usize)> = kgram_hashes(ta, k)
        .into_iter()
        .enumerate()
        .filter_map(|(i, h)| {
            let lo = index.partition_point(|&(g, _)| g < h);
            let hi = index.partition_point(|&(g, _)| g <= h);
            (lo < hi).then_some((i, lo, hi))
        })
        .collect();
    let mut marked_a = vec![false; ta.len()];
    let mut marked_b = vec![false; tb.len()];
    let mut covered = 0;
    loop {
        let mut best_len = 0;
        let mut best = (0, 0);
        for &(i, lo, hi) in &seeds {
            if marked_a[i] {
                continue;
            }
            for &(_, j) in &index[lo..hi] {
                if marked_b[j] {
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
                    best = (i, j);
                }
            }
        }
        if best_len < k {
            return covered;
        }
        let (i, j) = best;
        marked_a[i..i + best_len].fill(true);
        marked_b[j..j + best_len].fill(true);
        covered += best_len;
    }
}

/// JPlag-style similarity: greedy string tiling over the normalized token
/// streams with the given minimum match length; returns the fraction of the
/// smaller stream covered by shared tiles.
pub fn greedy_string_tiling(a: &str, b: &str, min_match: usize) -> f64 {
    tile_coverage(&token_hashes(a), &token_hashes(b), min_match)
}

/// JPlag-style similarity with the conventional minimum match length of 9 tokens.
pub fn jplag_similarity(a: &str, b: &str) -> f64 {
    greedy_string_tiling(a, b, JPLAG_MIN_MATCH)
}

/// A combined similarity report between an original workload and its clone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityReport {
    /// Moss-style winnowing containment.
    pub moss: f64,
    /// JPlag-style greedy-string-tiling coverage.
    pub jplag: f64,
}

impl SimilarityReport {
    /// Compares two C source files with both detectors.
    ///
    /// Each source is tokenized and hashed once, for both detectors.
    pub fn compare(original: &str, synthetic: &str) -> Self {
        let (a, b) = (token_hashes(original), token_hashes(synthetic));
        SimilarityReport {
            moss: moss_of(&a, &b),
            jplag: tile_coverage(&a, &b, JPLAG_MIN_MATCH),
        }
    }

    /// The paper's criterion: neither tool reports meaningful similarity.
    /// `threshold` is the score above which one would investigate (Moss and
    /// JPlag typically flag pairs well above 0.5).
    pub fn hides_proprietary_information(&self, threshold: f64) -> bool {
        self.moss < threshold && self.jplag < threshold
    }
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const PROGRAM_A: &str = r#"
int fib(int n) {
  int a = 0, b = 1, i, sum = 0;
  for (i = 0; i < n; i++) {
    sum = a + b;
    if (sum < 0) { printf("overflow"); break; }
    a = b;
    b = sum;
  }
  return sum;
}
"#;

    /// PROGRAM_A with every identifier renamed — a plagiarism detector must
    /// still flag this as highly similar.
    const PROGRAM_A_RENAMED: &str = r#"
int sequence(int count) {
  int prev = 0, cur = 1, k, total = 0;
  for (k = 0; k < count; k++) {
    total = prev + cur;
    if (total < 0) { printf("overflow"); break; }
    prev = cur;
    cur = total;
  }
  return total;
}
"#;

    const PROGRAM_B: &str = r#"
unsigned int mStream0[256];
int i, j;
int f(void) {
  for (i = 0; i < 20; i++) {
    mStream0[4] = mStream0[7] + mStream0[2];
    if (mStream0[0] == 153) {
      for (j = 0; j < 256; j++) printf("%d;", mStream0[j]);
    }
    mStream0[6] = i;
    mStream0[7] = mStream0[6];
  }
  return 0;
}
"#;

    #[test]
    fn tokenizer_normalizes_identifiers_and_numbers() {
        let t1 = tokenize("int alpha = 42;");
        let t2 = tokenize("int beta = 7;");
        assert_eq!(t1, t2);
        let kw = tokenize("for (;;) {}");
        assert!(matches!(kw[0], Token::Keyword(_)));
    }

    #[test]
    fn self_similarity_is_one() {
        assert!(moss_similarity(PROGRAM_A, PROGRAM_A) > 0.99);
        assert!(jplag_similarity(PROGRAM_A, PROGRAM_A) > 0.99);
    }

    #[test]
    fn renaming_identifiers_does_not_fool_the_detectors() {
        assert!(
            moss_similarity(PROGRAM_A, PROGRAM_A_RENAMED) > 0.9,
            "winnowing is insensitive to renaming"
        );
        assert!(jplag_similarity(PROGRAM_A, PROGRAM_A_RENAMED) > 0.9);
    }

    #[test]
    fn structurally_different_programs_score_low() {
        let report = SimilarityReport::compare(PROGRAM_A, PROGRAM_B);
        assert!(report.moss < 0.5, "moss = {}", report.moss);
        assert!(report.jplag < 0.5, "jplag = {}", report.jplag);
        assert!(report.hides_proprietary_information(0.5));
    }

    #[test]
    fn similarity_is_symmetric_enough() {
        let ab = moss_similarity(PROGRAM_A, PROGRAM_B);
        let ba = moss_similarity(PROGRAM_B, PROGRAM_A);
        assert!((ab - ba).abs() < 1e-9);
        let jab = jplag_similarity(PROGRAM_A, PROGRAM_B);
        let jba = jplag_similarity(PROGRAM_B, PROGRAM_A);
        assert!((jab - jba).abs() < 1e-9);
    }

    #[test]
    fn empty_inputs_yield_zero() {
        assert_eq!(moss_similarity("", PROGRAM_A), 0.0);
        assert_eq!(jplag_similarity("", ""), 0.0);
        assert_eq!(greedy_string_tiling(PROGRAM_A, PROGRAM_A, 1_000_000), 0.0);
    }

    #[test]
    fn tokenizer_drops_trailing_line_comments() {
        assert_eq!(tokenize("x = 1; // y = 2; z = 3;"), tokenize("x = 1;"));
        assert_eq!(tokenize("// whole line\nx = 1;"), tokenize("x = 1;"));
        assert_eq!(tokenize("x = a / b;").len(), 6, "division stays a symbol");
    }

    #[test]
    fn tokenizer_drops_block_comments_across_lines() {
        assert_eq!(tokenize("x /* y = 2; */ = 1;"), tokenize("x = 1;"));
        assert_eq!(
            tokenize("x = 1; /* one\n  #define two\n  three; */ y = 2;"),
            tokenize("x = 1; y = 2;")
        );
        assert_eq!(tokenize("/*/ still a comment */ x;"), tokenize("x;"));
        assert_eq!(tokenize("/* unterminated\nx = 1;"), Vec::new());
    }

    #[test]
    fn tokenizer_keeps_escaped_quotes_inside_string_literals() {
        assert_eq!(
            tokenize(r#"printf("say \"hi\" ; x = 1;"); y = 2;"#),
            tokenize(r#"printf("s"); y = 2;"#)
        );
        assert_eq!(tokenize(r#"s = "a\\"; t;"#), tokenize(r#"s = "a"; t;"#));
    }

    /// A random stream over `alphabet` symbols, or (when `motif` is set) a
    /// short random motif repeated with occasional substitutions.
    fn stream(rng: &mut SmallRng, len: usize, alphabet: u64, motif: bool) -> Vec<u64> {
        if !motif {
            return (0..len).map(|_| rng.gen_range(0..alphabet)).collect();
        }
        let pattern: Vec<u64> = (0..rng.gen_range(1..7))
            .map(|_| rng.gen_range(0..alphabet))
            .collect();
        (0..len)
            .map(|p| {
                if rng.gen_bool(1.0 / 16.0) {
                    rng.gen_range(0..alphabet)
                } else {
                    pattern[p % pattern.len()]
                }
            })
            .collect()
    }

    fn assert_tiling_matches_scan(ta: &[u64], tb: &[u64], min_match: usize) {
        let seeded = tile_coverage(ta, tb, min_match);
        let scanned = oracle::scan_coverage(ta, tb, min_match);
        assert_eq!(
            seeded.to_bits(),
            scanned.to_bits(),
            "min_match {min_match}: seeded {seeded} vs scan {scanned}\na = {ta:?}\nb = {tb:?}"
        );
    }

    const MIN_MATCHES: [usize; 4] = [1, 2, 9, 1_000_000];

    #[test]
    fn seeded_tiling_matches_the_full_scan_on_random_streams() {
        let mut rng = SmallRng::seed_from_u64(0x5eed);
        for case in 0..240 {
            let alphabet = [1, 2, 3, 4, 8, 64][case % 6];
            let motif = case % 4 == 3;
            let la = rng.gen_range(0..120);
            let lb = rng.gen_range(0..120);
            let ta = stream(&mut rng, la, alphabet, motif);
            let tb = if case % 5 == 0 {
                // A mutated copy of `ta`: long shared runs, many ties.
                ta.iter()
                    .map(|&t| {
                        if rng.gen_bool(0.1) {
                            rng.gen_range(0..alphabet)
                        } else {
                            t
                        }
                    })
                    .collect()
            } else {
                stream(&mut rng, lb, alphabet, motif)
            };
            for k in MIN_MATCHES {
                assert_tiling_matches_scan(&ta, &tb, k);
            }
        }
    }

    #[test]
    fn seeded_tiling_matches_the_full_scan_on_empty_and_short_inputs() {
        let mut rng = SmallRng::seed_from_u64(7);
        let short: Vec<u64> = (0..8).map(|_| rng.gen_range(0..2)).collect();
        let long: Vec<u64> = (0..40).map(|_| rng.gen_range(0..2)).collect();
        for (ta, tb) in [
            (&[][..], &[][..]),
            (&[][..], &long[..]),
            (&long[..], &[][..]),
            (&short[..], &long[..]),
            (&long[..], &short[..]),
            (&short[..], &short[..]),
            (&long[..8], &long[..]),
        ] {
            for k in MIN_MATCHES {
                assert_tiling_matches_scan(ta, tb, k);
            }
        }
        assert_eq!(tile_coverage(&short, &short, 9), 0.0, "shorter than k");
    }

    #[test]
    fn seeded_tiling_matches_the_full_scan_on_the_example_programs() {
        let programs = [PROGRAM_A, PROGRAM_A_RENAMED, PROGRAM_B];
        for a in programs {
            for b in programs {
                let (ta, tb) = (token_hashes(a), token_hashes(b));
                for k in MIN_MATCHES {
                    assert_tiling_matches_scan(&ta, &tb, k);
                }
            }
        }
    }

    #[test]
    fn compare_equals_the_per_detector_functions() {
        for (a, b) in [(PROGRAM_A, PROGRAM_B), (PROGRAM_A, PROGRAM_A_RENAMED)] {
            let report = SimilarityReport::compare(a, b);
            assert_eq!(report.moss.to_bits(), moss_similarity(a, b).to_bits());
            assert_eq!(report.jplag.to_bits(), jplag_similarity(a, b).to_bits());
        }
    }
}
