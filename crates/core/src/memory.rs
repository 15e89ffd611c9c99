//! Synthetic memory-access generation (Table I of the paper).
//!
//! Every memory reference in the synthetic benchmark walks a pre-allocated
//! global array (`mStream0` … `mStream8`) with a stride chosen from the
//! profiled access's miss-rate class: class 0 re-touches the same cache line
//! (always hits), class 8 advances a full 32-byte line every iteration
//! (always misses once the working set exceeds the cache), and intermediate
//! classes interpolate, as in Table I.

use bsg_ir::hll::{BinOp, Expr, HllGlobal};
use bsg_profile::class_stride_bytes;

/// Number of miss-rate classes (Table I defines classes 0..=8).
pub const NUM_CLASSES: u8 = 9;

/// One row of Table I: the miss-rate range a class covers and the stride used
/// to regenerate it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StrideClass {
    /// Class index (0..=8).
    pub class: u8,
    /// Lower bound of the miss-rate range (inclusive).
    pub miss_rate_low: f64,
    /// Upper bound of the miss-rate range (exclusive, except class 8).
    pub miss_rate_high: f64,
    /// Stride in bytes.
    pub stride_bytes: u64,
}

/// The full Table I (assuming a 32-byte cache line and a 32-bit architecture).
pub fn table1() -> Vec<StrideClass> {
    (0..NUM_CLASSES)
        .map(|class| {
            let width = 1.0 / 8.0;
            let (low, high) = if class == 0 {
                (0.0, width / 2.0)
            } else if class == 8 {
                (1.0 - width / 2.0, 1.0)
            } else {
                (
                    class as f64 * width - width / 2.0,
                    class as f64 * width + width / 2.0,
                )
            };
            StrideClass {
                class,
                miss_rate_low: low,
                miss_rate_high: high,
                stride_bytes: class_stride_bytes(class),
            }
        })
        .collect()
}

/// Generates stride-pattern array references for the synthetic benchmark.
#[derive(Debug, Clone)]
pub struct MemoryGenerator {
    elems: usize,
    /// Per-class emission counter, used to give distinct streams distinct offsets.
    offsets: [u64; NUM_CLASSES as usize],
    /// Which classes have been used (so only the needed globals are declared).
    used: [bool; NUM_CLASSES as usize],
}

impl MemoryGenerator {
    /// Creates a generator whose stream arrays have `elems` 4-byte elements.
    ///
    /// The default (16384 elements = 64 KB per stream) comfortably exceeds the
    /// cache sizes studied in the paper, so the per-class miss rates hold.
    pub fn new(elems: usize) -> Self {
        MemoryGenerator {
            elems: elems.max(64),
            offsets: [0; 9],
            used: [false; 9],
        }
    }

    /// The stream array name for a class.
    pub fn stream_name(class: u8) -> String {
        format!("mStream{}", class.min(8))
    }

    /// Global declarations for every stream that has been referenced.
    pub fn globals(&self) -> Vec<HllGlobal> {
        (0u8..NUM_CLASSES)
            .filter(|c| self.used[*c as usize])
            .map(|c| HllGlobal::zeroed(Self::stream_name(c), self.elems))
            .collect()
    }

    /// Produces `(array_name, index_expression)` for one synthetic memory
    /// reference of the given miss-rate class.
    ///
    /// When `loop_var` is given, the index advances by the class's stride each
    /// iteration of that loop; otherwise a distinct constant element is used.
    pub fn reference(&mut self, class: u8, loop_var: Option<&str>) -> (String, Expr) {
        let class = class.min(8);
        self.used[class as usize] = true;
        let offset = self.offsets[class as usize];
        self.offsets[class as usize] = offset.wrapping_add(1);
        let stride_words = (class_stride_bytes(class) / 4) as i64;
        let name = Self::stream_name(class);
        let base = ((offset * 17) % self.elems as u64) as i64;
        let index = match (loop_var, stride_words) {
            (Some(var), s) if s > 0 => {
                // (var * stride + base) % elems
                Expr::bin(
                    BinOp::Rem,
                    Expr::add(Expr::mul(Expr::var(var), Expr::int(s)), Expr::int(base)),
                    Expr::int(self.elems as i64),
                )
            }
            // Class 0 (or straight-line code): a fixed element, always hitting
            // after the first touch.
            _ => Expr::int(base % 64),
        };
        (name, index)
    }

    /// Number of elements per stream.
    pub fn elems(&self) -> usize {
        self.elems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_profile::miss_rate_class;

    #[test]
    fn table1_matches_the_paper() {
        let t = table1();
        assert_eq!(t.len(), 9);
        assert_eq!(t[0].stride_bytes, 0);
        assert_eq!(t[1].stride_bytes, 4);
        assert_eq!(t[4].stride_bytes, 16);
        assert_eq!(t[8].stride_bytes, 32);
        assert!((t[0].miss_rate_high - 0.0625).abs() < 1e-12);
        assert!((t[4].miss_rate_low - 0.4375).abs() < 1e-12);
        assert!((t[8].miss_rate_high - 1.0).abs() < 1e-12);
        // The class boundaries agree with the classifier in bsg-profile.
        for row in &t {
            let mid = (row.miss_rate_low + row.miss_rate_high) / 2.0;
            assert_eq!(
                miss_rate_class(mid),
                row.class,
                "midpoint of class {}",
                row.class
            );
        }
    }

    #[test]
    fn references_use_the_right_stream_and_stride() {
        let mut g = MemoryGenerator::new(16384);
        let (name, idx) = g.reference(4, Some("i"));
        assert_eq!(name, "mStream4");
        let text = format!("{idx:?}");
        assert!(
            text.contains("Rem"),
            "strided reference uses a modulo index: {text}"
        );
        let (name0, idx0) = g.reference(0, Some("i"));
        assert_eq!(name0, "mStream0");
        assert!(matches!(idx0, Expr::Int(_)), "class 0 uses a fixed element");
        assert_eq!(g.globals().len(), 2);
        assert!(g.globals().iter().any(|gl| gl.name == "mStream4"));
    }

    #[test]
    fn distinct_references_get_distinct_offsets() {
        let mut g = MemoryGenerator::new(4096);
        let (_, a) = g.reference(2, Some("i"));
        let (_, b) = g.reference(2, Some("i"));
        assert_ne!(a, b);
        assert_eq!(g.globals().len(), 1, "same class shares one stream array");
    }

    #[test]
    fn out_of_range_classes_are_clamped() {
        let mut g = MemoryGenerator::new(1024);
        let (name, _) = g.reference(42, None);
        assert_eq!(name, "mStream8");
        assert_eq!(MemoryGenerator::stream_name(99), "mStream8");
    }
}
