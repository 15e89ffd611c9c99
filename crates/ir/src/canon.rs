//! Canonical byte encoding for content addressing.
//!
//! The artifact store (`bsg-runtime`) keys compiled programs, profiles and
//! synthesis results by a structural hash of their source.  Hashing a
//! `Debug` rendering — the original scheme — is not injective: every `f64`
//! NaN payload renders as the three characters `NaN`, so two sources that
//! differ only in NaN bits share one rendering (and therefore one cache
//! entry, silently serving the wrong artifact).  String-ish renderings are
//! also only as unambiguous as the formatter's escaping happens to be.
//!
//! [`Canon`] instead emits an explicit, self-delimiting byte encoding:
//!
//! * every enum variant writes a **discriminant byte** before its fields;
//! * every variable-length collection (strings, vectors, maps) writes its
//!   **length as a little-endian `u64` prefix** before its elements;
//! * scalars write their fixed-width little-endian bytes; floats write
//!   `to_bits()`, so every NaN payload, signed zero and subnormal is
//!   distinct.
//!
//! Two values of the same type produce the same byte stream iff they are
//! structurally equal, so a 128-bit hash of the stream is a sound content
//! address (up to hash collisions).  The encoding is independent of
//! formatter internals and stable across processes and platforms.

use std::collections::{BTreeMap, BTreeSet};

/// Byte sink for the canonical encoding (implemented by hashers).
pub trait CanonWrite {
    /// Consumes the next chunk of the canonical byte stream.
    fn write(&mut self, bytes: &[u8]);
}

/// A `Vec<u8>` sink, convenient for tests and debugging.
impl CanonWrite for Vec<u8> {
    fn write(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Types with a canonical, injective byte encoding (see the module docs).
pub trait Canon {
    /// Writes `self`'s canonical bytes to `w`.
    fn canon(&self, w: &mut dyn CanonWrite);
}

/// Writes a length prefix (little-endian `u64`).
pub fn put_len(w: &mut dyn CanonWrite, len: usize) {
    w.write(&(len as u64).to_le_bytes());
}

macro_rules! impl_canon_le {
    ($($t:ty),*) => {$(
        impl Canon for $t {
            fn canon(&self, w: &mut dyn CanonWrite) {
                w.write(&self.to_le_bytes());
            }
        }
    )*};
}

impl_canon_le!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Canon for usize {
    fn canon(&self, w: &mut dyn CanonWrite) {
        w.write(&(*self as u64).to_le_bytes());
    }
}

impl Canon for bool {
    fn canon(&self, w: &mut dyn CanonWrite) {
        w.write(&[u8::from(*self)]);
    }
}

impl Canon for f64 {
    fn canon(&self, w: &mut dyn CanonWrite) {
        // to_bits distinguishes every NaN payload and -0.0 from 0.0 — the
        // injectivity holes of the Debug rendering.
        w.write(&self.to_bits().to_le_bytes());
    }
}

impl Canon for str {
    fn canon(&self, w: &mut dyn CanonWrite) {
        put_len(w, self.len());
        w.write(self.as_bytes());
    }
}

impl Canon for String {
    fn canon(&self, w: &mut dyn CanonWrite) {
        self.as_str().canon(w);
    }
}

impl<T: Canon> Canon for Option<T> {
    fn canon(&self, w: &mut dyn CanonWrite) {
        match self {
            None => w.write(&[0]),
            Some(v) => {
                w.write(&[1]);
                v.canon(w);
            }
        }
    }
}

impl<T: Canon> Canon for [T] {
    fn canon(&self, w: &mut dyn CanonWrite) {
        put_len(w, self.len());
        for v in self {
            v.canon(w);
        }
    }
}

/// Fixed-size arrays write their elements with **no** length prefix: the
/// length is part of the type, so every value of it has the same shape.
impl<T: Canon, const N: usize> Canon for [T; N] {
    fn canon(&self, w: &mut dyn CanonWrite) {
        for v in self {
            v.canon(w);
        }
    }
}

impl<T: Canon> Canon for Vec<T> {
    fn canon(&self, w: &mut dyn CanonWrite) {
        self.as_slice().canon(w);
    }
}

impl<T: Canon + ?Sized> Canon for &T {
    fn canon(&self, w: &mut dyn CanonWrite) {
        (**self).canon(w);
    }
}

impl<T: Canon> Canon for Box<T> {
    fn canon(&self, w: &mut dyn CanonWrite) {
        (**self).canon(w);
    }
}

impl<A: Canon, B: Canon> Canon for (A, B) {
    fn canon(&self, w: &mut dyn CanonWrite) {
        self.0.canon(w);
        self.1.canon(w);
    }
}

impl<A: Canon, B: Canon, C: Canon> Canon for (A, B, C) {
    fn canon(&self, w: &mut dyn CanonWrite) {
        self.0.canon(w);
        self.1.canon(w);
        self.2.canon(w);
    }
}

impl<A: Canon, B: Canon, C: Canon, D: Canon> Canon for (A, B, C, D) {
    fn canon(&self, w: &mut dyn CanonWrite) {
        self.0.canon(w);
        self.1.canon(w);
        self.2.canon(w);
        self.3.canon(w);
    }
}

impl<K: Canon, V: Canon> Canon for BTreeMap<K, V> {
    fn canon(&self, w: &mut dyn CanonWrite) {
        put_len(w, self.len());
        for (k, v) in self {
            k.canon(w);
            v.canon(w);
        }
    }
}

impl<T: Canon> Canon for BTreeSet<T> {
    fn canon(&self, w: &mut dyn CanonWrite) {
        put_len(w, self.len());
        for v in self {
            v.canon(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hll::{Expr, HllFunction, HllGlobal, HllProgram, Stmt};
    use crate::types::Value;

    fn bytes<T: Canon + ?Sized>(v: &T) -> Vec<u8> {
        let mut out = Vec::new();
        v.canon(&mut out);
        out
    }

    #[test]
    fn scalars_are_fixed_width_and_strings_length_prefixed() {
        assert_eq!(bytes(&1u64).len(), 8);
        assert_eq!(bytes(&(-1i64)).len(), 8);
        assert_eq!(bytes(&1.5f64).len(), 8);
        assert_eq!(bytes("ab").len(), 8 + 2);
        assert_ne!(bytes("ab"), bytes("ba"));
    }

    #[test]
    fn nan_payloads_are_distinct() {
        let a = f64::from_bits(0x7ff8_0000_0000_0000);
        let b = f64::from_bits(0x7ff8_0000_0000_0001);
        assert_eq!(format!("{a:?}"), format!("{b:?}"), "Debug collides");
        assert_ne!(bytes(&a), bytes(&b), "canonical encoding must not");
    }

    #[test]
    fn adjacent_strings_do_not_merge() {
        // Without length prefixes, ("ab", "c") and ("a", "bc") would emit
        // identical byte streams.
        let x = (String::from("ab"), String::from("c"));
        let y = (String::from("a"), String::from("bc"));
        assert_ne!(bytes(&x), bytes(&y));
    }

    #[test]
    fn enum_variants_are_discriminated() {
        assert_ne!(bytes(&Expr::Int(0)), bytes(&Expr::Float(0.0)));
        assert_ne!(bytes(&Value::Int(0)), bytes(&Value::Float(0.0)));
        assert_ne!(bytes(&Stmt::Break), bytes(&Stmt::Continue));
    }

    #[test]
    fn programs_encode_structurally() {
        let mut p = HllProgram::new();
        p.add_global(HllGlobal::zeroed("g", 4));
        let mut f = HllFunction::new("main");
        f.body.push(Stmt::Return(Some(Expr::int(1))));
        p.add_function(f);
        assert_eq!(bytes(&p), bytes(&p.clone()));
        let mut q = p.clone();
        q.functions[0].body[0] = Stmt::Return(Some(Expr::int(2)));
        assert_ne!(bytes(&p), bytes(&q));
    }
}
