//! Decoding counterpart of [`crate::canon`] — the disk artifact cache's
//! wire format.
//!
//! The canonical byte encoding was introduced for content addressing (hash
//! the stream, get a [`SourceId`](crate::canon)-style key).  Because it is
//! self-delimiting — every enum variant discriminant-tagged, every
//! collection length-prefixed — it is also a complete serialization, so the
//! disk tier of the artifact store persists artifacts as their canonical
//! bytes and decodes them with the [`Decanon`] trait defined here.
//!
//! Decoders are **total**: any byte stream either decodes to a value or
//! returns `None` — never a panic, never an out-of-bounds read, never an
//! unbounded allocation.  A truncated or bit-flipped cache file must degrade
//! to a rebuild, not take the harness down, so:
//!
//! * every read is bounds-checked against the remaining input;
//! * length prefixes are *not* trusted for pre-allocation (a corrupt length
//!   of `u64::MAX` reserves nothing; the element loop simply runs out of
//!   bytes and fails);
//! * unknown enum discriminants and invalid scalar encodings (`bool` bytes
//!   other than 0/1, non-UTF-8 strings) decode to `None`.
//!
//! The round-trip law, checked by the tests at the bottom and by the store's
//! own verification: for every `T: Canon + Decanon`,
//! `decanon(canon(x)) == Some(x)` and the decode consumes exactly the bytes
//! the encode produced.

use crate::canon::Canon;
use std::collections::{BTreeMap, BTreeSet};

/// Bounded cursor over a canonical byte stream.
pub struct CanonReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> CanonReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Self {
        CanonReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `true` once every input byte has been consumed (decoders for
    /// top-level artifacts require this, so trailing garbage is corruption).
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The next `n` bytes, or `None` past the end of input.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(chunk)
    }

    fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        self.take(N).map(|b| b.try_into().expect("exact length"))
    }

    /// One discriminant / scalar byte.
    pub fn byte(&mut self) -> Option<u8> {
        self.array::<1>().map(|[b]| b)
    }

    /// A little-endian length prefix.  The value is returned untrusted; use
    /// it only to bound a loop that itself reads (and therefore bounds-
    /// checks) each element.
    pub fn length_prefix(&mut self) -> Option<u64> {
        self.array::<8>().map(u64::from_le_bytes)
    }
}

/// Types decodable from their canonical byte encoding (see the module docs).
pub trait Decanon: Sized {
    /// Decodes one value, advancing the reader; `None` on any malformation.
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self>;
}

/// Encodes `value` to its canonical bytes.
pub fn to_canon_bytes<T: Canon + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.canon(&mut out);
    out
}

/// Decodes a value from a complete canonical byte stream, requiring every
/// input byte to be consumed (trailing garbage is treated as corruption).
pub fn from_canon_bytes<T: Decanon>(bytes: &[u8]) -> Option<T> {
    let mut r = CanonReader::new(bytes);
    let value = T::decanon(&mut r)?;
    r.is_exhausted().then_some(value)
}

macro_rules! impl_decanon_le {
    ($($t:ty),*) => {$(
        impl Decanon for $t {
            fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
                r.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}

impl_decanon_le!(u8, u16, u32, u64, i8, i16, i32, i64);

impl Decanon for usize {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        usize::try_from(u64::decanon(r)?).ok()
    }
}

impl Decanon for bool {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Decanon for f64 {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        u64::decanon(r).map(f64::from_bits)
    }
}

impl Decanon for String {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        let len = usize::try_from(r.length_prefix()?).ok()?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
}

impl<T: Decanon> Decanon for Option<T> {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        match r.byte()? {
            0 => Some(None),
            1 => T::decanon(r).map(Some),
            _ => None,
        }
    }
}

impl<T: Decanon> Decanon for Vec<T> {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        let len = r.length_prefix()?;
        // Don't trust the prefix for allocation: a corrupt length fails in
        // the element loop when the input runs dry, having reserved at most
        // one read's worth of memory per element actually present.
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(T::decanon(r)?);
        }
        Some(out)
    }
}

impl<T: Decanon> Decanon for Box<T> {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        T::decanon(r).map(Box::new)
    }
}

impl<A: Decanon, B: Decanon> Decanon for (A, B) {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        Some((A::decanon(r)?, B::decanon(r)?))
    }
}

impl<A: Decanon, B: Decanon, C: Decanon> Decanon for (A, B, C) {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        Some((A::decanon(r)?, B::decanon(r)?, C::decanon(r)?))
    }
}

impl<A: Decanon, B: Decanon, C: Decanon, D: Decanon> Decanon for (A, B, C, D) {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        Some((
            A::decanon(r)?,
            B::decanon(r)?,
            C::decanon(r)?,
            D::decanon(r)?,
        ))
    }
}

impl<K: Decanon + Ord, V: Decanon> Decanon for BTreeMap<K, V> {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        let len = r.length_prefix()?;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = K::decanon(r)?;
            let v = V::decanon(r)?;
            // Canon writes keys in strictly ascending order; a duplicate
            // would silently collapse, so reject it as corruption.
            if out.insert(k, v).is_some() {
                return None;
            }
        }
        Some(out)
    }
}

impl<T: Decanon + Ord> Decanon for BTreeSet<T> {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        let len = r.length_prefix()?;
        let mut out = BTreeSet::new();
        for _ in 0..len {
            if !out.insert(T::decanon(r)?) {
                return None;
            }
        }
        Some(out)
    }
}

/// Fixed-size arrays carry no length prefix (see [`Canon`] for `[T; N]`).
impl<T: Decanon, const N: usize> Decanon for [T; N] {
    fn decanon(r: &mut CanonReader<'_>) -> Option<Self> {
        let mut out = Vec::with_capacity(N);
        for _ in 0..N {
            out.push(T::decanon(r)?);
        }
        out.try_into().ok()
    }
}

/// Emits the paired [`Canon`] and [`Decanon`] impls of a type from one
/// field list, so encode and decode cannot disagree on order.
///
/// ```
/// # use bsg_ir::canon_codec;
/// # #[derive(Debug, PartialEq)] pub struct Pair { a: u32, b: String }
/// # #[derive(Debug, PartialEq)] pub struct Id(u32);
/// # #[derive(Debug, PartialEq)] pub enum Shape { Dot, Line(u32), Rect { w: u32, h: u32 } }
/// canon_codec!(struct Pair { a, b });
/// canon_codec!(struct Id(raw));
/// canon_codec!(enum Shape {
///     0 => Dot,
///     1 => Line(len),
///     2 => Rect { w, h },
/// });
/// # let v = Shape::Rect { w: 3, h: 4 };
/// # let bytes = bsg_ir::codec::to_canon_bytes(&v);
/// # assert_eq!(bsg_ir::codec::from_canon_bytes::<Shape>(&bytes), Some(v));
/// ```
///
/// * Named-field structs list their fields; tuple structs (newtypes) name
///   their positions.  Fields are encoded in list order.
/// * Enum variants each carry an **explicit discriminant byte**, written
///   before the variant's fields, so reordering the declaration cannot move
///   the format.  Duplicate discriminants fail to compile.
/// * Encode destructures `Self` with no `..` and decode builds it with a
///   struct literal, so a field or variant missing from the list is a
///   compile error in both directions.
///
/// Changing a list (order, fields or discriminants) changes the disk and
/// wire format: bump the format versions and re-pin the format test.
#[macro_export]
macro_rules! canon_codec {
    (struct $name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::canon::Canon for $name {
            fn canon(&self, w: &mut dyn $crate::canon::CanonWrite) {
                let $name { $($field),* } = self;
                $($crate::canon::Canon::canon($field, w);)*
            }
        }

        impl $crate::codec::Decanon for $name {
            fn decanon(r: &mut $crate::codec::CanonReader<'_>) -> Option<Self> {
                Some($name { $($field: $crate::codec::Decanon::decanon(r)?),* })
            }
        }
    };
    (struct $name:ident ( $($field:ident),* $(,)? )) => {
        impl $crate::canon::Canon for $name {
            fn canon(&self, w: &mut dyn $crate::canon::CanonWrite) {
                let $name($($field),*) = self;
                $($crate::canon::Canon::canon($field, w);)*
            }
        }

        impl $crate::codec::Decanon for $name {
            fn decanon(r: &mut $crate::codec::CanonReader<'_>) -> Option<Self> {
                $(let $field = $crate::codec::Decanon::decanon(r)?;)*
                Some($name($($field),*))
            }
        }
    };
    (enum $name:ident {
        $($disc:literal => $variant:ident
            $(( $($tfield:ident),* $(,)? ))?
            $({ $($sfield:ident),* $(,)? })?
        ),* $(,)?
    }) => {
        const _: () = $crate::codec::assert_distinct_discriminants(&[$($disc),*]);

        impl $crate::canon::Canon for $name {
            fn canon(&self, w: &mut dyn $crate::canon::CanonWrite) {
                match self {
                    $($name::$variant $(($($tfield),*))? $({ $($sfield),* })? => {
                        w.write(&[$disc]);
                        $($($crate::canon::Canon::canon($tfield, w);)*)?
                        $($($crate::canon::Canon::canon($sfield, w);)*)?
                    })*
                }
            }
        }

        impl $crate::codec::Decanon for $name {
            fn decanon(r: &mut $crate::codec::CanonReader<'_>) -> Option<Self> {
                match r.byte()? {
                    $($disc => {
                        $($(let $tfield = $crate::codec::Decanon::decanon(r)?;)*)?
                        $($(let $sfield = $crate::codec::Decanon::decanon(r)?;)*)?
                        Some($name::$variant $(($($tfield),*))? $({ $($sfield),* })?)
                    })*
                    _ => None,
                }
            }
        }
    };
}

/// Compile-time check behind [`canon_codec!`]: no two variants of one enum
/// may share a discriminant byte.
#[doc(hidden)]
pub const fn assert_distinct_discriminants(discriminants: &[u8]) {
    let mut i = 0;
    while i < discriminants.len() {
        let mut j = i + 1;
        while j < discriminants.len() {
            assert!(
                discriminants[i] != discriminants[j],
                "canon_codec!: duplicate enum discriminant"
            );
            j += 1;
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::FunctionBuilder;
    use crate::hll::{Expr, HllGlobal, HllProgram, Stmt};
    use crate::program::{Function, Global, Program};
    use crate::types::{BlockId, FuncId, Ty, Value};
    use crate::visa::{Address, Inst, Operand, Terminator, UnOp};

    fn roundtrip<T: Canon + Decanon + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_canon_bytes(value);
        let back: T = from_canon_bytes(&bytes).expect("decodes");
        assert_eq!(&back, value);
        assert_eq!(to_canon_bytes(&back), bytes, "re-encode is stable");
    }

    fn sample_hll() -> HllProgram {
        let mut p = HllProgram::new();
        p.add_global(HllGlobal::with_values("tbl", vec![1, 2, 3]));
        p.add_global(HllGlobal::float_zeroed("fs", 8));
        let mut f = FunctionBuilder::new("main");
        f.float_var("x");
        f.assign_var("x", Expr::float(-0.0));
        f.for_loop("i", Expr::int(0), Expr::int(10), |b| {
            b.assign_index(
                "tbl",
                Expr::var("i"),
                Expr::add(Expr::var("i"), Expr::int(7)),
            );
            b.if_then(Expr::lt(Expr::var("i"), Expr::int(5)), |t| {
                t.assign_var("s", Expr::add(Expr::var("s"), Expr::var("i")));
            });
        });
        f.print(Expr::var("s"));
        f.ret(Some(Expr::var("s")));
        p.add_function(f.finish());
        p
    }

    #[test]
    fn hll_programs_roundtrip() {
        roundtrip(&sample_hll());
    }

    #[test]
    fn visa_programs_roundtrip() {
        let compiled_shape = {
            let mut p = Program::new();
            let g = p.add_global(Global::zeroed("data", 64));
            let mut f = Function::new("main");
            let a = f.fresh_reg();
            let b = f.fresh_reg();
            let body = f.add_block();
            f.blocks[0].insts = vec![
                Inst::Mov {
                    dst: a,
                    src: Operand::ImmInt(0),
                },
                Inst::Un {
                    op: UnOp::ToFloat,
                    ty: Ty::Float,
                    dst: b,
                    src: a.into(),
                },
            ];
            f.blocks[0].term = Terminator::Jump(body);
            f.blocks[body.index()].insts = vec![
                Inst::Load {
                    dst: a,
                    addr: Address::global_indexed(g, 4, b, 2),
                    ty: Ty::Int,
                },
                Inst::Store {
                    src: Operand::ImmFloat(f64::NAN),
                    addr: Address::frame(3),
                    ty: Ty::Float,
                },
                Inst::Call {
                    func: FuncId(0),
                    args: vec![a.into(), Operand::ImmInt(-7)],
                    dst: Some(b),
                },
                Inst::Print { src: a.into() },
                Inst::Nop,
            ];
            f.blocks[body.index()].term = Terminator::Branch {
                cond: a,
                taken: BlockId(0),
                not_taken: body,
            };
            p.add_function(f);
            p
        };
        // NaN != NaN under PartialEq, so compare canonical bytes instead.
        let bytes = to_canon_bytes(&compiled_shape);
        let back: Program = from_canon_bytes(&bytes).expect("decodes");
        assert_eq!(to_canon_bytes(&back), bytes);
    }

    #[test]
    fn truncated_and_garbage_inputs_decode_to_none() {
        let bytes = to_canon_bytes(&sample_hll());
        for cut in [0, 1, 7, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                from_canon_bytes::<HllProgram>(&bytes[..cut]).is_none(),
                "truncation at {cut} must not decode"
            );
        }
        let mut garbage = bytes.clone();
        garbage.push(0);
        assert!(
            from_canon_bytes::<HllProgram>(&garbage).is_none(),
            "trailing bytes are corruption"
        );
        assert!(from_canon_bytes::<Stmt>(&[9]).is_none(), "bad discriminant");
        assert!(from_canon_bytes::<bool>(&[2]).is_none(), "bad bool");
    }

    #[test]
    fn corrupt_length_prefixes_do_not_allocate_unboundedly() {
        // A Vec claiming u64::MAX elements must fail fast when the input
        // runs dry, not reserve memory up front.
        let mut bytes = u64::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[1, 2, 3]);
        assert!(from_canon_bytes::<Vec<u64>>(&bytes).is_none());
    }

    #[test]
    fn scalar_edge_cases_roundtrip() {
        roundtrip(&i64::MIN);
        roundtrip(&u64::MAX);
        roundtrip(&Value::Float(-0.0));
        roundtrip(&String::from("päper"));
        roundtrip(&Some(vec![(1u32, String::from("x"))]));
        roundtrip(&[7u32, 8, 9]);
        assert_eq!(
            to_canon_bytes(&[7u32, 8, 9]).len(),
            3 * 4,
            "fixed-size arrays carry no length prefix"
        );
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let bytes = to_canon_bytes(&nan);
        let back: f64 = from_canon_bytes(&bytes).expect("decodes");
        assert_eq!(back.to_bits(), nan.to_bits(), "NaN payload preserved");
    }
}
