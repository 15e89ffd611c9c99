//! Fundamental identifier and value types shared by the HLL and VISA layers.

use std::fmt;

/// A virtual (or, after register allocation, architectural) register index.
///
/// Registers are function-local: register `r3` in one function is unrelated
/// to `r3` in another function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u32);

crate::canon_codec!(struct Reg(id));

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Index of a basic block within its [`Function`](crate::program::Function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

crate::canon_codec!(struct BlockId(id));

impl BlockId {
    /// Returns the block id as a `usize` for indexing into `Function::blocks`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Index of a function within a [`Program`](crate::program::Program).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

crate::canon_codec!(struct FuncId(id));

impl FuncId {
    /// Returns the function id as a `usize` for indexing into `Program::functions`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

/// Index of a global (statically allocated array) within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

crate::canon_codec!(struct GlobalId(id));

impl GlobalId {
    /// Returns the global id as a `usize` for indexing into `Program::globals`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for GlobalId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// Scalar types supported by the virtual machine.
///
/// The paper targets 32-bit embedded machines (MiBench); we model integers as
/// 64-bit two's-complement values wrapping at 32 bits only where the workload
/// requires it, and floating point as IEEE-754 double precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Ty {
    /// Integer scalar (stored as `i64`).
    #[default]
    Int,
    /// Floating-point scalar (stored as `f64`).
    Float,
}

crate::canon_codec!(enum Ty {
    0 => Int,
    1 => Float,
});

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Ty::Int => write!(f, "int"),
            Ty::Float => write!(f, "double"),
        }
    }
}

/// A dynamic value manipulated by the functional executor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Integer value.
    Int(i64),
    /// Floating-point value.
    Float(f64),
}

crate::canon_codec!(enum Value {
    0 => Int(v),
    1 => Float(v),
});

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl Value {
    /// Interprets the value as an integer, truncating floats toward zero.
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(i) => i,
            Value::Float(f) => f as i64,
        }
    }

    /// Interprets the value as a float, converting integers exactly where possible.
    pub fn as_float(self) -> f64 {
        match self {
            Value::Int(i) => i as f64,
            Value::Float(f) => f,
        }
    }

    /// Returns `true` if the value is "truthy" (non-zero).
    pub fn is_true(self) -> bool {
        match self {
            Value::Int(i) => i != 0,
            Value::Float(f) => f != 0.0,
        }
    }

    /// The type of the value.
    pub fn ty(self) -> Ty {
        match self {
            Value::Int(_) => Ty::Int,
            Value::Float(_) => Ty::Float,
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
        }
    }
}

/// Number of bytes per machine word assumed throughout the workspace.
///
/// The paper assumes a 32-bit architecture and a 32-byte cache line
/// (Table I); all addresses handed to the cache simulator are in units of
/// bytes with each scalar occupying one word.
pub const WORD_BYTES: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int(7).as_int(), 7);
        assert_eq!(Value::Int(7).as_float(), 7.0);
        assert_eq!(Value::Float(2.5).as_int(), 2);
        assert_eq!(Value::Float(2.5).as_float(), 2.5);
        assert_eq!(Value::from(3i64), Value::Int(3));
        assert_eq!(Value::from(3.5f64), Value::Float(3.5));
    }

    #[test]
    fn value_truthiness() {
        assert!(Value::Int(1).is_true());
        assert!(!Value::Int(0).is_true());
        assert!(Value::Float(0.1).is_true());
        assert!(!Value::Float(0.0).is_true());
    }

    #[test]
    fn value_types() {
        assert_eq!(Value::Int(0).ty(), Ty::Int);
        assert_eq!(Value::Float(0.0).ty(), Ty::Float);
        assert_eq!(Value::default(), Value::Int(0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Reg(4).to_string(), "r4");
        assert_eq!(BlockId(2).to_string(), "bb2");
        assert_eq!(FuncId(1).to_string(), "fn1");
        assert_eq!(GlobalId(0).to_string(), "g0");
        assert_eq!(Ty::Int.to_string(), "int");
        assert_eq!(Ty::Float.to_string(), "double");
        assert_eq!(Value::Int(-3).to_string(), "-3");
    }

    #[test]
    fn id_indexing() {
        assert_eq!(BlockId(5).index(), 5);
        assert_eq!(FuncId(5).index(), 5);
        assert_eq!(GlobalId(5).index(), 5);
    }
}
