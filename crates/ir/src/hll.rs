//! The C-like high-level language (HLL) in which original workloads and
//! synthetic benchmark clones are expressed.
//!
//! The paper's central claim is that synthetic benchmarks generated *in a
//! high-level programming language* can be used across instruction-set
//! architectures **and** compilers.  In this reproduction the HLL plays the
//! role of C: the MiBench-like workloads (`bsg-workloads`) are written in it,
//! the synthesizer (`bsg-synth`) emits it, the compiler (`bsg-compiler`)
//! lowers it at optimization levels `O0`–`O3`, and [`crate::cemit`] renders it
//! as C source text for the plagiarism-detection experiments.

use crate::types::{Ty, Value};

pub use crate::visa::{BinOp, UnOp};

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer literal.
    Int(i64),
    /// Floating-point literal.
    Float(f64),
    /// Scalar variable reference (local, parameter, or scalar global).
    Var(String),
    /// Array element `name[index]` of a global array.
    Index(String, Box<Expr>),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Call to a function that returns a value.
    Call(String, Vec<Expr>),
}

crate::canon_codec!(enum Expr {
    0 => Int(v),
    1 => Float(v),
    2 => Var(name),
    3 => Index(array, idx),
    4 => Bin(op, lhs, rhs),
    5 => Un(op, arg),
    6 => Call(name, args),
});

impl Expr {
    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Int(v)
    }

    /// Floating-point literal.
    pub fn float(v: f64) -> Expr {
        Expr::Float(v)
    }

    /// Variable reference.
    pub fn var(name: impl Into<String>) -> Expr {
        Expr::Var(name.into())
    }

    /// Array indexing expression.
    pub fn index(array: impl Into<String>, idx: Expr) -> Expr {
        Expr::Index(array.into(), Box::new(idx))
    }

    /// Binary operation.
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Unary operation.
    pub fn un(op: UnOp, e: Expr) -> Expr {
        Expr::Un(op, Box::new(e))
    }

    /// Function call expression.
    pub fn call(name: impl Into<String>, args: Vec<Expr>) -> Expr {
        Expr::Call(name.into(), args)
    }

    /// Convenience: `lhs + rhs`.
    #[allow(clippy::should_implement_trait)] // static constructor, not an operator impl
    pub fn add(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, lhs, rhs)
    }

    /// Convenience: `lhs - rhs`.
    #[allow(clippy::should_implement_trait)] // static constructor, not an operator impl
    pub fn sub(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, lhs, rhs)
    }

    /// Convenience: `lhs * rhs`.
    #[allow(clippy::should_implement_trait)] // static constructor, not an operator impl
    pub fn mul(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, lhs, rhs)
    }

    /// Convenience: `lhs < rhs`.
    pub fn lt(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, lhs, rhs)
    }

    /// Convenience: `lhs == rhs`.
    pub fn eq(lhs: Expr, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, lhs, rhs)
    }

    /// Returns every variable name mentioned in the expression (scalars only,
    /// not array base names).
    pub fn referenced_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Int(_) | Expr::Float(_) => {}
            Expr::Var(v) => out.push(v.clone()),
            Expr::Index(_, idx) => idx.referenced_vars(out),
            Expr::Bin(_, a, b) => {
                a.referenced_vars(out);
                b.referenced_vars(out);
            }
            Expr::Un(_, a) => a.referenced_vars(out),
            Expr::Call(_, args) => {
                for a in args {
                    a.referenced_vars(out);
                }
            }
        }
    }

    /// Number of nodes in the expression tree (a rough size metric used by
    /// tests and by the synthesizer's statement-budget accounting).
    pub fn size(&self) -> usize {
        match self {
            Expr::Int(_) | Expr::Float(_) | Expr::Var(_) => 1,
            Expr::Index(_, idx) => 1 + idx.size(),
            Expr::Bin(_, a, b) => 1 + a.size() + b.size(),
            Expr::Un(_, a) => 1 + a.size(),
            Expr::Call(_, args) => 1 + args.iter().map(Expr::size).sum::<usize>(),
        }
    }
}

/// An assignable location.
#[derive(Debug, Clone, PartialEq)]
pub enum LValue {
    /// A scalar variable.
    Var(String),
    /// An element of a global array.
    Index(String, Box<Expr>),
}

crate::canon_codec!(enum LValue {
    0 => Var(name),
    1 => Index(array, idx),
});

impl LValue {
    /// Scalar variable l-value.
    pub fn var(name: impl Into<String>) -> LValue {
        LValue::Var(name.into())
    }

    /// Array element l-value.
    pub fn index(array: impl Into<String>, idx: Expr) -> LValue {
        LValue::Index(array.into(), Box::new(idx))
    }
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `target = value;`
    Assign {
        /// Assignment target.
        target: LValue,
        /// Assigned value.
        value: Expr,
    },
    /// `if (cond) { then } else { otherwise }` (else may be empty).
    If {
        /// Branch condition.
        cond: Expr,
        /// Then branch.
        then_branch: Vec<Stmt>,
        /// Else branch (possibly empty).
        else_branch: Vec<Stmt>,
    },
    /// `while (cond) { body }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// `for (var = init; var < limit; var = var + step) { body }`
    ///
    /// The canonical counted loop produced both by the workload builders and
    /// by the benchmark synthesizer (the paper's clones consist of `for`
    /// loops whose trip counts come from the scaled-down SFGL).
    For {
        /// Induction variable name.
        var: String,
        /// Initial value.
        init: Expr,
        /// Exclusive upper bound (loop runs while `var < limit`).
        limit: Expr,
        /// Step added each iteration (must evaluate to a positive value).
        step: Expr,
        /// Loop body.
        body: Vec<Stmt>,
    },
    /// A call whose result (if any) is discarded or assigned.
    Call {
        /// Callee name.
        name: String,
        /// Arguments.
        args: Vec<Expr>,
        /// Optional destination for the return value.
        dst: Option<LValue>,
    },
    /// `return expr;` / `return;`
    Return(Option<Expr>),
    /// `printf("%d", expr);` — the observable-output sink used to keep
    /// computation alive through compiler optimization (§III-B.4).
    Print(Expr),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
}

crate::canon_codec!(enum Stmt {
    0 => Assign { target, value },
    1 => If { cond, then_branch, else_branch },
    2 => While { cond, body },
    3 => For { var, init, limit, step, body },
    4 => Call { name, args, dst },
    5 => Return(value),
    6 => Print(value),
    7 => Break,
    8 => Continue,
});

impl Stmt {
    /// `target = value;` convenience constructor.
    pub fn assign(target: LValue, value: Expr) -> Stmt {
        Stmt::Assign { target, value }
    }

    /// Assignment to a scalar variable.
    pub fn assign_var(name: impl Into<String>, value: Expr) -> Stmt {
        Stmt::Assign {
            target: LValue::var(name),
            value,
        }
    }

    /// Number of statements in this statement's subtree (including itself).
    pub fn size(&self) -> usize {
        match self {
            Stmt::If {
                then_branch,
                else_branch,
                ..
            } => 1 + stmts_size(then_branch) + stmts_size(else_branch),
            Stmt::While { body, .. } | Stmt::For { body, .. } => 1 + stmts_size(body),
            _ => 1,
        }
    }
}

/// Total number of statements in a statement list (recursively).
pub fn stmts_size(stmts: &[Stmt]) -> usize {
    stmts.iter().map(Stmt::size).sum()
}

/// A global array declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct HllGlobal {
    /// Array name.
    pub name: String,
    /// Number of elements.
    pub elems: usize,
    /// Element type.
    pub ty: Ty,
    /// Initial values (missing elements are zero).
    pub init: Vec<Value>,
    /// When `true`, elements are initialized to `0, 1, 2, ...` regardless of `init`.
    pub iota: bool,
}

crate::canon_codec!(struct HllGlobal { name, elems, ty, init, iota });

impl HllGlobal {
    /// Zero-initialized integer array.
    pub fn zeroed(name: impl Into<String>, elems: usize) -> Self {
        HllGlobal {
            name: name.into(),
            elems,
            ty: Ty::Int,
            init: Vec::new(),
            iota: false,
        }
    }

    /// Integer array initialized to `0, 1, 2, ...`.
    pub fn iota(name: impl Into<String>, elems: usize) -> Self {
        HllGlobal {
            name: name.into(),
            elems,
            ty: Ty::Int,
            init: Vec::new(),
            iota: true,
        }
    }

    /// Integer array with explicit initial values.
    pub fn with_values(name: impl Into<String>, values: Vec<i64>) -> Self {
        HllGlobal {
            name: name.into(),
            elems: values.len(),
            ty: Ty::Int,
            init: values.into_iter().map(Value::Int).collect(),
            iota: false,
        }
    }

    /// Floating-point array with explicit initial values.
    pub fn with_float_values(name: impl Into<String>, values: Vec<f64>) -> Self {
        HllGlobal {
            name: name.into(),
            elems: values.len(),
            ty: Ty::Float,
            init: values.into_iter().map(Value::Float).collect(),
            iota: false,
        }
    }

    /// Zero-initialized floating-point array.
    pub fn float_zeroed(name: impl Into<String>, elems: usize) -> Self {
        HllGlobal {
            name: name.into(),
            elems,
            ty: Ty::Float,
            init: Vec::new(),
            iota: false,
        }
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct HllFunction {
    /// Function name.
    pub name: String,
    /// Parameter names (all parameters are integer scalars unless listed in
    /// `float_vars`).
    pub params: Vec<String>,
    /// Names of variables (locals or params) that hold floating-point values.
    pub float_vars: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
}

crate::canon_codec!(struct HllFunction { name, params, float_vars, body });

impl HllFunction {
    /// Creates an empty function.
    pub fn new(name: impl Into<String>) -> Self {
        HllFunction {
            name: name.into(),
            params: Vec::new(),
            float_vars: Vec::new(),
            body: Vec::new(),
        }
    }

    /// Total statement count (recursively).
    pub fn stmt_count(&self) -> usize {
        stmts_size(&self.body)
    }
}

/// A whole HLL program (translation unit).
#[derive(Debug, Clone, PartialEq)]
pub struct HllProgram {
    /// Global arrays.
    pub globals: Vec<HllGlobal>,
    /// Function definitions.
    pub functions: Vec<HllFunction>,
    /// Name of the entry function.
    pub entry: String,
}

crate::canon_codec!(struct HllProgram { globals, functions, entry });

impl HllProgram {
    /// Creates an empty program whose entry point is `main`.
    pub fn new() -> Self {
        HllProgram {
            globals: Vec::new(),
            functions: Vec::new(),
            entry: "main".to_string(),
        }
    }

    /// Creates a program consisting of a single entry function.
    pub fn with_main(main: HllFunction) -> Self {
        let entry = main.name.clone();
        HllProgram {
            globals: Vec::new(),
            functions: vec![main],
            entry,
        }
    }

    /// Adds a global array.
    pub fn add_global(&mut self, g: HllGlobal) -> &mut Self {
        self.globals.push(g);
        self
    }

    /// Adds a function definition.
    pub fn add_function(&mut self, f: HllFunction) -> &mut Self {
        self.functions.push(f);
        self
    }

    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&HllFunction> {
        self.functions.iter().find(|f| f.name == name)
    }

    /// Looks up a global by name.
    pub fn global(&self, name: &str) -> Option<&HllGlobal> {
        self.globals.iter().find(|g| g.name == name)
    }

    /// Total statement count across all functions.
    pub fn stmt_count(&self) -> usize {
        self.functions.iter().map(HllFunction::stmt_count).sum()
    }
}

impl Default for HllProgram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_constructors_and_size() {
        let e = Expr::add(
            Expr::var("a"),
            Expr::mul(Expr::int(2), Expr::index("g", Expr::var("i"))),
        );
        assert_eq!(e.size(), 6);
        let mut vars = Vec::new();
        e.referenced_vars(&mut vars);
        assert_eq!(vars, vec!["a".to_string(), "i".to_string()]);
    }

    #[test]
    fn stmt_size_recurses() {
        let s = Stmt::For {
            var: "i".into(),
            init: Expr::int(0),
            limit: Expr::int(10),
            step: Expr::int(1),
            body: vec![
                Stmt::assign_var("x", Expr::var("i")),
                Stmt::If {
                    cond: Expr::lt(Expr::var("x"), Expr::int(5)),
                    then_branch: vec![Stmt::Print(Expr::var("x"))],
                    else_branch: vec![],
                },
            ],
        };
        assert_eq!(s.size(), 4);
        assert_eq!(stmts_size(&[s.clone(), Stmt::Return(None)]), 5);
    }

    #[test]
    fn program_lookup() {
        let mut p = HllProgram::new();
        p.add_global(HllGlobal::zeroed("buf", 32));
        let mut f = HllFunction::new("main");
        f.body.push(Stmt::Return(Some(Expr::int(0))));
        p.add_function(f);
        assert!(p.function("main").is_some());
        assert!(p.function("other").is_none());
        assert!(p.global("buf").is_some());
        assert!(p.global("nope").is_none());
        assert_eq!(p.stmt_count(), 1);
    }

    #[test]
    fn global_constructors() {
        let g = HllGlobal::with_values("t", vec![1, 2, 3]);
        assert_eq!(g.elems, 3);
        assert_eq!(g.ty, Ty::Int);
        let f = HllGlobal::with_float_values("f", vec![1.5]);
        assert_eq!(f.ty, Ty::Float);
        let z = HllGlobal::float_zeroed("z", 8);
        assert_eq!(z.elems, 8);
        assert!(HllGlobal::iota("i", 4).iota);
    }

    #[test]
    fn with_main_sets_entry() {
        let p = HllProgram::with_main(HllFunction::new("kernel"));
        assert_eq!(p.entry, "kernel");
        assert!(p.function("kernel").is_some());
    }
}
