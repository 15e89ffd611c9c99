//! VISA program containers: [`Program`], [`Function`], [`Block`] and [`Global`].

use crate::types::{BlockId, FuncId, GlobalId, Reg, Ty, Value, WORD_BYTES};
use crate::visa::{Inst, MemBase, Operand, Terminator};
use std::collections::HashMap;
use std::fmt;

/// Initial contents of a global array.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum GlobalInit {
    /// All elements zero.
    #[default]
    Zero,
    /// Elements `0, 1, 2, ...` (useful for table-driven kernels).
    Iota,
    /// Explicit values; missing elements are zero.
    Values(Vec<Value>),
    /// Pseudo-random values from a fixed seed (deterministic).
    Random {
        /// Seed for the generator.
        seed: u64,
        /// Values are generated in `0..modulus` (integers) or `[0, 1)` scaled
        /// by `modulus` (floats).
        modulus: i64,
    },
}

crate::canon_codec!(enum GlobalInit {
    0 => Zero,
    1 => Iota,
    2 => Values(values),
    3 => Random { seed, modulus },
});

/// A statically allocated global array of scalars.
#[derive(Debug, Clone, PartialEq)]
pub struct Global {
    /// Name (used by the C emitter and for debugging).
    pub name: String,
    /// Number of elements.
    pub elems: usize,
    /// Element type.
    pub ty: Ty,
    /// Initial contents.
    pub init: GlobalInit,
}

crate::canon_codec!(struct Global { name, elems, ty, init });

impl Global {
    /// Creates a zero-initialized integer array.
    pub fn zeroed(name: impl Into<String>, elems: usize) -> Self {
        Global {
            name: name.into(),
            elems,
            ty: Ty::Int,
            init: GlobalInit::Zero,
        }
    }

    /// Materializes the initial contents as a vector of values.
    pub fn initial_values(&self) -> Vec<Value> {
        match &self.init {
            GlobalInit::Zero => vec![Value::default(); self.elems],
            GlobalInit::Iota => (0..self.elems as i64)
                .map(|i| match self.ty {
                    Ty::Int => Value::Int(i),
                    Ty::Float => Value::Float(i as f64),
                })
                .collect(),
            GlobalInit::Values(vs) => {
                let mut out = vs.clone();
                out.resize(self.elems, Value::default());
                out.truncate(self.elems);
                out
            }
            GlobalInit::Random { seed, modulus } => {
                // xorshift64* keeps this deterministic and dependency-free.
                let mut state = seed.wrapping_mul(2685821657736338717).max(1);
                let m = (*modulus).max(1);
                (0..self.elems)
                    .map(|_| {
                        state ^= state >> 12;
                        state ^= state << 25;
                        state ^= state >> 27;
                        let v = state.wrapping_mul(2685821657736338717);
                        match self.ty {
                            Ty::Int => Value::Int((v % m as u64) as i64),
                            Ty::Float => {
                                Value::Float((v % 1_000_000) as f64 / 1_000_000.0 * m as f64)
                            }
                        }
                    })
                    .collect()
            }
        }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Instructions in program order.
    pub insts: Vec<Inst>,
    /// Control transfer ending the block.
    pub term: Terminator,
}

crate::canon_codec!(struct Block { insts, term });

impl Block {
    /// A block that just jumps to `target`.
    pub fn jump_to(target: BlockId) -> Self {
        Block {
            insts: Vec::new(),
            term: Terminator::Jump(target),
        }
    }
}

/// A function: a CFG of basic blocks over a private virtual register file and
/// stack frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Function name.
    pub name: String,
    /// Basic blocks, indexed by [`BlockId`].
    pub blocks: Vec<Block>,
    /// Entry block (by convention block 0, but kept explicit).
    pub entry: BlockId,
    /// Number of virtual registers used (all ids are `< num_regs`).
    pub num_regs: u32,
    /// Registers holding the parameters on entry.
    pub params: Vec<Reg>,
    /// Stack-frame size in words (O0 locals and spill slots).
    pub frame_words: u32,
}

crate::canon_codec!(struct Function { name, blocks, entry, num_regs, params, frame_words });

impl Function {
    /// Creates an empty function with a single entry block returning nothing.
    pub fn new(name: impl Into<String>) -> Self {
        Function {
            name: name.into(),
            blocks: vec![Block {
                insts: Vec::new(),
                term: Terminator::Return(None),
            }],
            entry: BlockId(0),
            num_regs: 0,
            params: Vec::new(),
            frame_words: 0,
        }
    }

    /// Allocates a fresh virtual register.
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.num_regs);
        self.num_regs += 1;
        r
    }

    /// Allocates a fresh frame slot (word offset).
    pub fn fresh_frame_slot(&mut self) -> i64 {
        let s = self.frame_words as i64;
        self.frame_words += 1;
        s
    }

    /// Appends an empty block and returns its id.
    pub fn add_block(&mut self) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            insts: Vec::new(),
            term: Terminator::Return(None),
        });
        id
    }

    /// Shared accessor for a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Mutable accessor for a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut Block {
        &mut self.blocks[id.index()]
    }

    /// Iterator over `(BlockId, &Block)` pairs.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Total number of static instructions (excluding terminators).
    pub fn static_inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }
}

/// A whole program: functions, globals and a designated entry function.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Functions, indexed by [`FuncId`].
    pub functions: Vec<Function>,
    /// Global arrays, indexed by [`GlobalId`].
    pub globals: Vec<Global>,
    /// Entry function (the `main` of the workload).
    pub entry: FuncId,
}

crate::canon_codec!(struct Program { functions, globals, entry });

impl Program {
    /// Creates an empty program with no functions.
    pub fn new() -> Self {
        Program {
            functions: Vec::new(),
            globals: Vec::new(),
            entry: FuncId(0),
        }
    }

    /// Adds a function, returning its id.
    pub fn add_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        self.functions.push(f);
        id
    }

    /// Adds a global, returning its id.
    pub fn add_global(&mut self, g: Global) -> GlobalId {
        let id = GlobalId(self.globals.len() as u32);
        self.globals.push(g);
        id
    }

    /// Shared accessor for a function.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn function(&self, id: FuncId) -> &Function {
        &self.functions[id.index()]
    }

    /// Looks a function up by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions
            .iter()
            .position(|f| f.name == name)
            .map(|i| FuncId(i as u32))
    }

    /// Shared accessor for a global.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn global(&self, id: GlobalId) -> &Global {
        &self.globals[id.index()]
    }

    /// Total static instruction count across all functions.
    pub fn static_inst_count(&self) -> usize {
        self.functions.iter().map(Function::static_inst_count).sum()
    }

    /// Computes the byte base address of each global in a flat address space.
    ///
    /// Globals are laid out consecutively starting at address 4096 (so that
    /// address 0 is never valid data), each aligned to a 64-byte boundary so
    /// that distinct arrays never share a cache line.
    pub fn memory_layout(&self) -> MemoryLayout {
        let mut bases = Vec::with_capacity(self.globals.len());
        let mut next: u64 = 4096;
        for g in &self.globals {
            bases.push(next);
            let size = (g.elems as u64) * WORD_BYTES;
            next += size.div_ceil(64) * 64 + 64;
        }
        MemoryLayout {
            global_bases: bases,
            frame_base: next.div_ceil(64) * 64 + 4096,
            frame_stride: 4096,
        }
    }

    /// Structural validation: every referenced block, register, function and
    /// global exists.  Returns a list of human-readable problems (empty when
    /// the program is well formed).
    pub fn validate(&self) -> Vec<String> {
        let mut errors = Vec::new();
        if self.functions.is_empty() {
            errors.push("program has no functions".to_string());
            return errors;
        }
        if self.entry.index() >= self.functions.len() {
            errors.push(format!("entry {} out of range", self.entry));
        }
        for (fi, f) in self.functions.iter().enumerate() {
            let fname = &f.name;
            if f.blocks.is_empty() {
                errors.push(format!("function {fname} has no blocks"));
                continue;
            }
            if f.entry.index() >= f.blocks.len() {
                errors.push(format!("function {fname}: entry {} out of range", f.entry));
            }
            for p in &f.params {
                if p.0 >= f.num_regs {
                    errors.push(format!("function {fname}: param {p} out of range"));
                }
            }
            for (bi, b) in f.blocks.iter().enumerate() {
                for succ in b.term.successors() {
                    if succ.index() >= f.blocks.len() {
                        errors.push(format!(
                            "function {fname} bb{bi}: successor {succ} out of range"
                        ));
                    }
                }
                let check_reg = |r: Reg, what: &str, errors: &mut Vec<String>| {
                    if r.0 >= f.num_regs {
                        errors.push(format!(
                            "function {fname} bb{bi}: {what} register {r} >= num_regs {}",
                            f.num_regs
                        ));
                    }
                };
                let check_operand = |op: &Operand, errors: &mut Vec<String>| {
                    if let Operand::Mem(a) = op {
                        if let MemBase::Global(g) = a.base {
                            if g.index() >= self.globals.len() {
                                errors.push(format!(
                                    "function {fname} bb{bi}: memory operand references unknown {g}"
                                ));
                            }
                        }
                    }
                };
                for (ii, inst) in b.insts.iter().enumerate() {
                    if let Some(d) = inst.def() {
                        check_reg(d, "def", &mut errors);
                    }
                    for u in inst.uses() {
                        check_reg(u, "use", &mut errors);
                    }
                    match inst {
                        Inst::Call { func, .. } => {
                            if func.index() >= self.functions.len() {
                                errors.push(format!(
                                    "function {fname} bb{bi} inst {ii}: call to unknown {func}"
                                ));
                            } else {
                                let callee = &self.functions[func.index()];
                                if let Inst::Call { args, .. } = inst {
                                    if args.len() != callee.params.len() {
                                        errors.push(format!(
                                            "function {fname} bb{bi} inst {ii}: call to {} with {} args, expected {}",
                                            callee.name,
                                            args.len(),
                                            callee.params.len()
                                        ));
                                    }
                                }
                            }
                        }
                        Inst::Load { addr, .. } | Inst::Store { addr, .. } => {
                            if let MemBase::Global(g) = addr.base {
                                if g.index() >= self.globals.len() {
                                    errors.push(format!(
                                        "function {fname} bb{bi} inst {ii}: unknown {g}"
                                    ));
                                }
                            }
                        }
                        _ => {}
                    }
                    match inst {
                        Inst::Bin { lhs, rhs, .. } => {
                            check_operand(lhs, &mut errors);
                            check_operand(rhs, &mut errors);
                        }
                        Inst::Un { src, .. } | Inst::Mov { src, .. } | Inst::Print { src } => {
                            check_operand(src, &mut errors)
                        }
                        _ => {}
                    }
                }
                for u in b.term.uses() {
                    if u.0 >= f.num_regs {
                        errors.push(format!(
                            "function {} bb{bi}: terminator register {u} >= num_regs {}",
                            self.functions[fi].name, f.num_regs
                        ));
                    }
                }
            }
        }
        // Duplicate function names break name-based lookup.
        let mut seen = HashMap::new();
        for f in &self.functions {
            *seen.entry(f.name.clone()).or_insert(0u32) += 1;
        }
        for (name, count) in seen {
            if count > 1 {
                errors.push(format!(
                    "duplicate function name {name} ({count} definitions)"
                ));
            }
        }
        errors
    }
}

impl Default for Program {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::pretty::dump_program(self))
    }
}

/// Byte-address layout of a program's data memory, used by the executor and
/// the cache simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryLayout {
    /// Base byte address of each global.
    pub global_bases: Vec<u64>,
    /// Base byte address of the first stack frame.
    pub frame_base: u64,
    /// Byte distance between consecutive call frames.
    pub frame_stride: u64,
}

impl MemoryLayout {
    /// Byte address of a word within a global.
    pub fn global_addr(&self, g: GlobalId, word: i64) -> u64 {
        self.global_bases[g.index()].wrapping_add((word as u64).wrapping_mul(WORD_BYTES))
    }

    /// Byte address of a frame slot at the given call depth.
    pub fn frame_addr(&self, depth: usize, word: i64) -> u64 {
        self.frame_base
            .wrapping_add(self.frame_stride.wrapping_mul(depth as u64))
            .wrapping_add((word as u64).wrapping_mul(WORD_BYTES))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::visa::BinOp;

    fn tiny_program() -> Program {
        let mut p = Program::new();
        let mut f = Function::new("main");
        let r0 = f.fresh_reg();
        let r1 = f.fresh_reg();
        let g = GlobalId(0);
        f.blocks[0].insts = vec![
            Inst::Mov {
                dst: r0,
                src: Operand::ImmInt(1),
            },
            Inst::Bin {
                op: BinOp::Add,
                ty: Ty::Int,
                dst: r1,
                lhs: r0.into(),
                rhs: Operand::ImmInt(2),
            },
            Inst::Store {
                src: r1.into(),
                addr: crate::visa::Address::global(g, 0),
                ty: Ty::Int,
            },
        ];
        f.blocks[0].term = Terminator::Return(Some(r1.into()));
        p.add_global(Global::zeroed("buf", 16));
        p.add_function(f);
        p
    }

    #[test]
    fn valid_program_passes_validation() {
        let p = tiny_program();
        assert!(p.validate().is_empty(), "{:?}", p.validate());
        assert_eq!(p.static_inst_count(), 3);
        assert_eq!(p.function_by_name("main"), Some(FuncId(0)));
        assert_eq!(p.function_by_name("nope"), None);
    }

    #[test]
    fn validation_catches_bad_register() {
        let mut p = tiny_program();
        p.functions[0].blocks[0].insts.push(Inst::Mov {
            dst: Reg(99),
            src: Operand::ImmInt(0),
        });
        assert!(!p.validate().is_empty());
    }

    #[test]
    fn validation_catches_bad_successor() {
        let mut p = tiny_program();
        p.functions[0].blocks[0].term = Terminator::Jump(BlockId(42));
        assert!(p.validate().iter().any(|e| e.contains("successor")));
    }

    #[test]
    fn validation_catches_bad_call_arity() {
        let mut p = tiny_program();
        let mut callee = Function::new("callee");
        let pr = callee.fresh_reg();
        callee.params = vec![pr];
        callee.blocks[0].term = Terminator::Return(Some(pr.into()));
        let callee_id = p.add_function(callee);
        p.functions[0].blocks[0].insts.push(Inst::Call {
            func: callee_id,
            args: vec![],
            dst: None,
        });
        assert!(p.validate().iter().any(|e| e.contains("args")));
    }

    #[test]
    fn validation_catches_duplicate_names() {
        let mut p = tiny_program();
        p.add_function(Function::new("main"));
        assert!(p.validate().iter().any(|e| e.contains("duplicate")));
    }

    #[test]
    fn memory_layout_is_nonoverlapping_and_aligned() {
        let mut p = tiny_program();
        p.add_global(Global::zeroed("buf2", 100));
        let layout = p.memory_layout();
        assert_eq!(layout.global_bases.len(), 2);
        assert!(layout.global_bases[0].is_multiple_of(64));
        assert!(layout.global_bases[1] >= layout.global_bases[0] + 16 * WORD_BYTES);
        assert!(layout.frame_base > layout.global_bases[1]);
        assert_eq!(
            layout.global_addr(GlobalId(0), 2),
            layout.global_bases[0] + 8
        );
        assert!(layout.frame_addr(1, 0) > layout.frame_addr(0, 0));
    }

    #[test]
    fn global_initializers() {
        let z = Global::zeroed("z", 4);
        assert_eq!(z.initial_values(), vec![Value::Int(0); 4]);
        let iota = Global {
            name: "i".into(),
            elems: 3,
            ty: Ty::Int,
            init: GlobalInit::Iota,
        };
        assert_eq!(
            iota.initial_values(),
            vec![Value::Int(0), Value::Int(1), Value::Int(2)]
        );
        let vals = Global {
            name: "v".into(),
            elems: 3,
            ty: Ty::Int,
            init: GlobalInit::Values(vec![Value::Int(7)]),
        };
        assert_eq!(
            vals.initial_values(),
            vec![Value::Int(7), Value::Int(0), Value::Int(0)]
        );
        let r1 = Global {
            name: "r".into(),
            elems: 8,
            ty: Ty::Int,
            init: GlobalInit::Random {
                seed: 1,
                modulus: 100,
            },
        };
        let r2 = Global {
            name: "r".into(),
            elems: 8,
            ty: Ty::Int,
            init: GlobalInit::Random {
                seed: 1,
                modulus: 100,
            },
        };
        assert_eq!(
            r1.initial_values(),
            r2.initial_values(),
            "random init must be deterministic"
        );
        for v in r1.initial_values() {
            let x = v.as_int();
            assert!((0..100).contains(&x));
        }
    }

    #[test]
    fn fresh_allocation_helpers() {
        let mut f = Function::new("f");
        assert_eq!(f.fresh_reg(), Reg(0));
        assert_eq!(f.fresh_reg(), Reg(1));
        assert_eq!(f.fresh_frame_slot(), 0);
        assert_eq!(f.fresh_frame_slot(), 1);
        let b = f.add_block();
        assert_eq!(b, BlockId(1));
        assert_eq!(f.blocks.len(), 2);
    }
}
