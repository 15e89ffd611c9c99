//! Pattern recognition: turning profiled instruction sequences back into C
//! statements (Table II of the paper).
//!
//! The profiler records, for every basic block, the sequence of instruction
//! classes and operand kinds observed in the `-O0` binary.  The generator
//! scans that sequence and emits C statements drawn from a small family of
//! templates — `mem[i] = mem[j] op mem[k]`, `mem[i] = mem[j] op cst`,
//! scalar arithmetic, and so on — keeping a running *debt* of loads, stores
//! and arithmetic operations so that coverage gaps are compensated on later
//! statements (§III-B.4).  Coverage is intentionally below 100%, which is one
//! of the ways proprietary information is hidden.

use bsg_ir::visa::InstClass;
use bsg_profile::InstDescriptor;

/// The statement templates of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// `mem[i] = mem[j];`
    LoadStore,
    /// `mem[i] = mem[j] op cst;`
    LoadArithStore,
    /// `mem[i] = mem[j] op mem[k];`
    LoadLoadArithStore,
    /// `mem[i] = mem[j] op mem[k] op mem[l];`
    LoadLoadArithLoadArithStore,
    /// `if (mem[i] > cst)` — consumed by the branch generator, not by the
    /// statement generator.
    LoadCmpBranch,
    /// `mem[i] = cst;`
    Store,
    /// `s = s op t op cst;` — register-only arithmetic (not in Table II, but
    /// needed to cover the arithmetic that Table II's memory-centric patterns
    /// leave behind).
    ScalarArith,
    /// `f = f op g;` — floating-point arithmetic.
    FloatArith,
}

/// A Table II row: how many instructions of each kind one statement covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatternCost {
    /// Template.
    pub kind: PatternKind,
    /// Loads consumed.
    pub loads: u32,
    /// Stores consumed.
    pub stores: u32,
    /// Arithmetic operations consumed.
    pub ops: u32,
}

/// The pattern table (Table II plus the scalar/float compensation templates).
pub fn table2() -> Vec<PatternCost> {
    vec![
        PatternCost {
            kind: PatternKind::LoadLoadArithLoadArithStore,
            loads: 3,
            stores: 1,
            ops: 2,
        },
        PatternCost {
            kind: PatternKind::LoadLoadArithStore,
            loads: 2,
            stores: 1,
            ops: 1,
        },
        PatternCost {
            kind: PatternKind::LoadArithStore,
            loads: 1,
            stores: 1,
            ops: 1,
        },
        PatternCost {
            kind: PatternKind::LoadStore,
            loads: 1,
            stores: 1,
            ops: 0,
        },
        PatternCost {
            kind: PatternKind::LoadCmpBranch,
            loads: 1,
            stores: 0,
            ops: 1,
        },
        PatternCost {
            kind: PatternKind::Store,
            loads: 0,
            stores: 1,
            ops: 0,
        },
        PatternCost {
            kind: PatternKind::ScalarArith,
            loads: 0,
            stores: 0,
            ops: 2,
        },
        PatternCost {
            kind: PatternKind::FloatArith,
            loads: 0,
            stores: 0,
            ops: 2,
        },
    ]
}

/// The instruction budget of one basic block, derived from its profiled
/// instruction descriptors.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockBudget {
    /// Memory reads.
    pub loads: u32,
    /// Memory writes.
    pub stores: u32,
    /// Integer arithmetic operations.
    pub int_ops: u32,
    /// Floating-point arithmetic operations.
    pub fp_ops: u32,
    /// Instructions that no statement template covers (calls, prints, nops).
    pub uncovered: u32,
}

impl BlockBudget {
    /// Builds the budget for a block from its instruction descriptors.
    pub fn from_descriptors(descs: &[InstDescriptor]) -> Self {
        let mut b = BlockBudget::default();
        for d in descs {
            match d.class {
                InstClass::Load => b.loads += 1,
                InstClass::Store => b.stores += 1,
                InstClass::IntAlu | InstClass::IntMul | InstClass::IntDiv => b.int_ops += 1,
                InstClass::FpAdd | InstClass::FpMul | InstClass::FpDiv => b.fp_ops += 1,
                InstClass::Branch => {}
                InstClass::Call | InstClass::Other => b.uncovered += 1,
            }
            // Folded memory operands (CISC) appear as arithmetic instructions
            // with a memory operand kind; count the implied load.
            if d.class != InstClass::Load
                && d.operands.contains(&bsg_ir::visa::OperandKind::Memory)
                && d.class != InstClass::Store
            {
                b.loads += 1;
            }
        }
        b
    }

    /// Total instructions this budget represents (excluding branches).
    pub fn total(&self) -> u32 {
        self.loads + self.stores + self.int_ops + self.fp_ops + self.uncovered
    }

    /// Instructions coverable by the statement templates.
    pub fn coverable(&self) -> u32 {
        self.loads + self.stores + self.int_ops + self.fp_ops
    }

    /// Returns `true` once every coverable instruction has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.coverable() == 0
    }

    /// Chooses the next pattern given the remaining debt, preferring patterns
    /// that consume whatever the generator is lagging behind on (the paper's
    /// compensation rule).
    pub fn choose_pattern(&self) -> Option<PatternKind> {
        if self.is_exhausted() {
            return None;
        }
        if self.stores > 0 {
            // Prefer wider load patterns when many loads remain per store.
            let loads_per_store = self.loads / self.stores.max(1);
            return Some(if self.loads >= 3 && loads_per_store >= 3 {
                PatternKind::LoadLoadArithLoadArithStore
            } else if self.loads >= 2 && loads_per_store >= 2 {
                PatternKind::LoadLoadArithStore
            } else if self.loads >= 1 && self.int_ops > 0 {
                PatternKind::LoadArithStore
            } else if self.loads >= 1 {
                PatternKind::LoadStore
            } else {
                PatternKind::Store
            });
        }
        if self.loads > 0 {
            return Some(if self.int_ops > 0 {
                PatternKind::LoadArithStore
            } else {
                PatternKind::LoadStore
            });
        }
        if self.fp_ops > 0 {
            return Some(PatternKind::FloatArith);
        }
        Some(PatternKind::ScalarArith)
    }

    /// Consumes the cost of one emitted statement, saturating at zero.
    /// Returns the number of instructions the statement covered.
    pub fn consume(&mut self, kind: PatternKind) -> u32 {
        let cost = table2()
            .into_iter()
            .find(|p| p.kind == kind)
            .unwrap_or(PatternCost {
                kind,
                loads: 0,
                stores: 0,
                ops: 1,
            });
        let loads = cost.loads.min(self.loads);
        let stores = cost.stores.min(self.stores);
        let (int_ops, fp_ops) = if kind == PatternKind::FloatArith {
            (0, cost.ops.min(self.fp_ops))
        } else {
            (cost.ops.min(self.int_ops), 0)
        };
        self.loads -= loads;
        self.stores -= stores;
        self.int_ops -= int_ops;
        self.fp_ops -= fp_ops;
        loads + stores + int_ops + fp_ops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsg_ir::visa::OperandKind;

    fn desc(class: InstClass) -> InstDescriptor {
        InstDescriptor {
            class,
            operands: vec![OperandKind::Register],
            is_float: class.is_float(),
        }
    }

    #[test]
    fn table2_has_the_papers_memory_patterns() {
        let t = table2();
        assert!(t
            .iter()
            .any(|p| p.kind == PatternKind::LoadLoadArithLoadArithStore && p.loads == 3));
        assert!(t
            .iter()
            .any(|p| p.kind == PatternKind::LoadStore && p.loads == 1 && p.stores == 1));
        assert!(t
            .iter()
            .any(|p| p.kind == PatternKind::Store && p.loads == 0));
        assert!(t.iter().any(|p| p.kind == PatternKind::LoadCmpBranch));
    }

    #[test]
    fn budget_counts_classes_and_folded_operands() {
        let mut descs = vec![
            desc(InstClass::Load),
            desc(InstClass::Store),
            desc(InstClass::IntAlu),
            desc(InstClass::FpMul),
            desc(InstClass::Call),
        ];
        descs.push(InstDescriptor {
            class: InstClass::IntAlu,
            operands: vec![OperandKind::Register, OperandKind::Memory],
            is_float: false,
        });
        let b = BlockBudget::from_descriptors(&descs);
        assert_eq!(b.loads, 2, "the folded memory operand counts as a load");
        assert_eq!(b.stores, 1);
        assert_eq!(b.int_ops, 2);
        assert_eq!(b.fp_ops, 1);
        assert_eq!(b.uncovered, 1);
        assert_eq!(b.total(), 7);
    }

    #[test]
    fn compensation_prefers_the_lagging_resource() {
        // Load-heavy block: the chooser picks the widest load pattern.
        let b = BlockBudget {
            loads: 9,
            stores: 2,
            int_ops: 5,
            fp_ops: 0,
            uncovered: 0,
        };
        assert_eq!(
            b.choose_pattern(),
            Some(PatternKind::LoadLoadArithLoadArithStore)
        );
        // Store-heavy block: plain stores get emitted once loads run out.
        let b = BlockBudget {
            loads: 0,
            stores: 3,
            int_ops: 0,
            fp_ops: 0,
            uncovered: 0,
        };
        assert_eq!(b.choose_pattern(), Some(PatternKind::Store));
        // Arithmetic-only block.
        let b = BlockBudget {
            loads: 0,
            stores: 0,
            int_ops: 4,
            fp_ops: 0,
            uncovered: 0,
        };
        assert_eq!(b.choose_pattern(), Some(PatternKind::ScalarArith));
        // Floating point before plain scalars.
        let b = BlockBudget {
            loads: 0,
            stores: 0,
            int_ops: 0,
            fp_ops: 2,
            uncovered: 0,
        };
        assert_eq!(b.choose_pattern(), Some(PatternKind::FloatArith));
        assert_eq!(BlockBudget::default().choose_pattern(), None);
    }

    #[test]
    fn consuming_patterns_exhausts_the_budget() {
        let mut b = BlockBudget {
            loads: 5,
            stores: 2,
            int_ops: 4,
            fp_ops: 2,
            uncovered: 1,
        };
        let mut covered = 0;
        let mut statements = 0;
        while let Some(kind) = b.choose_pattern() {
            covered += b.consume(kind);
            statements += 1;
            assert!(statements < 100, "budget must shrink every step");
        }
        assert!(b.is_exhausted());
        assert_eq!(
            covered, 13,
            "every coverable instruction is eventually covered"
        );
    }
}
