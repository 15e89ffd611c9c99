//! Pins the canonical byte format of every persisted or wire type.
//!
//! The disk tier stores artifacts as their canonical bytes and the server
//! ships them in frames, so the encoding *is* the on-disk and on-wire
//! format.  Round-trip tests cannot see a change to it (encode and decode
//! move together); this test can.  It builds one fixed sample of each type
//! and compares its [`SourceId`] — a hash of the canonical bytes — against a
//! checked-in constant.
//!
//! A failure here means the format changed.  If that was intended, bump
//! `bsg_runtime::disk::FORMAT_VERSION` (and `bsg_server::proto::PROTO_VERSION`
//! for wire types) and update the constants from the table the failure
//! prints.  The samples between them contain every variant of the IR enums,
//! which `samples_cover_every_ir_enum_variant` checks.

use bsg_compiler::{compile, CompileOptions, OptLevel, TargetIsa};
use bsg_ir::canon::Canon;
use bsg_ir::hll::{BinOp, Expr, HllFunction, HllGlobal, HllProgram, LValue, Stmt, UnOp};
use bsg_ir::program::{Block, Function, Global, GlobalInit, Program};
use bsg_ir::types::{BlockId, FuncId, GlobalId, Reg, Ty, Value};
use bsg_ir::visa::{Address, Inst, MemBase, Operand, Terminator};
use bsg_profile::{profile_program, ProfileConfig, StatisticalProfile};
use bsg_runtime::{
    store::{CText, Compile, Profile, Synthesis},
    ArtifactStore, BsgError, DiskCache, DiskStats, KindStats, SourceId, StoreStats,
};
use bsg_server::{Response, ServerStats};
use bsg_synth::{synthesize_with_target, SynthesisConfig};
use bsg_uarch::CacheConfig;
use bsg_workloads::{suite, InputSize};
use std::collections::BTreeSet;

/// An HLL program using every `Expr`, `Stmt` and `LValue` variant, plus
/// integer, float and iota globals.
fn sample_hll() -> HllProgram {
    let mut p = HllProgram::new();
    p.add_global(HllGlobal::with_values("tbl", vec![3, -1, 4]));
    p.add_global(HllGlobal::with_float_values("fs", vec![0.5, -0.0]));
    p.add_global(HllGlobal::iota("io", 8));

    let mut twice = HllFunction::new("twice");
    twice.params.push("x".into());
    twice.body.push(Stmt::Return(Some(Expr::Bin(
        BinOp::Mul,
        Box::new(Expr::Var("x".into())),
        Box::new(Expr::Int(2)),
    ))));
    p.add_function(twice);

    let mut main = HllFunction::new("main");
    main.float_vars.push("f".into());
    let i = || Expr::Var("i".into());
    main.body = vec![
        Stmt::Assign {
            target: LValue::Var("f".into()),
            value: Expr::Un(UnOp::Sqrt, Box::new(Expr::Float(2.25))),
        },
        Stmt::Assign {
            target: LValue::Var("s".into()),
            value: Expr::Int(0),
        },
        Stmt::For {
            var: "i".into(),
            init: Expr::Int(0),
            limit: Expr::Int(3),
            step: Expr::Int(1),
            body: vec![
                Stmt::Assign {
                    target: LValue::Index("tbl".into(), Box::new(i())),
                    value: Expr::Call(
                        "twice".into(),
                        vec![Expr::Index("io".into(), Box::new(i()))],
                    ),
                },
                Stmt::If {
                    cond: Expr::Bin(BinOp::Lt, Box::new(i()), Box::new(Expr::Int(2))),
                    then_branch: vec![Stmt::Continue],
                    else_branch: vec![Stmt::Print(i())],
                },
            ],
        },
        Stmt::While {
            cond: Expr::Bin(
                BinOp::Lt,
                Box::new(Expr::Var("s".into())),
                Box::new(Expr::Int(5)),
            ),
            body: vec![
                Stmt::Call {
                    name: "twice".into(),
                    args: vec![Expr::Var("s".into())],
                    dst: Some(LValue::Var("s".into())),
                },
                Stmt::Break,
            ],
        },
        Stmt::Call {
            name: "twice".into(),
            args: vec![Expr::Int(7)],
            dst: None,
        },
        Stmt::Print(Expr::Un(UnOp::ToInt, Box::new(Expr::Var("f".into())))),
        Stmt::Return(None),
    ];
    p.add_function(main);
    p
}

/// A hand-built VISA program using every `Inst`, `Operand`, `Terminator`,
/// `GlobalInit` and `MemBase` variant (the compiler does not emit all of
/// them for any one input).
fn sample_visa() -> Program {
    let mut p = Program::new();
    let zero = p.add_global(Global::zeroed("z", 4));
    for (name, init) in [
        ("a", GlobalInit::Iota),
        (
            "b",
            GlobalInit::Values(vec![Value::Int(-9), Value::Float(1.5)]),
        ),
        (
            "c",
            GlobalInit::Random {
                seed: 42,
                modulus: 100,
            },
        ),
    ] {
        p.add_global(Global {
            name: name.into(),
            elems: 4,
            ty: Ty::Int,
            init,
        });
    }
    let (a, b) = (Reg(0), Reg(1));
    let mut f = Function::new("main");
    f.num_regs = 2;
    f.frame_words = 2;
    f.blocks = vec![
        Block {
            insts: vec![
                Inst::Mov {
                    dst: a,
                    src: Operand::ImmInt(-3),
                },
                Inst::Bin {
                    op: BinOp::Add,
                    ty: Ty::Int,
                    dst: b,
                    lhs: Operand::Reg(a),
                    rhs: Operand::Mem(Address::global_indexed(zero, 1, a, 2)),
                },
                Inst::Un {
                    op: UnOp::ToFloat,
                    ty: Ty::Float,
                    dst: b,
                    src: Operand::ImmFloat(-0.0),
                },
                Inst::Load {
                    dst: a,
                    addr: Address::global(GlobalId(1), 2),
                    ty: Ty::Int,
                },
                Inst::Store {
                    src: Operand::Reg(b),
                    addr: Address::frame(1),
                    ty: Ty::Float,
                },
                Inst::Call {
                    func: FuncId(0),
                    args: vec![Operand::Reg(a), Operand::ImmInt(5)],
                    dst: Some(b),
                },
                Inst::Print {
                    src: Operand::Reg(b),
                },
                Inst::Nop,
            ],
            term: Terminator::Branch {
                cond: a,
                taken: BlockId(1),
                not_taken: BlockId(2),
            },
        },
        Block {
            insts: Vec::new(),
            term: Terminator::Jump(BlockId(2)),
        },
        Block {
            insts: Vec::new(),
            term: Terminator::Return(Some(Operand::Reg(a))),
        },
    ];
    f.params = vec![a];
    p.add_function(f);
    p
}

fn registry_profile() -> StatisticalProfile {
    let workload = suite(InputSize::Small)
        .into_iter()
        .find(|w| w.kernel == "bitcount")
        .expect("bitcount is registered");
    let compiled = compile(&workload.program, &CompileOptions::portable(OptLevel::O0))
        .expect("registry kernels compile");
    profile_program(&compiled.program, &workload.name, &ProfileConfig::default())
}

fn stats_response() -> Response {
    let per_kind = [1u64, 2, 3, 4].map(|k| KindStats {
        hits: k,
        writes: 10 + k,
        bytes_written: 1000 * k,
    });
    Response::Stats(ServerStats {
        workers: 2,
        requests_served: 17,
        batches: 5,
        protocol_errors: 1,
        queue_depth: 3,
        max_queue_depth: 9,
        shed_count: 4,
        preempted_count: 6,
        store: StoreStats {
            compiled_builds: 11,
            compiled_hits: 12,
            profile_builds: 13,
            profile_hits: 14,
            c_text_builds: 15,
            c_text_hits: 16,
            synthesis_builds: 18,
            synthesis_hits: 19,
            build_failures: 20,
            disk: DiskStats {
                hits: 21,
                misses: 22,
                writes: 23,
                corrupt: 24,
                evicted: 25,
                io_errors: 26,
                degraded: true,
                per_kind,
            },
        },
    })
}

fn sample_errors() -> Vec<BsgError> {
    vec![
        BsgError::TaskPanic {
            message: "boom".into(),
        },
        BsgError::BuildFailed {
            kind: "profile",
            key: "00ff".into(),
            attempts: 3,
            message: "builder failed".into(),
        },
        BsgError::Io {
            op: "rename",
            path: "cache/x".into(),
            message: "ENOSPC".into(),
        },
        BsgError::DeadlineExceeded {
            elapsed_ms: 120,
            deadline_ms: 50,
        },
        BsgError::InvalidRequest {
            message: "unknown figure".into(),
        },
        BsgError::Overloaded {
            queue_depth: 64,
            limit: 64,
        },
    ]
}

fn id<T: Canon + ?Sized>(value: &T) -> String {
    SourceId::of(value).to_string()
}

#[test]
fn canonical_format_is_pinned() {
    let hll = sample_hll();
    let compiled = compile(&hll, &CompileOptions::new(OptLevel::O2, TargetIsa::X86))
        .expect("sample compiles")
        .program;
    let profile = registry_profile();
    let synthesis = synthesize_with_target(&profile, &SynthesisConfig::default(), 20_000);
    let mut actual = vec![
        ("HllProgram", id(&hll)),
        ("Program (compiled)", id(&compiled)),
        ("Program (hand-built)", id(&sample_visa())),
        ("StatisticalProfile", id(&profile)),
        ("TargetedSynthesis", id(&synthesis)),
        (
            "CompileOptions",
            id(&CompileOptions::new(OptLevel::O3, TargetIsa::Ia64)),
        ),
        ("ProfileConfig", id(&ProfileConfig::default())),
        ("SynthesisConfig", id(&SynthesisConfig::default())),
        ("CacheConfig", id(&CacheConfig::kb(16))),
        ("Response::Stats", id(&stats_response())),
    ];
    let error_names = [
        "BsgError::TaskPanic",
        "BsgError::BuildFailed",
        "BsgError::Io",
        "BsgError::DeadlineExceeded",
        "BsgError::InvalidRequest",
        "BsgError::Overloaded",
    ];
    actual.extend(error_names.into_iter().zip(sample_errors().iter().map(id)));

    let expected = [
        ("HllProgram", "44b9e56ba8aebd79e6fa3b7e1bf381ee"),
        ("Program (compiled)", "24e3dc0e043e24b799905f8d1cca1ce9"),
        ("Program (hand-built)", "1fb1ad6bbce5d44b7d615453030b60a8"),
        ("StatisticalProfile", "4503dcd68c94178ffcbd80f11b74c897"),
        ("TargetedSynthesis", "4a2e93d9a796ddf7cb61ac5c9ad5d08b"),
        ("CompileOptions", "a68bb8192c8b5822836dbc78c91c2433"),
        ("ProfileConfig", "df860f06281cfe35efaba5a04d1cf221"),
        ("SynthesisConfig", "719e8323d4f7b7d6a397001c2ab47120"),
        ("CacheConfig", "7f6a111f2645363f8296823339687c49"),
        ("Response::Stats", "1ac2249db163bc8ea636d3d5603acd64"),
        ("BsgError::TaskPanic", "ba35f025f11feb9d7b0620b6fb09576c"),
        ("BsgError::BuildFailed", "76c0168d93c0d1c8c322e3525000a451"),
        ("BsgError::Io", "03d9886127b523863669231a243b390d"),
        (
            "BsgError::DeadlineExceeded",
            "97d51426d1ee0d648f3e39484c3d4fb0",
        ),
        (
            "BsgError::InvalidRequest",
            "4b080798ad477808bf04f1dd8c86ece3",
        ),
        ("BsgError::Overloaded", "ef0d5a16a2f555b1811f4540ec31a058"),
    ];
    let table: String = actual
        .iter()
        .map(|(name, hex)| format!("        ({name:?}, {hex:?}),\n"))
        .collect();
    let actual: Vec<(&str, &str)> = actual.iter().map(|(n, hex)| (*n, hex.as_str())).collect();
    assert_eq!(
        actual, expected,
        "the canonical format changed; if intended, bump FORMAT_VERSION / \
         PROTO_VERSION and pin the new ids:\n{table}"
    );
}

/// Pins the disk tier's entry names: `<kind>/<key>.bsg` for one fixed
/// sample of each artifact kind, filled through the store.  The kind
/// directories and file keys are what every existing warm cache directory
/// is addressed by (and what perfbench's traced store re-derives by hand),
/// so moving either one silently turns every warm run cold.
#[test]
fn disk_entry_names_are_pinned() {
    let root = std::env::temp_dir().join(format!(
        "bsg-pin-disk-names-{}-{:x}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after the epoch")
            .as_nanos()
    ));
    let store = ArtifactStore::with_disk(DiskCache::at(&root));
    let hll = sample_hll();
    let workload = suite(InputSize::Small)
        .into_iter()
        .find(|w| w.kernel == "bitcount")
        .expect("bitcount is registered");
    store.get(Compile::of(
        &hll,
        CompileOptions::new(OptLevel::O2, TargetIsa::X86),
    ));
    let profile = store.get(Profile(
        Compile::of(&workload.program, CompileOptions::portable(OptLevel::O0)),
        &workload.name,
        &ProfileConfig::default(),
    ));
    store.get(Synthesis(&profile, &SynthesisConfig::default(), 20_000));
    store.get(CText(&hll));

    let mut names = BTreeSet::new();
    for kind in std::fs::read_dir(&root).expect("the store wrote entries") {
        let kind = kind.expect("readable kind dir").path();
        for file in std::fs::read_dir(&kind).expect("readable kind dir") {
            let file = file.expect("readable entry").path();
            names.insert(format!(
                "{}/{}",
                kind.file_name().expect("named").to_string_lossy(),
                file.file_name().expect("named").to_string_lossy()
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&root);
    let expected: BTreeSet<String> = [
        // The sample HLL's own content address (the `HllProgram` pin).
        "c-text/44b9e56ba8aebd79e6fa3b7e1bf381ee.bsg",
        // The sample at (-O2, x86) and bitcount at portable -O0, the
        // latter built as the profile's dependency.
        "compiled/00e4736552b392e65fb0330788a7c801.bsg",
        "compiled/d825a40a498a73b5a08d7e9df87eb64d.bsg",
        "profile/e9f349cff885e52658b24f49dfe976fb.bsg",
        "synthesis/0ac81a0d470403dc14c7095f8e1d8865.bsg",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    assert_eq!(
        names, expected,
        "disk kind names or file keys moved; every existing cache turns cold"
    );
}

/// Collects the name of every IR enum variant reached from a sample.  Each
/// `match` is exhaustive, so a new variant fails to compile here until it
/// is named — and then fails `samples_cover_every_ir_enum_variant` until a
/// sample uses it.
#[derive(Default)]
struct Seen(BTreeSet<&'static str>);

impl Seen {
    fn value(&mut self, v: &Value) {
        let name = match v {
            Value::Int(_) => "Value::Int",
            Value::Float(_) => "Value::Float",
        };
        self.0.insert(name);
    }

    fn expr(&mut self, e: &Expr) {
        let name = match e {
            Expr::Int(_) => "Expr::Int",
            Expr::Float(_) => "Expr::Float",
            Expr::Var(_) => "Expr::Var",
            Expr::Index(_, i) => {
                self.expr(i);
                "Expr::Index"
            }
            Expr::Bin(_, a, b) => {
                self.expr(a);
                self.expr(b);
                "Expr::Bin"
            }
            Expr::Un(_, a) => {
                self.expr(a);
                "Expr::Un"
            }
            Expr::Call(_, args) => {
                args.iter().for_each(|a| self.expr(a));
                "Expr::Call"
            }
        };
        self.0.insert(name);
    }

    fn lvalue(&mut self, l: &LValue) {
        let name = match l {
            LValue::Var(_) => "LValue::Var",
            LValue::Index(_, i) => {
                self.expr(i);
                "LValue::Index"
            }
        };
        self.0.insert(name);
    }

    fn stmts(&mut self, body: &[Stmt]) {
        body.iter().for_each(|s| self.stmt(s));
    }

    fn stmt(&mut self, s: &Stmt) {
        let name = match s {
            Stmt::Assign { target, value } => {
                self.lvalue(target);
                self.expr(value);
                "Stmt::Assign"
            }
            Stmt::If {
                cond,
                then_branch,
                else_branch,
            } => {
                self.expr(cond);
                self.stmts(then_branch);
                self.stmts(else_branch);
                "Stmt::If"
            }
            Stmt::While { cond, body } => {
                self.expr(cond);
                self.stmts(body);
                "Stmt::While"
            }
            Stmt::For {
                init,
                limit,
                step,
                body,
                ..
            } => {
                [init, limit, step].into_iter().for_each(|e| self.expr(e));
                self.stmts(body);
                "Stmt::For"
            }
            Stmt::Call { args, dst, .. } => {
                args.iter().for_each(|a| self.expr(a));
                dst.iter().for_each(|d| self.lvalue(d));
                "Stmt::Call"
            }
            Stmt::Return(e) => {
                e.iter().for_each(|e| self.expr(e));
                "Stmt::Return"
            }
            Stmt::Print(e) => {
                self.expr(e);
                "Stmt::Print"
            }
            Stmt::Break => "Stmt::Break",
            Stmt::Continue => "Stmt::Continue",
        };
        self.0.insert(name);
    }

    fn hll(&mut self, p: &HllProgram) {
        p.globals
            .iter()
            .flat_map(|g| &g.init)
            .for_each(|v| self.value(v));
        p.functions.iter().for_each(|f| self.stmts(&f.body));
    }

    fn address(&mut self, a: &Address) {
        let name = match a.base {
            MemBase::Global(_) => "MemBase::Global",
            MemBase::Frame => "MemBase::Frame",
        };
        self.0.insert(name);
    }

    fn operand(&mut self, o: &Operand) {
        let name = match o {
            Operand::Reg(_) => "Operand::Reg",
            Operand::ImmInt(_) => "Operand::ImmInt",
            Operand::ImmFloat(_) => "Operand::ImmFloat",
            Operand::Mem(a) => {
                self.address(a);
                "Operand::Mem"
            }
        };
        self.0.insert(name);
    }

    fn inst(&mut self, i: &Inst) {
        let name = match i {
            Inst::Bin { lhs, rhs, .. } => {
                self.operand(lhs);
                self.operand(rhs);
                "Inst::Bin"
            }
            Inst::Un { src, .. } => {
                self.operand(src);
                "Inst::Un"
            }
            Inst::Mov { src, .. } => {
                self.operand(src);
                "Inst::Mov"
            }
            Inst::Load { addr, .. } => {
                self.address(addr);
                "Inst::Load"
            }
            Inst::Store { src, addr, .. } => {
                self.operand(src);
                self.address(addr);
                "Inst::Store"
            }
            Inst::Call { args, .. } => {
                args.iter().for_each(|a| self.operand(a));
                "Inst::Call"
            }
            Inst::Print { src } => {
                self.operand(src);
                "Inst::Print"
            }
            Inst::Nop => "Inst::Nop",
        };
        self.0.insert(name);
    }

    fn terminator(&mut self, t: &Terminator) {
        let name = match t {
            Terminator::Jump(_) => "Terminator::Jump",
            Terminator::Branch { .. } => "Terminator::Branch",
            Terminator::Return(v) => {
                v.iter().for_each(|o| self.operand(o));
                "Terminator::Return"
            }
        };
        self.0.insert(name);
    }

    fn program(&mut self, p: &Program) {
        for g in &p.globals {
            let name = match &g.init {
                GlobalInit::Zero => "GlobalInit::Zero",
                GlobalInit::Iota => "GlobalInit::Iota",
                GlobalInit::Values(vs) => {
                    vs.iter().for_each(|v| self.value(v));
                    "GlobalInit::Values"
                }
                GlobalInit::Random { .. } => "GlobalInit::Random",
            };
            self.0.insert(name);
        }
        for block in p.functions.iter().flat_map(|f| &f.blocks) {
            block.insts.iter().for_each(|i| self.inst(i));
            self.terminator(&block.term);
        }
    }
}

#[test]
fn samples_cover_every_ir_enum_variant() {
    let hll = sample_hll();
    let mut seen = Seen::default();
    seen.hll(&hll);
    seen.program(&sample_visa());
    let all = [
        "Expr::Bin",
        "Expr::Call",
        "Expr::Float",
        "Expr::Index",
        "Expr::Int",
        "Expr::Un",
        "Expr::Var",
        "GlobalInit::Iota",
        "GlobalInit::Random",
        "GlobalInit::Values",
        "GlobalInit::Zero",
        "Inst::Bin",
        "Inst::Call",
        "Inst::Load",
        "Inst::Mov",
        "Inst::Nop",
        "Inst::Print",
        "Inst::Store",
        "Inst::Un",
        "LValue::Index",
        "LValue::Var",
        "MemBase::Frame",
        "MemBase::Global",
        "Operand::ImmFloat",
        "Operand::ImmInt",
        "Operand::Mem",
        "Operand::Reg",
        "Stmt::Assign",
        "Stmt::Break",
        "Stmt::Call",
        "Stmt::Continue",
        "Stmt::For",
        "Stmt::If",
        "Stmt::Print",
        "Stmt::Return",
        "Stmt::While",
        "Terminator::Branch",
        "Terminator::Jump",
        "Terminator::Return",
        "Value::Float",
        "Value::Int",
    ];
    assert_eq!(seen.0, all.into_iter().collect::<BTreeSet<_>>());
}
