//! Differential tests: the fused engine against the reference tree-walker.
//!
//! The hard invariant of the fast engine (see `interp.rs`): for *any*
//! program — including ones that fault, run out of fuel (even mid-fused-run),
//! overflow the call stack, or hit unknown host functions — both engines
//! produce bit-identical results, faults, [`InterpStats`], remaining fuel,
//! and memory state. The property test below generates multi-function
//! programs with loops, direct and indirect calls, CFI checks, and extern
//! calls, then runs them under both engines at randomized fuel and depth
//! limits.

use proptest::prelude::*;
use vg_ir::inst::{
    BinOp, Block, BlockId, Function, Inst, Module, Operand, Terminator, VReg, Width,
};
use vg_ir::interp::{ExternHost, FlatMem, HostError, InterpStats, Pair};
use vg_ir::registry::{CodeSpace, KERNEL_TEXT_BASE};
use vg_ir::{CodeRegistry, Engine, FunctionBuilder, Interp, InterpFault};

const MEM_SIZE: usize = 4096;
const NREGS: u32 = 6;
const NFUNCS: u32 = 3;
const NBLOCKS: u32 = 3;
const LABEL: u32 = 7;

/// A host with a couple of known functions, exercised both through the
/// string path (reference engine) and the id path (fused engine, through the
/// default `call_extern_id` fallback).
#[derive(Default)]
struct TestHost {
    calls: u64,
}

impl ExternHost for TestHost {
    fn call_extern(&mut self, name: &str, args: &[i64]) -> Result<i64, HostError> {
        self.calls += 1;
        match name {
            "test.add" => Ok(args.iter().copied().fold(0i64, i64::wrapping_add)),
            "test.neg" => Ok(args.first().map_or(0, |a| a.wrapping_neg())),
            "test.fail" => Err(HostError::Failed("deliberate".into())),
            _ => Err(HostError::Unknown),
        }
    }
}

fn gen_operand() -> impl Strategy<Value = Operand> {
    prop_oneof![
        (0u32..NREGS).prop_map(|r| Operand::Reg(VReg(r))),
        any::<i16>().prop_map(|v| Operand::Imm(v as i64)),
        // Bounded user addresses so loads/stores sometimes succeed.
        (0i64..MEM_SIZE as i64 - 8).prop_map(Operand::Imm),
    ]
}

fn gen_dst() -> impl Strategy<Value = Option<VReg>> {
    prop_oneof![Just(None), (0u32..NREGS).prop_map(|r| Some(VReg(r)))]
}

fn gen_width() -> impl Strategy<Value = Width> {
    prop_oneof![
        Just(Width::W1),
        Just(Width::W2),
        Just(Width::W4),
        Just(Width::W8)
    ]
}

fn gen_args() -> impl Strategy<Value = Vec<Operand>> {
    proptest::collection::vec(gen_operand(), 0..3)
}

fn gen_inst() -> impl Strategy<Value = Inst> {
    let op = prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Ltu),
        Just(BinOp::Lts),
    ];
    prop_oneof![
        (op, 0u32..NREGS, gen_operand(), gen_operand()).prop_map(|(op, d, l, r)| Inst::Bin {
            op,
            dst: VReg(d),
            lhs: l,
            rhs: r,
        }),
        (0u32..NREGS, gen_operand()).prop_map(|(d, s)| Inst::Mov {
            dst: VReg(d),
            src: s
        }),
        (0u32..NREGS, gen_operand(), gen_width()).prop_map(|(d, a, w)| Inst::Load {
            dst: VReg(d),
            addr: a,
            width: w,
        }),
        (0u32..NREGS, gen_operand(), gen_width()).prop_map(|(s, a, w)| Inst::Store {
            src: Operand::Reg(VReg(s)),
            addr: a,
            width: w,
        }),
        (0i64..1024, 2048i64..3072, 0i64..64).prop_map(|(s, d, n)| Inst::Memcpy {
            dst: Operand::Imm(d),
            src: Operand::Imm(s),
            len: Operand::Imm(n),
        }),
        (gen_dst(), 0u32..NFUNCS, gen_args()).prop_map(|(dst, callee, args)| Inst::Call {
            dst,
            callee,
            args,
        }),
        (gen_dst(), gen_operand(), gen_args())
            .prop_map(|(dst, target, args)| { Inst::CallIndirect { dst, target, args } }),
        (
            gen_dst(),
            prop_oneof![
                Just("test.add"),
                Just("test.neg"),
                Just("test.fail"),
                Just("test.missing")
            ],
            gen_args()
        )
            .prop_map(|(dst, name, args)| Inst::Extern {
                dst,
                name: name.to_string(),
                args,
            }),
        (0u32..NREGS, gen_operand()).prop_map(|(d, s)| Inst::MaskGhost {
            dst: VReg(d),
            src: s
        }),
        (0u32..NREGS, gen_operand()).prop_map(|(d, s)| Inst::ZeroSva {
            dst: VReg(d),
            src: s
        }),
        (gen_operand(), LABEL - 1..LABEL + 2).prop_map(|(t, l)| Inst::CfiCheck {
            target: t,
            expected_label: l,
        }),
    ]
}

fn gen_terminator() -> impl Strategy<Value = Terminator> {
    prop_oneof![
        (0u32..NBLOCKS).prop_map(|b| Terminator::Jmp(BlockId(b))),
        (0u32..NREGS, 0u32..NBLOCKS, 0u32..NBLOCKS).prop_map(|(c, t, e)| Terminator::Br {
            cond: Operand::Reg(VReg(c)),
            then_blk: BlockId(t),
            else_blk: BlockId(e),
        }),
        Just(Terminator::Ret(None)),
        gen_operand().prop_map(|o| Terminator::Ret(Some(o))),
    ]
}

/// A function of [`NBLOCKS`] blocks. Every block carries at least one
/// (fuel-charging) instruction, so any control-flow cycle burns fuel and the
/// fuel budget bounds execution.
fn gen_function(name: &'static str) -> impl Strategy<Value = Function> {
    let block = (
        proptest::collection::vec(gen_inst(), 1..5),
        gen_terminator(),
    )
        .prop_map(|(insts, term)| Block { insts, term });
    proptest::collection::vec(block, NBLOCKS as usize..NBLOCKS as usize + 1).prop_map(
        move |mut blocks| {
            // The last block always returns, so at least one exit exists.
            blocks.last_mut().expect("nonempty").term = Terminator::Ret(None);
            Function {
                name: name.to_string(),
                params: 2,
                blocks,
                cfi_label: Some(LABEL),
            }
        },
    )
}

fn gen_module() -> impl Strategy<Value = Module> {
    (gen_function("f0"), gen_function("f1"), gen_function("f2")).prop_map(|(f0, f1, f2)| {
        let mut m = Module::new("gen");
        m.push_function(f0);
        m.push_function(f1);
        m.push_function(f2);
        m
    })
}

/// Full observable outcome of one run.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    result: Result<i64, InterpFault>,
    stats: InterpStats,
    fuel_left: u64,
    mem: Vec<u8>,
    host_calls: u64,
}

fn run_engine(
    reg: &CodeRegistry,
    engine: Engine,
    entry: vg_ir::CodeAddr,
    args: &[i64],
    fuel: u64,
    max_depth: usize,
) -> Outcome {
    let mut interp = Interp::new(reg)
        .with_engine(engine)
        .with_fuel(fuel)
        .with_max_depth(max_depth);
    let mut mem = FlatMem::new(MEM_SIZE);
    let mut host = TestHost::default();
    let result = interp.run(
        entry,
        args,
        &mut Pair {
            mem: &mut mem,
            host: &mut host,
        },
    );
    Outcome {
        result,
        stats: interp.stats,
        fuel_left: interp.fuel_remaining(),
        mem: mem.bytes,
        host_calls: host.calls,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The tentpole invariant: bit-identical everything, across arbitrary
    /// programs, fuel budgets and depth limits.
    #[test]
    fn engines_agree(
        m in gen_module(),
        fuel in prop_oneof![Just(0u64), 1u64..60, 1000u64..10_000],
        max_depth in prop_oneof![Just(0usize), 1usize..6, Just(128usize)],
        a0 in any::<i16>(),
    ) {
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let entry = reg.addr_of(h, "f0").expect("registered");
        // Arg 0 is a *valid* code address, so indirect calls and CFI checks
        // through register 0 sometimes succeed instead of always faulting.
        let args = [entry.0 as i64, a0 as i64];
        let reference = run_engine(&reg, Engine::Reference, entry, &args, fuel, max_depth);
        let fused = run_engine(&reg, Engine::Fused, entry, &args, fuel, max_depth);
        prop_assert_eq!(&fused, &reference);
        // Run the fused engine again with every inline cache warm: still
        // identical.
        let warm = run_engine(&reg, Engine::Fused, entry, &args, fuel, max_depth);
        prop_assert_eq!(&warm, &reference);
    }

    /// Satellite (shift-count semantics): shift counts at and beyond 64, and
    /// negative counts, are taken mod 64 identically by both engines.
    #[test]
    fn shift_semantics_agree(
        a in any::<i64>(),
        count in prop_oneof![
            any::<i64>(),
            // Weight the interesting boundary region: 0..=130 and negatives.
            0i64..131,
            -130i64..0,
            Just(63i64), Just(64i64), Just(65i64), Just(-1i64), Just(i64::MIN),
        ],
        shr in any::<bool>(),
    ) {
        let op = if shr { BinOp::Shr } else { BinOp::Shl };
        let mut m = Module::new("shift");
        let mut b = FunctionBuilder::new("f0", 2);
        let v = b.bin(op, b.param(0).into(), b.param(1).into());
        m.push_function(b.ret(Some(v.into())));
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let entry = reg.addr_of(h, "f0").expect("registered");
        let args = [a, count];
        let reference = run_engine(&reg, Engine::Reference, entry, &args, 100, 4);
        let fused = run_engine(&reg, Engine::Fused, entry, &args, 100, 4);
        prop_assert_eq!(&fused, &reference);
        // And against the documented mod-64 model directly.
        let expect = if shr {
            ((a as u64) >> ((count as u32) & 63)) as i64
        } else {
            a.wrapping_shl((count as u32) & 63)
        };
        prop_assert_eq!(reference.result, Ok(expect));
    }
}

/// Helper: a module whose `spin` function loops forever doing one add per
/// iteration and whose `rec` function recurses forever.
fn limits_module() -> Module {
    let mut m = Module::new("limits");
    let mut b = FunctionBuilder::new("spin", 0);
    let blk = b.new_block();
    b.jmp(blk);
    b.switch_to(blk);
    b.bin(BinOp::Add, 1.into(), 2.into());
    b.jmp(blk);
    m.push_function(b.finish());
    let mut r = FunctionBuilder::new("rec", 0);
    r.call(1, &[]);
    m.push_function(r.ret(None));
    m
}

/// Satellite: both engines hit `OutOfFuel` at exactly the same point
/// for every fuel budget (identical stats and zero fuel left).
#[test]
fn equal_out_of_fuel_points() {
    let mut reg = CodeRegistry::new();
    let h = reg.register_module(limits_module(), CodeSpace::Kernel);
    let entry = reg.addr_of(h, "spin").unwrap();
    for fuel in 0..64 {
        let r = run_engine(&reg, Engine::Reference, entry, &[], fuel, 128);
        let f = run_engine(&reg, Engine::Fused, entry, &[], fuel, 128);
        assert_eq!(f, r, "fuel budget {fuel}");
        assert_eq!(r.result, Err(InterpFault::OutOfFuel));
        assert_eq!(r.fuel_left, 0);
    }
}

/// Satellite: fuel exhaustion *inside* a fused ALU run faults at the
/// identical instruction index, with identical counters, in both engines —
/// the fused engine's amortized fuel check may not move the
/// exhaustion point.
#[test]
fn out_of_fuel_mid_fused_sequence() {
    // A straight line of 24 ALU ops (mask ops included, so the `masks`
    // counter is also cut mid-run) that the fuser collapses into one run.
    let mut m = Module::new("run");
    let mut b = FunctionBuilder::new("f", 1);
    let mut v = b.param(0);
    for k in 0..8i64 {
        v = b.bin(BinOp::Add, v.into(), k.into());
        let g = b.mask_ghost(v.into());
        v = b.bin(BinOp::Xor, v.into(), g.into());
    }
    m.push_function(b.ret(Some(v.into())));
    let mut reg = CodeRegistry::new();
    let h = reg.register_module(m, CodeSpace::Kernel);
    let entry = reg.addr_of(h, "f").unwrap();
    for fuel in 0..32 {
        let r = run_engine(&reg, Engine::Reference, entry, &[7], fuel, 8);
        let f = run_engine(&reg, Engine::Fused, entry, &[7], fuel, 8);
        assert_eq!(f, r, "fuel budget {fuel}");
        if fuel < 24 {
            assert_eq!(r.result, Err(InterpFault::OutOfFuel), "fuel {fuel}");
            assert_eq!(r.stats.insts, fuel, "exhaustion index, fuel {fuel}");
        } else {
            assert!(r.result.is_ok(), "fuel {fuel}");
        }
    }
}

/// Satellite: both engines hit `StackOverflow` at exactly the same
/// frame count for every depth limit.
#[test]
fn equal_stack_overflow_points() {
    let mut reg = CodeRegistry::new();
    let h = reg.register_module(limits_module(), CodeSpace::Kernel);
    let entry = reg.addr_of(h, "rec").unwrap();
    for depth in 0..32 {
        let r = run_engine(&reg, Engine::Reference, entry, &[], 1_000_000, depth);
        let f = run_engine(&reg, Engine::Fused, entry, &[], 1_000_000, depth);
        assert_eq!(f, r, "depth limit {depth}");
        assert_eq!(r.result, Err(InterpFault::StackOverflow));
        // Exactly one call instruction per frame reached the check.
        assert_eq!(r.stats.insts, depth as u64 + 1);
    }
}

/// Satellite (fuel write-back on fault paths): for *every* fault kind, the
/// full outcome — result, stats, remaining fuel, memory — is identical
/// across both engines. The fused engine caches fuel in a local and
/// write it back on exit; a missed write-back on any early-return path
/// would show up here as a `fuel_left` divergence.
#[test]
fn fuel_writeback_agrees_on_every_fault_kind() {
    let faulting = |name: &'static str, build: &dyn Fn(&mut FunctionBuilder)| {
        let mut m = Module::new("faults");
        let mut b = FunctionBuilder::new(name, 1);
        // A couple of charged instructions before the fault so `fuel_left`
        // is nonzero and divergence is observable.
        let x = b.bin(BinOp::Add, b.param(0).into(), 1.into());
        b.bin(BinOp::Mul, x.into(), 3.into());
        build(&mut b);
        m.push_function(b.ret(None));
        m
    };
    let cases: Vec<(&'static str, Module, InterpFault)> = vec![
        (
            "load_fault",
            faulting("f", &|b| {
                b.load((MEM_SIZE as i64 + 8).into(), Width::W8);
            }),
            InterpFault::Mem(vg_ir::interp::MemFault {
                addr: MEM_SIZE as u64 + 8,
                write: false,
            }),
        ),
        (
            "store_fault",
            faulting("f", &|b| {
                b.store(1.into(), (MEM_SIZE as i64 + 8).into(), Width::W8);
            }),
            InterpFault::Mem(vg_ir::interp::MemFault {
                addr: MEM_SIZE as u64 + 8,
                write: true,
            }),
        ),
        (
            "memcpy_fault",
            faulting("f", &|b| {
                b.memcpy((MEM_SIZE as i64 - 4).into(), 0.into(), 64.into());
            }),
            InterpFault::Mem(vg_ir::interp::MemFault {
                addr: MEM_SIZE as u64,
                write: true,
            }),
        ),
        (
            "cfi_violation",
            faulting("f", &|b| {
                let t = b.mov(0x1000.into());
                b.cfi_check(t.into(), LABEL);
            }),
            InterpFault::CfiViolation { target: 0x1000 },
        ),
        (
            "bad_indirect",
            faulting("f", &|b| {
                b.call_indirect(0x1000.into(), &[]);
            }),
            InterpFault::BadIndirect { target: 0x1000 },
        ),
        (
            "unknown_extern",
            faulting("f", &|b| {
                b.ext("no.such.fn", &[]);
            }),
            InterpFault::UnknownExtern {
                name: "no.such.fn".into(),
            },
        ),
        (
            "host_failed",
            faulting("f", &|b| {
                b.ext("test.fail", &[]);
            }),
            InterpFault::HostFailed {
                reason: "deliberate".into(),
            },
        ),
    ];
    for (label, m, want) in cases {
        let mut reg = CodeRegistry::new();
        let h = reg.register_module(m, CodeSpace::Kernel);
        let entry = reg.addr_of(h, "f").unwrap();
        let r = run_engine(&reg, Engine::Reference, entry, &[5], 1000, 8);
        let f = run_engine(&reg, Engine::Fused, entry, &[5], 1000, 8);
        assert_eq!(r.result, Err(want), "{label}: expected fault");
        assert_eq!(f, r, "{label}: fused diverged");
        assert!(r.fuel_left > 0, "{label}: fault should leave fuel");
    }
    // OutOfFuel and StackOverflow are covered exhaustively above.
}

/// Satellite: extern names never seen by the host's id table still work via
/// the string fallback, and `HostError::Unknown` surfaces as the same
/// `UnknownExtern` fault in both engines.
#[test]
fn unknown_extern_surfaces_identically() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("f", 0);
    b.ext("test.add", &[1.into(), 2.into()]);
    b.ext("definitely.not.a.host.fn", &[]);
    m.push_function(b.ret(None));
    let mut reg = CodeRegistry::new();
    let h = reg.register_module(m, CodeSpace::Kernel);
    let entry = reg.addr_of(h, "f").unwrap();
    let f = run_engine(&reg, Engine::Fused, entry, &[], 1000, 128);
    let r = run_engine(&reg, Engine::Reference, entry, &[], 1000, 128);
    assert_eq!(f, r);
    assert_eq!(
        f.result,
        Err(InterpFault::UnknownExtern {
            name: "definitely.not.a.host.fn".into()
        })
    );
    // The known extern before it did run (via the default string fallback of
    // `call_extern_id`).
    assert_eq!(f.host_calls, 2);
    assert_eq!(f.stats.extern_calls, 2);
}

/// A host that *only* understands ids it precomputed — calls reaching it by
/// name would fail. Proves the fused engine passes ids the interner
/// actually assigned.
struct IdOnlyHost {
    add_id: u32,
}

impl ExternHost for IdOnlyHost {
    fn call_extern(&mut self, _name: &str, _args: &[i64]) -> Result<i64, HostError> {
        Err(HostError::Failed("string path used".into()))
    }

    fn call_extern_id(&mut self, id: u32, _name: &str, args: &[i64]) -> Result<i64, HostError> {
        if id == self.add_id {
            Ok(args.iter().copied().fold(0i64, i64::wrapping_add))
        } else {
            Err(HostError::Unknown)
        }
    }
}

#[test]
fn fused_engine_dispatches_by_interned_id() {
    let mut m = Module::new("t");
    let mut b = FunctionBuilder::new("f", 0);
    let v = b.ext("test.add", &[20.into(), 22.into()]);
    m.push_function(b.ret(Some(v.into())));
    let mut reg = CodeRegistry::new();
    let h = reg.register_module(m, CodeSpace::Kernel);
    let entry = reg.addr_of(h, "f").unwrap();
    let add_id = reg.extern_id("test.add").expect("interned at lowering");
    let mut interp = Interp::new(&reg).with_engine(Engine::Fused);
    let mut mem = FlatMem::new(64);
    let mut host = IdOnlyHost { add_id };
    let r = interp.run(
        entry,
        &[],
        &mut Pair {
            mem: &mut mem,
            host: &mut host,
        },
    );
    assert_eq!(r, Ok(42));
}

/// Acceptance: a warm inline cache never satisfies an indirect call or CFI
/// check from stale code — registering *anything* (here the rootkit-style
/// `register_at` injection) bumps the registry generation and flushes every
/// cache.
#[test]
fn warm_inline_caches_are_invalidated_by_registration() {
    // Two candidate targets with different labels plus a caller that
    // CFI-checks then indirect-calls its argument.
    let mut tm = Module::new("targets");
    let mut ok = FunctionBuilder::new("ok", 0);
    let ret = ok.mov(1.into());
    let mut f = ok.ret(Some(ret.into()));
    f.cfi_label = Some(LABEL);
    tm.push_function(f);
    let mut bad = FunctionBuilder::new("bad", 0);
    let ret = bad.mov(2.into());
    let mut f = bad.ret(Some(ret.into()));
    f.cfi_label = Some(LABEL + 1);
    tm.push_function(f);

    let caller = Function {
        name: "main".to_string(),
        params: 1,
        blocks: vec![Block {
            insts: vec![
                Inst::CfiCheck {
                    target: Operand::Reg(VReg(0)),
                    expected_label: LABEL,
                },
                Inst::CallIndirect {
                    dst: Some(VReg(1)),
                    target: Operand::Reg(VReg(0)),
                    args: vec![],
                },
            ],
            term: Terminator::Ret(Some(Operand::Reg(VReg(1)))),
        }],
        cfi_label: None,
    };
    let mut cm = Module::new("caller");
    cm.push_function(caller);

    let mut reg = CodeRegistry::new();
    let th = reg.register_module(tm, CodeSpace::Kernel);
    let ch = reg.register_module(cm, CodeSpace::Kernel);
    let target = reg.addr_of(th, "ok").unwrap();
    assert!(target.0 >= KERNEL_TEXT_BASE);
    let entry = reg.addr_of(ch, "main").unwrap();

    // Warm both site caches (CFI check + indirect call) on the `ok` target.
    let warm = run_engine(&reg, Engine::Fused, entry, &[target.0 as i64], 1000, 8);
    assert_eq!(warm.result, Ok(1));

    // Rootkit move: rebind the *same address* to the differently-labeled
    // `bad` function. The generation bump must flush the warm caches, so the
    // CFI check re-resolves and rejects the swapped-in code.
    reg.register_at(target, th, 1);
    let after = run_engine(&reg, Engine::Fused, entry, &[target.0 as i64], 1000, 8);
    assert_eq!(
        after.result,
        Err(InterpFault::CfiViolation { target: target.0 }),
        "stale cache satisfied a CFI check over injected code"
    );
    // And the reference engine agrees about the post-injection world.
    let reference = run_engine(&reg, Engine::Reference, entry, &[target.0 as i64], 1000, 8);
    assert_eq!(after, reference);
}
