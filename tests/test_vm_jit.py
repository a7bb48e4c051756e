"""Differential tests for the PRE JIT (bytecode -> Python closure).

The JIT must be indistinguishable from the reference interpreter in
everything except speed: same results, same ``instructions_executed`` and
``helper_calls_made``, same heap contents, same fault classes *and*
messages.  The core of this file is a seeded random-program generator
whose output always passes the static verifier; every program is run
through both engines under several fuel budgets and the full observable
state is compared bit-for-bit.
"""

import random
from pathlib import Path

import pytest

from repro.vm import VirtualMachine, assemble, verify
from repro.vm.analysis import analyze
from repro.vm.interpreter import (
    HEAP_BASE,
    STACK_BASE,
    FuelExhausted,
    PluginMemory,
    VmError,
)
from repro.vm.isa import (
    LOAD_OPS,
    MEM_SIZES,
    STACK_SIZE,
    STORE_REG_OPS,
    Instruction,
    Op,
)
from repro.vm.jit import (
    MAX_JIT_PROGRAM,
    JitError,
    JitVirtualMachine,
    compile_jit,
    create_vm,
    stack_free,
)

HEAP_SIZE = 4096

# --- random program generator (always verifier-clean) -----------------------

ALU_IMM_LIST = [Op.ADD_IMM, Op.SUB_IMM, Op.MUL_IMM, Op.DIV_IMM, Op.MOD_IMM,
                Op.AND_IMM, Op.OR_IMM, Op.XOR_IMM, Op.LSH_IMM, Op.RSH_IMM,
                Op.ARSH_IMM, Op.MOV_IMM]
ALU_REG_LIST = [Op.ADD, Op.SUB, Op.MUL, Op.DIV, Op.MOD, Op.AND, Op.OR,
                Op.XOR, Op.LSH, Op.RSH, Op.ARSH, Op.MOV]
JUMP_LIST = [Op.JA, Op.JEQ, Op.JNE, Op.JGT, Op.JGE, Op.JLT, Op.JLE,
             Op.JSGT, Op.JSLT, Op.JSET, Op.JEQ_IMM, Op.JNE_IMM, Op.JGT_IMM,
             Op.JGE_IMM, Op.JLT_IMM, Op.JLE_IMM, Op.JSGT_IMM, Op.JSLT_IMM,
             Op.JSET_IMM]
JMP_IMM_SET = {Op.JEQ_IMM, Op.JNE_IMM, Op.JGT_IMM, Op.JGE_IMM, Op.JLT_IMM,
               Op.JLE_IMM, Op.JSGT_IMM, Op.JSLT_IMM, Op.JSET_IMM}
MEM_LIST = [Op.LDXB, Op.LDXH, Op.LDXW, Op.LDXDW, Op.STXB, Op.STXH, Op.STXW,
            Op.STXDW, Op.STB, Op.STH, Op.STW, Op.STDW]

IMM_POOL = [0, 1, 2, 3, 5, 7, 63, 64, 255, 256, 65521, -1, -2, -7, -64,
            (1 << 31) - 1, -(1 << 31), (1 << 63) - 1]


def _random_imm(rng):
    if rng.random() < 0.5:
        return rng.choice(IMM_POOL)
    return rng.getrandbits(64) - (1 << 63)


def _random_ins(rng, pc, total):
    """One verifier-clean instruction at absolute position ``pc``."""
    r = rng.random()
    dst = rng.randrange(10)  # never write r10
    src = rng.randrange(11)  # reading r10 is fine
    if r < 0.26:
        op = rng.choice(ALU_IMM_LIST)
        if op in (Op.LSH_IMM, Op.RSH_IMM, Op.ARSH_IMM):
            imm = rng.randrange(64)
        elif op in (Op.DIV_IMM, Op.MOD_IMM):
            imm = rng.choice([1, 2, 3, 7, 255, 65521])
        else:
            imm = _random_imm(rng)
        return Instruction(op, dst=dst, imm=imm)
    if r < 0.40:
        # Includes DIV/MOD by register: a zero divisor is a legitimate
        # differential outcome (ExecutionError in both engines).
        return Instruction(rng.choice(ALU_REG_LIST), dst=dst, src=src)
    if r < 0.45:
        return Instruction(Op.NEG, dst=dst)
    if r < 0.51:
        return Instruction(Op.LDDW, dst=dst, imm=_random_imm(rng))
    if r < 0.65:
        op = rng.choice(JUMP_LIST)
        # Mostly forward so programs usually terminate; backward jumps
        # exercise loops + fuel exhaustion.
        if rng.random() < 0.8 and pc + 1 < total:
            target = rng.randrange(pc + 1, total)
        else:
            target = rng.randrange(total)
        off = target - pc - 1
        if op is Op.JA:
            return Instruction(op, offset=off)
        if op in JMP_IMM_SET:
            return Instruction(op, dst=dst, offset=off, imm=_random_imm(rng))
        return Instruction(op, dst=dst, src=src, offset=off)
    if r < 0.75:
        # Frame-pointer-relative access: statically checked, so keep the
        # offset inside the stack (the verifier rejects anything else).
        op = rng.choice(MEM_LIST)
        size = MEM_SIZES[op]
        offset = -rng.randrange(size, STACK_SIZE + 1)
        if op in LOAD_OPS:
            return Instruction(op, dst=dst, src=10, offset=offset)
        if op in STORE_REG_OPS:
            return Instruction(op, dst=10, src=src, offset=offset)
        return Instruction(op, dst=10, offset=offset, imm=_random_imm(rng))
    if r < 0.93:
        # Dynamically-monitored access through r6 (stack ptr), r7 (heap
        # ptr) or a random register — violations are an expected outcome.
        op = rng.choice(MEM_LIST)
        base = rng.choice([6, 6, 7, 7, 7, rng.randrange(10)])
        offset = rng.choice([0, 0, 8, 16, 24, -8, 96, 504, 4096])
        if op in LOAD_OPS:
            return Instruction(op, dst=dst, src=base, offset=offset)
        if op in STORE_REG_OPS:
            return Instruction(op, dst=base, src=src, offset=offset)
        return Instruction(op, dst=base, offset=offset, imm=_random_imm(rng))
    return Instruction(Op.CALL, imm=rng.choice([1, 1, 1, 7, 7, 99]))


def random_program(rng, n_body=30):
    prog = [
        Instruction(Op.LDDW, dst=6,
                    imm=STACK_BASE + rng.randrange(0, STACK_SIZE, 8)),
        Instruction(Op.LDDW, dst=7,
                    imm=HEAP_BASE + rng.randrange(0, HEAP_SIZE, 8)),
    ]
    total = len(prog) + n_body + 1
    for i in range(n_body):
        prog.append(_random_ins(rng, len(prog), total))
    prog.append(Instruction(Op.EXIT))
    return prog


# --- differential harness ----------------------------------------------------

def _make_helpers(log):
    @stack_free
    def h_sum(vm, a1, a2, a3, a4, a5):
        log.append(("sum", a1, a2, a3, a4, a5))
        return a1 + a2

    def h_void(vm, a1, a2, a3, a4, a5):
        log.append(("void", a1))
        return None

    return {1: h_sum, 7: h_void, 9: _stack_poker(log)}


def _stack_poker(log):
    """An undeclared helper that reads the 8 bytes at ``a1`` (a stack
    pointer, typically) and writes them back plus ``a2``."""
    def h_poke(vm, a1, a2, a3, a4, a5):
        value = vm.load(a1, 8, vm.current_stack)
        vm.store(a1, 8, value + a2, vm.current_stack)
        log.append(("poke", a1, value))
        return value

    return h_poke


def _observe(vm_cls, program, budget, runs, analysis=None, expect_jit=True,
             make_helpers=_make_helpers):
    """Run ``program`` and capture everything observable from outside."""
    mem = PluginMemory(size=HEAP_SIZE)
    log = []
    kwargs = {"analysis": analysis} if analysis is not None else {}
    vm = vm_cls(program, mem, helpers=make_helpers(log),
                instruction_budget=budget, helper_call_budget=8, **kwargs)
    if vm_cls is JitVirtualMachine and expect_jit:
        assert vm.jit_enabled, "generated program unexpectedly fell back"
    trace = []
    for args in runs:
        try:
            trace.append(("ok", vm.run(*args)))
        except VmError as exc:
            trace.append(("err", type(exc).__name__, str(exc)))
        trace.append((vm.instructions_executed, vm.helper_calls_made))
        assert vm.current_stack is None
    return trace, bytes(mem.data), log


def assert_equivalent(program, budgets=(5, 17, 64, 300),
                      runs=((), (3, (1 << 63) + 5, 7)),
                      make_helpers=_make_helpers):
    verify(program)
    for budget in budgets:
        ref = _observe(VirtualMachine, program, budget, runs,
                       make_helpers=make_helpers)
        jit = _observe(JitVirtualMachine, program, budget, runs,
                       make_helpers=make_helpers)
        assert jit == ref, (
            f"divergence at budget={budget}:\n ref={ref}\n jit={jit}\n"
            f"program={program}"
        )


# --- tests -------------------------------------------------------------------

class TestRandomDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_random_programs(self, seed):
        rng = random.Random(0xC0FFEE ^ seed)
        for _ in range(3):
            assert_equivalent(random_program(rng))

    def test_longer_programs(self):
        rng = random.Random(0xBEEF)
        for _ in range(5):
            assert_equivalent(random_program(rng, n_body=120),
                              budgets=(40, 1000))


class TestFixedPrograms:
    def test_kernel_result_and_fuel_identical(self):
        src = """
            mov r2, 0
            mov r3, 0
        loop:
            jge r3, r1, done
            mov r4, r3
            mul r4, 3
            add r2, r4
            mod r2, 65521
            add r3, 1
            ja loop
        done:
            mov r0, r2
            exit
        """
        assert_equivalent(assemble(src), budgets=(10, 999, 10_000_000),
                          runs=((500,), (2000,)))

    def test_memory_violation_same_class_and_message(self):
        prog = assemble("lddw r2, 0x7f00000000\nldxdw r0, [r2+0]\nexit")
        assert_equivalent(prog)

    def test_fp_constant_folded_violation(self):
        # r10-based but *dynamic* base via mov keeps it unverified; use a
        # heap pointer walked past the end instead.
        prog = assemble(
            f"lddw r2, {HEAP_BASE}\nadd r2, {HEAP_SIZE - 4}\n"
            "ldxdw r0, [r2+0]\nexit"
        )
        assert_equivalent(prog)

    def test_infinite_loop_fuel_exact(self):
        assert_equivalent(assemble("top:\nja top\nexit"), budgets=(1, 2, 77))

    def test_division_by_zero_register(self):
        assert_equivalent(assemble("mov r2, 0\nmov r1, 5\ndiv r1, r2\nexit"))

    def test_helper_budget_and_unknown_helper(self):
        calls = "\n".join(["call 1"] * 12) + "\nexit"
        assert_equivalent(assemble(calls))
        assert_equivalent(assemble("call 99\nexit"))

    def test_fall_off_end_is_pc_error(self):
        # r0 == 0, so the jump skips EXIT, lands on the trailing MOV and
        # runs off the end of the program.
        prog = [Instruction(Op.JEQ_IMM, dst=0, offset=1, imm=0),
                Instruction(Op.EXIT),
                Instruction(Op.MOV_IMM, dst=0, imm=7)]
        assert_equivalent(prog)
        # Untaken variant of the same shape falls through to EXIT.
        prog2 = [Instruction(Op.JEQ_IMM, dst=0, offset=1, imm=5),
                 Instruction(Op.EXIT),
                 Instruction(Op.MOV_IMM, dst=0, imm=7)]
        assert_equivalent(prog2)

    def test_argument_masking(self):
        prog = assemble("mov r0, r1\nexit")
        assert_equivalent(prog, runs=((-1,), ((1 << 65) + 9,)))

    def test_signed_compares_and_arsh(self):
        src = """
            lddw r2, -8
            arsh r2, 1
            jsgt r2, r1, neg
            mov r0, 1
            exit
        neg:
            mov r0, 2
            exit
        """
        assert_equivalent(assemble(src), runs=((0,), (-3,), ((1 << 63),)))

    def test_helper_sees_current_stack(self):
        """The JIT must expose the live stack to helpers, like the
        interpreter does (helpers resolve stack pointers through it)."""
        seen = []

        def peek(vm, a1, a2, a3, a4, a5):
            seen.append(vm.load(a1, 8, vm.current_stack))
            return 0

        prog = assemble(
            "stdw [r10-8], 123456\nmov r1, r10\nadd r1, -8\ncall 3\nexit"
        )
        for cls in (VirtualMachine, JitVirtualMachine):
            vm = cls(prog, PluginMemory(size=64), helpers={3: peek})
            vm.run()
        assert seen == [123456, 123456]

    def test_heap_state_persists_between_runs(self):
        prog = assemble(
            f"lddw r2, {HEAP_BASE}\nldxdw r3, [r2+0]\nadd r3, 1\n"
            "stxdw [r2+0], r3\nmov r0, r3\nexit"
        )
        assert_equivalent(prog, runs=((), (), ()))


# --- register-resident stack slots -------------------------------------------

SLOT_OFFSETS = (-8, -16, -24, -32, -40)


def _escaping_ins(rng, pc, total):
    """Mostly aligned 8-byte frame accesses (register-resident slots),
    frame pointers escaping into r1/r6, stack-touching helper calls and
    register-addressed accesses through the escaped pointers."""
    r = rng.random()
    reg = rng.choice([1, 6])
    if r < 0.35:
        off = rng.choice(SLOT_OFFSETS)
        op = rng.choice([Op.LDXDW, Op.STXDW, Op.STDW])
        if op is Op.LDXDW:
            return Instruction(op, dst=rng.randrange(10), src=10, offset=off)
        if op is Op.STXDW:
            return Instruction(op, dst=10, src=rng.randrange(11), offset=off)
        return Instruction(op, dst=10, offset=off, imm=_random_imm(rng))
    if r < 0.43:
        return Instruction(Op.MOV, dst=reg, src=10)
    if r < 0.51:
        return Instruction(Op.ADD_IMM, dst=reg,
                           imm=rng.choice(SLOT_OFFSETS + (-4, 8)))
    if r < 0.59:
        return Instruction(Op.CALL, imm=rng.choice([9, 9, 1]))
    if r < 0.71:
        op = rng.choice(MEM_LIST)
        offset = rng.choice([0, 0, 4, -8])
        if op in LOAD_OPS:
            return Instruction(op, dst=rng.randrange(10), src=reg,
                               offset=offset)
        if op in STORE_REG_OPS:
            return Instruction(op, dst=reg, src=rng.randrange(11),
                               offset=offset)
        return Instruction(op, dst=reg, offset=offset, imm=_random_imm(rng))
    if r < 0.74:  # mixed width: knocks a slot back into memory
        op = rng.choice([Op.LDXW, Op.STW, Op.STXB])
        off = rng.choice(SLOT_OFFSETS) + rng.choice([0, 4])
        if op is Op.LDXW:
            return Instruction(op, dst=rng.randrange(10), src=10, offset=off)
        if op is Op.STW:
            return Instruction(op, dst=10, offset=off, imm=_random_imm(rng))
        return Instruction(op, dst=10, src=rng.randrange(11), offset=off)
    return _random_ins(rng, pc, total)


def escaping_program(rng, n_body=30):
    prog = [Instruction(Op.MOV, dst=1, src=10),
            Instruction(Op.ADD_IMM, dst=1, imm=rng.choice(SLOT_OFFSETS)),
            Instruction(Op.LDDW, dst=6, imm=STACK_BASE + STACK_SIZE
                        + rng.choice(SLOT_OFFSETS)),
            Instruction(Op.LDDW, dst=7,
                        imm=HEAP_BASE + rng.randrange(0, HEAP_SIZE, 8))]
    total = len(prog) + n_body + 1
    for _ in range(n_body):
        prog.append(_escaping_ins(rng, len(prog), total))
    prog.append(Instruction(Op.EXIT))
    return prog


def _slots_in(program):
    source = compile_jit(program).source
    return {word for word in source.replace(",", " ").split()
            if word.startswith("_s") and word[2:].isdigit()}


class TestRegisterResidentSlots:
    """Frame slots kept in Python locals must stay invisible: every
    helper, forged address and fault sees exactly the interpreter's
    stack, fuel and heap."""

    def test_escaped_frame_pointer_to_undeclared_helper(self):
        prog = assemble(
            "stdw [r10-8], 41\nstdw [r10-16], 7\n"
            "mov r1, r10\nadd r1, -8\nmov r2, 100\n"
            "call 9\n"  # reads 41 from the slot, writes 141 back
            "ldxdw r0, [r10-8]\nldxdw r3, [r10-16]\nadd r0, r3\nexit")
        assert _slots_in(prog) == {"_s504", "_s496"}
        assert_equivalent(prog, budgets=(3, 6, 7, 64))
        assert_proof_equivalent(prog, budgets=(3, 6, 7, 64))
        vm = JitVirtualMachine(prog, PluginMemory(size=64),
                               helpers={9: _stack_poker([])})
        assert vm.run() == 148

    def test_forged_constant_address_reads_and_writes_slot(self):
        prog = assemble(
            "stdw [r10-8], 5\n"
            f"lddw r2, {STACK_BASE + STACK_SIZE - 8}\n"
            "ldxdw r3, [r2+0]\nadd r3, 10\nstxdw [r2+0], r3\n"
            "ldxdw r0, [r10-8]\nexit")
        assert _slots_in(prog) == {"_s504"}
        assert_equivalent(prog, budgets=(2, 3, 5, 64))
        assert_proof_equivalent(prog, budgets=(2, 3, 5, 64))
        assert JitVirtualMachine(prog, PluginMemory(size=64)).run() == 15

    def test_mixed_width_overlap_keeps_slot_in_memory(self):
        prog = assemble(
            "stdw [r10-8], -1\nstw [r10-4], 0\n"  # overlaps slot -8
            "stdw [r10-16], 3\n"                    # a clean slot
            "stxdw [r10-28], r10\n"                 # unaligned: -32, -24
            "stdw [r10-24], 4\nldxdw r0, [r10-8]\nldxdw r1, [r10-16]\n"
            "add r0, r1\nldxdw r1, [r10-24]\nadd r0, r1\nexit")
        assert _slots_in(prog) == {"_s496"}
        assert_equivalent(prog)
        assert JitVirtualMachine(prog, PluginMemory(size=64)).run() == \
            0xFFFFFFFF + 3 + 4

    def test_fuel_exhaustion_between_batched_stack_stores(self):
        prog = assemble(
            f"lddw r6, {HEAP_BASE}\nstdw [r10-8], 1\nstdw [r10-16], 2\n"
            "stxdw [r10-24], r6\nldxdw r1, [r10-8]\nstdw [r10-32], 4\n"
            "ldxdw r2, [r10-16]\nadd r1, r2\nstxdw [r6+0], r1\n"
            "stdw [r10-8], 9\nstxdw [r6+8], r1\nmov r1, r10\n"
            "add r1, -8\ncall 9\nldxdw r0, [r10-8]\n"
            "ldxdw r3, [r10-24]\nstxdw [r3+16], r0\nexit")
        budgets = range(len(prog) + 2)
        assert_equivalent(prog, budgets=budgets, runs=((), (0, 7)))
        assert_proof_equivalent(prog, budgets=budgets, runs=((), (0, 7)))

    def test_declaration_follows_the_function_not_the_id(self):
        """Id 5 is ``get_opaque_data``, declared stack-free in the core
        table; a custom table binds a stack-reading function there."""
        from repro.core.api import H_GET_OPAQUE_DATA, PluginApi

        assert PluginApi._h_opaque.stack_free
        prog = assemble(
            "stdw [r10-8], 40\nmov r1, r10\nadd r1, -8\nmov r2, 2\n"
            f"call {H_GET_OPAQUE_DATA}\nldxdw r0, [r10-8]\nexit")

        def reader(log):
            return {H_GET_OPAQUE_DATA: _stack_poker(log)}

        def declared(log):
            @stack_free
            def h_opaque(vm, a1, a2, a3, a4, a5):
                log.append(("opaque", a1, a2))
                return 0
            return {H_GET_OPAQUE_DATA: h_opaque}

        for make in (reader, declared):
            assert_equivalent(prog, make_helpers=make)
        # One VM, its table rebound between runs: each run is sound for
        # the function it actually calls.
        vm = JitVirtualMachine(prog, PluginMemory(size=64),
                               helpers=declared([]))
        assert vm.run() == 40
        vm.helpers = reader([])
        assert vm.run() == 42

    @pytest.mark.parametrize("seed", range(30))
    def test_seeded_stack_escaping_programs(self, seed):
        rng = random.Random(0x5EED ^ seed)
        for _ in range(3):
            program = escaping_program(rng)
            assert_equivalent(program)
            assert_proof_equivalent(program)

    def test_escaping_generator_registerizes_slots(self):
        rng = random.Random(0x5EED)
        programs = [escaping_program(rng) for _ in range(30)]
        assert sum(1 for p in programs if _slots_in(p)) >= 20


class TestJitMachinery:
    def test_compile_rejects_empty_program(self):
        with pytest.raises(JitError):
            compile_jit([])

    def test_oversized_program_falls_back(self):
        prog = [Instruction(Op.MOV_IMM, dst=0, imm=0)] * (MAX_JIT_PROGRAM + 1)
        prog.append(Instruction(Op.EXIT))
        vm = JitVirtualMachine(prog, PluginMemory(size=64))
        assert not vm.jit_enabled
        assert vm.run() == 0  # interpreter fallback still executes

    def test_create_vm_defaults_to_jit(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        prog = assemble("mov r0, 42\nexit")
        vm = create_vm(prog, PluginMemory(size=64))
        assert isinstance(vm, JitVirtualMachine) and vm.jit_enabled
        assert vm.run() == 42

    def test_repro_jit_0_forces_interpreter(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        prog = assemble("mov r0, 42\nexit")
        vm = create_vm(prog, PluginMemory(size=64))
        assert type(vm) is VirtualMachine
        assert vm.run() == 42

    def test_plugin_instance_uses_jit(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        from repro.core import Plugin, PluginInstance, Pluglet
        from repro.quic import QuicConfiguration
        from repro.quic.connection import QuicConnection

        conn = QuicConnection(QuicConfiguration(is_client=True))
        plugin = Plugin("org.test.jit", [
            Pluglet("noop", "packet_sent_event", "post",
                    assemble("mov r0, 0\nexit")),
        ])
        inst = PluginInstance(plugin, conn)
        vm = inst.vms["noop"]
        assert isinstance(vm, JitVirtualMachine) and vm.jit_enabled

    def test_generated_source_attached(self):
        fn = compile_jit(assemble("mov r0, 1\nexit"))
        assert "def _pluglet" in fn.source


# --- proof-guided specialization ---------------------------------------------

CORPUS_GOOD = Path(__file__).parent / "corpus" / "good"


def assert_proof_equivalent(program, budgets=(5, 17, 64, 300),
                            runs=((), (3, (1 << 63) + 5, 7)),
                            make_helpers=_make_helpers):
    """Like :func:`assert_equivalent`, but the JIT VM additionally gets
    the analyzer's report: the monitor-free specialized closure must be
    indistinguishable from the interpreter — proofs change speed, never
    behavior."""
    verify(program)
    report = analyze(program, heap_size=HEAP_SIZE)
    for budget in budgets:
        ref = _observe(VirtualMachine, program, budget, runs,
                       make_helpers=make_helpers)
        jit = _observe(JitVirtualMachine, program, budget, runs,
                       analysis=report, make_helpers=make_helpers)
        assert jit == ref, (
            f"proof-guided divergence at budget={budget}:\n ref={ref}\n"
            f" jit={jit}\n report={report.summary()}\n program={program}"
        )


class TestProofGuided:
    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in CORPUS_GOOD.glob("*.s")))
    def test_good_corpus_identical(self, name):
        program = assemble((CORPUS_GOOD / f"{name}.s").read_text())
        assert_proof_equivalent(program, runs=((), (3, 9), (250, 1)))

    @pytest.mark.parametrize("seed", range(25))
    def test_seeded_random_programs_with_proofs(self, seed):
        rng = random.Random(0xA11A ^ seed)
        for _ in range(3):
            assert_proof_equivalent(random_program(rng))

    def test_unproven_addresses_keep_the_monitor(self):
        # r1 is unknown to the analyzer, so no region fact exists; the
        # specialized closure must still catch the violation.
        program = assemble("ldxdw r0, [r1+0]\nexit")
        assert_proof_equivalent(
            program,
            runs=((STACK_BASE,), (HEAP_BASE,), (0,),
                  (HEAP_BASE + HEAP_SIZE - 4,)))

    def test_helper_budget_exhaustion_identical(self):
        program = assemble("\n".join(["call 1"] * 12) + "\nexit")
        assert_proof_equivalent(program)

    def test_specializes_on_proofs(self):
        program = assemble(
            f"lddw r6, {HEAP_BASE}\nstdw [r6+0], 7\nldxdw r0, [r6+0]\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        assert report.memory_safe and report.fuel_bound == 4
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               analysis=report)
        assert vm.jit_specialized
        assert vm.run() == 7
        assert vm.instructions_executed == 4

    def test_specialized_source_is_monitor_free(self):
        program = assemble(
            f"lddw r6, {HEAP_BASE}\nstdw [r6+0], 7\nldxdw r0, [r6+0]\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               analysis=report)
        fast = vm.closure(specialized=True).source
        checked = vm.closure().source
        assert "raise _FuelExhausted" in checked
        assert "raise _FuelExhausted" not in fast
        assert "_MemoryViolation" in checked
        assert "_MemoryViolation" not in fast  # both accesses proven
        assert "_fuel -=" in fast  # accounting stays exact

    def test_budget_below_bound_takes_checked_path(self):
        program = assemble("mov r0, 1\nadd r0, 2\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        assert report.fuel_bound == 3
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               instruction_budget=2, analysis=report)
        assert vm.jit_specialized  # the proof applies, but gated per run
        with pytest.raises(FuelExhausted, match="2 instructions"):
            vm.run()
        assert vm.instructions_executed == 2  # same charge as interpreter

    def test_rejected_program_is_not_specialized(self):
        # Definite division by zero: the report carries an error, so the
        # proofs must not be used; behavior is the plain checked JIT's.
        program = assemble("mov r6, 0\nmov r0, 10\ndiv r0, r6\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        assert not report.ok
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               analysis=report)
        assert not vm.jit_specialized
        assert_proof_equivalent(program)

    def test_heap_smaller_than_proof_disables_specialization(self):
        program = assemble(f"lddw r6, {HEAP_BASE}\nstdw [r6+0], 7\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        assert report.memory_safe
        vm = JitVirtualMachine(program, PluginMemory(size=64),
                               analysis=report)
        assert not vm.jit_specialized  # proof assumed a bigger heap
        vm.run()  # checked path still executes correctly

    def test_create_vm_analysis_env_gate(self, monkeypatch):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        program = assemble("mov r0, 42\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)

        monkeypatch.setenv("REPRO_ANALYSIS", "0")
        vm = create_vm(program, PluginMemory(size=HEAP_SIZE),
                       analysis=report)
        assert isinstance(vm, JitVirtualMachine)
        assert not vm.jit_specialized
        assert vm.run() == 42

        monkeypatch.delenv("REPRO_ANALYSIS")
        vm = create_vm(program, PluginMemory(size=HEAP_SIZE),
                       analysis=report)
        assert vm.jit_specialized
        assert vm.run() == 42


# --- lazy single-variant compilation -----------------------------------------

PROVEN_PROGRAM = (f"lddw r6, {HEAP_BASE}\nstdw [r6+0], 7\n"
                  "ldxdw r0, [r6+0]\nexit")


@pytest.fixture
def compiles(monkeypatch):
    """Record every ``compile_jit`` call as "specialized" or "checked"."""
    from repro.vm import jit

    calls = []
    original = jit.compile_jit

    def counting(instructions, proof=None):
        calls.append("checked" if proof is None else "specialized")
        return original(instructions, proof=proof)

    monkeypatch.setattr(jit, "compile_jit", counting)
    return calls


class TestLazyCompilation:
    def test_vm_that_never_runs_compiles_nothing(self, compiles):
        program = assemble(PROVEN_PROGRAM)
        report = analyze(program, heap_size=HEAP_SIZE)
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               analysis=report)
        plain = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE))
        assert vm.jit_specialized and not plain.jit_specialized
        assert vm.execution_path == plain.execution_path == "jit"
        assert compiles == []

    def test_first_run_compiles_the_selected_variant_once(self, compiles):
        program = assemble(PROVEN_PROGRAM)
        report = analyze(program, heap_size=HEAP_SIZE)
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               analysis=report)
        for _ in range(5):
            assert vm.run() == 7
        assert compiles == ["specialized"]
        assert vm.execution_path == "jit"

    def test_budget_below_bound_compiles_only_checked(self, compiles):
        program = assemble("mov r0, 1\nadd r0, 2\nexit")
        report = analyze(program, heap_size=HEAP_SIZE)
        assert report.fuel_bound == 3
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               instruction_budget=2, analysis=report)
        for _ in range(3):
            with pytest.raises(FuelExhausted, match="2 instructions"):
                vm.run()
        assert compiles == ["checked"]
        # Raising the budget over the bound selects (and compiles) the
        # specialized variant on the next run only.
        vm.instruction_budget = 3
        assert vm.run() == 3
        assert compiles == ["checked", "specialized"]

    @pytest.mark.parametrize("with_proof", [False, True])
    def test_jit_error_on_first_run_falls_back_identically(
            self, monkeypatch, with_proof):
        from repro.vm import jit

        def untranslatable(instructions, proof=None):
            raise JitError("forced")

        monkeypatch.setattr(jit, "compile_jit", untranslatable)
        program = assemble(
            f"lddw r6, {HEAP_BASE}\nldxdw r0, [r6+0]\nadd r0, r1\n"
            "stxdw [r6+0], r0\nldxdw r2, [r1+0]\nexit")
        report = analyze(program, heap_size=HEAP_SIZE) if with_proof else None
        runs = ((5,), (0,), (HEAP_BASE,), (9,))
        for budget in (3, 64):
            ref = _observe(VirtualMachine, program, budget, runs)
            got = _observe(JitVirtualMachine, program, budget, runs,
                           analysis=report, expect_jit=False)
            assert got == ref
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               analysis=report)
        assert vm.run(HEAP_BASE) == HEAP_BASE
        assert vm.execution_path == "interpreter"
        assert not vm.jit_enabled

    def test_specialized_jit_error_uses_checked_closure(self, monkeypatch,
                                                        compiles):
        from repro.vm import jit

        counting = jit.compile_jit

        def no_specialized(instructions, proof=None):
            result = counting(instructions, proof=proof)
            if proof is not None:
                raise JitError("forced")
            return result

        monkeypatch.setattr(jit, "compile_jit", no_specialized)
        program = assemble(PROVEN_PROGRAM)
        report = analyze(program, heap_size=HEAP_SIZE)
        vm = JitVirtualMachine(program, PluginMemory(size=HEAP_SIZE),
                               analysis=report)
        assert vm.run() == 7 and vm.run() == 7
        assert vm.execution_path == "jit"
        assert compiles == ["specialized", "checked"]
        assert vm.closure(specialized=True) is vm.closure()

    def test_profiled_pluglet_compiles_once(self, monkeypatch, compiles):
        monkeypatch.delenv("REPRO_JIT", raising=False)
        from repro.core import Plugin, PluginInstance, Pluglet
        from repro.quic import QuicConfiguration
        from repro.quic.connection import QuicConnection
        from repro.trace import PreProfiler

        conn = QuicConnection(QuicConfiguration(is_client=True))
        profiler = PreProfiler().attach(conn)
        pluglet = Pluglet("count", "packet_sent_event", "post",
                          assemble("mov r0, 1\nadd r0, 2\nexit"))
        idle = Pluglet("idle", "packet_lost_event", "post",
                       assemble("mov r0, 0\nexit"))
        inst = PluginInstance(Plugin("org.test.lazy", [pluglet, idle]), conn)
        assert compiles == []
        for _ in range(6):
            inst.invoke(pluglet, (), writable=False)
        assert compiles == ["specialized"]
        (row,) = profiler.records.values()
        assert row.jit_runs == 6 and row.interp_runs == 0
