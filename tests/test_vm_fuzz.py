"""Robustness fuzzing: the PRE must contain arbitrary verified bytecode.

The security story of §2.1 is that *any* bytecode passing the static
checks can be executed safely: the run either terminates with a value,
exhausts its instruction budget, or trips the memory monitor — it can
never corrupt or crash the host.  These tests generate random programs
and hold the VM to that contract.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vm import (
    ExecutionError,
    MemoryViolation,
    PluginMemory,
    VerificationError,
    VirtualMachine,
    verify,
)
from repro.vm.isa import (
    ALU_IMM_OPS,
    ALU_REG_OPS,
    JMP_IMM_OPS,
    JMP_REG_OPS,
    LOAD_OPS,
    STORE_IMM_OPS,
    STORE_REG_OPS,
    Instruction,
    Op,
    decode_program,
    encode_program,
)

ALL_OPS = (
    list(ALU_REG_OPS) + list(ALU_IMM_OPS) + list(JMP_REG_OPS)
    + list(JMP_IMM_OPS) + list(LOAD_OPS) + list(STORE_REG_OPS)
    + list(STORE_IMM_OPS) + [Op.JA, Op.NEG, Op.LDDW, Op.EXIT, Op.CALL]
)


def random_program(rng, length):
    program = []
    for _ in range(length):
        op = rng.choice(ALL_OPS)
        program.append(Instruction(
            op,
            dst=rng.randrange(11),
            src=rng.randrange(11),
            offset=rng.randrange(-length, length),
            imm=rng.randrange(-1000, 1000),
        ))
    program.append(Instruction(Op.EXIT))
    return program


@given(st.integers(0, 100_000), st.integers(1, 60))
@settings(max_examples=300, deadline=None)
def test_random_programs_never_crash_host(seed, length):
    rng = random.Random(seed)
    program = random_program(rng, length)
    try:
        verify(program)
    except VerificationError:
        return  # rejected statically: fine
    vm = VirtualMachine(program, PluginMemory(1024),
                        helpers={1: lambda vm_, *a: sum(a) & 0xFF},
                        instruction_budget=5_000)
    try:
        result = vm.run(rng.randrange(1 << 32), rng.randrange(1 << 32))
        assert 0 <= result < (1 << 64)
    except (MemoryViolation, ExecutionError):
        pass  # contained failures are the contract


@given(st.integers(0, 100_000))
@settings(max_examples=200, deadline=None)
def test_random_programs_roundtrip_bytecode(seed):
    rng = random.Random(seed)
    program = random_program(rng, rng.randrange(1, 40))
    assert decode_program(encode_program(program)) == program


@given(st.binary(min_size=0, max_size=512))
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_never_crash_verifier(data):
    """Hostile wire bytes (a malicious PLUGIN frame) must be rejected
    cleanly, never crash."""
    from repro.vm.analysis import verify_bytecode

    try:
        verify_bytecode(data)
    except VerificationError:
        pass


@given(st.binary(min_size=0, max_size=400))
@settings(max_examples=200, deadline=None)
def test_arbitrary_bytes_never_crash_plugin_deserializer(data):
    """Same contract one layer up: Plugin.deserialize on hostile input."""
    from repro.core.plugin import Plugin
    from repro.errors import QuicError

    try:
        Plugin.deserialize(data)
    except (QuicError, ValueError, UnicodeDecodeError, KeyError):
        pass
