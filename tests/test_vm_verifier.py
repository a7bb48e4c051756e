"""Static verifier tests: the five §2.1 checks plus stack validation."""

import pytest

from repro.vm import Instruction, Op, VerificationError, assemble, verify
from repro.vm.analysis import verify_bytecode
from repro.vm.isa import encode_program


def test_accepts_minimal_program():
    verify(assemble("exit"))


def test_check_i_exit_required():
    with pytest.raises(VerificationError, match="no exit"):
        verify([Instruction(Op.MOV_IMM, dst=0, imm=1)])


def test_empty_program_rejected():
    with pytest.raises(VerificationError, match="empty"):
        verify([])


def test_check_ii_unknown_opcode():
    with pytest.raises(VerificationError, match="unknown opcode"):
        verify([Instruction(0xFE, 0, 0, 0, 0), Instruction(Op.EXIT)])


def test_check_ii_invalid_registers():
    with pytest.raises(VerificationError, match="invalid dst"):
        verify([Instruction(Op.MOV_IMM, dst=12), Instruction(Op.EXIT)])
    with pytest.raises(VerificationError, match="invalid src"):
        verify([Instruction(Op.MOV, dst=0, src=11), Instruction(Op.EXIT)])


def test_check_iii_division_by_zero_immediate():
    with pytest.raises(VerificationError, match="division by zero"):
        verify(assemble("div r1, 0\nexit"))
    with pytest.raises(VerificationError, match="division by zero"):
        verify(assemble("mod r1, 0\nexit"))


def test_check_iii_shift_out_of_range():
    with pytest.raises(VerificationError, match="shift"):
        verify(assemble("lsh r1, 64\nexit"))


def test_check_iv_jump_out_of_bounds():
    with pytest.raises(VerificationError, match="jump target"):
        verify([Instruction(Op.JA, offset=5), Instruction(Op.EXIT)])
    with pytest.raises(VerificationError, match="jump target"):
        verify([Instruction(Op.JA, offset=-2), Instruction(Op.EXIT)])


def test_check_iv_conditional_jump_bounds():
    with pytest.raises(VerificationError, match="jump target"):
        verify([
            Instruction(Op.JEQ_IMM, dst=0, imm=0, offset=100),
            Instruction(Op.EXIT),
        ])


def test_check_v_write_to_readonly_register():
    # r10 (frame pointer) is read-only, like the paper's reserved register.
    with pytest.raises(VerificationError, match="read-only"):
        verify(assemble("mov r10, 5\nexit"))
    with pytest.raises(VerificationError, match="read-only"):
        verify(assemble("add r10, 1\nexit"))
    with pytest.raises(VerificationError, match="read-only"):
        verify(assemble("ldxdw r10, [r1+0]\nexit"))


def test_r10_readable():
    verify(assemble("mov r1, r10\nldxdw r0, [r10-8]\nexit"))


def test_stack_access_in_bounds_accepted():
    verify(assemble("stxdw [r10-8], r1\nldxdw r0, [r10-512]\nexit"))


def test_stack_overflow_rejected():
    with pytest.raises(VerificationError, match="stack access"):
        verify(assemble("stxdw [r10-520], r1\nexit"))


def test_stack_underflow_rejected():
    # Positive offsets from r10 point above the stack.
    with pytest.raises(VerificationError, match="stack access"):
        verify(assemble("stxdw [r10+8], r1\nexit"))


def test_stack_access_straddling_top_rejected():
    # [-4, +4): the dword crosses the top of the stack.
    with pytest.raises(VerificationError, match="stack access"):
        verify(assemble("ldxdw r0, [r10-4]\nexit"))


def test_non_fp_memory_accesses_deferred_to_monitor():
    # Accesses through other registers cannot be statically bounded; they
    # are accepted here and checked at run time by the memory monitor.
    verify(assemble("ldxdw r0, [r1+0]\nexit"))


def test_program_size_limit():
    prog = [Instruction(Op.MOV_IMM, dst=0, imm=0)] * 70000 + [Instruction(Op.EXIT)]
    with pytest.raises(VerificationError, match="too large"):
        verify(prog)


def test_call_negative_helper_rejected():
    with pytest.raises(VerificationError, match="helper"):
        verify([Instruction(Op.CALL, imm=-1), Instruction(Op.EXIT)])


def test_verify_bytecode_roundtrip():
    prog = assemble("mov r0, 42\nexit")
    assert verify_bytecode(encode_program(prog)) == prog


def test_verify_bytecode_malformed():
    with pytest.raises(VerificationError, match="malformed"):
        verify_bytecode(b"\x01\x02")


def test_error_reports_pc():
    try:
        verify(assemble("mov r0, 1\ndiv r1, 0\nexit"))
    except VerificationError as exc:
        assert exc.pc == 1
    else:
        pytest.fail("expected VerificationError")
