"""Tests for the PRE static analyzer (:mod:`repro.vm.analysis`).

Table-driven over the bytecode corpus (``tests/corpus/{bad,good}``, the
expected rule id in each file's ``; expect:`` header), plus unit tests
for the CFG, the interval domain, the abstract-interpretation facts, the
``verify()`` compatibility wrapper and the manifest linter.
"""

import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.vm.analysis import (
    LEGACY_RULES,
    RULES,
    ControlFlowGraph,
    Severity,
    VerificationError,
    analyze,
    analyze_plugin,
    lint_plugin,
    verify,
)
from repro.vm.analysis import domain
from repro.vm.asm import assemble
from repro.vm.interpreter import HEAP_BASE, STACK_BASE
from repro.vm.isa import STACK_SIZE, WORD_MASK, Instruction, Op

CORPUS = Path(__file__).parent / "corpus"


# --- corpus (table-driven) ---------------------------------------------------

def _corpus_cases(kind):
    cases = []
    for path in sorted((CORPUS / kind).glob("*.s")):
        match = re.search(r";\s*expect:\s*(\S+)", path.read_text())
        assert match, f"{path} is missing its '; expect:' header"
        cases.append(pytest.param(path, match.group(1), id=path.stem))
    assert cases, f"empty corpus directory {kind}"
    return cases


class TestCorpus:
    @pytest.mark.parametrize("path,expected", _corpus_cases("bad"))
    def test_bad_program_rejected_with_rule_and_pc(self, path, expected):
        assert expected in RULES, f"corpus expects unknown rule {expected}"
        report = analyze(assemble(path.read_text()))
        assert not report.ok
        hits = [d for d in report.errors() if d.rule == expected]
        assert hits, (f"{path.name}: expected {expected}, got "
                      f"{[d.rule for d in report.errors()]}")
        assert hits[0].pc is not None, "diagnostic must locate the pc"

    @pytest.mark.parametrize("path,expected", _corpus_cases("good"))
    def test_good_program_accepted(self, path, expected):
        assert expected == "ok"
        report = analyze(assemble(path.read_text()))
        assert report.ok, [str(d) for d in report.errors()]


# --- control-flow graph ------------------------------------------------------

class TestControlFlowGraph:
    def test_straight_line_is_one_terminating_block(self):
        cfg = ControlFlowGraph(assemble("mov r0, 1\nadd r0, 2\nexit"))
        assert set(cfg.blocks) == {0}
        assert cfg.blocks[0].successors == ()
        assert cfg.loop_free
        assert not cfg.fall_off
        assert cfg.reachable_pcs() == [0, 1, 2]

    def test_diamond_blocks_and_edges(self):
        src = """
            jeq r1, 0, zero
            mov r0, 1
            ja done
        zero:
            mov r0, 2
        done:
            exit
        """
        cfg = ControlFlowGraph(assemble(src))
        assert set(cfg.blocks) == {0, 1, 3, 4}
        assert set(cfg.blocks[0].successors) == {1, 3}
        assert cfg.blocks[1].successors == (4,)
        assert cfg.blocks[3].successors == (4,)
        assert cfg.loop_free
        assert cfg.reachable_blocks == frozenset(cfg.blocks)

    def test_back_edge_and_natural_loop(self):
        src = """
            mov r6, 4
        loop:
            sub r6, 1
            jne r6, 0, loop
            exit
        """
        cfg = ControlFlowGraph(assemble(src))
        assert not cfg.loop_free
        (tail, head), = cfg.back_edges
        body = cfg.natural_loop(tail, head)
        assert head in body and tail in body
        assert cfg.loops() == {head: body}

    def test_unreachable_block_excluded(self):
        # The jump skips the dead mov; it forms its own unreachable block.
        prog = [Instruction(Op.JA, offset=1),
                Instruction(Op.MOV_IMM, dst=0, imm=7),
                Instruction(Op.EXIT)]
        cfg = ControlFlowGraph(prog)
        assert 1 in cfg.blocks
        assert 1 not in cfg.reachable_blocks
        assert cfg.loop_free

    def test_fall_off_end_recorded(self):
        cfg = ControlFlowGraph([Instruction(Op.MOV_IMM, dst=0, imm=1)])
        assert 0 in cfg.fall_off
        assert cfg.blocks[0].successors == ()

    def test_infinite_loop_cannot_terminate(self):
        cfg = ControlFlowGraph(assemble("top:\nja top\nexit"))
        assert not cfg.loop_free
        assert 0 not in cfg.can_terminate_from()

    def test_empty_program(self):
        cfg = ControlFlowGraph([])
        assert cfg.blocks == {}
        assert cfg.loop_free
        assert cfg.reachable_blocks == frozenset()


# --- interval domain ---------------------------------------------------------

class TestIntervalDomain:
    def test_const_join_contains(self):
        assert domain.const(5) == (5, 5)
        assert domain.is_const((5, 5)) == 5
        assert domain.is_const((2, 9)) is None
        assert domain.join((2, 4), (7, 9)) == (2, 9)
        assert domain.contains((2, 9), 5)
        assert not domain.contains((2, 9), 10)

    def test_const_wraps_negative(self):
        assert domain.const(-1) == (WORD_MASK, WORD_MASK)

    def test_widen_unstable_bounds_jump_to_extremes(self):
        assert domain.widen((0, 10), (0, 11)) == (0, WORD_MASK)
        assert domain.widen((5, 10), (4, 10)) == (0, 10)
        # Stable bounds stay put.
        assert domain.widen((5, 10), (6, 9)) == (5, 10)

    def test_add_const_exact_unless_straddling_wrap(self):
        assert domain.add_const((10, 20), 5) == (15, 25)
        # Whole interval wraps: still exact (modular shift).
        assert domain.add_const((WORD_MASK - 1, WORD_MASK), 2) == (0, 1)
        # Straddles the wrap point: degrades to TOP.
        assert domain.add_const((WORD_MASK - 1, WORD_MASK), 1) == domain.TOP
        # Negative offsets are the FP-relative case (r10 - 8).
        base = domain.const(STACK_BASE + STACK_SIZE)
        lo, hi = domain.add_const(base, -8)
        assert lo == hi == STACK_BASE + STACK_SIZE - 8

    def test_add_and_sub_degrade_on_possible_wrap(self):
        assert domain.add((0, 5), (10, 20)) == (10, 25)
        assert domain.add((0, WORD_MASK), (1, 1)) == domain.TOP
        assert domain.sub((10, 20), (1, 3)) == (7, 19)
        assert domain.sub((0, 5), (3, 3)) == domain.TOP  # may pass zero

    def test_shift_transfer(self):
        assert domain.lsh((1, 4), domain.const(3)) == (8, 32)
        assert domain.lsh((0, WORD_MASK), domain.const(1)) == domain.TOP
        assert domain.rsh((8, 32), domain.const(3)) == (1, 4)
        assert domain.rsh((8, 32), (0, 5)) == (0, 32)

    def test_div_mod_cover_nonfaulting_executions_only(self):
        assert domain.div((10, 20), (2, 5)) == (2, 10)
        assert domain.div((10, 20), (0, 5)) == (2, 20)  # divisor >= 1
        assert domain.mod((0, 3), (10, 10)) == (0, 3)
        assert domain.mod((0, 99), (10, 10)) == (0, 9)


# --- proofs / facts ----------------------------------------------------------

class TestFacts:
    def test_straight_line_fuel_bound_is_instruction_count(self):
        prog = assemble("mov r0, r1\nadd r0, r2\nmul r0, 3\nexit")
        report = analyze(prog)
        assert report.loop_free
        assert report.fuel_bound == len(prog)
        assert report.helper_bound == 0

    def test_branch_fuel_bound_is_longest_path(self):
        src = """
            jeq r1, 0, short
            mov r0, 1
            add r0, 2
            add r0, 3
            exit
        short:
            exit
        """
        report = analyze(assemble(src))
        # jeq + 3 ALU + exit on the long arm.
        assert report.fuel_bound == 5

    def test_helper_bound_counts_calls_on_longest_path(self):
        src = """
            call 1
            jeq r0, 0, done
            call 1
            call 7
        done:
            exit
        """
        report = analyze(assemble(src))
        assert report.helper_bound == 3
        assert set(report.helper_ids) == {1, 7}

    def test_counted_loop_is_certified(self):
        # A loop over a constant-initialized register counter is no
        # longer unbounded: the fuel-certificate pass proves a trip
        # count and restores a worst-case fuel bound.
        src = """
            mov r6, 4
        loop:
            sub r6, 1
            jne r6, 0, loop
            exit
        """
        report = analyze(assemble(src))
        assert report.ok
        assert not report.loop_free
        assert report.fuel_certificate is not None
        assert report.fuel_bound is not None
        # mov + 4 laps of (sub, jne) + exit >= actual 10 instructions.
        assert report.fuel_bound >= 10
        assert report.helper_bound == 0

    def test_data_dependent_loop_voids_the_bounds(self):
        # When the counter comes from a helper call its pre-header
        # interval is TOP: no trip bound, no certificate, no fuel bound.
        src = """
            call 1
            mov r6, r0
        loop:
            sub r6, 1
            jne r6, 0, loop
            exit
        """
        report = analyze(assemble(src))
        assert report.ok  # bounded by runtime fuel, still accepted
        assert not report.loop_free
        assert report.fuel_certificate is None
        assert report.fuel_bound is None
        assert report.helper_bound is None

    def test_mem_facts_and_memory_safe(self):
        src = f"""
            lddw r6, {HEAP_BASE}
            stw [r6+0], 7
            ldxw r7, [r6+0]
            stdw [r10-8], 42
            ldxdw r8, [r10-8]
            exit
        """
        report = analyze(assemble(src))
        assert report.memory_safe
        assert report.mem_facts == {1: "heap", 2: "heap",
                                    3: "stack", 4: "stack"}

    def test_heap_proof_respects_declared_size(self):
        src = f"lddw r6, {HEAP_BASE + 60}\nstw [r6+0], 1\nexit"
        assert analyze(assemble(src), heap_size=64).memory_safe
        small = analyze(assemble(src), heap_size=32)
        assert not small.memory_safe
        assert small.by_rule("PRE104")

    def test_spill_reload_tracked_through_stack_slot(self):
        src = """
            stdw [r10-8], 7
            ldxdw r6, [r10-8]
            mov r0, r6
            exit
        """
        report = analyze(assemble(src))
        assert report.ok
        assert not report.by_rule("PRE106")
        assert not report.by_rule("PRE107")

    def test_uninitialized_stack_read_warns(self):
        report = analyze(assemble("ldxdw r6, [r10-8]\nmov r0, r6\nexit"))
        assert report.ok  # warning, not rejection
        assert report.by_rule("PRE107")


# --- verify() compatibility wrapper -----------------------------------------

class TestVerifyCompat:
    def test_good_program_passes(self):
        verify(assemble("mov r0, 0\nexit"))

    def test_legacy_rule_raises_with_pc(self):
        prog = [Instruction(Op.MOV_IMM, dst=10, imm=1), Instruction(Op.EXIT)]
        with pytest.raises(VerificationError, match="at instruction 0"):
            verify(prog)

    def test_missing_exit_rejected(self):
        with pytest.raises(VerificationError, match="exit"):
            verify([Instruction(Op.MOV_IMM, dst=0, imm=1)])

    def test_empty_program_rejected(self):
        with pytest.raises(VerificationError):
            verify([])

    def test_deep_findings_stay_advisory(self):
        # Acceptance keeps the paper's relaxed policy: an infinite loop
        # passes verify() (fuel stops it at run time) but the deep
        # analyzer flags it.
        prog = assemble("top:\nja top\nexit")
        verify(prog)
        report = analyze(prog)
        assert report.by_rule("PRE103")
        assert all(d.rule not in LEGACY_RULES for d in report.errors())

    def test_oversized_iterable_rejected_lazily(self):
        consumed = [0]

        def endless():
            while True:
                consumed[0] += 1
                yield Instruction(Op.MOV_IMM, dst=0, imm=1)

        with pytest.raises(VerificationError, match="too large"):
            verify(endless(), max_instructions=64)
        # The fix over the old verifier: the unbounded input is cut off
        # just past the limit instead of being fully materialized.
        assert consumed[0] == 65

    def test_severity_str_and_diag_format(self):
        report = analyze([Instruction(Op.MOV_IMM, dst=10, imm=1),
                          Instruction(Op.EXIT)])
        diag = report.errors()[0]
        assert str(Severity.ERROR) == "error"
        assert f"[{diag.rule}]" in diag.format()
        assert "at instruction 0" in diag.format()


# --- manifest lint -----------------------------------------------------------

def _pluglet(name="p", protoop="process_frame", anchor="pre",
             src="mov r0, 0\nexit", fuel=0, helper_budget=0):
    return SimpleNamespace(name=name, protoop=protoop, anchor=anchor,
                           instructions=assemble(src), fuel=fuel,
                           helper_budget=helper_budget)


def _plugin(*pluglets, memory_size=4096):
    return SimpleNamespace(name="org.test.lint", pluglets=list(pluglets),
                           memory_size=memory_size)


class TestManifestLint:
    def test_clean_plugin_has_no_diagnostics(self):
        plugin = _plugin(_pluglet())
        assert lint_plugin(plugin, {"process_frame"}, {1}) == []

    def test_fuel_budget_below_analyzer_bound(self):
        plugin = _plugin(_pluglet(src="mov r0, 0\nadd r0, 1\nexit", fuel=2))
        diags = lint_plugin(plugin)
        assert [d.rule for d in diags] == ["PRE110"]
        assert diags[0].severity is Severity.WARNING
        assert "fuel" in diags[0].message

    def test_helper_budget_below_analyzer_bound(self):
        plugin = _plugin(_pluglet(src="call 1\ncall 1\nexit",
                                  helper_budget=1))
        diags = lint_plugin(plugin, helper_ids={1})
        assert [d.rule for d in diags] == ["PRE110"]
        assert "helper-call" in diags[0].message

    def test_unknown_protoop_warns_with_suggestion(self):
        plugin = _plugin(_pluglet(protoop="proces_frame"))
        diags = lint_plugin(plugin, protoop_names={"process_frame"})
        assert [d.rule for d in diags] == ["PRE111"]
        assert diags[0].severity is Severity.WARNING
        assert "process_frame" in diags[0].message  # typo suggestion

    def test_external_anchor_defines_new_operation(self):
        # External pluglets add app-facing operations (§2.2); their name
        # is intentionally absent from the host registry.
        plugin = _plugin(_pluglet(protoop="brand_new_op", anchor="external"))
        assert lint_plugin(plugin, protoop_names={"process_frame"}) == []

    def test_unknown_anchor_is_error(self):
        plugin = _plugin(_pluglet(anchor="replce"))
        diags = lint_plugin(plugin, protoop_names={"process_frame"})
        assert [d.rule for d in diags] == ["PRE112"]
        assert diags[0].severity is Severity.ERROR
        assert "replace" in diags[0].message  # typo suggestion

    def test_unknown_helper_id_warns(self):
        plugin = _plugin(_pluglet(src="call 99\nexit"))
        diags = lint_plugin(plugin, helper_ids={1, 2})
        assert [d.rule for d in diags] == ["PRE113"]
        assert "99" in diags[0].message

    def test_diagnostics_tagged_with_pluglet_name(self):
        plugin = _plugin(_pluglet(name="first", anchor="weird"),
                         _pluglet(name="second"))
        diags = lint_plugin(plugin)
        assert [d.pluglet for d in diags] == ["first"]
        assert diags[0].format().startswith("first:")

    def test_analyze_plugin_uses_declared_memory_size(self):
        src = f"lddw r6, {HEAP_BASE + 100}\nstw [r6+0], 1\nexit"
        ok = analyze_plugin(_plugin(_pluglet(src=src), memory_size=256))
        assert ok["p"].memory_safe
        bad = analyze_plugin(_plugin(_pluglet(src=src), memory_size=64))
        assert bad["p"].by_rule("PRE104")
