"""A termination checker for pluglet bytecode (§5).

The paper validates pluglets with the T2 prover: "This procedure builds on
the seminal works on transition invariants [...] to build a proof of
termination, or to disprove it", assuming "the termination of external
functions".  This module implements the same *kind* of analysis at the
scale our pluglets need:

* a pluglet whose CFG has no back edge terminates trivially (helpers are
  assumed terminating, as T2 assumes for external functions);
* for each natural loop, we search for a **ranking function**: a counter
  variable (register or stack slot) that every path around the loop moves
  monotonically toward a loop-invariant bound tested by the loop's exit
  condition;
* anything else is reported *not proven* — exactly how the paper reports
  pluglets T2 could not handle (Table 2's "Proven terminating" column).

The symbolic core is a tiny linear abstract interpretation: values are
``const c``, ``var v + delta`` (v an initial register/slot value) or
``unknown``.

A proven :class:`LoopReport` carries the ranking *data* (counter key,
per-lap delta, stay condition and bound operand), not just prose: the
fuel certifier (:mod:`repro.vm.analysis.fuelbound`) combines it with the
interval analysis to bound the loop's trip count statically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.vm.isa import (
    DST_WRITE_OPS,
    FP_REGISTER,
    JMP_IMM_OPS,
    JMP_REG_OPS,
    Instruction,
    Op,
)

from repro.vm.analysis.cfg import ControlFlowGraph

MAX_PATHS = 256

# Symbolic values.
CONST = "const"
VAR = "var"
UNKNOWN = "unknown"

#: A symbolic value: ``(CONST, value, 0)``, ``(VAR, key, delta)`` with
#: key ``("r", reg)`` or ``("s", fp_offset)``, or :data:`_UNKNOWN`.
Sym = Tuple[str, Any, int]
#: A counter identity: ``("r", reg)`` or ``("s", fp_offset)``.
VarKey = Tuple[str, int]


def _const(c: int) -> Sym:
    return (CONST, c & ((1 << 64) - 1), 0)


def _var(key: VarKey, delta: int = 0) -> Sym:
    return (VAR, key, delta)


_UNKNOWN: Sym = (UNKNOWN, None, 0)


@dataclass
class LoopReport:
    head: int
    proven: bool
    ranking: Optional[str] = None
    reason: str = ""
    #: Machine-readable ranking (proven loops only): the counter's
    #: symbolic value at the test, its per-lap delta, the comparison
    #: under which execution *stays* in the loop, the loop-invariant
    #: bound operand, and the block whose terminator tests it.
    counter: Optional[Sym] = None
    delta: Optional[int] = None
    stay_op: Optional[Op] = None
    bound: Optional[Sym] = None
    cond_block: Optional[int] = None


@dataclass
class TerminationReport:
    """Outcome for one pluglet."""

    proven: bool
    loops: List[LoopReport] = field(default_factory=list)
    reason: str = ""

    def __bool__(self) -> bool:
        return self.proven


class _State:
    """Symbolic machine state along one loop path."""

    def __init__(self) -> None:
        # Initial symbolic values: registers hold var('r', i); slots are
        # materialized lazily as var('s', off).
        self.regs: Dict[int, Sym] = {i: _var(("r", i)) for i in range(11)}
        self.slots: Dict[int, Sym] = {}

    def slot(self, off: int) -> Sym:
        if off not in self.slots:
            self.slots[off] = _var(("s", off))
        return self.slots[off]


def _step(state: _State, ins: Instruction) -> None:
    op = ins.opcode
    regs = state.regs
    if op is Op.MOV_IMM:
        regs[ins.dst] = _const(ins.imm)
    elif op is Op.LDDW:
        regs[ins.dst] = _const(ins.imm)
    elif op is Op.MOV:
        regs[ins.dst] = regs[ins.src]
    elif op is Op.ADD_IMM:
        regs[ins.dst] = _add(regs[ins.dst], ins.imm)
    elif op is Op.SUB_IMM:
        regs[ins.dst] = _add(regs[ins.dst], -ins.imm)
    elif op is Op.ADD:
        regs[ins.dst] = _add_sym(regs[ins.dst], regs[ins.src], 1)
    elif op is Op.SUB:
        regs[ins.dst] = _add_sym(regs[ins.dst], regs[ins.src], -1)
    elif op is Op.LDXDW and ins.src == FP_REGISTER:
        regs[ins.dst] = state.slot(ins.offset)
    elif op is Op.STXDW and ins.dst == FP_REGISTER:
        state.slots[ins.offset] = regs[ins.src]
    elif op is Op.CALL:
        regs[0] = _UNKNOWN
    elif op in (Op.LDXB, Op.LDXH, Op.LDXW, Op.LDXDW):
        regs[ins.dst] = _UNKNOWN
    elif op is Op.EXIT or op in JMP_REG_OPS or op in JMP_IMM_OPS or op is Op.JA:
        pass
    elif op in (Op.STXB, Op.STXH, Op.STXW, Op.STXDW,
                Op.STB, Op.STH, Op.STW, Op.STDW):
        pass  # non-slot memory: irrelevant to counters
    else:
        # Any other ALU op destroys linearity.
        if ins.dst in regs:
            regs[ins.dst] = _UNKNOWN


def _add(value: Sym, c: int) -> Sym:
    kind, key, delta = value
    if kind == CONST:
        return _const(key + c)
    if kind == VAR:
        return (VAR, key, delta + c)
    return _UNKNOWN


def _add_sym(a: Sym, b: Sym, sign: int) -> Sym:
    if b[0] == CONST:
        return _add(a, sign * _signed64(b[1]))
    if a[0] == CONST and b[0] == VAR and sign == 1:
        return (VAR, b[1], b[2] + _signed64(a[1]))
    return _UNKNOWN


def _signed64(v: int) -> int:
    v &= (1 << 64) - 1
    return v - (1 << 64) if v >= 1 << 63 else v


#: For each comparison op: does *staying* in the loop while this condition
#: holds terminate with an increasing (+1) or decreasing (-1) counter on
#: the left-hand side?  (Unsigned semantics.)
_NEGATE = {
    Op.JEQ: Op.JNE, Op.JNE: Op.JEQ,
    Op.JGT: Op.JLE, Op.JGE: Op.JLT,
    Op.JLT: Op.JGE, Op.JLE: Op.JGT,
    Op.JSGT: Op.JSLT, Op.JSLT: Op.JSGT,  # approximate negations
}
_SWAP = {
    Op.JGT: Op.JLT, Op.JLT: Op.JGT, Op.JGE: Op.JLE, Op.JLE: Op.JGE,
    Op.JEQ: Op.JEQ, Op.JNE: Op.JNE, Op.JSGT: Op.JSLT, Op.JSLT: Op.JSGT,
}


def check_termination(instructions: List[Instruction]) -> TerminationReport:
    """Try to prove that a pluglet terminates on every input."""
    cfg = ControlFlowGraph(instructions)
    back = cfg.back_edges
    if not back:
        return TerminationReport(proven=True, reason="loop-free")
    reports = []
    all_proven = True
    for tail, head in back:
        loop_blocks = cfg.natural_loop(tail, head)
        report = _check_loop(cfg, head, loop_blocks, back)
        reports.append(report)
        all_proven &= report.proven
    return TerminationReport(
        proven=all_proven,
        loops=reports,
        reason="all loops have ranking functions" if all_proven
        else "some loop lacks a provable ranking function",
    )


@dataclass(frozen=True)
class _Ranking:
    text: str
    counter: Sym
    delta: int
    stay_op: Op
    bound: Sym


def _check_loop(cfg: ControlFlowGraph, head: int,
                loop_blocks: FrozenSet[int],
                all_back_edges: List[Tuple[int, int]]) -> LoopReport:
    # Variables written inside *nested* loops are unusable for this loop:
    # the simple cycle paths below pass through the inner body once, so
    # its per-lap effect on them is not linear.
    nested_tainted: Set[VarKey] = set()
    for tail2, head2 in all_back_edges:
        if head2 == head:
            continue
        inner = cfg.natural_loop(tail2, head2)
        if inner < loop_blocks:
            for _pc, ins in cfg.loop_instructions(inner):
                if ins.opcode is Op.STXDW and ins.dst == FP_REGISTER:
                    nested_tainted.add(("s", ins.offset))
                if ins.opcode in DST_WRITE_OPS:
                    nested_tainted.add(("r", ins.dst))
                if ins.opcode is Op.CALL:
                    nested_tainted.add(("r", 0))

    paths = cycle_paths(cfg, head, loop_blocks)
    if paths is None:
        return LoopReport(head=head, proven=False,
                          reason="too many paths through loop")
    exit_conditions = _exit_conditions(cfg, loop_blocks)
    if not exit_conditions:
        return LoopReport(head=head, proven=False, reason="no exit branch")

    # A candidate ranking variable must be moved monotonically by every
    # cycle path; compute per-path deltas for all written slots and
    # registers (None = rewritten non-linearly).
    candidate_deltas: Optional[Dict[VarKey, Optional[int]]] = None
    for path in paths:
        state = _State()
        for block_start in path:
            block = cfg.blocks[block_start]
            for pc in range(block.start, block.end):
                _step(state, cfg.instructions[pc])
        deltas: Dict[VarKey, Optional[int]] = {}
        for off, value in state.slots.items():
            skey: VarKey = ("s", off)
            deltas[skey] = value[2] if value[0] == VAR and value[1] == skey \
                else None
        for reg, value in state.regs.items():
            rkey: VarKey = ("r", reg)
            deltas[rkey] = value[2] if value[0] == VAR and value[1] == rkey \
                else None
        if candidate_deltas is None:
            candidate_deltas = deltas
        else:
            merged: Dict[VarKey, Optional[int]] = {}
            for key in set(candidate_deltas) | set(deltas):
                a = candidate_deltas.get(key, 0)
                b = deltas.get(key, 0)
                merged[key] = a if a == b else None
            candidate_deltas = merged
    final_deltas: Dict[VarKey, Optional[int]] = candidate_deltas or {}

    # Prefer the head's own condition: it is tested on every lap, which
    # is what the fuel certifier needs to turn the ranking into a trip
    # bound (conditions deeper in the body still prove termination).
    ordered = sorted(exit_conditions, key=lambda c: c[3] != head)
    for cond_op, left, right, block_start in ordered:
        ranking = _match_ranking(cond_op, left, right, final_deltas,
                                 nested_tainted)
        if ranking is not None:
            return LoopReport(head=head, proven=True, ranking=ranking.text,
                              counter=ranking.counter, delta=ranking.delta,
                              stay_op=ranking.stay_op, bound=ranking.bound,
                              cond_block=block_start)
    return LoopReport(
        head=head, proven=False,
        reason="no exit condition over a monotonic counter with an "
               "invariant bound",
    )


def _match_ranking(cond_op: Op, left: Sym, right: Sym,
                   deltas: Dict[VarKey, Optional[int]],
                   tainted: Set[VarKey]) -> Optional[_Ranking]:
    """Does `stay while left <op> right` terminate given the deltas?"""
    def invariant(value: Sym) -> bool:
        if value[0] == CONST:
            return True
        if value[0] == VAR and value[2] == 0:
            key = value[1]
            if key in tainted:
                return False
            return deltas.get(key, 0) == 0
        return False

    for a, b, op in ((left, right, cond_op), (right, left, _SWAP.get(cond_op))):
        if op is None:
            continue
        if a[0] != VAR:
            continue
        key = a[1]
        if key in tainted:
            continue
        delta = deltas.get(key)
        if delta is None or delta == 0:
            continue
        if not invariant(b):
            continue
        if op in (Op.JLT, Op.JLE, Op.JSLT) and delta > 0:
            return _Ranking(f"{key} increases by {delta} toward bound",
                            a, delta, op, b)
        if op in (Op.JGT, Op.JGE, Op.JSGT) and delta < 0:
            return _Ranking(f"{key} decreases by {delta} toward bound",
                            a, delta, op, b)
        if op is Op.JNE and abs(delta) == 1 and b[0] == CONST:
            return _Ranking(f"{key} steps by {delta} to exact bound",
                            a, delta, op, b)
    return None


def _exit_conditions(
        cfg: ControlFlowGraph,
        loop_blocks: FrozenSet[int]) -> List[Tuple[Op, Sym, Sym, int]]:
    """Symbolic ``(op, left, right, block)`` conditions under which the
    loop *stays*.

    For each exiting conditional branch we re-execute the block to get the
    symbolic operands at the branch."""
    out: List[Tuple[Op, Sym, Sym, int]] = []
    for start in loop_blocks:
        block = cfg.blocks[start]
        exits = [s for s in block.successors if s not in loop_blocks]
        if not exits:
            continue
        last = cfg.instructions[block.end - 1]
        if last.opcode not in JMP_REG_OPS and last.opcode not in JMP_IMM_OPS:
            continue  # unconditional exit: fine, but gives no condition
        state = _State()
        for pc in range(block.start, block.end - 1):
            _step(state, cfg.instructions[pc])
        if last.opcode in JMP_IMM_OPS:
            base = Op(last.opcode - 0x10)
            left = state.regs[last.dst]
            right = _const(last.imm)
        else:
            base = last.opcode
            left = state.regs[last.dst]
            right = state.regs[last.src]
        taken = block.end - 1 + 1 + last.offset
        if taken in exits:
            stay_op = _NEGATE.get(base)
            if stay_op is None:
                continue
            out.append((stay_op, left, right, start))
        else:
            out.append((base, left, right, start))
    return out


def cycle_paths(cfg: ControlFlowGraph, head: int,
                loop_blocks: FrozenSet[int]) -> Optional[List[List[int]]]:
    """All simple paths from head back to head inside the loop, or
    ``None`` when there are more than :data:`MAX_PATHS`."""
    paths: List[List[int]] = []

    def walk(node: int, path: List[int]) -> bool:
        if len(paths) > MAX_PATHS:
            return False
        for succ in cfg.blocks[node].successors:
            if succ == head:
                paths.append(list(path))
            elif succ in loop_blocks and succ not in path:
                path.append(succ)
                if not walk(succ, path):
                    return False
                path.pop()
        return True

    if not walk(head, [head]):
        return None
    return paths


# Backwards-compatible alias (pre-unification name).
_cycle_paths = cycle_paths
