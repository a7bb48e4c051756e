"""Protocol operations: the gray-box interface of PQUIC (§2.2, §2.3).

A protocol operation (protoop) is a named, specified subroutine of the
protocol workflow.  Each protoop exposes three anchors:

* ``replace`` — the actual implementation; by default the built-in
  function, overridable by at most one pluglet per (protoop, parameter);
* ``pre`` / ``post`` — passive observation points run just before/after
  the operation, any number of pluglets, read-only access.

Parameterized protoops (e.g. ``process_frame``) have one behaviour per
parameter value (the frame type), which is how plugins introduce entirely
new frames without touching callers.  Protoops may also be *external*:
callable only by the application (§2.4), the channel through which plugins
extend the application-facing API.

Dispatch is bound, not looked up: each table holds one *slot* per
operation (per parameter for parameterized ones) in :attr:`ProtoopTable.slots`,
and protocol code calls ``slots.<name>(conn, *args)``.  An operation with
nothing attached has the bare default function as its slot, so it costs
one call.  Attaching, detaching or run counting rebinds just the slots it
touches to a dispatch plan (pre anchors, behaviour, post anchors).

Combining plugins must not create call loops (Figure 3): a plan records
its operation on the table's call stack and aborts the connection if the
operation is re-entered.  Core defaults are trusted and not recorded, so
a loop is caught at the first plugged operation it re-enters.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

from repro.errors import TransportError, TransportErrorCode


class Anchor(enum.Enum):
    """Pluglet insertion points on a protocol operation."""

    REPLACE = "replace"
    PRE = "pre"
    POST = "post"


class ProtoopError(TransportError):
    """Raised when the protoop machinery must kill the connection."""

    def __init__(self, code: TransportErrorCode, reason: str):
        super().__init__(code, reason)


@dataclass
class ProtocolOperation:
    """One protocol operation and everything attached to it."""

    name: str
    parameterized: bool = False
    external: bool = False
    doc: str = ""
    #: Built-in behaviour per parameter (key None when not parameterized).
    defaults: dict = field(default_factory=dict)
    #: Pluglet overriding the behaviour, per parameter.
    replacements: dict = field(default_factory=dict)
    pre: dict = field(default_factory=dict)
    post: dict = field(default_factory=dict)

    def params(self) -> set:
        keys = set(self.defaults) | set(self.replacements)
        keys |= set(self.pre) | set(self.post)
        return keys

    def behavior(self, param: Any) -> Optional[Callable]:
        if param in self.replacements:
            return self.replacements[param]
        return self.defaults.get(param)

    def copy(self) -> "ProtocolOperation":
        return ProtocolOperation(
            self.name, self.parameterized, self.external, self.doc,
            dict(self.defaults), dict(self.replacements),
            {k: list(v) for k, v in self.pre.items()},
            {k: list(v) for k, v in self.post.items()},
        )


def _noop(conn, *args: Any) -> None:
    """Slot of an operation with no behaviour and nothing attached."""
    return None


class Slots:
    """Call targets by protoop name: ``slots.<name>(conn, *args)``.

    A parameterized operation's attribute is a dict of targets keyed by
    parameter, holding exactly the parameters that have a default or an
    anchor.
    """


class ProtoopTable:
    """Per-connection registry and dispatcher of protocol operations.

    ``ProtoopTable(defaults)`` starts from a table of default behaviour
    built once per connection class: operation records are shared with
    it until this table changes one (copy on write), and the slots are a
    flat copy of its slots.
    """

    def __init__(self, defaults: Optional["ProtoopTable"] = None) -> None:
        self.slots = Slots()
        if defaults is None:
            self._ops: dict[str, ProtocolOperation] = {}
            self._shared: dict[str, ProtocolOperation] = {}
        else:
            self._ops = dict(defaults._ops)
            self._shared = defaults._ops
            slots = dict(defaults.slots.__dict__)
            for name, slot in slots.items():
                if type(slot) is dict:
                    slots[name] = dict(slot)
            self.slots.__dict__ = slots
        self._call_stack: list[tuple[str, Any]] = []
        #: Runs of dispatch plans and of :meth:`run`; bare default slots
        #: are not counted (enable run counting to count every run).
        self.runs = 0
        #: Per-operation run counts, populated only after
        #: :meth:`enable_run_counting` (profiling).
        self.run_counts: dict[str, int] = {}
        self._count_runs = False
        self._epoch = 0  # bumped on every rebind

    # --- registration -----------------------------------------------------

    def _new_op(self, name: str, parameterized: bool, external: bool,
                doc: str) -> ProtocolOperation:
        op = ProtocolOperation(name=name, parameterized=parameterized,
                               external=external, doc=doc)
        self._ops[name] = op
        setattr(self.slots, name, {} if parameterized else _noop)
        return op

    def _own(self, name: str) -> ProtocolOperation:
        """This table's private record of ``name`` (copied on first use)."""
        op = self._ops[name]
        if self._shared.get(name) is op:
            op = self._ops[name] = op.copy()
        return op

    def register(
        self,
        name: str,
        func: Optional[Callable] = None,
        param: Any = None,
        parameterized: bool = False,
        external: bool = False,
        doc: str = "",
    ) -> ProtocolOperation:
        """Register a protoop, optionally with a built-in default behaviour.

        Calling again with a new ``param`` adds a behaviour to an existing
        parameterized operation.
        """
        if not parameterized and param is not None:
            raise ValueError(f"protoop {name} is not parameterized")
        if name not in self._ops:
            op = self._new_op(name, parameterized, external,
                              doc or (func.__doc__ or "" if func else ""))
        else:
            op = self._own(name)
            if op.parameterized != parameterized:
                raise ValueError(
                    f"protoop {name}: parameterized mismatch on re-registration"
                )
        if func is not None:
            if param in op.defaults:
                raise ValueError(f"protoop {name}[{param}] already has a default")
            op.defaults[param] = func
        self._bind(op, param)
        return op

    def declare(self, name: str, parameterized: bool = False, doc: str = "") -> ProtocolOperation:
        """Declare an empty-anchor protoop: a pure event hook with no
        default behaviour (§2.2, fourth category)."""
        return self.register(name, None, parameterized=parameterized, doc=doc)

    def exists(self, name: str) -> bool:
        return name in self._ops

    def get(self, name: str) -> ProtocolOperation:
        """The operation's record, private to this table.  Change its
        anchors through :meth:`attach`/:meth:`detach`, which rebind the
        slots; editing the record directly does not."""
        if name not in self._ops:
            raise ProtoopError(
                TransportErrorCode.INTERNAL_ERROR, f"unknown protoop {name!r}"
            )
        return self._own(name)

    @property
    def names(self) -> list[str]:
        return sorted(self._ops)

    def operation_count(self) -> int:
        return len(self._ops)

    def parameterized_count(self) -> int:
        return sum(1 for op in self._ops.values() if op.parameterized)

    # --- pluglet attachment -------------------------------------------------

    def attach(
        self,
        name: str,
        anchor: Anchor,
        func: Callable,
        param: Any = None,
        external: bool = False,
    ) -> None:
        """Attach a pluglet behaviour. New protoops (or new parameter values
        of existing ones) are created on the fly — PQUIC is "extensible by
        design" (§2.3)."""
        if name in self._ops:
            op = self._own(name)
        else:
            op = self._new_op(name, param is not None, external, "")
        key = param if op.parameterized else None
        if anchor is Anchor.REPLACE:
            if key in op.replacements:
                raise ProtoopError(
                    TransportErrorCode.PLUGIN_VALIDATION_FAILED,
                    f"protoop {name}[{param}] already replaced",
                )
            op.replacements[key] = func
        elif anchor is Anchor.PRE:
            op.pre.setdefault(key, []).append(func)
        else:
            op.post.setdefault(key, []).append(func)
        self._bind(op, key)

    def detach(self, name: str, anchor: Anchor, func: Callable, param: Any = None) -> None:
        if name not in self._ops:
            return
        op = self._own(name)
        key = param if op.parameterized else None
        if anchor is Anchor.REPLACE:
            if op.replacements.get(key) is func:
                del op.replacements[key]
        elif anchor is Anchor.PRE:
            if key in op.pre and func in op.pre[key]:
                op.pre[key].remove(func)
        else:
            if key in op.post and func in op.post[key]:
                op.post[key].remove(func)
        self._bind(op, key)

    # --- dispatch ----------------------------------------------------------

    def _bind(self, op: ProtocolOperation, key: Any) -> None:
        """Rebind the slot of ``op[key]``: the bare default when nothing
        is attached and runs are not counted, else a dispatch plan."""
        self._epoch += 1
        pre = op.pre.get(key)
        post = op.post.get(key)
        behavior = op.behavior(key)
        if pre or post or key in op.replacements or self._count_runs:
            slot = partial(self._dispatch, op.name, key, tuple(pre or ()),
                           behavior, tuple(post or ()))
        else:
            slot = behavior or _noop
        if not op.parameterized:
            setattr(self.slots, op.name, slot)
        elif key in op.params():
            getattr(self.slots, op.name)[key] = slot
        else:
            getattr(self.slots, op.name).pop(key, None)

    def _dispatch(self, name: str, key: Any, pre: tuple,
                  behavior: Optional[Callable], post: tuple,
                  conn, *args: Any) -> Any:
        """Run a plan: pre anchors, behaviour, post anchors.

        Raises :class:`ProtoopError` when the operation is already on the
        call stack (call-graph loop, Fig. 3).
        """
        frame = (name, key)
        stack = self._call_stack
        if frame in stack:
            raise ProtoopError(
                TransportErrorCode.PLUGIN_LOOP_DETECTED,
                f"protocol operation loop through {name}[{key}]",
            )
        stack.append(frame)
        self.runs += 1
        if self._count_runs:
            self.run_counts[name] = self.run_counts.get(name, 0) + 1
        epoch = self._epoch
        try:
            for observer in pre:  # passive, read-only
                observer(conn, args)
            # If an anchor changed mid-run (e.g. a failing pluglet got its
            # plugin detached), re-resolve what has not run yet.
            if self._epoch != epoch:
                behavior = self._ops[name].behavior(key)
            result = behavior(conn, *args) if behavior is not None else None
            if self._epoch != epoch:
                post = tuple(self._ops[name].post.get(key, ()))
            for observer in post:
                observer(conn, args, result)
            return result
        finally:
            stack.pop()

    def run(self, conn, name: str, param: Any = None, *args: Any, _from_app: bool = False) -> Any:
        """Invoke a protoop by name (plugins, tools, rare paths).

        A plugged slot runs its plan; an unplugged one runs its default
        under the loop check.  Raises
        :class:`ProtoopError` on re-entry or when an external operation
        is invoked from within the protocol.
        """
        op = self._ops.get(name)
        if op is None:
            raise ProtoopError(
                TransportErrorCode.INTERNAL_ERROR, f"unknown protoop {name!r}"
            )
        if op.external and not _from_app:
            raise ProtoopError(
                TransportErrorCode.PROTOCOL_VIOLATION,
                f"external protoop {name!r} called from protocol code",
            )
        if op.parameterized:
            key = param
            slot = getattr(self.slots, name).get(param)
        else:
            key = None
            slot = getattr(self.slots, name)
        if type(slot) is partial:
            return slot(conn, *args)
        # Unplugged: the bare default (None for an unknown parameter).
        return self._dispatch(name, key, (), slot, (), conn, *args)

    def run_external(self, conn, name: str, param: Any = None, *args: Any) -> Any:
        """Entry point for the application (§2.4)."""
        return self.run(conn, name, param, *args, _from_app=True)

    # --- profiling ---------------------------------------------------------

    def _rebind_all(self) -> None:
        for op in list(self._ops.values()):
            for key in (op.params() if op.parameterized else (None,)):
                self._bind(op, key)

    def enable_run_counting(self) -> None:
        """Count runs per operation name into :attr:`run_counts`: every
        slot becomes a plan while counting is on.  Idempotent."""
        if not self._count_runs:
            self._count_runs = True
            self._rebind_all()

    def disable_run_counting(self) -> None:
        """Return unplugged slots to their bare defaults."""
        if self._count_runs:
            self._count_runs = False
            self._rebind_all()
