"""PRE execution profiling: attribute cost to pluglets.

The paper evaluates PRE overhead in aggregate (Table 3); at production
scale the question becomes *which pluglet on which protocol operation* is
burning the budget.  A :class:`PreProfiler` attached to a connection
makes :class:`~repro.core.plugin.PluginInstance` record, per
``(plugin, pluglet, protoop)``:

* **fuel** — PRE instructions executed (the interpreter's and the JIT's
  batched accounting agree bit-for-bit, so fuel is engine-independent);
* **helper calls** — crossings of the pluglet/host boundary;
* **wall time** — host-clock seconds inside ``vm.run``;
* **execution path** — JIT-compiled runs vs interpreter fallbacks;
* **faults** — invocations that raised.

Profiling is strictly opt-in: without an attached profiler the invoke
path keeps a single ``is not None`` test on an instance attribute, and
the protoop slots stay bare defaults (run counting binds counting plans
into the slots only while a profiler is attached).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ProfileRecord:
    """Accumulated cost of one pluglet on one protocol operation."""

    plugin: str
    pluglet: str
    protoop: str
    invocations: int = 0
    fuel: int = 0
    helper_calls: int = 0
    wall_s: float = 0.0
    faults: int = 0
    jit_runs: int = 0
    interp_runs: int = 0

    @property
    def path(self) -> str:
        if self.jit_runs and self.interp_runs:
            return "mixed"
        return "jit" if self.jit_runs else "interp"

    def merge(self, other: "ProfileRecord") -> None:
        self.invocations += other.invocations
        self.fuel += other.fuel
        self.helper_calls += other.helper_calls
        self.wall_s += other.wall_s
        self.faults += other.faults
        self.jit_runs += other.jit_runs
        self.interp_runs += other.interp_runs

    def as_dict(self) -> dict:
        """Schema-valid ``pluglet_profile`` event data."""
        return {
            "plugin": self.plugin,
            "pluglet": self.pluglet,
            "protoop": self.protoop,
            "invocations": self.invocations,
            "fuel": self.fuel,
            "helper_calls": self.helper_calls,
            "wall_ms": round(self.wall_s * 1000.0, 6),
            "faults": self.faults,
            "jit_runs": self.jit_runs,
            "interp_runs": self.interp_runs,
            "path": self.path,
        }


class PreProfiler:
    """Per-pluglet PRE cost attribution, sharable across connections.

    The same profiler may be attached to several connections (a client
    and every server-side connection of a run, say); records merge under
    the ``(plugin, pluglet, protoop)`` key.
    """

    def __init__(self) -> None:
        self.records: dict = {}
        self._conns: list = []

    # --- wiring -----------------------------------------------------------

    def attach(self, conn) -> "PreProfiler":
        """Install on a connection: existing and future plugin instances
        report here, and the protoop table starts per-op run counting."""
        conn.profiler = self
        for instance in getattr(conn, "plugins", {}).values():
            instance._profiler = self
        table = getattr(conn, "protoops", None)
        if table is not None:
            table.enable_run_counting()
        self._conns.append(conn)
        return self

    def detach(self, conn) -> None:
        if getattr(conn, "profiler", None) is self:
            conn.profiler = None
        for instance in getattr(conn, "plugins", {}).values():
            if instance._profiler is self:
                instance._profiler = None
        table = getattr(conn, "protoops", None)
        if table is not None:
            table.disable_run_counting()
        if conn in self._conns:
            self._conns.remove(conn)

    # --- recording --------------------------------------------------------

    def record(self, plugin: str, pluglet: str, protoop: str, *,
               fuel: int, helper_calls: int, wall_s: float,
               jit: bool, fault: bool = False) -> None:
        key = (plugin, pluglet, protoop)
        rec = self.records.get(key)
        if rec is None:
            rec = ProfileRecord(plugin, pluglet, protoop)
            self.records[key] = rec
        rec.invocations += 1
        rec.fuel += fuel
        rec.helper_calls += helper_calls
        rec.wall_s += wall_s
        if fault:
            rec.faults += 1
        if jit:
            rec.jit_runs += 1
        else:
            rec.interp_runs += 1

    def merge(self, other: "PreProfiler") -> None:
        for key, rec in other.records.items():
            mine = self.records.get(key)
            if mine is None:
                self.records[key] = ProfileRecord(*key)
                mine = self.records[key]
            mine.merge(rec)

    # --- reporting --------------------------------------------------------

    def summary(self) -> list:
        """Profile rows as schema-valid dicts, costliest fuel first."""
        return [rec.as_dict() for rec in
                sorted(self.records.values(),
                       key=lambda r: (-r.fuel, r.plugin, r.pluglet,
                                      r.protoop))]

    def totals(self) -> dict:
        return {
            "invocations": sum(r.invocations for r in self.records.values()),
            "fuel": sum(r.fuel for r in self.records.values()),
            "helper_calls": sum(r.helper_calls
                                for r in self.records.values()),
            "wall_ms": round(sum(r.wall_s for r in self.records.values())
                             * 1000.0, 6),
            "faults": sum(r.faults for r in self.records.values()),
        }

    def protoop_runs(self, conn=None) -> dict:
        """Host-side per-protoop run counts from the attached tables."""
        conns = [conn] if conn is not None else self._conns
        merged: dict = {}
        for c in conns:
            table = getattr(c, "protoops", None)
            for name, count in getattr(table, "run_counts", {}).items():
                merged[name] = merged.get(name, 0) + count
        return merged

    def format_table(self, max_rows: Optional[int] = None) -> str:
        """A human-readable attribution table for the CLI."""
        rows = self.summary()
        if max_rows is not None:
            rows = rows[:max_rows]
        if not rows:
            return "no pluglet executions recorded"
        headers = ("plugin", "pluglet", "protoop", "calls", "fuel",
                   "helpers", "wall-ms", "path", "faults")
        table = [headers]
        for r in rows:
            table.append((r["plugin"], r["pluglet"], r["protoop"],
                          str(r["invocations"]), str(r["fuel"]),
                          str(r["helper_calls"]),
                          f"{r['wall_ms']:.3f}", r["path"],
                          str(r["faults"])))
        widths = [max(len(row[i]) for row in table)
                  for i in range(len(headers))]
        lines = []
        for j, row in enumerate(table):
            cells = [
                row[i].ljust(widths[i]) if i < 3
                else row[i].rjust(widths[i])
                for i in range(len(headers))
            ]
            lines.append("  ".join(cells).rstrip())
            if j == 0:
                lines.append("  ".join("-" * w for w in widths))
        t = self.totals()
        lines.append("")
        lines.append(
            f"total: {t['invocations']} invocations, {t['fuel']} fuel, "
            f"{t['helper_calls']} helper calls, {t['wall_ms']:.3f} ms, "
            f"{t['faults']} faults")
        return "\n".join(lines)
