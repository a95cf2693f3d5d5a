"""Diagnostic objects, the rule catalogue, and analysis strict mode.

Every finding of the dataflow analyses (:mod:`repro.tensorir.analysis`) is a
structured :class:`Diagnostic`: a stable rule id (``FG001``, ``FG002``, ...),
a severity, an IR location string, and a human-readable message.  Diagnostics
are collected into an :class:`AnalysisReport`, which the compile pipeline
attaches to the kernel's :class:`~repro.core.compile.CompileRecord` and which
the lint CLI renders.

Strict mode (:func:`set_strict` / :func:`strict` / the
``FEATGRAPH_ANALYSIS_STRICT`` environment variable) turns error-severity
diagnostics into compile failures (:class:`AnalysisError`) inside the
pipeline's ``analyze`` pass.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field

__all__ = [
    "Severity",
    "Diagnostic",
    "AnalysisReport",
    "AnalysisError",
    "RULES",
    "strict_enabled",
    "set_strict",
    "strict",
]


class Severity:
    """Diagnostic severity levels, ordered ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    _ORDER = {"error": 2, "warning": 1, "info": 0}

    @classmethod
    def rank(cls, severity: str) -> int:
        return cls._ORDER[severity]


#: the rule catalogue: id -> (default severity, one-line description)
RULES: dict[str, tuple[str, str]] = {
    "FG001": (Severity.ERROR,
              "write-write race: a plain (non-combiner) store can hit the "
              "same buffer element from distinct iterations of a "
              "parallel/thread-bound axis"),
    "FG002": (Severity.ERROR,
              "static out-of-bounds: a buffer index provably escapes the "
              "buffer's declared shape under the loop extents and guards"),
    "FG003": (Severity.ERROR,
              "shared-memory overflow: a GPU staging buffer exceeds the "
              "simulated per-block shared-memory capacity"),
    "FG004": (Severity.WARNING,
              "cache-footprint: a CPU staging buffer's working set exceeds "
              "the simulated last-level cache"),
    "FG005": (Severity.INFO,
              "footprint note: estimated working set of an allocation or "
              "cooperative-reduction staging buffer"),
    # FG006-FG008 and FG010 are the execution-plan verifier's rules
    # (:mod:`repro.runtime.verify`): they judge the runtime layer --
    # ExecutionPlan chunking, strategy sharding, sink buffers, gather
    # index arrays -- not the lowered loop-nest IR.
    "FG006": (Severity.ERROR,
              "shard disjointness: a plan's parallel chunks or strategy "
              "shards can write the same destination row, or a chunk "
              "boundary splits a destination segment across workers"),
    "FG007": (Severity.INFO,
              "determinism classification: whether a plan's reduction is "
              "bit-identical, reassociated-fp, or nondeterministic under "
              "its strategy's combine order"),
    "FG008": (Severity.ERROR,
              "buffer aliasing: sink buffers alias within a task, or a "
              "compiled program writes out= into a live or bound buffer"),
    "FG010": (Severity.ERROR,
              "gather bounds: a GatherPlan index array escapes the extent "
              "its graph-axis role implies, or chunk bounds escape the "
              "gathered edge domain"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One structured analysis finding."""

    #: rule id from :data:`RULES`, e.g. ``"FG001"``
    rule: str
    #: ``"error"`` / ``"warning"`` / ``"info"``
    severity: str
    #: IR location: the enclosing loop path plus the offending node,
    #: e.g. ``"for e[parallel] > store out"``
    loc: str
    #: human-readable explanation of the finding
    message: str

    def __post_init__(self):
        if self.rule not in RULES:
            raise ValueError(f"unknown rule id {self.rule!r}")
        if self.severity not in Severity._ORDER:
            raise ValueError(f"unknown severity {self.severity!r}")

    def render(self) -> str:
        return f"{self.rule} {self.severity:<7} {self.loc}: {self.message}"

    def as_dict(self) -> dict:
        """JSON-ready mapping (the ``--json`` lint CLIs emit these)."""
        return {"rule": self.rule, "severity": self.severity,
                "loc": self.loc, "message": self.message}

    def __str__(self):
        return self.render()


@dataclass
class AnalysisReport:
    """All diagnostics of one analysis run over a lowered loop nest.

    ``footprints`` maps staging-buffer names to their estimated working-set
    bytes (see :mod:`repro.tensorir.analysis.footprint`).
    """

    diagnostics: tuple[Diagnostic, ...] = ()
    #: buffer name -> (scope, estimated bytes)
    footprints: dict = field(default_factory=dict)
    #: analysis target: "cpu" / "gpu" / None
    target: str | None = None

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity == Severity.ERROR)

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics
                     if d.severity == Severity.WARNING)

    @property
    def has_errors(self) -> bool:
        return any(d.severity == Severity.ERROR for d in self.diagnostics)

    def by_rule(self, rule: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.rule == rule)

    def sorted(self) -> tuple[Diagnostic, ...]:
        """Diagnostics ordered most severe first (stable within severity)."""
        return tuple(sorted(
            self.diagnostics,
            key=lambda d: (-Severity.rank(d.severity), d.rule, d.loc)))

    def as_dict(self) -> dict:
        """JSON-ready mapping: diagnostics (most severe first) + counts."""
        return {
            "target": self.target,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.as_dict() for d in self.sorted()],
        }

    def render(self) -> str:
        if not self.diagnostics:
            return "analysis clean: no diagnostics"
        return "\n".join(d.render() for d in self.sorted())

    def __str__(self):
        return self.render()


class AnalysisError(ValueError):
    """Raised by the ``analyze`` pass in strict mode when error-severity
    diagnostics are present."""

    def __init__(self, report: AnalysisReport):
        self.report = report
        errors = report.errors
        head = (f"analysis found {len(errors)} error-severity "
                f"diagnostic{'s' if len(errors) != 1 else ''}")
        super().__init__(head + "\n" + "\n".join(d.render() for d in errors))


# ----------------------------------------------------------------------
# strict mode
# ----------------------------------------------------------------------

_STRICT = os.environ.get("FEATGRAPH_ANALYSIS_STRICT", "") not in ("", "0",
                                                                  "false")


def strict_enabled() -> bool:
    """Whether error diagnostics currently fail compilation."""
    return _STRICT


def set_strict(enabled: bool) -> bool:
    """Set strict mode process-wide; returns the previous value."""
    global _STRICT
    old = _STRICT
    _STRICT = bool(enabled)
    return old


@contextmanager
def strict(enabled: bool = True):
    """Temporarily enable (or disable) strict analysis mode."""
    old = set_strict(enabled)
    try:
        yield
    finally:
        set_strict(old)
