"""The correctness harness: the positive/negative detection matrix.

This automates the paper's central test procedure: run every property
function as a standalone synthetic program, feed the trace to the
analysis tool under test, and check that

* every *intended* property is reported (**positive correctness**),
* nothing beyond intended/allowed properties is reported for positive
  programs, and nothing at all for the balanced negative programs
  (**negative correctness**).

The tool under test is pluggable (any callable from run result to
detected property ids); the bundled analyzer is the default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence, Tuple

from ..analysis import analyze_run
from ..core.registry import PropertySpec, list_properties
from ..resilience import run_cells

#: properties tolerated in any program (framework overhead, paper fig 3.2)
GLOBALLY_ALLOWED = ("mpi_init_overhead",)

DetectorFn = Callable[[object], Tuple[str, ...]]


def default_tool(threshold: float = 0.01) -> DetectorFn:
    """The bundled analyzer as a tool-under-test adapter."""

    def tool(run) -> Tuple[str, ...]:
        return analyze_run(run).detected(threshold)

    return tool


@dataclass
class MatrixRow:
    """Outcome of validating one property function."""

    name: str
    paradigm: str
    negative: bool
    expected: Tuple[str, ...]
    detected: Tuple[str, ...]
    missing: Tuple[str, ...]
    spurious: Tuple[str, ...]
    severity: float
    final_time: float
    #: True when every expected property's dominant call path passes
    #: through the property function's own region (figure 3.5's
    #: localization requirement); None when not checkable (negative
    #: rows, or tools that do not localize)
    localized: Optional[bool] = None
    #: exception text when the program or the tool under test failed
    #: (deadlock, hang, crash); a failed row detects nothing
    error: Optional[str] = None

    @property
    def passed(self) -> bool:
        return (
            self.error is None
            and not self.missing
            and not self.spurious
            and self.localized is not False
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "paradigm": self.paradigm,
            "negative": self.negative,
            "expected": list(self.expected),
            "detected": list(self.detected),
            "missing": list(self.missing),
            "spurious": list(self.spurious),
            "severity": self.severity,
            "final_time": self.final_time,
            "localized": self.localized,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MatrixRow":
        return cls(
            name=d["name"],
            paradigm=d["paradigm"],
            negative=d["negative"],
            expected=tuple(d["expected"]),
            detected=tuple(d["detected"]),
            missing=tuple(d["missing"]),
            spurious=tuple(d["spurious"]),
            severity=d["severity"],
            final_time=d["final_time"],
            localized=d.get("localized"),
            error=d.get("error"),
        )


@dataclass
class MatrixResult:
    """The full detection matrix."""

    rows: list[MatrixRow] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)

    @property
    def positives(self) -> list[MatrixRow]:
        return [r for r in self.rows if not r.negative]

    @property
    def negatives(self) -> list[MatrixRow]:
        return [r for r in self.rows if r.negative]

    @property
    def positive_detection_rate(self) -> float:
        """Fraction of positive programs whose properties all fired."""
        rows = self.positives
        if not rows:
            return 1.0
        return sum(1 for r in rows if not r.missing) / len(rows)

    @property
    def false_positive_rate(self) -> float:
        """Fraction of negative programs that triggered anything."""
        rows = self.negatives
        if not rows:
            return 0.0
        return sum(1 for r in rows if r.detected) / len(rows)

    @property
    def localization_rate(self) -> float:
        """Fraction of localizable positives with correct call paths."""
        rows = [r for r in self.positives if r.localized is not None]
        if not rows:
            return 1.0
        return sum(1 for r in rows if r.localized) / len(rows)

    def format_table(self) -> str:
        lines = [
            f"{'property function':<34}{'kind':>5}{'ok':>4}{'loc':>5}"
            f"{'severity':>10}  expected -> detected"
        ]
        for row in self.rows:
            kind = "neg" if row.negative else "pos"
            ok = "yes" if row.passed else "NO"
            loc = (
                "-" if row.localized is None
                else ("yes" if row.localized else "NO")
            )
            lines.append(
                f"{row.name:<34}{kind:>5}{ok:>4}{loc:>5}"
                f"{row.severity:>9.2%}"
                f"  {','.join(row.expected) or '-'} -> "
                f"{','.join(row.detected) or '-'}"
            )
        lines.append(
            f"positive detection rate: {self.positive_detection_rate:.0%}"
            f"   false positive rate: {self.false_positive_rate:.0%}"
            f"   localization rate: {self.localization_rate:.0%}"
        )
        return "\n".join(lines) + "\n"


def validate_spec(
    spec: PropertySpec,
    tool: Optional[DetectorFn] = None,
    size: int = 8,
    num_threads: int = 4,
    seed: int = 0,
    time_budget: Optional[float] = None,
    archive=None,
) -> MatrixRow:
    """Validate one property function against the tool under test.

    ``archive`` (a :class:`repro.archive.Archive` or directory path)
    records each executed run's trace in the archive, so a matrix pass
    doubles as baseline collection for ``ats diff``.
    """
    run = spec.run(
        size=size,
        num_threads=num_threads,
        seed=seed,
        time_budget=time_budget,
    )
    if archive is not None:
        from ..archive import coerce_archive, params_to_jsonable

        transport = getattr(run, "transport", None)
        coerce_archive(archive).record(
            program=spec.name,
            events=run.events,
            final_time=run.final_time,
            paradigm=spec.paradigm,
            params=params_to_jsonable(spec.default_params),
            size=size,
            threads=num_threads,
            seed=seed,
            eager_threshold=(
                transport.eager_threshold if transport is not None else None
            ),
        )
    # One analysis serves severity, localization and, with no tool
    # given, the verdict of the bundled analyzer (``default_tool``).
    analysis = analyze_run(run)
    detected = tuple(
        analysis.detected(0.01) if tool is None else tool(run)
    )
    tolerated = set(spec.expected) | set(spec.allowed) | set(
        GLOBALLY_ALLOWED
    )
    missing = tuple(p for p in spec.expected if p not in detected)
    spurious = tuple(p for p in detected if p not in tolerated)
    severity = sum(
        analysis.severity(property=p) for p in spec.expected
    )
    # Localization: the dominant call path of each intended property
    # must pass through the property function's own trace region.
    localized: Optional[bool] = None
    if spec.expected and not missing:
        localized = True
        for prop in spec.expected:
            callpaths = analysis.callpaths_of(prop)
            if not callpaths:
                localized = False
                break
            top_path = next(iter(callpaths))
            if spec.name not in top_path:
                localized = False
                break
    return MatrixRow(
        name=spec.name,
        paradigm=spec.paradigm,
        negative=spec.negative,
        expected=spec.expected,
        detected=detected,
        missing=missing,
        spurious=spurious,
        severity=severity,
        final_time=run.final_time,
        localized=localized,
    )


def _failed_row(spec: PropertySpec, error: str) -> MatrixRow:
    """The row a quarantined program contributes to the matrix."""
    return MatrixRow(
        name=spec.name,
        paradigm=spec.paradigm,
        negative=spec.negative,
        expected=spec.expected,
        detected=(),
        missing=spec.expected,
        spurious=(),
        severity=0.0,
        final_time=0.0,
        localized=None,
        error=error,
    )


def matrix_cell_key(spec_name: str, size: int, seed: int) -> str:
    """Stable checkpoint key of one matrix cell."""
    return f"{spec_name}|size{size}|s{seed}"


def run_validation_matrix(
    specs: Optional[Sequence[PropertySpec]] = None,
    tool: Optional[DetectorFn] = None,
    size: int = 8,
    num_threads: int = 4,
    seed: int = 0,
    time_budget: Optional[float] = None,
    supervisor=None,
    archive=None,
    workers: int = 1,
) -> MatrixResult:
    """Validate every (or the given) property function; see module doc.

    ``supervisor`` (:class:`repro.resilience.Supervisor`) sets the
    wall-clock timeout, retries and checkpoint journal the programs
    run under; without one, a default supervisor runs each program
    once.  Either way a deadlocking, hung or crashing program -- or a
    tool that raises on its trace -- becomes a failed row instead of
    aborting the matrix, and a checkpoint-carrying supervisor resumes
    a killed run.  A checkpoint written under another thread count or
    time budget refuses to resume
    (:class:`repro.resilience.CheckpointError`).  With an
    ``archive``, every executed run's trace is recorded (cells
    replayed from a checkpoint are not re-executed, so they contribute
    nothing new to the archive).  ``workers > 1`` runs the programs in
    forked child processes; rows come back in spec order either way,
    so the matrix is identical to a serial pass.

    Note the tool under test crosses a ``fork`` in parallel mode: a
    ``tool`` callable must therefore not depend on parent-side mutable
    state if it is to behave identically under ``workers > 1``.
    """
    specs = list_properties() if specs is None else list(specs)
    if archive is not None:
        from ..archive import coerce_archive

        archive = coerce_archive(archive)
    outcomes = run_cells(
        [
            (
                matrix_cell_key(spec.name, size, seed),
                partial(
                    validate_spec,
                    spec,
                    tool=tool,
                    size=size,
                    num_threads=num_threads,
                    seed=seed,
                    time_budget=time_budget,
                    archive=archive,
                ),
            )
            for spec in specs
        ],
        MatrixRow.from_dict,
        {"threads": num_threads, "time_budget": time_budget},
        supervisor,
        archive,
        workers,
    )
    return MatrixResult(
        rows=[
            outcome.value
            if outcome.ok
            else _failed_row(spec, outcome.failure.error)
            for spec, outcome in zip(specs, outcomes)
        ]
    )


@dataclass(frozen=True)
class ToolCertificate:
    """One-number-per-axis scorecard for a tool under test."""

    tool_name: str
    positive_detection_rate: float
    false_positive_rate: float
    localization_rate: float
    programs: int
    #: rows whose program or tool raised: they detect nothing, so a
    #: negative row with an error would otherwise grade as a pass
    errors: int

    @property
    def certified(self) -> bool:
        """The paper's bar: finds every real problem, invents none."""
        return (
            self.positive_detection_rate == 1.0
            and self.false_positive_rate == 0.0
            and self.errors == 0
        )

    def format(self) -> str:
        verdict = "CERTIFIED" if self.certified else "NOT certified"
        return (
            f"tool {self.tool_name!r}: {verdict} over {self.programs} "
            f"programs (detection {self.positive_detection_rate:.0%}, "
            f"false positives {self.false_positive_rate:.0%}, "
            f"localization {self.localization_rate:.0%}, "
            f"errors {self.errors})\n"
        )


def certify_tool(
    tool: Optional[DetectorFn] = None,
    size: int = 8,
    num_threads: int = 4,
    seed: int = 0,
) -> ToolCertificate:
    """Run the complete ATS suite against a tool and grade it.

    The single-call entry point a tool developer uses: every registered
    positive and negative program is executed, analyzed by the tool,
    and the three correctness axes are scored.
    """
    matrix = run_validation_matrix(
        tool=tool, size=size, num_threads=num_threads, seed=seed
    )
    name = getattr(tool, "__name__", None) or (
        "bundled analyzer" if tool is None else repr(tool)
    )
    return ToolCertificate(
        tool_name=name,
        positive_detection_rate=matrix.positive_detection_rate,
        false_positive_rate=matrix.false_positive_rate,
        localization_rate=matrix.localization_rate,
        programs=len(matrix.rows),
        errors=sum(1 for row in matrix.rows if row.error is not None),
    )
