"""Validation: the test procedures the paper defines for tools.

* :mod:`repro.validation.harness` -- positive/negative detection matrix,
* :mod:`repro.validation.semantics` -- semantics-preservation checks,
* :mod:`repro.validation.overhead` -- instrumentation-overhead and
  intrusiveness measurement,
* :mod:`repro.validation.robustness` -- detector TP/FP curves under
  swept fault-injection magnitude,
* :mod:`repro.validation.suites_catalog` -- the paper's chapter 2/4
  suite collections as structured data.
"""

from ..core.registry import GLOBALLY_ALLOWED
from .experiments import SweepPoint, SweepResult, run_sweep
from .harness import (
    ToolCertificate,
    certify_tool,
    MatrixResult,
    MatrixRow,
    default_tool,
    run_validation_matrix,
    validate_spec,
)
from .overhead import OverheadReport, intrusion_sweep, measure_overhead
from .robustness import (
    DEFAULT_MAGNITUDES,
    CurvePoint,
    RobustnessCell,
    RobustnessResult,
    cell_key,
    run_robustness,
)
from .semantics import SemanticsReport, check_semantics
from .suites_catalog import (
    SuiteEntry,
    all_entries,
    find_suites,
    format_catalog,
)

__all__ = [
    "DEFAULT_MAGNITUDES",
    "CurvePoint",
    "GLOBALLY_ALLOWED",
    "MatrixResult",
    "MatrixRow",
    "RobustnessCell",
    "RobustnessResult",
    "OverheadReport",
    "SemanticsReport",
    "SuiteEntry",
    "SweepPoint",
    "SweepResult",
    "ToolCertificate",
    "cell_key",
    "certify_tool",
    "run_sweep",
    "all_entries",
    "check_semantics",
    "default_tool",
    "find_suites",
    "format_catalog",
    "intrusion_sweep",
    "measure_overhead",
    "run_robustness",
    "run_validation_matrix",
    "validate_spec",
]
