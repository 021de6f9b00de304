"""Fingerprints: what makes a cached analysis cell valid.

A cached cell is keyed by ``(trace digest, detector fingerprint)``.
The detector fingerprint digests everything that could change that
detector's output on a fixed trace:

* the detector class's own source code *and* the source of its
  defining module (so editing a helper next to the class invalidates
  its cells, while an edit to an unrelated detector module does not),
* the source of every module the detector declares in
  ``fingerprint_modules`` -- detectors that delegate real work to
  helper modules (the statistical family computes in
  ``repro.stats.features`` / ``repro.stats.similarity``) would
  otherwise serve stale cells after an algorithm change that never
  touches the detector's own module,
* the detector instance's configuration attributes (``__dict__`` and
  ``__slots__``-declared state both count, so a slotted or dataclass
  detector cannot silently fingerprint as stateless),
* the :class:`~repro.analysis.AnalysisConfig` in effect,
* the global :data:`~repro.analysis.ANALYZER_VERSION` -- the manual
  escape hatch for changes in shared analyzer infrastructure.

This is deliberately *over*-eager at module granularity: a comment
edit in ``p2p.py`` recomputes the three p2p detectors' cells and
nothing else, which is exactly the "only recompute affected cells"
contract -- stale results are the one unacceptable outcome.
"""

from __future__ import annotations

import inspect
from functools import lru_cache
from typing import Optional, Sequence, Tuple

from ..analysis import ANALYZER_VERSION, DEFAULT_DETECTORS, AnalysisConfig
from .store import canonical_json, sha256_hex


@lru_cache(maxsize=None)
def _class_source_hash(cls: type) -> str:
    """Digest of the class source + its defining module's source.

    Builtins or classes without retrievable source fall back to the
    qualified name -- fingerprints stay stable, just less sensitive.
    """
    try:
        class_src = inspect.getsource(cls)
    except (OSError, TypeError):
        class_src = cls.__qualname__
    module = inspect.getmodule(cls)
    try:
        module_src = inspect.getsource(module) if module else ""
    except (OSError, TypeError):
        module_src = ""
    return sha256_hex(class_src + "\n" + module_src)


@lru_cache(maxsize=None)
def _module_source_hash(name: str) -> str:
    """Digest of a named module's source (see ``fingerprint_modules``).

    An unimportable or sourceless module falls back to its name, so
    fingerprints stay stable rather than erroring -- just insensitive
    to that module.
    """
    import importlib

    try:
        module = importlib.import_module(name)
        src = inspect.getsource(module)
    except (ImportError, OSError, TypeError):
        src = name
    return sha256_hex(src)


def _instance_state(detector) -> dict:
    """Every configuration attribute of a detector instance.

    Collects ``__dict__`` *and* ``__slots__`` entries across the MRO;
    private (underscore) attributes are skipped as caches/plumbing.
    """
    state = {
        k: v
        for k, v in (getattr(detector, "__dict__", None) or {}).items()
        if not k.startswith("_")
    }
    for cls in type(detector).__mro__:
        for name in getattr(cls, "__slots__", ()):
            if name.startswith("_") or name in state:
                continue
            try:
                state[name] = getattr(detector, name)
            except AttributeError:
                continue
    return state


def config_fingerprint(config: Optional[AnalysisConfig]) -> str:
    config = config or AnalysisConfig()
    return sha256_hex(
        canonical_json(
            {
                "eager_threshold": config.eager_threshold,
                "noise_floor": config.noise_floor,
            }
        )
    )


def detector_fingerprint(
    detector, config: Optional[AnalysisConfig] = None
) -> str:
    """Cache-key component for one detector under one config."""
    cls = type(detector)
    state = _instance_state(detector)
    payload = {
        "analyzer": ANALYZER_VERSION,
        "module": cls.__module__,
        "class": cls.__qualname__,
        "source": _class_source_hash(cls),
        "delegates": {
            name: _module_source_hash(name)
            for name in getattr(detector, "fingerprint_modules", ())
        },
        "state": {k: repr(v) for k, v in sorted(state.items())},
        "config": config_fingerprint(config),
    }
    return sha256_hex(canonical_json(payload))


def detector_set_fingerprint(
    detectors: Sequence, config: Optional[AnalysisConfig] = None
) -> str:
    """Order-sensitive digest of a whole battery (manifest provenance).

    Order matters because the analyzer's finding list is the
    concatenation of per-detector outputs in battery order.
    """
    return sha256_hex(
        canonical_json(
            [detector_fingerprint(d, config) for d in detectors]
        )
    )


@lru_cache(maxsize=64)
def default_detector_fingerprints(
    config: AnalysisConfig,
) -> Tuple[str, ...]:
    """:func:`detector_fingerprint` of each of ``DEFAULT_DETECTORS``.

    Computed once per config (a frozen, hashable dataclass) on first
    use, never at import.  Every archive analyze with the default
    battery keys its cells on these; no caller reconfigures the
    default instances, so the keys are constant for the life of the
    process.  Any other battery computes its own.
    """
    return tuple(detector_fingerprint(d, config) for d in DEFAULT_DETECTORS)


@lru_cache(maxsize=None)
def default_set_fingerprint() -> str:
    """:func:`detector_set_fingerprint` of ``DEFAULT_DETECTORS``, once.

    Every archived run records it and every service analyze or diff
    keys on it.  No caller reconfigures the default instances, so the
    value is constant for the life of the process; any other battery
    computes its own.
    """
    return detector_set_fingerprint(DEFAULT_DETECTORS)
