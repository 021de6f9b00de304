"""The ``ats`` command-line interface.

Subcommands::

    ats list                         list registered property functions
    ats run <property> [...]         run one property function
    ats chain [...]                  run the figure-3.3 all-MPI chain
    ats split [...]                  run the figure-3.4 split program
    ats generate <outdir>            emit standalone test programs
    ats analyze <trace>...           analyze persisted traces
    ats metrics [property]           run + dump runtime metrics
    ats matrix [...]                 run the validation matrix
    ats robustness [...]             detector TP/FP curves under faults
    ats suites                       print the chapter-2/4 catalog
    ats archive run|analyze|export   trace archive with cached analysis
    ats history                      list archived runs
    ats diff <runA> <runB>           cross-run regression diff (--gate)
    ats serve [...]                  analysis-as-a-service HTTP server
    ats submit <kind> [...]          submit a job to a running server
    ats watch --server URL           live terminal dashboard

Observability flags on the run-style commands (``run``/``chain``/
``split``) enable the :mod:`repro.obs` layer for that invocation:
``--metrics-out`` dumps the registry (Prometheus text or JSON),
``--chrome-trace`` writes a Perfetto-loadable trace-event file
combining the simulated timeline with host-side tool spans.

Expected operational errors -- a missing trace file, a corrupt header,
an unknown property or distribution name -- are reported as a single
``ats: error: ...`` line on stderr with exit status 2, never as a
traceback.
"""

from __future__ import annotations

import argparse
import difflib
import sys
from typing import Optional, Sequence

from .analysis import analyze_events, analyze_run, format_expert_report
from .core import (
    get_property,
    list_properties,
    run_all_mpi_properties,
    run_split_program,
    write_generated_programs,
)
from .core.registry import DistParam
from .distributions import get_distribution, list_distributions
from .obs import (
    set_metrics_enabled,
    set_spans_enabled,
    to_json_str,
    to_prometheus,
    write_chrome_trace,
)
from .trace import (
    TraceFormatError,
    format_profile,
    profile_trace,
    read_trace,
    write_trace,
)
from .validation import format_catalog, run_validation_matrix


class CliError(Exception):
    """An expected user-facing failure: printed as one line, exit 2."""


def _suggest(name: str, candidates: Sequence[str]) -> str:
    """`` (did you mean X?)`` suffix when a close match exists."""
    close = difflib.get_close_matches(name, candidates, n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def _resolve_property(name: str):
    """`get_property` with a CLI-grade error: suggestion, no dump."""
    try:
        return get_property(name)
    except KeyError:
        names = [s.name for s in list_properties(negative=None)]
        raise CliError(
            f"unknown property function {name!r}"
            + _suggest(name, names)
            + "; see 'ats list --all'"
        ) from None


def _check_grid(spec, size: int, threads: int) -> None:
    """:meth:`PropertySpec.check_grid` with a CLI-grade error."""
    try:
        spec.check_grid(size, threads)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _parse_csv(text: str, kind, option: str):
    try:
        return tuple(kind(part) for part in text.split(","))
    except ValueError:
        raise CliError(
            f"bad {option} value {text!r}: expected comma-separated "
            f"{kind.__name__} values"
        ) from None


def _parse_dist(text: str) -> tuple[str, Optional[tuple[float, ...]]]:
    """Parse a ``--dist SHAPE[:V1,V2,...]`` override."""
    shape, sep, raw = text.partition(":")
    shape = shape.strip()
    if not shape:
        raise CliError(f"bad --dist value {text!r}: empty shape name")
    try:
        get_distribution(shape)
    except KeyError:
        names = [d.name for d in list_distributions()]
        raise CliError(
            f"unknown distribution {shape!r}"
            + _suggest(shape, names)
            + f"; available: {', '.join(names)}"
        ) from None
    if not sep:
        return shape, None
    try:
        values = tuple(float(v) for v in raw.split(","))
    except ValueError:
        raise CliError(
            f"bad --dist value {text!r}: expected SHAPE:V1,V2,..."
        ) from None
    return shape, values


def _dist_override(spec, text: str) -> dict:
    """Build the params dict replacing the spec's distribution."""
    shape, values = _parse_dist(text)
    dist_keys = [
        key
        for key, value in spec.default_params.items()
        if isinstance(value, DistParam)
    ]
    if not dist_keys:
        raise CliError(
            f"property {spec.name!r} takes no distribution parameter"
        )
    key = dist_keys[0]
    if values is None:
        values = spec.default_params[key].values
    param = DistParam(shape, values)
    try:
        param.resolve()
    except TypeError:
        raise CliError(
            f"distribution {shape!r} does not take {len(values)} "
            f"value(s)"
        ) from None
    return {key: param}


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", type=int, default=8,
                        help="simulated MPI ranks (default 8)")
    parser.add_argument("--threads", type=int, default=4,
                        help="OpenMP threads per process (default 4)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--timeline", action="store_true",
                        help="print an ASCII timeline")
    parser.add_argument("--tree", action="store_true",
                        help="print the property hierarchy tree")
    parser.add_argument("--no-analyze", action="store_true",
                        help="skip the automatic analysis report")
    parser.add_argument("--trace-out", metavar="FILE", default=None,
                        help="write the event trace to FILE")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="dump runtime metrics to FILE ('-' = stdout)")
    parser.add_argument("--metrics-format",
                        choices=("auto", "prom", "json"), default="auto",
                        help="metrics dump format (auto: .json file -> "
                        "JSON, otherwise Prometheus text)")
    parser.add_argument("--chrome-trace", metavar="FILE", default=None,
                        help="write a Perfetto/chrome://tracing trace "
                        "event file")


def _add_supervision_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock limit per cell; timed-out cells "
                        "are quarantined")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="seed-deterministic retries for transient "
                        "(timed-out) cells")
    parser.add_argument("--checkpoint", metavar="FILE", default=None,
                        help="append-only journal of completed cells "
                        "(kill-safe; enables --resume)")
    parser.add_argument("--resume", action="store_true",
                        help="skip cells already recorded in the "
                        "--checkpoint journal")
    parser.add_argument("--failures-out", metavar="FILE", default=None,
                        help="write the quarantined-cell report as JSON "
                        "('-' = stdout)")
    parser.add_argument("--time-budget", type=float, default=None,
                        metavar="VSECONDS",
                        help="virtual-time watchdog per program run: "
                        "hung programs raise a structured HangReport")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="fan sweep cells out over N forked worker "
                        "processes (output stays byte-identical to a "
                        "serial run)")


def _workers_of(args) -> int:
    workers = getattr(args, "workers", 1)
    if workers < 1:
        raise CliError("--workers must be >= 1")
    if workers > 1:
        from .work.forkexec import fork_available

        if not fork_available():
            raise CliError(
                "--workers > 1 needs os.fork (POSIX); "
                "rerun with --workers 1"
            )
    return workers


def _make_supervisor(args):
    """Build the Supervisor every sweep cell runs under, from the flags."""
    from .resilience import CheckpointError, Supervisor

    checkpoint = args.checkpoint
    if args.resume and checkpoint is None:
        raise CliError("--resume requires --checkpoint FILE")
    if checkpoint is not None and not args.resume:
        from pathlib import Path

        if Path(checkpoint).exists():
            raise CliError(
                f"checkpoint {checkpoint} already exists; pass --resume "
                "to continue it or remove the file to start fresh"
            )
    if args.retries < 0:
        raise CliError("--retries must be >= 0")
    try:
        return Supervisor(
            timeout=args.timeout,
            retries=args.retries,
            seed=args.seed,
            checkpoint=checkpoint,
        )
    except (ValueError, CheckpointError) as exc:
        raise CliError(str(exc)) from None


def _write_artifact(dest, text: str, label: str) -> None:
    """Write ``text`` to stdout for ``-``, else to ``dest`` and say so."""
    if dest is None:
        return
    if dest == "-":
        sys.stdout.write(text)
        return
    with open(dest, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"{label} written to {dest}")


def _emit_failures(args, supervisor) -> None:
    """Print/write the quarantine report of a supervised sweep."""
    report = supervisor.failure_report()
    if report.failures:
        print(report.format_table())
    _write_artifact(
        args.failures_out, report.to_json_str(), "failure report"
    )
    supervisor.close()


def _enable_obs(args) -> None:
    """Turn on the observability layer if any obs output was requested.

    Must run *before* the simulation is built: instruments bind to the
    registry when runtime objects are constructed.
    """
    if getattr(args, "metrics_out", None) is not None:
        set_metrics_enabled(True)
    if getattr(args, "chrome_trace", None) is not None:
        set_spans_enabled(True)


def _render_metrics(fmt: str, dest: str) -> str:
    if fmt == "auto":
        fmt = "json" if dest.endswith(".json") else "prom"
    return to_json_str() if fmt == "json" else to_prometheus()


def _emit_obs(args, result) -> None:
    """Write the requested metrics / Chrome-trace outputs.

    Called after analysis so analyzer timings are included in both.
    """
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out is not None:
        _write_artifact(
            metrics_out,
            _render_metrics(args.metrics_format, metrics_out),
            "metrics",
        )
    chrome_out = getattr(args, "chrome_trace", None)
    if chrome_out is not None:
        n = write_chrome_trace(
            chrome_out,
            events=result.events,
            metadata={"final_time": result.final_time},
        )
        print(f"chrome trace written to {chrome_out} ({n} trace events)")


def _report(result, args) -> None:
    print(
        f"finished in {result.final_time:.6f} simulated seconds "
        f"({len(result.events)} events)"
    )
    if args.timeline:
        print(result.timeline(width=100))
    if args.trace_out:
        write_trace(args.trace_out, result.events)
        print(f"trace written to {args.trace_out}")
    if not args.no_analyze:
        analysis = analyze_run(result)
        print(format_expert_report(analysis))
        if args.tree:
            from .analysis import format_property_tree

            print(format_property_tree(analysis, threshold=0.001))
    _emit_obs(args, result)


def cmd_list(args: argparse.Namespace) -> int:
    for spec in list_properties(
        paradigm=args.paradigm,
        negative=None if args.all else False,
    ):
        kind = "negative" if spec.negative else "positive"
        print(
            f"{spec.name:<34} [{spec.paradigm:>6}/{kind}] "
            f"{spec.description}"
        )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    _enable_obs(args)
    spec = _resolve_property(args.property)
    _check_grid(spec, args.size, args.threads)
    params = _dist_override(spec, args.dist) if args.dist else None
    result = spec.run(
        size=args.size,
        num_threads=args.threads,
        seed=args.seed,
        params=params,
        time_budget=args.time_budget,
    )
    _report(result, args)
    return 0


def cmd_chain(args: argparse.Namespace) -> int:
    _enable_obs(args)
    try:
        result = run_all_mpi_properties(size=args.size, seed=args.seed)
    except ValueError as exc:  # a bad --size, raised before simulating
        raise CliError(str(exc)) from None
    _report(result, args)
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    _enable_obs(args)
    lower = [_resolve_property(n).name for n in args.lower.split(",")]
    upper = [_resolve_property(n).name for n in args.upper.split(",")]
    try:
        result = run_split_program(
            lower=lower, upper=upper, size=args.size, seed=args.seed
        )
    except ValueError as exc:  # a bad --size, raised before simulating
        raise CliError(str(exc)) from None
    _report(result, args)
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    paths = write_generated_programs(args.outdir, paradigm=args.paradigm)
    for path in paths:
        print(path)
    print(f"{len(paths)} programs generated in {args.outdir}")
    return 0


def _expand_traces(patterns: Sequence[str]) -> list:
    """Expand ``ats analyze`` operands: files, directories, globs.

    A directory contributes its ``*.jsonl`` / ``*.jsonl.gz`` entries
    (sorted); a pattern with glob characters expands via ``glob`` --
    both fail loudly when they match nothing, a plain filename passes
    through so the missing-file error names it.
    """
    import glob as globmod
    from pathlib import Path

    suffixes = (".jsonl", ".jsonl.gz")
    paths: list = []
    for pattern in patterns:
        path = Path(pattern)
        if path.is_dir():
            found = sorted(
                p for p in path.iterdir()
                if p.is_file() and p.name.endswith(suffixes)
            )
            if not found:
                raise CliError(
                    f"no trace files (*.jsonl, *.jsonl.gz) in "
                    f"directory {pattern}"
                )
            paths.extend(found)
        elif any(ch in pattern for ch in "*?["):
            found = sorted(globmod.glob(pattern))
            if not found:
                raise CliError(f"no trace files match {pattern!r}")
            paths.extend(Path(p) for p in found)
        else:
            paths.append(path)
    return paths


def _analyze_one_trace(path, args) -> int:
    try:
        events, metadata = read_trace(
            path,
            skip_bad_lines=args.skip_bad_lines,
            salvage=args.salvage,
        )
    except FileNotFoundError:
        raise CliError(f"trace file not found: {path}") from None
    except IsADirectoryError:
        raise CliError(f"{path} is a directory, not a trace") from None
    except PermissionError:
        raise CliError(f"cannot read trace file: {path}") from None
    except TraceFormatError as exc:
        # already rendered as "path:line: message"
        raise CliError(str(exc)) from None
    skipped = metadata.get("skipped_lines", 0)
    if skipped:
        print(
            f"warning: skipped {skipped} corrupt trace line(s)",
            file=sys.stderr,
        )
    if metadata.get("truncated"):
        print(
            "warning: trace truncated mid-record; analyzing the "
            "salvaged prefix",
            file=sys.stderr,
        )
    if metadata:
        print(f"trace metadata: {metadata}")
    if not events:
        # A header-only trace is legal (a run that recorded nothing);
        # an empty profile/report table would just look broken.
        print("trace contains no event records; no findings")
        return 0
    if args.profile:
        print(format_profile(profile_trace(events)))
    result = analyze_events(events)
    print(format_expert_report(result, threshold=args.threshold))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """Analyze one or many traces; exit status is the worst per-trace.

    With several traces each report is headed by its path, and a
    failing trace (missing, corrupt) is reported inline without
    aborting the rest of the batch.
    """
    paths = _expand_traces(args.traces)
    many = len(paths) > 1
    status = 0
    for i, path in enumerate(paths):
        if many:
            if i:
                print()
            print(f"== {path} ==")
        try:
            status = max(status, _analyze_one_trace(path, args))
        except CliError as exc:
            if not many:
                raise
            print(f"ats: error: {exc}", file=sys.stderr)
            status = max(status, 2)
    return status


def cmd_metrics(args: argparse.Namespace) -> int:
    """Run one property with full observability on, dump the registry."""
    spec = _resolve_property(args.property)
    _check_grid(spec, args.size, args.threads)
    set_metrics_enabled(True)
    set_spans_enabled(True)
    result = spec.run(
        size=args.size, num_threads=args.threads, seed=args.seed
    )
    analyze_run(result)  # populate the analysis metric families too
    dest = args.out if args.out is not None else "-"
    _write_artifact(dest, _render_metrics(args.format, dest), "metrics")
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    supervisor = _make_supervisor(args)
    matrix = run_validation_matrix(
        size=args.size,
        num_threads=args.threads,
        seed=args.seed,
        time_budget=args.time_budget,
        supervisor=supervisor,
        archive=args.archive,
        workers=_workers_of(args),
    )
    print(matrix.format_table())
    if args.archive is not None:
        print(f"runs archived in {args.archive}")
    _emit_failures(args, supervisor)
    return 0 if matrix.all_passed else 1


def _parse_families_arg(args):
    from .stats import parse_families

    try:
        return parse_families(args.families)
    except ValueError as exc:
        raise CliError(str(exc)) from None


def cmd_robustness(args: argparse.Namespace) -> int:
    """Sweep fault magnitude, print per-detector TP/FP curves."""
    from .validation import DEFAULT_MAGNITUDES, run_robustness

    families = _parse_families_arg(args)
    specs = None
    if args.program:
        specs = [_resolve_property(name) for name in args.program]
    magnitudes = (
        _parse_csv(args.magnitudes, float, "--magnitudes")
        if args.magnitudes
        else DEFAULT_MAGNITUDES
    )
    if args.seeds < 1:
        raise CliError("--seeds must be >= 1")
    supervisor = _make_supervisor(args)
    result = run_robustness(
        specs=specs,
        magnitudes=magnitudes,
        seeds=tuple(range(args.seed, args.seed + args.seeds)),
        size=args.size,
        num_threads=args.threads,
        threshold=args.threshold,
        time_budget=args.time_budget,
        supervisor=supervisor,
        archive=args.archive,
        workers=_workers_of(args),
        families=families,
    )
    print(result.format_table())
    if args.archive is not None:
        print(f"runs archived in {args.archive}")
    _write_artifact(args.json, result.to_json_str(), "robustness curves")
    _emit_failures(args, supervisor)
    return 0


# ----------------------------------------------------------------------
# scenario synthesis commands
# ----------------------------------------------------------------------

def _load_campaign_spec(args):
    """Build the CampaignSpec from --spec FILE or the sampling flags."""
    import json

    from .synth import CampaignSpec, NoiseConfig, SynthError

    if args.spec is not None:
        try:
            with open(args.spec, encoding="utf-8") as fh:
                payload = json.load(fh)
        except OSError as exc:
            raise CliError(f"cannot read spec file: {exc}") from None
        except ValueError as exc:
            raise CliError(
                f"bad JSON in spec file {args.spec}: {exc}"
            ) from None
        if not isinstance(payload, dict):
            raise CliError(
                f"spec file {args.spec} must hold a JSON object"
            )
        if payload.get("format") == "ats-synth-campaign":
            # Re-running a campaign artifact reuses its embedded spec.
            payload = payload.get("spec", {})
        try:
            return CampaignSpec.from_dict(payload)
        except SynthError as exc:
            raise CliError(str(exc)) from None
    if not args.name:
        raise CliError("need a campaign NAME (or --spec FILE)")
    kwargs = dict(
        name=args.name,
        strategy=args.strategy,
        scenarios=args.scenarios,
        threads=args.threads,
        seed=args.seed,
        max_properties=args.max_properties,
        max_failures=args.max_failures,
        max_retries=getattr(args, "retries", 0),
        adversarial_rounds=args.adversarial_rounds,
        adversarial_top=args.adversarial_top,
    )
    if args.properties:
        kwargs["properties"] = tuple(args.properties.split(","))
    if args.skeletons:
        kwargs["skeletons"] = tuple(args.skeletons.split(","))
    if args.sizes:
        kwargs["sizes"] = _parse_csv(args.sizes, int, "--sizes")
    if args.bands:
        kwargs["bands"] = tuple(args.bands.split(","))
    if args.placements:
        kwargs["placements"] = tuple(args.placements.split(","))
    noise = (
        NoiseConfig.default() if args.noise == "default"
        else NoiseConfig()
    )
    if args.magnitudes:
        noise = NoiseConfig(
            plan=noise.plan,
            magnitudes=_parse_csv(
                args.magnitudes, float, "--magnitudes"
            ),
        )
    kwargs["noise"] = noise
    try:
        return CampaignSpec(**kwargs)
    except SynthError as exc:
        raise CliError(str(exc)) from None


def cmd_synth_generate(args: argparse.Namespace) -> int:
    """Sample a campaign's scenario list without running it."""
    import json

    from .synth import SynthError, generate_scenarios

    spec = _load_campaign_spec(args)
    try:
        scenarios = generate_scenarios(spec)
    except SynthError as exc:
        raise CliError(str(exc)) from None
    print(
        f"{'scenario':<22}{'doses':<46}{'place':>7}{'skel':>14}"
        f"{'size':>6}{'noise':>7}"
    )
    for sc in scenarios:
        doses = ",".join(
            f"{d.property}@{d.band}" for d in sc.doses
        ) or "-"
        print(
            f"{sc.name:<22}{doses:<46}{sc.placement:>7}"
            f"{sc.skeleton:>14}{sc.size:>6}{sc.noise_magnitude:>7g}"
        )
    print(f"{len(scenarios)} scenario(s), strategy={spec.strategy}")
    if args.json is not None:
        payload = {
            "format": "ats-synth-scenarios",
            "version": 1,
            "spec": spec.to_dict(),
            "scenarios": [
                dict(sc.to_dict(), manifest=sc.manifest().to_dict())
                for sc in scenarios
            ],
        }
        _write_artifact(
            args.json,
            json.dumps(payload, indent=2) + "\n",
            "scenario list",
        )
    return 0


def cmd_synth_campaign(args: argparse.Namespace) -> int:
    """Execute a synthesis campaign on the supervised sweep engine."""
    from .synth import (
        CampaignError,
        SynthError,
        run_campaign,
        score_result,
    )

    spec = _load_campaign_spec(args)
    families = _parse_families_arg(args)
    supervisor = _make_supervisor(args)
    aborted = None
    try:
        result = run_campaign(
            spec,
            threshold=args.threshold,
            time_budget=args.time_budget,
            supervisor=supervisor,
            archive=args.archive,
            workers=_workers_of(args),
            families=families,
        )
    except SynthError as exc:
        raise CliError(str(exc)) from None
    except CampaignError as exc:
        result = exc.result
        aborted = str(exc)
    print(result.format_summary())
    print(score_result(result).format_table())
    if args.archive is not None:
        print(f"runs archived in {args.archive}")
    _write_artifact(
        args.json, result.to_json_str(), "campaign artifact"
    )
    _emit_failures(args, supervisor)
    if aborted is not None:
        print(f"ats: error: {aborted}", file=sys.stderr)
        return 1
    return 0


def cmd_synth_score(args: argparse.Namespace) -> int:
    """Grade detectors against a campaign artifact's manifests."""
    import json

    from .synth import score_campaign_json

    try:
        with open(args.campaign, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read campaign file: {exc}") from None
    except ValueError as exc:
        raise CliError(
            f"bad JSON in campaign file {args.campaign}: {exc}"
        ) from None
    try:
        report = score_campaign_json(payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(
            f"{args.campaign}: not a campaign artifact ({exc})"
        ) from None
    print(report.format_table())
    _write_artifact(args.json, report.to_json_str(), "score")
    return 0


def cmd_suites(args: argparse.Namespace) -> int:
    print(format_catalog())
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    from .validation import certify_tool

    cert = certify_tool(
        size=args.size, num_threads=args.threads, seed=args.seed
    )
    print(cert.format())
    return 0 if cert.certified else 1


def cmd_sweep(args: argparse.Namespace) -> int:
    from .validation import run_sweep

    spec = _resolve_property(args.property)
    factors = _parse_csv(args.factors, float, "--factors")
    sizes = _parse_csv(args.sizes, int, "--sizes")
    for size in sizes:
        _check_grid(spec, size, args.threads)
    result = run_sweep(
        spec.name,
        severity_factors=factors,
        sizes=sizes,
        num_threads=args.threads,
        seed=args.seed,
    )
    print(result.to_csv())
    return 0


# ----------------------------------------------------------------------
# statistical analysis commands
# ----------------------------------------------------------------------

def cmd_stats(args: argparse.Namespace) -> int:
    """Similarity analysis of one trace: features, clusters, outliers."""
    import json

    from .analysis import AnalysisConfig
    from .analysis.index import TraceIndex
    from .stats import SimilarityDetector, behavior_matrix, cluster_rows

    if args.trace is not None:
        try:
            events, _ = read_trace(args.trace)
        except FileNotFoundError:
            raise CliError(
                f"trace file not found: {args.trace}"
            ) from None
        except TraceFormatError as exc:
            raise CliError(str(exc)) from None
        if not events:
            print("trace contains no event records; nothing to cluster")
            return 0
        index = TraceIndex(sorted(events, key=lambda e: e.time))
        total_time = None
    else:
        if not args.property:
            raise CliError("need a property program (or --trace FILE)")
        spec = _resolve_property(args.property)
        _check_grid(spec, args.size, args.threads)
        run = spec.run(
            size=args.size, num_threads=args.threads, seed=args.seed
        )
        index = TraceIndex(list(run.events))
        total_time = run.final_time
    matrix = behavior_matrix(index, total_time=total_time)
    label = "rank" if matrix.kind == "rank" else "location"
    print(
        f"behavior matrix: {len(matrix)} {label} row(s) x "
        f"{len(matrix.names)} feature(s)"
    )
    if len(matrix) < 2:
        print("fewer than 2 rows; nothing to cluster")
        return 0
    k = min(args.k, len(matrix))
    assign = cluster_rows(
        matrix.rows,
        k=k,
        metric=args.metric,
        method=args.method,
        seed=args.seed,
    )
    print(
        f"clusters: {assign.method} k={assign.k} "
        f"metric={assign.metric} silhouette={assign.silhouette:.3f}"
    )
    members = {
        lbl: assign.members(lbl) for lbl in sorted(set(assign.labels))
    }
    means = {
        lbl: sum(matrix.overhead(i) for i in rows) / len(rows)
        for lbl, rows in sorted(members.items())
    }
    baseline = min(sorted(means), key=lambda lbl: means[lbl])
    for lbl, rows in sorted(members.items()):
        tag = " (baseline)" if lbl == baseline else ""
        keys = ",".join(matrix.keys[i] for i in rows)
        print(
            f"  cluster {lbl}{tag}: {len(rows)} row(s), "
            f"mean overhead {means[lbl]:.4f}s  [{keys}]"
        )
    detector = SimilarityDetector(
        k=args.k,
        metric=args.metric,
        method=args.method,
        threshold=args.silhouette,
        seed=args.seed,
    )
    findings = sorted(
        detector.detect(index, AnalysisConfig()),
        key=lambda f: (-f.wait_time, f.loc),
    )
    if findings:
        print("outliers:")
        for f in findings:
            path = "/".join(f.callpath)
            print(
                f"  {label} {f.loc}: overhead excess "
                f"{f.wait_time:.4f}s @ {path}"
            )
    else:
        print(
            "no outlier rows (silhouette below "
            f"{args.silhouette:g} or no excess overhead)"
        )
    if args.json is not None:
        payload = {
            "format": "ats-stats",
            "version": 1,
            "matrix": matrix.to_dict(),
            "clusters": {
                "method": assign.method,
                "metric": assign.metric,
                "k": assign.k,
                "labels": list(assign.labels),
                "medoids": list(assign.medoids),
                "silhouette": assign.silhouette,
            },
            "outliers": [
                {
                    "location": str(f.loc),
                    "callpath": list(f.callpath),
                    "excess_seconds": f.wait_time,
                }
                for f in findings
            ],
        }
        _write_artifact(
            args.json,
            json.dumps(payload, indent=2, sort_keys=True) + "\n",
            "stats report",
        )
    return 0


def cmd_export_dataset(args: argparse.Namespace) -> int:
    """Export (features, labels) tables from archived ground truth."""
    from .archive import ArchiveError, CacheStats
    from .stats import dataset_rows, rows_to_csv, rows_to_jsonl

    if args.jsonl is None and args.csv is None:
        raise CliError(
            "need --jsonl FILE and/or --csv FILE ('-' = stdout)"
        )
    stats = CacheStats()
    with _open_archive(args) as arch:
        try:
            runs = (
                [arch.resolve(ref) for ref in args.run]
                if args.run
                else None
            )
            rows = dataset_rows(arch, runs=runs, stats=stats)
        except ArchiveError as exc:
            raise CliError(str(exc)) from None
    if not rows:
        raise CliError(
            f"archive {args.archive} holds no ground-truth runs; "
            "record some with 'ats synth campaign --archive' first"
        )
    if args.jsonl is not None:
        _write_artifact(
            args.jsonl, rows_to_jsonl(rows), "dataset (JSONL)"
        )
    if args.csv is not None:
        _write_artifact(
            args.csv, rows_to_csv(rows), "dataset (CSV)"
        )
    print(
        f"{len(rows)} sample(s) from "
        f"{len({r.run_id for r in rows})} run(s); {stats.format()}"
    )
    return 0


# ----------------------------------------------------------------------
# archive commands
# ----------------------------------------------------------------------

def _open_archive(args):
    from .archive import Archive

    return Archive(args.archive)


def cmd_archive_run(args: argparse.Namespace) -> int:
    from .archive import ArchiveError

    spec = _resolve_property(args.property)
    _check_grid(spec, args.size, args.threads)
    params = _dist_override(spec, args.dist) if args.dist else None
    if args.severity_scale is not None and args.severity_scale <= 0:
        raise CliError("--severity-scale must be > 0")
    with _open_archive(args) as arch:
        try:
            run = arch.archive_run(
                spec,
                size=args.size,
                num_threads=args.threads,
                seed=args.seed,
                params=params,
                severity_scale=args.severity_scale,
                time_budget=args.time_budget,
            )
        except ArchiveError as exc:
            raise CliError(str(exc)) from None
    print(
        f"archived {run.run_id} {run.program} size={run.size} "
        f"threads={run.threads} seed={run.seed} events={run.events} "
        f"trace={run.trace_digest[:12]}"
    )
    return 0


def cmd_archive_analyze(args: argparse.Namespace) -> int:
    from .archive import ArchiveError, CacheStats

    stats = CacheStats()
    with _open_archive(args) as arch:
        try:
            runs = (
                [arch.resolve(ref) for ref in args.run]
                if args.run
                else arch.history()
            )
            if not runs:
                raise CliError(
                    f"archive {arch.root} is empty; record runs with "
                    "'ats archive run' first"
                )
            results = arch.analyze_many(runs, stats=stats)
        except ArchiveError as exc:
            raise CliError(str(exc)) from None
    for run in runs:
        ranked = [
            f"{name}={sev:.1%}"
            for name, sev in results[run.run_id].ranked()
            if sev >= args.threshold
        ]
        print(
            f"{run.run_id} {run.program}: "
            + (", ".join(ranked) if ranked else "no findings above "
               f"{args.threshold:.1%}")
        )
    print(stats.format())
    return 0


def cmd_archive_export(args: argparse.Namespace) -> int:
    from .archive import ArchiveError

    with _open_archive(args) as arch:
        try:
            run = arch.resolve(args.run)
            path = arch.export_trace(run, args.out)
        except ArchiveError as exc:
            raise CliError(str(exc)) from None
    print(f"trace {run.trace_digest[:12]} of {run.run_id} written to {path}")
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    from .archive import ArchiveError, format_history, history_to_json_str

    with _open_archive(args) as arch:
        try:
            runs = arch.history()
        except ArchiveError as exc:
            raise CliError(str(exc)) from None
    sys.stdout.write(
        history_to_json_str(runs) if args.json else format_history(runs)
    )
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    """Cross-run regression diff; ``--gate`` makes it a CI check."""
    import json

    from .archive import ArchiveError, CacheStats

    stats = CacheStats()
    with _open_archive(args) as arch:
        try:
            before = arch.resolve(args.before)
            after = arch.resolve(args.after)
            report = arch.diff(
                before, after, threshold=args.threshold, stats=stats
            )
        except ArchiveError as exc:
            raise CliError(str(exc)) from None
    print(
        f"diff {before.run_id} ({before.program}) -> "
        f"{after.run_id} ({after.program})"
    )
    print(report.format())
    print(stats.format())
    if args.json is not None:
        payload = dict(
            {"format": "ats-diff", "version": 1,
             "before": before.run_id, "after": after.run_id},
            **report.to_dict(),
        )
        _write_artifact(
            args.json, json.dumps(payload, indent=2) + "\n", "diff"
        )
    if args.gate:
        failures = report.gate_failures()
        if failures:
            for reason in failures:
                print(f"ats: gate: {reason}", file=sys.stderr)
            return 1
        print("gate: no regressions")
    return 0


# ----------------------------------------------------------------------
# service commands
# ----------------------------------------------------------------------

def _service_client(args):
    from .service import ServiceClient

    return ServiceClient(args.server, tenant=args.tenant)


def _service_call(fn):
    """Run one client call with CLI-grade connection errors."""
    from urllib.error import URLError

    from .service import ServiceHTTPError, ServiceUnreachable

    try:
        return fn()
    except ServiceHTTPError as exc:
        raise CliError(str(exc)) from None
    except ServiceUnreachable as exc:
        raise CliError(f"cannot reach service: {exc}") from None
    except (URLError, OSError) as exc:
        raise CliError(f"cannot reach service: {exc}") from None


def cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .archive import Archive
    from .chaos.inject import install_from_env
    from .service import AnalysisService, run_service_in_thread
    from .service.dashboard import render_watch

    set_metrics_enabled(True)
    if args.spans:
        set_spans_enabled(True)
    # fault-injection harness hook: a no-op unless ATS_CHAOS carries a
    # plan (the chaos harness sets it on the server it supervises).
    install_from_env()
    durable = args.state_dir is not None
    service = AnalysisService(
        Archive(args.archive, fsync=durable),
        max_workers=args.workers,
        rate=args.rate,
        burst=args.burst,
        state_dir=args.state_dir,
        recover=args.recover,
    )
    handle = run_service_in_thread(
        service, host=args.host, port=args.port
    )
    print(f"ats service listening on {handle.url} "
          f"(archive {service.archive.root})")
    if durable:
        print(f"durable state in {service.state_dir}"
              + (
                  "  (recovered {recovered}, requeued {requeued}, "
                  "orphaned {orphaned})".format(**service.counts)
                  if args.recover else ""
              ))
    print("endpoints: /submit-run /analyze /diff /campaign /synth "
          "/history /jobs/<id> /status /dashboard /metrics "
          "/metrics.json /drain")
    sys.stdout.flush()
    # SIGTERM = graceful shutdown: stop intake, wait for in-flight
    # jobs, flush the journal + manifest, then exit -- same path as
    # Ctrl-C, so orchestrators get drain semantics for free.
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    try:
        while not stop.is_set():
            if args.watch:
                frame = render_watch(service.status())
                sys.stdout.write("\x1b[2J\x1b[H" + frame)
                sys.stdout.flush()
            stop.wait(args.interval)
    except KeyboardInterrupt:
        print("\ninterrupt: draining...", file=sys.stderr)
    handle.stop()
    service.close()
    print("service stopped (drained)")
    sys.stdout.flush()
    return 0


def _print_submission(response: dict) -> int:
    import json

    if "result" in response or response.get("state") in (
        "done", "failed"
    ):
        print(json.dumps(response, indent=2, default=str))
        return 0 if response.get("state") == "done" else 1
    coalesced = " (coalesced)" if response.get("coalesced") else ""
    print(f"submitted {response['job']}{coalesced}; poll with "
          f"'ats submit job {response['job']}'")
    return 0


def cmd_submit_run(args: argparse.Namespace) -> int:
    client = _service_client(args)
    return _print_submission(_service_call(lambda: client.submit_run(
        args.property, size=args.size, threads=args.threads,
        seed=args.seed, wait=args.wait,
    )))


def cmd_submit_analyze(args: argparse.Namespace) -> int:
    client = _service_client(args)
    return _print_submission(_service_call(lambda: client.analyze(
        args.run, wait=args.wait,
    )))


def cmd_submit_diff(args: argparse.Namespace) -> int:
    client = _service_client(args)
    return _print_submission(_service_call(lambda: client.diff(
        args.before, args.after, threshold=args.threshold,
        wait=args.wait,
    )))


def cmd_submit_campaign(args: argparse.Namespace) -> int:
    client = _service_client(args)
    params = {}
    if args.properties:
        params["properties"] = args.properties.split(",")
    return _print_submission(_service_call(lambda: client.campaign(
        size=args.size, threads=args.threads, seed=args.seed,
        wait=args.wait, **params,
    )))


def cmd_submit_synth(args: argparse.Namespace) -> int:
    import json

    try:
        with open(args.spec, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read spec file: {exc}") from None
    except ValueError as exc:
        raise CliError(
            f"bad JSON in spec file {args.spec}: {exc}"
        ) from None
    if isinstance(payload, dict) and (
        payload.get("format") == "ats-synth-campaign"
    ):
        payload = payload.get("spec", {})
    client = _service_client(args)
    return _print_submission(_service_call(lambda: client.synth(
        payload, wait=args.wait,
    )))


def cmd_submit_history(args: argparse.Namespace) -> int:
    import json

    client = _service_client(args)
    print(json.dumps(_service_call(client.history), indent=2))
    return 0


def cmd_submit_job(args: argparse.Namespace) -> int:
    import json

    client = _service_client(args)
    response = _service_call(
        lambda: client.job(args.job, wait=args.wait)
    )
    print(json.dumps(response, indent=2, default=str))
    return 0 if response.get("state") != "failed" else 1


def cmd_watch(args: argparse.Namespace) -> int:
    import time

    from .service.dashboard import render_watch

    client = _service_client(args)
    frames = 0
    outages = 0
    while True:
        try:
            # the client already rides out brief restarts with its
            # seeded backoff; this outer loop covers the long ones, so
            # a watch session survives any service restart.
            status = _service_call(client.status)
        except CliError as exc:
            if args.no_reconnect:
                raise
            outages += 1
            sys.stdout.write(f"[watch] {exc}; reconnecting...\n")
            sys.stdout.flush()
            try:
                time.sleep(min(5.0, args.interval * outages))
            except KeyboardInterrupt:
                return 0
            continue
        outages = 0
        frame = render_watch(status)
        if args.plain:
            sys.stdout.write(frame)
        else:
            sys.stdout.write("\x1b[2J\x1b[H" + frame)
        sys.stdout.flush()
        frames += 1
        if args.count and frames >= args.count:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from .chaos.harness import run_chaos_battery

    def progress(result):
        mark = "ok" if result.ok else "FAIL"
        print(f"[{mark}] run {result.index}: {result.plan} "
              f"({result.acknowledged} acked, "
              f"{result.duration:.1f}s)")
        for violation in result.violations:
            print(f"     violation: {violation}")
        sys.stdout.flush()

    report = run_chaos_battery(
        seed=args.seed,
        runs=args.runs,
        workdir=args.workdir,
        timeout=args.timeout,
        keep=args.keep,
        progress=progress,
    )
    print(report.format(), end="")
    if args.json_out:
        payload = json.dumps(report.to_dict(), indent=2) + "\n"
        if args.json_out == "-":
            sys.stdout.write(payload)
        else:
            with open(args.json_out, "w", encoding="utf-8") as fh:
                fh.write(payload)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ats",
        description="APART Test Suite for automatic performance "
        "analysis tools (IPPS 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list property functions")
    p.add_argument("--paradigm", choices=("mpi", "omp", "hybrid"),
                   default=None)
    p.add_argument("--all", action="store_true",
                   help="include negative test programs")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("run", help="run one property function")
    p.add_argument("property")
    p.add_argument("--dist", metavar="SHAPE[:V1,V2,...]", default=None,
                   help="override the property's work distribution "
                   "(shape name from the distribution registry, with "
                   "optional descriptor values)")
    p.add_argument("--time-budget", type=float, default=None,
                   metavar="VSECONDS",
                   help="virtual-time watchdog: tear the run down with "
                   "a structured hang report past this simulated time")
    _add_run_options(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("chain", help="run all MPI properties (fig 3.3)")
    _add_run_options(p)
    p.set_defaults(fn=cmd_chain)

    p = sub.add_parser("split", help="split-communicator run (fig 3.4)")
    p.add_argument("--lower", default="imbalance_at_mpi_barrier",
                   help="comma-separated property list for lower half")
    p.add_argument("--upper", default="late_broadcast",
                   help="comma-separated property list for upper half")
    _add_run_options(p)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("generate", help="generate standalone programs")
    p.add_argument("outdir")
    p.add_argument("--paradigm", choices=("mpi", "omp", "hybrid"),
                   default=None)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("analyze", help="analyze persisted traces")
    p.add_argument("traces", nargs="+", metavar="trace",
                   help="trace files, directories (all *.jsonl[.gz] "
                   "inside) or glob patterns")
    p.add_argument("--threshold", type=float, default=0.005)
    p.add_argument("--profile", action="store_true",
                   help="print the per-region trace profile first")
    p.add_argument("--skip-bad-lines", action="store_true",
                   help="drop corrupt event lines instead of failing")
    p.add_argument("--salvage", action="store_true",
                   help="recover a trace truncated mid-record: analyze "
                   "everything before the cut")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "metrics",
        help="run a property with metrics on and dump the registry",
    )
    p.add_argument("property", nargs="?", default="late_sender")
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("auto", "prom", "json"),
                   default="auto")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write to FILE instead of stdout")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("matrix", help="run the validation matrix")
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--archive", metavar="DIR", default=None,
                   help="also record every executed run's trace in "
                   "this archive directory")
    _add_supervision_options(p)
    p.set_defaults(fn=cmd_matrix)

    p = sub.add_parser(
        "robustness",
        help="sweep fault-injection magnitude, emit detector TP/FP "
        "curves",
    )
    p.add_argument("--program", action="append", default=None,
                   metavar="NAME",
                   help="property program(s) to sweep (repeatable; "
                   "default: all registered programs)")
    p.add_argument("--magnitudes", default=None,
                   help="comma-separated perturbation magnitudes "
                   "(default 0,0.35,0.7,1)")
    p.add_argument("--seeds", type=int, default=1, metavar="N",
                   help="number of seeds per (program, magnitude) cell")
    p.add_argument("--seed", type=int, default=0,
                   help="first seed of the range (default 0)")
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--threshold", type=float, default=0.01)
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the full curves as JSON "
                   "('-' = stdout)")
    p.add_argument("--archive", metavar="DIR", default=None,
                   help="also record every analyzed trace in this "
                   "archive directory (under its scaled fault plan)")
    p.add_argument("--families", default="rule", metavar="LIST",
                   help="comma-separated detector families to run "
                   "(rule,similarity; default rule)")
    _add_supervision_options(p)
    p.set_defaults(fn=cmd_robustness)

    def _add_synth_spec_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("name", nargs="?", default=None,
                            help="campaign name (or pass --spec FILE)")
        parser.add_argument("--spec", metavar="FILE", default=None,
                            help="load the CampaignSpec from a JSON "
                            "file instead of the flags below")
        parser.add_argument("--strategy", default="grid",
                            choices=("grid", "random", "adversarial"))
        parser.add_argument("--scenarios", type=int, default=100,
                            metavar="N",
                            help="base scenario count (default 100)")
        parser.add_argument("--properties", default=None,
                            help="comma-separated property pool "
                            "(default: all registered programs)")
        parser.add_argument("--skeletons", default=None,
                            help="comma-separated app skeletons "
                            "(none,jacobi,pipeline,master_worker)")
        parser.add_argument("--sizes", default=None,
                            help="comma-separated world sizes "
                            "(default 4)")
        parser.add_argument("--bands", default=None,
                            help="comma-separated severity bands "
                            "(low,medium,high)")
        parser.add_argument("--placements", default=None,
                            help="comma-separated placements "
                            "(all,lower,upper)")
        parser.add_argument("--threads", type=int, default=2)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--max-properties", type=int, default=2,
                            metavar="N",
                            help="max property doses per scenario")
        parser.add_argument("--max-failures", type=int, default=-1,
                            metavar="N",
                            help="abort after more than N errored "
                            "cells (-1: unlimited)")
        parser.add_argument("--noise", choices=("none", "default"),
                            default="none",
                            help="fault-plan noise: 'default' sweeps "
                            "the standard plan (default: none)")
        parser.add_argument("--magnitudes", default=None,
                            help="comma-separated noise magnitudes "
                            "scenarios sample from")
        parser.add_argument("--adversarial-rounds", type=int, default=2,
                            metavar="N")
        parser.add_argument("--adversarial-top", type=int, default=4,
                            metavar="N")

    p = sub.add_parser(
        "synth",
        help="synthesized ground-truth campaigns (generate/run/score)",
    )
    ysub = p.add_subparsers(dest="synth_command", required=True)

    py = ysub.add_parser(
        "generate",
        help="sample a campaign's scenario list (no execution)",
    )
    _add_synth_spec_options(py)
    py.add_argument("--json", metavar="FILE", default=None,
                    help="write scenarios + ground-truth manifests as "
                    "JSON ('-' = stdout)")
    py.set_defaults(fn=cmd_synth_generate)

    py = ysub.add_parser(
        "campaign",
        help="execute a synthesis campaign and grade the detectors",
    )
    _add_synth_spec_options(py)
    py.add_argument("--threshold", type=float, default=0.01)
    py.add_argument("--json", metavar="FILE", default=None,
                    help="write the campaign artifact (cells + "
                    "manifests) as JSON ('-' = stdout)")
    py.add_argument("--archive", metavar="DIR", default=None,
                    help="record every analyzed trace (with its "
                    "ground-truth manifest) in this archive directory")
    py.add_argument("--families", default="rule", metavar="LIST",
                    help="comma-separated detector families to run "
                    "(rule,similarity; default rule)")
    _add_supervision_options(py)
    py.set_defaults(fn=cmd_synth_campaign)

    py = ysub.add_parser(
        "score",
        help="re-score a campaign artifact against its manifests",
    )
    py.add_argument("campaign", help="ats-synth-campaign JSON file")
    py.add_argument("--json", metavar="FILE", default=None,
                    help="write the score report as JSON "
                    "('-' = stdout)")
    py.set_defaults(fn=cmd_synth_score)

    p = sub.add_parser("suites", help="print the external-suite catalog")
    p.set_defaults(fn=cmd_suites)

    p = sub.add_parser(
        "certify",
        help="run the full suite against the bundled analyzer",
    )
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser(
        "sweep", help="severity/size parameter sweep (CSV output)"
    )
    p.add_argument("property")
    p.add_argument("--factors", default="0.5,1,2",
                   help="comma-separated severity scale factors")
    p.add_argument("--sizes", default="8",
                   help="comma-separated world sizes")
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser(
        "stats",
        help="similarity analysis: per-rank behavior clusters and "
        "outliers",
    )
    p.add_argument("property", nargs="?", default=None,
                   help="property program to run (or pass --trace)")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="cluster a persisted trace instead of running "
                   "a program")
    p.add_argument("--size", type=int, default=8)
    p.add_argument("--threads", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=2,
                   help="cluster count (default 2)")
    p.add_argument("--metric", choices=("euclidean", "manhattan"),
                   default="euclidean")
    p.add_argument("--method", choices=("kmedoids", "single_link"),
                   default="kmedoids")
    p.add_argument("--silhouette", type=float, default=0.35,
                   metavar="Q",
                   help="outlier gate: emit nothing below this cluster "
                   "quality (default 0.35)")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="write matrix + clusters + outliers as JSON "
                   "('-' = stdout)")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "export",
        help="export ground-truth datasets from an archive",
    )
    esub = p.add_subparsers(dest="export_command", required=True)

    pe = esub.add_parser(
        "dataset",
        help="(features, labels) tables from archived ground-truth "
        "campaign runs",
    )
    pe.add_argument("run", nargs="*",
                    help="run ids or unique prefixes (default: every "
                    "manifest-carrying archived run)")
    pe.add_argument("--archive", metavar="DIR", default=".ats-archive",
                    help="archive directory (default .ats-archive)")
    pe.add_argument("--jsonl", metavar="FILE", default=None,
                    help="write JSON-lines rows ('-' = stdout)")
    pe.add_argument("--csv", metavar="FILE", default=None,
                    help="write a flat CSV table ('-' = stdout)")
    pe.set_defaults(fn=cmd_export_dataset)

    def _add_archive_option(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--archive", metavar="DIR",
                            default=".ats-archive",
                            help="archive directory (default "
                            ".ats-archive)")

    p = sub.add_parser(
        "archive",
        help="record runs in a content-addressed trace archive",
    )
    asub = p.add_subparsers(dest="archive_command", required=True)

    pa = asub.add_parser(
        "run", help="execute a property function and archive its trace"
    )
    pa.add_argument("property")
    _add_archive_option(pa)
    pa.add_argument("--size", type=int, default=8)
    pa.add_argument("--threads", type=int, default=4)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--dist", metavar="SHAPE[:V1,V2,...]", default=None,
                    help="override the property's work distribution")
    pa.add_argument("--severity-scale", type=float, default=None,
                    metavar="FACTOR",
                    help="scale the property's severity parameters "
                    "(a distinct archived identity; used to exercise "
                    "the diff gate)")
    pa.add_argument("--time-budget", type=float, default=None,
                    metavar="VSECONDS")
    pa.set_defaults(fn=cmd_archive_run)

    pa = asub.add_parser(
        "analyze",
        help="analyze archived runs through the incremental cache",
    )
    pa.add_argument("run", nargs="*",
                    help="run ids or unique prefixes (default: all)")
    _add_archive_option(pa)
    pa.add_argument("--threshold", type=float, default=0.005)
    pa.set_defaults(fn=cmd_archive_analyze)

    pa = asub.add_parser(
        "export", help="write an archived trace back to a file"
    )
    pa.add_argument("run", help="run id or unique prefix")
    pa.add_argument("out",
                    help="destination (.gz for compressed JSONL)")
    _add_archive_option(pa)
    pa.set_defaults(fn=cmd_archive_export)

    p = sub.add_parser("history", help="list archived runs")
    _add_archive_option(p)
    p.add_argument("--json", action="store_true",
                   help="machine-readable history on stdout")
    p.set_defaults(fn=cmd_history)

    p = sub.add_parser(
        "diff",
        help="regression diff between two archived runs",
    )
    p.add_argument("before", help="baseline run id or unique prefix")
    p.add_argument("after", help="candidate run id or unique prefix")
    _add_archive_option(p)
    p.add_argument("--threshold", type=float, default=0.01,
                   help="detection threshold for lost/gained "
                   "properties (default 0.01)")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="also write the structured diff as JSON "
                   "('-' = stdout)")
    p.add_argument("--gate", action="store_true",
                   help="exit 1 on lost properties or severity "
                   "regressions (CI regression gate)")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser(
        "serve",
        help="run the analysis-as-a-service HTTP server",
    )
    _add_archive_option(p)
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=8313,
                   help="bind port; 0 = ephemeral (default 8313)")
    p.add_argument("--workers", type=int, default=8,
                   help="max concurrently executing jobs (default 8)")
    p.add_argument("--rate", type=float, default=200.0,
                   help="per-tenant submissions/second (default 200)")
    p.add_argument("--burst", type=int, default=400,
                   help="per-tenant burst budget (default 400)")
    p.add_argument("--spans", action="store_true",
                   help="record request-tracing obs spans")
    p.add_argument("--watch", action="store_true",
                   help="redraw the live dashboard while serving")
    p.add_argument("--interval", type=float, default=1.0,
                   help="dashboard refresh seconds (default 1)")
    p.add_argument("--state-dir", default=None,
                   help="durable mode: journal every accepted job "
                   "(fsync'd) and checkpoint campaigns here")
    p.add_argument("--recover", action="store_true",
                   help="replay the --state-dir journal: restore "
                   "finished jobs, requeue interrupted ones")
    p.set_defaults(fn=cmd_serve)

    def _add_server_options(parser: argparse.ArgumentParser) -> None:
        parser.add_argument("--server",
                            default="http://127.0.0.1:8313",
                            help="service base URL "
                            "(default http://127.0.0.1:8313)")
        parser.add_argument("--tenant", default="default",
                            help="X-Tenant rate-limit identity")

    p = sub.add_parser(
        "submit",
        help="submit a job to a running 'ats serve'",
    )
    ssub = p.add_subparsers(dest="submit_command", required=True)

    ps = ssub.add_parser("run", help="execute + archive a property run")
    ps.add_argument("property")
    ps.add_argument("--size", type=int, default=8)
    ps.add_argument("--threads", type=int, default=4)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--wait", action="store_true",
                    help="block until the job resolves")
    _add_server_options(ps)
    ps.set_defaults(fn=cmd_submit_run)

    ps = ssub.add_parser("analyze", help="analyze an archived run")
    ps.add_argument("run", help="run id or unique prefix")
    ps.add_argument("--wait", action="store_true")
    _add_server_options(ps)
    ps.set_defaults(fn=cmd_submit_analyze)

    ps = ssub.add_parser("diff", help="regression diff of two runs")
    ps.add_argument("before")
    ps.add_argument("after")
    ps.add_argument("--threshold", type=float, default=0.01)
    ps.add_argument("--wait", action="store_true")
    _add_server_options(ps)
    ps.set_defaults(fn=cmd_submit_diff)

    ps = ssub.add_parser(
        "campaign", help="run a validation campaign server-side"
    )
    ps.add_argument("--properties", default=None,
                    help="comma-separated property names (default all)")
    ps.add_argument("--size", type=int, default=8)
    ps.add_argument("--threads", type=int, default=4)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--wait", action="store_true")
    _add_server_options(ps)
    ps.set_defaults(fn=cmd_submit_campaign)

    ps = ssub.add_parser(
        "synth", help="run a synthesized-scenario campaign server-side"
    )
    ps.add_argument("spec", help="CampaignSpec JSON file")
    ps.add_argument("--wait", action="store_true")
    _add_server_options(ps)
    ps.set_defaults(fn=cmd_submit_synth)

    ps = ssub.add_parser("history", help="server-side archive history")
    _add_server_options(ps)
    ps.set_defaults(fn=cmd_submit_history)

    ps = ssub.add_parser("job", help="poll one job by id")
    ps.add_argument("job")
    ps.add_argument("--wait", action="store_true")
    _add_server_options(ps)
    ps.set_defaults(fn=cmd_submit_job)

    p = sub.add_parser(
        "watch",
        help="live terminal dashboard for a running service",
    )
    _add_server_options(p)
    p.add_argument("--interval", type=float, default=1.0,
                   help="poll seconds (default 1)")
    p.add_argument("--count", type=int, default=0,
                   help="frames to render before exiting (0 = forever)")
    p.add_argument("--plain", action="store_true",
                   help="no screen clearing (scripts/tests)")
    p.add_argument("--no-reconnect", action="store_true",
                   help="exit instead of retrying when the service "
                   "restarts or goes away")
    p.set_defaults(fn=cmd_watch)

    p = sub.add_parser(
        "chaos",
        help="crash-test a service under a seeded host-fault plan",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="battery seed (default 0)")
    p.add_argument("--runs", type=int, default=5,
                   help="seeded plans to execute (default 5)")
    p.add_argument("--workdir", default=None,
                   help="scratch root (default: a temp dir, removed "
                   "on success)")
    p.add_argument("--keep", action="store_true",
                   help="keep per-run scratch dirs and server logs")
    p.add_argument("--timeout", type=float, default=180.0,
                   help="per-run wall-clock budget (default 180s)")
    p.add_argument("--json", dest="json_out", default=None,
                   help="also write the report as JSON ('-' = stdout)")
    p.set_defaults(fn=cmd_chaos)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    from .resilience import CheckpointError
    from .simkernel import DeadlockError, HangError

    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, CheckpointError) as exc:
        print(f"ats: error: {exc}", file=sys.stderr)
        return 2
    except (DeadlockError, HangError) as exc:
        # The structured watchdog report goes to stdout (it is the
        # diagnosis the user asked for); stderr keeps the one-line
        # error contract.
        report = getattr(exc, "report", None)
        if report is not None:
            print(report.format())
        first_line = str(exc).splitlines()[0]
        print(f"ats: error: {first_line}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
