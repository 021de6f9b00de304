"""Launch ``ats serve`` pinned to one CPU, optionally with layer timers.

Usage (from ``serving.py``)::

    python perfbench/serve.py --cpu 0 [--trace-out PREFIX] -- serve ...

Everything after ``--`` goes to ``repro.cli.main``.  With
``--trace-out`` the launcher installs the benchmark's layer wrappers
and turns on spans before the server starts; when the server has
drained and returned (SIGTERM), it writes ``PREFIX.layers.json`` (the
wrapper totals and the benchmark's spans) and ``PREFIX.chrome.json``
(every span, for Perfetto).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import SRC, pin_to


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        raise SystemExit("serve.py: expected '--' before the ats arguments")
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cpu", type=int, default=-1)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv[:split])
    pin_to(args.cpu)
    sys.path.insert(0, str(SRC))

    from repro.cli import main as ats_main

    rec = None
    if args.trace_out:
        from layers import Recorder, install
        from repro import obs

        obs.set_spans_enabled(True)
        rec = Recorder(spans=True)
        install(rec)
    code = ats_main(argv[split + 1:])
    if rec is not None:
        from layers import own_spans
        from repro.obs import span_log, write_chrome_trace

        prefix = args.trace_out
        Path(prefix + ".layers.json").write_text(
            json.dumps(
                {"recorder": rec.to_dict(), "spans": own_spans(span_log())}
            )
            + "\n"
        )
        write_chrome_trace(
            prefix + ".chrome.json", host_spans=span_log(),
            metadata={"benchmark": "perfbench", "workload": "service"},
        )
    return code


if __name__ == "__main__":
    raise SystemExit(main())
