"""Child processes the benchmark starts, and their shutdown."""

from __future__ import annotations

import json
import os
import queue
import re
import subprocess
import sys
import threading
import time
from typing import List, Optional

from common import HERE, ROOT, SRC


class ChildFailed(RuntimeError):
    """A child exited, or stayed silent past the deadline."""


def child_env(workdir) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    # scratch files of the program stay inside the checkout
    env["TMPDIR"] = str(workdir)
    # untraced runs keep repro.obs off whatever the caller's env says
    env.pop("ATS_METRICS", None)
    return env


class Child:
    """A subprocess whose stdout lines a background thread collects."""

    def __init__(self, args: List[str], workdir, stdin: bool = True):
        self.args = args
        self.proc = subprocess.Popen(
            [sys.executable] + args,
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=child_env(workdir),
        )
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def line(self, deadline: float) -> str:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed(f"{self.args[0]}: no output before deadline")
        try:
            line = self._lines.get(timeout=remaining)
        except queue.Empty:
            raise ChildFailed(
                f"{self.args[0]}: no output before deadline"
            ) from None
        if line is None:
            self._lines.put(None)
            raise ChildFailed(
                f"{self.args[0]}: exited with {self.proc.wait()}"
            )
        return line

    def message(self, key: str, deadline: float) -> dict:
        """The next JSON line that carries ``key``."""
        while True:
            line = self.line(deadline)
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if isinstance(obj, dict) and key in obj:
                return obj

    def match(self, pattern: str, deadline: float) -> re.Match:
        """The first stdout line matching ``pattern``."""
        regex = re.compile(pattern)
        while True:
            m = regex.search(self.line(deadline))
            if m:
                return m

    def tell(self, text: str) -> None:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()

    def stop(self, grace: float = 20.0) -> int:
        """SIGTERM, then SIGKILL after ``grace`` seconds; always reaped."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(grace)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        code = self.proc.wait()
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        self._reader.join(grace)
        self.proc.stdout.close()
        return code

    def finish(self, deadline: float) -> int:
        """Wait for a voluntary exit until ``deadline``, then stop."""
        try:
            self.proc.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        return self.stop()


def worker_args(*extra: str) -> List[str]:
    return [str(HERE / "worker.py"), *extra]
