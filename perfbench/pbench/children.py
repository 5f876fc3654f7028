"""Child processes: ``repro-sim`` verbs run the way a user runs them.

Every child gets a clean environment (no inherited ``REPRO_*``
settings), its own cache and artifact directories, and a log file in
the work directory.  Children are reaped with ``os.wait4`` so the run
learns each one's peak resident memory.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List

#: The checkout's source tree, which children import ``repro`` from.
SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


@dataclass
class ChildRun:
    wall_s: float
    returncode: int
    peak_rss_mb: float


def repro_cli(*args: str) -> List[str]:
    """``repro-sim ARGS``, without relying on an installed console script."""
    return [sys.executable, "-m", "repro.cli", *args]


def child_env(cache_dir: str, artifact_dir: str) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = cache_dir
    env["REPRO_ARTIFACT_DIR"] = artifact_dir
    return env


def _reap(proc: subprocess.Popen, start: float,
          timeout_s: float) -> ChildRun:
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        # Interrupted (Ctrl-C, or SIGTERM turned into SystemExit by the
        # entry point): the child must not outlive the run.
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return ChildRun(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def run_child(argv: List[str], env: Dict[str, str], log_path: str,
              timeout_s: float = 150.0) -> ChildRun:
    """Run one child to completion; wall time covers spawn to exit."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=subprocess.STDOUT)
        return _reap(proc, start, timeout_s)


_READY = re.compile(rb"listening on (http://\S+)")


class Daemon:
    """``repro-sim serve --validate --jobs 1`` on an ephemeral port."""

    def __init__(self, cache_dir: str, artifact_dir: str, log_path: str):
        self.log_path = log_path
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            repro_cli("serve", "--validate", "--jobs", "1", "--port", "0",
                      "--quiet"),
            env=child_env(cache_dir, artifact_dir),
            stdin=subprocess.DEVNULL, stdout=self._log,
            stderr=subprocess.STDOUT,
        )

    def wait_url(self, timeout_s: float = 60.0) -> str:
        """The URL from the daemon's ready line."""
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            with open(self.log_path, "rb") as handle:
                found = _READY.search(handle.read())
            if found:
                return found.group(1).decode()
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode};"
                    f" see {self.log_path}"
                )
            time.sleep(0.005)
        raise RuntimeError(f"daemon not ready after {timeout_s}s")

    def stop(self) -> ChildRun:
        """Interrupt the daemon (its clean shutdown path) and reap it."""
        start = time.perf_counter()
        if self.proc.returncode is None:
            # os.kill, not Popen.send_signal: the latter polls first and
            # would reap an exited daemon before wait4 can read its usage.
            os.kill(self.proc.pid, signal.SIGINT)
            run = _reap(self.proc, start, 30.0)
        else:
            run = ChildRun(0.0, self.proc.returncode, 0.0)
        self._log.close()
        return run
