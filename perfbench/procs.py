"""Child processes of the benchmark: ``advm`` commands and the daemon.

Every process started here is waited for before its function returns
(``run_cli``) or by :meth:`Daemon.stop`, with a kill after a timeout,
so a wedged program fails the run instead of outliving the benchmark.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Seconds one ``advm`` command may take before it is killed.
CLI_TIMEOUT = 120.0
#: Seconds the daemon may take to print its ready line, and to drain.
DAEMON_TIMEOUT = 60.0


@dataclass
class Context:
    """Where the program lives and where this invocation may write."""

    root: Path
    work: Path
    python: str
    env: dict = field(default_factory=dict)

    @classmethod
    def create(cls, root: Path, work: Path, python: str) -> "Context":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        return cls(root=root, work=work, python=python, env=env)


@dataclass
class CliRun:
    argv: list
    wall_s: float
    rss_mb: float
    returncode: int
    output: str
    spans_path: Path | None = None


def _command(ctx: Context, script: str | None, argv: list) -> list:
    if script is None:
        return [ctx.python, "-m", "repro.cli", *map(str, argv)]
    return [ctx.python, str(HERE / script), *map(str, argv)]


def run_cli(
    ctx: Context,
    argv: list,
    spans_path: Path | None = None,
    script: str | None = None,
) -> CliRun:
    """Run one command as a fresh process; time it from spawn to exit.

    With *spans_path* the command runs under ``traced_cli.py`` and
    leaves its spans there.  *script* runs a benchmark script instead
    of ``repro.cli``."""
    env = dict(ctx.env)
    if spans_path is not None:
        script = "traced_cli.py"
        env["PERFBENCH_SPANS"] = str(spans_path)
    command = _command(ctx, script, argv)
    start = time.monotonic()
    env["PERFBENCH_SPAWNED"] = repr(start)
    proc = subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        cwd=ctx.root,
    )
    watchdog = threading.Timer(CLI_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        output = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliRun(
        argv=list(argv),
        wall_s=end - start,
        rss_mb=usage.ru_maxrss / 1024.0,
        returncode=proc.returncode,
        output=output.decode(errors="replace"),
        spans_path=spans_path,
    )


#: The host probe's spawn-to-exit time on the reference host: the 2-vCPU
#: VM the benchmark was tuned on, in a quiet stretch.  Timings scaled to
#: the reference host are multiplied by this over the probe time measured
#: around them.
REFERENCE_PROBE_S = 0.13


def probe_host(ctx: Context) -> float:
    """Run the host-speed probe once; its wall time in seconds."""
    return check_cli(run_cli(ctx, [], script="hostprobe.py")).wall_s


def check_cli(run: CliRun) -> CliRun:
    """Raise unless a set-up command succeeded."""
    if run.returncode != 0:
        raise RuntimeError(
            f"command {run.argv} exited {run.returncode}:\n"
            f"{run.output[-2000:]}"
        )
    return run


# -- the daemon -------------------------------------------------------------

_READY = re.compile(r"serving on http://([^:\s]+):(\d+)")


class Daemon:
    """``advm serve`` as a child process, plus a closed-loop client."""

    def __init__(self, ctx: Context, argv: list, spans_path: Path | None):
        env = dict(ctx.env)
        script = None
        if spans_path is not None:
            script = "traced_cli.py"
            env["PERFBENCH_SPANS"] = str(spans_path)
        self._log_path = ctx.work / "daemon-stderr.log"
        self._log = open(self._log_path, "ab")
        env["PERFBENCH_SPAWNED"] = repr(time.monotonic())
        self.proc = subprocess.Popen(
            _command(ctx, script, argv),
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            cwd=ctx.root,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.host, self.port = self._await_ready()

    def _read(self) -> None:
        for raw in self.proc.stdout:
            self._lines.put(raw.decode(errors="replace"))
        self._lines.put(None)

    def _await_ready(self) -> tuple[str, int]:
        deadline = time.monotonic() + DAEMON_TIMEOUT
        while True:
            remaining = deadline - time.monotonic()
            try:
                line = self._lines.get(timeout=max(0.01, remaining))
            except queue.Empty:
                line = None
            if line is not None:
                match = _READY.search(line)
                if match:
                    return match.group(1), int(match.group(2))
                continue
            self.stop()
            tail = self._log_path.read_text(errors="replace")[-2000:]
            raise RuntimeError(
                f"daemon exited or hung before it was ready:\n{tail}"
            )

    def submit(self, pack: dict) -> tuple[float, list[dict]]:
        """Submit one pack and read its stream to the end; returns the
        client-side latency and the events."""
        body = json.dumps(pack).encode()
        start = time.monotonic()
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=CLI_TIMEOUT
        )
        try:
            connection.request(
                "POST",
                "/submit",
                body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = response.read()
        finally:
            connection.close()
        latency = time.monotonic() - start
        if response.status != 200:
            error = {"event": "error", "error": f"HTTP {response.status}"}
            return latency, [error]
        events = [
            json.loads(line) for line in payload.splitlines() if line.strip()
        ]
        return latency, events

    def peak_rss_mb(self) -> float:
        """The daemon's resident-set high-water mark so far."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill if it will not end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=DAEMON_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=DAEMON_TIMEOUT)
        self.proc.stdout.close()
        self._log.close()
