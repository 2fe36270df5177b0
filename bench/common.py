"""Shared plumbing: locating the program, statistics and the daemon child."""

from __future__ import annotations

import json
import os
import resource
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / "bench" / "_runs"


def import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse to run without it."""
    if not (SRC / "arlearn" / "__init__.py").is_file():
        raise SystemExit(f"no arlearn sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import arlearn

    if Path(arlearn.__file__).resolve().parent != SRC / "arlearn":
        raise SystemExit(f"imported arlearn from {arlearn.__file__}, not from {SRC}")


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def ms(ns: float) -> float:
    return ns / 1e6


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- the daemon in a child process ------------------------------------------


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


class Daemon:
    """``arlearn serve`` on a Unix socket; always stopped and reaped by ``stop``."""

    def __init__(self, store_root: Path, sock_path: Path):
        self.store_root = store_root
        self.sock_path = sock_path
        # a Unix socket path holds at most 107 bytes; deep checkouts need the relative form
        self.address = min(str(sock_path), os.path.relpath(sock_path), key=len)
        self.proc: Optional[subprocess.Popen] = None
        self.peak_rss_mb: Optional[float] = None

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the daemon and return seconds until its first ``ping`` is answered."""
        if self.sock_path.exists():
            self.sock_path.unlink()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "arlearn.cli", "serve", "--store", str(self.store_root),
             "--listen", self.address],
            env=program_env(), stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        while True:
            try:
                conn = Connection(self.address)
                break
            except (FileNotFoundError, ConnectionRefusedError):
                if self.proc.poll() is not None:
                    raise RuntimeError(f"daemon exited with {self.proc.returncode} before listening")
                if time.perf_counter() - t0 > timeout:
                    raise RuntimeError("daemon did not listen in time")
                time.sleep(0.0005)
        try:
            response = conn.call({"request": "ping", "id": 0})
        finally:
            conn.close()
        elapsed = time.perf_counter() - t0
        if response.get("result") != "pong":
            raise RuntimeError(f"bad ping answer {response!r}")
        return elapsed

    def stop(self) -> None:
        """SIGTERM, reap, and keep the child's peak resident memory."""
        proc, self.proc = self.proc, None
        if proc is None or proc.returncode is not None:
            return
        proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 20
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = usage.ru_maxrss / 1024
                return
            if time.monotonic() > deadline:
                proc.kill()
                deadline = time.monotonic() + 20
            time.sleep(0.005)


class Connection:
    """One client socket speaking the line protocol, one request at a time."""

    def __init__(self, address: str):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            self.sock.connect(address)
        except OSError:
            self.sock.close()
            raise
        self.reader = self.sock.makefile("rb")

    def call(self, request: dict) -> dict:
        return self.timed_call(request)[0]

    def timed_call(self, request: dict) -> tuple[dict, int]:
        data = json.dumps(request).encode("utf-8") + b"\n"
        t0 = time.perf_counter_ns()
        self.sock.sendall(data)
        line = self.reader.readline()
        t1 = time.perf_counter_ns()
        if not line:
            raise ConnectionError("daemon closed the connection")
        return json.loads(line), t1 - t0

    def close(self) -> None:
        self.reader.close()
        self.sock.close()
