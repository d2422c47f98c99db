"""A live ``python -m repro.server`` subprocess and a closed-loop client.

The client speaks HTTP/1.1 over raw loopback sockets, one request per
connection (the server always answers ``Connection: close``). A request
is timed from connect to the last response byte; decoding and checking
happen after the clock stops, so the client's own work stays out of the
latency.
"""

from __future__ import annotations

import json
import selectors
import socket
import subprocess
import sys
import time
from dataclasses import dataclass
from urllib.parse import quote

# Far above every workload's latency: the shedder and the SLO burn
# escalation must never degrade an answer, or answers become uncheckable.
# Overload behaviour is measured elsewhere (the S1 serving benchmark).
SERVER_FLAGS = ("--shed-budget-ms", "60000", "--slo-objective", "0.01")
START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 20.0
REQUEST_TIMEOUT_S = 30.0
WAIT_POLL_S = 0.01  # how often a waiting start() wakes
ACCEPT = "application/sparql-results+json"


def request_bytes(host: str, port: int, text: str) -> bytes:
    """The exact bytes a client sends for one SPARQL GET."""
    target = "/sparql?query=" + quote(text, safe="")
    return (
        f"GET {target} HTTP/1.1\r\nHost: {host}:{port}\r\n"
        f"Accept: {ACCEPT}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1")


def exchange(host: str, port: int, payload: bytes) -> bytes:
    """Send one request and read until its response is complete.

    Completion follows the response's own framing, as any HTTP client
    does, not the server's close: the server closes the socket only once
    its worker lets go of the connection's file objects, which can be up
    to one admission poll (0.2 s) after the last byte was written.
    """
    with socket.create_connection((host, port),
                                  timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(payload)
        buffer = b""
        while not _complete(buffer):
            data = sock.recv(65536)
            if not data:
                break
            buffer += data
    return buffer


def _complete(buffer: bytes) -> bool:
    """Does ``buffer`` hold a whole response (Content-Length or chunked)?"""
    head_end = buffer.find(b"\r\n\r\n")
    if head_end < 0:
        return False
    head = buffer[:head_end].lower()
    position = head_end + 4
    if b"transfer-encoding: chunked" in head:
        while True:
            line_end = buffer.find(b"\r\n", position)
            if line_end < 0:
                return False
            size = int(buffer[position:line_end], 16)
            if size == 0:
                return buffer[line_end + 2:line_end + 4] == b"\r\n"
            position = line_end + 2 + size + 2
            if position > len(buffer):
                return False
    marker = b"content-length:"
    start = head.find(marker)
    if start < 0:
        return False  # no framing: the close ends the body
    end = head.find(b"\r\n", start)
    length = int(head[start + len(marker):end if end >= 0 else None])
    return len(buffer) - position >= length


@dataclass
class Response:
    status: int
    headers: dict[str, str]
    body: bytes


def parse_response(raw: bytes) -> Response:
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split(" ", 2)[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    if headers.get("transfer-encoding") == "chunked":
        body = _dechunk(body)
    return Response(status, headers, body)


def _dechunk(body: bytes) -> bytes:
    out, position = [], 0
    while True:
        end = body.index(b"\r\n", position)
        size = int(body[position:end], 16)
        if size == 0:
            return b"".join(out)
        out.append(body[end + 2:end + 2 + size])
        position = end + 2 + size + 2


class ServerProcess:
    """``python -m repro.server --data <file>`` on an ephemeral port.

    ``start()`` returns the seconds from spawn until ``/health`` answers.
    The server runs with ``src`` as its working directory, so it imports
    the ``repro`` of this checkout, and on the CPUs this process may use;
    ``stop()`` terminates it and waits.
    """

    def __init__(self, src_dir: str, data_path: str, log_path: str) -> None:
        self.src_dir = src_dir
        self.data_path = data_path
        self.log_path = log_path
        self.process: subprocess.Popen | None = None
        self.host = "127.0.0.1"
        self.port = 0

    def start(self, between=None) -> float:
        """Spawn the server; ``between()``, if given, runs every
        ``WAIT_POLL_S`` while it loads."""
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.server", "--port", "0",
                 "--data", self.data_path, *SERVER_FLAGS],
                cwd=self.src_dir, stdout=subprocess.PIPE, stderr=log,
                bufsize=0,  # unbuffered, so select() sees every line
            )
        url = self._read_url(started + START_TIMEOUT_S, between)
        self._read_line("endpoints:", started + START_TIMEOUT_S, between)
        host_port = url.split("//", 1)[1].rstrip("/")
        self.host, port = host_port.rsplit(":", 1)
        self.port = int(port)
        while True:
            try:
                if self.get("/health").status == 200:
                    return time.perf_counter() - started
            except ConnectionRefusedError:
                if time.perf_counter() - started > START_TIMEOUT_S:
                    raise
            time.sleep(0.005)

    def _read_url(self, deadline: float, between) -> str:
        """The base URL from the server's ``serving ... at <url>`` line."""
        line = self._read_line("serving ", deadline, between)
        return line.rsplit(" at ", 1)[1].strip()

    def _read_line(self, prefix: str, deadline: float, between) -> str:
        """The next stdout line starting with ``prefix``."""
        stdout = self.process.stdout
        with selectors.DefaultSelector() as selector:
            selector.register(stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not selector.select(timeout=WAIT_POLL_S):
                    if between is not None:
                        between()
                    continue
                line = stdout.readline().decode("utf-8", "replace")
                if not line:
                    break
                if line.startswith(prefix):
                    return line
        self.stop()
        raise RuntimeError(
            f"repro.server did not come up; see {self.log_path}"
        )

    def stop(self) -> None:
        process = self.process
        if process is None:
            return
        self.process = None
        if process.poll() is None:
            # SIGTERM, not SIGINT: a process started in the background
            # inherits SIGINT ignored, and the server would never see it.
            process.terminate()
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        process.stdout.close()

    def get(self, path: str) -> Response:
        payload = (
            f"GET {path} HTTP/1.1\r\nHost: {self.host}:{self.port}\r\n"
            "Connection: close\r\n\r\n"
        ).encode("latin-1")
        return parse_response(exchange(self.host, self.port, payload))

    def stats(self) -> dict:
        return json.loads(self.get("/stats").body)

    def rss_mb(self) -> float:
        return read_rss_mb(self.process.pid)


def read_rss_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS for process {pid}")


@dataclass
class Sample:
    """One request as the client saw it."""

    request: object
    payload: bytes
    start: float
    end: float
    raw: bytes | None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1e3


def run_session(server: ServerProcess, source, seconds: float | None,
                between=None) -> list[Sample]:
    """One closed-loop session: the next request goes out only after the
    previous answer arrived.

    ``source()`` returns the next request, or ``None`` when a finite
    stream is done. With ``seconds``, no request starts after the
    deadline. ``between()``, if given, runs before each request, off the
    clock of every request. Returns the samples in issue order.
    """
    samples: list[Sample] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    while deadline is None or time.perf_counter() < deadline:
        if between is not None:
            between()
        request = source()
        if request is None:
            break
        payload = request_bytes(server.host, server.port, request.text)
        start = time.perf_counter()
        try:
            raw, error = exchange(server.host, server.port, payload), None
        except OSError as exc:
            raw, error = None, f"{type(exc).__name__}: {exc}"
        samples.append(Sample(request, payload, start, time.perf_counter(),
                              raw, error))
    return samples
