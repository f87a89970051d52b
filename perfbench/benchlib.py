"""Statistics, process control and small socket helpers for perfbench/run.py.

Kept apart from the workload logic so the self-tests can exercise the
rules the benchmark reports by: the percentile rule, metric naming,
failure counting and ladder judging.
"""

import json
import math
import os
import re
import signal
import socket
import subprocess
import time

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Outcomes written by the harness's load generator (harness/loadgen.h).
OK = "ok"

# A request with no reply is charged this latency, so a percentile over the
# attempted requests never drops failures.
FAILED_LATENCY_MS = 5000.0


class InsufficientSamples(ValueError):
    """A percentile was asked of too few samples to stand on."""


def percentile(values, q, min_beyond=10):
    """Nearest-rank percentile that insists on `min_beyond` samples above it.

    p99 of 1000 samples has exactly 10 samples beyond it; p99 of 999 has 9
    and is refused. With min_beyond=0 any non-empty input is accepted.
    """
    if not values:
        raise InsufficientSamples("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q * 100:g} of {len(ordered)} samples has {beyond} beyond it, "
            f"needs {min_beyond}")
    return ordered[rank - 1]


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def check_metric_names(metrics):
    bad = [name for name in metrics if not METRIC_NAME.match(name)]
    if bad:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]+: {bad}")


class Sample:
    __slots__ = ("id", "op", "outcome", "code", "due_ms", "latency_ms", "lateness_ms",
                 "server_ms", "cached", "phases")

    @property
    def failed(self):
        return self.outcome != OK

    def charged_ms(self):
        return FAILED_LATENCY_MS if self.failed or self.latency_ms < 0 else self.latency_ms


def parse_samples(text):
    """Parses the harness's sample file (one request per line)."""
    samples = []
    for line in text.splitlines():
        parts = line.split(" ")
        if len(parts) != 10:
            raise ValueError(f"bad sample line: {line!r}")
        s = Sample()
        s.id = int(parts[0])
        s.op = parts[1]
        s.outcome = parts[2]
        s.code = parts[3]
        s.due_ms = float(parts[4])
        s.latency_ms = float(parts[5])
        s.lateness_ms = float(parts[6])
        s.server_ms = float(parts[7])
        s.cached = parts[8] == "1"
        s.phases = {}
        if parts[9] != "-":
            for item in parts[9].split(","):
                name, value = item.rsplit("=", 1)
                s.phases[name] = float(value)
        samples.append(s)
    samples.sort(key=lambda s: s.due_ms)
    return samples


def count_failed(samples):
    """Every outcome but `ok` is a failure: error replies (overloaded,
    unavailable, bad_request, ...), partial fleet answers, timeouts and
    transport failures, including refused connections."""
    return sum(1 for s in samples if s.failed)


def latency_summary(samples, min_beyond=10):
    latencies = [s.charged_ms() for s in samples]
    return {
        "count": len(latencies),
        "p50_ms": percentile(latencies, 0.50, 0),
        "p99_ms": percentile(latencies, 0.99, min_beyond),
    }


def windowed_summary(segments, window_min=1000, max_windows=9):
    """p50 and p99 of a stream, given as one or more segments (one per
    server instance), as the median over windows: each segment is cut into
    consecutive windows (in due order) of at least `window_min` samples
    each, at most `max_windows` of them. A host hiccup then spoils one
    window instead of the run's tail; every window's p99 still has at least
    10 samples beyond it."""
    p50s, p99s = [], []
    for samples in segments:
        if len(samples) < window_min:
            raise InsufficientSamples(f"{len(samples)} samples, a window needs {window_min}")
        k = max(1, min(max_windows, len(samples) // window_min))
        size = len(samples) // k
        for i in range(k):
            window = samples[i * size:(i + 1) * size if i + 1 < k else len(samples)]
            latencies = [s.charged_ms() for s in window]
            p50s.append(percentile(latencies, 0.50, 0))
            p99s.append(percentile(latencies, 0.99))
    return {"count": sum(len(s) for s in segments), "windows": len(p50s),
            "p50_ms": median(p50s), "p99_ms": median(p99s),
            "window_p50s": p50s, "window_p99s": p99s}


def ladder_passes(samples, p99_limit_ms):
    """One ladder rung passes when nothing failed, p99 meets the limit, and
    the backlog did not grow: the last quarter's median is no worse than
    twice the first quarter's (or a quarter of the limit, if larger)."""
    if count_failed(samples) > 0:
        return False
    try:
        p99 = percentile([s.charged_ms() for s in samples], 0.99)
    except InsufficientSamples:
        return False
    if p99 > p99_limit_ms:
        return False
    quarter = max(1, len(samples) // 4)
    head = median([s.charged_ms() for s in samples[:quarter]])
    tail = median([s.charged_ms() for s in samples[-quarter:]])
    return tail <= max(2.0 * head, p99_limit_ms / 4.0)


def highest_passing(ladder, passes):
    """Bisects a rising ladder for its highest passing rung (pass/fail is
    assumed monotone). Returns (index or -1, probed rungs)."""
    lo, hi = -1, len(ladder)
    probed = []
    while hi - lo > 1:
        mid = (lo + hi) // 2
        ok = passes(ladder[mid])
        probed.append((ladder[mid], ok))
        if ok:
            lo = mid
        else:
            hi = mid
    return lo, probed


def geometric_ladder(low, high, ratio):
    rungs = []
    rate = float(low)
    while rate <= high * 1.0001:
        rungs.append(round(rate))
        rate *= ratio
    return rungs


def vm_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def query(port, request, timeout_s=30.0):
    """One closed-loop request to a flatnet server or router."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout_s) as conn:
        conn.sendall((json.dumps(request) + "\n").encode())
        buf = b""
        while b"\n" not in buf:
            chunk = conn.recv(65536)
            if not chunk:
                raise RuntimeError(f"port {port} closed the connection")
            buf += chunk
    reply = json.loads(buf.split(b"\n", 1)[0])
    if not reply.get("ok"):
        raise RuntimeError(f"port {port} answered {request['op']} with {reply.get('error')}")
    return reply["result"]


def counters(port):
    """The counters section of a process's `metrics` op."""
    return query(port, {"op": "metrics", "id": 0})["metrics"].get("counters", {})


class Processes:
    """Every child process of one benchmark run; stop_all() ends them all,
    on every exit path."""

    def __init__(self, log_dir):
        self.log_dir = log_dir
        self.procs = []

    def start(self, name, argv):
        log = open(os.path.join(self.log_dir, name + ".log"), "wb")
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)
        log.close()
        self.procs.append(proc)
        return proc

    def wait_port(self, proc, port_file, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise RuntimeError(f"{proc.args[0]} exited with {proc.returncode} at start")
            try:
                with open(port_file) as f:
                    text = f.read().strip()
                if text:
                    return int(text)
            except FileNotFoundError:
                pass
            time.sleep(0.005)
        raise RuntimeError(f"{proc.args[0]} published no port within {timeout_s}s")

    def stop(self, proc, timeout_s=10.0):
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=timeout_s)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.procs:
            self.procs.remove(proc)

    def stop_all(self):
        for proc in list(self.procs):
            self.stop(proc)


class Spans:
    """run.py's own spans (set-up steps, server starts, load phases),
    kept in memory and written with the harness's when the run ends."""

    def __init__(self):
        self.epoch = time.monotonic_ns()
        self.spans = []

    def begin(self, name, parent=-1):
        self.spans.append({"name": name, "start_ns": time.monotonic_ns() - self.epoch,
                           "end_ns": -1, "parent": parent, "request_id": -1})
        return len(self.spans) - 1

    def end(self, index):
        self.spans[index]["end_ns"] = time.monotonic_ns() - self.epoch
        span = self.spans[index]
        return (span["end_ns"] - span["start_ns"]) / 1e9

    def write(self, path):
        with open(path, "a") as f:
            for span in self.spans:
                f.write(json.dumps(span, sort_keys=True) + "\n")
