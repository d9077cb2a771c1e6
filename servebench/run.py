#!/usr/bin/env python3
"""Socket-level PIR serving benchmark.

Usage (from the repository root):

    python3 servebench/run.py --workload NAME --seed N --seconds T --trace 0|1

Builds servebench/ (a standalone CMake project over ../src) into
$CARGO_TARGET_DIR/servebench (default .bench_build/servebench), then:

  1. `servebench probe`: host fingerprint (cores, the SIMD backend the
     dispatcher picked, streaming-read GB/s at 1 and nproc threads);
  2. `servebench serve`: the serving process. It sets up the workload's
     database and a default-configured PirTcpServer several times
     (setup_s is the median) and keeps the last one serving;
  3. `servebench load`: the load generator, a separate process, so the
     serving side's peak RSS excludes the generator's keys and queries.

The generator reports when its measured window opens and closes; this
script marks the server's counters at those points, stops the server,
and only then lets the generator finish (decode checks, and in the
traced run the in-process replay, which needs the memory back).

--trace 0 prints every end-to-end metric, --trace 1 every per-layer
metric (spans go to $CARGO_TARGET_DIR/servebench/traces/). The last
stdout line is {"correct", "attempted", "failed", "metrics"}; the lines
before it carry the host fingerprint and the raw counts.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("solo_bigdb", "shared_bigdb", "swarm_smalldb")
# A run must end within 180 s; leave room to tear down.
RUN_BUDGET_S = 170.0
# Open loop: the generator is late when its p99 send lag exceeds this.
MAX_LAG_P99_MS = 10.0


class BenchError(Exception):
    pass


def log(msg: str) -> None:
    print(f"[servebench] {msg}", file=sys.stderr, flush=True)


def build_dir() -> str:
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(base), "servebench")


def build(out: str) -> str:
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "servebench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "servebench")


class Child:
    """A subprocess whose stdout lines arrive through a queue."""

    def __init__(self, argv: list[str]):
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE,
                                     stderr=sys.stderr, text=True)
        self.lines: queue.Queue = queue.Queue()
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, deadline: float) -> str:
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"timed out waiting for '{prefix}'")
            try:
                line = self.lines.get(timeout=left)
            except queue.Empty:
                continue
            if line is None:
                raise BenchError(f"process exited before '{prefix}'")
            if line.startswith(prefix):
                return line[len(prefix):].strip()

    def send(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def finish(self, deadline: float) -> None:
        try:
            rc = self.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError("process did not exit in time")
        if rc != 0:
            raise BenchError(f"process exited with code {rc}")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def jeffreys(failed: float, attempted: float) -> float:
    """Posterior-mean failure probability under the Jeffreys prior:
    never 0, and equal to failed/attempted as attempts grow."""
    return (failed + 0.5) / (attempted + 1.0)


def end_to_end(ready: dict, stats: dict, res: dict) -> dict:
    return {
        "setup_s": (statistics.median(ready["setup_s"]), "s"),
        "qps": (res["qps"], "1/s"),
        "latency_p50_ms": (res["latency_p50_ms"], "ms"),
        "latency_tail_ms": (res["latency_tail_ms"], "ms"),
        "register_p50_ms": (res["register_p50_ms"], "ms"),
        "fail_ratio": (jeffreys(res["failed_ops"], res["ops"]), "ratio"),
        "peak_rss_mib": (stats["peak_rss_mib"], "MiB"),
        "wire_kib_per_query": (res["wire_kib_per_query"], "KiB"),
    }


def per_layer(host: dict, ready: dict, stats: dict, res: dict) -> dict:
    L = res["layers"]
    done = max(1.0, res["attempted"] - res["failed"])
    m = {
        "db.fill_s": (ready["fill_s"], "s"),
        "db.resident_mib": (ready["resident_mib"], "MiB"),
        "net.overhead_ms": (L["socket.query_p50_ms"] - L["session.answer_ms"],
                            "ms"),
        "net.bytes_per_query": ((stats["bytes_in"] + stats["bytes_out"])
                                / done, "B"),
        "net.error_frames_per_op": (stats["error_frames"]
                                    / max(1.0, stats["frames_in"]), "ratio"),
        "registry.register_ms": (L["registry.register_ms"], "ms"),
        "registry.reregister_ratio": (res["reregistrations"]
                                      / max(1.0, res["attempted"]), "ratio"),
        "dispatch.queue_wait_p50_ms": (stats["queue_wait_p50_ms"], "ms"),
        "dispatch.queue_wait_tail_ms": (stats["queue_wait_tail_ms"], "ms"),
        "dispatch.batch_size_mean": (stats["batch_size_mean"], "count"),
        "dispatch.shed_ratio": (stats["shed"] / max(1.0, stats["submitted"]
                                                    + stats["shed"]), "ratio"),
        "pool.busy_frac": (stats["pool_busy_frac"], "ratio"),
        "stage.rowsel_roof_frac": (L["stage.rowsel_gbps"]
                                   / host["read_gbps_nproc"], "ratio"),
        "gen.lag_ms": (res["gen_lag_ms"], "ms"),
    }
    units = {
        "registry.rss_per_client_mib": "MiB",
        "session.answer_ms": "ms", "wire.query_decode_ms": "ms",
        "wire.response_encode_ms": "ms", "stage.expand_ms": "ms",
        "stage.selectors_ms": "ms", "stage.expand_select_ms": "ms",
        "stage.rowsel_ms": "ms", "stage.fold_ms": "ms",
        "stage.rowsel_gbps": "GB/s", "stage.rowsel_bytes_per_query": "B",
        "server.subs_ops": "count", "server.external_products": "count",
        "server.plain_mul_accs": "count",
        "bfv.subs_ms": "ms", "bfv.subs_calls": "count", "bfv.subs_bytes": "B",
        "bfv.external_product_ms": "ms",
        "bfv.external_product_calls": "count",
        "bfv.external_product_bytes": "B",
        "kernel.ntt_fwd_us": "us", "kernel.ntt_fwd_calls": "count",
        "kernel.ntt_fwd_butterflies": "count", "kernel.ntt_fwd_bytes": "B",
        "kernel.ntt_inv_us": "us", "kernel.ntt_inv_calls": "count",
        "kernel.ntt_inv_butterflies": "count", "kernel.ntt_inv_bytes": "B",
        "kernel.automorphism_us": "us", "kernel.automorphism_calls": "count",
        "kernel.automorphism_bytes": "B",
        "kernel.mac_gmacs": "GMAC/s", "kernel.mac_calls": "count",
        "kernel.mac_bytes": "B",
        "client.decode_ms": "ms",
        "trace.latency_p50_ms": "ms", "trace.overhead_ms": "ms",
    }
    for name, unit in units.items():
        m[name] = (L[name], unit)
    return m


def run(args: argparse.Namespace) -> int:
    out = build_dir()
    binary = build(out)
    # The build is not part of the run's budget (the first run builds).
    deadline = time.monotonic() + RUN_BUDGET_S

    host = json.loads(subprocess.run([binary, "probe"], check=True,
                                     capture_output=True, text=True,
                                     timeout=60).stdout)
    print("host " + json.dumps(host), flush=True)

    trace_dir = os.path.join(out, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_out = os.path.join(trace_dir,
                             f"{args.workload}-seed{args.seed}.json")
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    children: list[Child] = []
    try:
        server = Child([binary, "serve", *common])
        children.append(server)
        ready = json.loads(server.expect("ready", deadline))
        load = Child([binary, "load", *common,
                      "--seconds", str(args.seconds),
                      "--port", str(int(ready["port"])),
                      "--trace", str(args.trace),
                      "--trace-out", trace_out])
        children.append(load)
        load.expect("phase measure", deadline)
        server.send("mark")
        load.expect("phase done", deadline)
        server.send("stop")
        stats = json.loads(server.expect("stats", deadline))
        server.finish(deadline)
        load.send("go")
        res = json.loads(load.expect("result", deadline))
        load.finish(deadline)
    finally:
        for c in children:
            c.kill()

    lag_ok = (args.workload != "swarm_smalldb"
              or res["gen_lag_ms"] <= MAX_LAG_P99_MS)
    detail = {
        "workload": args.workload, "seed": args.seed,
        "setup_s": ready["setup_s"], "server": stats, "generator": {
            k: v for k, v in res.items() if k != "layers"},
        "lag_ok": lag_ok,
    }
    print("detail " + json.dumps(detail), flush=True)
    if res["tail_beyond"] < 10:
        log(f"only {res['tail_beyond']:.0f} samples beyond "
            f"p{100 * res['tail_q']:.0f}")
    if not lag_ok:
        log(f"generator fell behind its schedule: p99 lag "
            f"{res['gen_lag_ms']:.2f} ms > {MAX_LAG_P99_MS} ms")

    metrics = (per_layer(host, ready, stats, res) if args.trace
               else end_to_end(ready, stats, res))
    correct = (res["bad_responses"] == 0 and res["replay_ok"] == 1
               and res["connection_lost"] == 0 and lag_ok)
    result = {
        "correct": bool(correct),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    # On SIGTERM, unwind through run()'s cleanup so no child outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        return run(args)
    except (BenchError, subprocess.SubprocessError, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
