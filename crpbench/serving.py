"""The serving workload: ``serve_mix``.

One generator process (this one) and one server process
(``server.py``: ``CRPServer`` over ``ShardedCRPService``, 4 shards)
talk over one loopback TCP connection.  The request script is the
Zipf POSITION/OBSERVE stream of ``repro.serve.loadgen`` over 10,000
clients and the paper's 240 candidates, so ``core`` ranking is a
visible share of each request; no ``netsim``, ``cdn`` or ``dnssim``
code runs.

A unit rebuilds the server's state (timed inside the server, after its
imports: the shards plus the candidate warm-up; that is ``setup_s``),
then sends the script's first ``BURST`` requests back to back on a new
connection twice: ``cold_s`` is the wall until the freshly built
service has answered all of them, ``warm_s`` the wall for the same
requests again, against trackers and packed candidates that now exist.
Each burst keeps the server saturated, so both walls measure serving
capacity, not the generator's pacing.

Checks: no ``ERR`` line, one response per request, ``OK`` for every
OBSERVE, and the POSITION answers' fingerprint equal to
``replay_unsharded`` of the requests in the order the server received
them (one connection preserves send order).
"""

from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List

from common import CheckFailed, Run, sub_seed

CLIENTS = 10_000
CANDIDATES = 240
SHARDS = 4
TOP_K = 5
#: Requests per burst (about half of them POSITION).
BURST = 6000
#: Server replies must arrive within this many seconds.
REPLY_TIMEOUT_S = 60.0


def script_params(seed: int):
    from repro.serve.loadgen import LoadgenParams

    return LoadgenParams(
        clients=CLIENTS,
        candidates=CANDIDATES,
        seed=sub_seed(seed, "script"),
        horizon_s=3600.0,
        aggregate_rate_per_s=5.0,
        candidate_refresh_s=None,
        top_k=TOP_K,
    )


def serve_params(script):
    from repro.serve.shard import ServeParams

    return ServeParams(
        candidates=script.candidate_names(),
        shards=SHARDS,
        customer_name=script.customer_name,
        top_k=TOP_K,
    )


def split_script(script):
    """``(warm-up ops, the burst's client ops)``, all at sim time 0.

    Requests over TCP carry no timestamp, so the server applies every
    one at its time floor, 0; the reference replay does the same.
    """
    from repro.serve.loadgen import iter_ops

    warmup_count = script.candidates * script.warmup_observations
    warmup, burst = [], []
    for op in iter_ops(script):
        if len(warmup) < warmup_count:
            warmup.append(op)
        else:
            burst.append(op._replace(at=0.0))
            if len(burst) == BURST:
                break
    return warmup, burst


def request_line(op) -> str:
    if op.verb == "POSITION":
        return f"POSITION {op.subject} {op.k}"
    return f"OBSERVE {op.subject} {op.name} {','.join(op.addresses)}"


class ServerProcess:
    """The server child: JSON commands on stdin, JSON replies on stdout."""

    def __init__(self, seed: int, trace: bool) -> None:
        here = Path(__file__).resolve().parent
        self.proc = subprocess.Popen(
            [sys.executable, str(here / "server.py"), "--seed", str(seed),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.reply()

    def command(self, **fields) -> Dict[str, object]:
        self.proc.stdin.write(json.dumps(fields) + "\n")
        self.proc.stdin.flush()
        return self.reply()

    def reply(self) -> Dict[str, object]:
        line = self.proc.stdout.readline()
        if not line:
            raise CheckFailed(f"server exited (code {self.proc.wait(timeout=10)})")
        return json.loads(line)

    def close(self) -> None:
        """End the child: EOF on stdin stops it; kill it if it hangs."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self.proc.stdout.close()


def burst(port: int, payload: bytes, nbytes: int) -> tuple:
    """Send ``payload`` on a new connection; ``(wall, response lines)``.

    ``nbytes`` is the length of the expected responses.  A sender thread
    writes while this thread reads into one preallocated buffer, so
    neither socket buffer can fill up and stall the other, and the
    generator leaves the CPU to the server.  A server that closes early
    or stalls ends the read with fewer bytes.
    """
    received = bytearray(nbytes)
    view = memoryview(received)
    got = 0
    with socket.create_connection(("127.0.0.1", port), timeout=REPLY_TIMEOUT_S) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sender = threading.Thread(target=sock.sendall, args=(payload,))
        started = time.perf_counter()
        sender.start()
        try:
            while got < nbytes:
                count = sock.recv_into(view[got:], nbytes - got)
                if not count:
                    break
                got += count
        except socket.timeout:
            pass
        wall = time.perf_counter() - started
        sender.join(timeout=REPLY_TIMEOUT_S)
        if sender.is_alive():
            raise CheckFailed("the request sender did not finish")
    return wall, bytes(received[:got]).decode().splitlines()


def check_burst(ops, responses: List[str], expected_fp: str) -> None:
    from repro.serve.loadgen import fingerprint_answers

    if len(responses) != len(ops):
        raise CheckFailed("a request went unanswered")
    answers = []
    for op, line in zip(ops, responses):
        if line.startswith("ERR"):
            raise CheckFailed(f"server error: {line}")
        if op.verb == "POSITION":
            if not line.startswith(f"POS {op.subject} "):
                raise CheckFailed(f"wrong answer to {op.subject}: {line[:80]}")
            answers.append(line)
        elif line != "OK":
            raise CheckFailed(f"OBSERVE answered {line[:80]}")
    if fingerprint_answers(answers) != expected_fp:
        raise CheckFailed("POSITION answers differ from the unsharded replay")


def serve_mix(seed: int, seconds: float, tracer=None) -> dict:
    from repro.serve.frontend import replay_unsharded
    from repro.serve.loadgen import fingerprint_answers

    script = script_params(seed)
    warmup, ops = split_script(script)
    reference = replay_unsharded(serve_params(script), warmup + ops + ops)
    positions = sum(op.verb == "POSITION" for op in ops)
    expected = (fingerprint_answers(reference[:positions]),
                fingerprint_answers(reference[positions:]))
    payload = "".join(request_line(op) + "\n" for op in ops).encode()
    answers = iter(reference)
    nbytes = [
        sum(len(next(answers) if op.verb == "POSITION" else "OK") + 1 for op in ops)
        for _ in range(2)
    ]

    run = Run(seconds, tracer is not None)
    server = ServerProcess(seed, trace=tracer is not None)

    def unit(traced: bool):
        built = server.command(cmd="build", traced=traced)
        cold_s, cold_lines = burst(built["port"], payload, nbytes[0])
        server.command(cmd="collect")
        warm_s, warm_lines = burst(built["port"], payload, nbytes[1])
        layer_row = server.command(cmd="report")["layers"] if traced else {}
        run.attempted += 2 * len(ops)
        check_burst(ops, cold_lines, expected[0])
        check_burst(ops, warm_lines, expected[1])
        return built["setup_s"], {"cold_s": cold_s, "warm_s": warm_s}, layer_row, cold_s + warm_s

    try:
        run.loop(unit)
        stopped = server.command(cmd="stop")
    finally:
        server.close()
    info = {"requests_per_burst": len(ops), "positions_per_burst": positions}
    if stopped.get("spans"):
        info["server_spans"] = stopped["spans"]
    result = run.finish(stopped["peak_rss_mb"], info)
    info["capacity_rps_cold"] = len(ops) / result["end_to_end"]["cold_s"]["value"]
    info["capacity_rps_warm"] = len(ops) / result["end_to_end"]["warm_s"]["value"]
    return result
