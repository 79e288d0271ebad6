"""The ``serve_mix`` server process.

    python3 crpbench/server.py --seed 1 --trace 0

Reads one JSON command per line on stdin and answers with one JSON line
on stdout:

* ``{"cmd": "build", "traced": bool}`` — close the previous service,
  build a fresh ``ShardedCRPService`` with the candidate warm-up (timed,
  after a full collection: ``setup_s``), start a ``CRPServer`` and bind
  its line protocol on a loopback port.  With ``traced``, layer spans
  are recorded until ``report``.  The reply carries the port and
  ``setup_s``.
* ``{"cmd": "collect"}`` — a full garbage collection, so every timed
  burst starts from a collected heap, as the probe workloads' cells do.
* ``{"cmd": "report"}`` — end the traced unit and reply with its
  per-layer totals.
* ``{"cmd": "stop"}`` — close, reply with the peak RSS (and the span
  dump's path when tracing), and exit.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import sys
import time
from collections import defaultdict, deque
from time import perf_counter

from common import OUT_DIR, import_repro, peak_rss_mb, percentile


def reply(**fields) -> None:
    sys.stdout.write(json.dumps(fields) + "\n")
    sys.stdout.flush()


def install_serve_spans(tracer, waits: list, depth: list) -> None:
    """Spans around the serving layers, plus queue waits and depth.

    Each shard queue is FIFO, so the n-th request a shard handles is the
    n-th one enqueued for it: pairing enqueue and handle timestamps per
    shard gives every request's queue wait.
    """
    from repro.core import service as core_service
    from repro.core.service import CRPService
    from repro.core.tracker import RedirectionTracker
    from repro.serve.frontend import CRPServer
    from repro.serve.shard import ShardWorker
    from repro.serve.sharding import shard_of

    pending = defaultdict(deque)
    enqueue = CRPServer.enqueue

    async def timed_enqueue(server, op):
        shards = len(server.service.shards)
        if op.verb == "OBSERVE" and op.subject in server.service.candidates:
            targets = range(shards)
        else:
            targets = (shard_of(op.subject, shards),)
        now = perf_counter()
        for index in targets:
            pending[index].append(now)
            depth[0] = max(depth[0], len(pending[index]))
        return await enqueue(server, op)

    def handled(method: str):
        traced = tracer.wrap("serve.handle", getattr(ShardWorker, method), sample=True)

        def wrapper(shard, *args, **kwargs):
            waits.append(perf_counter() - pending[shard.index].popleft())
            return traced(shard, *args, **kwargs)

        return wrapper

    tracer.install([
        (CRPService, "ratio_map", "core.ratio_map"),
        (core_service, "rank_packed", "core.rank"),
        (RedirectionTracker, "observe", "core.tracker.observe"),
    ])
    tracer.install_one(CRPServer, "submit",
                       tracer.wrap_async("serve.submit", CRPServer.submit))
    tracer.install_one(CRPServer, "enqueue", timed_enqueue)
    for method in ("position", "observe", "observe_candidate"):
        tracer.install_one(ShardWorker, method, handled(method))


def close_busy(tracer, busy: list) -> None:
    """Bank the current burst's busy interval (first to last top-level span)."""
    if tracer.busy_from is not None:
        busy[0] += tracer.busy_to - tracer.busy_from
        tracer.busy_from = None


def unit_report(tracer, waits: list, depth: list, busy: list) -> dict:
    from layers import SPANS

    report = tracer.unit_totals(SPANS)
    handle_us = [d * 1e6 for d in tracer.samples.get("serve.handle", [])]
    wait_us = [w * 1e6 for w in waits]
    if handle_us:
        report["serve.handle_us_p50"] = percentile(handle_us, 50)
        report["serve.handle_us_p99"] = percentile(handle_us, 99)
    if wait_us:
        report["serve.queue_wait_us_p50"] = percentile(wait_us, 50)
        report["serve.queue_wait_us_p99"] = percentile(wait_us, 99)
    report["serve.queue_depth_max"] = float(depth[0])
    close_busy(tracer, busy)
    if busy[0] > 0:
        report["trace.uncovered_share"] = 1.0 - tracer.covered_s / busy[0]
    return report


async def serve(seed: int, trace: bool) -> None:
    from repro.serve.frontend import CRPServer, ShardedCRPService
    from serving import script_params, serve_params, split_script

    script = script_params(seed)
    params = serve_params(script)
    warmup, _ = split_script(script)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    loop = asyncio.get_running_loop()
    crp = listener = None
    traced_unit = False
    waits: list = []
    depth = [0]
    busy = [0.0]
    reply(ready=True)
    while True:
        line = await loop.run_in_executor(None, sys.stdin.readline)
        command = json.loads(line) if line.strip() else {"cmd": "stop"}
        if command["cmd"] == "collect":
            if traced_unit:
                close_busy(tracer, busy)
            gc.collect()
            reply()
            continue
        if command["cmd"] == "report":
            layers = unit_report(tracer, waits, depth, busy)
            tracer.uninstall()
            traced_unit = False
            reply(layers=layers)
            continue
        if listener is not None:
            listener.close()
            await listener.wait_closed()
            await crp.stop()
            crp = listener = None
        if command["cmd"] == "stop":
            fields = {"peak_rss_mb": peak_rss_mb()}
            if tracer is not None and tracer.span_start:
                path = OUT_DIR / f"spans-serve_mix-server-s{seed}.npz"
                tracer.dump(path, {"workload": "serve_mix", "seed": seed})
                fields["spans"] = str(path.relative_to(OUT_DIR.parent))
            reply(**fields)
            return
        gc.collect()
        started = time.perf_counter()
        service = ShardedCRPService(params)
        for op in warmup:
            service.apply(op)
        crp = CRPServer(service)
        setup_s = time.perf_counter() - started
        await crp.start()
        listener = await crp.serve_tcp("127.0.0.1", 0)
        if command.get("traced"):
            waits.clear()
            depth[0] = 0
            busy[0] = 0.0
            tracer.begin_unit()
            install_serve_spans(tracer, waits, depth)
            traced_unit = True
        reply(port=listener.sockets[0].getsockname()[1], setup_s=setup_s)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    import_repro()
    asyncio.run(serve(args.seed, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
