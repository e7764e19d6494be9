#!/usr/bin/env python
"""Serve a model to concurrent clients with dynamic cross-request batching.

Spins up an in-process :class:`repro.serving.ModelServer` (N worker threads,
each with an inference-engine replica sharing one latent-tile cache), exposes
it over the stdlib HTTP gateway (arrays framed as raw bytes, JSON for a plain
``curl``), fires a fleet of concurrent clients
issuing small point queries plus an occasional super-resolution grid, and
prints the server's telemetry table: throughput, batch coalescing factor,
cache hit rate and rolling p50/p95/p99 latencies.

For comparison, the same request stream is first replayed serially through a
bare ``InferenceEngine`` — the coalescing scheduler typically serves it
several times faster, with every value bit-identical.

Run with ``python examples/serving_demo.py`` (add ``--clients 4 --requests 4``
for a quick smoke run).
"""

from __future__ import annotations

import argparse
import json
import threading
import time
from http.client import HTTPConnection

import numpy as np

from repro.core import MeshfreeFlowNet, MeshfreeFlowNetConfig
from repro.inference import InferenceEngine
from repro.serving import (
    BatchPolicy,
    Client,
    ModelServer,
    QueryRequest,
    format_stats_table,
    start_http_server,
    stop_http_server,
)
from repro.simulation import synthetic_convection


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=8,
                        help="number of concurrent client threads")
    parser.add_argument("--requests", type=int, default=12,
                        help="point-query requests per client")
    parser.add_argument("--points", type=int, default=24,
                        help="query points per request")
    parser.add_argument("--workers", type=int, default=2,
                        help="server worker threads (engine replicas)")
    args = parser.parse_args()

    print("=== Serving demo: dynamic cross-request batching ===")
    model = MeshfreeFlowNet(MeshfreeFlowNetConfig.tiny()).eval()
    sim = synthetic_convection(nt=4, nz=16, nx=16, seed=0)
    domain = np.moveaxis(sim.fields, 1, 0)[None]  # (1, C, nt, nz, nx)

    rng = np.random.default_rng(42)
    n_requests = args.clients * args.requests
    coords = [rng.random((args.points, 3)) for _ in range(n_requests)]

    # ---- serial baseline -------------------------------------------------
    engine = InferenceEngine(model)
    engine.query_points(domain, coords[0])  # warm the latent cache
    t0 = time.perf_counter()
    serial = [engine.query_points(domain, c) for c in coords]
    serial_seconds = time.perf_counter() - t0
    print(f"serial baseline : {n_requests} requests in {serial_seconds * 1e3:7.1f} ms "
          f"({n_requests / serial_seconds:7.1f} req/s)")

    # ---- served: concurrent clients through the micro-batching scheduler -
    server = ModelServer(model, n_workers=args.workers, policy=BatchPolicy(max_requests=64))
    server.register_domain("rb", domain)
    server.query(QueryRequest("rb", coords=coords[0]))  # warm-up

    results: list = [None] * n_requests

    def client_thread(cid: int) -> None:
        futures = [(i, server.submit(QueryRequest("rb", coords=coords[i])))
                   for i in range(cid, n_requests, args.clients)]
        for i, future in futures:
            results[i] = future.result(timeout=120)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=client_thread, args=(c,))
               for c in range(args.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    served_seconds = time.perf_counter() - t0
    print(f"coalesced serve : {n_requests} requests in {served_seconds * 1e3:7.1f} ms "
          f"({n_requests / served_seconds:7.1f} req/s)  "
          f"-> {serial_seconds / served_seconds:4.1f}x")

    exact = all(np.array_equal(r.values, s) for r, s in zip(results, serial))
    print(f"bit-identical to serial engine calls: {exact}")
    assert exact, "coalesced results diverged from direct engine results"

    # ---- a grid request and an HTTP round trip ---------------------------
    grid = server.query(QueryRequest("rb", output_shape=(8, 32, 32)))
    print(f"grid request    : output {grid.values.shape}, "
          f"served in {grid.service_seconds * 1e3:.1f} ms")

    httpd = start_http_server(server)
    http_client = Client(port=httpd.server_address[1])
    over_http = http_client.query_points("rb", coords[0])
    print(f"http round trip : status={over_http.status}, exact="
          f"{np.array_equal(over_http.values, serial[0])}, "
          f"health={http_client.health()['status']}")

    # The same grid twice: framed (what Client speaks) and header-less, i.e.
    # what `curl -d '{"domain_id": "rb", "output_shape": [8, 32, 32]}'` gets.
    def post(headers: dict) -> bytes:
        conn = HTTPConnection("127.0.0.1", httpd.server_address[1], timeout=60.0)
        try:
            conn.request("POST", "/query", headers=headers,
                         body=json.dumps({"domain_id": "rb", "output_shape": [8, 32, 32]}))
            return conn.getresponse().read()
        finally:
            conn.close()

    framed = http_client.predict_grid("rb", (8, 32, 32))
    as_json = post({})
    reply = json.loads(as_json)
    from_json = np.asarray(reply["values"], dtype=reply["dtype"]).reshape(reply["shape"])
    exact = np.array_equal(framed.values, from_json) and np.array_equal(framed.values, grid.values)
    n_points = 8 * 32 * 32
    print(f"http grid       : framed == JSON == in-process: {exact}; reply bytes/point "
          f"framed {len(post({'Accept': 'application/octet-stream'})) / n_points:.1f}, "
          f"JSON {len(as_json) / n_points:.1f}")
    assert exact, "framed, JSON and in-process grid replies diverged"
    stop_http_server(httpd)

    print("\n--- server telemetry ---")
    print(format_stats_table(server.stats()))
    server.close()
    print("\nserver closed gracefully")


if __name__ == "__main__":
    main()
