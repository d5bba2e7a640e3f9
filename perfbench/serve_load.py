"""The ``serve`` workload: a seeded server and two closed-loop clients.

Set-up ingests a tick store, boots ``perfbench/serve_main.py`` and seeds
it over HTTP with finished sessions, one paused ``figure1`` session and
per-user watchlists.  The traffic is the route mix that
``benchmarks/bench_serve.py`` records, plus the position and store-scan
routes, drawn from the seed.  Each client opens a keep-alive connection,
sends :data:`BURST` requests on it (as ``bench_serve.py``'s clients do)
and closes it, and waits for every reply before its next request.
Every response is checked for its status and JSON shape; a failed check
counts as a failed request.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import time

from repro.store import ingest_synthetic
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe

CLIENTS = 2
#: Requests per connection, as ``bench_serve.py``'s REQUESTS_PER_CLIENT.
BURST = 8
TOKEN = "perfbench"
STORE_SYMBOLS = 8
STORE_DAYS = 2
STORE_SECONDS = 3600
SCAN_LIMIT = 200
USERS = ("ana", "bo", "cy", "di")
FINISHED = ("bt-0", "bt-1", "bt-2", "f1-done")
LIVE = "f1-live"

#: Route name -> weight in the mix.  The first seven are the percentages
#: of ``bench_serve.py``'s recorded mix; the position and store-scan
#: routes it lacks get 10 each, the weight of its middle route (health).
MIX = (
    ("sessions_list", 30), ("session_get", 25), ("session_audit", 15),
    ("health", 10), ("telemetry", 8), ("watchlist_get", 7),
    ("watchlist_put", 5), ("session_positions", 10), ("store_scan", 10),
)
#: Audit entries asked for, as in ``bench_serve.py``.
AUDIT_LIMIT = 50


class ServeError(RuntimeError):
    """Set-up could not bring the server to its seeded state."""


def build_mix(seed: int, length: int) -> list[tuple]:
    """The seeded request sequence: (route, method, path, body, expect)."""
    rng = random.Random(seed)
    routes = [name for name, weight in MIX for _ in range(weight)]
    symbols = list(default_universe(STORE_SYMBOLS).symbols)
    sessions = FINISHED + (LIVE,)
    out = []
    for _ in range(length):
        route = rng.choice(routes)
        if route == "sessions_list":
            out.append((route, "GET", "/sessions", None, len(sessions)))
        elif route == "session_get":
            sid = rng.choice(sessions)
            out.append((route, "GET", f"/sessions/{sid}", None, sid))
        elif route == "session_audit":
            sid = rng.choice(sessions)
            path = f"/sessions/{sid}/audit?limit={AUDIT_LIMIT}"
            out.append((route, "GET", path, None, sid))
        elif route == "session_positions":
            sid = rng.choice(("f1-done", LIVE))
            out.append((route, "GET", f"/sessions/{sid}/positions", None, sid))
        elif route == "telemetry":
            out.append((route, "GET", "/telemetry", None, sessions))
        elif route == "health":
            out.append((route, "GET", "/health", None, None))
        elif route == "store_scan":
            day = rng.randrange(STORE_DAYS)
            pick = ",".join(sorted(rng.sample(symbols, 2)))
            path = (f"/store/scan?days={day}&symbols={pick}"
                    f"&limit={SCAN_LIMIT}")
            out.append((route, "GET", path, None, SCAN_LIMIT))
        elif route == "watchlist_get":
            user = rng.choice(USERS)
            out.append((route, "GET", f"/users/{user}/watchlist", None, user))
        else:
            user = rng.choice(USERS)
            body = {"symbols": sorted(rng.sample(symbols, 3))}
            out.append((route, "PUT", f"/users/{user}/watchlist", body, body))
    return out


def response_ok(route: str, expect, status: int, doc) -> bool:
    """Whether one reply has the status and JSON shape its route promises."""
    if status != 200 or not isinstance(doc, dict):
        return False
    if route == "sessions_list":
        return len(doc.get("sessions", ())) == expect
    if route == "session_get":
        want = "paused" if expect == LIVE else "done"
        return doc.get("id") == expect and doc.get("state") == want
    if route == "session_audit":
        return isinstance(doc.get("entries"), list) and doc.get("total", 0) > 0
    if route == "session_positions":
        return isinstance(doc.get("positions"), list) and isinstance(
            doc.get("trades"), int
        )
    if route == "telemetry":
        return "server" in doc and sorted(doc.get("sessions", ())) == sorted(
            expect
        )
    if route == "health":
        return doc.get("status") == "ok"
    if route == "store_scan":
        columns = doc.get("columns") or {}
        return doc.get("rows") == expect and all(
            len(v) == expect for v in columns.values()
        ) and bool(columns)
    if route == "watchlist_get":
        # The other client may be rewriting this list; any list will do.
        return doc.get("user") == expect and isinstance(
            doc.get("symbols"), list
        ) and len(doc["symbols"]) > 0
    return doc.get("symbols") == expect["symbols"]


class Client:
    """A tiny JSON-over-HTTP client on one keep-alive connection."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def call(self, method: str, path: str, body=None) -> tuple[int, object]:
        headers = {"Authorization": f"Bearer {TOKEN}"}
        data = None
        if body is not None:
            data = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        self.conn.request(method, path, body=data, headers=headers)
        resp = self.conn.getresponse()
        raw = resp.read()
        return resp.status, json.loads(raw) if raw else None

    def close(self) -> None:
        self.conn.close()


class Server:
    """One seeded server process, driven over stdin/stdout."""

    def __init__(self, root: str, workdir: str, seed: int):
        self.root = root
        self.workdir = workdir
        self.seed = seed
        self.proc = None
        self.port = None

    def _command(self, line: str) -> dict:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise ServeError(f"server exited after {line!r}")
        return json.loads(reply)

    def start(self) -> None:
        store = os.path.join(self.workdir, "store")
        market = SyntheticMarket(
            default_universe(STORE_SYMBOLS),
            SyntheticMarketConfig(trading_seconds=STORE_SECONDS),
            seed=self.seed,
        )
        ingest_synthetic(store, market, n_days=STORE_DAYS)
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join("perfbench", "serve_main.py"),
             "--store-root", store, "--token", TOKEN, "--port", "0"],
            cwd=self.root, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True,
        )
        line = self.proc.stdout.readline()
        if not line:
            raise ServeError("server exited before it reported its port")
        self.port = json.loads(line)["port"]
        self._seed()

    def _seed(self) -> None:
        client = Client(self.port)
        try:
            for i, sid in enumerate(FINISHED[:3]):
                self._submit(client, sid, "backtest", USERS[i], {
                    "symbols": 4, "days": 1, "levels": 1,
                    "seed": self.seed + i,
                })
            self._submit(client, "f1-done", "figure1", USERS[3],
                         {"seed": self.seed})
            self._submit(client, LIVE, "figure1", USERS[0],
                         {"seed": self.seed, "seconds": 23_400})
            self._wait(client, LIVE, lambda s: s["progress"]["checkpoints"] > 0)
            status, _ = client.call("POST", f"/sessions/{LIVE}/pause")
            if status != 202:
                raise ServeError(f"pause answered {status}")
            self._wait(client, LIVE, lambda s: s["state"] == "paused")
            for sid in FINISHED:
                self._wait(client, sid, lambda s: s["state"] == "done")
            for user in USERS:
                status, _ = client.call(
                    "PUT", f"/users/{user}/watchlist", {"symbols": ["XOM"]}
                )
                if status != 200:
                    raise ServeError(f"watchlist PUT answered {status}")
        finally:
            client.close()

    def _submit(self, client, sid, kind, user, spec) -> None:
        status, doc = client.call(
            "POST", "/sessions",
            {"id": sid, "kind": kind, "user": user, "spec": spec},
        )
        if status != 201:
            raise ServeError(f"submit {sid} answered {status}: {doc}")

    def _wait(self, client, sid, ready, limit: float = 60.0) -> None:
        deadline = time.monotonic() + limit
        while True:
            status, doc = client.call("GET", f"/sessions/{sid}")
            if status == 200 and ready(doc):
                return
            if status != 200 or doc["state"] in ("failed", "killed"):
                raise ServeError(f"session {sid} is {status} {doc}")
            if time.monotonic() > deadline:
                raise ServeError(f"session {sid} not ready: {doc['state']}")
            time.sleep(0.02)

    def trace(self, on: bool) -> dict:
        return self._command("trace on" if on else "trace off")

    def stop(self) -> int:
        """Stop the process; returns its peak resident set size in KiB."""
        peak = 0
        if self.proc is None:
            return peak
        try:
            if self.proc.poll() is None:
                peak = self._command("stop")["peak_rss_kb"]
        except (OSError, ValueError, ServeError):
            pass
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            shutil.rmtree(self.workdir, ignore_errors=True)
        return peak


def drive(port: int, requests: list[list[tuple]], deadline=None,
          min_samples: int = 0):
    """Run one closed-loop client per request list.

    Without a ``deadline`` each client sends its list once; with one it
    cycles through it until the deadline has passed and the clients
    together have at least ``min_samples`` replies.  Returns ``(samples,
    connections)`` where a sample is ``(route, seconds, ok)``.
    """
    samples: list[list[tuple]] = [[] for _ in requests]
    connections = [0] * len(requests)

    def done() -> bool:
        return (
            time.perf_counter() >= deadline
            and sum(len(s) for s in samples) >= min_samples
        )

    def client_loop(c: int) -> None:
        mine = requests[c]
        i = 0
        while True:
            if deadline is None and i >= len(mine):
                return
            if deadline is not None and done():
                return
            client = Client(port)
            connections[c] += 1
            try:
                for _ in range(BURST):
                    route, method, path, body, expect = mine[i % len(mine)]
                    i += 1
                    t0 = time.perf_counter()
                    try:
                        status, doc = client.call(method, path, body)
                        ok = response_ok(route, expect, status, doc)
                    except (OSError, http.client.HTTPException, ValueError):
                        ok = False
                        client.close()
                        client = Client(port)
                        connections[c] += 1
                    samples[c].append((route, time.perf_counter() - t0, ok))
            finally:
                client.close()

    threads = [
        threading.Thread(target=client_loop, args=(c,))
        for c in range(len(requests))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return [s for per in samples for s in per], sum(connections)
