"""Launch ``repro serve``'s application on an ephemeral port for the benchmark.

Run from the root of a checkout::

    python3 perfbench/serve_main.py --store-root DIR --token TOKEN --port 0

The arguments are ``repro serve``'s, parsed by its own parser, and the
server is built from them as ``repro serve`` builds it.  The launcher
prints ``{"port": N}`` on one line and then takes commands on stdin, one
per line, answering each with one JSON line:

``trace on``    wrap route dispatch and store scans in spans;
``trace off``   unwrap them and answer the spans recorded since ``on``;
``stop``        (or end of input) kill live sessions, close the socket and
                answer the process's peak resident set size.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def _spans_reply(tracer) -> dict:
    from perfbench.tracer import self_times

    spans, _ = tracer.take()
    selfs = self_times(spans)
    dispatch: dict[str, list[float]] = {}
    scan = 0.0
    for s in spans:
        if s.name.startswith("serve.dispatch."):
            route = s.name[len("serve.dispatch."):]
            dispatch.setdefault(route, []).append(s.duration)
        elif s.name == "store.scan":
            scan += selfs[id(s)]
    return {"dispatch": dispatch, "store_scan_s": scan}


def main(argv=None) -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from repro.cli import build_parser
    from repro.obs import Obs
    from repro.serve import ServeApp, SessionManager, make_server
    from repro.store import StoreReader

    from perfbench.layers import install_serve
    from perfbench.tracer import Tracer

    args = build_parser().parse_args(
        ["serve", *(sys.argv[1:] if argv is None else argv)]
    )
    # As ``repro.cli._cmd_serve`` builds it.
    manager = SessionManager(
        max_live=args.max_sessions,
        retain=max(args.retain, args.max_sessions + 1),
        flight_root=args.flight_root,
    )
    app = ServeApp(
        manager, token=args.token, obs=Obs(enabled=True),
        store=StoreReader(args.store_root),
    )
    server = make_server(app, host=args.host, port=args.port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _reply({"port": server.server_address[1]})

    tracer = None
    try:
        for line in sys.stdin:
            command = line.strip()
            if command == "trace on" and tracer is None:
                tracer = Tracer()
                install_serve(tracer)
                _reply({"ok": True})
            elif command == "trace off" and tracer is not None:
                tracer.unpatch()
                _reply(_spans_reply(tracer))
                tracer = None
            elif command == "stop":
                break
            else:
                _reply({"error": f"unknown command {command!r}"})
    finally:
        server.shutdown()
        manager.kill_all()
        server.server_close()
        thread.join(timeout=10)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    _reply({"peak_rss_kb": usage.ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
