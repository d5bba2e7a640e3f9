"""Which public calls the traced run wraps, and the metric names they feed.

Layer names are the program's module names.  Each wrapper is installed
where the caller looks the name up: ``BarProvider`` imports
``clean_quotes``, ``accumulate_bam`` and ``log_returns`` into
``repro.backtest.data``, ``DistributedBacktester`` imports
``run_pair_day`` into ``repro.backtest.distributed``, the sweep and the
elastic supervisor reach ``run_spmd`` through their own module globals,
and methods are patched on the class that defines them.
"""

from __future__ import annotations

from perfbench.tracer import COLLECTIVES

#: The seven Figure-1 components of a stream session, by component name.
COMPONENTS = (
    "live_collector", "cleaning", "bar_accumulator", "technical",
    "correlation", "pair_trading", "order_sink",
)

#: The (ctype, M) correlation specs of the paper's 42-set grid.
CORR_SPECS = tuple(
    (ctype, m)
    for ctype in ("pearson", "maronna", "combined")
    for m in (50, 60, 200)
)

#: Routes in the serve traffic mix, by the server's route names.
ROUTES = (
    "sessions_list", "session_get", "session_audit", "session_positions",
    "telemetry", "health", "store_scan", "watchlist_get", "watchlist_put",
)

#: Counts that must repeat exactly between traced operations of one run.
EXACT_COUNTS = (
    ("taq.quotes", "corr.pair_windows", "strategy.cells", "faults.epochs",
     "mpi.messages", "mpi.collectives")
    + tuple(f"marketminer.{c}.calls" for c in COMPONENTS)
    + tuple(f"serve.requests.{r}" for r in ROUTES)
)

#: Span name -> per-layer time metric, for spans whose metric name is not
#: simply ``<span>.s``.
_TIME_METRIC = {"taq.quotes": "taq.quotes_s"}


def per_layer_names() -> list[str]:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = ["taq.quotes_s", "taq.quotes", "clean.s", "bars.s"]
    names += [f"corr.{c}.m{m}.s" for c, m in CORR_SPECS]
    names += ["corr.pair_windows", "strategy.s", "strategy.cells"]
    names += [f"{c}.s" for c in COLLECTIVES]
    names += ["mpi.collectives", "rank_skew", "backtest.merge.s", "metrics.s"]
    for c in COMPONENTS:
        names += [f"marketminer.{c}.s", f"marketminer.{c}.calls"]
    names += ["faults.snapshot.s", "faults.restore.s", "faults.epochs"]
    names += ["mpi.messages", "mpi.send.s", "mpi.recv_wait.s", "mpi.world.s"]
    for r in ROUTES:
        names += [f"serve.dispatch.{r}.ms", f"serve.requests.{r}"]
    names += ["serve.connections", "serve.transport.ms", "store.scan.s"]
    names += ["coverage", "trace_overhead"]
    return names


def time_metric(span_name: str) -> str:
    return _TIME_METRIC.get(span_name, f"{span_name}.s")


def install_compute(tracer) -> None:
    """Wrap the layers the ``sweep`` and ``stream`` workloads run through."""
    import repro.backtest.data as data
    import repro.backtest.distributed as distributed
    import repro.backtest.sweep as sweep
    import repro.elastic.world as world
    import repro.metrics.summary as summary
    from repro.backtest.results import ResultStore
    from repro.corr.parallel import ParallelCorrelationEngine
    from repro.marketminer.components.bar_accumulator import (
        BarAccumulatorComponent,
    )
    from repro.marketminer.components.cleaning import CleaningComponent
    from repro.marketminer.components.collectors import LiveCollector
    from repro.marketminer.components.correlation import (
        CorrelationEngineComponent,
    )
    from repro.marketminer.components.orders import OrderSinkComponent
    from repro.marketminer.components.strategy import PairTradingComponent
    from repro.marketminer.components.technical import (
        TechnicalAnalysisComponent,
    )
    from repro.mpi.mailbox import MailboxComm
    from repro.taq.synthetic import SyntheticMarket

    t = tracer

    def counted(name, size=lambda a, k, r: 1):
        def after(span, args, kwargs, result):
            t.count(name, size(args, kwargs, result))
        return after

    t.wrap(SyntheticMarket, "quotes", "taq.quotes",
           after=counted("taq.quotes", lambda a, k, r: len(r)))
    t.wrap(data, "clean_quotes", "clean")
    t.wrap(data, "accumulate_bam", "bars")
    t.wrap(data, "log_returns", "bars")

    def corr_label(args, kwargs):
        engine, m = args[0], args[3]
        return f"corr.{engine.ctype.value}.m{m}"

    def corr_windows(span, args, kwargs, result):
        engine, comm, returns, m, pairs = args
        if comm.rank == 0:
            t.count("corr.pair_windows", len(pairs) * (len(returns) - m + 1))

    t.wrap(ParallelCorrelationEngine, "pair_series", corr_label,
           after=corr_windows)
    t.wrap(distributed, "run_pair_day", "strategy",
           after=counted("strategy.cells"))
    for name in COLLECTIVES:
        t.wrap(MailboxComm, name.split(".")[1], name,
               after=counted("mpi.collectives"))
    t.wrap(ResultStore, "merged", "backtest.merge")
    t.wrap(summary, "treatment_summaries", "metrics")
    t.wrap_world(sweep)
    t.wrap_world(world)
    t.count_calls(world, "run_epoch", "faults.epochs")

    def component_label(args, kwargs):
        return f"marketminer.{args[0].name}"

    def component_calls(span, args, kwargs, result):
        t.count(f"marketminer.{args[0].name}.calls")

    for cls in (
        BarAccumulatorComponent, CleaningComponent, CorrelationEngineComponent,
        OrderSinkComponent, PairTradingComponent, TechnicalAnalysisComponent,
    ):
        t.wrap(cls, "on_message", component_label, after=component_calls)
    t.wrap(LiveCollector, "generate", component_label, after=component_calls)
    for cls in (
        LiveCollector, BarAccumulatorComponent, CleaningComponent,
        CorrelationEngineComponent, OrderSinkComponent, PairTradingComponent,
        TechnicalAnalysisComponent,
    ):
        t.wrap(cls, "snapshot", "faults.snapshot")
        t.wrap(cls, "restore", "faults.restore")

    def in_collective(tr):
        top = tr.top()
        return top is not None and top.name in COLLECTIVES

    t.wrap(MailboxComm, "send", "mpi.send", after=counted("mpi.messages"))
    t.wrap(MailboxComm, "recv", "mpi.recv_wait", skip=in_collective)


def install_serve(tracer) -> None:
    """Wrap the server-side layers: route dispatch and store scans."""
    from repro.serve.app import ServeApp
    from repro.store.reader import StoreReader

    def route_name(span, args, kwargs, result):
        span.name = f"serve.dispatch.{args[1].route}"

    tracer.wrap(ServeApp, "dispatch", "serve.dispatch", after=route_name)
    tracer.wrap_generator(StoreReader, "scan", "store.scan")
