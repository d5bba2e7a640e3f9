"""The ``sweep`` and ``stream`` workloads: one op is one user-visible job.

``sweep`` is what ``repro sweep`` does with every default: a distributed
study over 2 ranks of the full 42-set grid, then the Tables III-V
summaries.  ``stream`` is a supervised Figure-1 session checkpointing
every 20 intervals, the path behind every serve ``figure1`` tenant and
``repro chaos``.  Each class builds its inputs from the seed, runs one op
per :meth:`op` call and checks an op's output against a reference that
another engine computes once per run.
"""

from __future__ import annotations

import hashlib

from repro.backtest.runner import SequentialBacktester
from repro.backtest.sweep import SweepConfig, run_sweep
from repro.corr.measures import CorrelationType
from repro.faults import run_supervised_session
from repro.faults.supervisor import session_results_equal
from repro.marketminer.session import (
    build_figure1_workflow,
    run_figure1_session,
)
from repro.metrics import summary
from repro.strategy.params import paper_parameter_grid
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid

#: The Tables III-V measures ``repro sweep`` prints.
MEASURES = ("returns", "drawdown", "winloss")

#: A third of the sweep's half-length day: a session lasts about 1.5 s,
#: so a 24 s run holds about 15 of them.
SESSION_SECONDS = SweepConfig.trading_seconds // 3

#: Symbols in a stream session (45 pairs).  Its rank threads hand over the
#: interpreter lock at every message, and on a virtual machine such a
#: hand-over waits for the other vCPU to be woken, which takes longer
#: when the host is busy.  The message count does not grow with the
#: symbols, so the larger universe keeps that wait a smaller share.
STREAM_SYMBOLS = 10


def store_digest(store, keys) -> str:
    """SHA-256 over the (pair, set, day) cells ``keys`` of a ResultStore."""
    h = hashlib.sha256()
    for key in keys:
        h.update(repr(key).encode())
        if store.has(*key):
            h.update(store.cell(*key).tobytes())
        else:
            h.update(b"missing")
    return h.hexdigest()


class Sweep:
    """All pairs x 42 sets x 1 day through ``run_sweep`` defaults."""

    def __init__(self, seed: int, symbols: int = 6):
        self.config = SweepConfig(n_symbols=symbols, n_days=1, seed=seed)
        self.pairs = list(self.config.build_universe().pairs())
        self.grid = self.config.build_grid()
        self.days = list(range(self.config.n_days))
        self.cells = [
            (pair, k, day)
            for pair in self.pairs
            for k in range(len(self.grid))
            for day in self.days
        ]
        self.units = len(self.cells)
        self._reference = None

    def setup(self) -> None:
        """Build the study's inputs: the day's cleaned bars and returns."""
        provider = self.config.build_provider()
        for day in self.days:
            provider.returns(day)

    def op(self):
        store, grid = run_sweep(self.config)
        tables = {m: summary.treatment_summaries(store, grid, m) for m in MEASURES}
        return store, tables

    def reference(self) -> str:
        if self._reference is None:
            backtester = SequentialBacktester(
                self.config.build_provider(), share_correlation=True
            )
            self._reference = store_digest(
                backtester.run(self.pairs, self.grid, self.days), self.cells
            )
        return self._reference

    def fingerprint(self, out) -> tuple:
        store, tables = out
        shape = tuple(
            (m, tuple(sorted(c.value for c in tables[m]))) for m in MEASURES
        )
        return store_digest(store, self.cells), len(store), shape

    def check(self, fingerprint) -> bool:
        digest, cells, shape = fingerprint
        treatments = ("combined", "maronna", "pearson")
        return (
            digest == self.reference()
            and cells == self.units
            and all(t == treatments for _, t in shape)
        )


class Stream:
    """Supervised Figure-1 session: Maronna M=60 over all pairs."""

    checkpoint_every = 20
    ranks = 2

    def __init__(self, seed: int, symbols: int = STREAM_SYMBOLS):
        self.seed = seed
        self.symbols = symbols
        self.params = [
            p for p in paper_parameter_grid(base=SweepConfig().base_params)
            if p.ctype is CorrelationType.MARONNA and p.m == 60
        ]
        self.units = 0
        self._reference = None

    def build(self):
        market = SyntheticMarket(
            default_universe(self.symbols),
            SyntheticMarketConfig(trading_seconds=SESSION_SECONDS),
            seed=self.seed,
        )
        return build_figure1_workflow(
            market,
            TimeGrid(SweepConfig.delta_s, trading_seconds=SESSION_SECONDS),
            list(market.universe.pairs()),
            self.params,
        )

    def setup(self) -> None:
        """Build the workflow and the day's quote tape the collector plays."""
        collector = self.build().component("live_collector")
        quotes = collector.market.quotes(collector.day)
        cutoff = collector.grid.smax * collector.grid.delta_s
        self.units = int((quotes["t"] < cutoff).sum())

    def op(self):
        return run_supervised_session(
            self.build, size=self.ranks, checkpoint_every=self.checkpoint_every
        )

    def reference(self) -> dict:
        if self._reference is None:
            self._reference = run_figure1_session(self.build(), size=self.ranks)
        return self._reference

    def fingerprint(self, run):
        return run.results, run.restarts, run.checkpoints

    def check(self, fingerprint) -> bool:
        results, restarts, checkpoints = fingerprint
        return (
            restarts == 0
            and checkpoints > 0
            and session_results_equal(results, self.reference())
        )
