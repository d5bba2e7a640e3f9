"""All-pairs batch correlation: the one production path for pair series.

The paper evaluates every pair of its 61-stock universe — N·(N−1)/2 = 1830
rolling correlation series per (day, window, treatment).  Calling
:func:`repro.corr.measures.corr_series` once per pair loops in Python;
this module computes the same ``(n_windows, n_pairs)`` matrix in a single
batch evaluation, and every engine that needs many pairs' series at once
(the shared-cache sequential backtester, the matrix-series backtester,
the block-parallel engine behind Approach 3) runs it:

* **Pearson** — per-symbol centred cumulative moments are computed once
  (O(T·n) instead of O(T·n²)), and only the pair cross-moments are formed
  per pair, chunked to bound peak memory;
* **Maronna / Combined** — every pair's windows are stacked into large
  contiguous batches and driven through the vectorised robust kernels, so
  the fixed-point iteration converges *all pairs and all windows
  simultaneously* under one convergence mask instead of per-pair loops.

Equivalence contract
--------------------
Column ``p`` of :func:`batch_pair_series` is **bitwise-identical** to
``corr_series`` on pair ``p`` and to the per-window reference loop
(:func:`reference_pair_series`):

* the Pearson batch path reproduces :func:`repro.corr.pearson.pearson_series`
  expression-for-expression (per-column ``.mean()``, columnwise ``cumsum``
  — strictly sequential in NumPy — and the same elementwise
  ``_corr_from_moments``);
* the robust kernels freeze each window once converged, so every window's
  trajectory is independent of which other windows share its batch — batch
  composition and chunk boundaries cannot change any result (guaranteed by
  :func:`repro.corr.maronna.maronna_corr_batched` and asserted by the
  property tests in ``tests/test_corr_batch.py`` and the bench smoke).

``corr_series`` stays as the single-pair API (Approach 2's unshared
per-cell path runs it), and :func:`reference_pair_series` stays as the
per-window test and benchmark oracle.
"""

from __future__ import annotations

import numpy as np

from repro.bars.returns import sliding_windows
from repro.corr.combined import combined_corr_batched
from repro.corr.maronna import MaronnaConfig, maronna_corr_batched
from repro.corr.measures import CorrelationType
from repro.corr.pearson import _corr_from_moments, pearson_series
from repro.obs import NULL_METRIC, Obs
from repro.util.validation import check_positive_int

#: Cap on elements materialised per Pearson chunk — same budget as
#: ``corr_series``'s ``repro.corr.measures._CHUNK_ELEMENTS``.
_CHUNK_ELEMENTS = 2_000_000

#: Cap on elements per robust-kernel batch.  The fixed-point iteration
#: touches ~10 temporaries of the batch's size every pass, so the batch
#: must stay cache-resident: 64k elements (512 KiB per buffer) measured
#: ~1.5x faster than megabyte-scale batches on the paper-day workload.
_ROBUST_CHUNK_ELEMENTS = 65_536


def all_pairs(n: int) -> list[tuple[int, int]]:
    """The ``n·(n-1)/2`` ordered symbol pairs ``(i, j)`` with ``i < j``."""
    check_positive_int(n, "n")
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _validate(
    returns: np.ndarray,
    m: int,
    ctype: CorrelationType | str,
    pairs: list[tuple[int, int]] | None,
) -> tuple[np.ndarray, CorrelationType, list[tuple[int, int]], int]:
    ctype = CorrelationType.parse(ctype)
    check_positive_int(m, "m")
    if m < 2:
        raise ValueError("window length must be >= 2")
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2:
        raise ValueError(f"need (T, n) returns, got shape {returns.shape}")
    T, n = returns.shape
    if T < m:
        raise ValueError(f"need at least {m} return rows, got {T}")
    if pairs is None:
        pairs = all_pairs(n)
    else:
        pairs = [tuple(p) for p in pairs]
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ValueError(f"invalid pair ({i}, {j}) for n={n}")
    return returns, ctype, pairs, T - m + 1


def _pearson_batch(
    returns: np.ndarray,
    m: int,
    pairs: list[tuple[int, int]],
    out: np.ndarray,
) -> int:
    """All-pairs rolling Pearson into ``out``; returns the chunk count.

    Reproduces :func:`repro.corr.pearson.pearson_series` bitwise: the same
    whole-series centring, the same cumulative-sum rolling moments (NumPy's
    ``cumsum`` is strictly sequential, so a columnwise cumsum equals each
    column's 1-D cumsum), and the same elementwise ``_corr_from_moments``.
    """
    T, n = returns.shape
    idx_i = np.asarray([i for i, _ in pairs], dtype=np.intp)
    idx_j = np.asarray([j for _, j in pairs], dtype=np.intp)

    # Per-symbol means via 1-D column reductions: ``x.mean()`` of a strided
    # column and an axis-0 reduction can differ in the last ulp, and
    # ``pearson_series`` uses the former — so the batch path must too (n
    # calls, negligible cost).
    mu = np.zeros(n)
    for s in sorted({int(i) for i, j in pairs} | {int(j) for i, j in pairs}):
        mu[s] = returns[:, s].mean()
    centred = returns - mu[None, :]

    # Rolling per-symbol sums S1 = Σx and S2 = Σx² via the cumsum identity.
    cum = np.empty((T + 1, n))
    cum[0] = 0.0
    np.cumsum(centred, axis=0, out=cum[1:])
    s1 = cum[m:] - cum[:-m]
    cum2 = np.empty((T + 1, n))
    cum2[0] = 0.0
    np.cumsum(centred * centred, axis=0, out=cum2[1:])
    s2 = cum2[m:] - cum2[:-m]

    # Pair cross-moments, chunked over pairs to bound peak memory.
    n_pairs = len(pairs)
    chunk = max(1, _CHUNK_ELEMENTS // T)
    cxy = np.empty((T + 1, min(chunk, n_pairs)))
    n_chunks = 0
    for lo in range(0, n_pairs, chunk):
        hi = min(lo + chunk, n_pairs)
        c = hi - lo
        ii, jj = idx_i[lo:hi], idx_j[lo:hi]
        cxy[0, :c] = 0.0
        np.cumsum(centred[:, ii] * centred[:, jj], axis=0, out=cxy[1:, :c])
        sxy = cxy[m:, :c] - cxy[: T + 1 - m, :c]
        out[:, lo:hi] = _corr_from_moments(
            s1[:, ii], s1[:, jj], s2[:, ii], s2[:, jj], sxy, m
        )
        n_chunks += 1
    return n_chunks


def _robust_batch(
    returns: np.ndarray,
    m: int,
    ctype: CorrelationType,
    config: MaronnaConfig | None,
    pairs: list[tuple[int, int]],
    out: np.ndarray,
) -> int:
    """All-pairs robust/blended series into ``out``; returns chunk count.

    Stacks every pair's sliding windows into contiguous ``(rows, m)``
    batches spanning pair boundaries and drives them through the batched
    kernels: one convergence mask over all pairs and windows at once.
    Per-window convergence freezing makes each row's result independent of
    the batch composition, so the flat-row chunking below cannot change
    any value relative to ``corr_series`` on each pair.
    """
    kernel = (
        maronna_corr_batched
        if ctype is CorrelationType.MARONNA
        else combined_corr_batched
    )
    n_win = out.shape[0]
    n_pairs = len(pairs)
    wins = [
        (sliding_windows(returns[:, i], m), sliding_windows(returns[:, j], m))
        for i, j in pairs
    ]
    total_rows = n_pairs * n_win
    # At least one row, so an empty pair list runs zero chunks instead of
    # stepping ``range`` by zero.
    chunk_rows = max(1, min(_ROBUST_CHUNK_ELEMENTS // m, total_rows))
    bufx = np.empty((chunk_rows, m))
    bufy = np.empty((chunk_rows, m))
    n_chunks = 0
    for lo in range(0, total_rows, chunk_rows):
        hi = min(lo + chunk_rows, total_rows)
        # Gather: copy each covered pair's window slice into the stack.
        r, pos = 0, lo
        while pos < hi:
            p, w = divmod(pos, n_win)
            take = min(hi - pos, n_win - w)
            bufx[r : r + take] = wins[p][0][w : w + take]
            bufy[r : r + take] = wins[p][1][w : w + take]
            r += take
            pos += take
        vals = kernel(bufx[:r], bufy[:r], config)
        # Scatter back to (window, pair) coordinates.
        r, pos = 0, lo
        while pos < hi:
            p, w = divmod(pos, n_win)
            take = min(hi - pos, n_win - w)
            out[w : w + take, p] = vals[r : r + take]
            r += take
            pos += take
        n_chunks += 1
    return n_chunks


def batch_pair_series(
    returns: np.ndarray,
    m: int,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
    pairs: list[tuple[int, int]] | None = None,
    obs: Obs | None = None,
) -> np.ndarray:
    """Rolling correlation series of many pairs in one batch evaluation.

    Parameters
    ----------
    returns : ndarray, shape (T, n)
        Return rows for the whole universe (one column per symbol).
    m : int
        Rolling window length in return rows (>= 2; robust measures
        require >= 3, enforced by the kernels).
    ctype : CorrelationType or str, optional
        Correlation treatment; one of the paper's three measures.
    config : MaronnaConfig, optional
        Robust-iteration tuning for the Maronna/Combined treatments.
    pairs : list of (int, int), optional
        Symbol pairs to evaluate; defaults to all ``n·(n-1)/2`` pairs.
        An empty list yields an empty ``(T - m + 1, 0)`` result.
    obs : Obs, optional
        Destination for ``corr.batch.*`` metrics and the ``corr.batch``
        span (which is what `repro top` and the flame table attribute the
        batch path's time to).  Disabled/absent obs costs nothing.

    Returns
    -------
    ndarray, shape (T - m + 1, len(pairs))
        Column ``p`` is exactly ``corr_series(returns[:, i_p],
        returns[:, j_p], m, ctype, config)`` — bitwise, not approximately
        (see the module docstring for why).
    """
    returns, ctype, pairs, n_win = _validate(returns, m, ctype, pairs)
    out = np.empty((n_win, len(pairs)))
    record = obs is not None and obs.enabled
    span = (
        obs.trace.span(
            "corr.batch", pairs=len(pairs), m=m, ctype=ctype.value
        )
        if record
        else NULL_METRIC
    )
    timer = (
        obs.metrics.timer("corr.batch.pair_series.seconds")
        if record
        else NULL_METRIC
    )
    with span, timer:
        if ctype is CorrelationType.PEARSON:
            n_chunks = _pearson_batch(returns, m, pairs, out)
        else:
            n_chunks = _robust_batch(returns, m, ctype, config, pairs, out)
    if record:
        obs.metrics.counter("corr.batch.pairs").inc(len(pairs))
        obs.metrics.counter("corr.batch.windows").inc(len(pairs) * n_win)
        obs.metrics.counter("corr.batch.chunks").inc(n_chunks)
    return out


def reference_pair_series(
    returns: np.ndarray,
    m: int,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
    pairs: list[tuple[int, int]] | None = None,
) -> np.ndarray:
    """The fully scalar per-pair/per-window loop — the bench baseline.

    For the robust measures this really does run one fixed-point iteration
    per window (batch size 1), i.e. the genuine scalar while-loop cost the
    batch path replaces; per-window convergence freezing makes its results
    bitwise-identical to :func:`batch_pair_series` and ``corr_series``.  Pearson has no per-window
    scalar form in the tree (the rolling cumsum identity *is* the scalar
    path), so it delegates to :func:`repro.corr.pearson.pearson_series`.
    """
    returns, ctype, pairs, n_win = _validate(returns, m, ctype, pairs)
    out = np.empty((n_win, len(pairs)))
    if ctype is CorrelationType.PEARSON:
        for p, (i, j) in enumerate(pairs):
            out[:, p] = pearson_series(returns[:, i], returns[:, j], m)
        return out
    kernel = (
        maronna_corr_batched
        if ctype is CorrelationType.MARONNA
        else combined_corr_batched
    )
    for p, (i, j) in enumerate(pairs):
        xw = sliding_windows(returns[:, i], m)
        yw = sliding_windows(returns[:, j], m)
        for w in range(n_win):
            out[w, p] = kernel(xw[w : w + 1], yw[w : w + 1], config)[0]
    return out
