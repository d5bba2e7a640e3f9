"""Measure selection and high-level correlation entry points.

Everything downstream (strategy, backtesters, pipeline components) talks to
correlation through these four functions plus the :class:`CorrelationType`
enum, so swapping the paper's three treatments is a parameter change, never
a code change.

Batched robust computation is chunked to bound peak memory: a full-scale
day at the paper's sizes (1830 pairs × 680 windows × M=100) would otherwise
materialise ~10⁸-element temporaries per iteration.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.bars.returns import sliding_windows
from repro.corr.combined import combined_corr, combined_corr_batched
from repro.corr.maronna import MaronnaConfig, maronna_corr, maronna_corr_batched
from repro.corr.pearson import (
    pearson_corr,
    pearson_corr_batched,
    pearson_matrix,
    pearson_series,
)
from repro.util.validation import check_positive_int

#: Cap on elements per batched robust kernel invocation.
_CHUNK_ELEMENTS = 2_000_000


class CorrelationType(enum.Enum):
    """The paper's three correlation treatments."""

    PEARSON = "pearson"
    MARONNA = "maronna"
    COMBINED = "combined"

    @classmethod
    def parse(cls, value) -> "CorrelationType":
        """Accept an enum member or its (case-insensitive) string name."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls(value.lower())
            except ValueError:
                pass
        raise ValueError(
            f"unknown correlation type {value!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


_SCALAR = {
    CorrelationType.PEARSON: lambda x, y, cfg: pearson_corr(x, y),
    CorrelationType.MARONNA: maronna_corr,
    CorrelationType.COMBINED: combined_corr,
}

_BATCHED = {
    CorrelationType.PEARSON: lambda xw, yw, cfg: pearson_corr_batched(xw, yw),
    CorrelationType.MARONNA: maronna_corr_batched,
    CorrelationType.COMBINED: combined_corr_batched,
}


def pairwise_corr(
    x,
    y,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
) -> float:
    """Correlation of two equal-length 1-D samples under ``ctype``."""
    ctype = CorrelationType.parse(ctype)
    return _SCALAR[ctype](x, y, config)


def _batched(ctype: CorrelationType, xw, yw, config) -> np.ndarray:
    return _BATCHED[ctype](xw, yw, config)


def corr_series(
    x,
    y,
    m: int,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
) -> np.ndarray:
    """Rolling window-``m`` correlation series of two 1-D return series.

    Output index ``k`` covers observations ``k .. k + m - 1``
    (length ``T - m + 1``), identical across measures.
    """
    ctype = CorrelationType.parse(ctype)
    check_positive_int(m, "m")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"need equal-length 1-D inputs, got {x.shape} vs {y.shape}")
    if ctype is CorrelationType.PEARSON:
        return pearson_series(x, y, m)

    xw = sliding_windows(x, m)
    yw = sliding_windows(y, m)
    n_win = xw.shape[0]
    chunk = max(1, _CHUNK_ELEMENTS // m)
    out = np.empty(n_win)
    for lo in range(0, n_win, chunk):
        hi = min(lo + chunk, n_win)
        out[lo:hi] = _batched(ctype, xw[lo:hi], yw[lo:hi], config)
    return out


def corr_matrix(
    window: np.ndarray,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
    pairs: list[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Full (n, n) correlation matrix of an ``(M, n)`` return window.

    With ``pairs`` given, only those entries (and their transposes) are
    computed; the rest are 0 — the form the block-parallel engine uses to
    assemble partial matrices.  Robust matrices are assembled pairwise and
    therefore not guaranteed PSD (paper, Approach 2 caveat); see
    :func:`repro.corr.psd.nearest_psd_correlation`.
    """
    ctype = CorrelationType.parse(ctype)
    window = np.asarray(window, dtype=float)
    if window.ndim != 2:
        raise ValueError(f"need an (M, n) window, got shape {window.shape}")
    n = window.shape[1]

    if pairs is None:
        if ctype is CorrelationType.PEARSON:
            return pearson_matrix(window)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        full = True
    else:
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n and i != j):
                raise ValueError(f"invalid pair ({i}, {j}) for n={n}")
        full = False

    out = np.zeros((n, n))
    if pairs:
        idx_i = np.asarray([i for i, _ in pairs], dtype=np.intp)
        idx_j = np.asarray([j for _, j in pairs], dtype=np.intp)
        vals = _batched(ctype, window.T[idx_i], window.T[idx_j], config)
        out[idx_i, idx_j] = vals
        out[idx_j, idx_i] = vals
    if full:
        np.fill_diagonal(out, 1.0)
    return out


def corr_matrix_series(
    returns: np.ndarray,
    m: int,
    ctype: CorrelationType | str = CorrelationType.PEARSON,
    config: MaronnaConfig | None = None,
) -> np.ndarray:
    """Series of full correlation matrices over a rolling window.

    Input ``(T, n)`` returns, output ``(T - m + 1, n, n)``; matrix ``k``
    covers return rows ``k .. k + m - 1``.  This materialises what the
    paper's Approach 1 stored on disk — at full scale it is the memory
    hog the paper complains about, which is the point.

    The robust/blended entries come from the all-pairs kernel of
    :mod:`repro.corr.batch` (bitwise equal to ``corr_series`` per pair);
    the Pearson branch is one matrix product per interval.
    """
    from repro.corr.batch import all_pairs, batch_pair_series

    ctype = CorrelationType.parse(ctype)
    check_positive_int(m, "m")
    returns = np.asarray(returns, dtype=float)
    if returns.ndim != 2:
        raise ValueError(f"need (T, n) returns, got shape {returns.shape}")
    T, n = returns.shape
    if T < m:
        raise ValueError(f"need at least {m} return rows, got {T}")
    n_win = T - m + 1
    out = np.empty((n_win, n, n))
    if ctype is CorrelationType.PEARSON:
        for k in range(n_win):
            out[k] = pearson_matrix(returns[k : k + m])
        return out
    out[:] = 0.0
    out[:, np.arange(n), np.arange(n)] = 1.0
    pairs = all_pairs(n)
    block = batch_pair_series(returns, m, ctype, config, pairs)
    idx_i = np.asarray([i for i, _ in pairs], dtype=np.intp)
    idx_j = np.asarray([j for _, j in pairs], dtype=np.intp)
    out[:, idx_i, idx_j] = block
    out[:, idx_j, idx_i] = block
    return out
