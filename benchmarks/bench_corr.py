"""All-pairs batch correlation vs the scalar per-pair/per-window path.

The paper-scale correlation stage — 61 stocks, all 1830 pairs, the full
42-set Table-I grid over 20 days — reduces to 9 distinct (window M,
treatment) specs per day (every parameter set sharing an (M, Ctype) shares
its correlation series, which is exactly what ``share_correlation`` and the
batch kernel exploit).  This benchmark feeds a store-ingested day through
the zero-copy memmap reader and times three implementations of that stage:

* ``scalar``  — the fully scalar oracle: one rolling-moment pass per pair
  (Pearson) and one fixed-point iteration per *window* (robust measures),
  i.e. the per-pair while-loops the batch kernels replace;
* ``perpair`` — ``corr_series`` once per pair (windows batched within the
  pair), the engines' path before the all-pairs kernel;
* ``batch``   — the all-pairs kernel of :mod:`repro.corr.batch`, the one
  path every engine runs.

The batch path is measured in full (all 1830 pairs, all 9 specs).  The
scalar and (for the robust specs) perpair baselines are measured on
documented pair subsets and extrapolated linearly — per-pair cost is
uniform, and the subset sizes are recorded in the JSON.  Day 0 is measured
and scaled to 20 days (every day has identical shape).  The headline gate:
batch must be >= 10x the scalar oracle on the full study, with results
bitwise-identical (asserted here on every spec).

Results land in ``benchmarks/out/corr_batch.{txt,json}`` and the repo-level
artefact ``BENCH_corr.json``.  ``python -m benchmarks.bench_corr --smoke``
runs the toy-scale bitwise gate used by ``scripts/check.sh``.
"""

import json
import time
from pathlib import Path

import numpy as np

from repro.backtest.data import BarProvider
from repro.corr.batch import all_pairs, batch_pair_series, reference_pair_series
from repro.corr.measures import CorrelationType, corr_series
from repro.strategy.params import paper_parameter_grid
from repro.taq.synthetic import SyntheticMarket, SyntheticMarketConfig
from repro.taq.universe import default_universe
from repro.util.timeutil import TimeGrid

N_DAYS = 20
SECONDS = 23_400 // 2  # half-length sessions: the smallest day that fits
#                        the grid's M=200 window (precedent: bench_paper_scale)
DELTA_S = 30

#: Pair subsets the extrapolated baselines are measured on.
PERPAIR_SAMPLE = 64
SCALAR_SAMPLE = 6
#: Pairs the per-window reference is bitwise-checked on, every spec.
BITWISE_SAMPLE = 4

REPO_ROOT = Path(__file__).resolve().parent.parent


def _store_fed_returns(tmp_path):
    """Day-0 returns for the 61-symbol universe via the tick store."""
    from repro.store import StoreQuoteSource, StoreReader, ingest_synthetic

    market = SyntheticMarket(
        default_universe(),  # all 61 symbols, as in the paper
        SyntheticMarketConfig(trading_seconds=SECONDS),
        seed=2008,
    )
    root = tmp_path / "store"
    ingest_synthetic(root, market, n_days=1, n_shards=8)
    source = StoreQuoteSource(StoreReader(root))
    grid = TimeGrid(DELTA_S, trading_seconds=SECONDS)
    return BarProvider(source, grid).returns(0)


def _perpair_series(returns, m, ctype, pairs):
    """``corr_series`` once per pair, stacked into ``(n_win, n_pairs)``."""
    return np.column_stack(
        [corr_series(returns[:, i], returns[:, j], m, ctype) for i, j in pairs]
    )


def _specs():
    grid = paper_parameter_grid()
    specs = sorted(
        {(p.m, p.ctype) for p in grid}, key=lambda s: (s[0], s[1].value)
    )
    return grid, specs


def test_corr_batch_paper_scale(tmp_path):
    returns = _store_fed_returns(tmp_path)
    grid, specs = _specs()
    pairs = all_pairs(returns.shape[1])
    n_pairs = len(pairs)

    rows = []
    for m, ctype in specs:
        robust = ctype is not CorrelationType.PEARSON
        # Full batch measurement (the claim under test).
        t0 = time.perf_counter()
        batch = batch_pair_series(returns, m, ctype, pairs=pairs)
        batch_s = time.perf_counter() - t0

        # perpair: full for Pearson (cheap), extrapolated from a pair
        # subset for the robust specs.
        perpair_pairs = pairs if not robust else pairs[:PERPAIR_SAMPLE]
        t0 = time.perf_counter()
        perpair = _perpair_series(returns, m, ctype, perpair_pairs)
        perpair_s = (time.perf_counter() - t0) * (n_pairs / len(perpair_pairs))
        np.testing.assert_array_equal(
            batch[:, : len(perpair_pairs)], perpair,
            err_msg=f"batch != perpair for {ctype.value}@{m}",
        )

        # scalar oracle: for Pearson the rolling series IS the scalar
        # path; for robust specs run the genuine per-window loop on a
        # small subset and extrapolate.
        if robust:
            t0 = time.perf_counter()
            ref = reference_pair_series(
                returns, m, ctype, pairs=pairs[:SCALAR_SAMPLE]
            )
            scalar_s = (time.perf_counter() - t0) * (n_pairs / SCALAR_SAMPLE)
            np.testing.assert_array_equal(
                batch[:, :SCALAR_SAMPLE], ref,
                err_msg=f"batch != per-window scalar for {ctype.value}@{m}",
            )
        else:
            scalar_s = perpair_s
        rows.append(
            {
                "m": m,
                "ctype": ctype.value,
                "batch_s": batch_s,
                "perpair_s": perpair_s,
                "perpair_pairs_measured": len(perpair_pairs),
                "scalar_s": scalar_s,
                "scalar_pairs_measured": SCALAR_SAMPLE if robust else n_pairs,
                "speedup_vs_scalar": scalar_s / batch_s,
                "speedup_vs_perpair": perpair_s / batch_s,
            }
        )

    day = {k: sum(r[f"{k}_s"] for r in rows) for k in ("batch", "perpair", "scalar")}
    study = {k: v * N_DAYS for k, v in day.items()}
    speedup = study["scalar"] / study["batch"]
    speedup_perpair = study["perpair"] / study["batch"]
    assert speedup >= 10.0, (
        f"batch must be >=10x the scalar oracle at paper scale, got "
        f"{speedup:.1f}x"
    )

    data = {
        "n_symbols": returns.shape[1] + 0,
        "n_pairs": n_pairs,
        "n_days": N_DAYS,
        "n_param_sets": len(grid),
        "n_corr_specs": len(specs),
        "trading_seconds": SECONDS,
        "delta_s": DELTA_S,
        "return_rows_per_day": int(returns.shape[0]),
        "feed": "store (zero-copy memmap reader)",
        "days_measured": 1,
        "extrapolation": (
            "batch measured in full (all pairs, all specs) on day 0; "
            "perpair extrapolated from "
            f"{PERPAIR_SAMPLE} pairs on robust specs; scalar per-window "
            f"loop extrapolated from {SCALAR_SAMPLE} pairs; day-0 stage "
            f"cost scaled by n_days={N_DAYS} (identical day shapes)"
        ),
        "bitwise_identical": True,
        "per_spec": rows,
        "day_seconds": day,
        "study_seconds": study,
        "speedup_batch_vs_scalar": speedup,
        "speedup_batch_vs_perpair": speedup_perpair,
    }
    lines = [
        f"all-pairs correlation stage: {data['n_symbols']} symbols "
        f"({n_pairs} pairs) x {N_DAYS} days x {len(grid)} parameter sets "
        f"({len(specs)} distinct (M, Ctype) specs, {SECONDS} s days)",
        f"  {'spec':<14} {'scalar':>9} {'perpair':>9} {'batch':>9} "
        f"{'vs scalar':>10} {'vs perpair':>11}",
    ]
    for r in rows:
        lines.append(
            f"  {r['ctype']:<10}@{r['m']:<3} {r['scalar_s']:>8.2f}s "
            f"{r['perpair_s']:>8.2f}s {r['batch_s']:>8.2f}s "
            f"{r['speedup_vs_scalar']:>9.1f}x {r['speedup_vs_perpair']:>10.1f}x"
        )
    lines.append(
        f"  study totals ({N_DAYS} days): scalar {study['scalar']:.0f}s, "
        f"perpair {study['perpair']:.0f}s, batch {study['batch']:.0f}s"
    )
    lines.append(
        f"  batch is {speedup:.0f}x the scalar oracle "
        f"({speedup_perpair:.1f}x the per-pair path), bitwise-identical"
    )
    text = "\n".join(lines)
    from benchmarks.conftest import emit

    emit("corr_batch", text, data)
    (REPO_ROOT / "BENCH_corr.json").write_text(
        json.dumps({"bench": "corr_batch", "data": data}, indent=2,
                   sort_keys=True) + "\n"
    )
    print("\n" + text)


def run_smoke() -> None:
    """Toy-scale bitwise gate for scripts/check.sh: batch == per-pair
    ``corr_series`` == per-window reference on every treatment, to the
    last bit."""
    market = SyntheticMarket(
        default_universe(8),
        SyntheticMarketConfig(trading_seconds=3600, quote_rate=0.8),
        seed=7,
    )
    provider = BarProvider(market, TimeGrid(30, trading_seconds=3600))
    returns = provider.returns(0)
    m = 20
    pairs = all_pairs(returns.shape[1])
    for ctype in ("pearson", "maronna", "combined"):
        batch = batch_pair_series(returns, m, ctype)
        np.testing.assert_array_equal(
            batch, _perpair_series(returns, m, ctype, pairs),
            err_msg=f"batch != per-pair corr_series for {ctype}",
        )
        sample = pairs[:BITWISE_SAMPLE]
        ref = reference_pair_series(returns, m, ctype, pairs=sample)
        np.testing.assert_array_equal(
            batch[:, :BITWISE_SAMPLE], ref,
            err_msg=f"batch != per-window reference for {ctype}",
        )
        print(f"  {ctype:<9} batch == per-pair == reference "
              f"({batch.shape[1]} pairs x {batch.shape[0]} windows)")
    print("ok: batch kernel is bitwise-identical at toy scale")


if __name__ == "__main__":
    import argparse
    import tempfile

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="toy-scale bitwise gate (used by scripts/check.sh)")
    if ap.parse_args().smoke:
        run_smoke()
    else:
        with tempfile.TemporaryDirectory() as td:
            test_corr_batch_paper_scale(Path(td))
