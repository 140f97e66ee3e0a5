"""Seeded input generators for the benchmark workloads.

They use numpy only and never import the package under test, so
``selftest.py`` can check their properties on its own.  Each returns
``(bids, ctrs, conts)`` float64 arrays; the same seed gives
byte-identical arrays.
"""

from __future__ import annotations

import numpy as np

Arrays = tuple[np.ndarray, np.ndarray, np.ndarray]


def random_arrays(n: int, seed: int) -> Arrays:
    """Drawn like ``cli.random_instance``: bids log-uniform on [0.01, 10],
    ctr on (0, 1], cont on [0, 0.99)."""
    rng = np.random.default_rng(seed)
    bids = np.exp(rng.uniform(np.log(0.01), np.log(10.0), n))
    ctrs = 1.0 - rng.random(n)
    conts = rng.uniform(0.0, 0.99, n)
    return bids, ctrs, conts


def skyline_arrays(n: int, seed: int) -> Arrays:
    """Every ad is undominated and a hull vertex.

    With ``ecpm = 1.01 - cont**2``, ecpm falls and ``ecpm / (1 - cont)``
    rises strictly with cont, so no ad beats another on both scores; the
    (cont, ecpm) points lie on a strictly concave falling curve, so every
    contiguous run of them in canonical order is in convex position.
    """
    rng = np.random.default_rng(seed)
    conts = rng.uniform(0.0, 0.99, n)
    ctrs = 1.0 - rng.random(n)
    bids = (1.01 - conts * conts) / ctrs
    return bids, ctrs, conts


def stream_arrays(count: int, seed: int) -> list[Arrays]:
    """Small auctions with production-style quantized estimates.

    n is uniform on [50, 500]; bids sit on a 0.05 grid from 0.05 to 5.00,
    ctr on a 0.01 grid from 0.01 to 1.00 and cont on a 0.01 grid from 0.00
    to 0.99, so exact ties and ``cont == 0`` are common.
    """
    rng = np.random.default_rng(seed)
    auctions = []
    for _ in range(count):
        n = int(rng.integers(50, 501))
        bids = np.round(rng.integers(1, 101, n) * 0.05, 2)
        ctrs = rng.integers(1, 101, n) / 100.0
        conts = rng.integers(0, 100, n) / 100.0
        auctions.append((bids, ctrs, conts))
    return auctions
