"""Independent numpy references and input generators for the benchmark.

Nothing here imports pbmrf.  The Ising energy on an R x C free-boundary
lattice is theta * sum over first-order pairs of I(x_i = x_j), with sites
numbered row-major.  Adding sites one at a time while carrying a table over
the last C sites (a broken-column transfer recursion, as in Reeves & Pettitt
2004) gives ln c, or max_x of the energy plus per-site terms, in
O(R C 2^C) time.
"""

from __future__ import annotations

import numpy as np


def _frontier(theta: float, rows: int, cols: int, unary, fold) -> float:
    """Fold exp(energy) over all states, one site at a time.

    ``unary[p]`` holds the per-site terms for x_p = 0 and x_p = 1; ``fold``
    combines the two values of the site that leaves the frontier
    (log-sum-exp for ln c, max for the mode).  Axis 0 of the table is the
    oldest frontier site, the last axis the newest.  The frontier starts
    as ``cols`` phantom sites pinned to 0, which interact with nothing.
    """
    table = np.full((2,) * cols, -np.inf)
    table[(0,) * cols] = 0.0
    oldest = np.arange(2).reshape((2,) + (1,) * (cols - 1))
    newest = np.arange(2).reshape((1,) * (cols - 1) + (2,))
    columns = []
    for p in range(rows * cols):
        r, c = divmod(p, cols)
        columns.clear()
        for x in (0, 1):
            term = unary[p][x] + theta * (r > 0) * (oldest == x)
            term = term + theta * (c > 0) * (newest == x)
            grown = table + term
            columns.append(fold(grown[0], grown[1]))
        table = np.stack(columns, axis=-1)
    flat = table.ravel()
    return float(np.logaddexp.reduce(flat) if fold is np.logaddexp else flat.max())


def ising_log_c(theta: float, rows: int, cols: int) -> float:
    """ln of the Ising partition sum."""
    unary = np.zeros((rows * cols, 2))
    return _frontier(theta, rows, cols, unary, np.logaddexp)


def gaussian_log_lik(y: np.ndarray, mu0: float, mu1: float, sigma: float) -> np.ndarray:
    """ln phi(y_p; mu_x, sigma) for x = 0, 1, as an (n, 2) array."""
    y = np.asarray(y, dtype=float)
    means = np.array([mu0, mu1])
    return (
        -((y[:, None] - means[None, :]) ** 2) / (2.0 * sigma * sigma)
        - np.log(sigma * np.sqrt(2.0 * np.pi))
    )


def ising_posterior_max(theta, rows, cols, y, mu0, mu1, sigma) -> float:
    """max_x of the Ising energy plus the Gaussian log likelihood of y."""
    unary = gaussian_log_lik(y, mu0, mu1, sigma)
    return _frontier(theta, rows, cols, unary, np.maximum)


def ising_posterior_energy(theta, rows, cols, x, y, mu0, mu1, sigma) -> float:
    """The energy that :func:`ising_posterior_max` maximises, at state x."""
    grid = np.asarray(x, dtype=np.int64).reshape(rows, cols)
    agree = np.sum(grid[1:, :] == grid[:-1, :]) + np.sum(grid[:, 1:] == grid[:, :-1])
    unary = gaussian_log_lik(y, mu0, mu1, sigma)
    return float(theta * agree + unary[np.arange(rows * cols), grid.ravel()].sum())


def ising_gibbs_state(theta, rows, cols, rng: np.random.Generator, sweeps=200):
    """A 0/1 state from checkerboard Gibbs sweeps on the Ising model.

    P(x_p = 1 | rest) has logit theta * (neighbours at 1 - neighbours at 0).
    """
    x = (rng.random((rows, cols)) < 0.5).astype(np.int64)
    colour = np.add.outer(np.arange(rows), np.arange(cols)) % 2
    degree = np.zeros((rows, cols), dtype=np.int64)
    degree[1:, :] += 1
    degree[:-1, :] += 1
    degree[:, 1:] += 1
    degree[:, :-1] += 1
    for _ in range(sweeps):
        for parity in (0, 1):
            ones = np.zeros((rows, cols), dtype=np.int64)
            ones[1:, :] += x[:-1, :]
            ones[:-1, :] += x[1:, :]
            ones[:, 1:] += x[:, :-1]
            ones[:, :-1] += x[:, 1:]
            prob = 1.0 / (1.0 + np.exp(-theta * (2 * ones - degree)))
            draw = (rng.random((rows, cols)) < prob).astype(np.int64)
            x = np.where(colour == parity, draw, x)
    return x.ravel()
