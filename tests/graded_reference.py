"""The graded monomial basis built one variable at a time, kept as a test
oracle for `gausspoly._Graded`, which lists the basis in one pass.

Prepending a variable to the basis in v - 1 variables gives, for each degree
k, the rows (k - |t|, t) over the tails t of degree <= k; `up` and `down`
come from one `_rank` per axis.
"""
import math

import numpy as np

from pseudoht.gausspoly import _rank


def graded_tables(dim: int, deg: int):
    """(expo, up, down, fac) of the basis of degree <= deg in dim variables."""
    expo = np.zeros((1, 0), dtype=int)
    for v in range(1, dim + 1):
        # prepend a variable: degree-k rows over the tails of degree <= k
        expo = np.concatenate([
            np.column_stack([k - expo[:c].sum(axis=1), expo[:c]])
            for k in range(deg + 1) for c in [math.comb(k + v - 1, v - 1)]])
    n = len(expo)
    up = np.full((dim, n + 1), n)
    down = np.full((dim, n + 1), n)
    for j in range(dim):
        pos = _rank(expo + np.eye(dim, dtype=int)[j])
        inside = pos < n
        up[j, :n][inside] = pos[inside]
        down[j, pos[inside]] = np.flatnonzero(inside)
    fac = np.concatenate([expo.T + 1, np.zeros((dim, 1), dtype=int)], axis=1)
    return expo, up, down, fac
