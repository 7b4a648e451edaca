"""Scalar fields with exact Hessians, evaluated on batches of points.

Every field and coefficient callable in the package takes an (N, n) array of
points, one per row, and returns one value per row: shape (N,) for values and
(N, n, n) for Hessians (the operators are second order, so no first derivatives).
Polynomial fields are given as monomial tables ``[[coeff, e1, ..., en], ...]``
and differentiated term by term, so manufactured solutions and coefficient
fields come with machine-exact Hessians.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class SmoothField:
    """A scalar field on R^n with batched callables for value and Hessian."""

    n: int
    value: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


def field_values(fn: Callable[[np.ndarray], np.ndarray], X: np.ndarray, name: str) -> np.ndarray:
    """fn evaluated on the (N, n) rows X, checked to give one float per row.

    A wrong shape, such as the scalar of a function written for one point,
    raises ValueError.
    """
    vals = np.asarray(fn(X), dtype=float)
    if vals.shape != (len(X),):
        raise ValueError(f"{name} returned shape {vals.shape}, expected ({len(X)},)")
    return vals


def _check_terms(terms: Sequence[Sequence[float]], n: int) -> list[tuple[float, tuple[int, ...]]]:
    parsed = []
    for term in terms:
        if len(term) != n + 1:
            raise ValueError(f"each term needs 1 coefficient + {n} exponents, got {term}")
        coeff = float(term[0])
        if any(e != int(e) for e in term[1:]):
            raise ValueError(f"non-integral exponent in term {term}")
        exps = tuple(int(e) for e in term[1:])
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in term {term}")
        parsed.append((coeff, exps))
    return parsed


def _poly_value(parsed, X: np.ndarray) -> np.ndarray:
    """The polynomial at each row of X (N, n), shape (N,)."""
    total = np.zeros(len(X))
    for coeff, exps in parsed:
        prod = np.full(len(X), coeff)
        for k, e in enumerate(exps):
            if e:
                prod *= X[:, k] ** e
        total += prod
    return total


def _diff_terms(parsed, axis: int):
    out = []
    for coeff, exps in parsed:
        e = exps[axis]
        if e == 0:
            continue
        new = list(exps)
        new[axis] = e - 1
        out.append((coeff * e, tuple(new)))
    return out


def polynomial_field(terms: Sequence[Sequence[float]], n: int) -> SmoothField:
    """Build a SmoothField from a monomial table, differentiating exactly.

    The Hessian is exactly symmetric: each entry (i, j) with i <= j is the
    polynomial of d^2/dx_i dx_j, written to (i, j) and (j, i), and an entry
    without terms stays 0.
    """
    parsed = _check_terms(terms, n)
    grads = [_diff_terms(parsed, i) for i in range(n)]
    hesses = [[_diff_terms(grads[i], j) for j in range(n)] for i in range(n)]

    def value(X):
        return _poly_value(parsed, np.asarray(X, dtype=float))

    def hessian(X):
        X = np.asarray(X, dtype=float)
        h = np.zeros((len(X), n, n))
        for i in range(n):
            for j in range(i, n):
                if hesses[i][j]:
                    h[:, i, j] = h[:, j, i] = _poly_value(hesses[i][j], X)
        return h

    return SmoothField(n, value, hessian)


def constant_field(k: float, n: int) -> SmoothField:
    k = float(k)
    return SmoothField(n, lambda X: np.full(len(X), k), lambda X: np.zeros((len(X), n, n)))
