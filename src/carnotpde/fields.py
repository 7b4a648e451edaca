"""Scalar fields with exact gradients and Hessians.

Polynomial fields are given as monomial tables ``[[coeff, e1, ..., en], ...]``
and differentiated term by term, so manufactured solutions and coefficient
fields come with machine-exact derivatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


@dataclass(frozen=True)
class SmoothField:
    """A scalar field on R^n with callables for value, gradient and Hessian."""

    n: int
    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


def _check_terms(terms: Sequence[Sequence[float]], n: int) -> list[tuple[float, tuple[int, ...]]]:
    parsed = []
    for term in terms:
        if len(term) != n + 1:
            raise ValueError(f"each term needs 1 coefficient + {n} exponents, got {term}")
        coeff = float(term[0])
        exps = tuple(int(e) for e in term[1:])
        if any(e < 0 for e in exps):
            raise ValueError(f"negative exponent in term {term}")
        parsed.append((coeff, exps))
    return parsed


def _poly_value(parsed, x: np.ndarray) -> float:
    total = 0.0
    for coeff, exps in parsed:
        prod = coeff
        for xi, e in zip(x, exps):
            if e:
                prod *= xi**e
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
    """Build a SmoothField from a monomial table, differentiating exactly."""
    parsed = _check_terms(terms, n)
    grads = [_diff_terms(parsed, i) for i in range(n)]
    hesses = [[_diff_terms(grads[i], j) for j in range(n)] for i in range(n)]

    def value(x):
        return _poly_value(parsed, np.asarray(x, dtype=float))

    def gradient(x):
        x = np.asarray(x, dtype=float)
        return np.array([_poly_value(g, x) for g in grads])

    def hessian(x):
        x = np.asarray(x, dtype=float)
        h = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                h[i, j] = _poly_value(hesses[i][j], x)
        return (h + h.T) / 2.0

    return SmoothField(n, value, gradient, hessian)


def constant_field(k: float, n: int) -> SmoothField:
    k = float(k)
    return SmoothField(
        n,
        lambda x: k,
        lambda x: np.zeros(n),
        lambda x: np.zeros((n, n)),
    )
