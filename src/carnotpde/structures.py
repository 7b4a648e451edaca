"""Carnot-type structures: a horizontal frame sigma(x).

A structure is the data (n, m, sigma) where sigma(x) is an m x n matrix whose
rows are the horizontal vector fields. P(x) = sigma(x)^T sigma(x) is the
associated degenerate diffusion matrix. Presets cover the first Heisenberg
group, the Engel group, Euclidean space and two rank-one planar examples;
custom structures load from a JSON description with polynomial or rational
entries.

The frame is evaluated on batches: ``sigma`` maps an (N, n) array of points,
one per row, to the (N, m, n) stack of their frames. ``frames`` checks that
shape; ``sigma_at`` is the one-point form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError
from .fields import _check_terms, _poly_value
from .symmat import symmetrize


@dataclass(frozen=True)
class CarnotStructure:
    """sigma maps (N, n) points to their (N, m, n) frames. growth_limsup is the
    analytic limsup of Tr P(x) / |x|^2 as |x| grows, known for the presets
    only."""

    name: str
    n: int
    m: int
    sigma: Callable[[np.ndarray], np.ndarray]
    lipschitz_sigma: float | None = None
    growth_limsup: float | None = None


def as_point(x, n: int) -> np.ndarray:
    p = np.asarray(x, dtype=float).reshape(-1)
    if p.size != n:
        raise ValueError(f"point has dimension {p.size}, expected {n}")
    if not np.all(np.isfinite(p)):
        raise ValueError("point has non-finite entries")
    return p


def frames(s: CarnotStructure, X: np.ndarray) -> np.ndarray:
    """The frames sigma(x) at the (N, n) rows X, shape (N, m, n)."""
    mats = np.asarray(s.sigma(X), dtype=float)
    if mats.shape != (len(X), s.m, s.n):
        raise ValueError(f"sigma returned shape {mats.shape}, expected {(len(X), s.m, s.n)}")
    return mats


def sigma_at(s: CarnotStructure, x) -> np.ndarray:
    """Evaluate the horizontal frame matrix sigma(x), shape (m, n)."""
    return frames(s, as_point(x, s.n)[None, :])[0]


def p_matrix_at(s: CarnotStructure, x) -> np.ndarray:
    """P(x) = sigma(x)^T sigma(x); symmetric positive semidefinite."""
    mat = sigma_at(s, x)
    return symmetrize(mat.T @ mat)


def lipschitz_sigma_estimate(
    s: CarnotStructure, box: Sequence[Sequence[float]], samples: int = 256, seed: int = 0
) -> float:
    """Max Frobenius difference quotient of sigma over sampled point pairs.

    A lower bound for the true Lipschitz constant on the box. The sample
    includes the box corners (all of them up to dimension 6) so constant and
    affine frames are resolved exactly.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    lo = np.array([float(b[0]) for b in box])
    hi = np.array([float(b[1]) for b in box])
    if lo.size != s.n:
        raise ValueError(f"box has {lo.size} axes, expected {s.n}")
    rng = np.random.default_rng(seed)
    pts = lo + (hi - lo) * rng.random((samples, s.n))
    if s.n <= 6:
        bits = (np.arange(2**s.n)[:, None] >> np.arange(s.n)) & 1
        pts = np.vstack([pts, np.where(bits, hi, lo)])
    mats = frames(s, pts).reshape(len(pts), -1)
    i, j = np.triu_indices(len(pts), 1)
    gap = np.sqrt(((pts[i] - pts[j]) ** 2).sum(axis=1))
    diff = np.sqrt(((mats[i] - mats[j]) ** 2).sum(axis=1))
    apart = gap > 0.0
    return float((diff[apart] / gap[apart]).max(initial=0.0))


# ---------------------------------------------------------------------------
# presets


def _sigma_heisenberg(X):
    out = np.zeros((len(X), 2, 3))
    out[:, 0, 0] = out[:, 1, 1] = 1.0
    out[:, 0, 2] = 2.0 * X[:, 1]
    out[:, 1, 2] = -2.0 * X[:, 0]
    return out


def _sigma_engel(X):
    out = np.zeros((len(X), 2, 4))
    out[:, 0, 0] = out[:, 1, 1] = 1.0
    out[:, 0, 2] = -X[:, 1]
    out[:, 0, 3] = -X[:, 2]
    return out


def _constant_frame(mat: np.ndarray):
    return lambda X: np.tile(mat, (len(X), 1, 1))


def heisenberg_sqrt_transposed_variant(x) -> np.ndarray:
    """Closed-form square-root candidate for the Heisenberg P(x) whose first two
    diagonal entries are interchanged relative to the spectral square root.

    Squaring it does not recover P; it is kept as a documented counterexample
    (see the erratum checks in the lemma suite). Undefined at x1 = x2 = 0.
    """
    x = np.asarray(x, dtype=float)
    x1, x2 = x[0], x[1]
    rho2 = x1 * x1 + x2 * x2
    if rho2 == 0.0:
        raise ValueError("formula is undefined at x1 = x2 = 0")
    s = np.sqrt(1.0 + 4.0 * rho2)
    return np.array(
        [
            [(x2 * x2 + x1 * x1 / s) / rho2, x1 * x2 * (1.0 - 1.0 / s) / rho2, 2.0 * x2 / s],
            [x1 * x2 * (1.0 - 1.0 / s) / rho2, (x1 * x1 + x2 * x2 / s) / rho2, -2.0 * x1 / s],
            [2.0 * x2 / s, -2.0 * x1 / s, 4.0 * rho2 / s],
        ]
    )


def euclidean(n: int) -> CarnotStructure:
    return CarnotStructure(
        name=f"euclidean:{n}",
        n=n,
        m=n,
        sigma=_constant_frame(np.eye(n)),
        lipschitz_sigma=0.0,
        growth_limsup=0.0,
    )


def heisenberg1() -> CarnotStructure:
    return CarnotStructure(
        name="heisenberg1",
        n=3,
        m=2,
        sigma=_sigma_heisenberg,
        lipschitz_sigma=2.0,
        growth_limsup=4.0,  # Tr P = 2 + 4 (x1^2 + x2^2)
    )


def engel1() -> CarnotStructure:
    return CarnotStructure(
        name="engel1",
        n=4,
        m=2,
        sigma=_sigma_engel,
        lipschitz_sigma=1.0,
        growth_limsup=1.0,  # Tr P = 2 + x2^2 + x3^2
    )


def line2d() -> CarnotStructure:
    frame = _constant_frame(np.array([[1.0, 0.0]]))
    return CarnotStructure(
        name="line2d", n=2, m=1, sigma=frame, lipschitz_sigma=0.0, growth_limsup=0.0
    )


def grushin_like2d() -> CarnotStructure:
    def sigma(X):
        out = np.zeros((len(X), 1, 2))
        out[:, 0, 0] = X[:, 0] / (1.0 + X[:, 0] * X[:, 0])
        return out

    # sup |d/dt t/(1+t^2)| = 1 at t = 0
    return CarnotStructure(
        name="grushin-like2d",
        n=2,
        m=1,
        sigma=sigma,
        lipschitz_sigma=1.0,
        growth_limsup=0.0,
    )


_PRESETS = {
    "heisenberg1": heisenberg1,
    "engel1": engel1,
    "line2d": line2d,
    "grushin-like2d": grushin_like2d,
}


def preset(name: str) -> CarnotStructure:
    """Look up a structure by name: euclidean:<n>, heisenberg1, engel1, line2d, grushin-like2d."""
    if name.startswith("euclidean:"):
        n = int(name.split(":", 1)[1])
        if n < 1:
            raise ValueError("euclidean dimension must be >= 1")
        return euclidean(n)
    try:
        return _PRESETS[name]()
    except KeyError:
        raise ValueError(f"unknown structure preset {name!r}") from None


def _entry_callable(entry, n: int):
    """The entry as a function of the (N, n) rows X, shape (N,)."""
    if isinstance(entry, dict):
        num = _check_terms(entry["num"], n)
        den = _check_terms(entry["den"], n)

        def rational(X):
            d = _poly_value(den, X)
            if not d.all():
                x = X[np.argmin(d != 0.0)]
                raise NumericalError(
                    f"rational sigma entry has a vanishing denominator at x = {list(map(float, x))}"
                )
            return _poly_value(num, X) / d

        return rational
    parsed = _check_terms(entry, n)
    return lambda X: _poly_value(parsed, X)


def structure_from_json(desc: dict) -> CarnotStructure:
    """Build a structure from a JSON description with polynomial/rational entries.

    Expected keys: name, n, m (rows), entries (m x n nested list where each
    entry is a monomial table ``[[coeff, e1..en], ...]`` or
    ``{"num": table, "den": table}``) and an optional lipschitz_sigma. The
    run-config schema rejects any other key.
    """
    name = str(desc.get("name", "custom"))
    n = int(desc["n"])
    m = int(desc["m"])
    rows = desc["entries"]
    if len(rows) != m or any(len(r) != n for r in rows):
        raise ValueError(f"entries must be an {m} x {n} nested list")
    fns = [[_entry_callable(rows[i][j], n) for j in range(n)] for i in range(m)]

    def sigma(X):
        X = np.asarray(X, dtype=float)
        return np.stack([np.stack([fn(X) for fn in row], axis=-1) for row in fns], axis=1)

    lip = desc.get("lipschitz_sigma")
    return CarnotStructure(
        name=name,
        n=n,
        m=m,
        sigma=sigma,
        lipschitz_sigma=None if lip is None else float(lip),
    )
