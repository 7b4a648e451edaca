"""Unit tests for Holder modulus estimation and theorem verification."""

import dataclasses
import math
import tracemalloc
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np
import pytest

from _oracles import holder_seminorm
from carnotpde import (
    Coefficients,
    Grid,
    SolveConfig,
    bundle_for_instance,
    constant_field,
    fit_alpha,
    from_callable,
    holder,
    manufactured_rhs,
    polynomial_field,
    preset,
    solve,
    trace_operator,
    verify_theorem,
)
from carnotpde.config import build_setup, load_config
from carnotpde.errors import PreconditionError
from carnotpde.grids import GridFunction
from carnotpde.holder import (
    ALL_PAIRS_NODE_CAP,
    NUM_BINS,
    _binned,
    _fit,
    _lattice_distance,
    _offset_table,
    binned_increments,
    check_scan_size,
    max_quotient_violation,
    pair_count,
)

LINE = Grid((0.0,), (1.0,), (257,))
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# Reference pair scan: every ordered pair, chunked, each binned by its own
# lattice distance h|index difference|. A bin keeps its maximal increment and
# the nearest pair reaching it. The offset table in carnotpde.holder must
# reproduce its per-bin maxima and distances exactly and count each unordered
# pair once.


def _ref_scan_all_pairs(u, chunk=256) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    index = np.indices(u.grid.shape).reshape(u.grid.n, -1).T
    vals = u.flat
    n = index.shape[0]
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        diff = index[start:stop, None, :] - index[None, :, :]
        dist = _lattice_distance(u.grid.h, (diff * diff).sum(axis=2))
        inc = np.abs(vals[start:stop, None] - vals[None, :])
        mask = dist > 0.0
        yield dist[mask], inc[mask]


def _ref_edges(grid):
    diam = math.sqrt(sum((hi - lo) ** 2 for lo, hi in zip(grid.lo, grid.hi)))
    return np.geomspace(grid.h, diam * (1.0 + 1e-12), NUM_BINS + 1)


def _ref_binned_increments(u):
    edges = _ref_edges(u.grid)
    max_inc = np.full(NUM_BINS, -1.0)
    at_dist = np.full(NUM_BINS, np.inf)
    counts = np.zeros(NUM_BINS, dtype=np.int64)
    for dist, inc in _ref_scan_all_pairs(u):
        if dist.size == 0:
            continue
        bins = np.clip(np.searchsorted(edges, dist, side="right") - 1, 0, NUM_BINS - 1)
        for b in np.unique(bins):
            sel = bins == b
            counts[b] += int(sel.sum())
            local, local_dist = inc[sel], dist[sel]
            top = local.max()
            near = local_dist[local == top].min()
            if top > max_inc[b]:
                max_inc[b], at_dist[b] = top, near
            elif top == max_inc[b]:
                at_dist[b] = min(at_dist[b], near)
    return [
        {
            "distance": float(
                edges[b] if not counts[b] else at_dist[b] if max_inc[b] > 0 else 0.0
            ),
            "max_increment": float(max(max_inc[b], 0.0)),
            "pairs": int(counts[b]),
        }
        for b in range(NUM_BINS)
    ]


def _ref_holder_seminorm(u, alpha):
    best = 0.0
    for dist, inc in _ref_scan_all_pairs(u):
        if dist.size:
            best = max(best, float((inc / dist**alpha).max()))
    return best


def _step_function(X):
    return np.where(X[:, 0] + 0.5 * X[:, 1] - 0.25 * X[:, 2] > 0.1, 1.0, 0.0)


def _heisenberg_verify_solution(size):
    struct = preset("heisenberg1")
    spec = trace_operator(struct)
    ustar = polynomial_field([[1.0, 2, 0, 0], [1.0, 0, 1, 0]], 3)
    c = constant_field(16.0, 3).value
    coeffs = Coefficients(
        c=c,
        f=manufactured_rhs(spec, c, ustar),
        L_c=0.0,
        beta=1.0,
        L_f=16.0 * np.sqrt(5.0),
        beta_prime=1.0,
        c0=16.0,
    )
    grid = Grid((-1, -1, -1), (1, 1, 1), (size,) * 3)
    u, rep = solve(spec, coeffs, grid, SolveConfig(boundary=ustar.value))
    assert rep.converged
    return spec, coeffs, u, rep


@pytest.fixture(scope="module")
def heisenberg_verify_solution():
    return _heisenberg_verify_solution(16)


ORACLE_CASES = {
    "line-sqrt": lambda: from_callable(LINE, lambda X: np.sqrt(np.abs(X[:, 0]))),
    "square-33": lambda: from_callable(
        Grid((-1, -1), (1, 1), (33, 33)), lambda X: np.sin(3 * X[:, 0]) * X[:, 1] ** 2
    ),
    "step-9": lambda: from_callable(Grid((-1,) * 3, (1,) * 3, (9, 9, 9)), _step_function),
    "cube-17": lambda: from_callable(
        Grid((-1,) * 3, (1,) * 3, (17,) * 3), lambda X: X[:, 0] ** 2 + X[:, 1]
    ),
}


def _check_against_reference(u):
    table = binned_increments(u)
    ref = _ref_binned_increments(u)
    for row, old in zip(table, ref, strict=True):
        assert row["max_increment"] == old["max_increment"]
        assert row["distance"] == old["distance"]
        assert old["pairs"] % 2 == 0
        assert row["pairs"] == old["pairs"] // 2
    alpha, level = fit_alpha(u)
    ref_xs = [math.log(r["distance"]) for r in ref if r["pairs"] and r["max_increment"] > 0]
    ref_ys = [math.log(r["max_increment"]) for r in ref if r["pairs"] and r["max_increment"] > 0]
    ref_alpha = float(np.clip(float(np.polyfit(ref_xs, ref_ys, 1)[0]), 1e-9, 1.0))
    assert alpha == ref_alpha
    assert level == pytest.approx(_ref_holder_seminorm(u, ref_alpha), rel=1e-12, abs=0.0)
    assert max_quotient_violation(u, alpha, level) == 0.0
    n = u.grid.num_nodes
    total = sum(row["pairs"] for row in table)
    assert pair_count(u) == total == n * (n - 1) // 2


class TestOffsetTableMatchesPairScan:
    def test_zero_increment_bins(self):
        u = from_callable(Grid((-1, -1), (1, 1), (9, 9)), lambda X: np.full(len(X), 2.5))
        ref = _ref_binned_increments(u)
        table = binned_increments(u)
        assert [row["distance"] for row in table] == [row["distance"] for row in ref]
        assert all(row["max_increment"] == 0.0 for row in table)
        assert [2 * row["pairs"] for row in table] == [row["pairs"] for row in ref]

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_grids(self, case):
        _check_against_reference(ORACLE_CASES[case]())

    def test_heisenberg_verify_solution(self, heisenberg_verify_solution):
        spec, coeffs, u, rep = heisenberg_verify_solution
        _check_against_reference(u)
        report = verify_theorem(spec, coeffs, u, bundle_for_instance(spec, coeffs, u), rep)
        assert report.increments == binned_increments(u)
        assert report.pair_count == 4096 * 4095 // 2
        assert sum(row["pairs"] for row in report.increments) == report.pair_count
        assert report.max_violation == 0.0
        assert report.scan_s > 0.0


# ---------------------------------------------------------------------------
# Reference offset table: one slice difference per lexicographically positive
# lattice offset o, giving its distance h|o|, maximal increment and pair count.
# The table in carnotpde.holder holds one of each pair +-o with its distance
# and pair count, an upper bound on its maximal increment and, for the offsets
# its statistics scanned, the exact maximal increment. Every bound must hold,
# and every scanned row and every statistic must equal the loop's bit for bit.


def _ref_offset_table(u):
    """(offsets, distance, max_inc, pairs), one row per positive offset."""
    grid = u.grid
    span = 2 * np.array(grid.shape) - 1
    offsets = np.indices(span).reshape(grid.n, -1).T - span // 2  # in lexicographic order
    offsets = offsets[len(offsets) // 2 + 1 :]  # those after 0 are the positive ones
    max_inc = np.empty(len(offsets))
    pairs = np.empty(len(offsets), dtype=np.int64)
    for k, offset in enumerate(offsets.tolist()):
        from_x = tuple(slice(max(-o, 0), size - max(o, 0)) for o, size in zip(offset, grid.shape))
        to_x = tuple(slice(max(o, 0), size - max(-o, 0)) for o, size in zip(offset, grid.shape))
        inc = np.abs(u.values[to_x] - u.values[from_x])
        max_inc[k], pairs[k] = inc.max(), inc.size
    distance = _lattice_distance(grid.h, (offsets * offsets).sum(axis=1))
    return offsets, distance, max_inc, pairs


def _lattice_grid(shape):
    return Grid((0.0,) * len(shape), tuple((s - 1) / 8.0 for s in shape), shape)


def _tie_heavy(shape):
    """u drawn from {0, 1, 2}: most offsets have many maximal pairs."""
    rng = np.random.default_rng(sum(shape))
    return GridFunction(_lattice_grid(shape), rng.integers(0, 3, size=shape).astype(float))


def _rough(shape, base=0.0):
    """base plus a seeded normal: nearly every bound reaches its bin's best."""
    rng = np.random.default_rng(len(shape) + sum(shape))
    return GridFunction(_lattice_grid(shape), base + rng.normal(size=shape))


def _ramp(shape):
    """A linear u through 0 with irrational slopes of unlike sizes: along an
    axis-parallel path its increments add up exactly, up to the rounding of
    values and differences, and only the bound's slack keeps a computed
    increment below the computed sum of its axis steps."""
    X = np.indices(shape).reshape(len(shape), -1).T / 8.0
    slopes = np.array([100 * math.pi, math.e, math.sqrt(2.0) / 100])[: len(shape)]
    return GridFunction(_lattice_grid(shape), (X @ slopes - 200.0).reshape(shape))


# (64, 64) has the largest block a lead can form on 4096 nodes
TIE_SHAPES = [(5, 7, 3), (9, 11), (3, 3, 3, 3), (3, 1365), (64, 64)]
TABLE_CASES = {
    **ORACLE_CASES,
    **{"ties-" + "x".join(map(str, s)): partial(_tie_heavy, s) for s in TIE_SHAPES},
    "constant-9x9": lambda: GridFunction(_lattice_grid((9, 9)), np.full((9, 9), 2.5)),
}
# rough u, where nearly every row is scanned, and linear ramps, where only
# the bound's rounding slack keeps it sound (ramp-16 fails without it)
BOUND_CASES = {
    "normal-16": partial(_rough, (16,) * 3),
    "1e8-plus-normal-16": partial(_rough, (16,) * 3, 1e8),
    "ramp-16": partial(_ramp, (16,) * 3),
    "ramp-33x65": partial(_ramp, (33, 65)),
}


def _refined_table(u):
    """The offset table after verify_theorem's passes: the bins, then the
    quotient at alpha_fit."""
    table = _offset_table(u)
    _fit(table, _binned(u.grid, table))
    return table


def _positive(offsets):
    """Each (K, n) offset as the lexicographically positive one of +-o."""
    lead = offsets[np.arange(len(offsets)), (offsets != 0).argmax(axis=1)]
    return offsets * np.where(lead < 0, -1, 1)[:, None]


def _row_offsets(table, shape):
    """Each row's offset in the grid's axis order, read from its index
    lead * (2L - 1) + d - 1: d along the batched axis, the grid's first
    shortest one (none on a line), and the lead along the other axes."""
    L = table.lines.shape[0]
    lead, d = np.divmod(np.arange(len(table.pairs)) + L, 2 * L - 1)
    if len(shape) == 1:
        return table.leads[lead]
    return np.insert(table.leads[lead], int(np.argmin(shape)), d + 1 - L, axis=1)


def _assert_table_matches_loop(u):
    assert u.grid.num_nodes <= ALL_PAIRS_NODE_CAP
    table = _refined_table(u)
    offsets, distance, max_inc, pairs = _ref_offset_table(u)
    ours = _positive(_row_offsets(table, u.grid.shape))
    # one row per pair +-o, matched to the loop's row of the same offset
    order = np.lexsort(ours.T[::-1])
    assert np.array_equal(ours[order], offsets)
    assert np.array_equal(table.distance[order], distance)
    assert np.array_equal(table.pairs[order], pairs)
    bound, exact = table.bound[order], table.max_inc[order]
    assert (max_inc <= bound).all()
    scanned = ~np.isnan(exact)
    assert scanned.any()
    assert np.array_equal(exact[scanned], max_inc[scanned])


class TestLineScanMatchesPerOffsetLoop:
    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_cases(self, case):
        _assert_table_matches_loop(TABLE_CASES[case]())

    def test_heisenberg_verify_solution(self, heisenberg_verify_solution):
        _assert_table_matches_loop(heisenberg_verify_solution[2])

    @pytest.mark.parametrize("case", sorted(BOUND_CASES))
    def test_bound_holds(self, case):
        _assert_table_matches_loop(BOUND_CASES[case]())

    @pytest.mark.parametrize("shape", [(3, 1365), (4096,), (64, 64)])
    def test_scratch_memory_is_bounded(self, shape):
        u = _tie_heavy(shape)
        tracemalloc.start()
        try:
            _offset_table(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("shape", [(181, 181), (3, 1365), (4096,)])
    def test_building_the_table_forms_no_block(self, shape, monkeypatch):
        # the table scans its offsets along one axis, the A_k of the bound,
        # one slice difference each: the zero lead taken whole would form
        # the largest block of all
        def no_block(*args):
            raise AssertionError("the table formed a block while it was built")

        monkeypatch.setattr(holder, "_line_scan", no_block)
        u = from_callable(_lattice_grid(shape), lambda X: np.sin(X.sum(axis=1)))
        table = _offset_table(u)
        assert table.scanned == sum(s - 1 for s in shape)
        on_axis = np.count_nonzero(_row_offsets(table, shape), axis=1) == 1
        assert np.array_equal(~np.isnan(table.max_inc), on_axis)

    @pytest.mark.parametrize("shape", [(3, 1365), (4096,), (64, 64)])
    def test_refined_scan_memory_is_bounded(self, shape):
        # tie-heavy: every bound reaches its bin's best, so every lead is formed whole
        u = _tie_heavy(shape)
        tracemalloc.start()
        try:
            _refined_table(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _ref_statistics(u):
    """binned increments, (alpha_fit, L_fit), pair count and the quotient
    maximum at any alpha, all from the per-offset loop."""
    _, distance, max_inc, pairs = _ref_offset_table(u)
    edges = _ref_edges(u.grid)
    bins = np.clip(np.searchsorted(edges, distance, side="right") - 1, 0, NUM_BINS - 1)
    table = []
    for b in range(NUM_BINS):
        sel = bins == b
        row = {"distance": float(edges[b]), "max_increment": 0.0, "pairs": 0}
        if sel.any():
            top = max_inc[sel].max()
            near = distance[sel][max_inc[sel] == top].min()
            row = {"distance": float(near if top else 0.0), "max_increment": float(top)}
            row["pairs"] = int(pairs[sel].sum())
        table.append(row)
    quotient = lambda a: float((max_inc / distance**a).max())  # noqa: E731
    kept = [r for r in table if r["pairs"] and r["max_increment"] > 0]
    if len(kept) < 3:
        return table, None, int(pairs.sum()), quotient
    xs = [math.log(r["distance"]) for r in kept]
    ys = [math.log(r["max_increment"]) for r in kept]
    alpha = float(np.clip(float(np.polyfit(xs, ys, 1)[0]), 1e-9, 1.0))
    return table, (alpha, quotient(alpha)), int(pairs.sum()), quotient


STATISTIC_CASES = {
    **TABLE_CASES,
    "normal-16": partial(_rough, (16,) * 3),
    "heisenberg-24": lambda: _heisenberg_verify_solution(24)[2],
}


def _assert_statistics_match_loop(u):
    table, fit, count, quotient = _ref_statistics(u)
    n = u.grid.num_nodes
    assert binned_increments(u) == table
    assert pair_count(u) == count == n * (n - 1) // 2
    if fit is None:  # a constant u
        alpha, level = fit_alpha(u)
        assert math.isnan(alpha) and level == 0.0
    else:
        assert fit_alpha(u) == fit
    for alpha in (0.1, 0.5, 1.0):
        assert max_quotient_violation(u, alpha, 0.25) == quotient(alpha) - 0.25
        assert holder_seminorm(u, alpha) == max(quotient(alpha), 0.0)


class TestStatisticsMatchPerOffsetLoop:
    @pytest.mark.parametrize("case", sorted(STATISTIC_CASES))
    def test_cases(self, case):
        _assert_statistics_match_loop(STATISTIC_CASES[case]())

    def test_heisenberg_verify_solution(self, heisenberg_verify_solution):
        _assert_statistics_match_loop(heisenberg_verify_solution[2])

    def test_report_counts_the_offsets_it_scanned(self, heisenberg_verify_solution):
        spec, coeffs, u, rep = heisenberg_verify_solution
        report = verify_theorem(spec, coeffs, u, bundle_for_instance(spec, coeffs, u), rep)
        assert report.offsets_total == (31**3 - 1) // 2
        assert 0 < report.offsets_scanned < report.offsets_total / 10
        assert report.pair_count == 4096 * 4095 // 2
        payload = report.to_dict()
        assert payload["schema_version"] == 2
        assert payload["offsets_scanned"] == report.offsets_scanned


class TestExactScanCap:
    # every grid up to ALL_PAIRS_NODE_CAP = 32^3 nodes is scanned exactly, and
    # a larger one is refused: no statistic is read from a sample
    def test_verify_on_17_cubed_ignores_the_seed(self):
        spec, coeffs, u, rep = _heisenberg_verify_solution(17)
        bundle = bundle_for_instance(spec, coeffs, u)
        first, second = (verify_theorem(spec, coeffs, u, bundle, rep, seed=s) for s in (0, 3))
        for name in ("alpha_fit", "L_fit", "increments", "pair_count"):
            assert getattr(first, name) == getattr(second, name), name
        assert first.pair_count == 4913 * 4912 // 2

    def test_grid_past_the_cap_is_refused(self):
        grid = Grid((-1,) * 3, (1,) * 3, (33,) * 3)
        assert grid.num_nodes == 35937 > ALL_PAIRS_NODE_CAP == 32**3
        u = from_callable(grid, lambda X: X[:, 0] ** 2 + X[:, 1])
        for stat in (
            binned_increments,
            fit_alpha,
            pair_count,
            partial(holder_seminorm, alpha=0.5),
            partial(max_quotient_violation, alpha=0.5, L=1.0),
        ):
            with pytest.raises(PreconditionError, match="at most 32768 nodes; this grid has 35937"):
                stat(u)

    def test_node_count_past_int64_is_refused(self):
        # (2^21 + 1)^3 nodes wrap an int64 product to a negative count; the
        # grid is only described, no array is built for it
        grid = Grid((0.0,) * 3, (1.0,) * 3, (2**21 + 1,) * 3)
        assert grid.num_nodes == (2**21 + 1) ** 3 > 2**63
        with pytest.raises(PreconditionError, match=f"this grid has {(2**21 + 1) ** 3}"):
            check_scan_size(grid.shape)


def _renumbered(u):
    """u on the transposed grid, then reflected along each axis in turn."""
    g = u.grid
    yield GridFunction(Grid(g.lo[::-1], g.hi[::-1], g.shape[::-1]), u.values.T)
    for k in range(g.n):
        yield GridFunction(g, np.flip(u.values, k))


def _assert_numbering_invariant(u):
    # transposing and reflecting are isometries of the lattice, so every
    # statistic of the exhaustive scan must come out bit for bit the same
    assert u.grid.num_nodes <= ALL_PAIRS_NODE_CAP
    alpha, level = fit_alpha(u)
    increments = binned_increments(u)
    seminorm = holder_seminorm(u, alpha)
    for v in _renumbered(u):
        assert fit_alpha(v) == (alpha, level)
        assert binned_increments(v) == increments
        assert holder_seminorm(v, alpha) == seminorm


class TestNumberingInvariance:
    @pytest.mark.parametrize("name", ["euclidean_pucci.json", "line2d.json"])
    def test_solved_config(self, name):
        setup = build_setup(load_config(CONFIGS / name), need_solve=True)
        u, rep = solve(setup.spec, setup.coeffs, setup.grid, setup.solve_cfg)
        assert rep.converged
        _assert_numbering_invariant(u)

    def test_heisenberg_verify_solution(self, heisenberg_verify_solution):
        _assert_numbering_invariant(heisenberg_verify_solution[2])

    @pytest.mark.parametrize("shape", [(9, 11), (5, 7, 3)])
    def test_tie_heavy(self, shape):
        _assert_numbering_invariant(_tie_heavy(shape))


class TestSeminorm:
    def test_constant(self):
        u = from_callable(LINE, lambda X: np.full(len(X), 4.2))
        assert holder_seminorm(u, 0.7) == 0.0

    def test_linear(self):
        u = from_callable(LINE, lambda X: X[:, 0])
        assert holder_seminorm(u, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_square_root(self):
        u = from_callable(LINE, lambda X: np.sqrt(np.abs(X[:, 0])))
        assert holder_seminorm(u, 0.5) == pytest.approx(1.0, rel=0.02)

    def test_monotone_in_exponent_for_subunit_distances(self):
        # on a box of diameter 1 every pair distance is <= 1, so r^(-alpha)
        # grows with alpha and the seminorm cannot decrease
        u = from_callable(LINE, lambda X: np.sqrt(np.abs(X[:, 0])))
        values = [holder_seminorm(u, a) for a in (0.2, 0.4, 0.6, 0.8, 1.0)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_alpha_validation(self):
        u = from_callable(LINE, lambda X: X[:, 0])
        with pytest.raises(ValueError):
            holder_seminorm(u, 0.0)


class TestNonFiniteValues:
    # unchecked, one non-finite node gives numpy's empty-reduction error in the
    # binning or a nan statistic instead of naming the bad input
    @pytest.mark.parametrize("shape", [(9, 9), (17, 17, 17)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_by_every_statistic(self, shape, bad):
        n = len(shape)
        grid = Grid((-1.0,) * n, (1.0,) * n, shape)
        u = from_callable(grid, lambda X: X[:, 0] ** 2)
        u.values[(4,) * n] = bad
        for stat in (
            binned_increments,
            fit_alpha,
            partial(holder_seminorm, alpha=0.5),
            partial(max_quotient_violation, alpha=0.5, L=1.0),
        ):
            with pytest.raises(ValueError, match="grid function has a non-finite value"):
                stat(u)


class TestFitAlpha:
    def test_linear_profile(self):
        u = from_callable(LINE, lambda X: X[:, 0])
        alpha, level = fit_alpha(u)
        assert alpha == pytest.approx(1.0, abs=0.05)
        assert level == pytest.approx(1.0, abs=0.05)

    def test_square_root_profile(self):
        u = from_callable(LINE, lambda X: np.sqrt(np.abs(X[:, 0])))
        alpha, _ = fit_alpha(u)
        assert alpha == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize("gamma", [0.3, 0.5, 0.7, 1.0])
    def test_power_profiles(self, gamma):
        u = from_callable(LINE, lambda X: np.abs(X[:, 0]) ** gamma)
        alpha, _ = fit_alpha(u)
        assert alpha == pytest.approx(gamma, abs=0.05)

    def test_constant_degenerate(self):
        u = from_callable(LINE, lambda X: np.ones(len(X)))
        alpha, level = fit_alpha(u)
        assert math.isnan(alpha)
        assert level == 0.0

    def test_violation_nonpositive_all_pairs(self):
        u = from_callable(LINE, lambda X: np.sqrt(np.abs(X[:, 0])))
        alpha, level = fit_alpha(u)
        assert max_quotient_violation(u, alpha, level) <= 0.0

    @pytest.mark.parametrize(
        "grid", [LINE, Grid((-1, -1, -1), (1, 1, 1), (24, 24, 24))], ids=["line", "cube-24"]
    )
    def test_bins_count_each_unordered_pair_once(self, grid):
        u = from_callable(grid, lambda X: X[:, 0] ** 2)
        total = sum(row["pairs"] for row in binned_increments(u))
        n = grid.num_nodes
        assert total == pair_count(u) == n * (n - 1) // 2

    def test_binned_table_shape(self):
        u = from_callable(LINE, lambda X: X[:, 0])
        table = binned_increments(u)
        assert len(table) == 12
        assert all(set(row) == {"distance", "max_increment", "pairs"} for row in table)


@pytest.fixture(scope="module")
def smooth_euclidean_instance():
    struct = preset("euclidean:2")
    spec = trace_operator(struct)
    ustar = polynomial_field([[1.0, 1, 0], [0.2, 0, 2]], 2)  # x1 + 0.2 x2^2
    c = constant_field(1.0, 2).value
    f = manufactured_rhs(spec, c, ustar)
    coeffs = Coefficients(c=c, f=f, L_c=0.0, beta=1.0, L_f=2.0, beta_prime=1.0, c0=1.0)
    grid = Grid((-1, -1), (1, 1), (33, 33))
    u, rep = solve(spec, coeffs, grid, SolveConfig(boundary=ustar.value))
    return spec, coeffs, u, rep


class TestVerifyTheorem:

    def test_smooth_instance_regular(self, smooth_euclidean_instance):
        spec, coeffs, u, rep = smooth_euclidean_instance
        assert rep.converged
        bundle = bundle_for_instance(spec, coeffs, u)
        report = verify_theorem(spec, coeffs, u, bundle, rep)
        assert report.hypotheses_pass
        assert 0.8 <= report.alpha_fit <= 1.0
        assert report.max_violation <= 0.0
        assert math.isfinite(report.theorem_bound)

    def test_verdicts_are_the_checks_that_can_fail(self, smooth_euclidean_instance):
        # c0 > 0 has no verdict: ConstantBundle already rejects c0 <= 0
        spec, coeffs, u, rep = smooth_euclidean_instance
        bundle = bundle_for_instance(spec, coeffs, u)
        report = verify_theorem(spec, coeffs, u, bundle, rep)
        assert set(report.hypothesis_verdicts) == {"lipschitz_sigma", "growth_condition"}

    def test_requires_converged_solve(self, smooth_euclidean_instance):
        spec, coeffs, u, rep = smooth_euclidean_instance
        bundle = bundle_for_instance(spec, coeffs, u)
        broken = dataclasses.replace(rep, converged=False)
        with pytest.raises(PreconditionError):
            verify_theorem(spec, coeffs, u, bundle, broken)

    def test_constant_solution_has_no_exponent(self, smooth_euclidean_instance):
        spec, coeffs, u, rep = smooth_euclidean_instance
        flat = GridFunction(u.grid, np.ones(u.grid.shape))
        bundle = bundle_for_instance(spec, coeffs, flat)
        with pytest.raises(PreconditionError, match="constant solution"):
            verify_theorem(spec, coeffs, flat, bundle, rep)

    def test_inadmissible_alpha_has_no_bound(self, smooth_euclidean_instance):
        spec, coeffs, u, rep = smooth_euclidean_instance
        bundle = bundle_for_instance(spec, coeffs, u)
        # C Lambda = 10 c0 puts the admissible range at alpha < 0.1
        big = dataclasses.replace(bundle, C=10.0 * bundle.c0 / bundle.Lambda)
        report = verify_theorem(spec, coeffs, u, big, rep)
        assert report.alpha_fit >= big.c0 / (big.C * big.Lambda)
        assert report.admissible_alpha is False
        assert report.theorem_bound == math.inf
        assert report.l_fit_within_bound is False

    def test_growth_verdict_depends_on_c0(self):
        struct = preset("heisenberg1")
        spec = trace_operator(struct)
        ustar = polynomial_field([[1.0, 2, 0, 0], [1.0, 0, 1, 0]], 3)
        grid = Grid((-1, -1, -1), (1, 1, 1), (9, 9, 9))
        for c0, expected in ((16.0, True), (1.0, False)):
            c = constant_field(c0, 3).value
            f = manufactured_rhs(spec, c, ustar)
            coeffs = Coefficients(
                c=c, f=f, L_c=0.0, beta=1.0, L_f=c0 * np.sqrt(5.0), beta_prime=1.0, c0=c0
            )
            u, rep = solve(spec, coeffs, grid, SolveConfig(boundary=ustar.value))
            assert rep.converged
            bundle = bundle_for_instance(spec, coeffs, u)
            report = verify_theorem(spec, coeffs, u, bundle, rep)
            assert report.hypothesis_verdicts["growth_condition"] is expected
            assert not report.growth_box_local

    def test_bundle_constants(self):
        struct = preset("heisenberg1")
        spec = trace_operator(struct)
        ustar = polynomial_field([[1.0, 2, 0, 0], [1.0, 0, 1, 0]], 3)
        c = constant_field(1.0, 3).value
        f = manufactured_rhs(spec, c, ustar)
        coeffs = Coefficients(
            c=c, f=f, L_c=0.0, beta=1.0, L_f=np.sqrt(5.0), beta_prime=1.0, c0=1.0
        )
        grid = Grid((-1, -1, -1), (1, 1, 1), (9, 9, 9))
        u, _ = solve(spec, coeffs, grid, SolveConfig(boundary=ustar.value))
        k = bundle_for_instance(spec, coeffs, u, eta=1.1)
        # the sampled Lipschitz bound of the Heisenberg frame on this box is 2
        assert k.C == pytest.approx(1.1 * 4.0, rel=1e-9)
        assert k.u_inf == pytest.approx(2.0, abs=0.05)
        assert k.Lambda == 1.0

    def test_box_local_growth_for_custom_structure(self):
        from carnotpde import structure_from_json

        desc = {
            "name": "planar-shear",
            "n": 2,
            "m": 1,
            "entries": [[[[1.0, 0, 0]], [[0.0, 0, 0]]]],
        }
        struct = structure_from_json(desc)
        spec = trace_operator(struct)
        ustar = polynomial_field([[1.0, 2, 0]], 2)
        c = constant_field(2.0, 2).value
        f = manufactured_rhs(spec, c, ustar)
        coeffs = Coefficients(c=c, f=f, L_c=0.0, beta=1.0, L_f=2.0, beta_prime=1.0, c0=2.0)
        grid = Grid((-1, -1), (1, 1), (17, 17))
        u, rep = solve(spec, coeffs, grid, SolveConfig(boundary=ustar.value))
        bundle = bundle_for_instance(spec, coeffs, u)
        report = verify_theorem(spec, coeffs, u, bundle, rep)
        assert report.growth_box_local
        # Tr P = 1 here, so margins on spheres of radius >= 1 are nonpositive
        assert report.hypothesis_verdicts["growth_condition"]

    def test_growth_reads_the_largest_radius(self):
        # Tr P = 1 + x1^2 on this Grushin-type frame, so the margin at radius
        # r is 1 / r^2 + 1 - c0 / 2: with c0 = 4 it meets the tolerance from
        # r = 1 on, the box half-width, and only the largest radius counts
        from carnotpde import structure_from_json

        rows = [[[[1.0, 0, 0]], [[0.0, 0, 0]]], [[[0.0, 0, 0]], [[1.0, 1, 0]]]]
        spec = trace_operator(structure_from_json({"n": 2, "m": 2, "entries": rows}))
        ustar = polynomial_field([[1.0, 2, 0]], 2)
        c = constant_field(4.0, 2).value
        f = manufactured_rhs(spec, c, ustar)
        coeffs = Coefficients(c=c, f=f, L_c=0.0, beta=1.0, L_f=8.0, beta_prime=1.0, c0=4.0)
        grid = Grid((-1, -1), (1, 1), (9, 9))
        u, rep = solve(spec, coeffs, grid, SolveConfig(boundary=ustar.value))
        bundle = bundle_for_instance(spec, coeffs, u)
        cases = [(None, True), ([1.0], True), ([0.25, 0.5, 1.0], True), ([1.0, 0.25], True)]
        for radii, passes in cases + [([0.5], False)]:
            report = verify_theorem(spec, coeffs, u, bundle, rep, growth_radii=radii)
            assert report.growth_box_local
            assert report.hypothesis_verdicts["growth_condition"] is passes, radii
