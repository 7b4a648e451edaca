"""Unit tests for the control-graph distance estimator."""

import heapq
import tracemalloc

import numpy as np
import pytest

from carnotpde import CarnotStructure, cc_distance_estimate, cc_search, ccdist, preset
from carnotpde.ccdist import default_box
from carnotpde.errors import NoPathError, NumericalError
from carnotpde.structures import as_point, sigma_at


def _heap_reference(s, a, b, resolution, box=None, goal_tol=None, max_nodes=2_000_000):
    """The earlier Dijkstra-heap search, kept as a test oracle.

    Returns (distance, states popped, goal level, largest level). Every move
    costs resolution, so the heap pops states level by level, in push order
    within a level; cc_search must return the same float, settle the same
    number of states and report the same levels and frontier_peak. After the
    goal pops, the rest of its level is popped and settled, not expanded, to
    count the goal level's states as the level-synchronous search does.
    """
    start = as_point(a, s.n)
    goal = as_point(b, s.n)
    tol = resolution / 2.0 if goal_tol is None else float(goal_tol)
    if float(np.linalg.norm(start - goal)) <= tol:
        return 0.0, 0, 0, 0
    if box is None:
        box = default_box(start, goal)
    lo = np.array([float(c[0]) for c in box])
    hi = np.array([float(c[1]) for c in box])
    cell = resolution / 2.0
    tol2 = tol * tol

    def key(p):
        return tuple(int(np.floor(c / cell)) for c in p)

    settled = set()
    sizes = []  # states settled per level
    heap = [(0.0, 0, 0, start)]
    counter = 1
    popped = 0
    while heap:
        cost, _, depth, state = heapq.heappop(heap)
        k = key(state)
        if k in settled:
            continue
        settled.add(k)
        popped += 1
        if depth == len(sizes):
            sizes.append(0)
        sizes[depth] += 1
        gap = state - goal
        if float(gap @ gap) <= tol2:
            while heap and heap[0][2] == depth:
                rest = key(heapq.heappop(heap)[3])
                if rest not in settled:
                    settled.add(rest)
                    sizes[depth] += 1
            return cost, popped, depth, max(sizes)
        if popped >= max_nodes:
            raise NoPathError(
                f"node budget {max_nodes} exhausted at cost {cost:.4g}; "
                "enlarge the box or refine the resolution"
            )
        frame = sigma_at(s, state)
        for i in range(s.m):
            row = frame[i]
            for sign in (1.0, -1.0):
                nxt = state + (sign * resolution) * row
                if np.any(nxt < lo) or np.any(nxt > hi):
                    continue
                if key(nxt) in settled:
                    continue
                heapq.heappush(heap, (cost + resolution, counter, depth + 1, nxt))
                counter += 1
    raise NoPathError(
        "goal not reachable within the box at this resolution; "
        "enlarge the box or refine the resolution"
    )


def _figures(result):
    return result.distance, result.nodes_settled, result.levels, result.frontier_peak


def _frame_with(value, threshold=0.35):
    """Heisenberg frame whose first entry is value wherever x1 > threshold."""
    base = preset("heisenberg1").sigma

    def sigma(X):
        frame = np.array(base(X), dtype=float)
        frame[X[:, 0] > threshold, 0, 0] = value
        return frame

    return CarnotStructure(name="broken", n=3, m=2, sigma=sigma)


class TestBasics:
    def test_coincident_points(self):
        for name in ("euclidean:2", "heisenberg1"):
            s = preset(name)
            assert cc_distance_estimate(s, np.zeros(s.n), np.zeros(s.n), 0.1) == 0.0
            result = cc_search(s, np.zeros(s.n), np.zeros(s.n), 0.1)
            assert (result.nodes_settled, result.levels, result.frontier_peak) == (0, 0, 0)

    def test_euclidean_axis_segment(self):
        d = cc_distance_estimate(preset("euclidean:2"), [0, 0], [1, 0], 0.05)
        assert d == pytest.approx(1.0, abs=0.05)

    def test_heisenberg_horizontal_segment(self):
        d = cc_distance_estimate(preset("heisenberg1"), [0, 0, 0], [1, 0, 0], 0.1)
        assert d == pytest.approx(1.0, abs=0.1)

    def test_engel_horizontal_segment(self):
        # from the origin the first Engel field is the first axis direction
        d = cc_distance_estimate(preset("engel1"), [0, 0, 0, 0], [0.5, 0, 0, 0], 0.1)
        assert d == pytest.approx(0.5, abs=0.1)

    def test_endpoint_outside_box(self):
        with pytest.raises(ValueError):
            cc_distance_estimate(preset("euclidean:2"), [0, 0], [1, 0], 0.1, box=[(-0.5, 0.5)] * 2)

    @pytest.mark.parametrize(
        "box,message",
        [
            ([(-1.0, 1.0)] * 2, r"box must have 3 rows, one \(lo, hi\) per coordinate; got 2"),
            ([(-1.0, 1.0)] * 4, r"box must have 3 rows, one \(lo, hi\) per coordinate; got 4"),
            ([], r"box must have 3 rows, one \(lo, hi\) per coordinate; got 0"),
            ([(-1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)], r"box row 1 has lo > hi: \[1, -1\]"),
        ],
        ids=["two_rows", "four_rows", "empty", "reversed_row"],
    )
    def test_malformed_box(self, box, message):
        with pytest.raises(ValueError, match=message):
            cc_search(preset("heisenberg1"), [0, 0, 0], [0.5, 0, 0], 0.1, box=box)

    def test_unreachable_goal(self):
        # the rank-one planar frame only moves along the first axis
        with pytest.raises(NoPathError):
            cc_distance_estimate(preset("line2d"), [0, 0], [0, 1], 0.1)


class TestMetricProperties:
    def test_symmetry_within_resolution(self):
        s = preset("heisenberg1")
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([0.6, 0.4, 0.0])
        res = 0.1
        d_ab = cc_distance_estimate(s, a, b, res)
        d_ba = cc_distance_estimate(s, b, a, res)
        assert abs(d_ab - d_ba) <= 2.0 * res

    def test_triangle_inequality_within_two_resolutions(self):
        s = preset("heisenberg1")
        res = 0.1
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([0.5, 0.0, 0.0])
        c = np.array([0.5, 0.5, 0.0])
        box = [(-1.5, 1.5)] * 3
        d_ac = cc_distance_estimate(s, a, c, res, box=box)
        d_ab = cc_distance_estimate(s, a, b, res, box=box)
        d_bc = cc_distance_estimate(s, b, c, res, box=box)
        assert d_ac <= d_ab + d_bc + 2.0 * res

    def test_refinement_does_not_increase_length(self):
        s = preset("heisenberg1")
        a = np.array([0.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 0.25])
        coarse = cc_distance_estimate(s, a, b, 0.1)
        fine = cc_distance_estimate(s, a, b, 0.05)
        assert fine <= coarse + 1e-9

    def test_vertical_square_root_scaling(self):
        s = preset("heisenberg1")
        ratios = []
        for t in (0.25, 0.5):
            d = cc_distance_estimate(s, [0, 0, 0], [0, 0, t], 0.05)
            ratios.append(d / np.sqrt(t))
        spread = (max(ratios) - min(ratios)) / np.mean(ratios)
        assert spread < 0.25

    def test_deterministic(self):
        s = preset("heisenberg1")
        d1 = cc_distance_estimate(s, [0, 0, 0], [0.4, 0.2, 0.1], 0.1)
        d2 = cc_distance_estimate(s, [0, 0, 0], [0.4, 0.2, 0.1], 0.1)
        assert d1 == d2

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            cc_distance_estimate(preset("euclidean:2"), [0, 0], [1, 0], 0.0)

    @pytest.mark.parametrize(
        "resolution,kwargs",
        [
            (np.inf, {}),
            (np.nan, {}),
            (0.1, {"goal_tol": np.inf}),
            (0.1, {"goal_tol": np.nan}),
            (0.1, {"goal_tol": -0.05}),
            (0.1, {"box": [(np.nan, 1.0), (-1.0, 1.0), (-1.0, 1.0)]}),
            (0.1, {"box": [(-1.0, 1.0), (-1.0, np.nan), (-1.0, 1.0)]}),
        ],
    )
    def test_non_finite_inputs_are_rejected(self, resolution, kwargs):
        # an infinite resolution or goal_tol once returned 0 at once, a NaN one
        # searched the whole box and raised NoPathError
        with pytest.raises(ValueError):
            cc_search(preset("heisenberg1"), [0, 0, 0], [0.5, 0, 0], resolution, **kwargs)


# (preset, a, b, keyword arguments), all at resolution 0.1
EQUIVALENCE_QUERIES = [
    ("heisenberg1", [0, 0, 0], [0.6, 0.4, 0.0], {}),
    ("heisenberg1", [0.6, 0.4, 0.0], [0, 0, 0], {}),
    ("heisenberg1", [0, 0, 0], [0, 0, 0.25], {}),
    ("heisenberg1", [0, 0, 0], [0.5, 0.0, 0.0], {"box": [(-1.5, 1.5)] * 3}),
    ("heisenberg1", [0, 0, 0], [0.3, -0.2, 0.15], {"box": [(-1e7, 1e7)] * 3}),
    ("heisenberg1", [0.1, -0.2, 0.05], [0.4, 0.2, 0.1], {"goal_tol": 0.12}),
    ("engel1", [0, 0, 0, 0], [0.3, 0.2, 0.0, 0.0], {}),
    ("engel1", [0.3, 0.2, 0.0, 0.0], [0, 0, 0, 0], {"goal_tol": 0.08}),
    ("euclidean:2", [0, 0], [0.73, -0.41], {}),
    ("euclidean:2", [0, 0], [0.03, 0.04], {"goal_tol": 0.05}),
    ("euclidean:3", [0, 0, 0], [0.5, -0.3, 0.25], {"box": [(-0.6, 0.6)] * 3}),
    ("euclidean:3", [0.5, -0.3, 0.25], [0, 0, 0], {}),
    # signed zeros: cells of -0.0 and 0.0 are one cell
    ("euclidean:2", [-0.0, -0.0], [0.3, 0.2], {}),
    # a tie at the tolerance: |gap|^2 of the state (0.2, 0.1, 0) rounds to either
    # side of tol^2 depending on whether its multiply-adds are fused
    ("euclidean:3", [0, 0, 0], [0.195, 0.079, 0.021], {"goal_tol": 0.030116440692751198}),
    # box bounds off the cell lattice, with states in the last cell of each axis
    (
        "heisenberg1",
        [0, 0, 0],
        [0.3, 0.2, 0.1],
        {"box": [(-0.23, 0.61), (-0.17, 0.43), (-0.07, 0.31)]},
    ),
    # states on the faces x1 = 0.2 and x2 = 0.2 of a box whose lower corner is off the lattice
    ("euclidean:2", [0, 0], [0.2, -0.1], {"box": [(-0.23, 0.2), (-0.17, 0.2)]}),
    # infinite and huge bounds: the lattice starts on default_box's cells, and grows
    # on the euclidean:2 and engel1 queries
    ("heisenberg1", [0, 0, 0], [0.3, -0.2, 0.15], {"box": [(-np.inf, np.inf)] * 3}),
    ("euclidean:2", [0, 0], [0.73, -0.41], {"box": [(-np.inf, np.inf)] * 2}),
    ("euclidean:2", [0, 0], [1.2, 0.9], {"box": [(-1e7, 1e7)] * 2}),
    ("engel1", [0, 0, 0, 0], [0.8, -0.5, 0.0, 0.0], {"box": [(-np.inf, np.inf)] * 4}),
    ("engel1", [0, 0, 0, 0], [0.8, -0.5, 0.0, 0.0], {"box": [(-1e7, 1e7)] * 4}),
    (
        "heisenberg1",
        [0, 0, 0],
        [0.3, -0.2, 0.15],
        {"box": [(-np.inf, 1.0), (-1.0, np.inf), (-1.0, 1.0)]},
    ),
    # bounds whose cell index overflows to inf
    ("heisenberg1", [0, 0, 0], [0.3, -0.2, 0.15], {"box": [(-1e308, 1e308)] * 3}),
    # at x2 = 1e6 a step moves x3 by 2e6 cells: the search spans over 2**64
    # lattice cells, and the table keys the cells it settles by their floors
    ("engel1", [0, 1e6, 0, 0], [0, 1e6, 0.06, -29999.994], {"box": [(-np.inf, np.inf)] * 4}),
]


class TestHeapEquivalence:
    @pytest.mark.parametrize("name,a,b,kwargs", EQUIVALENCE_QUERIES)
    def test_same_figures_as_the_heap(self, name, a, b, kwargs):
        s = preset(name)
        expected = _heap_reference(s, a, b, 0.1, **kwargs)
        assert _figures(cc_search(s, a, b, 0.1, **kwargs)) == expected
        assert cc_distance_estimate(s, a, b, 0.1, **kwargs) == expected[0]

    def test_same_no_path_error(self):
        s = preset("line2d")
        with pytest.raises(NoPathError) as ref:
            _heap_reference(s, [0, 0], [0, 1], 0.1)
        with pytest.raises(NoPathError) as new:
            cc_search(s, [0, 0], [0, 1], 0.1)
        assert str(new.value) == str(ref.value)

    def test_budget_boundary(self):
        s = preset("heisenberg1")
        a, b = [0, 0, 0], [0.3, 0.2, 0.1]
        result = cc_search(s, a, b, 0.1)
        assert result.nodes_settled > 1
        at_budget = cc_search(s, a, b, 0.1, max_nodes=result.nodes_settled)
        assert at_budget.distance == result.distance
        assert _heap_reference(s, a, b, 0.1, max_nodes=result.nodes_settled)[0] == result.distance
        with pytest.raises(NoPathError) as ref:
            _heap_reference(s, a, b, 0.1, max_nodes=result.nodes_settled - 1)
        with pytest.raises(NoPathError) as new:
            cc_search(s, a, b, 0.1, max_nodes=result.nodes_settled - 1)
        assert str(new.value) == str(ref.value)


def _spans(monkeypatch):
    """(first, last, on a table) of each lattice the visited set lays, in order."""
    spans = []
    span = ccdist._CellStamps._span

    def spy(self, first, last, floors):
        span(self, first, last, floors)
        spans.append((first, last, self.table is not None))

    monkeypatch.setattr(ccdist._CellStamps, "_span", spy)
    return spans


def _starting_cells(a, b, box, cell):
    """first and last cells of box and default_box(a, b) in common."""
    lo, hi = np.array(box).T
    near_lo, near_hi = np.array(default_box(np.array(a, float), np.array(b, float))).T
    return np.floor(np.maximum(lo, near_lo) / cell), np.floor(np.minimum(hi, near_hi) / cell)


# boxes past default_box: the search leaves the starting lattice on some side
GROWING_QUERIES = [
    ("heisenberg1", [0, 0, 0], [0.0, 0.0, 0.5], [(-1.5, 1.5)] * 3),
    ("euclidean:2", [0, 0], [1.2, 0.9], [(-1.5, 1.7), (-2.6, 2.0)]),
    ("engel1", [0, 0, 0, 0], [0.8, -0.5, 0.0, 0.0], [(-1.5, 1.5)] * 4),
]


class TestVisitedSets:
    @pytest.mark.parametrize("name,a,b,box", GROWING_QUERIES)
    def test_lattice_grows_within_the_box(self, name, a, b, box, monkeypatch):
        s = preset(name)
        spans = _spans(monkeypatch)
        assert _figures(cc_search(s, a, b, 0.1, box)) == _heap_reference(s, a, b, 0.1, box)
        first, last = _starting_cells(a, b, box, 0.05)
        assert np.array_equal(spans[0][0], first) and np.array_equal(spans[0][1], last)
        assert len(spans) > 1
        assert not any(table for _, _, table in spans)
        for (first, last, _), (grown_first, grown_last, _) in zip(spans, spans[1:]):
            assert np.all(grown_first <= first) and np.all(grown_last >= last)
        lo, hi = np.array(box).T
        assert np.all(spans[-1][0] >= np.floor(lo / 0.05))
        assert np.all(spans[-1][1] <= np.floor(hi / 0.05))

    def test_huge_box_starts_on_the_default_box(self, monkeypatch):
        # a +/-1e7 box has 4e8 cells per axis at cell 0.05; the search stays in
        # default_box's cells and lays no other lattice
        s, a, b = preset("heisenberg1"), [0, 0, 0], [0.3, -0.2, 0.15]
        default = _figures(cc_search(s, a, b, 0.1))
        spans = _spans(monkeypatch)
        assert _figures(cc_search(s, a, b, 0.1, [(-1e7, 1e7)] * 3)) == default
        first, last = _starting_cells(a, b, [(-1e7, 1e7)] * 3, 0.05)
        assert len(spans) == 1
        assert np.array_equal(spans[0][0], first) and np.array_equal(spans[0][1], last)

    @pytest.mark.parametrize("name,a,b,box", GROWING_QUERIES)
    @pytest.mark.parametrize("dense", ["none", "starting lattice"])
    def test_table_agrees_with_the_heap(self, name, a, b, box, dense, monkeypatch):
        # tables of 4 slots or more: they fill, collide and resize; with no
        # dense cells the set starts on a table, with the starting lattice's
        # cells its first growth moves it to one
        first, last = _starting_cells(a, b, box, 0.05)
        cells = int(np.prod(last - first + 1.0)) if dense == "starting lattice" else 0
        monkeypatch.setattr(ccdist, "MAX_LATTICE_CELLS", cells)
        monkeypatch.setattr(ccdist._CellStamps, "SLOTS", 4)
        spans = _spans(monkeypatch)
        s = preset(name)
        assert _figures(cc_search(s, a, b, 0.1, box)) == _heap_reference(s, a, b, 0.1, box)
        assert spans[0][2] == (cells == 0)
        assert spans[-1][2]

    def test_table_takes_the_budget_error(self, monkeypatch):
        monkeypatch.setattr(ccdist, "MAX_LATTICE_CELLS", 0)
        s, a, b = preset("heisenberg1"), [0, 0, 0], [0.3, 0.2, 0.1]
        budget = cc_search(s, a, b, 0.1).nodes_settled - 1
        with pytest.raises(NoPathError) as ref:
            _heap_reference(s, a, b, 0.1, max_nodes=budget)
        with pytest.raises(NoPathError) as new:
            cc_search(s, a, b, 0.1, max_nodes=budget)
        assert str(new.value) == str(ref.value)

    def test_dense_cells_follow_the_node_budget(self, monkeypatch):
        # default_box's 47 x 45 cells are more than the 2 * 2 * 500 stamps that
        # take the bytes of 500 states, so the set starts on a table
        spans = _spans(monkeypatch)
        s, a, b = preset("euclidean:2"), [0, 0], [0.3, 0.2]
        assert _figures(cc_search(s, a, b, 0.1, max_nodes=500)) == _heap_reference(s, a, b, 0.1)
        assert [table for _, _, table in spans] == [True]
        spans.clear()
        cc_search(s, a, b, 0.1, max_nodes=529)
        assert [table for _, _, table in spans] == [False]

    def test_int32_positions_bound_the_node_budget(self):
        # a level has fewer than 2 * m * max_nodes candidates, each stamped with its position
        s, a, b = preset("heisenberg1"), [0, 0, 0], [0.3, 0.2, 0.1]
        expected = _figures(cc_search(s, a, b, 0.1))
        assert _figures(cc_search(s, a, b, 0.1, max_nodes=(2**31 - 1) // (2 * s.m))) == expected
        with pytest.raises(ValueError, match="max_nodes"):
            cc_search(s, a, b, 0.1, max_nodes=2**31 // (2 * s.m))


class TestBenchmarkQueries:
    @pytest.mark.parametrize(
        "b,figures",
        [
            ([1, 0, 0], (1.0000000000000002, 27303, 20, 6084)),
            ([0, 0, 0.25], (1.0000000000000002, 28151, 20, 6083)),
            ([0, 0, 0.5], (1.4000000000000006, 99267, 28, 11500)),
        ],
    )
    def test_heisenberg_figures_at_resolution_005(self, b, figures, monkeypatch):
        # too slow for the heap oracle; the literals were measured with the sorted keys
        calls = []
        settle = ccdist._CellStamps.settle
        monkeypatch.setattr(
            ccdist._CellStamps, "settle", lambda self, cand: calls.append(1) or settle(self, cand)
        )
        r = cc_search(preset("heisenberg1"), [0, 0, 0], b, 0.05)
        assert _figures(r) == figures
        # the stamps settle the start and every expanded level
        assert len(calls) == 1 + r.levels

    def test_peak_memory_is_bounded(self):
        # 81 x 81 x 101 stamps of the default box take 2.5 MiB
        s = preset("heisenberg1")
        tracemalloc.start()
        try:
            cc_search(s, [0, 0, 0], [0, 0, 0.5], 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    @pytest.mark.parametrize("bound", [np.inf, 1e7])
    def test_grown_lattice_figures_and_memory(self, bound):
        # measured with the sorted keys of every settled state, whose peak was 42.8 MiB;
        # the dense lattice grows from 81 x 81 x 121 to 183 x 183 x 182 cells, 24 MiB
        tracemalloc.start()
        try:
            r = cc_search(preset("heisenberg1"), [0, 0, 0], [0, 0, 1], 0.05, [(-bound, bound)] * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _figures(r) == (2.000000000000001, 483105, 40, 51162)
        assert peak < 40 * 2**20

    @pytest.mark.parametrize(
        "name,b,figures,sorted_keys_peak_mib",
        [
            ("heisenberg1", [0, 0, 1.5], (2.499999999999999, 1202249, 50, 99328), 96.1),
            ("engel1", [1.5, 1, 0, 0], (2.499999999999999, 762162, 50, 125489), 105.8),
            ("engel1", [0, 0, 0.2, 0], (1.800000000000001, 97735, 36, 15388), 13.0),
        ],
    )
    def test_table_figures_and_memory(self, name, b, figures, sorted_keys_peak_mib):
        # unbounded boxes on which the set moves to its table; the figures and
        # peaks were measured with the sorted keys of every settled state
        tracemalloc.start()
        try:
            r = cc_search(preset(name), [0] * len(b), b, 0.05, [(-np.inf, np.inf)] * len(b))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _figures(r) == figures
        assert peak < 1.2 * sorted_keys_peak_mib * 2**20


class TestNonFiniteFrames:
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_raises_and_names_the_state(self, value):
        with pytest.raises(NumericalError, match=r"non-finite entries at state \[0\.4"):
            cc_search(_frame_with(value), [0, 0, 0], [1, 0, 0], 0.1)
