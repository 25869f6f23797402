import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from maskquorum import ElementSet, MPathSpec, build
from maskquorum.errors import ParameterError
from maskquorum._bitops import unpack_masks
from maskquorum._bitops import pack_rows
from maskquorum.paths import TriGrid, _fill, _row_words, disjoint_path_counts, grid_word_path_counts

from oracles import menger_disjoint_paths, packing_disjoint_paths, simple_crossing_paths


def eset(side, mask):
    return ElementSet(side * side, mask)


def every_alive_set(side):
    """The 2^(side*side) alive sets of a grid as boolean rows, in mask order."""
    n = side * side
    return unpack_masks(np.arange(1 << n, dtype=np.uint32), n)


def full_counts(side, alive):
    """Uncapped (LR, TB) path counts of one ElementSet: a one-row disjoint_path_counts."""
    return disjoint_path_counts(side, alive.as_bool()[None], side)[0].tolist()


def row_word_counts(side, alive, cap):
    """disjoint_path_counts by the row-word layout, at any side."""
    out = np.zeros((2, len(alive)), dtype=np.int64)
    _fill(side, alive, cap, out, _row_words)
    return out.T


class TestTriGrid:
    def test_adjacency_rules(self):
        g = TriGrid(3)
        # (1,1) touches right, down, up-right and the three reverse directions.
        assert set(g.neighbors(g.index(1, 1))) == {
            g.index(1, 2), g.index(2, 1), g.index(0, 2),
            g.index(1, 0), g.index(0, 1), g.index(2, 0),
        }

    def test_degrees(self):
        g = TriGrid(4)
        degrees = [len(g.neighbors(v)) for v in range(g.n)]
        assert max(degrees) == 6
        # Two corners touch the diagonal rule, two do not.
        assert len(g.neighbors(g.index(0, 0))) == 2
        assert len(g.neighbors(g.index(0, 3))) == 3
        assert len(g.neighbors(g.index(3, 0))) == 3
        assert len(g.neighbors(g.index(3, 3))) == 2

    def test_symmetric(self):
        g = TriGrid(5)
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)


class TestMaxDisjointPaths:
    """Uncapped counts of single alive sets; column 0 is LR, column 1 TB."""

    def test_full_grid_side3(self):
        assert full_counts(3, ElementSet.full(9)) == [3, 3]

    def test_dead_column_blocks_all(self):
        alive = ElementSet.full(9) - ElementSet.from_indices(9, [1, 4, 7])
        assert full_counts(3, alive)[0] == 0

    def test_dead_center(self):
        # 8 alive vertices cannot host 3 disjoint crossing paths: the packing
        # oracle says 2.
        g = TriGrid(3)
        alive = ElementSet.full(9) - ElementSet.from_indices(9, [4])
        assert packing_disjoint_paths(g, alive.mask, "LR") == 2
        assert full_counts(3, alive)[0] == 2

    def test_universe_mismatch(self):
        with pytest.raises(ParameterError):
            full_counts(3, ElementSet.full(4))

    def test_exhaustive_side_le_3_matches_packing_oracle(self):
        for side in (2, 3):
            g = TriGrid(side)
            got = disjoint_path_counts(side, every_alive_set(side), side)
            for mask in range(1 << g.n):
                want = [packing_disjoint_paths(g, mask, o) for o in ("LR", "TB")]
                assert got[mask].tolist() == want, (side, mask)

    @given(st.integers(0, 2 ** 9 - 1), st.integers(0, 2 ** 9 - 1))
    def test_monotone_in_alive(self, a, b):
        small, big = a & b, a | b
        for lo, hi in zip(full_counts(3, eset(3, small)), full_counts(3, eset(3, big))):
            assert lo <= hi <= 3


def _grids():
    """(side, side*side booleans) pairs: one alive row of a grid of side 2-9."""
    return st.integers(2, 9).flatmap(lambda s: st.tuples(
        st.just(s), st.lists(st.booleans(), min_size=s * s, max_size=s * s)))


class TestDisjointPathCounts:
    @pytest.mark.parametrize("side", [5, 8, 16, 32, 65, 70])
    def test_matches_menger_max_flow(self, side):
        # Sides 65 and 70 need two words per row, so the fill carries
        # between the words of one row.
        g = TriGrid(side)
        rng = np.random.default_rng(side)
        for p in (0.125, 0.35, 0.5):
            alive = rng.random((4, g.n)) >= p
            want = np.array([[menger_disjoint_paths(g, row, o) for o in ("LR", "TB")]
                             for row in alive])
            for cap in (1, 2, 4, side):
                got = disjoint_path_counts(side, alive, cap)
                assert np.array_equal(got, np.minimum(want, cap)), (p, cap)

    def test_dead_anti_diagonal_blocks_both_orientations_at_side_70(self):
        side = 70
        alive = np.ones((side, side), dtype=bool)
        alive[np.arange(side), side - 1 - np.arange(side)] = False
        for cap in (1, 2, side):
            got = disjoint_path_counts(side, alive.reshape(1, -1), cap)
            assert got.tolist() == [[0, 0]]
        assert disjoint_path_counts(side, np.ones((1, side * side), bool), side).tolist() == \
            [[side, side]]

    def test_dead_step_across_the_word_boundary_at_side_70(self):
        # Dead cells down column 0 to row 35, right along row 35, down column
        # 69: the only dead TB crossing steps from column 63 to column 64.
        side = 70
        alive = np.ones((side, side), dtype=bool)
        alive[:36, 0] = alive[35, :] = alive[35:, -1] = False
        for cap in (1, 3):
            got = disjoint_path_counts(side, alive.reshape(1, -1), cap)
            assert got.tolist() == [[0, 0]]

    def test_empty_batch(self):
        assert disjoint_path_counts(6, np.ones((0, 36), bool), 3).shape == (0, 2)

    def test_bad_arguments(self):
        with pytest.raises(ParameterError):
            disjoint_path_counts(0, np.ones((1, 0), bool), 1)
        with pytest.raises(ParameterError):
            disjoint_path_counts(3, np.ones((1, 8), bool), 1)
        with pytest.raises(ParameterError):
            disjoint_path_counts(3, np.ones((1, 9), bool), 0)

    @given(_grids(), st.integers(1, 9))
    def test_capped_count_is_min_of_full_count_and_cap(self, grid, cap):
        side, cells = grid
        alive = np.array([cells])
        full = disjoint_path_counts(side, alive, side)
        assert np.array_equal(disjoint_path_counts(side, alive, cap), np.minimum(full, cap))

    @given(_grids(), st.integers(1, 9))
    def test_transpose_swaps_orientations(self, grid, cap):
        side, cells = grid
        alive = np.array(cells).reshape(side, side)
        got = disjoint_path_counts(side, alive.reshape(1, -1), cap)
        flipped = disjoint_path_counts(side, alive.T.reshape(1, -1), cap)
        assert np.array_equal(got[:, ::-1], flipped)


class TestMpathLive:
    """MPath's live predicate on one alive set: at least r paths each way."""

    @staticmethod
    def live(side, r, alive):
        return bool((disjoint_path_counts(side, alive.as_bool()[None], r) >= r).all())

    def test_full_grid(self):
        for r in (1, 2, 5):
            assert self.live(5, r, ElementSet.full(25))

    def test_straight_rows_and_columns(self):
        mask = 0
        for j in range(5):
            mask |= 1 << (0 * 5 + j) | 1 << (2 * 5 + j)  # rows 0, 2
            mask |= 1 << (j * 5 + 0) | 1 << (j * 5 + 2)  # cols 0, 2
        assert self.live(5, 2, eset(5, mask))

    def test_single_cross_insufficient(self):
        mask = 0
        for j in range(5):
            mask |= 1 << j          # row 0
            mask |= 1 << (j * 5)    # col 0
        alive = eset(5, mask)
        assert full_counts(5, alive)[0] == 1
        assert not self.live(5, 2, alive)


class TestWordLayouts:
    """Grids with side*side <= 64 are filled one word per grid; the row-word
    fill is the reference at every cap."""

    @pytest.mark.parametrize("side", range(1, 9))
    def test_grid_words_match_row_words(self, side):
        n = side * side
        if side <= 4:
            alive = every_alive_set(side)
        else:
            rows = (1 << 16) + 123  # past one batch of every word width
            rng = np.random.default_rng(side)
            density = rng.uniform(0.3, 0.8, size=(rows, 1))
            alive = rng.random((rows, n)) < density
        if side == 5:
            masks = np.random.default_rng(11).integers(0, 1 << 25, size=300, dtype=np.uint32)
            alive = np.concatenate([alive, unpack_masks(masks, n)])
        for cap in range(1, side + 1):
            got = disjoint_path_counts(side, alive, cap)
            assert np.array_equal(got, row_word_counts(side, alive, cap)), cap


class TestGridWordInput:
    """grid_word_path_counts reads alive sets as grid words, the form 2^n
    enumeration hands over, and answers as disjoint_path_counts does."""

    @pytest.mark.parametrize("side", range(1, 9))
    def test_matches_bool_rows(self, side):
        n = side * side
        rng = np.random.default_rng(100 + side)
        density = rng.uniform(0.3, 0.8, size=(5000, 1))
        alive = rng.random((5000, n)) < density
        words = pack_rows(alive)[:, 0]
        for cap in range(1, side + 1):
            got = grid_word_path_counts(side, words, cap)
            assert np.array_equal(got, disjoint_path_counts(side, alive, cap)), cap

    def test_rejects_sides_outside_1_to_8(self):
        with pytest.raises(ParameterError):
            grid_word_path_counts(9, np.zeros(1, dtype=np.uint64), 1)
        with pytest.raises(ParameterError):
            grid_word_path_counts(0, np.zeros(1, dtype=np.uint8), 1)


def _with_caps(sides):
    """(side, cap) for cap 1 and 2; cap 2 keeps the bare side as its id."""
    return [pytest.param(side, cap, id=str(side) if cap == 2 else f"{side}-cap1")
            for side in sides for cap in (1, 2)]


class TestMPathFloodRoute:
    """MPath at r = 1 answers with the one-word-per-grid fill at cap 1; the
    row-word fill at caps 1 and 2 answers the same question another way."""

    @pytest.mark.parametrize("side, cap", _with_caps([3, 4, 5, 7, 8]))
    def test_matches_dual_fill_across_batches(self, side, cap):
        n = side * side
        rows = (1 << 16) + 123  # past one batch of every word width
        rng = np.random.default_rng(side)
        density = rng.uniform(0.3, 0.8, size=(rows, 1))
        alive = rng.random((rows, n)) < density
        got = build(MPathSpec(side, 0)).live_batch(alive)
        want = (row_word_counts(side, alive, cap) >= 1).all(axis=1)
        assert np.array_equal(got, want)
        assert 0 < got.sum() < rows


class TestCrossingProperty:
    @pytest.mark.parametrize("side", [2, 3, 4])
    def test_no_disjoint_lr_tb_pair(self, side):
        # "Every open LR path meets every open TB path" over every alive set
        # is equivalent to: no subset S of the full grid carries an LR path
        # while its complement carries a TB path (put S = the LR path itself;
        # conversely S and its complement witness a disjoint pair).
        n = side * side
        masks = np.arange(1 << n, dtype=np.uint32)
        counts = disjoint_path_counts(side, every_alive_set(side), 1)
        lr_ok, tb_ok = counts[:, 0] >= 1, counts[:, 1] >= 1
        complements = (~masks) & np.uint32((1 << n) - 1)
        assert not np.any(lr_ok & tb_ok[complements])

    @pytest.mark.parametrize("side", range(2, 9))
    def test_complement_live_iff_a_crosses_neither_way(self, side):
        # The Hex rule behind MPath's r = 1 enumeration over half the crash
        # sets: the complement of A has both crossings iff A has neither.
        n = side * side
        rng = np.random.default_rng(200 + side)
        density = rng.uniform(0.2, 0.8, size=(20_000, 1))
        alive = rng.random((20_000, n)) < density
        x, y = (disjoint_path_counts(side, alive, 1) >= 1).T
        complement_live = (disjoint_path_counts(side, ~alive, 1) >= 1).all(axis=1)
        assert np.array_equal(complement_live, ~(x | y))
        assert 0 < complement_live.sum() < len(alive)

    @pytest.mark.parametrize("side, cap", _with_caps([2, 3, 4]))
    def test_exactly_half_the_alive_sets_cross(self, side, cap):
        # The Hex anchor: S crosses LR iff its complement does not cross TB,
        # and transposing the grid swaps LR and TB, so exactly 2^(n-1) of the
        # 2^n alive sets cross in each orientation.  The one-word-per-grid
        # fill and the row-word fill, at caps 1 and 2, count them apart.
        n = side * side
        alive = every_alive_set(side)
        for crosses in (disjoint_path_counts(side, alive, cap) >= 1,
                        row_word_counts(side, alive, cap) >= 1):
            assert crosses.sum(axis=0).tolist() == [1 << (n - 1)] * 2

    def test_half_the_alive_sets_cross_at_side_32(self):
        # The same anchor at paper scale, through the row-word layout: at
        # p = 1/2 each orientation crosses with probability 1/2, so over
        # 40 000 alive rows each rate lies within 4 sigma = 0.01 of it.
        rng = np.random.default_rng(32)
        crossed = np.zeros(2, dtype=np.int64)
        for _ in range(10):
            alive = rng.random((4000, 32 * 32)) < 0.5
            crossed += (disjoint_path_counts(32, alive, 1) >= 1).sum(axis=0)
        assert np.all(np.abs(crossed / 40_000 - 0.5) <= 4 * 0.0025), crossed

    @pytest.mark.parametrize("side", [2, 3])
    def test_agrees_with_direct_path_pair_enumeration(self, side):
        g = TriGrid(side)
        full = (1 << g.n) - 1
        lr_paths = simple_crossing_paths(g, full, "LR")
        tb_paths = simple_crossing_paths(g, full, "TB")
        assert all(p & q for p in lr_paths for q in tb_paths)
