"""Smith normal form over k[h] and k[h,h^-1], with full certification."""

import itertools
from fractions import Fraction

import pytest

from oracles import d_matrix, invariant_factors, mat_eq, mat_mul
from qexterior import linalg
from qexterior.hpoly import HLaurent, HPoly
from qexterior.scalars import GRat
from qexterior.snf import (TRANSFORMS, mat_identity, mat_promote, mat_vec,
                           rank_fraction_field, smith_normal_form,
                           solve_linear)

h = HPoly.h
one = HPoly.one()
zero = HPoly.zero()


def certify(A, ring):
    res = smith_normal_form(A, ring)
    rows, cols = res.shape
    prod = mat_mul(mat_mul(res.U, mat_promote(A, ring), ring), res.V, ring)
    assert mat_eq(prod, d_matrix(res))
    assert mat_eq(mat_mul(res.U, res.Uinv, ring), mat_identity(rows, ring))
    assert mat_eq(mat_mul(res.V, res.Vinv, ring), mat_identity(cols, ring))
    nz = invariant_factors(res)
    for a, b in zip(nz, nz[1:]):
        assert divmod(b, a)[1].is_zero()
    for d in nz:
        assert d == d.normalized()
    assert res.rank == rank_fraction_field(A)
    return res


class TestExamples:
    def test_identity(self):
        res = certify([[one, zero], [zero, one]], HPoly)
        assert [str(d) for d in res.diag] == ["1", "1"]
        assert res.rank == 2

    def test_h_one_zero_h(self):
        # hand row-reduction: swap columns, clear, obtaining diag(1, h^2)
        res = certify([[h(), one], [zero, h()]], HPoly)
        assert res.diag[0] == HPoly.one()
        assert res.diag[1] == HPoly({2: 1})
        assert res.rank == 2

    def test_zero_matrix(self):
        res = certify([[zero, zero], [zero, zero]], HPoly)
        assert all(d.is_zero() for d in res.diag)
        assert res.rank == 0

    def test_laurent_h_is_unit(self):
        res = certify([[HLaurent({1: Fraction(1)})]], HLaurent)
        assert res.diag[0] == HLaurent.one()
        assert res.rank == 1

    def test_laurent_normalization_monic_nonzero_constant(self):
        A = [[HLaurent({-2: Fraction(2), 1: Fraction(4)})]]
        res = certify(A, HLaurent)
        d = res.diag[0]
        assert d.valuation() == 0
        assert d.leading() == 1
        assert d.constant()

    def test_gaussian_coefficients(self):
        i = GRat(0, 1)
        A = [[HPoly({1: i}), HPoly({0: GRat(1)})],
             [HPoly.zero(), HPoly({1: GRat(2, 1)})]]
        res = certify(A, HPoly)
        assert res.rank == 2

    def test_divisibility_sweep(self):
        # h and h+1 are coprime: the trailing block is not divisible by the
        # pivot h, and the gcd step must turn diag(h, h+1) into (1, h^2+h)
        res = certify([[h(), zero], [zero, h() + one]], HPoly)
        assert res.diag == [one, HPoly({2: 1, 1: 1})]


class TestRandomCertification:
    def test_polynomial_ring(self, sampler):
        for _ in range(40):
            rows = sampler.rng.randint(1, 4)
            cols = sampler.rng.randint(1, 4)
            A = [[HPoly({j: sampler.fraction() for j in range(3)})
                  for _ in range(cols)] for _ in range(rows)]
            certify(A, HPoly)

    def test_laurent_ring(self, sampler):
        for _ in range(25):
            rows = sampler.rng.randint(1, 4)
            cols = sampler.rng.randint(1, 4)
            A = [[HLaurent({j: sampler.fraction() for j in range(-1, 2)})
                  for _ in range(cols)] for _ in range(rows)]
            certify(A, HLaurent)

    def test_rectangular_shapes(self, sampler):
        for rows, cols in [(1, 4), (4, 1), (2, 5), (5, 2)]:
            A = [[HPoly({j: sampler.fraction() for j in range(2)})
                  for _ in range(cols)] for _ in range(rows)]
            res = certify(A, HPoly)
            assert res.shape == (rows, cols)


class TestSolve:
    def test_solvable(self):
        A = [[h(), one], [zero, h()]]
        x = solve_linear(A, [h() * 2, HPoly({2: 1})])
        assert x is not None
        assert x[0] == HPoly.one() and x[1] == h()

    def test_unsolvable(self):
        A = [[h(), one], [zero, h()]]
        assert solve_linear(A, [one, one]) is None

    def test_unsolvable_over_poly_solvable_over_laurent(self):
        A = [[h()]]
        assert solve_linear(A, [one], HPoly) is None
        x = solve_linear([[HLaurent({1: Fraction(1)})]], [HLaurent.one()],
                         HLaurent)
        assert x is not None and x[0] == HLaurent({-1: Fraction(1)})

    def test_agrees_with_rank_oracle(self, sampler):
        unsolvable = 0
        for ring in (HPoly, HLaurent):
            for _ in range(10):
                rows = sampler.rng.randint(1, 4)
                cols = sampler.rng.randint(1, 4)
                A = random_matrix(sampler, ring, rows, cols)
                x0 = random_matrix(sampler, ring, cols, 1)
                rhs = [[sum((A[i][j] * x0[j][0] for j in range(cols)),
                            start=ring.zero()) for i in range(rows)],
                       [row[0] for row in
                        random_matrix(sampler, ring, rows, 1)],
                       [ring.zero()] * rows]
                for n, b in enumerate(rhs):
                    got = solve_linear(A, b, ring)
                    augmented = [row + [bi] for row, bi in zip(A, b)]
                    if rank_fraction_field(augmented) > rank_fraction_field(A):
                        # b is not even in the span over k(h)
                        unsolvable += 1
                        assert got is None
                    if n == 0:
                        assert got is not None
                    if got is not None:
                        Ax = [sum((A[i][j] * got[j] for j in range(cols)),
                                  start=ring.zero()) for i in range(rows)]
                        assert Ax == b
        assert unsolvable

    def test_torsion_right_hand_side(self):
        A = [[h(), one], [zero, h()]]
        assert solve_linear(A, [one, one], HPoly) is None
        assert solve_linear(A, [h() * 2, HPoly({2: 1})], HPoly) == [one, h()]

    def test_residual_beyond_rank(self):
        A = [[one], [one]]
        assert solve_linear(A, [one, zero], HPoly) is None
        assert solve_linear(A, [h(), h()], HPoly) == [h()]

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            solve_linear([[one]], [one, one], HPoly)

    def test_random_solvable(self, sampler):
        for _ in range(25):
            ring = HLaurent if sampler.rng.randint(0, 1) else HPoly
            lo = -2 if ring is HLaurent else 0
            rows = sampler.rng.randint(1, 4)
            cols = sampler.rng.randint(1, 4)
            A = [[ring({j: sampler.fraction() for j in range(lo, 2)})
                  for _ in range(cols)] for _ in range(rows)]
            x0 = [ring({j: sampler.fraction() for j in range(lo, 2)})
                  for _ in range(cols)]
            b = [sum((A[i][j] * x0[j] for j in range(cols)), start=ring.zero())
                 for i in range(rows)]
            x = solve_linear(A, b, ring)
            assert x is not None
            got = [sum((A[i][j] * x[j] for j in range(cols)), start=ring.zero())
                   for i in range(rows)]
            assert all(u == v for u, v in zip(got, b))


def random_matrix(sampler, ring, rows, cols):
    """Sparse entries of low h-degree, so pivots are often not units."""
    lo = -1 if ring is HLaurent else 0
    return [[ring({j: sampler.fraction() for j in range(lo, 2)})
             if sampler.rng.random() < 0.6 else ring.zero()
             for _ in range(cols)] for _ in range(rows)]


class TestTracking:
    def test_subsets_match_full_tracking(self, sampler):
        subsets = [c for n in range(len(TRANSFORMS) + 1)
                   for c in itertools.combinations(TRANSFORMS, n)]
        for ring in (HPoly, HLaurent):
            for _ in range(12):
                A = random_matrix(sampler, ring, sampler.rng.randint(1, 4),
                                  sampler.rng.randint(1, 4))
                full = smith_normal_form(A, ring)
                for track in subsets:
                    res = smith_normal_form(A, ring, track=track)
                    assert res.rank == full.rank
                    assert res.diag == full.diag
                    for name in TRANSFORMS:
                        got = getattr(res, name)
                        if name in track:
                            assert mat_eq(got, getattr(full, name)), name
                        else:
                            assert got is None, name

    def test_unknown_transform_rejected(self):
        with pytest.raises(ValueError):
            smith_normal_form([[one]], HPoly, track=("W",))


class TestRankOracle:
    def test_rank_drops(self):
        A = [[h(), h()], [h(), h()]]
        assert rank_fraction_field(A) == 1
        assert smith_normal_form(A, HPoly).rank == 1

    def test_empty(self):
        assert rank_fraction_field([]) == 0

    def test_laurent_units_not_shifted_per_entry(self):
        # [[1, 1], [h^-1, 1]] has det 1 - h^-1 != 0, so rank 2; a naive
        # per-entry unit shift collapses it to rank 1
        one = HLaurent.one()
        A = [[one, one], [HLaurent({-1: Fraction(1)}), one]]
        assert rank_fraction_field(A) == 2
        assert smith_normal_form(A, HLaurent).rank == 2

    def test_equals_the_smith_rank(self, sampler):
        for ring in (HPoly, HLaurent):
            for _ in range(25):
                A = random_matrix(sampler, ring, sampler.rng.randint(1, 4),
                                  sampler.rng.randint(1, 4))
                assert rank_fraction_field(A) == \
                    smith_normal_form(A, ring).rank

    def test_equals_the_field_rank_on_constants(self, sampler):
        for _ in range(25):
            rows, cols = sampler.rng.randint(1, 5), sampler.rng.randint(1, 5)
            A = [[sampler.fraction() if sampler.rng.random() < 0.5
                  else Fraction(0) for _ in range(cols)] for _ in range(rows)]
            if rows > 1:
                A[-1] = [x + y for x, y in zip(A[0], A[-1])]
            assert rank_fraction_field(A) == linalg.rank(A)

    def test_runs_the_one_forward_elimination(self, monkeypatch):
        # the rank over k(h) is linalg's elimination on fraction entries,
        # not a second pivot loop of its own
        def refuse(*args, **kwargs):
            raise RuntimeError("_echelon called")
        monkeypatch.setattr(linalg, "_echelon", refuse)
        with pytest.raises(RuntimeError, match="_echelon called"):
            rank_fraction_field([[h(), one], [one, h()]])


class TestMatVec:
    """``mat_vec`` against the dense product with the vector as a column."""

    @staticmethod
    def dense(M, v, ring):
        return [row[0] for row in mat_mul(M, [[x] for x in v], ring)]

    @pytest.mark.parametrize("ring", [HPoly, HLaurent])
    def test_matches_the_dense_product(self, sampler, ring):
        for _ in range(30):
            rows, cols = sampler.rng.randint(1, 5), sampler.rng.randint(1, 5)
            M = random_matrix(sampler, ring, rows, cols)
            M[sampler.rng.randrange(rows)] = [ring.zero()] * cols
            zero_col = sampler.rng.randrange(cols)
            for row in M:
                row[zero_col] = ring.zero()
            v = [x for x, in random_matrix(sampler, ring, cols, 1)]
            pairs = [(t, x) for t, x in enumerate(v) if not x.is_zero()]
            assert mat_vec(M, pairs, ring) == self.dense(M, v, ring)
            assert mat_vec(M, [], ring) == [ring.zero()] * rows

    def test_constant_entries(self, sampler):
        for _ in range(20):
            rows, cols = sampler.rng.randint(1, 4), sampler.rng.randint(1, 4)
            M = mat_promote([[sampler.fraction() for _ in range(cols)]
                             for _ in range(rows)], HPoly)
            v = [HPoly.from_scalar(sampler.fraction()) for _ in range(cols)]
            got = mat_vec(M, list(enumerate(v)), HPoly)
            assert got == self.dense(M, v, HPoly)
            assert all(x.is_zero() or x.degree() == 0 for x in got)

    def test_empty_shapes(self):
        assert mat_vec([], [(0, one)], HPoly) == []
        assert mat_vec([[], []], [], HPoly) == [zero, zero]
