"""Tests for the truncated Fock space: enumeration, norms, kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegelpw.fock as fk
from siegelpw.errors import InvalidParameterError


def random_vector(trunc, seed):
    rng = np.random.Generator(np.random.Philox(key=seed))
    coeffs = rng.normal(size=trunc.dim) + 1j * rng.normal(size=trunc.dim)
    return fk.FockVector(truncation=trunc, coeffs=coeffs)


def basis_vector(trunc, alpha):
    """Coefficient vector of the normalized monomial e_alpha."""
    coeffs = np.zeros(trunc.dim, dtype=np.complex128)
    coeffs[trunc.index_of(alpha)] = 1.0
    return fk.FockVector(truncation=trunc, coeffs=coeffs)


def inner_product(f, g):
    """Hermitian pairing <f, g> of coefficient vectors, conjugate-linear in g."""
    return complex(np.vdot(g.coeffs, f.coeffs))


class TestEnumeration:
    def test_graded_lex_order_small(self):
        got = [tuple(a) for a in fk.graded_indices(2, 2)]
        assert got == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]

    @pytest.mark.parametrize("n,M", [(1, 0), (1, 7), (2, 5), (3, 4)])
    def test_dimension_matches_binomial(self, n, M):
        trunc = fk.FockTruncation(n=n, max_degree=M)
        assert len(trunc.indices) == trunc.dim == math.comb(n + M, n)

    def test_enumeration_strictly_ordered(self):
        indices = fk.graded_indices(3, 6)
        keys = [(a.degree, tuple(-v for v in a)) for a in indices]
        assert keys == sorted(keys)
        assert len(set(indices)) == len(indices)

    def test_index_of_round_trip(self):
        trunc = fk.FockTruncation(n=2, max_degree=4)
        for i, alpha in enumerate(trunc.indices):
            assert trunc.index_of(alpha) == i

    def test_index_of_rejects_outside(self):
        trunc = fk.FockTruncation(n=2, max_degree=3)
        with pytest.raises(InvalidParameterError):
            trunc.index_of((4, 0))
        with pytest.raises(InvalidParameterError):
            fk.MultiIndex((-1, 0))


class TestMonomialNorms:
    def test_constant_has_unit_norm(self):
        assert fk.monomial_norm_sq((0,), -2.0) == 1.0
        assert fk.monomial_norm_sq((0, 0), 3.5) == 1.0

    def test_degree_three_frequency_two(self):
        # alpha = 3, |lambda| = 2: 3! * (2/2)^3 = 6.
        assert fk.monomial_norm_sq((3,), -2.0) == pytest.approx(6.0, rel=1e-13)

    def test_mixed_index_frequency_four(self):
        # alpha = (1,2), |lambda| = 4: 1! 2! (1/2)^3 = 0.25.
        assert fk.monomial_norm_sq((1, 2), -4.0) == pytest.approx(0.25, rel=1e-13)

    def test_zero_frequency_rejected(self):
        with pytest.raises(InvalidParameterError):
            fk.monomial_norm_sq((1,), 0.0)

    @given(
        alpha=st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=3),
        lam=st.floats(min_value=0.1, max_value=8.0),
        slot=st.integers(min_value=0, max_value=2),
    )
    @settings(max_examples=80, deadline=None)
    def test_ladder_recurrence(self, alpha, lam, slot):
        # Raising one exponent multiplies the norm by (alpha_j + 1) * 2/|lambda|.
        slot = slot % len(alpha)
        raised = list(alpha)
        raised[slot] += 1
        lhs = fk.monomial_norm_sq(raised, -lam)
        rhs = (alpha[slot] + 1) * (2.0 / lam) * fk.monomial_norm_sq(alpha, -lam)
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestInnerProduct:
    def test_basis_orthonormal_by_coefficients(self):
        trunc = fk.FockTruncation(n=2, max_degree=3)
        e1 = basis_vector(trunc, (1, 0))
        e2 = basis_vector(trunc, (0, 1))
        assert inner_product(e1, e1) == fk.norm_sq(e1) == 1.0
        assert inner_product(e1, e2) == 0.0

    def test_norm_nonnegative(self):
        trunc = fk.FockTruncation(n=1, max_degree=5)
        assert fk.norm_sq(random_vector(trunc, 3)) >= 0.0

    def test_truncation_mismatch_rejected(self):
        f = basis_vector(fk.FockTruncation(n=1, max_degree=2), (0,))
        with pytest.raises(InvalidParameterError):
            fk.FockVector(truncation=fk.FockTruncation(n=1, max_degree=3), coeffs=f.coeffs)

    @pytest.mark.parametrize("n,M,lam,order", [(1, 6, -2.0, 16), (2, 6, -3.0, 16)])
    def test_gram_matrix_is_identity_under_quadrature(self, n, M, lam, order):
        trunc = fk.FockTruncation(n=n, max_degree=M)
        rule = fk.fock_quadrature_rule(n, lam, node_count=order)
        grids = np.meshgrid(*([rule.nodes] * (2 * n)), indexing="ij")
        weight = np.ones_like(grids[0])
        for axis in range(2 * n):
            shape = [1] * (2 * n)
            shape[axis] = -1
            weight = weight * rule.weights.reshape(shape)
        z = [grids[j].ravel() + 1j * grids[n + j].ravel() for j in range(n)]
        values = fk.basis_values(trunc, lam, z)
        normalization = (abs(lam) / (2.0 * math.pi)) ** n
        gram = normalization * (values * weight.ravel()) @ values.conj().T
        assert np.max(np.abs(gram - np.eye(trunc.dim))) < 1e-10

    def test_quadrature_matches_coefficients_for_random_vectors(self):
        trunc = fk.FockTruncation(n=1, max_degree=6)
        lam = -2.0
        f, g = random_vector(trunc, 10), random_vector(trunc, 11)
        direct = inner_product(f, g)
        by_quad = fk.gaussian_pairing(
            lam,
            1,
            lambda z: fk.evaluate(f, lam, [z]),
            lambda z: fk.evaluate(g, lam, [z]),
            node_count=20,
        )
        assert abs(by_quad - direct) < 1e-10 * max(1.0, abs(direct))


class TestKernel:
    def test_kernel_at_origin(self):
        assert fk.reproducing_kernel([0.0], [0.0], -2.0) == 1.0

    @given(
        zr=st.floats(min_value=-1, max_value=1),
        zi=st.floats(min_value=-1, max_value=1),
        wr=st.floats(min_value=-1, max_value=1),
        wi=st.floats(min_value=-1, max_value=1),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_hermitian_symmetry(self, zr, zi, wr, wi):
        z, w = [complex(zr, zi)], [complex(wr, wi)]
        lhs = fk.reproducing_kernel(z, w, -2.0)
        rhs = np.conj(fk.reproducing_kernel(w, z, -2.0))
        assert abs(lhs - rhs) <= 1e-14 * abs(lhs)

    @given(
        zr=st.floats(min_value=-1, max_value=1),
        zi=st.floats(min_value=-1, max_value=1),
        wr=st.floats(min_value=-1, max_value=1),
        wi=st.floats(min_value=-1, max_value=1),
    )
    @settings(max_examples=40, deadline=None)
    def test_partial_sum_within_tail_bound(self, zr, zi, wr, wi):
        lam, M = -2.0, 20
        z, w = [complex(zr, zi)], [complex(wr, wi)]
        trunc = fk.FockTruncation(n=1, max_degree=M)
        closed = fk.reproducing_kernel(z, w, lam)
        partial = fk.kernel_partial_sum(trunc, lam, z, w)
        bound = fk.kernel_tail_bound(M, 0.5 * abs(lam) * abs(z[0]) * abs(w[0]))
        assert abs(closed - partial) <= bound + 5e-14 * max(1.0, abs(closed))

    @pytest.mark.parametrize(
        "n,order,w",
        [(1, 40, [0.3 + 0.4j]), (2, 24, [0.2 - 0.3j, -0.4 + 0.1j])],
    )
    def test_reproducing_property_on_polynomials(self, n, order, w):
        lam = -2.0
        trunc = fk.FockTruncation(n=n, max_degree=5)
        f = random_vector(trunc, seed=17 + n)
        value = fk.gaussian_pairing(
            lam,
            n,
            lambda *z: fk.evaluate(f, lam, list(z)),
            lambda *z: fk.reproducing_kernel(list(z), w, lam),
            node_count=order,
        )
        direct = complex(fk.evaluate(f, lam, [np.asarray(c) for c in w]))
        assert abs(value - direct) < 1e-9 * max(1.0, abs(direct))

    def test_suggested_truncation_meets_tolerance(self):
        lam, radius = -2.0, 1.5
        for tol in (1e-4, 1e-8, 1e-12):
            M = fk.suggested_truncation(lam, radius, tol)
            x = 0.5 * abs(lam) * radius * radius
            assert fk.kernel_tail_bound(M, x) <= tol
            if M > 0:
                assert fk.kernel_tail_bound(M - 1, x) > tol


class TestEvaluation:
    def test_normalized_monomial_value(self):
        # e_(2) at z = 1+i with |lambda| = 2: z^2 / sqrt(2!) = sqrt(2) i.
        trunc = fk.FockTruncation(n=1, max_degree=3)
        e2 = basis_vector(trunc, (2,))
        got = complex(fk.evaluate(e2, -2.0, [np.asarray(1.0 + 1.0j)]))
        assert got == pytest.approx(math.sqrt(2.0) * 1j, rel=1e-14)

    def test_evaluation_is_linear(self):
        trunc = fk.FockTruncation(n=1, max_degree=4)
        f, g = random_vector(trunc, 5), random_vector(trunc, 6)
        both = fk.FockVector(truncation=trunc, coeffs=f.coeffs + 2j * g.coeffs)
        z = [np.asarray(0.7 - 0.2j)]
        lhs = fk.evaluate(both, -3.0, z)
        rhs = fk.evaluate(f, -3.0, z) + 2j * fk.evaluate(g, -3.0, z)
        assert abs(complex(lhs - rhs)) < 1e-13

    def test_component_count_validated(self):
        trunc = fk.FockTruncation(n=2, max_degree=2)
        with pytest.raises(InvalidParameterError):
            fk.basis_values(trunc, -1.0, [np.asarray(1.0 + 0j)])
