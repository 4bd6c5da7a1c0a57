"""Tests for the Heisenberg action on the truncated Fock space.

The closed-form matrices are checked against ``quadrature_rep_matrix``, which
integrates the defining action on a 2n-D Gauss-Hermite tensor grid.
"""

import math

import numpy as np
import pytest

import siegelpw.bargmann as bg
import siegelpw.fock as fk
import siegelpw.heisenberg as hg
from siegelpw.errors import InvalidParameterError


def element(z_entries, t):
    return hg.HeisenbergElement(z=np.asarray(z_entries, dtype=complex), t=float(t))


def random_element(n, seed, z_scale=1.0):
    rng = np.random.Generator(np.random.Philox(key=seed))
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    norm = float(np.linalg.norm(z))
    if norm > 0:
        z = z * (z_scale * float(rng.uniform(0.2, 1.0)) / norm)
    return hg.HeisenbergElement(z=z, t=float(rng.uniform(-2, 2)))


def action_values(lam, a, trunc, w_components):
    """Values of (U[a] e_beta)(w) for every basis index, stacked along axis 0;
    negative frequencies use the positive-frequency action of [conj(z), -t]."""
    if lam < 0.0:
        flipped = hg.HeisenbergElement(z=np.conj(a.z), t=-a.t)
        return action_values(-lam, flipped, trunc, w_components)
    w = [np.asarray(c, dtype=np.complex128) for c in w_components]
    pairing = sum(wc * np.conj(zc) for wc, zc in zip(w, a.z))
    prefactor = np.exp(
        1j * lam * a.t - 0.5 * lam * pairing - 0.25 * lam * float(np.sum(np.abs(a.z) ** 2))
    )
    shifted = [wc + zc for wc, zc in zip(w, a.z)]
    return prefactor * fk.basis_values(trunc, lam, shifted)


def quadrature_rep_matrix(lam, a, trunc):
    """Entries <e_alpha, U[a] e_beta> by tensor Gauss-Hermite quadrature of the
    action against the Gaussian weight, with 14 nodes per axis beyond the
    degree; only the exponential prefactor of the action is approximated."""
    n = trunc.n
    rule = fk.fock_quadrature_rule(n, lam, node_count=trunc.max_degree + 14)
    grids = np.meshgrid(*([rule.nodes] * (2 * n)), indexing="ij")
    weight = np.prod(np.meshgrid(*([rule.weights] * (2 * n)), indexing="ij"), axis=0).ravel()
    w = [grids[j].ravel() + 1j * grids[n + j].ravel() for j in range(n)]
    acted = action_values(lam, a, trunc, w)
    basis = fk.basis_values(trunc, lam, w)
    normalization = (abs(lam) / (2.0 * math.pi)) ** n
    return normalization * (np.conj(basis) * weight) @ acted.T


class TestRepMatrix:
    @pytest.mark.parametrize("lam", [2.0, -2.0])
    def test_identity_element_gives_identity_matrix(self, lam):
        for n, max_degree in ((1, 6), (2, 5)):
            trunc = fk.FockTruncation(n=n, max_degree=max_degree)
            m = bg.rep_matrix(lam, hg.identity(n), trunc)
            assert np.array_equal(m.entries, np.eye(trunc.dim))

    @pytest.mark.parametrize("lam", [2.0, -2.0, -0.7])
    @pytest.mark.parametrize("n, max_degree", [(1, 10), (2, 4)])
    def test_closed_form_matches_gauss_hermite_reference(self, n, max_degree, lam):
        trunc = fk.FockTruncation(n=n, max_degree=max_degree)
        for seed in (21, 22):
            a = random_element(n, seed, z_scale=1.5)
            closed = bg.rep_matrix(lam, a, trunc).entries
            assert np.max(np.abs(closed - quadrature_rep_matrix(lam, a, trunc))) <= 1e-10

    def test_corner_entry_closed_form_positive_frequency(self):
        lam, trunc = 2.0, fk.FockTruncation(n=1, max_degree=5)
        for seed in (1, 2, 3):
            a = random_element(1, seed)
            m = bg.rep_matrix(lam, a, trunc)
            expected = np.exp(
                1j * lam * a.t - 0.25 * lam * float(np.sum(np.abs(a.z) ** 2))
            )
            assert abs(m.entries[0, 0] - expected) < 1e-10

    @staticmethod
    def _block_error_and_leakage_bound(lam, trunc, a, b, block_degree):
        half = [i for i, m in enumerate(trunc.indices) if m.degree <= block_degree]
        product = bg.rep_matrix(lam, a, trunc).entries @ bg.rep_matrix(
            lam, b, trunc
        ).entries
        direct = bg.rep_matrix(lam, hg.mul(a, b), trunc).entries
        block = np.ix_(half, half)
        error = float(np.max(np.abs(product[block] - direct[block])))
        # Composing truncated matrices drops the mass routed through degrees
        # above the cutoff; by Cauchy-Schwarz that leakage is bounded by the
        # product of the row/column tail defects.
        row_tail = math.sqrt(bg.column_defect_bound(lam, a, trunc, block_degree))
        col_tail = math.sqrt(bg.column_defect_bound(lam, b, trunc, block_degree))
        return error, row_tail * col_tail

    def test_homomorphism_strict_for_small_elements(self):
        # With small translations the truncation leakage bound sits far
        # below 1e-8, so the matrices must compose like the group.
        lam, trunc = -2.0, fk.FockTruncation(n=1, max_degree=10)
        for seed in (4, 5, 6):
            a = random_element(1, seed, z_scale=0.15)
            b = random_element(1, seed + 100, z_scale=0.15)
            error, leakage = self._block_error_and_leakage_bound(lam, trunc, a, b, 5)
            assert leakage < 1e-8
            assert error < 1e-8

    def test_homomorphism_within_leakage_bound_for_unit_elements(self):
        lam, trunc = -2.0, fk.FockTruncation(n=1, max_degree=10)
        for seed in (4, 5, 6):
            a = random_element(1, seed)
            b = random_element(1, seed + 100)
            error, leakage = self._block_error_and_leakage_bound(lam, trunc, a, b, 5)
            assert error <= leakage + 1e-8

    def test_negative_frequency_matches_direct_quadrature(self):
        # Recompute entries straight from the negative-frequency action,
        # independently of the sign-flip path used by the module.
        lam, trunc = -2.0, fk.FockTruncation(n=1, max_degree=4)
        a = element([0.6 - 0.3j], 0.7)

        def direct_entry(alpha, beta):
            def acted(w):
                pref = np.exp(
                    1j * lam * a.t
                    + 0.5 * lam * w * a.z[0]
                    + 0.25 * lam * float(np.sum(np.abs(a.z) ** 2))
                )
                vals = fk.basis_values(trunc, lam, [w + np.conj(a.z[0])])
                return pref * vals[trunc.index_of(beta)]

            def probe(w):
                return fk.basis_values(trunc, lam, [w])[trunc.index_of(alpha)]

            return fk.gaussian_pairing(lam, 1, acted, probe, node_count=20)

        m = bg.rep_matrix(lam, a, trunc)
        for i, alpha in enumerate(trunc.indices):
            for j, beta in enumerate(trunc.indices):
                assert abs(m.entries[i, j] - direct_entry(alpha, beta)) < 1e-10

    def test_columns_nearly_unit_on_low_degrees(self):
        lam, trunc = -2.0, fk.FockTruncation(n=1, max_degree=10)
        for seed in (7, 8):
            a = random_element(1, seed)
            m = bg.rep_matrix(lam, a, trunc)
            norms_sq = np.sum(np.abs(m.entries) ** 2, axis=0)
            for j, beta in enumerate(trunc.indices):
                if beta.degree <= 5:
                    bound = bg.column_defect_bound(lam, a, trunc, beta.degree)
                    assert 1.0 - norms_sq[j] <= bound + 1e-9
                    assert norms_sq[j] <= 1.0 + 1e-9

    def test_zero_frequency_rejected(self):
        trunc = fk.FockTruncation(n=1, max_degree=2)
        with pytest.raises(InvalidParameterError):
            bg.rep_matrix(0.0, hg.identity(1), trunc)


class TestP0Row:
    def test_identity_gives_unit_constant(self):
        trunc = fk.FockTruncation(n=1, max_degree=5)
        row = bg.p0_row(-2.0, hg.identity(1), trunc)
        expected = np.zeros(trunc.dim)
        expected[0] = 1.0
        assert np.max(np.abs(row.coeffs - expected)) < 1e-15

    def test_positive_frequency_rejected(self):
        trunc = fk.FockTruncation(n=1, max_degree=3)
        with pytest.raises(InvalidParameterError):
            bg.p0_row(2.0, hg.identity(1), trunc)

    def test_matches_top_row_of_matrix(self):
        for n, max_degree, lam in ((1, 8, -2.0), (1, 8, -0.7), (2, 6, -2.0), (2, 6, -0.7)):
            trunc = fk.FockTruncation(n=n, max_degree=max_degree)
            for seed in (9, 10):
                a = random_element(n, seed)
                row = bg.p0_row(lam, a, trunc)
                m = bg.rep_matrix(lam, a, trunc)
                assert np.max(np.abs(m.entries[0, :] - row.coeffs)) <= 1e-14

    @pytest.mark.parametrize("n,max_degree", [(1, 12), (2, 10)])
    def test_truncated_norm_within_tail_of_one(self, n, max_degree):
        lam, trunc = -2.0, fk.FockTruncation(n=n, max_degree=max_degree)
        for seed in (11, 12):
            a = random_element(n, seed, z_scale=1.2)
            row = bg.p0_row(lam, a, trunc)
            deficit = 1.0 - fk.norm_sq(row)
            bound = bg.p0_tail_deficit_bound(lam, a, max_degree)
            assert -1e-12 <= deficit <= bound + 1e-12


class TestDerivatives:
    @pytest.mark.parametrize("lam", [2.0, -2.0])
    def test_central_direction(self, lam):
        trunc = fk.FockTruncation(n=1, max_degree=6)
        assert bg.dsigma_check(lam, "T", trunc) < 1e-6

    @pytest.mark.parametrize("lam", [2.0, -2.0])
    def test_conjugate_boundary_field(self, lam):
        trunc = fk.FockTruncation(n=1, max_degree=6)
        assert bg.dsigma_check(lam, "Zbar_right", trunc) < 1e-6

    @pytest.mark.parametrize("lam", [2.0, -2.0])
    def test_holomorphic_boundary_field(self, lam):
        trunc = fk.FockTruncation(n=1, max_degree=6)
        assert bg.dsigma_check(lam, "Z", trunc) < 1e-6

    def test_second_slot_dimension_two(self):
        trunc = fk.FockTruncation(n=2, max_degree=4)
        assert bg.dsigma_check(-3.0, "Zbar_right", trunc, slot=1) < 1e-6

    def test_closed_form_shift_matrix_entries(self):
        # d/dw on normalized monomials: alpha -> alpha - e_j with weight
        # sqrt(alpha_j |lambda| / 2).
        lam, trunc = -2.0, fk.FockTruncation(n=1, max_degree=4)
        d = bg.derivative_matrix(lam, "Zbar_right", trunc)
        for j, alpha in enumerate(trunc.indices):
            if alpha[0] > 0:
                i = trunc.index_of((alpha[0] - 1,))
                assert d[i, j] == pytest.approx(math.sqrt(alpha[0]), rel=1e-14)

    def test_small_step_rejected(self):
        trunc = fk.FockTruncation(n=1, max_degree=3)
        with pytest.raises(InvalidParameterError):
            bg.dsigma_check(-2.0, "T", trunc, step=1e-12)

    def test_unknown_field_rejected(self):
        trunc = fk.FockTruncation(n=1, max_degree=3)
        with pytest.raises(InvalidParameterError):
            bg.dsigma_check(-2.0, "X", trunc)
