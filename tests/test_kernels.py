"""Tests for the closed-form kernels: pairing algebra, constants, pointwise
evaluation, reproducing checks, invariance and transfer identities, Gram
matrices, and the weighted pairing-power integral.

Reference values are recomputed here from scratch (cmath logs and powers,
gamma-function arithmetic, the Beta-chain reduction of the power integral) so
both sides of every identity come from independent code paths.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siegelpw.kernels as kr
import siegelpw.spectral as sp
from siegelpw.errors import (
    DivergentIntegralError,
    InvalidParameterError,
    KernelDomainError,
    UnderResolvedError,
)
from siegelpw.heisenberg import HeisenbergElement
from siegelpw.quadrature import power_ratio_integral
from siegelpw.siegel import (
    BallPoint,
    Composition,
    Dilation,
    HeisenbergTranslation,
    HorocyclicCoordinates,
    Inversion,
    SiegelPoint,
    Unitary,
    apply,
    base_point,
    cayley,
    psi_inv,
    rho,
)

FOUR_PI = 4.0 * math.pi


def chart(z_entries, t, h):
    return HorocyclicCoordinates(
        z=np.asarray(z_entries, dtype=complex), t=float(t), h=float(h)
    )


def point(z_entries, t, h):
    return psi_inv(chart(z_entries, t, h))


def rand_interior(rng, n, spread=0.7, h_lo=0.3, h_hi=2.0):
    z = rng.normal(0.0, spread, n) + 1j * rng.normal(0.0, spread, n)
    return point(z, rng.normal(0.0, spread), rng.uniform(h_lo, h_hi))


def rand_ball(rng, n, radius=0.55):
    vec = rng.normal(0.0, 1.0, n + 1) + 1j * rng.normal(0.0, 1.0, n + 1)
    vec *= rng.uniform(0.05, radius) / np.linalg.norm(vec)
    return BallPoint(omega=vec)


def pairing_oracle(p, q):
    """The pairing recomputed from the chart formula (independent of the
    raw-coordinate formula used by the module)."""
    cross = complex(np.sum(p.z * np.conj(q.z)))
    two_q = (
        (p.h + q.h)
        + 0.25 * float(np.sum(np.abs(p.z) ** 2) + np.sum(np.abs(q.z) ** 2))
        - 0.5 * cross.real
        - 1j * ((p.t - q.t) + 0.5 * cross.imag)
    )
    return 0.5 * two_q


def log_kernel_oracle(zeta, omega, m, n, dotted):
    """Logarithmic kernel recomputed with per-factor cmath logs and the
    gamma-arithmetic constant."""
    const = 2.0 ** (2 * m - n - 1) / (
        math.gamma(2 * m - n - 1) * (2.0 * math.pi) ** (n + 1)
    )
    center = base_point(n)
    value = const * (
        cmath.log(pairing_oracle(zeta, center))
        + cmath.log(pairing_oracle(center, omega))
        - cmath.log(pairing_oracle(zeta, omega))
    )
    return value if dotted else value + 1.0


POWER_CONSTANT_ORACLES = {
    kr.Szego(): lambda n: math.gamma(n + 1) / FOUR_PI ** (n + 1),
    kr.Bergman(0.0): lambda n: math.gamma(n + 2) / FOUR_PI ** (n + 1),
    kr.Bergman(1.5): lambda n: math.gamma(n + 3.5)
    / (math.gamma(2.5) * FOUR_PI ** (n + 1)),
    kr.WeightedDirichlet(-1.5, 1): lambda n: 4.0
    * math.gamma(n + 0.5)
    / (math.gamma(1.5) * FOUR_PI ** (n + 1)),
    kr.WeightedDirichlet(-2.0, 1): lambda n: 4.0 * math.gamma(n) / FOUR_PI ** (n + 1),
}


# ---------------------------------------------------------------------------
# Pairing
# ---------------------------------------------------------------------------


class TestPairing:
    def test_base_diagonal_is_one(self):
        for n in (1, 2):
            assert kr.q_pairing(base_point(n), base_point(n)) == 1.0 + 0.0j

    def test_diagonal_is_height(self):
        rng = np.random.default_rng(1)
        for n in (1, 2):
            for _ in range(5):
                p = rand_interior(rng, n)
                assert kr.q_pairing(p, p) == pytest.approx(rho(p), rel=1e-13)

    def test_hermitian_swap(self):
        rng = np.random.default_rng(2)
        for n in (1, 2):
            p, q = rand_interior(rng, n), rand_interior(rng, n)
            assert kr.q_pairing(p, q) == kr.q_pairing(q, p).conjugate()

    def test_chart_formula_oracle(self):
        rng = np.random.default_rng(3)
        for n in (1, 2):
            for _ in range(5):
                p, q = rand_interior(rng, n), rand_interior(rng, n)
                assert kr.q_pairing(p, q) == pytest.approx(
                    pairing_oracle(p, q), rel=1e-12
                )

    def test_real_part_positive_for_interior_pairs(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            p, q = rand_interior(rng, 1, spread=2.0), rand_interior(rng, 1, spread=2.0)
            assert kr.q_pairing(p, q).real > 0.0

    @given(
        tp=st.floats(-40.0, 40.0),
        tq=st.floats(-40.0, 40.0),
        hp=st.floats(1e-3, 50.0),
        hq=st.floats(1e-3, 50.0),
        x=st.floats(-8.0, 8.0),
        y=st.floats(-8.0, 8.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_hermitian_property(self, tp, tq, hp, hq, x, y):
        p = point([complex(x, y)], tp, hp)
        q = point([complex(-y, x)], tq, hq)
        forward = kr.q_pairing(p, q)
        assert forward == kr.q_pairing(q, p).conjugate()
        assert forward.real > 0.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_ambient_definition(self, n):
        # (zeta_last - conj(omega_last))/(2i) - zeta'.conj(omega')/4 on
        # interior, boundary and exterior points alike.
        rng = np.random.default_rng(100 + n)
        points = []
        for height in (0.7, 0.0, -0.4):
            for _ in range(4):
                z = rng.normal(0.0, 1.5, n) + 1j * rng.normal(0.0, 1.5, n)
                points.append(SiegelPoint(z, rng.normal(0.0, 2.0), height * rng.uniform(0.2, 3.0)))
        for p in points:
            for q in points:
                cross = complex(np.sum(p.zeta_prime * np.conj(q.zeta_prime)))
                ambient = (p.zeta_last - q.zeta_last.conjugate()) / 2j - 0.25 * cross
                scale = max(1.0, abs(p.zeta_last), abs(q.zeta_last))
                assert abs(kr.q_pairing(p, q) - ambient) <= 1e-14 * scale

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            kr.q_pairing(base_point(1), base_point(2))

    def test_non_point_rejected(self):
        with pytest.raises(InvalidParameterError):
            kr.q_pairing(base_point(1), 1.0 + 2.0j)


# ---------------------------------------------------------------------------
# Constants
# ---------------------------------------------------------------------------


class TestConstants:
    def test_boundary_pairing_values(self):
        assert kr.kernel_constant(kr.Szego(), 1).value == pytest.approx(
            1.0 / (16.0 * math.pi**2), rel=1e-14
        )
        assert kr.kernel_constant(kr.Szego(), 2).value == pytest.approx(
            2.0 / FOUR_PI**3, rel=1e-14
        )

    def test_volume_pairing_value_and_text(self):
        const = kr.kernel_constant(kr.Bergman(0.0), 1)
        assert const.value == pytest.approx(1.0 / (8.0 * math.pi**2), rel=1e-14)
        assert const.text == "Γ(3)/(Γ(1)(4π)^2)"

    def test_boundary_pairing_text(self):
        assert kr.kernel_constant(kr.Szego(), 1).text == "Γ(2)/(4π)^2"

    def test_derivative_pairing_value(self):
        got = kr.kernel_constant(kr.WeightedDirichlet(-1.5, 1), 1).value
        assert got == pytest.approx(1.0 / (4.0 * math.pi**2), rel=1e-14)

    def test_log_kernel_value(self):
        got = kr.kernel_constant(kr.DirichletLog(2), 1).value
        assert got == pytest.approx(1.0 / math.pi**2, rel=1e-14)

    def test_ball_log_kernel_value(self):
        assert kr.kernel_constant(kr.BallDirichlet(), 1).value == pytest.approx(
            2.0 / math.pi**2, rel=1e-14
        )

    def test_gamma_arithmetic_oracles(self):
        for kid, oracle in POWER_CONSTANT_ORACLES.items():
            for n in (1, 2):
                assert kr.kernel_constant(kid, n).value == pytest.approx(
                    oracle(n), rel=1e-13
                )

    def test_id_validation(self):
        with pytest.raises(InvalidParameterError):
            kr.Bergman(-1.0)
        with pytest.raises(InvalidParameterError):
            kr.Bergman(-1.2)
        with pytest.raises(InvalidParameterError):
            kr.WeightedDirichlet(-0.5, 1)  # too high for a derivative pairing
        with pytest.raises(InvalidParameterError):
            kr.WeightedDirichlet(-3.2, 1)  # 2m + nu <= -1
        with pytest.raises(InvalidParameterError):
            kr.WeightedDirichlet(-1.5, 0)
        with pytest.raises(InvalidParameterError):
            kr.DirichletLog(0)

    def test_dimension_dependent_validation(self):
        with pytest.raises(InvalidParameterError):
            kr.kernel_constant(kr.WeightedDirichlet(-3.5, 2), 1)  # below -(n+2)
        kr.kernel_constant(kr.WeightedDirichlet(-3.5, 2), 2)  # fine one dim up
        with pytest.raises(InvalidParameterError):
            kr.kernel_constant(kr.DirichletLog(1), 1)  # needs 2m > n+1
        with pytest.raises(InvalidParameterError):
            kr.kernel_constant(kr.Szego(), 0)


#: Invalid descriptors, each with a dimension and whether its range is
#: independent of the dimension (then the descriptor cannot be built at all).
INVALID_DESCRIPTORS = [
    pytest.param(lambda: kr.Bergman(-1.0), 1, True, id="bergman-nu-at-minus-one"),
    pytest.param(lambda: kr.WeightedDirichlet(-0.5, 1), 1, True, id="weighted-nu-above-minus-one"),
    pytest.param(lambda: kr.WeightedDirichlet(-3.2, 1), 2, True, id="weighted-2m-plus-nu"),
    pytest.param(lambda: kr.WeightedDirichlet(-1.5, 0), 1, True, id="weighted-order-zero"),
    pytest.param(lambda: kr.WeightedDirichlet(-1.5, 1.0), 1, True, id="weighted-order-float"),
    pytest.param(lambda: kr.WeightedDirichlet(-3.5, 2), 1, False, id="weighted-nu-below-minus-n-2"),
    pytest.param(lambda: sp.DruryArveson(0), 1, True, id="drury-arveson-order-zero"),
    pytest.param(lambda: sp.DruryArveson(1), 2, False, id="drury-arveson-2m-le-n"),
    pytest.param(lambda: kr.DirichletLog(True), 3, True, id="dirichlet-order-bool"),
    pytest.param(lambda: kr.DirichletLog(1), 1, False, id="dirichlet-2m-le-n-plus-1"),
    pytest.param(lambda: kr.DirichletLog(2, dotted=True), 3, False, id="dotted-2m-le-n-plus-1"),
]


class TestOneDescriptor:
    @pytest.mark.parametrize("make, n, at_construction", INVALID_DESCRIPTORS)
    def test_one_validator_serves_kernels_and_norms(self, make, n, at_construction):
        if at_construction:
            with pytest.raises(InvalidParameterError):
                make()
            return
        descriptor = make()
        for check in (kr.kernel_constant, sp.spectral_weight, sp.norm_identity_constant):
            with pytest.raises(InvalidParameterError):
                check(descriptor, n)
        with pytest.raises(InvalidParameterError):
            kr.kernel_profile(descriptor, base_point(n))

    def test_kernel_constant_is_cached_per_descriptor_and_dimension(self):
        kid = kr.Bergman(0.75)
        first = kr.kernel_constant(kid, 2)
        hits = kr._kernel_constant.cache_info().hits
        assert kr.kernel_constant(kr.Bergman(0.75), 2) is first
        assert kr._kernel_constant.cache_info().hits == hits + 1
        fresh = kr._kernel_constant.__wrapped__(kid, 2)
        assert fresh == first and fresh.value == first.value
        with pytest.raises(InvalidParameterError):
            kr.kernel_constant(kid, True)

    def test_kernel_ids_are_the_space_descriptors(self):
        assert kr.Szego is sp.Hardy
        assert kr.Bergman is sp.Bergman
        assert kr.WeightedDirichlet is sp.WeightedDirichlet
        assert kr.DirichletLog is sp.Dirichlet

    @pytest.mark.parametrize("n, m", [(1, 1), (1, 2), (2, 2)])
    def test_drury_arveson_kernel_is_the_weighted_dirichlet_kernel(self, n, m):
        rng = np.random.default_rng(17 + 3 * n + m)
        zeta, omega = rand_interior(rng, n), rand_interior(rng, n)
        kid = sp.DruryArveson(m)
        same = kr.WeightedDirichlet(-(n + 1), m)
        assert kr.kernel_constant(kid, n) == kr.kernel_constant(same, n)
        assert kr.kernel_eval(kid, zeta, omega) == kr.kernel_eval(same, zeta, omega)
        assert kr.reproducing_check(kid, zeta, omega) < 1e-10


# ---------------------------------------------------------------------------
# Pointwise evaluation
# ---------------------------------------------------------------------------


class TestKernelEval:
    def test_boundary_pairing_at_base(self):
        for n in (1, 2):
            got = kr.kernel_eval(kr.Szego(), base_point(n), base_point(n))
            assert got == pytest.approx(
                math.gamma(n + 1) / FOUR_PI ** (n + 1), rel=1e-14
            )

    def test_power_kernels_against_cmath_oracle(self):
        rng = np.random.default_rng(5)
        for kid, const_oracle in POWER_CONSTANT_ORACLES.items():
            nu = -1.0 if isinstance(kid, kr.Szego) else kid.nu
            for n in (1, 2):
                zeta, omega = rand_interior(rng, n), rand_interior(rng, n)
                q = pairing_oracle(zeta, omega)
                expected = const_oracle(n) * cmath.exp(-(n + 2.0 + nu) * cmath.log(q))
                assert kr.kernel_eval(kid, zeta, omega) == pytest.approx(
                    expected, rel=1e-12
                )

    def test_volume_pairing_diagonal(self):
        rng = np.random.default_rng(6)
        p = rand_interior(rng, 1)
        got = kr.kernel_eval(kr.Bergman(0.0), p, p)
        assert got.imag == pytest.approx(0.0, abs=1e-18)
        assert got.real == pytest.approx(
            (1.0 / (8.0 * math.pi**2)) * rho(p) ** -3.0, rel=1e-13
        )

    def test_hermitian_symmetry_all_kernels(self):
        rng = np.random.default_rng(7)
        ids = list(POWER_CONSTANT_ORACLES) + [
            kr.DirichletLog(2),
            kr.DirichletLog(2, dotted=True),
        ]
        zeta, omega = rand_interior(rng, 1), rand_interior(rng, 1)
        for kid in ids:
            assert kr.kernel_eval(kid, zeta, omega) == pytest.approx(
                kr.kernel_eval(kid, omega, zeta).conjugate(), rel=1e-12
            )
        wb, zb = rand_ball(rng, 1), rand_ball(rng, 1)
        assert kr.kernel_eval(kr.BallDirichlet(), wb, zb) == pytest.approx(
            kr.kernel_eval(kr.BallDirichlet(), zb, wb).conjugate(), rel=1e-12
        )

    def test_log_kernel_against_cmath_oracle(self):
        rng = np.random.default_rng(8)
        for n, m in ((1, 2), (1, 3), (2, 2)):
            zeta, omega = rand_interior(rng, n), rand_interior(rng, n)
            for dotted in (False, True):
                got = kr.kernel_eval(kr.DirichletLog(m, dotted=dotted), zeta, omega)
                assert got == pytest.approx(
                    log_kernel_oracle(zeta, omega, m, n, dotted), rel=1e-12
                )

    def test_log_kernel_center_values_exact(self):
        rng = np.random.default_rng(9)
        center = base_point(1)
        zeta = rand_interior(rng, 1)
        assert kr.kernel_eval(kr.DirichletLog(2), center, center) == 1.0 + 0.0j
        assert kr.kernel_eval(kr.DirichletLog(2), center, zeta) == 1.0 + 0.0j
        assert kr.kernel_eval(kr.DirichletLog(2), zeta, center) == 1.0 + 0.0j
        assert kr.kernel_eval(kr.DirichletLog(2, dotted=True), zeta, center) == 0.0j

    def test_full_minus_dotted_is_one(self):
        rng = np.random.default_rng(10)
        zeta, omega = rand_interior(rng, 1), rand_interior(rng, 1)
        full = kr.kernel_eval(kr.DirichletLog(2), zeta, omega)
        dotted = kr.kernel_eval(kr.DirichletLog(2, dotted=True), zeta, omega)
        assert full - dotted == 1.0 + 0.0j

    def test_tracking_modes_agree_in_range(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            zeta, omega = rand_interior(rng, 1, spread=1.5), rand_interior(rng, 1, spread=1.5)
            tracked = kr.kernel_eval(kr.DirichletLog(2), zeta, omega)
            plain = kr.kernel_eval(kr.DirichletLog(2), zeta, omega, tracking=False)
            assert tracked == pytest.approx(plain, rel=1e-13)

    def test_branch_guard_without_tracking(self):
        spin = cmath.exp(1j * math.pi / 2.2)
        tracked = kr._log_ratio(spin, spin, spin.conjugate(), True)
        assert tracked.imag == pytest.approx(3.0 * math.pi / 2.2, rel=1e-12)
        with pytest.raises(KernelDomainError):
            kr._log_ratio(spin, spin, spin.conjugate(), False)

    def test_vanishing_pairing_rejected(self):
        with pytest.raises(KernelDomainError):
            kr._log_ratio(0.0j, 1.0 + 0.0j, 1.0 + 0.0j, True)

    def test_ball_kernel_against_cmath_oracle(self):
        rng = np.random.default_rng(12)
        for n in (1, 2):
            wb, zb = rand_ball(rng, n), rand_ball(rng, n)
            inner = complex(np.sum(wb.omega * np.conj(zb.omega)))
            expected = (
                math.gamma(n + 2) / math.pi ** (n + 1) * -cmath.log(1.0 - inner)
            )
            assert kr.kernel_eval(kr.BallDirichlet(), wb, zb) == pytest.approx(
                expected, rel=1e-13
            )

    def test_ball_kernel_at_origin_is_zero(self):
        origin = BallPoint(omega=np.zeros(2))
        assert kr.kernel_eval(kr.BallDirichlet(), origin, origin) == 0.0j

    def test_boundary_rules(self):
        boundary = point([0.4 + 0.2j], 0.3, 0.0)
        other_boundary = point([0.1 - 0.5j], -0.2, 0.0)
        interior = base_point(1)
        value = kr.kernel_eval(kr.Szego(), boundary, interior)
        q = pairing_oracle(boundary, interior)
        assert value == pytest.approx(
            (1.0 / (16.0 * math.pi**2)) * q**-2.0, rel=1e-12
        )
        for second in (boundary, other_boundary):
            with pytest.raises(KernelDomainError):
                kr.kernel_eval(kr.Szego(), boundary, second)
        for kid in (kr.Bergman(0.0), kr.WeightedDirichlet(-1.5, 1), kr.DirichletLog(2)):
            with pytest.raises(KernelDomainError):
                kr.kernel_eval(kid, boundary, interior)

    def test_exterior_rejected(self):
        exterior = SiegelPoint.from_ambient(np.array([2.0 + 0.0j]), 0.1j)
        with pytest.raises(KernelDomainError):
            kr.kernel_eval(kr.Szego(), exterior, base_point(1))

    def test_type_mismatches_rejected(self):
        wb = BallPoint(omega=np.zeros(2))
        with pytest.raises(InvalidParameterError):
            kr.kernel_eval(kr.BallDirichlet(), base_point(1), base_point(1))
        with pytest.raises(InvalidParameterError):
            kr.kernel_eval(kr.Bergman(0.0), wb, wb)
        with pytest.raises(InvalidParameterError):
            kr.kernel_eval(kr.Bergman(0.0), base_point(1), base_point(2))
        with pytest.raises(InvalidParameterError):
            kr.kernel_eval(
                kr.BallDirichlet(), wb, BallPoint(omega=np.zeros(3))
            )


# ---------------------------------------------------------------------------
# Slices, profiles, combinations
# ---------------------------------------------------------------------------


class TestSlices:
    def test_slice_matches_eval(self):
        rng = np.random.default_rng(13)
        base = rand_interior(rng, 1)
        ids = [
            kr.Szego(),
            kr.Bergman(0.0),
            kr.WeightedDirichlet(-1.5, 1),
            kr.DirichletLog(2),
            kr.DirichletLog(2, dotted=True),
        ]
        for kid in ids:
            fn = kr.kernel_slice(kid, base)
            for _ in range(3):
                zeta = rand_interior(rng, 1)
                values = np.ravel(
                    np.asarray(fn.chart_values([np.full(1, c) for c in zeta.z], zeta.t, zeta.h))
                )
                assert complex(values[0]) == pytest.approx(
                    kr.kernel_eval(kid, zeta, base), rel=1e-11
                )

    def test_volume_kernel_matches_quadrature_synthesis(self):
        rng = np.random.default_rng(14)
        base = rand_interior(rng, 1)
        zeta = rand_interior(rng, 1)
        profile = kr.kernel_profile(kr.Bergman(0.7), base)
        direct = kr.kernel_eval(kr.Bergman(0.7), zeta, base)
        synthesized = sp.synthesize(profile, zeta)
        assert abs(synthesized - direct) / abs(direct) < 1e-8

    def test_ball_slice_rejected(self):
        with pytest.raises(InvalidParameterError):
            kr.kernel_slice(kr.BallDirichlet(), base_point(1))
        with pytest.raises(InvalidParameterError):
            kr.space_tag_for(kr.BallDirichlet())

    def test_space_tags(self):
        assert kr.space_tag_for(kr.Szego()) == sp.Hardy()
        assert kr.space_tag_for(kr.Bergman(0.5)) == sp.Bergman(0.5)
        assert kr.space_tag_for(kr.WeightedDirichlet(-1.5, 1)) == sp.WeightedDirichlet(
            -1.5, 1
        )
        assert kr.space_tag_for(kr.DirichletLog(2)) == sp.Dirichlet(2)


class TestFunctionCombination:
    def test_linearity(self):
        rng = np.random.default_rng(15)
        f = kr.kernel_slice(kr.Bergman(0.0), rand_interior(rng, 1))
        g = kr.kernel_slice(kr.Bergman(0.0), rand_interior(rng, 1))
        combo = kr.FunctionCombination(((2.0 - 1.0j, f), (0.5j, g)))
        z = [np.linspace(-0.4, 0.4, 5) + 0.1j]
        t, h = 0.2, 0.8
        manual = (2.0 - 1.0j) * f.chart_values(z, t, h) + 0.5j * g.chart_values(z, t, h)
        np.testing.assert_allclose(combo.chart_values(z, t, h), manual, rtol=1e-14)

    def test_height_derivative_distributes(self):
        rng = np.random.default_rng(16)
        f = kr.kernel_slice(kr.WeightedDirichlet(-1.5, 1), rand_interior(rng, 1))
        g = kr.kernel_slice(kr.WeightedDirichlet(-1.5, 1), rand_interior(rng, 1))
        combo = kr.FunctionCombination(((1.5, f), (-2.0j, g))).height_derivative(1)
        z = [np.array([0.1 - 0.2j])]
        t, h = -0.3, 1.1
        manual = 1.5 * f.height_derivative(1).chart_values(z, t, h) - 2.0j * g.height_derivative(1).chart_values(z, t, h)
        np.testing.assert_allclose(combo.chart_values(z, t, h), manual, rtol=1e-14)

    def test_logarithmic_slices_share_one_center_power_per_block(self, monkeypatch):
        # K dotted logarithmic slices of one height-derivative order make
        # K + 1 pairing powers per chart block, not 2K.
        rng = np.random.default_rng(17)
        kid = kr.DirichletLog(2, dotted=True)
        slices = [kr.kernel_slice(kid, rand_interior(rng, 1)) for _ in range(3)]
        coeffs = [1.0, -0.5 + 0.3j, 0.25j]
        combo = kr.FunctionCombination(tuple(zip(coeffs, slices))).height_derivative(2)
        z = [np.linspace(-1.5, 1.5, 7).reshape(-1, 1, 1) * np.exp(0.3j)]
        t, h = np.linspace(-2.0, 2.0, 5).reshape(1, -1, 1), np.geomspace(0.05, 5.0, 6)
        manual = sum(c * f.height_derivative(2).chart_values(z, t, h) for c, f in zip(coeffs, slices))
        np.testing.assert_allclose(combo.chart_values(z, t, h), manual, rtol=1e-12)

        powers, blocks = [], []
        power, accumulate = sp._pairing_power, sp._accumulate
        monkeypatch.setattr(sp, "_pairing_power", lambda *a: powers.append(a[2]) or power(*a))
        monkeypatch.setattr(sp, "_accumulate", lambda *a: blocks.append(1) or accumulate(*a))
        monkeypatch.setattr(sp, "_BLOCK_POINTS", 500)
        rules = sp.ChartNormRules(
            radial_panels=1, radial_order=5, angle_count=6, t_panels=1, t_order=6,
            h_panels=1, h_order=6, h_tail_panels=1, h_tail_order=5, check_tails=False,
        )
        sp._chart_gram([combo], 1, sp._tag_data(kid, 1)[0], rules)
        assert len(blocks) > 1
        assert len(powers) == 4 * len(blocks)
        assert set(powers) == {2}

    def test_validation(self):
        f = kr.kernel_slice(kr.Bergman(0.0), base_point(1))
        g2 = kr.kernel_slice(kr.Bergman(0.0), base_point(2))
        with pytest.raises(InvalidParameterError):
            kr.FunctionCombination(())
        with pytest.raises(InvalidParameterError):
            kr.FunctionCombination(((1.0, f), (1.0, g2)))
        with pytest.raises(InvalidParameterError):
            kr.FunctionCombination(((f, 1.0),))


# ---------------------------------------------------------------------------
# Reproducing checks
# ---------------------------------------------------------------------------


SPECTRAL_IDS = [
    kr.Szego(),
    kr.Bergman(0.0),
    kr.Bergman(1.5),
    kr.WeightedDirichlet(-1.5, 1),
    kr.WeightedDirichlet(-2.0, 1),
    kr.WeightedDirichlet(-2.0, 2),
    kr.DirichletLog(2),
    kr.DirichletLog(2, dotted=True),
    kr.DirichletLog(3),
]


class TestReproducingSpectral:
    def test_all_kernels_reproduce(self):
        rng = np.random.default_rng(17)
        zeta, omega = rand_interior(rng, 1), rand_interior(rng, 1)
        for kid in SPECTRAL_IDS:
            assert kr.reproducing_check(kid, zeta, omega, method="spectral") < 1e-10

    def test_two_dimensional_smoke(self):
        rng = np.random.default_rng(18)
        zeta, omega = rand_interior(rng, 2), rand_interior(rng, 2)
        for kid in (kr.Bergman(0.0), kr.DirichletLog(2)):
            assert kr.reproducing_check(kid, zeta, omega, method="spectral") < 1e-10

    def test_anchor_validation(self):
        with pytest.raises(InvalidParameterError):
            kr.reproducing_check(kr.BallDirichlet(), base_point(1), base_point(1))
        boundary = point([0.0], 0.0, 0.0)
        with pytest.raises(KernelDomainError):
            kr.reproducing_check(kr.Szego(), boundary, base_point(1))
        with pytest.raises(InvalidParameterError):
            kr.reproducing_check(
                kr.Bergman(0.0), base_point(1), base_point(1), method="guess"
            )


class TestReproducingQuadrature:
    def test_boundary_pairing(self):
        rng = np.random.default_rng(19)
        zeta, omega = rand_interior(rng, 1), rand_interior(rng, 1)
        assert kr.reproducing_check(kr.Szego(), zeta, omega, method="quadrature") < 1e-5

    def test_volume_pairing(self):
        rng = np.random.default_rng(20)
        zeta, omega = rand_interior(rng, 1), rand_interior(rng, 1)
        assert (
            kr.reproducing_check(kr.Bergman(0.0), zeta, omega, method="quadrature")
            < 1e-6
        )

    def test_log_kernel(self):
        rng = np.random.default_rng(21)
        zeta, omega = rand_interior(rng, 1), rand_interior(rng, 1)
        assert (
            kr.reproducing_check(kr.DirichletLog(2), zeta, omega, method="quadrature")
            < 1e-6
        )

    def test_error_decreases_under_refinement(self):
        rng = np.random.default_rng(22)
        zeta, omega = rand_interior(rng, 1), rand_interior(rng, 1)
        kid = kr.WeightedDirichlet(-2.0, 1)
        # The deliberately coarse pass needs a looser tail-drift guard: its
        # under-resolved far field moves when the panels stretch.
        coarse_rules = dataclasses.replace(sp.ChartNormRules(), drift_tolerance=5e-3)
        coarse = kr.reproducing_check(
            kid, zeta, omega, method="quadrature", rules=coarse_rules
        )
        fine = kr.reproducing_check(
            kid, zeta, omega, method="quadrature", rules=kr.KERNEL_QUADRATURE_RULES
        )
        assert fine < coarse

    def test_constant_function_reproduces_in_log_space(self):
        rng = np.random.default_rng(23)
        zeta = rand_interior(rng, 1)
        value = 0.75 - 0.4j
        constant_fn = sp.ProfileFunction(sp.FiniteProfile(1, ()), value)
        got = kr.space_inner_product(
            constant_fn, kr.kernel_slice(kr.DirichletLog(2), zeta), sp.Dirichlet(2)
        )
        assert got == pytest.approx(value, abs=1e-12)

    def test_self_inner_product_equals_norm(self):
        rng = np.random.default_rng(24)
        F = kr.kernel_slice(kr.Bergman(0.0), rand_interior(rng, 1))
        ip = kr.space_inner_product(F, F, sp.Bergman(0.0))
        nrm = sp.space_norm_sq(F, sp.Bergman(0.0), kr.KERNEL_QUADRATURE_RULES)
        assert ip.imag == 0.0
        assert ip.real == pytest.approx(nrm, rel=1e-12)

    def test_conjugate_symmetry_and_linearity(self):
        rng = np.random.default_rng(25)
        F = kr.kernel_slice(kr.Bergman(0.0), rand_interior(rng, 1))
        G = kr.kernel_slice(kr.Bergman(0.0), rand_interior(rng, 1))
        tag = sp.Bergman(0.0)
        forward = kr.space_inner_product(F, G, tag)
        backward = kr.space_inner_product(G, F, tag)
        assert forward == pytest.approx(backward.conjugate(), rel=1e-10)
        scaled_F = kr.FunctionCombination((((0.5 + 2.0j), F),))
        scaled = kr.space_inner_product(scaled_F, G, tag)
        assert scaled == pytest.approx((0.5 + 2.0j) * forward, rel=1e-10)


#: Coarse layout: enough to compare two ways of computing the same sums.
SMALL_RULES = sp.ChartNormRules(
    radial_panels=1,
    radial_order=5,
    angle_count=6,
    t_panels=1,
    t_order=6,
    h_panels=1,
    h_order=6,
    h_tail_panels=1,
    h_tail_order=5,
    check_tails=False,
)

DIRECT_CASES = [
    (kr.Bergman(0.0), sp.Bergman(0.0)),
    (kr.DirichletLog(2), sp.Dirichlet(2)),
    (kr.Szego(), sp.Hardy()),
]


def polarized_inner_product(F, G, tag, rules):
    """Four squared norms of F + cG, c in {1, -1, i, -i}."""

    def norm_sq(c):
        return sp.space_norm_sq(kr.FunctionCombination(((1.0, F), (c, G))), tag, rules)

    return 0.25 * (norm_sq(1.0) - norm_sq(-1.0)) + 0.25j * (norm_sq(1.0j) - norm_sq(-1.0j))


class TestDirectInnerProduct:
    def _pair(self, kid):
        rng = np.random.default_rng(31)
        return (kr.kernel_slice(kid, rand_interior(rng, 1)) for _ in range(2))

    @pytest.mark.parametrize("kid, tag", DIRECT_CASES)
    def test_matches_norm_polarization(self, kid, tag):
        F, G = self._pair(kid)
        direct = kr.space_inner_product(F, G, tag, SMALL_RULES)
        polarized = polarized_inner_product(F, G, tag, SMALL_RULES)
        scale = sp.space_norm_sq(F, tag, SMALL_RULES) + sp.space_norm_sq(G, tag, SMALL_RULES)
        assert abs(direct.imag) > 1e-3 * scale  # a genuinely complex product
        assert abs(direct - polarized) < 1e-12 * scale

    def test_center_term_is_the_product_of_center_values(self):
        # The full logarithmic slices both equal one at the center, so the
        # endpoint product exceeds the derivative part alone by exactly one.
        F, G = self._pair(kr.DirichletLog(2))
        full = kr.space_inner_product(F, G, sp.Dirichlet(2), SMALL_RULES)
        volume = sp.space_gram(
            [F.height_derivative(2), G.height_derivative(2)], sp.Bergman(1.0), SMALL_RULES
        )[0, 1]
        assert full - volume == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kid", [kr.DirichletLog(2), kr.WeightedDirichlet(-1.5, 1), kr.Bergman(0.0)])
    def test_a_constant_entry_is_its_center_product(self, monkeypatch, kid):
        # A constant's derivative of order >= 1 is zero, so off the diagonal
        # the chart entry is the center product (0 outside the endpoint
        # space) with the bits of a full pass, and no pass runs; Bergman
        # pairs the constant itself and keeps its pass.
        constant = sp.ProfileFunction(sp.FiniteProfile(1, ()), 0.75 - 0.4j)
        functions = [constant, next(self._pair(kid))]
        full = kr.space_inner_product(*functions, kid, SMALL_RULES)
        if isinstance(kid, kr.Bergman):
            assert kr.chart_entry(functions, kid, (0, 1), SMALL_RULES) == full
            return
        monkeypatch.setattr(sp, "_chart_gram", None)
        for entry, value in (((0, 1), full), ((1, 0), full.conjugate())):
            assert kr.chart_entry(functions, kid, entry, SMALL_RULES) == value
        assert (full == 0.0) == isinstance(kid, kr.WeightedDirichlet)

    @pytest.mark.parametrize(
        "kid, tag, error",
        [
            (kr.Bergman(0.0), sp.Bergman(0.0), UnderResolvedError),
            (kr.Szego(), sp.Bergman(3.0), DivergentIntegralError),
            (kr.DirichletLog(2), sp.Dirichlet(2), UnderResolvedError),
            (kr.Szego(), sp.Hardy(), UnderResolvedError),
        ],
    )
    def test_drift_guard_watches_the_sum(self, kid, tag, error):
        # The guard decides on ||F + G||^2 exactly as a guarded norm of the
        # combination does.
        rules = dataclasses.replace(SMALL_RULES, check_tails=True)
        F, G = self._pair(kid)
        with pytest.raises(error):
            kr.space_inner_product(F, G, tag, rules)
        with pytest.raises(error):
            sp.space_norm_sq(kr.FunctionCombination(((1.0, F), (1.0, G))), tag, rules)


# ---------------------------------------------------------------------------
# Invariance and transfer
# ---------------------------------------------------------------------------


class TestMobiusInvariance:
    def _pair(self, seed):
        rng = np.random.default_rng(seed)
        return rand_interior(rng, 1), rand_interior(rng, 1)

    def test_dilation(self):
        zeta, omega = self._pair(26)
        for delta in (0.35, 2.2):
            assert kr.mobius_invariance_check(Dilation(delta), zeta, omega) < 1e-12

    def test_translation(self):
        zeta, omega = self._pair(27)
        shift = HeisenbergTranslation(HeisenbergElement(np.array([0.5 - 0.3j]), 0.8))
        assert kr.mobius_invariance_check(shift, zeta, omega) < 1e-12

    def test_unitary(self):
        zeta, omega = self._pair(28)
        phase = Unitary(np.array([[cmath.exp(0.7j)]]))
        assert kr.mobius_invariance_check(phase, zeta, omega) < 1e-12

    def test_inversion(self):
        zeta, omega = self._pair(29)
        assert kr.mobius_invariance_check(Inversion(), zeta, omega) < 1e-11

    def test_composition(self):
        zeta, omega = self._pair(30)
        phi = Composition(
            (
                Inversion(),
                Dilation(1.6),
                HeisenbergTranslation(HeisenbergElement(np.array([0.2 + 0.4j]), -0.5)),
            )
        )
        assert kr.mobius_invariance_check(phi, zeta, omega, m=3) < 1e-11

    def test_random_pairs_all_generators(self):
        rng = np.random.default_rng(31)
        generators = [
            Dilation(1.4),
            HeisenbergTranslation(HeisenbergElement(np.array([0.3 - 0.2j]), 0.4)),
            Unitary(np.array([[cmath.exp(-1.1j)]])),
            Inversion(),
        ]
        worst = 0.0
        for _ in range(25):
            zeta, omega = rand_interior(rng, 1), rand_interior(rng, 1)
            phi = generators[rng.integers(len(generators))]
            worst = max(worst, kr.mobius_invariance_check(phi, zeta, omega))
        assert worst < 1e-11

    def test_degenerate_pair_returns_zero(self):
        center = base_point(1)
        assert kr.mobius_invariance_check(Dilation(2.0), center, center) == 0.0

    def test_unrenormalized_comparison_fails(self):
        """The four-term identity is necessary: the raw pointwise comparison
        has a genuine defect for maps that move the distinguished center
        (the inversion fixes it, so only dilations and translations probe
        the renormalization)."""
        zeta, omega = self._pair(32)
        kid = kr.DirichletLog(2, dotted=True)
        center_movers = (
            Dilation(1.7),
            HeisenbergTranslation(HeisenbergElement(np.array([0.5 - 0.3j]), 0.8)),
        )
        for phi in center_movers:
            lhs = kr.kernel_eval(kid, zeta, omega)
            rhs = kr.kernel_eval(kid, apply(phi, zeta), apply(phi, omega))
            naive = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
            assert naive > 1e-3
            assert kr.mobius_invariance_check(phi, zeta, omega) < 1e-11


class TestCayleyTransfer:
    def test_origin_pair(self):
        origin = BallPoint(omega=np.zeros(2))
        assert kr.cayley_transfer_check(origin, origin) == 0.0

    def test_random_pairs(self):
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(25):
            worst = max(
                worst, kr.cayley_transfer_check(rand_ball(rng, 1), rand_ball(rng, 1))
            )
        assert worst < 1e-12

    def test_near_boundary(self):
        rng = np.random.default_rng(34)
        worst = max(
            kr.cayley_transfer_check(
                rand_ball(rng, 1, radius=0.97), rand_ball(rng, 1, radius=0.97)
            )
            for _ in range(10)
        )
        assert worst < 1e-10

    def test_two_dimensional_and_higher_order(self):
        rng = np.random.default_rng(35)
        assert (
            kr.cayley_transfer_check(rand_ball(rng, 2), rand_ball(rng, 2), m=3) < 1e-12
        )

    def test_direct_proportionality(self):
        """Away from the kernel zeros the two kernels are directly
        proportional with ratio ball-constant / half-space-constant."""
        rng = np.random.default_rng(36)
        wb, zb = rand_ball(rng, 1), rand_ball(rng, 1)
        ball_value = kr.kernel_eval(kr.BallDirichlet(), wb, zb)
        half_value = kr.kernel_eval(
            kr.DirichletLog(2, dotted=True), cayley(wb), cayley(zb)
        )
        expected_ratio = (
            kr.kernel_constant(kr.BallDirichlet(), 1).value
            / kr.kernel_constant(kr.DirichletLog(2), 1).value
        )
        assert ball_value / half_value == pytest.approx(expected_ratio, rel=1e-11)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameterError):
            kr.cayley_transfer_check(
                BallPoint(omega=np.zeros(2)), BallPoint(omega=np.zeros(3))
            )


# ---------------------------------------------------------------------------
# Gram matrices
# ---------------------------------------------------------------------------


class TestGram:
    def test_positive_semidefinite(self):
        rng = np.random.default_rng(37)
        pts = [rand_interior(rng, 1) for _ in range(8)]
        ids = list(POWER_CONSTANT_ORACLES) + [
            kr.DirichletLog(2),
            kr.DirichletLog(2, dotted=True),
        ]
        for kid in ids:
            gram = kr.gram_matrix(kid, pts)
            np.testing.assert_allclose(gram, gram.conj().T, rtol=0, atol=1e-15)
            eigenvalues = np.linalg.eigvalsh(gram)
            assert eigenvalues.min() > -1e-10 * np.trace(gram).real

    def test_ball_positive_semidefinite(self):
        rng = np.random.default_rng(38)
        pts = [rand_ball(rng, 1) for _ in range(8)]
        gram = kr.gram_matrix(kr.BallDirichlet(), pts)
        eigenvalues = np.linalg.eigvalsh(gram)
        assert eigenvalues.min() > -1e-10 * np.trace(gram).real

    def test_single_point(self):
        p = base_point(1)
        gram = kr.gram_matrix(kr.Bergman(0.0), [p])
        assert gram.shape == (1, 1)
        assert gram[0, 0] == kr.kernel_eval(kr.Bergman(0.0), p, p)

    def test_empty_rejected(self):
        with pytest.raises(InvalidParameterError):
            kr.gram_matrix(kr.Bergman(0.0), [])

    def test_dotted_gram_identity(self):
        # The chart norm of a combination of dotted slices is its Gram value.
        rng = np.random.default_rng(39)
        kid = kr.DirichletLog(2, dotted=True)
        coeffs = [1.0, -0.5 + 0.3j, 0.25j]
        slices = [kr.kernel_slice(kid, rand_interior(rng, 1)) for _ in coeffs]
        combo = [kr.FunctionCombination(tuple(zip(coeffs, slices)))]
        gram = kr.gram_matrix(kid, [f.profile.base for f in slices])
        vec = np.asarray(coeffs, dtype=np.complex128)
        expected = kr.kernel_entry(combo, kid)
        assert expected == complex(np.conj(vec) @ gram @ vec).real
        lhs = kr.chart_entry(combo, kid, rules=kr.KERNEL_QUADRATURE_RULES)
        assert abs(lhs - expected) / expected < 1e-4

    def test_gram_identity_validation(self):
        # Opposite coefficients on one point give the zero function.
        kid = kr.DirichletLog(2, dotted=True)
        slice_ = kr.kernel_slice(kid, point([0.3], 0.2, 0.9))
        with pytest.raises(InvalidParameterError):
            kr.kernel_entry([kr.FunctionCombination(((1.0, slice_), (-1.0, slice_)))], kid)


# ---------------------------------------------------------------------------
# Weighted pairing-power integral
# ---------------------------------------------------------------------------


def beta_fn(p, q):
    return math.gamma(p) * math.gamma(q) / math.gamma(p + q)


def chain_constant_oracle(a, b, n):
    """The constant rebuilt step by step from the reduction chain: slice
    factor, polar/sphere factor, two Beta integrals.  Independent of the
    module's collapsed two-Gamma form."""
    g = a + b + n + 2.0
    slice_factor = math.sqrt(math.pi) * math.gamma((g - 1.0) / 2.0) / math.gamma(g / 2.0)
    sphere_factor = 4.0**n * math.pi**n / math.gamma(n)
    return (
        2.0**g
        * slice_factor
        * sphere_factor
        * beta_fn(n, a + b + 1.0)
        * beta_fn(a + 1.0, b)
    )


class TestQPowerIntegral:
    def test_frozen_values(self):
        assert kr.q_power_integral_constant(0.0, 1.0, 1).value == pytest.approx(
            16.0 * math.pi**2, rel=1e-13
        )
        assert kr.q_power_integral_constant(0.0, 3.0, 1).value == pytest.approx(
            8.0 * math.pi**2, rel=1e-13
        )

    def test_rendered_text(self):
        assert (
            kr.q_power_integral_constant(0.0, 1.0, 1).text
            == "Γ(1)·Γ(1)·(4π)^2/(Γ(2)Γ(2))"
        )

    @given(
        a=st.floats(-0.9, 3.0),
        b=st.floats(0.1, 4.0),
        n=st.integers(1, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_chain_oracle(self, a, b, n):
        got = kr.q_power_integral_constant(a, b, n).value
        assert got == pytest.approx(chain_constant_oracle(a, b, n), rel=1e-11)

    def test_duplication_collapse(self):
        """At the weight/decay pair of a volume kernel, the constant is the
        reciprocal of that kernel's normalization."""
        for n in (1, 2):
            for nu in (0.0, -0.5, 1.5):
                product = (
                    kr.q_power_integral_constant(nu, n + 2.0 + nu, n).value
                    * kr.kernel_constant(kr.Bergman(nu), n).value
                )
                assert product == pytest.approx(1.0, rel=1e-12)

    def test_divergence_dichotomy(self):
        for bad in ((-1.0, 1.0), (-1.5, 1.0), (0.0, 0.0), (0.0, -0.5)):
            with pytest.raises(DivergentIntegralError):
                kr.q_power_integral_constant(bad[0], bad[1], 1)
            with pytest.raises(DivergentIntegralError):
                kr.q_power_integral_nested(bad[0], bad[1], 1)
        with pytest.raises(InvalidParameterError):
            kr.q_power_integral_constant(0.0, 1.0, 0)

    def test_nested_quadrature_agreement(self):
        for a, b, n in ((0.0, 1.0, 1), (1.0, 0.5, 1), (-0.9, 0.3, 2), (2.0, 1.5, 2)):
            constant = kr.q_power_integral_constant(a, b, n).value
            nested = kr.q_power_integral_nested(a, b, n)
            assert abs(nested - constant) / constant < 1e-10

    @given(
        a=st.floats(-0.5, 2.0),
        b=st.floats(0.2, 3.0),
        height=st.floats(0.25, 4.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_nested_height_scaling(self, a, b, height):
        at_height = kr.q_power_integral_nested(a, b, 1, height=height)
        at_unit = kr.q_power_integral_nested(a, b, 1)
        assert at_height == pytest.approx(at_unit * height**-b, rel=1e-12)

    def test_monte_carlo_consistency(self):
        constant = kr.q_power_integral_constant(0.0, 1.0, 1).value
        estimate, stderr = kr.q_power_integral_mc(
            0.0, 1.0, 1, sample_count=80_000, seed=3
        )
        assert stderr > 0.0
        assert abs(estimate - constant) < 3.0 * stderr

    def test_monte_carlo_off_axis(self):
        zeta = point([0.6 - 0.3j], 0.8, 0.5)
        expected = kr.q_power_integral_constant(1.0, 2.0, 1).value * rho(zeta) ** -2.0
        estimate, stderr = kr.q_power_integral_mc(
            1.0, 2.0, 1, zeta=zeta, sample_count=80_000, seed=5
        )
        assert abs(estimate - expected) < 3.0 * stderr

    def test_monte_carlo_deterministic(self):
        first = kr.q_power_integral_mc(0.0, 1.0, 1, sample_count=5_000, seed=11)
        second = kr.q_power_integral_mc(0.0, 1.0, 1, sample_count=5_000, seed=11)
        assert first == second

    def test_monte_carlo_validation(self):
        boundary = point([0.0], 0.0, 0.0)
        with pytest.raises(KernelDomainError):
            kr.q_power_integral_mc(0.0, 1.0, 1, zeta=boundary, sample_count=100, seed=0)
        with pytest.raises(InvalidParameterError):
            kr.q_power_integral_mc(0.0, 1.0, 1, zeta=base_point(2), sample_count=100, seed=0)

    def test_power_ratio_integral_oracle(self):
        for beta, q in ((-0.5, 2.0), (0.0, 3.0), (1.0, 3.5), (-0.9, 0.3)):
            exact = beta_fn(beta + 1.0, q - beta - 1.0)
            assert power_ratio_integral(beta, q) == pytest.approx(exact, rel=1e-13)
        with pytest.raises(DivergentIntegralError):
            power_ratio_integral(-1.0, 2.0)
        with pytest.raises(DivergentIntegralError):
            power_ratio_integral(0.5, 1.5)


# ---------------------------------------------------------------------------
# Difference-integral growth report
# ---------------------------------------------------------------------------


class TestDifferenceIntegral:
    def test_zero_at_center(self):
        report = kr.difference_integral_ratio(base_point(1), 2)
        assert report.lhs == 0.0
        assert report.ratio == 0.0

    def test_finite_positive_off_center(self):
        rng = np.random.default_rng(40)
        for _ in range(2):
            zeta = rand_interior(rng, 1)
            report = kr.difference_integral_ratio(zeta, 2)
            assert math.isfinite(report.lhs) and report.lhs > 0.0
            assert report.envelope > 0.0
            assert report.ratio == report.lhs / report.envelope

    @pytest.mark.parametrize(
        "zeta",
        [
            point([0.5 + 0.3j], -0.4, 0.7),
            point([-0.2 + 0.6j], 0.3, 1.3),
            point([0.0, 0.0], 0.5, 1.4),
        ],
        ids=["n1-anchor-a", "n1-anchor-b", "n2-axis"],
    )
    def test_matches_chart_seminorm(self, zeta):
        # The integrand is (2^m / (C Gamma(m)))^2 times the squared height
        # derivative of the dotted slice, whose chart seminorm is an
        # independent quadrature of the same integral.  (Off-axis anchors at
        # n = 2 need a 5-D grid beyond the pass's point budget.)
        n = zeta.n
        m = n + 1
        dotted = kr.DirichletLog(m, dotted=True)
        seminorm = sp.space_norm_sq(
            kr.kernel_slice(dotted, zeta), kr.DirichletLog(m), kr.KERNEL_QUADRATURE_RULES
        )
        scale = (2.0**m / (kr.kernel_constant(kr.DirichletLog(m), n).value * math.gamma(m))) ** 2
        report = kr.difference_integral_ratio(zeta, m)
        assert abs(report.lhs - scale * seminorm) / report.lhs < 1e-5

    def test_axis_anchor_two_dimensional(self):
        axis_point = point([0.0, 0.0], 0.5, 1.4)
        report = kr.difference_integral_ratio(axis_point, 2)
        assert math.isfinite(report.lhs) and report.lhs > 0.0

    def test_off_axis_two_dimensional_is_rotation_invariant(self):
        zeta = point([0.3, 0.1j], 0.0, 1.0)
        report = kr.difference_integral_ratio(zeta, 2)
        assert math.isfinite(report.lhs) and report.lhs > 0.0
        # A unitary fixes the center, so the integral does not move.
        rotation = Unitary(np.linalg.qr(np.array([[1.0, 2.0j], [0.5, -1.0 + 1.0j]]))[0])
        rotated = kr.difference_integral_ratio(apply(rotation, zeta), 2)
        assert abs(rotated.lhs - report.lhs) / report.lhs < 1e-12

    def test_order_validation(self):
        with pytest.raises(InvalidParameterError):
            kr.difference_integral_ratio(base_point(1), 1)
        with pytest.raises(KernelDomainError):
            kr.difference_integral_ratio(point([0.0], 0.0, 0.0), 2)
