"""Tests for the half-space geometry: heights, charts, ball map, maps."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import siegelpw.heisenberg as hg
import siegelpw.siegel as sg
from siegelpw.errors import InvalidParameterError


def finite(lo=-3.0, hi=3.0):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


@st.composite
def complex_vectors(draw, n):
    re = draw(st.lists(finite(), min_size=n, max_size=n))
    im = draw(st.lists(finite(), min_size=n, max_size=n))
    return np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)


@st.composite
def heisenberg_elements(draw, n):
    return hg.HeisenbergElement(z=draw(complex_vectors(n)), t=draw(finite()))


@st.composite
def charts(draw, n, h_min=0.0):
    return sg.HorocyclicCoordinates(
        z=draw(complex_vectors(n)),
        t=draw(finite()),
        h=draw(st.floats(min_value=h_min, max_value=5.0, allow_nan=False)),
    )


@st.composite
def interior_points(draw, n):
    return sg.psi_inv(draw(charts(n, h_min=1e-2)))


@st.composite
def ball_points(draw, n):
    raw = draw(complex_vectors(n + 1))
    radius = draw(st.floats(min_value=0.0, max_value=0.9, allow_nan=False))
    norm = float(np.linalg.norm(raw))
    if norm == 0.0:
        return sg.BallPoint(omega=raw)
    return sg.BallPoint(omega=raw * (radius / max(norm, radius)))


@st.composite
def unitaries(draw, n):
    raw = draw(complex_vectors(n * n)).reshape(n, n)
    q, _ = np.linalg.qr(raw + np.eye(n))
    return sg.Unitary(matrix=q)


@st.composite
def generators(draw, n):
    kind = draw(st.sampled_from(["translation", "dilation", "unitary", "inversion"]))
    if kind == "translation":
        return sg.HeisenbergTranslation(element=draw(heisenberg_elements(n)))
    if kind == "dilation":
        return sg.Dilation(delta=draw(st.floats(min_value=0.2, max_value=5.0)))
    if kind == "unitary":
        return draw(unitaries(n))
    return sg.Inversion()


def point_gap(a: sg.SiegelPoint, b: sg.SiegelPoint) -> float:
    """Absolute coordinate gap between two points."""
    return max(
        float(np.max(np.abs(a.zeta_prime - b.zeta_prime), initial=0.0)),
        abs(a.zeta_last - b.zeta_last),
    )


def point_scale(p: sg.SiegelPoint) -> float:
    return max(1.0, float(np.max(np.abs(p.zeta_prime), initial=0.0)), abs(p.zeta_last))


class TestRho:
    def test_base_point_height_is_one(self):
        assert sg.rho(sg.base_point(1)) == 1.0
        assert sg.rho(sg.base_point(2)) == 1.0

    def test_boundary_images_have_zero_height(self):
        c = sg.HorocyclicCoordinates(z=np.array([1.3 - 0.7j]), t=2.1, h=0.0)
        assert sg.rho(sg.psi_inv(c)) == 0.0
        assert sg.classify(sg.psi_inv(c)) == "boundary"

    @given(c=charts(1))
    @settings(max_examples=60, deadline=None)
    def test_chart_height_matches_rho(self, c):
        scale = max(1.0, c.h + 0.25 * float(np.sum(np.abs(c.z) ** 2)))
        assert abs(sg.rho(sg.psi_inv(c)) - c.h) <= 1e-14 * scale

    @given(c=charts(2))
    @settings(max_examples=30, deadline=None)
    def test_chart_height_matches_rho_dim_two(self, c):
        scale = max(1.0, c.h + 0.25 * float(np.sum(np.abs(c.z) ** 2)))
        assert abs(sg.rho(sg.psi_inv(c)) - c.h) <= 1e-14 * scale


class TestChart:
    def test_base_point_chart(self):
        c = sg.base_point(1)
        assert np.array_equal(c.z, np.zeros(1, dtype=complex))
        assert c.t == 0.0 and c.h == 1.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_round_trip_thousand_points(self, n):
        rng = np.random.Generator(np.random.Philox(key=2024))
        worst = 0.0
        for _ in range(1000):
            z = rng.normal(size=n) + 1j * rng.normal(size=n)
            c = sg.HorocyclicCoordinates(
                z=2.0 * z, t=float(rng.uniform(-5, 5)), h=float(rng.uniform(0, 5))
            )
            p = sg.psi_inv(c)
            back = sg.SiegelPoint.from_ambient(p.zeta_prime, p.zeta_last)
            worst = max(worst, point_gap(p, back) / point_scale(p))
        assert worst < 1e-14

    def test_boundary_points_have_zero_height(self):
        c = sg.HorocyclicCoordinates(z=np.array([0.5 + 2.0j]), t=-1.0, h=0.0)
        assert sg.psi_inv(c).h == 0.0

    def test_rejects_exterior_points(self):
        outside = sg.SiegelPoint.from_ambient(np.zeros(1), -1e-11j)
        assert sg.classify(outside) == "exterior"
        with pytest.raises(InvalidParameterError):
            sg.HorocyclicCoordinates(outside.z, outside.t, outside.h)

    def test_band_absorbs_roundoff_heights(self):
        near = sg.SiegelPoint.from_ambient(np.zeros(1), -1e-13j)
        assert sg.HorocyclicCoordinates(near.z, near.t, near.h).h == 0.0
        assert sg.classify(near) == "boundary"

    def test_chart_rejects_negative_height(self):
        with pytest.raises(InvalidParameterError):
            sg.HorocyclicCoordinates(z=np.zeros(1), t=0.0, h=-1.0)

    @pytest.mark.parametrize("cls", [sg.SiegelPoint, sg.HorocyclicCoordinates])
    @pytest.mark.parametrize("slot", ["z", "t", "h"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_coordinates(self, cls, slot, bad):
        # A NaN height would otherwise classify as 'boundary' and slip
        # through max(h, 0.0) in the chart.
        coords = {"z": np.array([0.3 + 0.1j]), "t": 0.5, "h": 1.0}
        coords[slot] = np.array([complex(bad, 0.0)]) if slot == "z" else bad
        with pytest.raises(InvalidParameterError):
            cls(**coords)


class TestCayleyMap:
    def test_center_maps_to_base_point(self):
        image = sg.cayley(sg.BallPoint(omega=np.zeros(2, dtype=complex)))
        assert image == sg.base_point(1)

    @given(w=ball_points(1))
    @settings(max_examples=80, deadline=None)
    def test_interior_membership(self, w):
        assert sg.rho(sg.cayley(w)) > 0.0

    @given(w=ball_points(1))
    @settings(max_examples=80, deadline=None)
    def test_ball_round_trip(self, w):
        back = sg.cayley_inv(sg.cayley(w))
        assert float(np.max(np.abs(back.omega - w.omega))) <= 1e-13

    @given(p=interior_points(1))
    @settings(max_examples=80, deadline=None)
    def test_half_space_round_trip(self, p):
        back = sg.cayley(sg.cayley_inv(p))
        assert point_gap(p, back) <= 1e-13 * point_scale(p)

    @given(w=ball_points(2))
    @settings(max_examples=30, deadline=None)
    def test_ball_round_trip_dim_two(self, w):
        back = sg.cayley_inv(sg.cayley(w))
        assert float(np.max(np.abs(back.omega - w.omega))) <= 1e-13

    def test_ball_constructor_rejects_modulus_one(self):
        with pytest.raises(InvalidParameterError):
            sg.BallPoint(omega=np.array([0.0, 1.0], dtype=complex))
        with pytest.raises(InvalidParameterError):
            sg.BallPoint(omega=np.array([0.8 + 0.0j, 0.8 + 0.0j]))

    def test_inverse_pole_rejected(self):
        with pytest.raises(InvalidParameterError):
            sg.cayley_inv(sg.SiegelPoint.from_ambient(np.zeros(1), -1j))


class TestApply:
    @given(g=heisenberg_elements(1), c=charts(1))
    @settings(max_examples=80, deadline=None)
    def test_translation_preserves_height(self, g, c):
        p = sg.psi_inv(c)
        moved = sg.apply(sg.HeisenbergTranslation(element=g), p)
        scale = max(1.0, abs(p.zeta_last), abs(moved.zeta_last))
        assert abs(sg.rho(moved) - sg.rho(p)) <= 1e-12 * scale

    @given(g=heisenberg_elements(1), b=heisenberg_elements(1))
    @settings(max_examples=80, deadline=None)
    def test_boundary_translation_reproduces_group_law(self, g, b):
        start = sg.HorocyclicCoordinates(z=b.z, t=b.t, h=0.0)
        moved = sg.apply(sg.HeisenbergTranslation(element=g), sg.psi_inv(start))
        expected = hg.mul(b, g)
        scale = max(
            1.0,
            abs(b.t) + abs(g.t) + float(np.linalg.norm(b.z) * np.linalg.norm(g.z)),
        )
        assert float(np.max(np.abs(moved.z - expected.z), initial=0.0)) <= 1e-13 * scale
        assert abs(moved.t - expected.t) <= 1e-12 * scale
        assert -sg.BOUNDARY_BAND <= moved.h <= 1e-12 * scale

    @given(
        p=interior_points(1), delta=st.floats(min_value=0.1, max_value=10.0)
    )
    @example(
        # A low point far from the axis: recomputing the height from the
        # ambient coordinates of its image cancelled two terms near 315 and
        # missed the bound by 2.3e-13.
        p=sg.psi_inv(
            sg.HorocyclicCoordinates(
                z=np.array([2.8708572012845526 - 2.4996273764960675j]),
                t=1.3695831988328502,
                h=0.010565450623961003,
            )
        ),
        delta=9.323580014424305,
    )
    @settings(max_examples=80, deadline=None)
    def test_dilation_scales_height(self, p, delta):
        moved = sg.apply(sg.Dilation(delta=delta), p)
        target = delta * delta * sg.rho(p)
        assert abs(sg.rho(moved) - target) <= 1e-13 * max(1.0, target)

    @given(
        g=heisenberg_elements(1),
        u=unitaries(1),
        p=interior_points(1),
        delta=st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_generators_set_the_height_exactly(self, g, u, p, delta):
        assert sg.apply(sg.Dilation(delta=delta), p).h == delta * delta * p.h
        assert sg.apply(sg.HeisenbergTranslation(element=g), p).h == p.h
        assert sg.apply(u, p).h == p.h

    def test_translation_rejects_other_payloads(self):
        chart = sg.HorocyclicCoordinates(z=np.array([0.3 - 0.2j]), t=0.4, h=0.0)
        for payload in (chart, np.array([0.3 - 0.2j])):
            with pytest.raises(InvalidParameterError):
                sg.HeisenbergTranslation(element=payload)

    @given(u=unitaries(2), p=interior_points(2))
    @settings(max_examples=40, deadline=None)
    def test_unitary_preserves_height(self, u, p):
        moved = sg.apply(u, p)
        assert abs(sg.rho(moved) - sg.rho(p)) <= 1e-12 * max(1.0, abs(p.zeta_last))

    def test_unitary_validation(self):
        with pytest.raises(InvalidParameterError):
            sg.Unitary(matrix=np.array([[1.0, 0.0], [0.0, 1.1]]))

    @given(p=interior_points(1))
    @settings(max_examples=80, deadline=None)
    def test_inversion_involution(self, p):
        back = sg.apply(sg.Inversion(), sg.apply(sg.Inversion(), p))
        assert point_gap(p, back) <= 1e-13 * point_scale(p)

    @given(p=interior_points(1))
    @settings(max_examples=80, deadline=None)
    def test_inversion_height_cocycle(self, p):
        # The image height is the original height divided by |zeta_last|^2.
        moved = sg.apply(sg.Inversion(), p)
        lhs = sg.rho(moved) * abs(p.zeta_last) ** 2
        assert abs(lhs - sg.rho(p)) <= 1e-12 * max(1.0, sg.rho(p))
        assert sg.rho(moved) > 0.0

    def test_inversion_fixes_base_point(self):
        assert sg.apply(sg.Inversion(), sg.base_point(1)) == sg.base_point(1)

    def test_inversion_pole(self):
        with pytest.raises(InvalidParameterError):
            sg.apply(sg.Inversion(), sg.SiegelPoint.from_ambient(np.ones(1), 0.0))

    def test_dilation_rejects_nonpositive_factor(self):
        with pytest.raises(InvalidParameterError):
            sg.Dilation(delta=0.0)

    @given(maps=st.lists(generators(1), min_size=1, max_size=3), p=interior_points(1))
    @settings(max_examples=60, deadline=None)
    def test_composition_matches_fold(self, maps, p):
        composed = sg.apply(sg.Composition(maps=maps), p)
        manual = p
        for phi in reversed(maps):
            manual = sg.apply(phi, manual)
        assert point_gap(composed, manual) <= 1e-13 * point_scale(manual)

    @given(f=generators(1), g=generators(1), p=interior_points(1))
    @settings(max_examples=60, deadline=None)
    def test_pair_composition_is_function_order(self, f, g, p):
        composed = sg.apply(sg.Composition(maps=[f, g]), p)
        expected = sg.apply(f, sg.apply(g, p))
        assert point_gap(composed, expected) <= 1e-13 * point_scale(expected)

    @given(w=ball_points(1), maps=st.lists(generators(1), min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_automorphism_images_stay_in_half_space(self, w, maps):
        image = sg.apply(sg.Composition(maps=maps), sg.cayley(w))
        assert sg.classify(image) in ("interior", "boundary")


class TestArrayActions:
    """Translations and rotations act on chart arrays, and the scalar apply
    is those actions on one point."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_match_the_scalar_apply_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        count = 37
        z = [rng.normal(size=count) + 1j * rng.normal(size=count) for _ in range(n)]
        t = rng.normal(size=count)
        translation = sg.HeisenbergTranslation(
            hg.HeisenbergElement(rng.normal(size=n) + 1j * rng.normal(size=n), float(rng.normal()))
        )
        rotation = sg.Unitary(np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0])
        for phi in (translation, rotation, sg.Composition((translation, rotation))):
            moved_z, moved_t = sg.move_parts(phi, z, t)
            for i in range(count):
                p = sg.SiegelPoint([zj[i] for zj in z], t[i], 0.7)
                q = sg.apply(phi, p)
                assert np.array_equal(q.z, [zj[i] for zj in moved_z])
                assert q.t == moved_t[i] and q.h == p.h

    def test_broadcast_components(self):
        # Slots on different axes of a grid, and a slot held at 0.
        r = np.linspace(0.1, 2.0, 4).reshape(-1, 1)
        theta = np.linspace(0.0, 6.0, 5).reshape(1, -1)
        z = [r * np.exp(1j * theta), 0j]
        translation = sg.HeisenbergTranslation(hg.HeisenbergElement([0.3 - 0.1j, 0.2j], -0.4))
        moved_z, moved_t = sg.move_parts(translation, z, 1.5)
        assert moved_z[0].shape == moved_t.shape == (4, 5)
        assert moved_z[1] == 0.2j
        expected = hg.mul(hg.HeisenbergElement([z[0][2, 3], 0j], 1.5), translation.element)
        assert moved_z[0][2, 3] == expected.z[0] and abs(moved_t[2, 3] - expected.t) < 1e-15

    def test_other_maps_do_not_act_on_arrays(self):
        with pytest.raises(InvalidParameterError):
            sg.move_parts(sg.Dilation(2.0), [np.ones(3)], np.zeros(3))


class TestJson:
    def test_point_round_trip(self):
        for p in (
            sg.SiegelPoint.from_ambient(np.array([0.5 - 2.0j]), 1.5 + 2.5j),
            sg.SiegelPoint(np.array([0.1 + 0.3j, -2.0]), 0.4, -0.25),
        ):
            assert sg.point_from_json(json.loads(json.dumps(sg.point_to_json(p)))) == p

    def test_ambient_documents_still_load(self):
        doc = {"zeta_prime": [[0.5, -2.0]], "zeta_last": [1.5, 2.5]}
        p = sg.point_from_json(doc)
        assert p == sg.SiegelPoint.from_ambient(np.array([0.5 - 2.0j]), 1.5 + 2.5j)
        assert (p.t, p.h) == (1.5, 2.5 - 0.25 * 4.25)

    def test_chart_round_trip(self):
        c = sg.HorocyclicCoordinates(z=np.array([1.0 + 1.0j, -2.0j]), t=-0.25, h=0.75)
        doc = {"z": [[1.0, 1.0], [0.0, -2.0]], "t": -0.25, "h": 0.75}
        assert sg.chart_from_json(doc) == c
        assert sg.psi_inv(sg.chart_from_json(doc)) == sg.point_from_json(doc)

    def test_ball_point_round_trip(self):
        w = sg.BallPoint(omega=np.array([0.1 + 0.2j, -0.3j]))
        assert sg.ball_point_from_json({"omega": [[0.1, 0.2], [0.0, -0.3]]}) == w
