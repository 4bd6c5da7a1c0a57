"""Batch verification driver and evaluators.

``siegelpw verify --suite all`` runs the library's identity checks and emits
a machine-readable report (JSON by default, CSV and gnuplot-friendly data on
request).  The ``kernel eval``, ``synth``, ``norm``, and ``da-norm``
subcommands evaluate single objects for scripting.

Every flag has a config-file equivalent (``--config file.json`` holding one
JSON object keyed by flag name); values given on the command line override
the file.  Exit codes: 0 all checks passed, 1 at least one check failed,
2 configuration error (unknown suite, malformed input, invalid parameters).
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
import time
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import bargmann as bg
from . import drury_arveson as da
from . import fock as fk
from . import heisenberg as hb
from . import kernels as kr
from . import spectral as sp
from .errors import (
    ConfigError,
    DivergentIntegralError,
    InvalidParameterError,
    SiegelPWError,
)
from .siegel import (
    BallPoint,
    Dilation,
    HeisenbergTranslation,
    Inversion,
    SiegelPoint,
    Unitary,
    ball_point_from_json,
    base_point,
    chart_from_json,
    point_from_json,
    psi_inv,
)

__all__ = [
    "SuiteConfig",
    "CheckResult",
    "SuiteReport",
    "SUITE_NAMES",
    "run_suite",
    "main",
]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Validated settings shared by every check in a suite run."""

    n: int = 1
    nu: float = 0.0
    m: int = 2
    tol: float | None = None
    seed: int = 0
    pairs: int = 100
    fast: bool = False
    jobs: int | None = None

    def __post_init__(self):
        if self.n not in (1, 2):
            raise InvalidParameterError(f"dimension must be 1 or 2, got {self.n!r}")
        if not isinstance(self.nu, (int, float)) or isinstance(self.nu, bool):
            raise InvalidParameterError(f"weight must be a real number, got {self.nu!r}")
        if not self.nu > -1.0:
            raise InvalidParameterError(
                f"the volume-weight flag needs nu > -1, got {self.nu}"
            )
        if not _is_count(self.m):
            raise InvalidParameterError(f"derivative order must be a positive integer, got {self.m!r}")
        if self.tol is not None and not self.tol > 0.0:
            raise InvalidParameterError(f"tolerance must be positive, got {self.tol!r}")
        if not (_is_count(self.seed, 0) and self.seed < 2**64):
            raise InvalidParameterError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if not _is_count(self.pairs):
            raise InvalidParameterError(f"pair count must be a positive integer, got {self.pairs!r}")
        if self.jobs is not None and not _is_count(self.jobs):
            raise InvalidParameterError(f"worker count must be a positive integer, got {self.jobs!r}")


def _is_count(value, low: int = 1) -> bool:
    """An int, not a bool, of at least ``low``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _check_rng(cfg: SuiteConfig, check_id: str) -> np.random.Generator:
    """Deterministic per-check stream: independent of check scheduling."""
    return np.random.default_rng(
        np.random.SeedSequence([cfg.seed, zlib.crc32(check_id.encode())])
    )


def _chart_rules(
    cfg: SuiteConfig, functions: Sequence, preset: sp.ChartNormRules
) -> tuple[sp.ChartNormRules, str]:
    """The layout of a chart row over ``functions`` and the label of the axes
    a pass uses: the row's ``preset`` (``ChartNormRules()``, or
    ``KERNEL_QUADRATURE_RULES`` for products of slices).

    ``--fast`` takes ``ChartNormRules.smoke()``.  So does a row at n >= 2
    whose reduced grid keeps an angle axis (a 5-D or 6-D grid); a row whose
    grid reduces to radius, t and height costs the same at every n and keeps
    the n = 1 layout.
    """
    layout = sp._chart_layout(functions, cfg.n, None, preset)
    if cfg.fast or (cfg.n >= 2 and layout.polar):
        preset = sp.ChartNormRules.smoke()
        layout = sp._chart_layout(functions, cfg.n, None, preset)
    return preset, layout.label


def _rand_interior(rng, n: int, spread: float = 0.7, h_lo: float = 0.3, h_hi: float = 2.0) -> SiegelPoint:
    z = rng.normal(0.0, spread, n) + 1j * rng.normal(0.0, spread, n)
    return SiegelPoint(z, float(rng.normal(0.0, spread)), float(rng.uniform(h_lo, h_hi)))


def _rand_ball(rng, n: int, radius: float = 0.6) -> BallPoint:
    vec = rng.normal(0.0, 1.0, n + 1) + 1j * rng.normal(0.0, 1.0, n + 1)
    vec *= rng.uniform(0.05, radius) / np.linalg.norm(vec)
    return BallPoint(omega=vec)


def _rand_heisenberg(rng, n: int, z_scale: float = 1.0) -> hb.HeisenbergElement:
    z = rng.normal(0.0, z_scale, n) + 1j * rng.normal(0.0, z_scale, n)
    return hb.HeisenbergElement(z=z, t=float(rng.normal(0.0, 1.0)))


# ---------------------------------------------------------------------------
# Report containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    lhs: complex
    rhs: complex
    rel_error: float
    tolerance: float
    passed: bool
    rules: str
    seconds: float

    def to_row(self) -> dict:
        """JSON-ready row; non-finite numbers become null so the document
        stays strict JSON (an informational check has a null tolerance)."""
        return {
            "id": self.check_id,
            "anchor": self.anchor,
            "lhs": _json_number(self.lhs),
            "rhs": _json_number(self.rhs),
            "rel_error": _json_finite(self.rel_error),
            "tolerance": _json_finite(self.tolerance),
            "passed": self.passed,
            "rules": self.rules,
            "seconds": self.seconds,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    config: SuiteConfig
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json(self) -> dict:
        cfg = asdict(self.config)
        return {
            "suite": self.suite,
            "config": cfg,
            "passed": self.passed,
            "checks": [check.to_row() for check in self.checks],
        }

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        header = [
            "id",
            "anchor",
            "lhs",
            "rhs",
            "rel_error",
            "tolerance",
            "passed",
            "rules",
            "seconds",
        ]
        writer.writerow(header)
        for check in self.checks:
            writer.writerow(
                [
                    check.check_id,
                    check.anchor,
                    _csv_number(check.lhs),
                    _csv_number(check.rhs),
                    repr(check.rel_error),
                    repr(check.tolerance),
                    "pass" if check.passed else "fail",
                    check.rules,
                    f"{check.seconds:.3f}",
                ]
            )
        return buffer.getvalue()

    def to_gnuplot(self) -> str:
        lines = [
            f"# suite {self.suite} seed {self.config.seed} n {self.config.n}",
            "# columns: index rel_error tolerance passed id",
        ]
        for index, check in enumerate(self.checks, start=1):
            lines.append(
                f"{index} {check.rel_error:.6e} {check.tolerance:.6e} "
                f"{int(check.passed)} {check.check_id}"
            )
        return "\n".join(lines) + "\n"


def _json_finite(value: float):
    return float(value) if math.isfinite(value) else None


def _json_number(value):
    if isinstance(value, complex):
        if value.imag == 0.0:
            return _json_finite(value.real)
        return [value.real, value.imag]
    return _json_finite(float(value))


def _csv_number(value):
    if isinstance(value, complex) and value.imag != 0.0:
        return repr(value)
    real = value.real if isinstance(value, complex) else value
    return repr(float(real))


# ---------------------------------------------------------------------------
# Check harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckData:
    """What a check callable reports back before harness bookkeeping.  ``metric``
    is ``"error"`` (relative or absolute: the only kind ``--tol`` overrides),
    ``"z-score"``, ``"count"`` or ``"bound-ratio"`` (an error over its bound)."""

    lhs: complex
    rhs: complex
    rel_error: float
    tolerance: float
    fast_tolerance: float | None = None
    rules: str = "exact arithmetic"
    metric: str = "error"


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    anchor: str
    run: Callable[[SuiteConfig, np.random.Generator], CheckData]


def _rel(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def _worst_error(errors: Iterable[float]) -> float:
    """``max(0.0, *errors)`` with a NaN error counting as the worst (the first
    NaN wins): the one comparison behind every verify row's error."""
    worst = 0.0
    for error in errors:
        if error > worst or (math.isnan(error) and not math.isnan(worst)):
            worst = error
    return worst


def _worst_case(cases: Sequence[tuple[float, complex, complex]]) -> tuple[float, complex, complex]:
    """The one reduction of every verify row (bare errors go through
    :func:`_error_row`): the ``(error, lhs, rhs)`` case whose error
    :func:`_worst_error` picks, the earlier of ties; an error floored at 0
    shows the first case's sides."""
    worst = _worst_error(case[0] for case in cases)
    for case in cases:
        if (worst > 0.0 and case[0] == worst) or (math.isnan(worst) and math.isnan(case[0])):
            return case
    return (worst, cases[0][1], cases[0][2])


def _error_row(errors: Iterable[float], tolerance: float, rules: str = "exact arithmetic") -> CheckData:
    """The row of a check whose cases are bare errors: the worst against 0."""
    worst = _worst_error(errors)
    return CheckData(worst, 0.0, worst, tolerance, rules=rules)


def _raised(exc: Exception, label: str | None = None) -> CheckData:
    """The failed row of a check that raised; a chart row adds the label of
    the layout its pass ran on."""
    suffix = "" if label is None else f"; {label}"
    return CheckData(math.nan, math.nan, math.inf, 0.0, rules=f"raised {type(exc).__name__}: {exc}{suffix}")


# ---------------------------------------------------------------------------
# Suite: group
# ---------------------------------------------------------------------------


def _component_deviation(a: hb.HeisenbergElement, b: hb.HeisenbergElement) -> float:
    """Largest coordinate gap; the homogeneous norm's fourth root would
    inflate a ~1e-16 rounding error in t to ~1e-8."""
    return _worst_error((float(np.max(np.abs(a.z - b.z))), abs(a.t - b.t)))


def _check_group_associativity(cfg: SuiteConfig, rng) -> CheckData:
    errors = []
    for _ in range(min(cfg.pairs, 200)):
        a, b, c = (_rand_heisenberg(rng, cfg.n) for _ in range(3))
        left = hb.mul(hb.mul(a, b), c)
        right = hb.mul(a, hb.mul(b, c))
        errors.append(_component_deviation(left, right))
    return _error_row(errors, 1e-13)


def _check_group_identity_inverse(cfg: SuiteConfig, rng) -> CheckData:
    unit = hb.identity(cfg.n)
    errors = []
    for _ in range(min(cfg.pairs, 200)):
        a = _rand_heisenberg(rng, cfg.n)
        errors += [
            _component_deviation(hb.mul(a, unit), a),
            _component_deviation(hb.mul(unit, a), a),
            _component_deviation(hb.mul(a, hb.inv(a)), unit),
        ]
    return _error_row(errors, 1e-13)


def _check_group_dilation(cfg: SuiteConfig, rng, gauge: Callable, arity: int) -> CheckData:
    """``gauge`` of ``arity`` elements (the homogeneous norm of one, the
    distance of two) scales linearly under dilation."""
    cases = []
    for _ in range(min(cfg.pairs, 200)):
        points = [_rand_heisenberg(rng, cfg.n) for _ in range(arity)]
        delta = float(rng.uniform(0.2, 3.0))
        lhs = gauge(*(hb.dilate(delta, a) for a in points))
        rhs = delta * gauge(*points)
        cases.append((_rel(lhs, rhs), lhs, rhs))
    worst, lhs, rhs = _worst_case(cases)
    return CheckData(lhs, rhs, worst, 1e-13)


# ---------------------------------------------------------------------------
# Suite: fock
# ---------------------------------------------------------------------------


def _fock_gram(trunc: fk.FockTruncation, lam: float, node_count: int) -> np.ndarray:
    """Gram matrix of the truncation's basis under the tensor Gauss-Hermite
    rule with ``node_count`` nodes per real axis, as one product B W B^H."""
    n = trunc.n
    rule = fk.fock_quadrature_rule(n, lam, node_count=node_count)
    grids = np.meshgrid(*([rule.nodes] * (2 * n)), indexing="ij")
    weight = np.prod(np.meshgrid(*([rule.weights] * (2 * n)), indexing="ij"), axis=0)
    z = [grids[j].ravel() + 1j * grids[n + j].ravel() for j in range(n)]
    basis = fk.basis_values(trunc, lam, z)
    return (abs(lam) / (2.0 * math.pi)) ** n * (basis * weight.ravel()) @ basis.conj().T


def _check_fock_pairing(cfg: SuiteConfig, rng) -> CheckData:
    lam = -2.0
    trunc = fk.FockTruncation(n=cfg.n, max_degree=4)
    # Each real axis sees polynomials of degree <= 2 * max_degree, which the
    # Gauss-Hermite rule with max_degree + 1 nodes integrates exactly.
    nodes = trunc.max_degree + 1
    gram = _fock_gram(trunc, lam, nodes)
    deviation = np.abs(gram - np.eye(trunc.dim))
    i, j = np.unravel_index(np.argmax(deviation), deviation.shape)
    return CheckData(
        gram[i, j], float(i == j), float(deviation[i, j]), 1e-10,
        rules=f"Gauss-Hermite Gram matrix as one product B W B^H, {nodes} nodes (exact)",
    )


def _check_fock_kernel_truncation(cfg: SuiteConfig, rng) -> CheckData:
    lam = -2.0
    degree = 10
    trunc = fk.FockTruncation(n=1, max_degree=degree)
    cases = []
    for _ in range(10):
        z = [complex(rng.normal(0, 0.5), rng.normal(0, 0.5))]
        w = [complex(rng.normal(0, 0.5), rng.normal(0, 0.5))]
        closed = complex(fk.reproducing_kernel(z, w, lam))
        partial = complex(fk.kernel_partial_sum(trunc, lam, z, w))
        bound = fk.kernel_tail_bound(degree, 0.5 * abs(lam) * abs(z[0]) * abs(w[0]))
        floor = 5e-14 * max(1.0, abs(closed))  # rounding allowance under the bound
        cases.append((abs(closed - partial) / (bound + floor), abs(closed - partial), bound))
    worst_ratio, gap, bound = _worst_case(cases)
    return CheckData(gap, bound, worst_ratio, 1.0, rules="series truncation bound", metric="bound-ratio")


def _check_fock_truncation_budget(cfg: SuiteConfig, rng) -> CheckData:
    ratios = []
    for lam, radius, tol in ((-2.0, 0.8, 1e-8), (1.5, 1.2, 1e-10)):
        degree = fk.suggested_truncation(lam, radius, tol)
        x = 0.5 * abs(lam) * radius * radius
        ratios.append(fk.kernel_tail_bound(degree, x) / tol)
    worst = _worst_error(ratios)
    return CheckData(worst, 1.0, worst, 1.0, rules="series truncation bound", metric="bound-ratio")


# ---------------------------------------------------------------------------
# Suite: bargmann
# ---------------------------------------------------------------------------


def _homomorphism_degree(lam, a, b, tol) -> int:
    """Smallest degree >= 8 whose Cauchy-Schwarz bound on the mass that the
    product of the truncated matrices drops from the degree <= 4 block is
    at most tol."""
    degree = 8
    while True:
        trunc = fk.FockTruncation(n=a.n, max_degree=degree)
        leak = bg.column_defect_bound(lam, a, trunc, 4) * bg.column_defect_bound(lam, b, trunc, 4)
        if math.sqrt(leak) <= tol:
            return degree
        degree += 1


def _check_bargmann_homomorphism(cfg: SuiteConfig, rng) -> CheckData:
    lam, tolerance = -2.0, 1e-8
    errors, degrees = [], []
    for _ in range(3):
        a = _rand_heisenberg(rng, cfg.n, z_scale=0.1)
        b = _rand_heisenberg(rng, cfg.n, z_scale=0.1)
        degrees.append(_homomorphism_degree(lam, a, b, 1e-2 * tolerance))
        trunc = fk.FockTruncation(n=cfg.n, max_degree=degrees[-1])
        block = [i for i, alpha in enumerate(trunc.indices) if alpha.degree <= 4]
        product = bg.rep_matrix(lam, a, trunc).entries @ bg.rep_matrix(lam, b, trunc).entries
        direct = bg.rep_matrix(lam, hb.mul(a, b), trunc).entries
        grid = np.ix_(block, block)
        errors.append(float(np.max(np.abs(product[grid] - direct[grid]))))
    return _error_row(errors, tolerance, f"matrix block degree<=4 of degrees {', '.join(map(str, degrees))}")


def _check_bargmann_unitarity(cfg: SuiteConfig, rng) -> CheckData:
    lam, degree = -2.0, 10
    trunc = fk.FockTruncation(n=cfg.n, max_degree=degree)
    errors = []
    for _ in range(2):
        a = _rand_heisenberg(rng, cfg.n)
        matrix = bg.rep_matrix(lam, a, trunc)
        norms_sq = np.sum(np.abs(matrix.entries) ** 2, axis=0)
        for j, beta in enumerate(trunc.indices):
            if beta.degree <= 4:
                deficit = 1.0 - float(norms_sq[j])
                bound = bg.column_defect_bound(lam, a, trunc, beta.degree)
                errors += [deficit - bound, float(norms_sq[j]) - 1.0]
    return _error_row(errors, 1e-9, f"columns of degree<=4 of {degree}")


def _check_bargmann_derivative_fields(cfg: SuiteConfig, rng) -> CheckData:
    lam = -2.0
    trunc = fk.FockTruncation(n=cfg.n, max_degree=6)
    errors = [bg.dsigma_check(lam, path, trunc) for path in ("T", "Z", "Zbar_right")]
    return _error_row(errors, 1e-6, "central differences, extrapolated")


def _check_bargmann_projection_tail(cfg: SuiteConfig, rng) -> CheckData:
    lam, degree = -2.0, 12
    trunc = fk.FockTruncation(n=cfg.n, max_degree=degree)
    cases = []
    for _ in range(3):
        a = _rand_heisenberg(rng, cfg.n)
        row = bg.p0_row(lam, a, trunc)
        deficit = 1.0 - fk.norm_sq(row)
        bound = bg.p0_tail_deficit_bound(lam, a, degree)
        floor = 5e-14  # rounding allowance of the unit-norm sum under the bound
        cases.append((deficit / (bound + floor), deficit, bound))
    worst, deficit, bound = _worst_case(cases)
    return CheckData(deficit, bound, worst, 1.0, rules="series truncation bound", metric="bound-ratio")


# ---------------------------------------------------------------------------
# Suite: paley-wiener
# ---------------------------------------------------------------------------


def _check_pw_endpoint_center(cfg: SuiteConfig, rng) -> CheckData:
    base = _rand_interior(rng, cfg.n, spread=0.4)
    profile = sp.DirichletKernelProfile(cfg.n, 2, base)
    offset = 0.8 - 0.45j
    got = sp.synthesize_dirichlet(profile, base_point(cfg.n), offset)
    return CheckData(
        got, offset, abs(got - offset), 1e-14, rules="closed-form synthesis"
    )


def _check_pw_hardy_slices(cfg: SuiteConfig, rng) -> CheckData:
    base = _rand_interior(rng, cfg.n, spread=0.3, h_lo=0.7, h_hi=1.3)
    profile = sp.KernelProfile(cfg.n, -1.0, base)
    F = sp.ProfileFunction(profile)
    rules, label = _chart_rules(cfg, [F], sp.ChartNormRules())
    try:
        values = [value for _, value in sp.hardy_slice_norms(F, rules)]
    except Exception as exc:
        return _raised(exc, label)
    if not all(b > a for a, b in zip(values, values[1:])):
        return CheckData(values[-1], values[0], math.inf, 2e-4, 5e-3, label)
    limit = sp._richardson_limit(values)
    spectral = sp.l2nu_norm_sq(profile, -1.0)
    return CheckData(limit, spectral, _rel(limit, spectral), 2e-4, 5e-3, label)


def _check_pw_cr_residuals(cfg: SuiteConfig, rng) -> CheckData:
    where = _rand_interior(rng, cfg.n, spread=0.3)
    kernel_fn = sp.ProfileFunction(sp.KernelProfile(cfg.n, cfg.nu, _rand_interior(rng, cfg.n, spread=0.3)))
    log_fn = sp.ProfileFunction(
        sp.DirichletKernelProfile(cfg.n, 2, _rand_interior(rng, cfg.n, spread=0.3))
    )
    errors = [sp.holomorphy_residuals(fn, where) for fn in (kernel_fn, log_fn)]
    return _error_row(errors, 1e-6, "central differences, step 1e-4")


# ---------------------------------------------------------------------------
# Suite: kernels
# ---------------------------------------------------------------------------


def _check_kernels_mobius(cfg: SuiteConfig, rng) -> CheckData:
    generators = [
        Dilation(1.4),
        HeisenbergTranslation(hb.HeisenbergElement(np.full(cfg.n, 0.3 - 0.2j), 0.4)),
        Unitary(np.diag(np.exp(1j * np.linspace(0.7, 1.3, cfg.n)))),
        Inversion(),
    ]
    errors = []
    m = cfg.n + 1
    for index in range(cfg.pairs):
        zeta, omega = _rand_interior(rng, cfg.n), _rand_interior(rng, cfg.n)
        phi = generators[index % len(generators)]
        errors.append(kr.mobius_invariance_check(phi, zeta, omega, m=m))
    return _error_row(errors, 1e-11, f"{cfg.pairs} random pairs")


def _check_kernels_cayley(cfg: SuiteConfig, rng) -> CheckData:
    errors = []
    for _ in range(cfg.pairs):
        first, second = _rand_ball(rng, cfg.n), _rand_ball(rng, cfg.n)
        errors.append(kr.cayley_transfer_check(first, second, m=cfg.n + 1))
    return _error_row(errors, 1e-10, f"{cfg.pairs} random pairs")


def _check_kernels_gram_psd(cfg: SuiteConfig, rng) -> CheckData:
    points = [_rand_interior(rng, cfg.n) for _ in range(8)]
    errors = []
    for kid in _kernel_ids(cfg):
        gram = kr.gram_matrix(kid, points)
        eigenvalues = np.linalg.eigvalsh(gram)
        trace = float(np.trace(gram).real)
        # The row's floor at 0 keeps a positive spectrum at error 0.
        errors.append(-float(eigenvalues.min()) / trace)
    return _error_row(errors, 1e-10, "8-point Gram spectra")


def _check_kernels_qpower_nested(cfg: SuiteConfig, rng) -> CheckData:
    cases = []
    for a, b in ((0.0, 1.0), (1.0, 0.5)):
        constant = kr.q_power_integral_constant(a, b, cfg.n).value
        nested = kr.q_power_integral_nested(a, b, cfg.n)
        cases.append((abs(nested - constant) / constant, nested, constant))
    worst, nested, constant = _worst_case(cases)
    return CheckData(nested, constant, worst, 1e-10, rules="nested Gauss-Jacobi, 48 nodes")


def _check_kernels_qpower_mc(cfg: SuiteConfig, rng) -> CheckData:
    samples = 50_000 if cfg.fast else 200_000
    cases = []
    for a, b in ((0.0, 1.0), (1.0, 0.5)):
        constant = kr.q_power_integral_constant(a, b, cfg.n).value
        estimate, stderr = kr.q_power_integral_mc(
            a, b, cfg.n, sample_count=samples, seed=cfg.seed
        )
        cases.append((abs(estimate - constant) / (3.0 * stderr), estimate, constant))
    worst, estimate, constant = _worst_case(cases)
    return CheckData(
        estimate, constant, worst, 1.0, rules=f"importance sampling, {samples} draws", metric="z-score"
    )


def _check_kernels_qpower_divergence(cfg: SuiteConfig, rng) -> CheckData:
    failures = 0.0
    for a, b in ((-1.0, 1.0), (0.0, 0.0), (-1.5, 2.0), (1.0, -0.25)):
        try:
            kr.q_power_integral_constant(a, b, cfg.n)
            failures += 1.0
        except DivergentIntegralError:
            pass
    return CheckData(failures, 0.0, failures, 0.5, rules="divergence dichotomy", metric="count")


# ---------------------------------------------------------------------------
# Suite: dirichlet
# ---------------------------------------------------------------------------


def _check_dirichlet_difference_report(cfg: SuiteConfig, rng) -> CheckData:
    """Report-only: the growth envelope's constant is not pinned down, so the
    empirical ratio is published without asserting a bound."""
    report = kr.difference_integral_ratio(_rand_interior(rng, cfg.n, spread=0.5), cfg.n + 1)
    # A NaN error fails the row even against its infinite tolerance.
    finite = math.isfinite(report.lhs) and report.lhs >= 0.0
    return CheckData(
        report.lhs,
        report.envelope,
        report.ratio if finite else math.nan,
        math.inf,
        rules="report-only: empirical envelope ratio",
    )


# ---------------------------------------------------------------------------
# Suite: drury-arveson
# ---------------------------------------------------------------------------


def _check_da_documented_value(cfg: SuiteConfig, rng) -> CheckData:
    f = da.parse_ball_polynomial("z1*z2", dim=cfg.n + 1)
    coeff = da.da_norm_coeff_sq(f)
    integral = da.da_norm_integral_sq(f)
    worst = _worst_error((abs(coeff - 0.5) / 0.5, abs(integral - coeff) / coeff))
    return CheckData(coeff, 0.5, worst, 1e-12, rules="sphere moments + radial Gauss")


def _check_da_monomial_identity(cfg: SuiteConfig, rng) -> CheckData:
    dim = cfg.n + 1
    errors = []
    for alpha in itertools.product(range(9), repeat=dim):
        if not 0 < sum(alpha) <= 8:
            continue
        f = da.BallPolynomial.monomial(alpha)
        coeff = da.da_norm_coeff_sq(f)
        errors.append(abs(da.da_norm_integral_sq(f) - coeff) / coeff)
    return _error_row(errors, 1e-8, "sphere moments + radial Gauss")


def _check_da_random_identity(cfg: SuiteConfig, rng) -> CheckData:
    dim = cfg.n + 1
    indices = [
        alpha for alpha in itertools.product(range(9), repeat=dim) if sum(alpha) <= 8
    ]
    count = min(cfg.pairs, 50) if cfg.fast else max(cfg.pairs, 50)
    errors = []
    for _ in range(count):
        chosen = rng.choice(len(indices), size=12, replace=False)
        f = da.BallPolynomial(
            dim,
            {
                tuple(indices[i]): complex(rng.normal(), rng.normal())
                for i in chosen
            },
        )
        coeff = da.da_norm_coeff_sq(f)
        errors.append(abs(da.da_norm_integral_sq(f) - coeff) / coeff)
    return _error_row(errors, 1e-8, f"{count} random degree<=8 polynomials")


def _check_da_ladder_closed_form(cfg: SuiteConfig, rng) -> CheckData:
    errors = []
    for k in (1, 2, 3):
        for degree in range(9):
            alpha = (degree,) + (0,) * cfg.n
            out = da.script_r(k, da.BallPolynomial.monomial(alpha))
            expected = math.comb(k + degree, k)
            errors.append(abs(out.coefficients[alpha] - expected) / expected)
    return _error_row(errors, 1e-13, "step recursion vs binomial")


def _check_da_sphere_mc(cfg: SuiteConfig, rng) -> CheckData:
    alpha = (2,) + (1,) * cfg.n
    samples = 50_000 if cfg.fast else 200_000
    gauss = rng.normal(size=(samples, len(alpha))) + 1j * rng.normal(
        size=(samples, len(alpha))
    )
    xi = gauss / np.linalg.norm(gauss, axis=1, keepdims=True)
    values = np.prod(np.abs(xi) ** (2 * np.asarray(alpha)), axis=1)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(samples))
    expected = da.sphere_monomial_moment(alpha)
    return CheckData(
        mean, expected, abs(mean - expected) / (3.0 * stderr), 1.0,
        rules=f"uniform sphere sampling, {samples} draws", metric="z-score",
    )


def _check_da_dot_dirichlet(cfg: SuiteConfig, rng) -> CheckData:
    dim = cfg.n + 1
    constant = da.BallPolynomial.constant(dim, 3.0 - 1.0j)
    paired = da.dot_dirichlet_norm_coeff_sq(da.parse_ball_polynomial("z1*z2", dim=dim))
    worst = _worst_error((da.dot_dirichlet_norm_coeff_sq(constant), abs(paired - 1.0)))
    return CheckData(paired, 1.0, worst, 1e-13, rules="coefficient weights")


# ---------------------------------------------------------------------------
# Gram identities: one table over three methods
# ---------------------------------------------------------------------------


#: The ways to compute one Gram entry (see :func:`siegelpw.kernels.chart_entry`).
_METHODS = {"chart": kr.chart_entry, "spectral": kr.spectral_entry, "kernel": kr.kernel_entry}

#: ``(error, lhs, rhs)`` of the two computed values ``a`` and ``b``.
_COMPARE = {
    "relative": lambda a, b: (_rel(a, b), a, b),
    "absolute": lambda a, b: (abs(a - b), a, b),
    "reproduced": lambda a, b: (abs(a - b) / abs(b), b, b),
    "error": lambda a, b: (abs(a - b) / abs(b), abs(a - b) / abs(b), 0.0),
}


@dataclass(frozen=True)
class IdentityRow:
    """A Gram identity computed by two ``methods`` in each space of
    ``spaces(cfg)``: ``entry`` of the Gram matrix of the functions that
    ``inputs(rng, cfg)`` draws (a point stands for each space's kernel slice
    there), or with ``weights`` the squared norm of their combination.  The
    row reports the worst space by ``compare``; a NaN error is the worst.  A
    chart pass runs on ``preset`` (see :func:`_chart_rules`), laid out for
    the first space's functions.  A row whose chart entries are center
    products alone (see :func:`siegelpw.kernels.chart_entry`) runs no pass;
    its ``preset`` is ``None`` and it names no layout."""

    check_id: str
    anchor: str
    inputs: Callable[[np.random.Generator, SuiteConfig], list]
    spaces: Callable[[SuiteConfig], list]
    methods: tuple[str, str]
    tolerance: float
    fast_tolerance: float | None = None
    entry: tuple[int, int] = (0, 0)
    compare: str = "relative"
    weights: tuple[complex, ...] = ()
    preset: sp.ChartNormRules | None = kr.KERNEL_QUADRATURE_RULES
    note: str = ""

    def cases(self, cfg: SuiteConfig, rng) -> list[tuple[sp.SpaceTag, list]]:
        """``(space, functions)`` for each space the row compares in."""
        drawn = self.inputs(rng, cfg)
        out = []
        for tag in self.spaces(cfg):
            functions = [kr.kernel_slice(tag, x) if isinstance(x, SiegelPoint) else x for x in drawn]
            if self.weights:
                functions = [kr.FunctionCombination(tuple(zip(self.weights, functions)))]
            out.append((tag, functions))
        return out

    def run(self, cfg: SuiteConfig, rng) -> CheckData:
        cases = self.cases(cfg, rng)
        rules = label = None
        if "chart" in self.methods and self.preset is not None:
            rules, label = _chart_rules(cfg, cases[0][1], self.preset)
        try:
            found = [
                _COMPARE[self.compare](*(_METHODS[name](functions, tag, self.entry, rules) for name in self.methods))
                for tag, functions in cases
            ]
        except Exception as exc:
            return _raised(exc, label)
        error, lhs, rhs = _worst_case(found)
        rules_text = "; ".join(text for text in (label, self.note) if text)
        return CheckData(lhs, rhs, error, self.tolerance, self.fast_tolerance, rules_text)


def _weighted(n: int, nu: float, extra: int = 0) -> sp.WeightedDirichlet:
    """The derivative-weighted space of weight ``nu`` at its smallest
    admissible order (``2m + nu > -1``), plus ``extra``; the rows take
    ``nu = -n - 1/2`` and ``nu = -n - 1``."""
    return sp.WeightedDirichlet(nu, math.floor((-1.0 - nu) / 2.0) + 1 + extra)


def _endpoint_order(cfg: SuiteConfig) -> int:
    """``--m``, or the smallest order the endpoint space admits (``2m > n + 1``)."""
    return max(cfg.m, (cfg.n + 1) // 2 + 1)


def _kernel_ids(cfg: SuiteConfig) -> list:
    """The kernels of the spectral reproducing row and of the Gram spectra."""
    n = cfg.n
    weighted = [_weighted(n, -n - 0.5), _weighted(n, -n - 1.0)]
    return [kr.Szego(), kr.Bergman(cfg.nu), kr.Bergman(1.5), *weighted, kr.DirichletLog(n + 1), kr.DirichletLog(n + 1, True)]


def _points(count: int, spread: float = 0.7):
    """Inputs: ``count`` random interior points."""
    return lambda rng, cfg: [_rand_interior(rng, cfg.n, spread=spread) for _ in range(count)]


def _finite_field(rng, cfg) -> list:
    terms = (
        sp.FiniteTerm((0,) * cfg.n, 1.0, 0.0, 1.0),
        sp.FiniteTerm((2,) + (0,) * (cfg.n - 1), -0.2 + 0.5j, 0.5, 0.7),
    )
    return [sp.ProfileFunction(sp.FiniteProfile(cfg.n, terms))]


# ---------------------------------------------------------------------------
# Suite registry
# ---------------------------------------------------------------------------


SUITES: Mapping[str, tuple[CheckSpec, ...]] = {
    "group": (
        CheckSpec("group-associativity", "boundary-group product law", _check_group_associativity),
        CheckSpec("group-identity-inverse", "unit and inverse elements", _check_group_identity_inverse),
        CheckSpec("group-norm-homogeneity", "gauge scales linearly under dilation",
                  partial(_check_group_dilation, gauge=hb.homogeneous_norm, arity=1)),
        CheckSpec("group-distance-dilation", "distance scales linearly under dilation",
                  partial(_check_group_dilation, gauge=hb.distance, arity=2)),
    ),
    "fock": (
        CheckSpec("fock-kernel-truncation", "kernel series tail within analytic bound", _check_fock_kernel_truncation),
        CheckSpec("fock-pairing-orthogonality", "monomials orthogonal with closed-form norms", _check_fock_pairing),
        CheckSpec("fock-truncation-budget", "suggested degree meets requested tolerance", _check_fock_truncation_budget),
    ),
    "bargmann": (
        CheckSpec("bargmann-derivative-fields", "differentiated action identities", _check_bargmann_derivative_fields),
        CheckSpec("bargmann-homomorphism", "matrix composition follows group product", _check_bargmann_homomorphism),
        CheckSpec("bargmann-projection-tail", "vacuum-row deficit within tail bound", _check_bargmann_projection_tail),
        CheckSpec("bargmann-unitarity", "columns near-unit within truncation bound", _check_bargmann_unitarity),
    ),
    "paley-wiener": (
        CheckSpec("pw-cr-residuals", "synthesized functions are holomorphic", _check_pw_cr_residuals),
        IdentityRow("pw-derivative-identity", "derivative-weight norm identity", _points(1, 0.3),
                    lambda cfg: [_weighted(cfg.n, -cfg.n - 0.5)], ("chart", "spectral"), 1e-3, 2e-2),
        CheckSpec("pw-endpoint-center", "endpoint synthesis pins the center value", _check_pw_endpoint_center),
        IdentityRow("pw-endpoint-identity", "endpoint norm identity", lambda rng, cfg: [sp.ProfileFunction(
                    sp.DirichletKernelProfile(cfg.n, _endpoint_order(cfg), _rand_interior(rng, cfg.n, spread=0.3)))],
                    lambda cfg: [sp.Dirichlet(_endpoint_order(cfg))], ("chart", "spectral"), 1e-3, 2e-2),
        CheckSpec("pw-hardy-slices", "height slices increase to the boundary norm", _check_pw_hardy_slices),
        IdentityRow("pw-m-independence-quadrature", "derivative order drops out (chart side)", lambda rng, cfg: [
                    kr.kernel_slice(_weighted(cfg.n, -cfg.n - 0.5), _rand_interior(rng, cfg.n, spread=0.3))],
                    lambda cfg: [_weighted(cfg.n, -cfg.n - 0.5, k) for k in (0, 1)], ("chart", "spectral"), 1e-3, 2e-2),
        IdentityRow("pw-m-independence-spectral", "derivative order drops out (spectral side)", _points(1, 0.4),
                    lambda cfg: [_weighted(cfg.n, -cfg.n - nu, k) for nu in (1.0, 0.5) for k in (0, 1)],
                    ("spectral", "kernel"), 1e-10, note="closed-form Laplace pieces"),
        IdentityRow("pw-volume-identity", "volume norm identity for a kernel field", _points(1, 0.4),
                    lambda cfg: [sp.Bergman(cfg.nu)], ("chart", "spectral"), 1e-3, 2e-2, preset=sp.ChartNormRules()),
        IdentityRow("pw-volume-identity-finite", "volume norm identity for a finite field", _finite_field,
                    lambda cfg: [sp.Bergman(cfg.nu)], ("chart", "spectral"), 1e-3, 2e-2, preset=sp.ChartNormRules()),
    ),
    "kernels": (
        CheckSpec("kernels-cayley-transfer", "ball/half-space kernel transfer", _check_kernels_cayley),
        CheckSpec("kernels-gram-psd", "Gram matrices positive semidefinite", _check_kernels_gram_psd),
        CheckSpec("kernels-mobius-invariance", "renormalized invariance under automorphisms", _check_kernels_mobius),
        CheckSpec("kernels-power-integral-divergence", "divergent exponent pairs rejected", _check_kernels_qpower_divergence),
        CheckSpec("kernels-power-integral-mc", "closed constant within Monte Carlo band", _check_kernels_qpower_mc),
        CheckSpec("kernels-power-integral-nested", "closed constant matches nested quadrature", _check_kernels_qpower_nested),
        IdentityRow("kernels-reproducing-quadrature", "kernel reproduces itself (chart side)", _points(2),
                    lambda cfg: [kr.Bergman(cfg.nu)], ("chart", "kernel"), 1e-4, 5e-3, (1, 0), "reproduced"),
        IdentityRow("kernels-reproducing-spectral", "kernel reproduces itself (spectral side)", _points(2),
                    _kernel_ids, ("spectral", "kernel"), 1e-10, None, (1, 0), "error",
                    note="closed-form Laplace pieces; Frullani integrals for the logarithmic family"),
    ),
    "dirichlet": (
        CheckSpec("dirichlet-cayley-transfer", "ball/half-space kernel transfer", _check_kernels_cayley),
        IdentityRow("dirichlet-constant-slice", "constants reproduce through the full kernel", lambda rng, cfg: [
                    sp.ProfileFunction(sp.FiniteProfile(cfg.n, ()), 0.75 - 0.4j), _rand_interior(rng, cfg.n)],
                    lambda cfg: [kr.DirichletLog(cfg.n + 1)], ("chart", "kernel"), 1e-10, 1e-8, (0, 1), "absolute",
                    preset=None, note="no chart pass runs: a constant's height derivative is the empty field, so the "
                    "chart side of M[0, 1] is the product of the center values"),
        CheckSpec("dirichlet-difference-report", "growth-envelope ratio (report only)", _check_dirichlet_difference_report),
        IdentityRow("dirichlet-gram-identity", "combination norm equals Gram value", _points(3),
                    lambda cfg: [kr.DirichletLog(cfg.n + 1, dotted=True)], ("chart", "kernel"), 1e-3, 2e-2,
                    compare="error", weights=(1.0, -0.5 + 0.3j, 0.25j)),
        CheckSpec("dirichlet-mobius-invariance", "renormalized invariance under automorphisms", _check_kernels_mobius),
        IdentityRow("dirichlet-reproducing-quadrature", "log kernel reproduces itself (chart side)", _points(2),
                    lambda cfg: [kr.DirichletLog(cfg.n + 1)], ("chart", "kernel"), 1e-4, 5e-3, (1, 0), "reproduced"),
        IdentityRow("dirichlet-reproducing-spectral", "log kernel reproduces itself (spectral side)", _points(2),
                    lambda cfg: [kr.DirichletLog(cfg.n + 1, dotted) for dotted in (False, True)], ("spectral", "kernel"),
                    1e-10, None, (1, 0), "error", note="logarithmic family: closed-form Frullani integrals"),
    ),
    "drury-arveson": (
        CheckSpec("da-documented-value", "paired-coordinate norm is one half", _check_da_documented_value),
        CheckSpec("da-dot-dirichlet", "constants-removed coefficient norm values", _check_da_dot_dirichlet),
        CheckSpec("da-ladder-closed-form", "radial ladder matches binomial eigenvalue", _check_da_ladder_closed_form),
        CheckSpec("da-monomial-identity", "coefficient norm equals integral norm (monomials)", _check_da_monomial_identity),
        CheckSpec("da-random-identity", "coefficient norm equals integral norm (random)", _check_da_random_identity),
        CheckSpec("da-sphere-moment-mc", "sphere moments within Monte Carlo band", _check_da_sphere_mc),
    ),
}

SUITE_NAMES: tuple[str, ...] = tuple(SUITES) + ("all",)


def _specs_for(name: str) -> tuple[CheckSpec, ...]:
    if name == "all":
        merged: list[CheckSpec] = []
        for specs in SUITES.values():
            merged.extend(specs)
        return tuple(merged)
    try:
        return SUITES[name]
    except KeyError:
        raise ConfigError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        ) from None


def _run_check(spec: CheckSpec, cfg: SuiteConfig) -> CheckResult:
    rng = _check_rng(cfg, spec.check_id)
    started = time.perf_counter()
    try:
        data = spec.run(cfg, rng)
    except Exception as exc:  # a raising check fails; it must not kill the run
        data = _raised(exc)
    elapsed = time.perf_counter() - started
    tolerance = data.tolerance
    if cfg.fast and data.fast_tolerance is not None:
        tolerance = data.fast_tolerance
    if cfg.tol is not None and data.metric == "error" and math.isfinite(tolerance):
        tolerance = cfg.tol
    return CheckResult(
        check_id=spec.check_id,
        anchor=spec.anchor,
        lhs=data.lhs,
        rhs=data.rhs,
        rel_error=data.rel_error,
        tolerance=tolerance,
        passed=bool(data.rel_error <= tolerance),
        rules=data.rules,
        seconds=elapsed,
    )


def run_suite(name: str, config: SuiteConfig | None = None) -> SuiteReport:
    """Run one named check suite (or ``'all'``) and return its report.

    Checks execute on a worker pool; the report is sorted by check id, so its
    content is independent of scheduling and, for a fixed config, of run
    order (wall times aside).
    """
    cfg = config or SuiteConfig()
    specs = _specs_for(name)
    workers = cfg.jobs or min(4, len(specs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda spec: _run_check(spec, cfg), specs))
    results.sort(key=lambda check: check.check_id)
    return SuiteReport(suite=name, config=cfg, checks=tuple(results))


# ---------------------------------------------------------------------------
# Point / descriptor decoding for the eval commands
# ---------------------------------------------------------------------------


def _load_json_argument(text: str, label: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{label} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{label} must be a JSON object")
    return doc


def _point_from_any_json(doc: dict):
    """Accept a chart point {'z','t','h'}, a raw point
    {'zeta_prime','zeta_last'}, or a ball point {'omega'}."""
    if "omega" in doc:
        return ball_point_from_json(doc)
    if "z" in doc:
        return psi_inv(chart_from_json(doc))
    if "zeta_prime" in doc:
        return point_from_json(doc)
    raise ConfigError(
        "point JSON needs 'z'/'t'/'h' (chart), 'zeta_prime'/'zeta_last' (raw), "
        "or 'omega' (ball)"
    )


_KERNEL_ID_NAMES = ("szego", "bergman", "weighted-dirichlet", "dirichlet-log", "ball-dirichlet")
_SPACE_NAMES = ("hardy", "bergman", "weighted-dirichlet", "drury-arveson", "dirichlet")


def _space_from_args(name: str, nu: float | None, m: int | None, dotted: bool = False):
    """Descriptor named by a kernel id or a space name (both vocabularies name
    the same spaces; ``ball-dirichlet`` is the one kernel without a space)."""
    if name in ("szego", "hardy"):
        return sp.Hardy()
    if name == "bergman":
        return sp.Bergman(0.0 if nu is None else nu)
    if name == "weighted-dirichlet":
        if nu is None or m is None:
            raise ConfigError("the derivative-weighted space needs both --nu and --m")
        return sp.WeightedDirichlet(nu, m)
    if name == "drury-arveson":
        return sp.DruryArveson(1 if m is None else m)
    if name in ("dirichlet-log", "dirichlet"):
        return sp.Dirichlet(2 if m is None else m, dotted)
    if name == "ball-dirichlet":
        return kr.BallDirichlet()
    raise ConfigError(
        f"unknown space {name!r}; choose from {', '.join(_KERNEL_ID_NAMES + _SPACE_NAMES)}"
    )


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)


def _cmd_verify(args: argparse.Namespace) -> int:
    settings = _merge_config(args)
    suite = settings.pop("suite", "all")
    out_path = settings.pop("out", None)
    csv_path = settings.pop("csv", None)
    gnuplot_path = settings.pop("emit_gnuplot", None)
    report = run_suite(suite, SuiteConfig(**settings))
    _emit(report.to_json(), out_path)
    if csv_path:
        with open(csv_path, "w", encoding="utf-8", newline="") as handle:
            handle.write(report.to_csv())
    if gnuplot_path:
        with open(gnuplot_path, "w", encoding="utf-8") as handle:
            handle.write(report.to_gnuplot())
    return 0 if report.passed else 1


_VERIFY_CONFIG_KEYS = {
    "suite": str,
    "n": int,
    "nu": float,
    "m": int,
    "tol": float,
    "seed": int,
    "pairs": int,
    "fast": bool,
    "jobs": int,
    "out": str,
    "csv": str,
    "emit_gnuplot": str,
}


def _merge_config(args: argparse.Namespace) -> dict:
    """Config-file values under CLI values; every flag has a file key."""
    settings: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_doc = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_doc, dict):
            raise ConfigError("config file must hold one JSON object")
        for key, value in file_doc.items():
            slot = key.replace("-", "_")
            if slot not in _VERIFY_CONFIG_KEYS:
                raise ConfigError(
                    f"unknown config key {key!r}; valid keys: "
                    + ", ".join(sorted(_VERIFY_CONFIG_KEYS))
                )
            expected = _VERIFY_CONFIG_KEYS[slot]
            if expected is float and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            if not isinstance(value, expected) or (
                expected is int and isinstance(value, bool)
            ):
                raise ConfigError(
                    f"config key {key!r} must be {expected.__name__}"
                )
            settings[slot] = value
    for key in _VERIFY_CONFIG_KEYS:
        if key == "fast":
            continue  # store_true flags have no "unset" marker; handled below
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            settings[key] = cli_value
    if args.fast:
        settings["fast"] = True
    settings.setdefault("fast", False)
    return settings


def _cmd_kernel_eval(args: argparse.Namespace) -> int:
    kid = _space_from_args(args.id, args.nu, args.m, args.dotted)
    first = _point_from_any_json(_load_json_argument(args.omega, "--omega"))
    second = _point_from_any_json(_load_json_argument(args.zeta, "--zeta"))
    value = kr.kernel_eval(kid, first, second)
    n = first.n
    doc = {
        "id": args.id,
        "n": n,
        "value": [value.real, value.imag],
        "constant": kr.kernel_constant(kid, n).text,
    }
    _emit(doc, args.out)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    profile = sp.profile_from_json(_load_json_argument(args.profile, "--profile"))
    target = _point_from_any_json(_load_json_argument(args.zeta, "--zeta"))
    if isinstance(profile, sp.DirichletKernelProfile):
        center_value = complex(args.center_value_re, args.center_value_im)
        value = sp.synthesize_dirichlet(profile, target, center_value)
    else:
        value = sp.synthesize(profile, target)
    doc = {
        "profile": sp.profile_to_json(profile),
        "value": [value.real, value.imag],
    }
    _emit(doc, args.out)
    return 0


def _cmd_norm(args: argparse.Namespace) -> int:
    profile = sp.profile_from_json(_load_json_argument(args.profile, "--profile"))
    n = getattr(profile, "n", None)
    if n is None:
        raise ConfigError("this profile family does not carry a dimension")
    tag = _space_from_args(args.space, args.nu, args.m)
    functions = [sp.ProfileFunction(profile)]
    spectral = kr.spectral_entry(functions, tag)
    doc: dict = {
        "space": args.space,
        "n": n,
        "constant": sp.norm_identity_constant(tag, n).text,
        "spectral": spectral,
    }
    if args.method in ("quadrature", "both"):
        rules = sp.ChartNormRules.smoke() if args.fast else sp.ChartNormRules()
        doc["quadrature"] = volume = kr.chart_entry(functions, tag, rules=rules)
        if args.method == "both":
            rel_error, lhs, rhs = _COMPARE["relative"](volume, spectral)
            doc.update(
                identity="chart norm equals constant times spectral norm",
                lhs=lhs,
                rhs=rhs,
                rel_error=rel_error,
                rules=sp._chart_layout(functions, n, None, rules).label,
            )
    _emit(doc, args.out)
    return 0


def _cmd_da_norm(args: argparse.Namespace) -> int:
    f = da.parse_ball_polynomial(args.poly, dim=args.dim)
    doc: dict = {"poly": str(f), "dim": f.dim}
    if args.method in ("coefficient", "both"):
        doc["coefficient"] = da.da_norm_coeff_sq(f)
        doc["dot_dirichlet"] = da.dot_dirichlet_norm_coeff_sq(f)
    if args.method in ("integral", "both"):
        doc["integral"] = da.da_norm_integral_sq(f)
    if args.method == "both":
        doc["difference"] = abs(doc["coefficient"] - doc["integral"])
    _emit(doc, args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siegelpw",
        description="Verification driver and evaluators for holomorphic-space "
        "norm identities on the Siegel upper half-space.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named check suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, default=None)
    verify.add_argument("--n", type=int, choices=(1, 2), default=None)
    verify.add_argument("--nu", type=float, default=None)
    verify.add_argument("--m", type=int, default=None)
    verify.add_argument("--tol", type=float, default=None)
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--pairs", type=int, default=None)
    verify.add_argument("--fast", action="store_true", help="smoke-preset quadrature and smaller sample counts")
    verify.add_argument("--jobs", type=int, default=None)
    verify.add_argument("--out", type=str, default=None, help="write the JSON report here instead of stdout")
    verify.add_argument("--csv", type=str, default=None, help="also write a CSV flattening")
    verify.add_argument("--emit-gnuplot", dest="emit_gnuplot", type=str, default=None, help="also write a plain data file")
    verify.add_argument("--config", type=str, default=None, help="JSON config file; CLI flags override it")
    verify.set_defaults(handler=_cmd_verify)

    kernel = sub.add_parser("kernel", help="pointwise kernel evaluation")
    kernel_sub = kernel.add_subparsers(dest="kernel_command", required=True)
    kernel_eval = kernel_sub.add_parser("eval", help="evaluate one kernel at a pair of points")
    kernel_eval.add_argument("--id", choices=_KERNEL_ID_NAMES, required=True)
    kernel_eval.add_argument("--nu", type=float, default=None)
    kernel_eval.add_argument("--m", type=int, default=None)
    kernel_eval.add_argument("--dotted", action="store_true")
    kernel_eval.add_argument("--omega", type=str, required=True, help="first-slot point JSON")
    kernel_eval.add_argument("--zeta", type=str, required=True, help="second-slot point JSON")
    kernel_eval.add_argument("--out", type=str, default=None)
    kernel_eval.set_defaults(handler=_cmd_kernel_eval)

    synth = sub.add_parser("synth", help="synthesize a field at a point")
    synth.add_argument("--profile", type=str, required=True, help="profile JSON")
    synth.add_argument("--zeta", type=str, required=True, help="target point JSON")
    synth.add_argument("--center-value-re", type=float, default=0.0)
    synth.add_argument("--center-value-im", type=float, default=0.0)
    synth.add_argument("--out", type=str, default=None)
    synth.set_defaults(handler=_cmd_synth)

    norm = sub.add_parser("norm", help="space norm of a profile's synthesis")
    norm.add_argument("--space", choices=_SPACE_NAMES, required=True)
    norm.add_argument("--nu", type=float, default=None)
    norm.add_argument("--m", type=int, default=None)
    norm.add_argument("--profile", type=str, required=True, help="profile JSON")
    norm.add_argument("--method", choices=("spectral", "quadrature", "both"), default="both")
    norm.add_argument("--fast", action="store_true")
    norm.add_argument("--out", type=str, default=None)
    norm.set_defaults(handler=_cmd_norm)

    danorm = sub.add_parser("da-norm", help="coefficient/integral norms of a ball polynomial")
    danorm.add_argument("--dim", type=int, default=None)
    danorm.add_argument("--poly", type=str, required=True)
    danorm.add_argument("--method", choices=("coefficient", "integral", "both"), default="both")
    danorm.add_argument("--out", type=str, default=None)
    danorm.set_defaults(handler=_cmd_da_norm)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except SiegelPWError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
