"""Workloads of the benchmark, built only on the public API of ``siegelpw``.

A workload is cut into *units* of fixed work.  ``verify-n1`` and
``verify-n2`` run one ``cli.run_suite("all", ...)`` per unit; ``eval-stream``
runs a block of ``EVAL_BLOCK`` single-object steps per unit.  Every unit
returns evidence rows: ``(id, passed, rel_error, tolerance, seconds,
raised)`` plus the values the determinism gate compares.  Checks of the
outputs run outside the timed part of a unit.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import time

import numpy as np

from siegelpw import cli, drury_arveson as da, kernels as kr, siegel, spectral as sp
from siegelpw.heisenberg import HeisenbergElement

#: Steps per eval-stream unit: a few seconds of work, so a 40-second run
#: takes its median over 15 to 20 units.
EVAL_BLOCK = 100
#: Steps run before timing, from inputs outside the stream: every call
#: variant's first use (lazy imports and tables) happens here and is counted
#: in set-up time instead of the first timed block.
EVAL_WARMUP = 10
#: Dimension of the eval-stream objects (the CLI's default ``--n``).
EVAL_N = 1
#: Derivative order of the logarithmic kernel (needs 2m > n + 1).
EVAL_DIRICHLET_M = 2

_HALF_SPACE_KIDS = (kr.Szego(), kr.Bergman(0.0), kr.WeightedDirichlet(-1.5, 1), kr.DirichletLog(EVAL_DIRICHLET_M))
_EVAL_KIDS = _HALF_SPACE_KIDS + (kr.BallDirichlet(),)
_SYNTH_KIDS = (kr.Szego(), kr.Bergman(0.0), kr.Bergman(1.5))
# Multi-indices of the random ball polynomials, as in the CLI's
# da-random-identity check: two variables, total degree at most 8.
_BALL_INDICES = [(i, j) for i in range(9) for j in range(9) if i + j <= 8]
# Warm-up steps draw from indices no timed stream reaches.
_WARMUP_BASE = 10**12


def _rel(got: complex, want: complex) -> float:
    scale = max(abs(got), abs(want))
    return 0.0 if scale == 0.0 else abs(got - want) / scale


def _raised_type(rules: str) -> str | None:
    if rules.startswith("raised "):
        return rules[len("raised "):].split(":", 1)[0]
    return None


class VerifyWorkload:
    """``run_suite("all")`` at dimension ``n`` with ``jobs`` workers."""

    def __init__(self, n: int, seed: int, jobs: int):
        self.config = cli.SuiteConfig(n=n, seed=seed, jobs=jobs)
        self.suite_of = {spec.check_id: suite for suite, specs in cli.SUITES.items() for spec in specs}

    def warm_up(self) -> None:
        """Nothing to prepare: a suite run is one user operation, first calls included."""

    def unit(self, index: int, pause=contextlib.nullcontext) -> dict:
        started = time.perf_counter()
        report = cli.run_suite("all", self.config)
        wall = time.perf_counter() - started
        rows = [
            {
                "id": check.check_id,
                "suite": self.suite_of[check.check_id],
                "seconds": check.seconds,
                "rel_error": check.rel_error,
                "tolerance": check.tolerance,
                "passed": check.passed,
                "raised": _raised_type(check.rules),
            }
            for check in report.checks
        ]
        return {"wall": wall, "op_seconds": [wall], "rows": rows, "problems": _report_problems(rows)}


def _report_problems(rows: list[dict]) -> list[str]:
    """Ways a suite report can be malformed; each one makes the run incorrect.

    A check that fails is the program's verdict and is counted as failed; it
    is not a malformed report.
    """
    problems = []
    ids = [row["id"] for row in rows]
    if len(rows) != len(set(ids)) or len(rows) != sum(len(specs) for specs in cli.SUITES.values()):
        problems.append(f"report has {len(rows)} rows for {len(set(ids))} distinct ids")
    for row in rows:
        if row["passed"] != (row["rel_error"] <= row["tolerance"]):
            problems.append(f"{row['id']}: passed flag disagrees with its error and tolerance")
        if row["raised"] is not None and row["passed"]:
            problems.append(f"{row['id']}: raised yet passed")
    return problems


class EvalStream:
    """A seeded stream of the single-object calls a scripting user makes.

    Step ``i`` draws its inputs from ``SeedSequence([seed, i])``, so a step's
    inputs do not depend on how many steps ran before it.
    """

    def __init__(self, seed: int):
        self.seed = seed

    def _draw(self, index: int) -> dict:
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, index]))
        n = EVAL_N
        anchors = []
        for _ in range(2):
            # The CLI's interior distribution: z, t ~ N(0, 0.7), h ~ U(0.3, 2).
            z = rng.normal(0.0, 0.7, n) + 1j * rng.normal(0.0, 0.7, n)
            anchors.append((z, float(rng.normal(0.0, 0.7)), float(rng.uniform(0.3, 2.0))))
        chosen = rng.choice(len(_BALL_INDICES), size=12, replace=False)
        coefficients = rng.normal(size=12) + 1j * rng.normal(size=12)
        return {
            "index": index,
            "anchors": anchors,
            "kind": index % 4,
            "translation": (rng.normal(0.0, 1.0, n) + 1j * rng.normal(0.0, 1.0, n), float(rng.normal())),
            "delta": float(rng.uniform(0.5, 2.0)),
            "angle": float(rng.uniform(0.0, 2.0 * math.pi)),
            "poly": {_BALL_INDICES[k]: complex(c) for k, c in zip(chosen, coefficients)},
        }

    def warm_up(self) -> None:
        for k in range(EVAL_WARMUP):
            self._run_step(self._draw(_WARMUP_BASE + k))

    def _automorphism(self, step: dict):
        kind = step["kind"]
        if kind == 0:
            z, t = step["translation"]
            return siegel.HeisenbergTranslation(HeisenbergElement(z=z, t=t))
        if kind == 1:
            return siegel.Dilation(step["delta"])
        if kind == 2:
            return siegel.Unitary(np.exp(1j * step["angle"]) * np.eye(EVAL_N))
        return siegel.Inversion()

    def _run_step(self, step: dict) -> dict:
        """The timed calls of one step; returns their raw outputs."""
        i = step["index"]
        a, b = (
            siegel.psi_inv(siegel.HorocyclicCoordinates(z=z, t=t, h=h))
            for z, t, h in step["anchors"]
        )
        kid = _EVAL_KIDS[i % len(_EVAL_KIDS)]
        if isinstance(kid, kr.BallDirichlet):
            first, second = siegel.cayley_inv(a), siegel.cayley_inv(b)
        else:
            first, second = a, b
        synth_kid = _SYNTH_KIDS[i % len(_SYNTH_KIDS)]
        profile = kr.kernel_profile(synth_kid, a)
        tag = kr.space_tag_for(synth_kid)
        repro_kid = _HALF_SPACE_KIDS[i % len(_HALF_SPACE_KIDS)]
        phi = self._automorphism(step)
        ball = siegel.cayley_inv(a)
        poly = da.BallPolynomial(EVAL_N + 1, step["poly"])
        return {
            "kid": kid,
            "first": first,
            "second": second,
            "synth_kid": synth_kid,
            "a": a,
            "b": b,
            "phi": phi,
            "kernel": kr.kernel_eval(kid, first, second),
            "synth": sp.synthesize(profile, b),
            "dirichlet": sp.synthesize_dirichlet(sp.DirichletKernelProfile(EVAL_N, EVAL_DIRICHLET_M, a), b),
            "repro": kr.reproducing_check(repro_kid, a, b, method="spectral"),
            "norm": sp.norm_identity_constant(tag, EVAL_N).value * sp.l2nu_norm_sq(profile, sp.spectral_weight(tag, EVAL_N)),
            "moved": siegel.apply(phi, a),
            "cayley": siegel.cayley(ball),
            "da_coeff": da.da_norm_coeff_sq(poly),
            "da_integral": da.da_norm_integral_sq(poly),
        }

    @staticmethod
    def _check_step(out: dict) -> list[tuple[str, complex, float, float]]:
        """Closed-form checks of one step: (name, value, rel_error, tolerance)."""
        a, b, phi = out["a"], out["b"], out["phi"]
        kernel = out["kernel"]
        mirrored = kr.kernel_eval(out["kid"], out["second"], out["first"])
        synth_want = kr.kernel_eval(out["synth_kid"], b, a)
        dirichlet_want = kr.kernel_eval(kr.DirichletLog(EVAL_DIRICHLET_M, dotted=True), b, a)
        diagonal = kr.kernel_eval(out["synth_kid"], a, a).real
        height = siegel.rho(a)
        if isinstance(phi, siegel.Dilation):
            height *= phi.delta**2
        elif isinstance(phi, siegel.Inversion):
            height /= abs(a.zeta_last) ** 2
        moved, back = out["moved"], out["cayley"]
        round_trip = max(_rel(back.zeta_last, a.zeta_last), float(np.max(np.abs(back.zeta_prime - a.zeta_prime))) / abs(a.zeta_last))
        return [
            ("kernel-hermitian", kernel, _rel(kernel, mirrored.conjugate()), 1e-12),
            ("synthesize", out["synth"], _rel(out["synth"], synth_want), 1e-10),
            ("synthesize-dirichlet", out["dirichlet"], _rel(out["dirichlet"], dirichlet_want), 1e-8),
            ("reproducing", out["repro"], out["repro"], 1e-10),
            ("l2nu-norm", out["norm"], _rel(out["norm"], diagonal), 1e-10),
            ("apply-height", moved.zeta_last, _rel(siegel.rho(moved), height), 1e-10),
            ("cayley", back.zeta_last, round_trip, 1e-12),
            ("drury-arveson", out["da_coeff"], _rel(out["da_integral"], out["da_coeff"]), 1e-8),
        ]

    def unit(self, index: int, pause=contextlib.nullcontext) -> dict:
        """Run one block of steps; ``pause`` wraps the untimed checks."""
        steps = [self._draw(i) for i in range(index * EVAL_BLOCK, (index + 1) * EVAL_BLOCK)]
        outputs, op_seconds = [], []
        started = time.perf_counter()
        for step in steps:
            op_start = time.perf_counter()
            try:
                outputs.append(self._run_step(step))
            except Exception as exc:  # a raising step counts as failed
                outputs.append(exc)
            op_seconds.append(time.perf_counter() - op_start)
        wall = time.perf_counter() - started
        rows = []
        for step, out, seconds in zip(steps, outputs, op_seconds):
            row = {"id": f"step-{step['index']}", "seconds": seconds}
            if isinstance(out, Exception):
                row.update(rel_error=math.inf, tolerance=0.0, passed=False, raised=type(out).__name__, digest="raised")
            else:
                with pause():
                    checks = self._check_step(out)
                worst = max(checks, key=lambda c: c[2] / c[3])
                row.update(
                    rel_error=worst[2],
                    tolerance=worst[3],
                    passed=all(err <= tol for _, _, err, tol in checks),
                    raised=None,
                    digest=hashlib.sha256(repr([(name, value, err) for name, value, err, _ in checks]).encode()).hexdigest()[:16],
                )
            rows.append(row)
        return {"wall": wall, "op_seconds": op_seconds, "rows": rows, "problems": []}


def make(name: str, seed: int, jobs: int):
    """Build the named workload from its seed."""
    if name == "verify-n1":
        return VerifyWorkload(1, seed, jobs)
    if name == "verify-n2":
        return VerifyWorkload(2, seed, jobs)
    if name == "eval-stream":
        return EvalStream(seed)
    raise ValueError(f"unknown workload {name!r}")
