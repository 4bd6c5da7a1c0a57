"""Tests for the ``siegelpw`` command line: exit codes, config-file merging,
report shapes, the scope of ``--tol``, and the ``kernel eval``, ``synth``,
``norm`` and ``da-norm`` evaluators.

Whole suites run here only without chart grids (``group``, ``fock``,
``bargmann``, ``drury-arveson``), or at n = 2 for ``paley-wiener``, whose
one-anchor chart rows run on 3-D grids; ``norm`` runs on the spectral side.
So the whole file takes seconds.
"""

import csv
import io
import itertools
import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

import siegelpw.bargmann as bg
import siegelpw.cli as cli
import siegelpw.drury_arveson as da
import siegelpw.fock as fk
import siegelpw.heisenberg as hb
import siegelpw.kernels as kr
import siegelpw.spectral as sp
from siegelpw.siegel import chart_from_json, point_to_json, psi_inv

ROW_KEYS = {"id", "anchor", "lhs", "rhs", "rel_error", "tolerance", "passed", "rules", "seconds"}


def run_verify(tmp_path, *flags):
    out = tmp_path / "report.json"
    code = cli.main(["verify", *flags, "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestExitCodes:
    def test_passing_suite_exits_zero(self, tmp_path):
        code, report = run_verify(tmp_path, "--suite", "group")
        assert code == 0
        assert report["passed"] is True

    def test_failing_check_exits_one(self, tmp_path):
        # Rounding errors of about 1e-16 cannot meet a 1e-17 error tolerance.
        code, report = run_verify(tmp_path, "--suite", "group", "--tol", "1e-17")
        assert code == 1
        assert report["passed"] is False
        assert all(row["tolerance"] == 1e-17 for row in report["checks"])

    @pytest.mark.parametrize(
        "doc",
        [{"suite": "no-such-suite"}, {"n": 3}, {"unknown-key": 1}, {"seed": "seven"}, ["suite"]],
    )
    def test_bad_config_exits_two(self, tmp_path, capsys, doc):
        code, report = run_verify(tmp_path, "--config", write_config(tmp_path, doc))
        assert code == 2
        assert report is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_unreadable_config_exits_two(self, tmp_path):
        code, _ = run_verify(tmp_path, "--config", str(tmp_path / "missing.json"))
        assert code == 2

    def test_bad_flag_value_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as stop:
            cli.main(["verify", "--suite", "no-such-suite"])
        assert stop.value.code == 2


class TestConfigMerging:
    def test_file_values_apply(self, tmp_path):
        config = write_config(tmp_path, {"suite": "group", "seed": 5, "pairs": 3, "fast": True})
        code, report = run_verify(tmp_path, "--config", config)
        assert code == 0
        assert report["suite"] == "group"
        assert report["config"]["seed"] == 5
        assert report["config"]["pairs"] == 3
        assert report["config"]["fast"] is True

    def test_command_line_overrides_the_file(self, tmp_path):
        config = write_config(tmp_path, {"suite": "fock", "seed": 5, "pairs": 3, "tol": 1e-20})
        code, report = run_verify(
            tmp_path, "--config", config, "--suite", "group", "--seed", "7", "--tol", "0.5"
        )
        assert code == 0
        assert report["suite"] == "group"
        assert report["config"]["seed"] == 7
        assert report["config"]["pairs"] == 3
        assert report["config"]["tol"] == 0.5

    def test_integer_tolerance_in_the_file_is_accepted(self, tmp_path):
        config = write_config(tmp_path, {"suite": "group", "tol": 1})
        code, report = run_verify(tmp_path, "--config", config)
        assert code == 0
        assert report["config"]["tol"] == 1.0


class TestReportShape:
    def test_json_and_csv_agree(self, tmp_path):
        csv_path = tmp_path / "report.csv"
        code, report = run_verify(tmp_path, "--suite", "fock", "--csv", str(csv_path))
        assert code == 0
        assert set(report) == {"suite", "config", "passed", "checks"}
        assert set(report["config"]) == {"n", "nu", "m", "tol", "seed", "pairs", "fast", "jobs"}
        ids = [row["id"] for row in report["checks"]]
        assert ids == sorted(ids) == [spec.check_id for spec in sorted(
            cli.SUITES["fock"], key=lambda spec: spec.check_id
        )]
        for row in report["checks"]:
            assert set(row) == ROW_KEYS
            assert row["passed"] == (row["rel_error"] <= row["tolerance"])
        rows = list(csv.reader(io.StringIO(csv_path.read_text())))
        assert rows[0] == [
            "id", "anchor", "lhs", "rhs", "rel_error", "tolerance", "passed", "rules", "seconds",
        ]
        assert [row[0] for row in rows[1:]] == ids
        assert {row[6] for row in rows[1:]} == {"pass"}

    def test_gnuplot_lines(self, tmp_path):
        path = tmp_path / "report.dat"
        code, report = run_verify(tmp_path, "--suite", "group", "--emit-gnuplot", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# suite group seed 0 n 1")
        assert len(lines) == 2 + len(report["checks"])


class TestToleranceOverride:
    def test_tol_leaves_z_scores_and_bound_ratios_alone(self, tmp_path):
        code, report = run_verify(tmp_path, "--suite", "drury-arveson", "--tol", "1e-3")
        rows = {row["id"]: row for row in report["checks"]}
        assert code == 0
        assert rows["da-sphere-moment-mc"]["tolerance"] == 1.0
        assert rows["da-sphere-moment-mc"]["passed"] is True
        assert rows["da-monomial-identity"]["tolerance"] == 1e-3

        code, report = run_verify(tmp_path, "--suite", "fock", "--tol", "1e-3")
        rows = {row["id"]: row for row in report["checks"]}
        assert code == 0
        assert rows["fock-kernel-truncation"]["tolerance"] == 1.0
        assert rows["fock-truncation-budget"]["tolerance"] == 1.0
        assert rows["fock-pairing-orthogonality"]["tolerance"] == 1e-3

    @pytest.mark.parametrize(
        "check_id, tolerance",
        [("kernels-power-integral-mc", 1.0), ("kernels-power-integral-divergence", 0.5)],
    )
    def test_tol_leaves_kernel_z_score_and_count_alone(self, check_id, tolerance):
        spec = next(spec for spec in cli.SUITES["kernels"] if spec.check_id == check_id)
        result = cli._run_check(spec, cli.SuiteConfig(fast=True, tol=1e-12))
        assert result.tolerance == tolerance
        assert result.passed


class TestFockAndBargmannSuites:
    """Closed-form Bargmann matrices and the one-product Fock Gram keep both
    suites at seconds for n = 2 and for ``--fast``, with one degree per
    check (the Gauss-Hermite versions took about 30 s at n = 2)."""

    @pytest.mark.parametrize("suite", ["bargmann", "fock"])
    @pytest.mark.parametrize("flags", [["--n", "2"], ["--fast"]], ids=["n2", "fast"])
    def test_suite_passes_in_seconds(self, tmp_path, suite, flags):
        start = time.perf_counter()
        code, report = run_verify(tmp_path, "--suite", suite, *flags)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert report["passed"] is True
        assert elapsed < 5.0

    def test_homomorphism_rules_name_the_degrees(self):
        cfg = cli.SuiteConfig(n=2, seed=1)
        data = cli._check_bargmann_homomorphism(cfg, cli._check_rng(cfg, "bargmann-homomorphism"))
        degrees = [int(d) for d in data.rules.split("degrees ")[1].split(", ")]
        assert len(degrees) == 3 and min(degrees) >= 8
        assert data.rel_error <= 1e-2 * data.tolerance


class TestFockGram:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_derived_rule_is_the_smallest_exact_one(self, n):
        trunc = fk.FockTruncation(n, 4)
        nodes = trunc.max_degree + 1
        identity = np.eye(trunc.dim)
        assert np.max(np.abs(cli._fock_gram(trunc, -2.0, nodes) - identity)) <= 1e-13
        assert np.max(np.abs(cli._fock_gram(trunc, -2.0, nodes - 1) - identity)) > 1e-13

    def test_rules_name_the_node_count(self):
        cfg = cli.SuiteConfig(n=2, seed=1)
        data = cli._check_fock_pairing(cfg, cli._check_rng(cfg, "fock-pairing-orthogonality"))
        assert "5 nodes" in data.rules
        assert data.rel_error <= 1e-13


class TestProjectionTail:
    def test_rounding_deficit_under_a_tiny_bound_passes(self):
        # Seed 8 draws, last, an element whose vacuum-row deficit is one
        # rounding unit (1.1e-16) while the analytic tail bound is 5.4e-22.
        # The rounding floor keeps its ratio at 2.2e-3 instead of 2e5, so the
        # row reports the second element, whose ratio 0.34 sets the error.
        cfg = cli.SuiteConfig(seed=8)
        data = cli._check_bargmann_projection_tail(
            cfg, cli._check_rng(cfg, "bargmann-projection-tail")
        )
        assert data.lhs == pytest.approx(4.325970692775627e-10, rel=1e-6)
        assert data.rhs == pytest.approx(1.2818855656432194e-09, rel=1e-6)
        assert data.rel_error == data.lhs / (data.rhs + 5e-14)
        assert data.metric == "bound-ratio"
        assert data.rel_error <= data.tolerance == 1.0


def nan_element(a, b):
    """A group product whose coordinates are NaN."""
    return SimpleNamespace(z=a.z * math.nan, t=math.nan)


#: One row per suite whose error is a reduction, with the dependencies that
#: make its cases NaN.  A reduction by ``max`` would pass each with error 0,
#: since ``max(0.0, nan)`` is 0.0.  ``pw-cr-residuals`` gets a NaN for its
#: second field only, the case ``max`` drops.
NAN_CASES = {
    "group-associativity": [(hb, "mul", nan_element)],
    "group-identity-inverse": [(hb, "mul", nan_element)],
    "fock-truncation-budget": [(fk, "suggested_truncation", lambda lam, radius, tol: 10),
                               (fk, "kernel_tail_bound", lambda degree, x: math.nan)],
    "bargmann-unitarity": [(bg, "column_defect_bound", lambda *args: math.nan)],
    "pw-cr-residuals": [(sp, "holomorphy_residuals",
                         lambda F, where: math.nan if isinstance(F.profile, sp.DirichletKernelProfile) else 0.0)],
    "kernels-cayley-transfer": [(kr, "cayley_transfer_check", lambda *args, **kwargs: math.nan)],
    "dirichlet-mobius-invariance": [(kr, "mobius_invariance_check", lambda *args, **kwargs: math.nan)],
    "da-documented-value": [(da, "da_norm_integral_sq", lambda f: math.nan)],
    "da-monomial-identity": [(da, "da_norm_integral_sq", lambda f: math.nan)],
    "dirichlet-difference-report": [(kr, "difference_integral_ratio",
                                     lambda zeta, m: kr.DifferenceIntegralReport(math.nan, 1.0, math.nan))],
}


class TestEvidenceRows:
    """A check that loops over cases reports the case that sets its error, so
    the row's lhs and rhs reproduce its rel_error."""

    @pytest.mark.parametrize(
        "check_id,error",
        [
            ("group-norm-homogeneity", cli._rel),
            ("group-distance-dilation", cli._rel),
            ("pw-m-independence-spectral", cli._rel),
            ("kernels-power-integral-nested", lambda lhs, rhs: abs(lhs - rhs) / rhs),
        ],
    )
    @pytest.mark.parametrize("seed", [1, 3])
    def test_values_reproduce_the_error(self, check_id, error, seed):
        cfg = cli.SuiteConfig(seed=seed)
        spec = next(spec for spec in cli._specs_for("all") if spec.check_id == check_id)
        data = spec.run(cfg, cli._check_rng(cfg, check_id))
        assert data.rel_error == error(data.lhs, data.rhs)

    def test_worst_case_is_the_first_arg_max(self):
        cases = [(0.1, 1.0, 2.0), (0.3, 3.0, 4.0), (0.3, 5.0, 6.0)]
        assert cli._worst_case(cases) == (0.3, 3.0, 4.0)
        assert cli._worst_case([(0.0, 1.0, 2.0), (0.0, 3.0, 4.0)]) == (0.0, 1.0, 2.0)
        assert cli._worst_case([(-1.0, 1.0, 2.0), (0.0, 3.0, 4.0)]) == (0.0, 1.0, 2.0)
        # A NaN error is the worst, wherever it stands; the first NaN wins.
        cases += [(math.nan, 7.0, 8.0), (0.5, 9.0, 10.0), (math.nan, 11.0, 12.0)]
        error, lhs, rhs = cli._worst_case(cases)
        assert math.isnan(error) and (lhs, rhs) == (7.0, 8.0)
        error, lhs, rhs = cli._worst_case([(math.nan, 1.0, 2.0)])
        assert math.isnan(error) and (lhs, rhs) == (1.0, 2.0)

    def test_worst_error_floors_at_zero_and_ranks_nan(self):
        assert cli._worst_error([-1.0, -2.0]) == 0.0
        assert cli._worst_error([0.5, 2.0, 1.0]) == 2.0
        assert math.isnan(cli._worst_error([0.5, math.nan, 2.0]))

    @pytest.mark.parametrize("check_id", list(NAN_CASES))
    def test_a_nan_case_fails_the_row(self, monkeypatch, check_id):
        for module, name, fake in NAN_CASES[check_id]:
            monkeypatch.setattr(module, name, fake)
        spec = next(spec for spec in cli._specs_for("all") if spec.check_id == check_id)
        result = cli._run_check(spec, cli.SuiteConfig(seed=1, pairs=4, fast=True))
        assert math.isnan(result.rel_error) and result.passed is False

    @pytest.mark.parametrize("lhs,passed", [(2.0, True), (-2.0, False)])
    def test_difference_report_passes_a_finite_non_negative_value(self, monkeypatch, lhs, passed):
        # The row's tolerance is infinite: only a NaN error can fail it.
        monkeypatch.setattr(kr, "difference_integral_ratio",
                            lambda zeta, m: kr.DifferenceIntegralReport(lhs, 4.0, lhs / 4.0))
        spec = next(spec for spec in cli._specs_for("all") if spec.check_id == "dirichlet-difference-report")
        row = cli._run_check(spec, cli.SuiteConfig(seed=1)).to_row()
        assert row["passed"] is passed
        assert row["rel_error"] == (0.5 if passed else None)


class TestAnchorFrameRows:
    """Chart rows in the anchors' frame."""

    @pytest.mark.parametrize("seed", [4, 28])
    def test_kernel_reproducing_quadrature_off_axis_anchors(self, seed):
        # These seeds draw anchors far from the axis: on grids centred at
        # z = 0 their errors were 5.46e-4 and 1.63e-4.
        check_id = "kernels-reproducing-quadrature"
        cfg = cli.SuiteConfig(seed=seed)
        spec = next(spec for spec in cli._specs_for("all") if spec.check_id == check_id)
        data = spec.run(cfg, cli._check_rng(cfg, check_id))
        assert data.rel_error < 1e-4
        assert data.rules == "chart frame 2 anchors: radial 4x16, angles 16, t 7x16, h-tail 5x16"

    def test_one_anchor_derivative_rows_pass_at_n2(self, tmp_path):
        _, doc = run_verify(tmp_path, "--suite", "paley-wiener", "--n", "2", "--seed", "1", "--jobs", "1")
        rows = {row["id"]: row for row in doc["checks"]}
        ids = ("pw-derivative-identity", "pw-m-independence-quadrature")
        for check_id in ids:
            assert rows[check_id]["passed"]
            assert rows[check_id]["rules"] == "chart frame 1 anchor: radial 4x16 merged, t 7x16, h-tail 5x16"
        assert sum(rows[check_id]["seconds"] for check_id in ids) < 2.0


    def test_raised_rows_keep_the_layout_label(self, tmp_path):
        # Both rows raise UnderResolvedError at n = 2 on seed 1; the label of
        # the grid they ran on follows the exception.
        _, doc = run_verify(tmp_path, "--suite", "paley-wiener", "--n", "2", "--seed", "1")
        rows = {row["id"]: row for row in doc["checks"]}
        for check_id in ("pw-endpoint-identity", "pw-volume-identity-finite"):
            rules = rows[check_id]["rules"]
            assert rules.startswith("raised ") and not rows[check_id]["passed"]
            assert "; chart frame " in rules


#: The 41 row ids the benchmark counts: a dropped passing row would raise
#: the failed share of every verify run.
ROW_IDS = [
    "bargmann-derivative-fields", "bargmann-homomorphism", "bargmann-projection-tail", "bargmann-unitarity",
    "da-documented-value", "da-dot-dirichlet", "da-ladder-closed-form", "da-monomial-identity",
    "da-random-identity", "da-sphere-moment-mc", "dirichlet-cayley-transfer", "dirichlet-constant-slice",
    "dirichlet-difference-report", "dirichlet-gram-identity", "dirichlet-mobius-invariance",
    "dirichlet-reproducing-quadrature", "dirichlet-reproducing-spectral", "fock-kernel-truncation",
    "fock-pairing-orthogonality", "fock-truncation-budget", "group-associativity", "group-distance-dilation",
    "group-identity-inverse", "group-norm-homogeneity", "kernels-cayley-transfer", "kernels-gram-psd",
    "kernels-mobius-invariance", "kernels-power-integral-divergence", "kernels-power-integral-mc",
    "kernels-power-integral-nested", "kernels-reproducing-quadrature", "kernels-reproducing-spectral",
    "pw-cr-residuals", "pw-derivative-identity", "pw-endpoint-center", "pw-endpoint-identity",
    "pw-hardy-slices", "pw-m-independence-quadrature", "pw-m-independence-spectral", "pw-volume-identity",
    "pw-volume-identity-finite",
]


def describe(function):
    """The parameters of a table row's function: a kernel field's weight and
    order, a logarithmic field's order and constant, a finite field's term
    count and constant; a combination lists its terms."""
    if isinstance(function, kr.FunctionCombination):
        return [describe(term) for _, term in function.terms]
    profile = function.profile
    if isinstance(profile, sp.KernelProfile):
        return ("kernel", profile.nu, profile.m)
    if isinstance(profile, sp.DirichletKernelProfile):
        return ("log", profile.m, function.constant)
    return ("finite", len(profile.terms), function.constant)


def kernel(nu, m=0):
    return ("kernel", nu, m)


def log(m, constant=0.0):
    return ("log", m, constant)


WD, D = sp.WeightedDirichlet, sp.Dirichlet

#: Each table row's spaces and the parameters of its functions at n = 1 and
#: n = 2, as the hand-written rows chose them before the table.
TABLE = {
    ("pw-volume-identity", 1): [(sp.Bergman(0.0), [kernel(0.0)])],
    ("pw-volume-identity", 2): [(sp.Bergman(0.0), [kernel(0.0)])],
    ("pw-volume-identity-finite", 1): [(sp.Bergman(0.0), [("finite", 2, 0.0)])],
    ("pw-volume-identity-finite", 2): [(sp.Bergman(0.0), [("finite", 2, 0.0)])],
    ("pw-derivative-identity", 1): [(WD(-1.5, 1), [kernel(-1.5, 1)])],
    ("pw-derivative-identity", 2): [(WD(-2.5, 1), [kernel(-2.5, 1)])],
    ("pw-endpoint-identity", 1): [(D(2), [log(2)])],
    ("pw-endpoint-identity", 2): [(D(2), [log(2)])],
    ("pw-m-independence-quadrature", 1): [(WD(-1.5, 1), [kernel(-1.5, 1)]), (WD(-1.5, 2), [kernel(-1.5, 1)])],
    ("pw-m-independence-quadrature", 2): [(WD(-2.5, 1), [kernel(-2.5, 1)]), (WD(-2.5, 2), [kernel(-2.5, 1)])],
    ("pw-m-independence-spectral", 1): [
        (WD(nu, m), [kernel(nu, m)]) for nu, m in ((-2.0, 1), (-2.0, 2), (-1.5, 1), (-1.5, 2))
    ],
    ("pw-m-independence-spectral", 2): [
        (WD(nu, m), [kernel(nu, m)]) for nu, m in ((-3.0, 2), (-3.0, 3), (-2.5, 1), (-2.5, 2))
    ],
    ("kernels-reproducing-quadrature", 1): [(sp.Bergman(0.0), [kernel(0.0)] * 2)],
    ("kernels-reproducing-quadrature", 2): [(sp.Bergman(0.0), [kernel(0.0)] * 2)],
    ("kernels-reproducing-spectral", 1): [
        (sp.Hardy(), [kernel(-1.0)] * 2), (sp.Bergman(0.0), [kernel(0.0)] * 2),
        (sp.Bergman(1.5), [kernel(1.5)] * 2), (WD(-1.5, 1), [kernel(-1.5, 1)] * 2),
        (WD(-2.0, 1), [kernel(-2.0, 1)] * 2), (D(2), [log(2, 1.0)] * 2), (D(2, True), [log(2)] * 2),
    ],
    ("kernels-reproducing-spectral", 2): [
        (sp.Hardy(), [kernel(-1.0)] * 2), (sp.Bergman(0.0), [kernel(0.0)] * 2),
        (sp.Bergman(1.5), [kernel(1.5)] * 2), (WD(-2.5, 1), [kernel(-2.5, 1)] * 2),
        (WD(-3.0, 2), [kernel(-3.0, 2)] * 2), (D(3), [log(3, 1.0)] * 2), (D(3, True), [log(3)] * 2),
    ],
    ("dirichlet-reproducing-quadrature", 1): [(D(2), [log(2, 1.0)] * 2)],
    ("dirichlet-reproducing-quadrature", 2): [(D(3), [log(3, 1.0)] * 2)],
    ("dirichlet-reproducing-spectral", 1): [(D(2), [log(2, 1.0)] * 2), (D(2, True), [log(2)] * 2)],
    ("dirichlet-reproducing-spectral", 2): [(D(3), [log(3, 1.0)] * 2), (D(3, True), [log(3)] * 2)],
    ("dirichlet-constant-slice", 1): [(D(2), [("finite", 0, 0.75 - 0.4j), log(2, 1.0)])],
    ("dirichlet-constant-slice", 2): [(D(3), [("finite", 0, 0.75 - 0.4j), log(3, 1.0)])],
    ("dirichlet-gram-identity", 1): [(D(2, True), [[log(2)] * 3])],
    ("dirichlet-gram-identity", 2): [(D(3, True), [[log(3)] * 3])],
}


def table_rows():
    return {spec.check_id: spec for spec in cli._specs_for("all") if isinstance(spec, cli.IdentityRow)}


class TestIdentityTable:
    """The Gram-identity rows are data over three methods."""

    def test_suites_keep_the_benchmark_rows(self):
        ids = [spec.check_id for specs in cli.SUITES.values() for spec in specs]
        assert len(ids) == len(set(ids))
        assert sorted(ids) == ROW_IDS

    @pytest.mark.parametrize("n, fast", [(2, False), (1, True)])
    def test_constant_slice_runs_no_chart_pass(self, monkeypatch, n, fast):
        # The constant's height derivative is zero, so the entry is its center
        # product: exact, and with no grid pass (one would raise here).
        def no_pass(*args, **kwargs):
            raise AssertionError("a chart pass ran")

        monkeypatch.setattr(sp, "_chart_gram", no_pass)
        result = cli._run_check(table_rows()["dirichlet-constant-slice"], cli.SuiteConfig(n=n, seed=1, fast=fast))
        assert result.passed and result.rel_error == 0.0
        assert result.rules.startswith("no chart pass runs: ")

    @pytest.mark.parametrize("n", [1, 2])
    def test_parameter_rule_reproduces_the_hand_chosen_values(self, n):
        rows = table_rows()
        assert sorted(rows) == sorted(check_id for check_id, dim in TABLE if dim == n)
        cfg = cli.SuiteConfig(n=n)
        for check_id, row in rows.items():
            cases = row.cases(cfg, cli._check_rng(cfg, check_id))
            got = [(tag, [describe(f) for f in functions]) for tag, functions in cases]
            assert got == TABLE[check_id, n], check_id

    @pytest.mark.parametrize("n", [1, 2])
    def test_endpoint_order_follows_m_at_every_n(self, n):
        row = table_rows()["pw-endpoint-identity"]
        for m, expected in ((1, 2), (2, 2), (3, 3)):
            cfg = cli.SuiteConfig(n=n, m=m)
            [(tag, [field])] = row.cases(cfg, cli._check_rng(cfg, row.check_id))
            assert tag == sp.Dirichlet(expected)
            assert describe(field) == log(expected)

    def test_m_flag_reaches_the_endpoint_row_at_n2(self, monkeypatch, tmp_path):
        # The chart method is replaced by one that records its space and
        # raises, so the suite runs without chart grids.
        seen = []

        def record(functions, tag, entry, rules):
            seen.append(tag)
            raise RuntimeError("recorded")

        monkeypatch.setitem(cli._METHODS, "chart", record)
        _, doc = run_verify(tmp_path, "--suite", "paley-wiener", "--n", "2", "--m", "3", "--jobs", "1")
        rows = {row["id"]: row for row in doc["checks"]}
        assert sp.Dirichlet(3) in seen and sp.Dirichlet(2) not in seen
        assert rows["pw-endpoint-identity"]["rules"].startswith("raised RuntimeError: recorded; chart frame ")

    def test_a_nan_error_fails_the_row(self, monkeypatch):
        # Two spaces; the second compares NaN with 1, which must not hide
        # behind the first space's zero error.
        row = cli.IdentityRow(
            "nan-row", "", lambda rng, cfg: [cli._rand_interior(rng, cfg.n)] * 2,
            lambda cfg: [sp.Bergman(0.0), sp.Bergman(1.5)], ("spectral", "kernel"), 1e-10, compare="error",
        )
        values = itertools.cycle([1.0, 1.0, math.nan, 1.0])
        monkeypatch.setitem(cli._METHODS, "spectral", lambda *args: next(values))
        monkeypatch.setitem(cli._METHODS, "kernel", lambda *args: next(values))
        cfg = cli.SuiteConfig()
        data = row.run(cfg, cli._check_rng(cfg, "nan-row"))
        assert math.isnan(data.rel_error) and data.rules == ""
        assert cli._run_check(row, cfg).passed is False


OMEGA = {"z": [[0.3, 0.1]], "t": -0.2, "h": 0.8}
ZETA = {"z": [[-0.1, 0.4]], "t": 0.5, "h": 1.3}
POINTS = ["--omega", json.dumps(OMEGA), "--zeta", json.dumps(ZETA)]


def run_command(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = cli.main([*argv, "--out", str(out)])
    return code, (json.loads(out.read_text()) if out.exists() else None)


def kernel_profile_json(nu, m):
    base = psi_inv(chart_from_json(OMEGA))
    return json.dumps({"family": "kernel", "nu": nu, "m": m, "base": point_to_json(base)})


class TestEvaluators:
    """The ``kernel eval``, ``synth``, ``norm`` and ``da-norm`` subcommands on
    the spectral and coefficient sides only, so no chart grid runs."""

    def test_kernel_eval_dotted_log(self, tmp_path):
        code, doc = run_command(tmp_path, "kernel", "eval", "--id", "dirichlet-log", "--dotted", *POINTS)
        assert code == 0
        kid = kr.DirichletLog(2, dotted=True)
        value = kr.kernel_eval(kid, psi_inv(chart_from_json(OMEGA)), psi_inv(chart_from_json(ZETA)))
        assert doc["value"] == [value.real, value.imag]
        assert doc["constant"] == kr.kernel_constant(kid, 1).text
        assert (doc["id"], doc["n"]) == ("dirichlet-log", 1)

    @pytest.mark.parametrize(
        "argv",
        [
            ["kernel", "eval", "--id", "weighted-dirichlet", "--m", "1", *POINTS],
            ["kernel", "eval", "--id", "bergman", "--nu", "-1.5", *POINTS],
            ["norm", "--space", "dirichlet", "--m", "1", "--method", "spectral", "--profile", kernel_profile_json(0.0, 0)],
        ],
        ids=["weighted-dirichlet-without-nu", "bergman-nu-below-minus-one", "dirichlet-m1-at-n1"],
    )
    def test_invalid_descriptor_exits_two(self, tmp_path, capsys, argv):
        code, doc = run_command(tmp_path, *argv)
        assert code == 2
        assert doc is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_norm_drury_arveson(self, tmp_path):
        # The spectral norm of the space's own kernel slice is the kernel's
        # diagonal value at the slice's base.
        code, doc = run_command(
            tmp_path, "norm", "--space", "drury-arveson", "--method", "spectral",
            "--profile", kernel_profile_json(-2.0, 1),
        )
        assert code == 0
        base = psi_inv(chart_from_json(OMEGA))
        diagonal = kr.kernel_eval(sp.DruryArveson(1), base, base).real
        assert doc["constant"] == sp.norm_identity_constant(sp.DruryArveson(1), 1).text
        assert abs(doc["spectral"] - diagonal) < 1e-10 * diagonal
        assert "quadrature" not in doc

    def test_synth_kernel_profile_is_the_kernel(self, tmp_path):
        code, doc = run_command(
            tmp_path, "synth", "--profile", kernel_profile_json(0.0, 0), "--zeta", json.dumps(ZETA)
        )
        assert code == 0
        value = kr.kernel_eval(
            kr.Bergman(0.0), psi_inv(chart_from_json(ZETA)), psi_inv(chart_from_json(OMEGA))
        )
        assert abs(complex(*doc["value"]) - value) < 1e-10 * abs(value)

    def test_synth_dirichlet_adds_the_center_value(self, tmp_path):
        base = point_to_json(psi_inv(chart_from_json(OMEGA)))
        profile = json.dumps({"family": "dirichlet", "m": 2, "base": base})
        code, doc = run_command(
            tmp_path, "synth", "--profile", profile, "--zeta", json.dumps(ZETA),
            "--center-value-re", "0.25",
        )
        assert code == 0
        dotted = kr.kernel_eval(
            kr.DirichletLog(2, dotted=True), psi_inv(chart_from_json(ZETA)), psi_inv(chart_from_json(OMEGA))
        )
        assert abs(complex(*doc["value"]) - (dotted + 0.25)) < 1e-8

    def test_da_norm_methods_agree(self, tmp_path):
        code, doc = run_command(tmp_path, "da-norm", "--poly", "z1*z2 + 0.5*z1^3", "--method", "both")
        assert code == 0
        assert doc["dim"] == 2
        assert doc["difference"] <= 1e-8

    def test_da_norm_malformed_poly_exits_two(self, tmp_path, capsys):
        code, doc = run_command(tmp_path, "da-norm", "--poly", "z1*")
        assert code == 2
        assert doc is None
        assert capsys.readouterr().err.startswith("error: ")
