"""Tests for the command-line interface."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import specsum
from specsum import matrix_core, spectral_sums, verify
from specsum.cli import main
from specsum.polyapprox import CertificationError
from specsum.reporting import CSV_COLUMNS


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def matrix_prefix(tmp_path, runner):
    prefix = str(tmp_path / "a")
    res = runner.invoke(main, ["gen", "--n", "16", "--kappa", "10",
                               "--seed", "1", "--out", prefix])
    assert res.exit_code == 0, res.output
    return prefix


@pytest.fixture()
def domain_paths(tmp_path, runner, matrix_prefix):
    """A Matrix Market file of each input domain in the estimator table."""
    unit = str(tmp_path / "unit")
    res = runner.invoke(main, ["gen", "--n", "16", "--kappa", "10", "--norm", "1",
                               "--seed", "1", "--out", unit])
    assert res.exit_code == 0, res.output
    rho = str(tmp_path / "rho.mtx")
    A = matrix_core.load_matrix_market(matrix_prefix + ".mtx")
    matrix_core.save_matrix_market(rho, matrix_core.unit_trace(A))
    return {"contraction": matrix_prefix + ".mtx", "density": rho,
            "norm_at_least_one": unit + ".mtx"}


class TestGen:
    def test_sidecar_ground_truth_consistent(self, matrix_prefix):
        with open(matrix_prefix + ".json") as fh:
            doc = json.load(fh)
        assert doc["n"] == 16
        assert doc["exact"]["logdet"] == pytest.approx(
            sum(math.log(x) for x in doc["eigenvalues"])
        )
        assert doc["kappa"] == pytest.approx(10.0)

    def test_rejects_bad_kappa(self, tmp_path, runner):
        res = runner.invoke(main, ["gen", "--n", "8", "--kappa", "0.5",
                                   "--out", str(tmp_path / "b")])
        assert res.exit_code == 2

    @pytest.mark.parametrize("kappa", ["nan", "inf"])
    def test_rejects_non_finite_kappa(self, tmp_path, runner, kappa):
        res = runner.invoke(main, ["gen", "--n", "8", "--kappa", kappa,
                                   "--out", str(tmp_path / "b")])
        assert res.exit_code == 2, res.output
        assert f"kappa must be >= 1 and finite, got {kappa}" in res.output

    def test_rejects_tiny_dimension(self, tmp_path, runner):
        res = runner.invoke(main, ["gen", "--n", "1", "--kappa", "2",
                                   "--out", str(tmp_path / "b")])
        assert res.exit_code == 2


class TestEstimate:
    def test_json_report_on_stdout(self, matrix_prefix, runner):
        res = runner.invoke(main, ["estimate", "--matrix", matrix_prefix + ".mtx",
                                   "--algorithm", "logdet_svt", "--eps", "0.1"])
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output)
        assert doc["algorithm"] == "logdet_svt"
        assert doc["passed"] is True

    def test_csv_format(self, matrix_prefix, runner):
        res = runner.invoke(main, ["estimate", "--matrix", matrix_prefix + ".mtx",
                                   "--algorithm", "trace_inverse",
                                   "--format", "csv"])
        assert res.exit_code == 0, res.output
        header, row = res.output.strip().split("\n")
        assert header.split(",") == CSV_COLUMNS
        assert len(row.split(",")) == len(CSV_COLUMNS)

    def test_repeat_runs_byte_identical(self, matrix_prefix, runner):
        args = ["estimate", "--matrix", matrix_prefix + ".mtx",
                "--algorithm", "logdet_sve", "--mode", "stochastic", "--seed", "5"]
        out1 = runner.invoke(main, args).output
        out2 = runner.invoke(main, args).output
        assert out1 == out2

    def test_schatten_with_exponent(self, matrix_prefix, runner):
        res = runner.invoke(main, ["estimate", "--matrix", matrix_prefix + ".mtx",
                                   "--algorithm", "schatten_p", "--p", "3"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["algorithm"] == "schatten_3"

    @pytest.mark.parametrize("name", sorted(spectral_sums.ALGORITHMS))
    def test_every_algorithm_on_its_domain_input(self, domain_paths, runner, name):
        path = domain_paths[spectral_sums.ALGORITHMS[name].domain.name]
        res = runner.invoke(main, ["estimate", "--matrix", path, "--algorithm", name])
        assert res.exit_code == 0, res.output

    def test_precondition_error_exits_two(self, matrix_prefix, runner):
        # vn_entropy requires unit trace; a generated SPD matrix has not.
        res = runner.invoke(main, ["estimate", "--matrix", matrix_prefix + ".mtx",
                                   "--algorithm", "vn_entropy"])
        assert res.exit_code == 2

    @pytest.mark.parametrize("fmt", ["symmetric", "general"])
    def test_non_finite_entries_exit_two(self, tmp_path, runner, fmt):
        path = tmp_path / "nan.mtx"
        lower = "1.0\nnan\n" + ("nan\n" if fmt == "general" else "") + "1.0\n"
        path.write_text(f"%%MatrixMarket matrix array real {fmt}\n2 2\n{lower}")
        res = runner.invoke(main, ["estimate", "--matrix", str(path),
                                   "--algorithm", "logdet_svt"])
        assert res.exit_code == 2
        assert "non-finite matrix entries: [0, 1] = nan, [1, 0] = nan" in res.output

    def test_empty_coordinate_file_exits_two(self, tmp_path, runner):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n0 0 0\n")
        res = runner.invoke(main, ["estimate", "--matrix", str(path),
                                   "--algorithm", "logdet_svt"])
        assert res.exit_code == 2, res.output
        assert "got shape 0 x 0" in res.output

    def test_empty_array_file_exits_two(self, tmp_path):
        # scipy's array reader dies by signal on this body, so run it in a
        # child process: a regression then fails here instead of killing pytest.
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n0 0\n")
        src = os.path.dirname(os.path.dirname(specsum.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        res = subprocess.run([sys.executable, "-m", "specsum.cli", "estimate", "--matrix",
                              str(path), "--algorithm", "logdet_svt"],
                             capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 2, res.stderr
        assert "got shape 0 x 0" in res.stderr

    @pytest.mark.parametrize("p", [
        600,  # the smallest Schatten tolerance, eps ||A||^(2p) / (2^(p/2) 64 n), underflows
        2100,  # 2^(p/2) overflows
    ], ids=["p600", "p2100"])
    def test_schatten_p_beyond_the_float_range_exits_two(self, tmp_path, runner, p):
        prefix = str(tmp_path / "m")
        res = runner.invoke(main, ["gen", "--n", "16", "--kappa", "10", "--out", prefix])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["estimate", "--matrix", prefix + ".mtx", "--algorithm",
                                   "schatten_p", "--p", str(p)])
        assert res.exit_code == 2, res.output
        assert f"p = {p} is too large" in res.output

    def test_schatten_at_norm_one_names_the_norm_and_the_requirement(self, tmp_path, runner):
        path = str(tmp_path / "unit.mtx")
        diag = [1.0, 0.5, 0.25, 0.125]
        matrix_core.save_matrix_market(path, matrix_core.SymmetricMatrix(4, np.diag(diag)))
        res = runner.invoke(main, ["estimate", "--matrix", path, "--algorithm", "schatten_p",
                                   "--p", "2"])
        assert res.exit_code == 2, res.output
        assert "||A|| = 1.0 >= 1, but this estimator requires ||A|| < 1" in res.output
        assert "for a log-determinant use the edge-case handler" in res.output

    def test_generated_unit_norm_is_not_a_strict_contraction(self, domain_paths, runner):
        # Read back from Matrix Market, the generated unit norm is 1 - 3e-16.
        path = domain_paths["norm_at_least_one"]
        res = runner.invoke(main, ["estimate", "--matrix", path, "--algorithm", "logdet_svt"])
        assert res.exit_code == 2, res.output
        assert ("||A|| = 0.9999999999999997 is 1 to within 1e-10, but this estimator "
                "requires ||A|| < 1") in res.output
        res = runner.invoke(main, ["estimate", "--matrix", path,
                                   "--algorithm", "logdet_edge_cases"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["parameters"]["branch"] == "unit_norm"

    def test_invalid_eps_exits_two(self, matrix_prefix, runner):
        res = runner.invoke(main, ["estimate", "--matrix", matrix_prefix + ".mtx",
                                   "--algorithm", "logdet_svt", "--eps", "2.0"])
        assert res.exit_code == 2

    def test_exact_cap_drops_oracle(self, matrix_prefix, runner):
        res = runner.invoke(main, ["estimate", "--matrix", matrix_prefix + ".mtx",
                                   "--algorithm", "logdet_svt", "--exact-cap", "8"])
        doc = json.loads(res.output)
        assert doc["exact"] is None
        assert doc["passed"] is None

    def test_writes_to_file(self, matrix_prefix, tmp_path, runner):
        out = tmp_path / "rep.json"
        res = runner.invoke(main, ["estimate", "--matrix", matrix_prefix + ".mtx",
                                   "--algorithm", "logdet_svt", "--out", str(out)])
        assert res.exit_code == 0
        assert json.loads(out.read_text())["algorithm"] == "logdet_svt"


class TestSweep:
    def test_eps_sweep_emits_csv_and_fit(self, tmp_path, runner):
        out = tmp_path / "sweep.csv"
        res = runner.invoke(main, ["sweep", "--n", "16", "--algorithm", "logdet_svt",
                                   "--axis", "eps", "--values", "0.1,0.05,0.025",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "fit: slope=" in res.output
        lines = out.read_text().strip().split("\n")
        assert lines[0].split(",")[0] == "sweep_eps"
        assert len(lines) == 1 + 3

    @pytest.mark.parametrize("axis, values", [("eps", "0.1"), ("kappa", "10,10")],
                             ids=["one-value", "repeated-value"])
    def test_single_point_reports_insufficient(self, tmp_path, runner, axis, values):
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["sweep", "--n", "16", "--algorithm", "logdet_svt",
                                   "--axis", axis, "--values", values, "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert res.output == "fit: insufficient points\n"
        assert len(out.read_text().splitlines()) == 1 + len(values.split(","))

    def test_empty_values_usage_error(self, tmp_path, runner):
        res = runner.invoke(main, ["sweep", "--algorithm", "logdet_svt",
                                   "--axis", "eps", "--values", ",",
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 2

    def test_malformed_values_usage_error(self, tmp_path, runner):
        res = runner.invoke(main, ["sweep", "--algorithm", "logdet_svt",
                                   "--axis", "eps", "--values", "0.1,zebra",
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 2

    def test_seeds_multiply_rows(self, tmp_path, runner):
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["sweep", "--n", "16", "--algorithm", "logdet_svt",
                                   "--axis", "kappa", "--values", "5,10",
                                   "--seeds", "3", "--mode", "stochastic",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert len(out.read_text().strip().split("\n")) == 1 + 6

    @pytest.mark.parametrize("axis, values, message", [
        ("kappa", "0.5,10", "kappa must be >= 1"),
        ("kappa", "nan", "kappa must be >= 1 and finite, got nan"),
        ("n", "1,8", "n must be >= 2"),
    ])
    def test_bad_generator_input_exits_two(self, tmp_path, runner, axis, values, message):
        res = runner.invoke(main, ["sweep", "--n", "16", "--algorithm", "logdet_svt",
                                   "--axis", axis, "--values", values,
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 2, res.output
        assert message in res.output
        assert not (tmp_path / "s.csv").exists()

    def test_qmc_above_half_norm_names_the_norm_and_its_edge(self, tmp_path, runner):
        res = runner.invoke(main, ["sweep", "--n", "16", "--norm", "0.9",
                                   "--algorithm", "logdet_qmc", "--axis", "eps",
                                   "--values", "0.1", "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 2, res.output
        assert ("||A|| = 0.8999999999999999 > 1/2, but this estimator requires "
                "||A|| <= 1/2") in res.output


    @pytest.mark.parametrize("algorithm, axis, values, bad", [
        ("schatten_p", "p", "2.5,3", "2.5"),
        ("logdet_svt", "n", "16, 8.7", "8.7"),
    ])
    def test_non_integer_n_or_p_exits_two(self, tmp_path, runner, algorithm, axis, values,
                                          bad):
        res = runner.invoke(main, ["sweep", "--n", "16", "--algorithm", algorithm,
                                   "--axis", axis, "--values", values,
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 2, res.output
        assert f"got '{bad}'" in res.output
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("algorithm", ["logdet_svt", "vn_entropy", "logdet_edge_cases"])
    def test_p_axis_only_for_schatten_p(self, tmp_path, runner, algorithm):
        res = runner.invoke(main, ["sweep", "--n", "16", "--algorithm", algorithm,
                                   "--axis", "p", "--values", "2,3",
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 2, res.output
        assert f"which {algorithm} does not read" in res.output
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("threads", ["abc", "0", "-2", "1.5"])
    def test_bad_thread_count_exits_two(self, tmp_path, runner, monkeypatch, threads):
        monkeypatch.setenv("SPECSUM_THREADS", threads)
        res = runner.invoke(main, ["sweep", "--n", "16", "--algorithm", "logdet_svt",
                                   "--axis", "eps", "--values", "0.1,0.05",
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 2, res.output
        assert f"SPECSUM_THREADS must be a positive integer, got '{threads}'" in res.output
        assert not (tmp_path / "s.csv").exists()

    def test_two_threads_give_the_same_bytes(self, tmp_path, runner, monkeypatch):
        args = ["sweep", "--n", "16", "--algorithm", "logdet_svt", "--axis", "eps",
                "--values", "0.1,0.05", "--seeds", "2", "--mode", "stochastic", "--out"]
        outs = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SPECSUM_THREADS", threads)
            out = tmp_path / f"s{threads}.csv"
            res = runner.invoke(main, args + [str(out)])
            assert res.exit_code == 0, res.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_vn_entropy_sweeps_unit_trace_matrices(self, tmp_path, runner):
        out = tmp_path / "s.csv"
        res = runner.invoke(main, ["sweep", "--n", "16", "--algorithm", "vn_entropy",
                                   "--axis", "eps", "--values", "0.1,0.05",
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        header, *rows = [line.split(",") for line in out.read_text().strip().split("\n")]
        assert len(rows) == 2
        assert all(row[header.index("algorithm")] == "vn_entropy" for row in rows)
        assert all(row[header.index("passed")] == "true" for row in rows)


@pytest.fixture(scope="module")
def scaling_detail():
    return verify.criterion_scaling_laws().detail


@pytest.mark.parametrize("axis, algorithm", [("eps", "logdet_svt"), ("kappa", "trace_inverse")])
def test_sweep_fit_matches_the_scaling_criterion(tmp_path, runner, scaling_detail, axis,
                                                 algorithm):
    # Exact-mode ledgers do not depend on the estimator seed, so the command's
    # seed 0 fits the same slope as the criterion's seed 3.
    values = next(v for ax, name, v, _ in verify._SCALING_SWEEPS if (ax, name) == (axis, algorithm))
    res = runner.invoke(main, ["sweep", "--n", "64", "--kappa", "10", "--matrix-seed", "7",
                               "--algorithm", algorithm, "--axis", axis,
                               "--values", ",".join(map(repr, values)),
                               "--out", str(tmp_path / "s.csv")])
    assert res.exit_code == 0, res.output
    slope = float(res.output.split("slope=")[1].split()[0])
    assert f"{algorithm} {axis}:{slope:.2f}" in scaling_detail


@pytest.mark.parametrize("command", ["estimate", "sweep"])
def test_certification_error_exits_two(matrix_prefix, runner, monkeypatch, command):
    def uncertifiable(A, cfg):
        raise CertificationError("degree cap 1000 reached before eps")

    entry = spectral_sums.ALGORITHMS["logdet_svt"]._replace(run=uncertifiable)
    monkeypatch.setitem(spectral_sums.ALGORITHMS, "logdet_svt", entry)
    if command == "estimate":
        args = ["estimate", "--matrix", matrix_prefix + ".mtx"]
    else:
        args = ["sweep", "--n", "8", "--axis", "eps", "--values", "0.1,0.05",
                "--out", matrix_prefix + ".csv"]
    res = runner.invoke(main, args + ["--algorithm", "logdet_svt"])
    assert res.exit_code == 2
    assert "degree cap 1000 reached before eps" in res.output


@pytest.fixture()
def decompositions(monkeypatch):
    """Every matrix handed to matrix_core.spectral_decompose, in call order."""
    calls = []
    decompose = matrix_core.spectral_decompose

    def counted(A):
        calls.append(A)
        return decompose(A)

    monkeypatch.setattr(matrix_core, "spectral_decompose", counted)
    return calls


class TestOneEigendecompositionPerMatrix:
    @pytest.mark.parametrize("algorithm", ["logdet_svt", "trace_inverse", "schatten_p",
                                           "logdet_sve"])
    def test_estimate_decomposes_the_loaded_matrix_once(self, matrix_prefix, runner,
                                                        decompositions, algorithm):
        res = runner.invoke(main, ["estimate", "--matrix", matrix_prefix + ".mtx",
                                   "--algorithm", algorithm, "--p", "3"])
        assert res.exit_code == 0, res.output
        assert len(decompositions) == 1

    def test_threaded_sweep_decomposes_each_matrix_once(self, tmp_path, runner,
                                                        decompositions, monkeypatch):
        monkeypatch.setenv("SPECSUM_THREADS", "4")
        res = runner.invoke(main, ["sweep", "--n", "32", "--algorithm", "logdet_svt",
                                   "--axis", "kappa", "--values", "5,10,20",
                                   "--seeds", "2", "--mode", "stochastic",
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 0, res.output
        assert len(decompositions) == 3
        assert len({id(A) for A in decompositions}) == 3

    def test_vn_entropy_estimate_decomposes_once(self, tmp_path, runner, decompositions):
        path = str(tmp_path / "rho.mtx")
        A = matrix_core.generate_spd(16, 10.0, "log_uniform", 0.5, 1)
        matrix_core.save_matrix_market(path, matrix_core.unit_trace(A))
        decompositions.clear()
        res = runner.invoke(main, ["estimate", "--matrix", path, "--algorithm", "vn_entropy"])
        assert res.exit_code == 0, res.output
        assert len(decompositions) == 1

    def test_vn_entropy_sweep_decomposes_each_matrix_once(self, tmp_path, runner,
                                                          decompositions):
        # A / Tr A takes A's spectrum divided by Tr A: only A is decomposed.
        res = runner.invoke(main, ["sweep", "--n", "16", "--algorithm", "vn_entropy",
                                   "--axis", "kappa", "--values", "5,10",
                                   "--out", str(tmp_path / "s.csv")])
        assert res.exit_code == 0, res.output
        assert len(decompositions) == 2


class TestVerify:
    def test_unknown_suite_usage_error(self, runner):
        res = runner.invoke(main, ["verify", "bogus"])
        assert res.exit_code == 2

    def test_lemmas_suite_passes(self, runner):
        res = runner.invoke(main, ["verify", "lemmas"])
        assert res.exit_code == 0, res.output
        for line in res.output.strip().split("\n"):
            assert ": PASS" in line
