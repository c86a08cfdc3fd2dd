"""End-to-end runs of the setdiff command line."""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from setdifflab import cli, extremal
from setdifflab.errors import CapExceededError
from setdifflab.fpforms import distribution, forms_from_text, uniformity_bound
from setdifflab.universe import Family, UniverseShape, family_to_text


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_refused(argv, capsys, cap="cells"):
    """Run a command a cap must refuse: exit 4, nothing on stdout, the cap
    named on stderr, and no time spent building the input first."""
    start = time.perf_counter()
    code, out, err = run_cli(argv, capsys)
    assert code == 4 and out == "" and cap in err
    assert time.perf_counter() - start < 5


def run_json(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture
def halfspace4(tmp_path):
    shape = UniverseShape((1,), 4)
    fam = Family(shape, frozenset(b for b in range(16) if b & 1))
    path = tmp_path / "fam.txt"
    path.write_text(family_to_text(fam))
    return str(path)


@pytest.fixture
def full_pattern2(tmp_path):
    fam = Family(UniverseShape((1,), 2), range(4))
    path = tmp_path / "pattern.txt"
    path.write_text(family_to_text(fam))
    return str(path)


class TestScan:
    def test_halfspace_dense_cell(self, halfspace4, full_pattern2, capsys):
        doc = run_json(["scan", "--family", halfspace4, "--m", "2",
                        "--pattern-family", full_pattern2], capsys)
        report = doc["report"]
        assert report["max_density"] == "1/1"
        assert report["cell"] == {"window": [3, 4], "background": "1"}
        assert report["average_density"] == "1/2"
        assert report["guarantee_met"] is None
        assert doc["tool"] == "setdiff" and doc["version"]
        assert doc["config"]["m"] == 2

    def test_guarantee_below_threshold(self, halfspace4, full_pattern2, capsys):
        doc = run_json(["scan", "--family", halfspace4, "--m", "2",
                        "--pattern-family", full_pattern2,
                        "--epsilon", "1/4", "--delta", "1/2"], capsys)
        report = doc["report"]
        assert report["guarantee_met"] is False
        assert report["guarantee_threshold"] == "512/1"

    def test_guarantee_cell_cap_precedes_the_threshold(self, tmp_path, capsys):
        # 2^(2000^3) would exhaust memory before the scan checks --m
        family, pattern = tmp_path / "fam.txt", tmp_path / "pattern.txt"
        family.write_text("shape s=1 d=3 n=2\n00\n")
        pattern.write_text("shape s=1 d=3 n=2\n")
        run_refused(["scan", "--family", str(family), "--m", "2000",
                     "--pattern-family", str(pattern),
                     "--epsilon", "1/4", "--delta", "1/2"], capsys)

    @pytest.mark.parametrize("m", ["-1", "-3"])
    def test_guarantee_refuses_a_nonpositive_m(self, halfspace4, full_pattern2,
                                               capsys, m):
        code, out, err = run_cli(["scan", "--family", halfspace4, "--m", m,
                                  "--pattern-family", full_pattern2,
                                  "--epsilon", "1/4", "--delta", "1/2"], capsys)
        assert code == 4 and out == "" and f"m={m}" in err

    def test_epsilon_requires_delta(self, halfspace4, full_pattern2, capsys):
        code, _, err = run_cli(["scan", "--family", halfspace4, "--m", "2",
                                "--pattern-family", full_pattern2,
                                "--epsilon", "1/4"], capsys)
        assert code == 4 and "delta" in err

    def test_epsilon_must_be_below_delta(self, halfspace4, full_pattern2,
                                         capsys):
        code, _, _ = run_cli(["scan", "--family", halfspace4, "--m", "2",
                              "--pattern-family", full_pattern2,
                              "--epsilon", "1/2", "--delta", "1/4"], capsys)
        assert code == 4

    def test_repeated_runs_are_byte_identical(self, halfspace4, full_pattern2,
                                              capsys):
        argv = ["scan", "--family", halfspace4, "--m", "2",
                "--pattern-family", full_pattern2]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_unwritable_out_is_refused(self, halfspace4, full_pattern2,
                                       tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"  # no such directory
        code, stdout, err = run_cli(["scan", "--family", halfspace4, "--m", "2",
                                     "--pattern-family", full_pattern2,
                                     "--out", str(out)], capsys)
        assert code == 3 and stdout == ""
        assert err.startswith(f"setdiff: cannot write {out}: ")


class TestDemoInterval:
    def test_singleton_empty_set_family(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text("shape s=1 d=1 n=3\n0\n")
        doc = run_json(["demo-interval", "--n", "3", "--family", str(path)],
                       capsys)
        assert doc["report"]["average_density"] == "1/8"
        assert doc["report"]["family_size"] == 1

    def test_shape_mismatch_is_domain_error(self, halfspace4, capsys):
        code, _, err = run_cli(["demo-interval", "--n", "3",
                                "--family", halfspace4], capsys)
        assert code == 4 and "n=3" in err

    def test_cell_cap_refuses_before_building(self, tmp_path, capsys):
        # 40 * 2^40 cells would never fit; the cap answers at once
        path = tmp_path / "fam.txt"
        path.write_text("shape s=1 d=1 n=40\n")
        code, out, err = run_cli(["demo-interval", "--n", "40",
                                  "--family", str(path)], capsys)
        assert code == 4 and out == "" and "cells" in err


class TestPhidist:
    def test_exact_tables(self, tmp_path, capsys):
        path = tmp_path / "forms.txt"
        path.write_text("p=2\n1 0 0\n1 1 1\n")
        doc = run_json(["phidist", "--forms", str(path)], capsys)
        tables = doc["report"]["tables"]
        assert [t["form"]["coeffs"] for t in tables] == [[1, 0, 0], [1, 1, 1]]
        assert all(t["masses"] == ["1/2", "1/2"] for t in tables)
        assert all(t["within_bound"] for t in tables)

    def test_induced_degree(self, tmp_path, capsys):
        path = tmp_path / "forms.txt"
        path.write_text("p=3\n1 2\n")
        doc = run_json(["phidist", "--forms", str(path), "--degree", "2"],
                       capsys)
        (table,) = doc["report"]["tables"]
        # cell coefficients 1,2,2,1: sums j+2k over j,k ~ Bin(2,1/2)
        assert table["masses"] == ["3/8", "5/16", "5/16"]

    def test_bound_with_thousands_of_digits(self, tmp_path, capsys):
        # 14 nonzero p=7 coefficients lifted to degree 3 give the bound
        # 7 * (48/49)^2744, whose denominator has over 4300 digits
        path = tmp_path / "forms.txt"
        path.write_text("p=7\n1 2 3 4 5 6 1 2 3 4 5 6 1 2\n")
        doc = run_json(["phidist", "--forms", str(path), "--degree", "3"],
                       capsys)
        (table,) = doc["report"]["tables"]
        bound = uniformity_bound(7, table["support_size"])
        assert len(str(bound.denominator)) > 4300
        assert table["uniformity_bound"] == (
            f"{bound.numerator}/{bound.denominator}")
        deviation = max(abs(Fraction(m) - Fraction(1, 7))
                        for m in table["masses"])
        assert Fraction(table["deviation"]) == deviation
        assert table["within_bound"] == (deviation <= bound)

    @pytest.mark.parametrize("degree", ["0", "-2"])
    def test_degree_below_one_is_domain_error(self, tmp_path, capsys, degree):
        path = tmp_path / "forms.txt"
        path.write_text("p=3\n1 2\n")
        code, out, err = run_cli(["phidist", "--forms", str(path),
                                  "--degree", degree], capsys)
        assert code == 4 and out == "" and "degree" in err

    def test_degree_one_is_the_linear_form(self, tmp_path, capsys):
        path = tmp_path / "forms.txt"
        path.write_text("p=5\n1 2 0 4\n3 3 3 3\n")
        doc = run_json(["phidist", "--forms", str(path), "--degree", "1"], capsys)
        expected = [distribution(form.induced(1)).to_json()
                    for form in forms_from_text(path.read_text())]
        assert [{k: v for k, v in t.items() if k != "form"}
                for t in doc["report"]["tables"]] == expected

    @pytest.mark.parametrize("degree", ["20", "60"])
    def test_cell_cap_refuses_a_high_degree(self, tmp_path, capsys, degree):
        # 3^20 cells exhaust memory; at 3^60 the uniformity bound never ends
        path = tmp_path / "forms.txt"
        path.write_text("p=3\n1 2 0\n")
        run_refused(["phidist", "--forms", str(path), "--degree", degree], capsys)

    def test_modulus_cap_refuses_before_the_primality_test(self, tmp_path, capsys):
        path = tmp_path / "forms.txt"
        path.write_text("p=1000000000000000003\n1 2\n")
        run_refused(["phidist", "--forms", str(path)], capsys, cap="modulus")

    @pytest.mark.parametrize("flag", [["--mode", "exact"], ["--samples", "1"],
                                      ["--seed", "0"]], ids=" ".join)
    def test_retired_sampling_flags_are_usage_errors(self, tmp_path, capsys, flag):
        # every table is exact: there is no mode, sample count or seed to set
        path = tmp_path / "forms.txt"
        path.write_text("p=3\n1 2\n")
        with pytest.raises(SystemExit) as err:
            cli.main(["phidist", "--forms", str(path), *flag])
        assert err.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_bad_form_file(self, tmp_path, capsys):
        path = tmp_path / "forms.txt"
        path.write_text("q=2\n1 0\n")
        code, _, _ = run_cli(["phidist", "--forms", str(path)], capsys)
        assert code == 3


class TestQuasirandomize:
    @pytest.fixture
    def halfspace6(self, tmp_path):
        shape = UniverseShape((1,), 6)
        fam = Family(shape, frozenset(b for b in range(64) if b & 1))
        path = tmp_path / "fam.txt"
        path.write_text(family_to_text(fam))
        return str(path)

    def test_pool_run_finds_pattern(self, halfspace6, capsys):
        doc = run_json(["quasirandomize", "--family", halfspace6,
                        "--p", "2", "--eta", "1/4"], capsys)
        report = doc["report"]
        assert report["status"] == "pattern-found"
        assert report["iterations"] == 1
        assert report["final_density"] == "1/1"
        assert report["pattern_pair"]["witness"] == {
            "S": [1], "kind": "power-difference"}
        assert report["steps"][0]["report"]["scope"] == "pool"

    def test_exhaustive_pool(self, halfspace6, capsys):
        doc = run_json(["quasirandomize", "--family", halfspace6,
                        "--p", "2", "--eta", "1/4",
                        "--pool", "exhaustive"], capsys)
        assert doc["report"]["steps"][0]["report"]["scope"] == "exhaustive"
        assert doc["report"]["status"] == "pattern-found"

    @pytest.mark.parametrize("pool", ["exhaustive"])
    def test_forms_require_file_pool(self, halfspace6, tmp_path, capsys, pool):
        forms = tmp_path / "forms.txt"
        forms.write_text("p=2\n1 1 1 1 1 1\n")
        with pytest.raises(SystemExit) as err:
            cli.main(["quasirandomize", "--family", halfspace6, "--p", "2",
                      "--eta", "1/4", "--pool", pool, "--forms", str(forms)])
        assert err.value.code == 2
        assert "--forms cannot be combined with --pool exhaustive" in \
            capsys.readouterr().err

    def test_composite_modulus(self, halfspace6, capsys):
        code, _, err = run_cli(["quasirandomize", "--family", halfspace6,
                                "--p", "4", "--eta", "1/4",
                                "--pool", "exhaustive"], capsys)
        assert code == 4
        assert "modulus 4 is not prime" in err

    def test_file_pool_forms_only_in_first_search(self, tmp_path, capsys):
        # the first step leaves a family over [1] with no pattern pair, so a
        # second search runs there; the all-ones form over [4] must not
        # reach it
        fam = tmp_path / "fam.txt"
        fam.write_text(family_to_text(
            Family(UniverseShape((1,), 4), frozenset({3, 4, 9, 15}))))
        forms = tmp_path / "forms.txt"
        forms.write_text("p=2\n1 1 1 1\n")
        doc = run_json(["quasirandomize", "--family", str(fam), "--p", "2",
                        "--eta", "1/4", "--forms", str(forms)], capsys)
        report = doc["report"]
        assert report["iterations"] == 1
        assert report["pattern_pair"] is None
        assert report["status"] == "inconclusive:m-schedule"
        assert report["final_family"]["shape"]["n"] == 1

    def test_file_pool_misfit_forms(self, halfspace6, tmp_path, capsys):
        forms = tmp_path / "forms.txt"
        forms.write_text("p=2\n1 1 1\n")
        code, _, err = run_cli(["quasirandomize", "--family", halfspace6,
                                "--p", "2", "--eta", "1/4",
                                "--forms", str(forms)], capsys)
        assert code == 4
        assert "does not fit p=2, n=6" in err

    def test_nonpositive_eta(self, halfspace6, capsys):
        code, _, _ = run_cli(["quasirandomize", "--family", halfspace6,
                              "--p", "2", "--eta", "0"], capsys)
        assert code == 4

    @pytest.mark.parametrize("flags", [["--m", "0"], ["--m", "3", "-2"],
                                       ["--max-steps", "-1"]], ids=" ".join)
    def test_nonpositive_window_or_negative_steps(self, halfspace6, capsys,
                                                  monkeypatch, flags):
        # refused before the first form search, which used to run in full
        # and end in an inconclusive:* status with exit 0
        from setdifflab import increment
        monkeypatch.delattr(increment, "find_distinguishing_form")
        code, out, err = run_cli(["quasirandomize", "--family", halfspace6,
                                  "--p", "2", "--eta", "1/4", *flags], capsys)
        assert code == 4 and out == "" and flags[0] in err

    def test_zero_max_steps_stops_after_one_search(self, halfspace6, capsys):
        doc = run_json(["quasirandomize", "--family", halfspace6, "--p", "2",
                        "--eta", "1/4", "--max-steps", "0"], capsys)
        assert doc["report"]["status"] == "inconclusive:max-steps"
        assert doc["report"]["iterations"] == 0

    @pytest.mark.parametrize("p", ["1000003", "1000000000000000003"])
    def test_modulus_cap(self, halfspace6, capsys, p):
        run_refused(["quasirandomize", "--family", halfspace6, "--p", p,
                     "--eta", "1/4"], capsys, cap="modulus")

    @pytest.mark.parametrize("shape, size, eta", [
        # one member over 65536 cells: the cap q is about 1.7 million
        (UniverseShape((2,), 256), 1, "1/4"),
        # 2000 members over 100 cells: a step ratio of 1 + 1/9000000
        (UniverseShape((2,), 10), 2000, "1e-6"),
    ], ids=["sparse", "tiny-eta"])
    def test_iteration_cap_refused_at_once(self, tmp_path, capsys, shape, size, eta):
        # the comparisons of iteration_cap would take minutes or never end
        path = tmp_path / "fam.txt"
        rng = random.Random(25)
        fam = Family(shape, {rng.getrandbits(shape.cells) for _ in range(size)})
        path.write_text(family_to_text(fam))
        start = time.perf_counter()
        run_refused(["quasirandomize", "--family", str(path), "--p", "3",
                     "--eta", eta], capsys, cap="(1 + eta/3p)^q")
        assert time.perf_counter() - start < 1

    def test_exhaustive_pool_budget(self, tmp_path, capsys):
        # 3^13 forms exceed the 2^20 form budget
        path = tmp_path / "fam13.txt"
        fam = Family(UniverseShape((1,), 13), frozenset({0, 1}))
        path.write_text(family_to_text(fam))
        argv = ["quasirandomize", "--family", str(path), "--p", "3",
                "--eta", "1/4", "--pool", "exhaustive"]
        run_refused(argv, capsys, cap="budget")
        args = cli.build_parser().parse_args(argv)
        with pytest.raises(CapExceededError):
            args.func(args)

    def test_negative_p_is_refused_before_the_cap(self, halfspace6, capsys):
        code, _, err = run_cli(["quasirandomize", "--family", halfspace6,
                                "--p", "-3", "--eta", "1/2"], capsys)
        assert code == 4
        assert "p must be positive" in err


class TestExtremal:
    def test_two_element_record(self, capsys):
        doc = run_json(["extremal", "--d", "1", "--n", "2"], capsys)
        report = doc["report"]
        assert report["max_size"] == 2
        assert report["witness_family"] == ["1", "2"]
        assert report["optimal"] is True

    def test_vertex_cap_precedes_the_graph(self, capsys, monkeypatch):
        # 2^17 vertices exceed VERTEX_CAP; nothing is searched
        def _oriented_successors(*args, **kwargs):
            raise AssertionError("graph built before the vertex cap")
        monkeypatch.setattr(extremal, "_oriented_successors", _oriented_successors)
        run_refused(["extremal", "--d", "1", "--n", "17"], capsys, cap="vertices")

    @pytest.mark.parametrize("limit", ["nan", "inf", "-inf"])
    def test_time_limit_must_be_finite(self, capsys, monkeypatch, limit):
        # NaN and Infinity are not JSON, so the config could not echo them
        def build_forbidden_graph(*args, **kwargs):
            raise AssertionError("graph built before the time limit check")
        monkeypatch.setattr(extremal, "build_forbidden_graph", build_forbidden_graph)
        code, out, err = run_cli(["extremal", "--d", "1", "--n", "2",
                                  f"--time-limit={limit}"], capsys)
        assert code == 4 and out == "" and "time limit" in err

    def test_negative_time_limit_is_an_expired_deadline(self, capsys):
        doc = run_json(["extremal", "--d", "1", "--n", "2",
                        "--time-limit", "-1"], capsys)
        assert doc["config"]["time_limit"] == -1.0
        assert doc["report"]["optimal"] is False

    # whole documents, config included (they name no file), pinned by sha256
    DOCUMENTS = {
        "extremal --d 1 2 --n 2":
            "ef7244c3583abf9ca804d4c843ed8194f46e471b8bed0b287c037fb79595500c",
        "extremal --d 2 --n 2 --pattern clique":
            "16dd5934e146d46dd422ac9d4f638d86615c0925850125e4940af07c70df22eb",
        "extremal --d 1 --n 4":
            "2cb70af454be39c1448b2936f823052da3dcdd23b1dbee8f962f4a6b5cfbddc6",
        "verify-framework --n 4":
            "78b1d558752139b12f404f0bd0ccef4555afb408c735cc96e65afbce042b419b",
    }

    @pytest.mark.parametrize("argv", sorted(DOCUMENTS))
    def test_document_digest(self, argv, capsys):
        code, out, err = run_cli(argv.split(), capsys)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == self.DOCUMENTS[argv]


class TestVerifyFramework:
    @pytest.mark.parametrize("n", ["14", "40", "1000000000"])
    def test_cell_cap_refuses_before_building(self, capsys, n):
        code, out, err = run_cli(["verify-framework", "--n", n], capsys)
        assert code == 4 and out == "" and "cells" in err

    def test_n3_accounting(self, capsys):
        doc = run_json(["verify-framework", "--n", "3"], capsys)
        assert doc["report"] == {
            "omega_size": 8, "num_cells": 24, "K": 3, "L": 9,
            "equal_cell_size": True, "equal_membership": True,
            "pattern_ok": True, "accounting_ok": True,
        }


class TestReduce:
    @pytest.fixture
    def symmetric22(self, tmp_path):
        shape = UniverseShape((2,), 2)
        fam = Family(shape, frozenset({0b0110, 0b1111}))
        path = tmp_path / "sym.txt"
        path.write_text(family_to_text(fam))
        return str(path)

    def test_beta_roundtrip_through_files(self, symmetric22, tmp_path, capsys):
        doc = run_json(["reduce", "--mode", "beta", "--family", symmetric22],
                       capsys)
        bundles_path = tmp_path / "bundles.txt"
        bundles_path.write_text(doc["report"]["bundles_text"])
        back = run_json(["reduce", "--mode", "beta-inverse",
                         "--bundles", str(bundles_path)], capsys)
        assert back["report"]["family_text"] == open(symmetric22).read()

    def test_multiplex(self, symmetric22, capsys):
        doc = run_json(["reduce", "--mode", "multiplex",
                        "--family", symmetric22, "--s", "2"], capsys)
        assert doc["report"]["count"] == 2
        assert "s=2 d=2,2 n=2" in doc["report"]["family_text"]

    def test_multiplex_requires_s(self, symmetric22, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["reduce", "--mode", "multiplex",
                      "--family", symmetric22])
        assert err.value.code == 2

    def test_embed(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text("shape s=1 d=1 n=2\n1\n3\n")
        doc = run_json(["reduce", "--mode", "embed", "--family", str(path),
                        "--degrees", "2"], capsys)
        assert doc["report"]["family_text"] == "shape s=1 d=2 n=2\n1\n9\n"

    def test_cell_cap_refuses_embed_degree(self, tmp_path, capsys):
        # 5^40 target cells: the cell table would overflow
        path = tmp_path / "fam.txt"
        path.write_text("shape s=1 d=1 n=5\n10\nc0\n")
        run_refused(["reduce", "--mode", "embed", "--family", str(path),
                     "--degrees", "40"], capsys)

    def test_cell_cap_refuses_multiplex_copies(self, symmetric22, capsys):
        # 10^8 parts: the degree tuple alone would take most of a gigabyte
        run_refused(["reduce", "--mode", "multiplex", "--family", symmetric22,
                     "--s", "100000000"], capsys)

    def test_catalog_cap_refuses_beta(self, tmp_path, capsys):
        # [1]^40 has one cell, but its catalog would list 2^39 compositions
        path = tmp_path / "fam.txt"
        path.write_text("shape s=1 d=40 n=1\n0\n1\n")
        run_refused(["reduce", "--mode", "beta", "--family", str(path)],
                    capsys, cap="parts")

    def test_catalog_cap_refuses_beta_inverse(self, tmp_path, capsys):
        path = tmp_path / "bundles.txt"
        path.write_text("n=1 degrees=1,40\n-\n-\n")
        run_refused(["reduce", "--mode", "beta-inverse", "--bundles", str(path)],
                    capsys, cap="parts")

    def test_clique(self, tmp_path, capsys):
        path = tmp_path / "graph.txt"
        path.write_text("n=3 degrees=2\n1,2\n")
        doc = run_json(["reduce", "--mode", "clique",
                        "--bundles", str(path)], capsys)
        assert doc["report"]["count"] == 64  # one fiber: 2^6 free cells

    def test_clique_rejects_nongraph_bundles(self, tmp_path, capsys):
        path = tmp_path / "bundle.txt"
        path.write_text("n=3 degrees=1\n1\n")
        code, _, _ = run_cli(["reduce", "--mode", "clique",
                              "--bundles", str(path)], capsys)
        assert code == 4

    def test_clique_fibre_cap(self, tmp_path, capsys):
        # 2^28 free cells per graph at n = 7
        path = tmp_path / "graph.txt"
        path.write_text("n=7 degrees=2\n1,2\n")
        code, out, err = run_cli(["reduce", "--mode", "clique",
                                  "--bundles", str(path)], capsys)
        assert code == 4 and out == "" and "cap" in err

    @pytest.mark.parametrize("mode,text,line", [
        ("beta-inverse", "n=2 degrees=1,2\n1\n-\n1\n-\n", "'1 / -'"),
        # one graph's fibre twice: the density claim needs disjoint fibres
        ("clique", "n=3 degrees=2\n1,2\n1,2\n", "'1,2'")],
        ids=["beta-inverse", "clique"])
    def test_repeated_bundle_is_format_error(self, mode, text, line, tmp_path,
                                             capsys):
        path = tmp_path / "bundles.txt"
        path.write_text(text)
        code, out, err = run_cli(["reduce", "--mode", mode,
                                  "--bundles", str(path)], capsys)
        assert code == 3 and out == "" and f"duplicate bundle {line}" in err

    @pytest.mark.parametrize("line", ["1", "1,1"])
    def test_loopful_reads_no_loop(self, line, tmp_path, capsys):
        # a degree-2 part line takes two-vertex edges only, so a loop line
        # is refused and every diagonal cell stays empty
        path = tmp_path / "graph.txt"
        path.write_text(f"n=2 degrees=2\n{line}\n")
        code, out, err = run_cli(["reduce", "--mode", "clique",
                                  "--bundles", str(path)], capsys)
        assert code == 3 and out == ""
        assert "hyperedge [1] does not have 2 vertices" in err

    @pytest.mark.parametrize("mode,header", [
        ("beta-inverse", "n=0 degrees=1"), ("beta-inverse", "n=2 degrees=0"),
        ("clique", "n=0 degrees=2"), ("clique", "n=2 degrees=0")])
    def test_bad_bundle_header_is_format_error(self, mode, header, tmp_path,
                                               capsys):
        path = tmp_path / "bundles.txt"
        path.write_text(header + "\n-\n")
        code, out, _ = run_cli(["reduce", "--mode", mode,
                                "--bundles", str(path)], capsys)
        assert code == 3 and out == ""

    @pytest.mark.parametrize("header,degrees", [
        ("shape s=1 d=1 n=2", ["1", "2"]), ("shape s=1 d=2 n=2", ["1"])])
    @pytest.mark.parametrize("members", ["", "1\n"])
    def test_embed_rejects_bad_target_with_or_without_members(
            self, header, degrees, members, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text(header + "\n" + members)
        code, out, _ = run_cli(["reduce", "--mode", "embed", "--family",
                                str(path), "--degrees", *degrees], capsys)
        assert code == 4 and out == ""

    def test_embed_empty_family(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text("shape s=2 d=1,2 n=2\n")
        doc = run_json(["reduce", "--mode", "embed", "--family", str(path),
                        "--degrees", "2", "3"], capsys)
        assert doc["report"] == {"mode": "embed", "count": 0,
                                 "family_text": "shape s=2 d=2,3 n=2\n"}

    @pytest.mark.parametrize("argv", [
        ["--mode", "beta"], ["--mode", "beta-inverse"], ["--mode", "clique"],
        ["--mode", "multiplex"], ["--mode", "embed"],
        ["--mode", "multiplex", "--family", "f.txt"],
        ["--mode", "embed", "--family", "f.txt"],
        ["--mode", "clique", "--family", "f.txt"]])
    def test_missing_flag_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["reduce", *argv])
        assert err.value.code == 2
        assert "requires --" in capsys.readouterr().err

    READS = {"beta": ["--family", "f.txt"],
             "beta-inverse": ["--bundles", "b.txt"],
             "multiplex": ["--family", "f.txt", "--s", "2"],
             "embed": ["--family", "f.txt", "--degrees", "2"],
             "clique": ["--bundles", "b.txt"]}

    @pytest.mark.parametrize("mode", sorted(READS))
    def test_unread_flag_is_usage_error(self, mode, capsys):
        # refused before any file is read, not echoed in the config and
        # ignored; --s 0 counts as given
        unread = {"--family": ["f.txt"], "--bundles": ["b.txt"], "--s": ["0"],
                  "--degrees": ["2"]}
        for flag, values in unread.items():
            if flag in self.READS[mode]:
                continue
            with pytest.raises(SystemExit) as err:
                cli.main(["reduce", "--mode", mode, *self.READS[mode], flag, *values])
            assert err.value.code == 2
            assert f"--mode {mode} does not read {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", sorted(READS))
    def test_retired_loopful_flag_is_usage_error(self, mode, tmp_path, capsys):
        # a degree-2 part line states no loop, so no mode has a diagonal
        # to read; the flag is refused by the parser in every mode
        path = tmp_path / "graph.txt"
        path.write_text("n=2 degrees=2\n1,2\n")
        files = {"f.txt": str(path), "b.txt": str(path)}
        argv = [files.get(arg, arg) for arg in self.READS[mode]]
        with pytest.raises(SystemExit) as err:
            cli.main(["reduce", "--mode", mode, *argv, "--loopful"])
        assert err.value.code == 2
        assert "unrecognized arguments: --loopful" in capsys.readouterr().err


class TestReportBytes:
    """Reports of the covering, phidist, reduce and quasirandomize
    subcommands on small fixed inputs, pinned by the sha256 of their
    sorted-key JSON (the config is left out: it holds the temporary file
    paths)."""

    DIGESTS = {
        "scan-d1":
            "22115108ac1eb8b814e3a92e176f66c14d5cb7a06a59ae9d7bc14add6c4c3af0",
        "scan-d12":
            "bed68b308524286d07552a07bf721ba28e75775eb01f221a51c108bfb881f0ad",
        "demo-interval":
            "167a6aa1b843cd0fd3074fb493466449147e6efcff8246331c96472f729f86e8",
        "phidist-d2":
            "f2d523d2e863a25e2ae9877138581b0f8b00065a01e49d48ae5ce164635e32b8",
        "verify-framework":
            "90f01a84ca9945e4822a1256fef8a345545485cf110b6c3db65ee0fc9036371b",
        "reduce-beta":
            "06f6fbdd4569ed0d33f97cbf219089cf88421cc1ecc6f206c8623b7120cb8c1e",
        "reduce-beta-inverse":
            "7f988f810dc0919fd059c9027bce3ce04df6090dc7c10e267a034f519bc3db0c",
        "reduce-multiplex":
            "57303b527262010fbdf8eb31c4e8a1f2a53aa2e3a82827e1f02ce5c0843bd328",
        "reduce-embed":
            "81e680a87e337a9a67a01f19dcdcf11f1e04a3975b4478bccc58972183db51d4",
        "reduce-clique":
            "8e4ccee4dec0899998b3c216f310f44fb5583d507f03f2f052b76814c8e2e5cc",
        "quasi-pool-d1":
            "3d4dbdff0ca7b975b51ead385319aab0654dae0b592dabbb14125b7e1b8bbcd7",
        "quasi-pool-d2":
            "075972f3d58f4612fdb2d1521429871ddcd1cd40da1234ba65c3e97813a9fcde",
        "quasi-exhaustive-d2":
            "9c55ca8ff9b1131b6fa970e55387e843968ec496255bf8807cc87606213de311",
        "quasi-forms-blocks":
            "ad36cfa6b5a95f6e204801780d05d493713bf5096967bc080eb9b6214fa7de4d",
    }

    @staticmethod
    def jobs(tmp_path):
        rng = random.Random(2024)

        def fam(name, degrees, n, members):
            path = tmp_path / name
            path.write_text(family_to_text(
                Family(UniverseShape(degrees, n), frozenset(members))))
            return str(path)

        def symmetric(n, d):
            bits = 0
            for rep in itertools.combinations_with_replacement(range(n), d):
                if rng.random() < 0.5:
                    for perm in set(itertools.permutations(rep)):
                        bits |= 1 << sum(c * n ** (d - 1 - k)
                                         for k, c in enumerate(perm))
            return bits

        quasi_rng = random.Random(8)

        def biased(d, n, size):
            """Random members, about 40% of them holding every cell of
            {1, 2}^d, so that a weight-2 form tells them apart."""
            corner = sum(1 << sum(c * n ** (d - 1 - k) for k, c in enumerate(t))
                         for t in itertools.product((0, 1), repeat=d))
            members = set()
            while len(members) < size:
                bits = quasi_rng.getrandbits(n ** d)
                if quasi_rng.random() < 0.4:
                    bits |= corner
                members.add(bits)
            return members

        even_rng = random.Random(4)

        def mostly_even(n, size):
            """Random members, about 90% of them of even size, so that only
            the all-ones form of a file pool tells them apart at p=2."""
            members = set()
            while len(members) < size:
                bits = even_rng.getrandbits(n)
                if bits.bit_count() % 2 and even_rng.random() < 0.8:
                    bits ^= 1 << even_rng.randrange(n)
                members.add(bits)
            return members

        ones = tmp_path / "ones.txt"
        ones.write_text("p=2\n" + " ".join(["1"] * 12) + "\n")
        forms = tmp_path / "forms.txt"
        forms.write_text("p=5\n1 2 0 4 3\n2 2 2 1 0\n")
        graphs = tmp_path / "graphs.txt"
        graphs.write_text("n=4 degrees=2\n1,2 2,3\n-\n1,3 1,4 2,4 3,4\n")
        # three bundles of the d=3 catalog, parts (3), (1,2), (2,1), (1,1,1)
        bundles = tmp_path / "sym.bundles"
        bundles.write_text("n=4 degrees=1,2,2,3\n"
                           "1 3\n1,2 2,4\n-\n1,2,3\n"
                           "-\n-\n-\n-\n"
                           "2 3 4\n1,3 3,4\n1,4 2,3 2,4\n1,3,4 2,3,4\n")
        return {
            "scan-d1": ["scan", "--m", "3",
                        "--family", fam("d1.fam", (1,), 9, rng.sample(range(512), 150)),
                        "--pattern-family", fam("d1.pat", (1,), 3, {1, 2, 5, 6})],
            "scan-d12": ["scan", "--m", "2",
                         "--family", fam("d12.fam", (1, 2), 4,
                                         {rng.getrandbits(20) for _ in range(300)}),
                         "--pattern-family", fam("d12.pat", (1, 2), 2,
                                                 {3, 10, 17, 33, 60})],
            "demo-interval": ["demo-interval", "--n", "6",
                              "--family", fam("demo.fam", (1,), 6,
                                              rng.sample(range(64), 25))],
            "verify-framework": ["verify-framework", "--n", "5"],
            "phidist-d2": ["phidist", "--degree", "2", "--forms", str(forms)],
            "reduce-beta": ["reduce", "--mode", "beta", "--family",
                            fam("sym.fam", (3,), 3, {symmetric(3, 3) for _ in range(20)})],
            "reduce-beta-inverse": ["reduce", "--mode", "beta-inverse",
                                    "--bundles", str(bundles)],
            "reduce-multiplex": ["reduce", "--mode", "multiplex", "--s", "3",
                                 "--family", fam("mux.fam", (2,), 3,
                                                 rng.sample(range(512), 40))],
            "reduce-embed": ["reduce", "--mode", "embed", "--degrees", "2", "3",
                             "--family", fam("emb.fam", (1, 2), 3,
                                             rng.sample(range(4096), 60))],
            "reduce-clique": ["reduce", "--mode", "clique",
                              "--bundles", str(graphs)],
            "quasi-pool-d1": ["quasirandomize", "--p", "3", "--eta", "1/4",
                              "--family", fam("q1.fam", (1,), 9, biased(1, 9, 200))],
            "quasi-pool-d2": ["quasirandomize", "--p", "3", "--eta", "1/4",
                              "--family", fam("q2.fam", (2,), 6, biased(2, 6, 150))],
            "quasi-exhaustive-d2": ["quasirandomize", "--p", "3", "--eta", "1/4",
                                    "--pool", "exhaustive",
                                    "--family", fam("q2x.fam", (2,), 5, biased(2, 5, 60))],
            # the all-ones form wins, and its step keeps the members constant
            # on the 2-element blocks [[1, 2], [3, 4]]
            "quasi-forms-blocks": ["quasirandomize", "--p", "2", "--eta", "1/4",
                                   "--forms", str(ones),
                                   "--family", fam("qf.fam", (1,), 12,
                                                   mostly_even(12, 200))],
        }

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_report_digest(self, name, tmp_path, capsys):
        doc = run_json(self.jobs(tmp_path)[name], capsys)
        text = json.dumps(doc["report"], sort_keys=True, indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGESTS[name]


class TestRationalFlags:
    """``--eta``, ``--epsilon`` and ``--delta`` take Fraction syntax; a value
    Fraction cannot read, or could read only by spelling out a huge power of
    10, is a usage error (exit 2) before any work."""

    @pytest.fixture
    def prefix(self, halfspace4, full_pattern2):
        scan = ["scan", "--family", halfspace4, "--m", "2",
                "--pattern-family", full_pattern2]
        return {
            "--eta": ["quasirandomize", "--family", halfspace4, "--p", "3", "--eta"],
            "--epsilon": scan + ["--delta", "1/2", "--epsilon"],
            "--delta": scan + ["--epsilon", "1/4", "--delta"],
        }

    @pytest.mark.parametrize("flag", ["--eta", "--epsilon", "--delta"])
    @pytest.mark.parametrize("value, message", [
        ("1/0", "'1/0' has a zero denominator"),
        ("3/00", "'3/00' has a zero denominator"),
        ("1e-30000000", "the exponent of '1e-30000000' has more than 4 digits"),
        ("2.5E+1_000_000", "has more than 4 digits"),
        ("1e-99999x", "'1e-99999x' is not a rational"),
        ("one half", "'one half' is not a rational"),
    ])
    def test_refused_as_usage_error(self, prefix, flag, value, message, capsys):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            cli.main(prefix[flag] + [value])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err and message in captured.err
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("flag", ["--eta", "--epsilon", "--delta"])
    @pytest.mark.parametrize("value", ["1/4", " 1/4 ", "0.25", "25e-2", "2.5E-0_001",
                                       "0.0025e+0002", "1e-0000000000000"])
    def test_fraction_syntax(self, prefix, flag, value):
        args = cli.build_parser().parse_args(prefix[flag] + [value])
        expected = Fraction(1) if value.startswith("1e") else Fraction(1, 4)
        assert getattr(args, flag[2:]) == expected


class TestPlumbing:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 2

    def test_missing_file_is_format_error(self, tmp_path, capsys):
        code, _, err = run_cli(["demo-interval", "--n", "3",
                                "--family", str(tmp_path / "nope.txt")],
                               capsys)
        assert code == 3 and "cannot read" in err

    def test_malformed_family_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "fam.txt"
        path.write_text("shappe s=1 d=1 n=3\n0\n")
        code, _, _ = run_cli(["demo-interval", "--n", "3",
                              "--family", str(path)], capsys)
        assert code == 3

    def test_contract_violations_get_their_own_code(self, capsys,
                                                    monkeypatch):
        from setdifflab.errors import ContractViolationError

        def boom(args):
            raise ContractViolationError("induced claim failed")

        monkeypatch.setattr(cli, "cmd_verify_framework", boom)
        code, _, err = run_cli(["verify-framework", "--n", "3"], capsys)
        assert code == 5 and "contract violation" in err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, stdout, _ = run_cli(["verify-framework", "--n", "3",
                                   "--out", str(out)], capsys)
        assert code == 0 and stdout == ""
        assert json.loads(out.read_text())["report"]["K"] == 3
        # config excludes the output path, so reports stay comparable
        assert "out" not in json.loads(out.read_text())["config"]
