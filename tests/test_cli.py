import importlib
import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import sidecomp
from conftest import bd, jordan
from sidecomp._linalg import conditioned_invertible
from sidecomp.cli import main
from sidecomp.io import canonical_json, load_tuple, tuple_to_obj
from sidecomp.planted import planted_corpus
from sidecomp.policy import ASSEMBLY_BAR
from sidecomp.tuples import conjugate, operator_tuple


SRC_ROOT = Path(sidecomp.__file__).parents[1]
# a complete increasing coefficient rule for m = 1, dmax = 2 (degrees 0..3)
FHAT_M1 = [[[0], 1.0], [[1], 2.0], [[2], 3.0], [[3], 4.0]]


def write_tuple(path, T):
    path.write_text(canonical_json(tuple_to_obj(T)))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


class TestDecompose:
    def test_distinct_diagonal(self, tmp_path, capsys):
        p = write_tuple(tmp_path / "t.json", operator_tuple([np.diag([1.0, 2.0])]))
        rc, out = run(capsys, ["decompose", "--input", p])
        rep = json.loads(out)
        assert rc == 0 and rep["count"] == 2 and all(rep["si_flags"])

    def test_identity(self, tmp_path, capsys):
        p = write_tuple(tmp_path / "t.json", operator_tuple([np.eye(2)]))
        rc, out = run(capsys, ["decompose", "--input", p])
        assert rc == 0 and json.loads(out)["count"] == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{nope")
        rc, _ = run(capsys, ["decompose", "--input", str(p)])
        assert rc == 2

    def test_noncommuting_input_exits_2(self, tmp_path, capsys):
        # every command that takes a tuple refuses one that does not commute;
        # the random pair's relative commutator is 0.63
        rng = np.random.default_rng(1)
        bad = write_tuple(tmp_path / "bad.json",
                          operator_tuple([rng.standard_normal((4, 4)) for _ in range(2)]))
        good = write_tuple(tmp_path / "good.json", operator_tuple([np.eye(4), jordan(4)]))
        for argv in (["decompose", "--input", bad],
                     ["invariant", "--input", bad],
                     ["similar", "--input", bad, "--input2", bad],
                     ["similar", "--input", bad, "--input2", good],
                     ["similar", "--input", good, "--input2", bad]):
            rc, out = run(capsys, argv)
            assert rc == 2 and out == "", argv
        assert run(capsys, ["similar", "--input", good, "--input2", good])[0] == 0

    @pytest.mark.parametrize("mats,largest", [
        ([1e160 * np.diag([1.0, 2.0]), 1e160 * np.diag([3.0, 1.0])], "3.162e+160"),
        ([1e300 * np.diag([1.0, 2.0])], "2.236e+300"),
        ([1e150 * np.diag([1.0, 2.0]), 1e150 * np.diag([3.0, 1.0])], None),
    ], ids=["1e160", "1e300", "1e150"])
    def test_float64_overflow_exits_2(self, tmp_path, capsys, mats, largest):
        # ||T_i||_F squared overflows above about 1.3e154: such a tuple is
        # refused for that reason, before the commutator test; at 1e150 it is
        # answered
        p = write_tuple(tmp_path / "t.json", operator_tuple(mats))
        for cmd in ("invariant", "decompose"):
            rc = main([cmd, "--input", p])
            captured = capsys.readouterr()
            if largest is None:
                assert rc == 0
                if cmd == "invariant":
                    rep = json.loads(captured.out)
                    assert (rep["k"], rep["multiplicities"]) == (2, [1, 1])
            else:
                assert rc == 2 and captured.out == ""
                assert "overflows float64" in captured.err
                assert f"largest ||T_i||_F is {largest}" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf", "1e400"])
    def test_out_of_range_tol_exits_2_naming_the_flag(self, tmp_path, capsys, tol):
        # J_2(0) commutes exactly, so the only fault is the flag's value
        p = write_tuple(tmp_path / "t.json", operator_tuple([jordan(2)]))
        with pytest.raises(SystemExit) as exc:
            main(["invariant", "--input", p, "--tol", tol])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument --tol: expected a finite float >= 0, got '{tol}'" in captured.err

    def test_zero_tol_is_answered(self, tmp_path, capsys):
        p = write_tuple(tmp_path / "t.json", operator_tuple([jordan(2)]))
        rc, out = run(capsys, ["invariant", "--input", p, "--tol", "0"])
        rep = json.loads(out)
        assert rc == 0 and (rep["k"], rep["multiplicities"]) == (1, [1])

    def test_negative_count_exits_2_naming_the_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", "--count", "-3"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "argument --count: expected a finite int >= 0, got '-3'" in captured.err
        rc, out = run(capsys, ["selftest", "--count", "0"])
        assert rc == 0 and json.loads(out)["instances"] == 0

    @pytest.mark.parametrize("seed", ["-1", "abc", "1.5", "0x-1"])
    def test_bad_seed_exits_2_naming_the_flag(self, tmp_path, capsys, seed):
        p = write_tuple(tmp_path / "t.json", operator_tuple([jordan(2)]))
        with pytest.raises(SystemExit) as exc:
            main(["invariant", "--input", p, "--seed", seed])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert f"argument --seed: expected a non-negative integer, got '{seed}'" in captured.err

    @pytest.mark.parametrize("seed", ["-5", "xyz"])
    def test_bad_env_seed_exits_2_naming_the_variable(self, tmp_path, capsys, monkeypatch,
                                                      seed):
        p = write_tuple(tmp_path / "t.json", operator_tuple([jordan(2)]))
        monkeypatch.setenv("SIDECOMP_SEED", seed)
        rc = main(["invariant", "--input", p])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == (f"error: SIDECOMP_SEED: expected a non-negative integer, "
                                f"got '{seed}'\n")

    @pytest.mark.parametrize("seed, value", [("0", 0), ("0x2a", 42), ("0b101", 5),
                                             ("0x10000000000000000", 2 ** 64)])
    def test_seeds_of_any_size_and_base_are_read(self, tmp_path, capsys, monkeypatch,
                                                 seed, value):
        p = write_tuple(tmp_path / "t.json", operator_tuple([jordan(2)]))
        rc, out = run(capsys, ["invariant", "--input", p, "--seed", seed])
        assert rc == 0 and json.loads(out)["seed"] == value
        monkeypatch.setenv("SIDECOMP_SEED", seed)
        rc, out = run(capsys, ["invariant", "--input", p])
        assert rc == 0 and json.loads(out)["seed"] == value

    def test_missing_file_exits_2(self, capsys):
        rc, _ = run(capsys, ["decompose", "--input", "/nonexistent.json"])
        assert rc == 2

    def test_residual_keys_are_the_documented_ones(self, tmp_path, capsys):
        # the keys of the payload's residuals, as docs/formats.md lists them
        doc = (Path(__file__).parents[1] / "docs" / "formats.md").read_text()
        section = doc.split("### `decompose` payload", 1)[1].split("###", 1)[0]
        listed = re.search(r"`residuals`: [^`]*`\{([^}]*)\}`", section).group(1)
        T = conjugate(operator_tuple([bd(jordan(2), jordan(2, 1.0))]),
                      conditioned_invertible(4, 10.0, np.random.default_rng(0)))
        rc, out = run(capsys, ["decompose", "--input", write_tuple(tmp_path / "t.json", T)])
        assert rc == 0
        assert sorted(json.loads(out)["residuals"]) == sorted(
            key.strip() for key in listed.split(","))


class TestInvariant:
    @pytest.mark.parametrize("mats,k,mult", [
        ([np.eye(3)], 1, [3]),
        ([bd(jordan(2), jordan(2, 1.0))], 2, [1, 1]),
    ])
    def test_examples(self, tmp_path, capsys, mats, k, mult):
        p = write_tuple(tmp_path / "t.json", operator_tuple(mats))
        rc, out = run(capsys, ["invariant", "--input", p])
        rep = json.loads(out)
        assert rc == 0 and rep["k"] == k and rep["multiplicities"] == mult
        assert rep["k0"]["rank"] == k

    def test_inflation(self, tmp_path, capsys):
        from sidecomp.tuples import inflate
        p = write_tuple(tmp_path / "t.json", inflate(operator_tuple([jordan(2)]), 2))
        rc, out = run(capsys, ["invariant", "--input", p])
        rep = json.loads(out)
        assert rep["k"] == 1 and rep["multiplicities"] == [2]

    def test_table_format(self, tmp_path, capsys):
        p = write_tuple(tmp_path / "t.json", operator_tuple([np.eye(2)]))
        rc, out = run(capsys, ["invariant", "--input", p, "--format", "table"])
        assert rc == 0 and "multiplicities" in out

    def test_tol_sets_the_policy_tolerances(self, tmp_path, capsys):
        # --tol sets the policy's tol and kernel_tol; the header reports tol
        # under commute_tol, idem_tol and inv_tol, the rest keep their defaults
        p = write_tuple(tmp_path / "t.json", operator_tuple([np.eye(2)]))
        rc, out = run(capsys, ["invariant", "--input", p, "--tol", "1e-9"])
        assert rc == 0 and json.loads(out)["tolerances"] == {
            "commute_tol": 1e-9, "idem_tol": 1e-9, "kernel_tol": 1e-9,
            "inv_tol": 1e-9, "rank_rtol": 1e-10, "eig_gap_rtol": 1e-6,
            "psd_tol": 1e-10,
        }


class TestSimilar:
    def test_planted_pair_with_witness(self, tmp_path, capsys, rng):
        T = operator_tuple([jordan(3, 0.5), jordan(3, 0.5) @ jordan(3, 0.5)])
        S = conjugate(T, conditioned_invertible(3, 40.0, rng))
        p1 = write_tuple(tmp_path / "a.json", T)
        p2 = write_tuple(tmp_path / "b.json", S)
        rc, out = run(capsys, ["similar", "--input", p1, "--input2", p2, "--witness"])
        rep = json.loads(out)
        assert rc == 0 and rep["similar"] and rep["residual"] <= 1e-6
        assert rep["witness"] is not None

    def test_disjoint_spectra(self, tmp_path, capsys):
        p1 = write_tuple(tmp_path / "a.json", operator_tuple([jordan(2)]))
        p2 = write_tuple(tmp_path / "b.json", operator_tuple([jordan(2, 1.0)]))
        rc, out = run(capsys, ["similar", "--input", p1, "--input2", p2])
        rep = json.loads(out)
        assert rc == 0 and not rep["similar"]

    def test_dimension_mismatch(self, tmp_path, capsys):
        p1 = write_tuple(tmp_path / "a.json", operator_tuple([jordan(2)]))
        p2 = write_tuple(tmp_path / "b.json", operator_tuple([jordan(3)]))
        rc, out = run(capsys, ["similar", "--input", p1, "--input2", p2])
        rep = json.loads(out)
        assert rc == 0 and not rep["similar"] and rep["reason"] == "dimension"

    def test_undecided_search_exits_3(self, tmp_path, capsys):
        # a similar pair whose witness is not invertible at tol is not
        # reported as "not similar"
        p1 = write_tuple(tmp_path / "a.json", operator_tuple([jordan(2)]))
        p2 = write_tuple(tmp_path / "b.json", operator_tuple([1e9 * jordan(2)]))
        rc = main(["similar", "--input", p1, "--input2", p2, "--witness"])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert captured.err.startswith("numerical degeneracy: no invertible element")


class TestRkhs:
    def test_ball_kernel_checks_pass(self, tmp_path, capsys):
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"m": 2, "preset": "drury_arveson", "dmax": 6}))
        out_path = tmp_path / "tuple.json"
        rc, out = run(capsys, ["rkhs", "--input", str(spec),
                               "--output", str(out_path)])
        rep = json.loads(out)
        assert rc == 0 and all(c["passed"] for c in rep["checks"])
        ids = {c["id"] for c in rep["checks"]}
        assert "defect-rank-one" in ids and "model-hypotheses" in ids
        T = load_tuple(str(out_path))
        assert T.m == 2 and T.d == 28

    def test_bergman_basis_norms(self, tmp_path, capsys):
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"m": 1, "preset": "bergman", "k": 2, "dmax": 8}))
        rc, out = run(capsys, ["rkhs", "--input", str(spec)])
        rep = json.loads(out)
        table = [c for c in rep["checks"] if c["id"] == "basis-norm-table"]
        assert rc == 0 and table and table[0]["passed"]

    def test_spherical_shift_interior_isometry(self, tmp_path, capsys):
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"m": 2, "preset": "spherical_shift", "dmax": 5}))
        rc, out = run(capsys, ["rkhs", "--input", str(spec)])
        rep = json.loads(out)
        iso = [c for c in rep["checks"] if c["id"] == "interior-isometry"]
        assert rc == 0 and iso and iso[0]["passed"]

    @pytest.mark.parametrize("m, dmax, margin", [(2, 5, 1 / 6), (3, 4, 1 / 3)])
    def test_row_contraction_measure_is_the_row_defect(self, tmp_path, capsys, m, dmax, margin):
        # sum V_i V_i* is |b| / (|b| + m - 1) on a label b of degree |b| >= 1,
        # so I - sum V_i V_i* has smallest eigenvalue (m - 1) / (dmax + m - 1)
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"m": m, "preset": "spherical_shift", "dmax": dmax}))
        rc, out = run(capsys, ["rkhs", "--input", str(spec)])
        row = [c for c in json.loads(out)["checks"] if c["id"] == "row-contraction"]
        assert rc == 0 and row[0]["passed"]
        assert row[0]["measure"] == pytest.approx(margin, rel=1e-12)

    def test_custom_kernel_of_wide_range_reaches_its_report(self, tmp_path, capsys):
        # fhat(a) = 10^(-15|a|^2 + 7 a_1) spans hundreds of decades: the
        # lowering operators commute to roundoff relative to ||T_i|| ||T_j||,
        # while their entries reach 1e40. The P_n chain fails, a documented
        # exit 4 with the report printed.
        alphas = [(i, j) for i in range(5) for j in range(5) if i + j <= 4]
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({
            "m": 2, "preset": "custom", "dmax": 3,
            "custom_fhat": [[list(a), 10.0 ** (-15 * sum(a) ** 2 + 7 * a[0])]
                            for a in alphas],
        }))
        rc, out = run(capsys, ["rkhs", "--input", str(spec)])
        checks = {c["id"]: c for c in json.loads(out)["checks"]}
        assert rc == 4 and not checks["p-sequence-chain"]["passed"]
        comm = checks["adjoint-commutation"]
        assert comm["passed"] and comm["measure"] < 1e-30

    @pytest.mark.parametrize("kernel, floor", [
        # the flat kernel at m = 2 is not a row contraction: P_0 - P_1 has
        # the eigenvalue -6
        ({"m": 2, "preset": "hardy", "dmax": 6}, 5.9),
        # fhat(a) = 10^(-15|a|^2 + 7 a_1): the steps reach -1e135
        ({"m": 2, "preset": "custom", "dmax": 3,
          "custom_fhat": [[[i, j], 10.0 ** (-15 * (i + j) ** 2 + 7 * i)]
                          for i in range(5) for j in range(5) if i + j <= 4]}, 1e75),
        ({"m": 2, "preset": "drury_arveson", "dmax": 6}, 0.0),
    ])
    def test_p_sequence_measure_is_the_largest_violation(self, tmp_path, capsys,
                                                         kernel, floor):
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps(kernel))
        rc, out = run(capsys, ["rkhs", "--input", str(spec)])
        chain = [c for c in json.loads(out)["checks"] if c["id"] == "p-sequence-chain"][0]
        if floor:
            assert rc == 4 and not chain["passed"] and chain["measure"] >= floor
        else:
            assert rc == 0 and chain["passed"] and chain["measure"] == 0.0

    def test_nonpositive_coefficient_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({
            "m": 1, "preset": "custom", "dmax": 1,
            "custom_fhat": [[[0], 1.0], [[1], -1.0], [[2], 1.0]],
        }))
        rc, _ = run(capsys, ["rkhs", "--input", str(spec)])
        assert rc == 2

    @pytest.mark.parametrize("text, message", [
        ('{"m": 2, "preset": "bergman", "k": NaN, "dmax": 3}',
         "kernel exponent k must be finite and positive, got nan"),
        ('{"m": 2, "preset": "bergman", "k": Infinity, "dmax": 3}',
         "kernel exponent k must be finite and positive, got inf"),
        ('{"m": 2, "preset": "bergman", "k": 1e400, "dmax": 3}',
         "kernel exponent k must be finite and positive, got inf"),
        ('{"m": 1, "preset": "custom", "dmax": 1,'
         ' "custom_fhat": [[[0], 1.0], [[1], Infinity], [[2], 1.0]]}',
         "coefficient at (1,) must be finite and positive, got inf"),
    ], ids=["bergman-nan", "bergman-inf", "bergman-overflow", "custom-inf"])
    def test_non_finite_kernel_value_exits_2_naming_it(self, tmp_path, capsys, text, message):
        spec = tmp_path / "k.json"
        spec.write_text(text)
        rc = main(["rkhs", "--input", str(spec)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("dmax, fhat, message", [
        # (0, 2) is a grid index and an upper neighbour of (0, 1): named once
        (2, [[[0, 0], 1], [[1, 0], 1], [[0, 1], 1]],
         "[(0, 2), (0, 3), (1, 1), (1, 2)]..."),
        (1, [[[0, 0], 1], [[1, 0], 1], [[0, 1], 1], [[2, 0], 1]], "[(0, 2), (1, 1)]"),
    ])
    def test_missing_custom_indices_are_listed_once(self, tmp_path, capsys, dmax, fhat,
                                                    message):
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"m": 2, "dmax": dmax, "preset": "custom",
                                    "custom_fhat": fhat}))
        rc = main(["rkhs", "--input", str(spec)])
        assert rc == 2
        assert capsys.readouterr().err == \
            f"error: custom coefficient rule is missing {message}\n"

    def test_rkhs_process_loads_no_scipy(self, tmp_path):
        # scipy's packages never load: in a fresh interpreter the package,
        # the CLI module and rkhs runs leave scipy out, and the spectral
        # commands load only its LAPACK wrappers (_linalg._flapack); a later
        # import of scipy.linalg in the same process works and shares the
        # wrappers' functions. Each command loads only its own modules:
        # import sidecomp loads no submodule, rkhs none of the
        # spectral stack, and the spectral commands neither rkhs nor the
        # selftest's corpora
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"m": 3, "preset": "drury_arveson", "dmax": 4}))
        shift = tmp_path / "s.json"
        shift.write_text(json.dumps({"m": 2, "preset": "spherical_shift", "dmax": 3}))
        tup = write_tuple(tmp_path / "t.json",
                          operator_tuple([bd(jordan(2), jordan(2), jordan(1, 1.0))]))
        rkhs_code = textwrap.dedent(f"""
            import contextlib, io, sys
            import numpy as np
            before = set(sys.modules)
            import sidecomp
            loaded = set(sys.modules) - before
            assert [n for n in dir(sidecomp) if not n.startswith("_")] == sidecomp.__all__
            assert loaded == {{"sidecomp"}}, sorted(loaded)
            assert "scipy" not in sys.modules, "import sidecomp"
            import sidecomp.cli
            assert "scipy" not in sys.modules, "import sidecomp.cli"
            for kernel in ({str(spec)!r}, {str(shift)!r}):
                with contextlib.redirect_stdout(io.StringIO()):
                    rc = sidecomp.cli.main(["rkhs", "--input", kernel])
                assert rc == 0 and "scipy" not in sys.modules, ("rkhs", kernel, rc)
            for name in ("commutant", "decomposition", "invariant", "planted", "oracle"):
                assert "sidecomp." + name not in sys.modules, ("rkhs", name)
            # nor numpy.ma, which np.unique without return_counts (and so
            # np.setdiff1d, once used by spherical_shift's predicates) imports
            assert "numpy.ma" not in sys.modules, "rkhs"
        """)
        spectral_code = textwrap.dedent(f"""
            import contextlib, io, json, sys
            import numpy as np
            import sidecomp.cli
            reports = {{}}
            for argv in (["invariant", "--input", {tup!r}],
                         ["decompose", "--input", {tup!r}],
                         ["similar", "--input", {tup!r}, "--input2", {tup!r}, "--witness"]):
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    rc = sidecomp.cli.main(argv)
                assert rc == 0, (argv[0], rc)
                reports[argv[0]] = json.loads(out.getvalue())
            for name in ("rkhs", "planted", "oracle"):
                assert "sidecomp." + name not in sys.modules, ("spectral", name)
            assert "scipy.linalg" not in sys.modules and "scipy" not in sys.modules
            # nor numpy.ma, which np.unique without return_counts imports
            assert "numpy.ma" not in sys.modules, "spectral"
            import scipy.linalg as sla
            from sidecomp import _linalg
            z = np.arange(9.0).reshape(3, 3) + 1j * np.eye(3)
            T, Z = sla.schur(z, output="complex")
            assert np.allclose(Z @ T @ Z.conj().T, z)
            U, s, Vh = sla.svd(z, lapack_driver="gesvd")
            assert np.allclose((U * s) @ Vh, z)
            X = sla.solve_sylvester(z, np.eye(3), z)
            assert np.allclose(z @ X + X, z)
            assert sla.lapack.ztrsen is _linalg._flapack().ztrsen
            assert sla._flapack is sys.modules["scipy.linalg._flapack"]
            print(json.dumps(reports))
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
        for code in (rkhs_code, spectral_code):
            proc = subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
        reports = json.loads(proc.stdout)
        rep = reports["invariant"]
        assert (rep["k"], rep["multiplicities"]) == (2, [2, 1])
        assert reports["similar"]["similar"]


def test_public_names_resolve_to_their_modules():
    # the names sidecomp exports, pinned; each loads on first use and is the
    # object its module defines
    assert sidecomp.__all__ == [
        "AlgebraStructure", "CommutantBasis", "CommutationReport",
        "DEFAULT_POLICY", "DEFAULT_SEED", "DecompositionEquivalence", "DefectReport",
        "DiagonalKernelSpec", "EquivalenceOutcome", "GammaTransformReport", "InflationCheck",
        "JointKernelBasis", "K0Descriptor", "ModelHypothesesReport",
        "NumericPolicy", "NumericalDegeneracyError", "OperatorTuple", "PSequenceReport",
        "SimilarityInvariant", "SimilarityVerdict", "SphereReport", "TruncationGrid",
        "UnitDecomposition", "assemble_intertwiner", "block_similarity",
        "check_model_hypotheses", "check_sphere_conditions", "commutant", "compress",
        "conjugate", "decomposition", "decompositions_equivalent",
        "defect_operator", "direct_sum", "gamma_transform", "idempotent_classes_equal",
        "inflate", "inflation_commutant_check", "intertwiner_space", "invariant",
        "is_strongly_irreducible", "joint_commutant", "joint_eigenvector", "joint_kernel",
        "k0_descriptor", "multishift_weights", "operator_tuple", "p_sequence",
        "p_sequence_closed_form", "policy", "radical", "restrict", "rkhs",
        "semisimple_structure", "similar", "spherical_shift", "transport_decomposition",
        "truncated_tuple", "tuples", "unit_si_decomposition", "v_semigroup_invariant",
        "validate_commuting",
    ]
    for name in sidecomp.__all__:
        module = sidecomp._MODULE_OF.get(name)
        if module is None:
            assert getattr(sidecomp, name) is importlib.import_module(f"sidecomp.{name}")
        else:
            owner = importlib.import_module(f"sidecomp.{module}")
            assert getattr(sidecomp, name) is getattr(owner, name), name
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        sidecomp.nonexistent


@pytest.fixture(scope="module")
def process_inputs(tmp_path_factory):
    """Input files of the process-exit tests, named by their role."""
    root = tmp_path_factory.mktemp("process")
    rng = np.random.default_rng(12)
    A = bd(jordan(3), jordan(3), jordan(2, 1.0), jordan(2, 1.0), jordan(2, -1.0))
    T = conjugate(operator_tuple([A, A @ A]), conditioned_invertible(12, 10.0, rng))
    S = conjugate(T, conditioned_invertible(12, 10.0, rng))
    # six 4x4 blocks at d = 24: the decompose report is about 140 KB
    big = bd(*(jordan(4, lam) for lam in (-2.5, -1.5, -0.5, 0.5, 1.5, 2.5)))
    U = conjugate(operator_tuple([big]), conditioned_invertible(24, 10.0, rng))
    paths = {"small": write_tuple(root / "small.json", operator_tuple([np.eye(2)])),
             "tuple": write_tuple(root / "t.json", T),
             "tuple2": write_tuple(root / "s.json", S),
             "tuple24": write_tuple(root / "u.json", U)}
    for name, kernel in (
            ("ball", {"m": 3, "preset": "drury_arveson", "dmax": 8}),
            ("hardy", {"m": 2, "preset": "hardy", "dmax": 6}),
            ("nonpositive", {"m": 1, "preset": "custom", "dmax": 1,
                             "custom_fhat": [[[0], 1.0], [[1], -1.0], [[2], 1.0]]})):
        paths[name] = str(root / f"{name}.json")
        Path(paths[name]).write_text(json.dumps(kernel))
    paths["output"] = str(root / "out.json")
    return paths


def cli_process(argv, **streams):
    """``python -m sidecomp.cli argv`` in a fresh interpreter, with buffered
    stdio, so that what reaches the streams depends on run()'s flush."""
    env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "sidecomp.cli", *argv], env=env,
                          timeout=120, **(streams or {"capture_output": True}))


class TestProcessExit:
    # the process leaves by run(), which flushes and skips interpreter
    # teardown: its bytes and exit code are those of main() in process
    @pytest.mark.parametrize("argv, rc", [
        (["invariant", "--input", "{tuple}"], 0),
        (["decompose", "--input", "{tuple}"], 0),
        (["similar", "--input", "{tuple}", "--input2", "{tuple2}", "--witness"], 0),
        (["rkhs", "--input", "{ball}"], 0),
        (["rkhs", "--input", "{hardy}"], 4),
        (["rkhs", "--input", "{nonpositive}"], 2),
        (["decompose", "--input", "{tuple24}"], 0),
    ], ids=["invariant", "decompose", "similar", "rkhs", "hardy-exit-4",
            "nonpositive-exit-2", "report-over-a-pipe-buffer"])
    def test_process_matches_main(self, process_inputs, capsys, argv, rc):
        argv = [a.format(**process_inputs) for a in argv]
        assert main(argv) == rc
        want = capsys.readouterr()
        proc = cli_process(argv)
        assert proc.returncode == rc, proc.stderr[-2000:]
        assert proc.stdout == want.out.encode()
        assert proc.stderr == want.err.encode()
        if rc == 2:
            assert want.out == "" and want.err.startswith("error: ") \
                and want.err.endswith("\n")
        else:
            assert want.out.endswith("\n")
        if argv[-1] == process_inputs["tuple24"]:
            assert len(proc.stdout) > 65536

    def test_output_file_is_complete(self, process_inputs, capsys):
        argv = ["rkhs", "--input", process_inputs["ball"], "--output", process_inputs["output"]]
        out = Path(process_inputs["output"])
        assert main(argv) == 0
        want = capsys.readouterr().out
        written = out.read_bytes()
        out.unlink()
        proc = cli_process(argv)
        assert proc.returncode == 0 and proc.stdout == want.encode()
        assert out.read_bytes() == written and load_tuple(str(out)).d == 165

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_flush_exits_120(self, process_inputs):
        # a report that stays in the stdout buffer until run() flushes it,
        # and cannot be written then, fails the process with the code
        # CPython's own shutdown gives
        with open("/dev/full", "wb") as full:
            proc = cli_process(["invariant", "--input", process_inputs["small"]],
                               stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == 120 and b"No space left on device" in proc.stderr

    def test_usage_error_keeps_the_normal_exit(self):
        # argparse's SystemExit takes the interpreter's own exit path
        proc = cli_process(["invariant"])
        assert proc.returncode == 2 and b"--input" in proc.stderr


class TestSelftest:
    def test_small_run_passes(self, capsys):
        rc, out = run(capsys, ["selftest", "--count", "4", "--seed", "11"])
        rep = json.loads(out)
        assert rc == 0
        assert rep["recovered"] == rep["instances"] == 4
        assert rep["oracle_agreements"] == rep["oracle_cases"]
        assert rep["uniqueness_matches"] == rep["instances"]
        assert rep["uniqueness_worst_residual"] <= ASSEMBLY_BAR
        assert rep["uniqueness_failures"] == []

    def test_unmatched_decompositions_exit_4(self, capsys, monkeypatch):
        # selftest reads decompositions_equivalent from its module when it runs
        import sidecomp.decomposition as decomposition
        from sidecomp.decomposition import EquivalenceOutcome

        monkeypatch.setattr(decomposition, "decompositions_equivalent",
                            lambda *a, **k: EquivalenceOutcome(None, "synthetic"))
        rc, out = run(capsys, ["selftest", "--count", "2", "--seed", "11"])
        rep = json.loads(out)
        assert rc == 4
        assert rep["uniqueness_matches"] == 0
        assert rep["uniqueness_failures"] == [inst.seed for inst in planted_corpus(11, 2)]

    def test_degenerate_matching_exits_3(self, capsys, monkeypatch):
        import sidecomp.decomposition as decomposition
        from sidecomp.policy import NumericalDegeneracyError

        def boom(*a, **k):
            raise NumericalDegeneracyError("synthetic degeneracy")

        monkeypatch.setattr(decomposition, "decompositions_equivalent", boom)
        rc, _ = run(capsys, ["selftest", "--count", "1", "--seed", "11"])
        assert rc == 3

    def test_byte_identical_reports(self, capsys):
        _, out1 = run(capsys, ["selftest", "--count", "3", "--seed", "5"])
        _, out2 = run(capsys, ["selftest", "--count", "3", "--seed", "5"])
        assert out1.encode() == out2.encode()

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("SIDECOMP_SEED", "99")
        _, out = run(capsys, ["selftest", "--count", "2"])
        assert json.loads(out)["seed"] == 99


class TestRecords:
    def test_no_command_process_imports_dataclasses(self, tmp_path):
        # the records are NamedTuples: no command's process imports dataclasses
        tup = write_tuple(tmp_path / "t.json", operator_tuple([bd(jordan(2), jordan(1, 1.0))]))
        kernel = tmp_path / "k.json"
        kernel.write_text(json.dumps({"m": 2, "preset": "drury_arveson", "dmax": 3}))
        code = textwrap.dedent("""
            import contextlib, io, sys
            assert "dataclasses" not in sys.modules
            import sidecomp.cli
            with contextlib.redirect_stdout(io.StringIO()):
                rc = sidecomp.cli.main(sys.argv[1:])
            assert rc == 0, rc
            print(sorted(name for name in sys.modules if name.startswith("dataclasses")))
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC_ROOT))
        for argv in (["invariant", "--input", tup], ["decompose", "--input", tup],
                     ["similar", "--input", tup, "--input2", tup, "--witness"],
                     ["rkhs", "--input", str(kernel)], ["selftest", "--count", "1"]):
            proc = subprocess.run([sys.executable, "-c", code] + argv, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr[-2000:]
            assert proc.stdout == "[]\n", argv[0]


class TestExitCodes:
    def test_numerical_degeneracy_exits_3(self, tmp_path, capsys, monkeypatch):
        from sidecomp.policy import NumericalDegeneracyError
        import sidecomp.decomposition as decomposition

        def boom(*a, **k):
            raise NumericalDegeneracyError("synthetic degeneracy")

        # decompose reads unit_si_decomposition from its module when it runs
        monkeypatch.setattr(decomposition, "unit_si_decomposition", boom)
        p = write_tuple(tmp_path / "t.json", operator_tuple([np.eye(2)]))
        rc = main(["decompose", "--input", p])
        capsys.readouterr()
        assert rc == 3

    def test_stack_over_the_byte_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        # J_96 with its spin-up presentation refused falls to the Sylvester
        # stack, which would take 2.7 GB: refused with a reason, exit 3
        import sidecomp.commutant as commutant

        monkeypatch.setattr(commutant, "_spin_up", lambda Ts, policy: [None] * len(Ts))
        N = jordan(96)
        p = write_tuple(tmp_path / "t.json", operator_tuple([N, N @ N]))
        rc = main(["invariant", "--input", p])
        captured = capsys.readouterr()
        assert rc == 3 and captured.out == ""
        assert "needs 2717908992 bytes" in captured.err

    def test_grid_over_the_byte_budget_exits_2(self, tmp_path, capsys, monkeypatch):
        # m = 3, dmax = 100 has d = 176851 labels: its model tuple alone
        # would take 1.5 TB, so the job is refused before any grid is built
        import sidecomp.rkhs as rkhs

        def build(*args, **kwargs):
            raise AssertionError("a grid was enumerated")

        monkeypatch.setattr(rkhs.TruncationGrid, "build", build)
        spec = tmp_path / "k.json"
        spec.write_text(json.dumps({"m": 3, "preset": "drury_arveson", "dmax": 100}))
        rc = main(["rkhs", "--input", str(spec)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert "d=176851" in captured.err and "4503783772944 bytes" in captured.err

    def test_failed_identity_check_exits_4(self, tmp_path, capsys):
        # a decreasing coefficient rule makes the lowering tuple expansive:
        # the positive-operator chain is not monotone and the check fails
        spec = tmp_path / "k.json"
        table = [[[0], 1.0], [[1], 0.01], [[2], 1e-4], [[3], 1e-6]]
        spec.write_text(json.dumps({
            "m": 1, "preset": "custom", "dmax": 2, "custom_fhat": table,
        }))
        rc, out = run(capsys, ["rkhs", "--input", str(spec)])
        rep = json.loads(out)
        assert rc == 4
        assert not all(c["passed"] for c in rep["checks"])

    @pytest.mark.parametrize("command,obj", [
        ("rkhs", {"m": 1, "preset": "custom", "dmax": 1, "custom_fhat": [5]}),
        ("rkhs", {"m": 1, "preset": "custom", "dmax": 1, "custom_fhat": [[[0], [1]]]}),
        ("rkhs", {"m": 1, "preset": "bergman", "dmax": 1, "k": [1]}),
        ("invariant", {"matrices": 5}),
        ("invariant", {"matrices": [[[[1, 0]]]], "m": [1]}),
        # sizes that int() would truncate are refused, not read as other sizes
        ("rkhs", {"m": 2.9, "preset": "hardy", "dmax": 3.7}),
        ("rkhs", {"m": True, "preset": "hardy", "dmax": 3}),
        ("invariant", {"m": 1.5, "d": 2.2, "matrices": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}),
        # a complete rule for m = 1, dmax = 2, plus an index that int() would
        # read as 1, or one given twice: each would overwrite fhat((1,))
        ("rkhs", {"m": 1, "preset": "custom", "dmax": 2,
                  "custom_fhat": FHAT_M1 + [[[1.5], 7.0]]}),
        ("rkhs", {"m": 1, "preset": "custom", "dmax": 2,
                  "custom_fhat": FHAT_M1 + [[[True], 9.0]]}),
        ("rkhs", {"m": 1, "preset": "custom", "dmax": 2,
                  "custom_fhat": FHAT_M1 + [[[1], 9.0]]}),
    ], ids=["fhat-not-a-pair", "fhat-value-a-list", "bergman-k-a-list", "matrices-not-a-list",
            "m-a-list", "m-dmax-fractional", "m-boolean", "declared-m-d-fractional",
            "fhat-index-fractional", "fhat-index-boolean", "fhat-index-repeated"])
    def test_malformed_field_exits_2(self, tmp_path, capsys, command, obj):
        # a field of the wrong JSON type is an input error, not a traceback
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        rc = main([command, "--input", str(path)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith("error: ")


class TestDeterminism:
    def test_invariant_reports_byte_identical(self, tmp_path, capsys):
        p = write_tuple(tmp_path / "t.json",
                        operator_tuple([bd(jordan(2), jordan(2, 1.0))]))
        _, out1 = run(capsys, ["invariant", "--input", p, "--seed", "42"])
        _, out2 = run(capsys, ["invariant", "--input", p, "--seed", "42"])
        assert out1.encode() == out2.encode()
