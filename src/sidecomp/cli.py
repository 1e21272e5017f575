"""Batch command-line front door.

Subcommands: decompose, invariant, similar, rkhs, selftest. Reports are
deterministic: identical (input, seed, tolerances) produce byte-identical
JSON. Exit codes: 0 success, 2 input error, 3 numerical degeneracy,
4 property violation.

Each command imports the modules it needs when it runs, so ``rkhs`` never
loads the spectral stack (commutant, decomposition, invariant) and the
spectral commands never load ``rkhs``. ``run`` is the process entry;
``main`` is the in-process API.
"""
from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import io as sio
from ._linalg import frob
from .policy import ADJOINT_COMMUTE_BAR, BASIS_NORM_BAR, DEFAULT_SEED, DEFECT_RANK_ONE_BAR, \
    EIGENVECTOR_TAIL_FLOOR, INTERIOR_ISOMETRY_BAR, PSD_TOL, NumericPolicy, NumericalDegeneracyError
from .tuples import compress, conjugate, validate_commuting

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DEGENERATE = 3
EXIT_VIOLATION = 4


def _nonnegative(kind):
    """An argparse type: a value of ``kind`` (float or int) that is finite and
    at least 0. Any other value is refused with the flag's name (exit 2)."""
    def parse(text: str):
        try:
            value = kind(text)
            if math.isfinite(value) and value >= 0:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected a finite {kind.__name__} >= 0, got {text!r}")
    return parse


def _seed(text: str) -> int:
    """A seed: an integer >= 0 of any size (``_linalg.DrawStream`` folds it
    into its state), in decimal or with a base prefix (``0x``, ``0o``,
    ``0b``), as ``int(text, 0)`` reads it. Other text is refused; argparse
    names the flag (exit 2)."""
    try:
        value = int(text, 0)
    except ValueError:
        value = -1
    if value >= 0:
        return value
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sidecomp",
        description="Decompositions, similarity invariants and multishift "
                    "models for commuting matrix tuples.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, input2=False, witness=False, output=False, count=False):
        if not count:
            sp.add_argument("--input", required=True, help="input JSON file")
        if input2:
            sp.add_argument("--input2", required=True, help="second tuple JSON file")
        sp.add_argument("--seed", type=_seed, default=None,
                        help="non-negative integer seed (default: SIDECOMP_SEED or built-in)")
        sp.add_argument("--tol", type=_nonnegative(float), default=None,
                        help="override the policy's tol and kernel_tol (finite, >= 0)")
        sp.add_argument("--format", choices=("json", "table"), default="json")
        if witness:
            sp.add_argument("--witness", action="store_true",
                            help="assemble and report an explicit conjugator")
        if output:
            sp.add_argument("--output", default=None,
                            help="write the truncated tuple to this file")
        if count:
            sp.add_argument("--count", type=_nonnegative(int), default=100,
                            help="number of planted instances (>= 0)")
        return sp

    common(sub.add_parser("decompose", help="unit SI decomposition of a tuple"))
    common(sub.add_parser("invariant", help="similarity invariant and K0 data"))
    common(sub.add_parser("similar", help="decide similarity of two tuples"),
           input2=True, witness=True)
    common(sub.add_parser("rkhs", help="build a truncated multishift model"),
           output=True)
    common(sub.add_parser("selftest", help="planted recovery + decomposition "
                                           "uniqueness + oracle agreement"),
           count=True)
    return p


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("SIDECOMP_SEED")
    if not env:
        return DEFAULT_SEED
    try:
        return _seed(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"SIDECOMP_SEED: {exc}") from None


def _resolve_policy(args) -> NumericPolicy:
    pol = NumericPolicy(seed=_resolve_seed(args))
    if args.tol is not None:
        pol = pol.with_(tol=args.tol, kernel_tol=args.tol)
    return pol


def _header(args, pol: NumericPolicy) -> dict:
    return {"command": args.command, "seed": pol.seed, "tolerances": pol.tolerances()}


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(sio.canonical_json(report))
        return
    def lines(obj, indent=""):
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)) and not _is_matrix(v):
                    yield f"{indent}{k}:"
                    yield from lines(v, indent + "  ")
                else:
                    yield f"{indent}{k}: {_scalar(v)}"
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                if isinstance(v, (dict, list)) and not _is_matrix(v):
                    yield f"{indent}[{i}]"
                    yield from lines(v, indent + "  ")
                else:
                    yield f"{indent}[{i}] {_scalar(v)}"
    sys.stdout.write("\n".join(lines(report)) + "\n")


def _is_matrix(v) -> bool:
    return isinstance(v, list) and v and isinstance(v[0], list) \
        and v[0] and isinstance(v[0][0], list)


def _scalar(v):
    if _is_matrix(v):
        return f"<{len(v)}x{len(v[0])} matrix>"
    return v


def _spectrum(M: np.ndarray) -> list:
    eigs = sorted(np.linalg.eigvals(M),
                  key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    return [[round(float(z.real), 9), round(float(z.imag), 9)] for z in eigs]


def _load_commuting(path: str, pol: NumericPolicy):
    """The tuple in ``path``; a ValueError unless every ``||T_i||_F`` and its
    square are finite in float64 (the norms and the traces ``tr(T_i T_j)``
    the commutant reads square the entries) and it commutes at ``pol.tol``."""
    T = sio.load_tuple(path)
    peak = float(np.abs(T.matrices).max())
    big = peak * max(frob(A / peak) for A in T) if peak > 0.0 else 0.0
    if not math.isfinite(big * big):
        raise ValueError(
            f"input tuple overflows float64: its largest ||T_i||_F is {big:.3e}, and the "
            f"norms and traces it is read through square it")
    comm = validate_commuting(T, policy=pol)
    if not comm.passed:
        raise ValueError(
            f"input tuple does not commute at tolerance {pol.tol} "
            f"(max relative commutator {comm.max_commutator:.3e})"
        )
    return T


def cmd_decompose(args) -> int:
    from .decomposition import unit_si_decomposition

    pol = _resolve_policy(args)
    T = _load_commuting(args.input, pol)
    D = unit_si_decomposition(T, pol)
    blocks = []
    for L in D.frames:
        R = compress(T, L)
        blocks.append({"dim": R.d, "spectrum_first_component": _spectrum(R[0])})
    report = _header(args, pol) | {
        "count": D.count,
        "si_flags": list(D.si_flags),
        "residuals": {k: float(v) for k, v in D.residuals.items()},
        "idempotents": [sio.matrix_to_obj(P) for P in D.idempotents],
        "blocks": blocks,
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_invariant(args) -> int:
    from .invariant import k0_descriptor, v_semigroup_invariant

    pol = _resolve_policy(args)
    T = _load_commuting(args.input, pol)
    inv = v_semigroup_invariant(T, pol)
    k0 = k0_descriptor(T, pol, invariant=inv)
    report = _header(args, pol) | inv.summary() | {
        "class_spectra_first_component": [_spectrum(r[0]) for r in inv.class_representatives],
        "k0": {"rank": k0.rank, "order_unit": list(k0.order_unit)},
    }
    _emit(report, args.format)
    return EXIT_OK


def cmd_similar(args) -> int:
    from .invariant import similar

    pol = _resolve_policy(args)
    T = _load_commuting(args.input, pol)
    S = _load_commuting(args.input2, pol)
    verdict = similar(T, S, pol, want_witness=args.witness)
    report = _header(args, pol) | verdict.summary() | {
        "witness": None if verdict.witness is None else sio.matrix_to_obj(verdict.witness),
    }
    _emit(report, args.format)
    return EXIT_OK


def _rkhs_checks(spec, grid, preset, adj, pol) -> list[dict]:
    """The model checks of ``adj``: the spherical shift for that preset, else
    the backward multishift ``truncated_tuple(spec, grid, "adjoint")``.

    Their products go through ``_linalg.matmul``, which gathers them by index
    on matrices with one nonzero per column, as the models' are; the path
    products of the basis-norm table follow one label by index likewise, and
    take a chain of dense matrix-vector products on any other matrices.
    """
    from ._linalg import column_entries, matmul
    from .rkhs import check_model_hypotheses, check_sphere_conditions, defect_operator, \
        joint_eigenvector, p_sequence

    checks = []

    def add(cid, passed, measure):
        checks.append({"id": cid, "passed": bool(passed), "measure": float(measure)})

    if preset == "spherical_shift":
        S = sum(matmul(A.conj().T, A) for A in adj)
        idx = np.where(grid.interior())[0]
        dev = float(np.abs(S[np.ix_(idx, idx)] - np.eye(idx.size)).max()) if idx.size else 0.0
        add("interior-isometry", dev <= INTERIOR_ISOMETRY_BAR, dev)
        rep = check_sphere_conditions(adj, pol, mask=grid.interior())
        add("row-contraction", rep.row_contraction, rep.row_defect_min_eig)
        return checks

    comm = validate_commuting(adj, policy=pol)
    add("adjoint-commutation", comm.max_commutator <= ADJOINT_COMMUTE_BAR, comm.max_commutator)

    # reconstruct the squared path products from the forward matrices (the
    # adjoint's conjugate transposes, which truncated_tuple's forward mode
    # builds bitwise) and compare against the coefficient rule: Gram diagonal
    # of the monomials
    raising = [np.ascontiguousarray(A.real.T) for A in adj]
    # with one nonzero per column a path stays on one basis vector, followed
    # as (label, coefficient): each step is the one nonzero term of the
    # matrix-vector product
    steps = [column_entries(R) for R in raising]
    steps = None if any(e is None for e in steps) else [(r.tolist(), v.tolist()) for r, v in steps]
    vac = grid.index_of[(0,) * grid.m]
    worst = 0.0
    for a in grid.indices:
        if steps is None:
            v = np.zeros(grid.size)
            v[vac] = 1.0
            for i, reps in enumerate(a):
                for _ in range(reps):
                    v = raising[i] @ v
            c = float(v[grid.index_of[a]])
        else:
            j, c = vac, 1.0
            for (rows, vals), reps in zip(steps, a):
                for _ in range(reps):
                    j, c = rows[j], vals[j] * c
            c = c if j == grid.index_of[a] else 0.0
        c2 = c ** 2
        want = math.exp(-spec.log_fhat(a))
        worst = max(worst, abs(c2 - want) / want)
    add("basis-norm-table", worst <= BASIS_NORM_BAR, worst)

    if preset == "drury_arveson":
        rep = defect_operator(adj, grid)
        add("defect-rank-one", rep.rank_one_residual <= DEFECT_RANK_ONE_BAR, rep.rank_one_residual)
    if preset == "bergman_k":
        srep = check_sphere_conditions(adj, pol, n_hyper=1)
        add("hypercontraction-1", srep.hypercontraction[1], srep.defect_min_eig)

    # the measure is the largest violation: a nonzero entry that must vanish,
    # or a negative eigenvalue of some P_n or P_n - P_{n+1} beyond PSD_TOL
    ps = p_sequence(adj, grid, min(grid.dmax, 4))
    negative = [-min(ps.min_eigs), -min(ps.step_min_eigs, default=0.0)]
    add("p-sequence-chain", ps.psd_ok and ps.monotone_ok and ps.vanish_exact,
        max([max(ps.vanish_max_abs)] + [e for e in negative if e > PSD_TOL]))

    w = np.full(grid.m, 0.25)
    v, resid = joint_eigenvector(spec, grid, w, tuple_adjoint=adj)
    tail = sum(spec.fhat(a) * abs(np.prod(np.power(w, a))) ** 2
               for a in grid.indices if sum(a) == grid.dmax)
    bound = 10.0 * float(np.linalg.norm(w)) * math.sqrt(tail) / float(np.linalg.norm(v))
    add("joint-eigenvector-tail", resid <= max(bound, EIGENVECTOR_TAIL_FLOOR), resid)

    if preset == "drury_arveson":
        mh = check_model_hypotheses(adj, pol, coordinate_mask=grid.interior())
        add("model-hypotheses", mh.model_consistent,
            max(mh.projection_residual, mh.solve_max_residual))
    return checks


def cmd_rkhs(args) -> int:
    import json

    from .rkhs import spherical_shift, truncated_tuple

    pol = _resolve_policy(args)
    with open(args.input, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    spec, grid, preset = sio.kernel_job_from_obj(obj)
    T = spherical_shift(grid) if preset == "spherical_shift" \
        else truncated_tuple(spec, grid, "adjoint")
    checks = _rkhs_checks(spec, grid, preset, T, pol)
    written = None
    if args.output:
        obj = sio.tuple_to_obj(T)
        # basis labels travel with the matrices so they stay portable
        obj["basis"] = {
            "kind": "multi-index", "m": grid.m, "dmax": grid.dmax,
            "enumeration": "graded-lexicographic",
            "indices": [list(a) for a in grid.indices],
        }
        obj["mode"] = "spherical-shift" if preset == "spherical_shift" else "adjoint"
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(sio.canonical_json(obj))
        written = args.output
    report = _header(args, pol) | {
        "preset": preset,
        "m": grid.m,
        "dmax": grid.dmax,
        "basis_size": grid.size,
        "enumeration": "graded-lexicographic",
        "checks": checks,
        "tuple_written": written,
    }
    _emit(report, args.format)
    if not all(c["passed"] for c in checks):
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .decomposition import decompositions_equivalent, is_strongly_irreducible, \
        transport_decomposition, unit_si_decomposition
    from .invariant import v_semigroup_invariant
    from .oracle import oracle_is_strongly_irreducible
    from .planted import planted_corpus, si_oracle_corpus

    pol = _resolve_policy(args)
    instances = planted_corpus(pol.seed, args.count)
    recovered = 0
    failing = []
    unique_failing = []
    unique_worst = 0.0
    reseeded = pol.with_(seed=pol.seed + 1)
    for inst in instances:
        T = inst.realized
        inv = v_semigroup_invariant(T, pol)
        got = (inv.k, tuple(sorted(inv.multiplicities, reverse=True)))
        if got == (inst.k, inst.multiplicities):
            recovered += 1
        else:
            failing.append(inst.seed)
        # uniqueness up to similarity and permutation: the decomposition the
        # invariant read matches one drawn from another seed and one of the
        # planted block sum carried back to T by the planted conjugator
        X = inst.conjugator
        planted = unit_si_decomposition(conjugate(T, np.linalg.inv(X), pol), pol)
        others = (unit_si_decomposition(T, reseeded),
                  transport_decomposition(planted, X, pol))
        outcomes = [decompositions_equivalent(T, inv.decomposition, D, pol)
                    for D in others]
        if all(o.equivalent for o in outcomes):
            unique_worst = max(unique_worst,
                               *(o.equivalence.residual for o in outcomes))
        else:
            unique_failing.append(inst.seed)
    oracle_agree = 0
    oracle_cases = si_oracle_corpus()
    oracle_failing = []
    for name, T, _ in oracle_cases:
        a = oracle_is_strongly_irreducible(T, policy=pol)
        b = is_strongly_irreducible(T, pol)
        if a == b:
            oracle_agree += 1
        else:
            oracle_failing.append(name)
    report = _header(args, pol) | {
        "instances": len(instances),
        "recovered": recovered,
        "oracle_cases": len(oracle_cases),
        "oracle_agreements": oracle_agree,
        "failing_seeds": failing,
        "oracle_failures": oracle_failing,
        "uniqueness_matches": len(instances) - len(unique_failing),
        "uniqueness_worst_residual": unique_worst,
        "uniqueness_failures": unique_failing,
    }
    _emit(report, args.format)
    if failing or oracle_failing or unique_failing:
        return EXIT_VIOLATION
    return EXIT_OK


_COMMANDS = {
    "decompose": cmd_decompose,
    "invariant": cmd_invariant,
    "similar": cmd_similar,
    "rkhs": cmd_rkhs,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


def run() -> None:
    """Process entry (the ``sidecomp`` script, ``python -m sidecomp.cli``).

    Runs ``main``, flushes stdout and stderr, and leaves by ``os._exit``:
    interpreter teardown writes nothing a command needs, so it is skipped,
    and atexit hooks do not run. An exception out of ``main`` or out of the
    flush, argparse's ``SystemExit`` included, takes the normal exit path,
    where a stream that still cannot be flushed exits 120.
    """
    rc = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":
    run()
