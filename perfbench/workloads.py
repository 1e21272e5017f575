"""Inputs, operations and correctness checks of the benchmark workloads.

Every input is made from the workload seed alone. The matrices are built
here with numpy and handed to sidecomp through its public constructor
``operator_tuple``, so the inputs stay the same when the package's own
generators change. Each workload has fixed problem shapes, and the seed
only draws the random numbers inside them (eigenvalues, companion
polynomials, conjugators); that keeps the cost of one pass nearly the same
from seed to seed, which the run-to-run spread of the metrics needs.

An operation returns ``"ok"`` or ``"wrong"``; a ``NumericalDegeneracyError``
raised out of it, or a nonzero CLI exit code, makes it ``"degenerate"``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import sidecomp

EIGENVALUE_GRID = (-2.4, -1.6, -0.8, 0.0, 0.8, 1.6, 2.4)
WITNESS_TOL = 1e-6

# Size profiles of planted_corpus(0xC0FFEE, 100), the acceptance corpus, in
# corpus order: "arity:r x n,r x n,..." with r the size of a strongly
# irreducible block and n its number of copies (one class per block).
_PLANTED_TABLE = """
3:3x1 3:4x3,1x2,2x2 2:4x1,1x1,4x2 2:3x2 3:4x2 3:4x1,2x2,3x1 2:4x3,4x1
2:1x3,4x1,4x2 3:4x1,3x3 2:2x3,2x2,4x1 3:3x1,2x1,4x3 3:4x3 2:3x3,1x1
2:3x1,4x3 2:3x3,2x1,4x2 3:2x2 2:3x3,3x3,3x2 2:2x1,3x2,1x3 3:3x2 2:1x1,1x1
3:4x2,4x3 3:4x3,1x3 3:4x2,3x2,3x3 3:4x1,3x2,2x2 2:3x3,1x1,4x1 3:1x3,4x3
2:1x2,2x2,2x1 3:2x2 2:4x3 2:2x3,3x2 3:3x3,1x2 2:4x3,1x3,4x1 3:2x3,1x1,4x2
3:4x2,2x2 3:3x2,4x2,2x3 3:1x1 3:1x1,3x1 2:2x2,2x3,3x3 2:2x2,2x3 2:1x1,4x1
2:3x1,1x3,4x3 2:2x2,3x3 3:1x1,3x1 3:3x3 2:3x2,2x3,4x3 3:3x3,1x3,3x3
2:3x3,3x3 2:1x1,2x1 2:3x3,1x2,1x3 2:4x2 2:2x3,4x2 2:2x1 3:1x3,1x1,4x3 3:4x3
3:1x1 2:1x1,4x1,3x2 2:2x1 2:1x3 2:3x1,1x3,3x3 3:4x2,4x1 3:3x1
3:1x2,1x1,3x1 3:2x1 3:4x2,2x1 2:2x3 3:1x1,1x1,4x2 3:4x1 2:2x1,4x1 2:1x3,1x1
3:1x1,2x2,4x1 2:3x2,4x3,3x1 3:4x2,2x3,3x2 2:4x3 2:2x2,3x1 2:1x2,4x2
3:1x2,1x1,4x3 3:4x3 2:1x2,4x1,4x1 2:2x2,3x2,1x3 3:4x1,3x1,1x3
3:3x1,2x3,3x1 2:4x2 2:3x1 2:1x3,4x2,3x1 3:3x1,1x3 2:2x1,2x2,4x3 3:1x1
2:2x2,2x3 3:2x2 3:3x3 2:4x1 2:4x1,1x2 2:4x3,3x1,1x2 3:1x1 3:3x3,2x3,3x1
2:3x1 3:2x3 2:1x1,1x1 2:3x1,3x3,4x1 2:2x1,3x3,2x2
"""


def _parse_profiles(table: str) -> list[tuple[int, tuple[tuple[int, int], ...]]]:
    out = []
    for item in table.split():
        arity, blocks = item.split(":")
        out.append((int(arity), tuple(tuple(int(v) for v in b.split("x"))
                                      for b in blocks.split(","))))
    return out


PLANTED_PROFILES = _parse_profiles(_PLANTED_TABLE)


# ----------------------------------------------------------------- generation

def _jordan_polynomial_block(r: int, lam: float, rng: np.random.Generator,
                             m: int) -> list[np.ndarray]:
    """(J_r(lam), p_2(N), ..., p_m(N)): commuting and strongly irreducible,
    because the commutant of J_r(lam) alone is the polynomials in N."""
    N = np.diag(np.ones(r - 1), 1).astype(complex)
    eye = np.eye(r, dtype=complex)
    mats = [lam * eye + N]
    for _ in range(1, m):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mats.append(c[0] * eye + c[1] * N + c[2] * (N @ N))
    return mats


def _random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def _conditioned(d: int, cond: float, rng: np.random.Generator) -> np.ndarray:
    """Random invertible d x d matrix with condition number ``cond``."""
    s = np.exp(np.linspace(0.0, np.log(cond), d))
    s /= np.sqrt(s[0] * s[-1])
    return (_random_unitary(d, rng) * s) @ _random_unitary(d, rng).conj().T


def _log_uniform_cond(rng: np.random.Generator, cond_max: float) -> float:
    return float(np.exp(rng.uniform(0.0, np.log(cond_max))))


def _conjugated(mats: list[np.ndarray], X: np.ndarray):
    Xi = np.linalg.inv(X)
    return sidecomp.operator_tuple([X @ A @ Xi for A in mats])


def _block_sum(arity: int, classes, rng: np.random.Generator) -> list[np.ndarray]:
    """Direct sum, component by component, of ``n`` copies of one random
    Jordan-polynomial block for each ``(r, lam, n)`` in ``classes``."""
    parts = []
    for r, lam, n in classes:
        block = _jordan_polynomial_block(r, lam, rng, arity)
        parts.extend([block] * n)
    d = sum(p[0].shape[0] for p in parts)
    mats = []
    for i in range(arity):
        M = np.zeros((d, d), dtype=complex)
        o = 0
        for p in parts:
            s = p[i].shape[0]
            M[o:o + s, o:o + s] = p[i]
            o += s
        mats.append(M)
    return mats


def _expected(classes) -> tuple[int, tuple[int, ...]]:
    return len(classes), tuple(sorted((n for _, _, n in classes), reverse=True))


def _planted(profile, rng: np.random.Generator, cond_max: float = 100.0):
    """A conjugated planted tuple with the given profile and its (k; n_i)."""
    arity, blocks = profile
    lams = rng.permutation(np.array(EIGENVALUE_GRID))[:len(blocks)]
    classes = [(r, float(lam), n) for (r, n), lam in zip(blocks, lams)]
    mats = _block_sum(arity, classes, rng)
    T = _conjugated(mats, _conditioned(mats[0].shape[0], _log_uniform_cond(rng, cond_max), rng))
    return T, _expected(classes), classes


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ----------------------------------------------------------------- operations

def _invariant_op(T, expected):
    def op():
        inv = sidecomp.v_semigroup_invariant(T)
        got = (inv.k, tuple(sorted(inv.multiplicities, reverse=True)))
        return "ok" if got == expected else "wrong"
    return op


def _witness_residual(X, T, S) -> float:
    Xi = np.linalg.inv(X)
    return float(max(np.linalg.norm(X @ T[i] @ Xi - S[i]) for i in range(T.m)))


def _similar_op(T, S, expected: bool):
    def op():
        verdict = sidecomp.similar(T, S, want_witness=True)
        if verdict.similar != expected:
            return "wrong"
        if expected and (verdict.witness is None
                         or _witness_residual(verdict.witness, T, S) > WITNESS_TOL):
            return "wrong"
        return "ok"
    return op


def planted_ops(seed: int) -> list:
    """v_semigroup_invariant on 100 instances with the acceptance corpus's
    size profiles."""
    ops = []
    for i, profile in enumerate(PLANTED_PROFILES):
        T, expected, _ = _planted(profile, _rng(seed, i))
        ops.append(_invariant_op(T, expected))
    return ops


# (d, k) in run order. The cheapest shape comes first, as the warm-up; the
# two shapes whose latencies make op_p50_s, (24, 1) and (32, 4), are run far
# apart in the pass, so that one slow stretch of the machine does not slow
# both of them.
LARGE_D_SHAPES = ((24, 3), (24, 1), (24, 2), (32, 1), (32, 2), (32, 4))


def large_d_ops(seed: int) -> list:
    """v_semigroup_invariant on conjugated (cond 10) sums of size-4 blocks:
    k classes at distinct eigenvalues, d / (4 k) copies each."""
    ops = []
    for i, (d, k) in enumerate(LARGE_D_SHAPES):
        rng = _rng(seed, i)
        lams = rng.permutation(np.array(EIGENVALUE_GRID))[:k]
        classes = [(4, float(lam), d // (4 * k)) for lam in lams]
        mats = _block_sum(2, classes, rng)
        T = _conjugated(mats, _conditioned(d, 10.0, rng))
        ops.append(_invariant_op(T, _expected(classes)))
    return ops


# Profiles of the first 12 acceptance-corpus instances with d <= 12.
SIMILAR_BASES = [p for p in PLANTED_PROFILES
                 if sum(r * n for r, n in p[1]) <= 12][:12]


def _non_similar_classes(classes, rng: np.random.Generator):
    """Same d and arity, different (k; n_i) or different class spectra."""
    used = {lam for _, lam, _ in classes}
    fresh = float(rng.choice([lam for lam in EIGENVALUE_GRID if lam not in used]))
    for j, (r, lam, n) in enumerate(classes):
        if n >= 2:     # split one copy off into a new class
            return classes[:j] + [(r, lam, n - 1)] + classes[j + 1:] + [(r, fresh, 1)]
    r, _, n = classes[0]
    return [(r, fresh, n)] + classes[1:]


def similar_ops(seed: int) -> list:
    """similar(T, S, want_witness=True): for each base profile one pair
    (T, X T X^-1) with cond(X) <= 100 and one certifiably non-similar pair."""
    ops = []
    for i, profile in enumerate(SIMILAR_BASES):
        rng = _rng(seed, i)
        T, _, classes = _planted(profile, rng)
        X = _conditioned(T.d, _log_uniform_cond(rng, 100.0), rng)
        ops.append(_similar_op(T, _conjugated(list(T), X), True))
        other = _non_similar_classes(classes, rng)
        mats = _block_sum(profile[0], other, rng)
        S = _conjugated(mats, _conditioned(T.d, _log_uniform_cond(rng, 100.0), rng))
        ops.append(_similar_op(T, S, False))
    return ops


# ------------------------------------------------------------------------ cli

CLI_PROFILE = (2, ((3, 2), (2, 3)))          # d = 12, (k; n) = (2; 3, 2)
RKHS_JOB = {"m": 3, "preset": "drury_arveson", "dmax": 8}


class CliJob:
    """Input files of the cli workload and the check of each report."""

    def __init__(self, seed: int, workdir: str):
        import sidecomp.io

        rng = _rng(seed, 0)
        T, self.expected, classes = _planted(CLI_PROFILE, rng)
        X = _conditioned(T.d, _log_uniform_cond(rng, 100.0), rng)
        S = _conjugated(list(T), X)
        self.blocks = sum(n for _, _, n in classes)
        os.makedirs(workdir, exist_ok=True)
        paths = {}
        for name, obj in (("tuple", sidecomp.io.tuple_to_obj(T)),
                          ("tuple2", sidecomp.io.tuple_to_obj(S)),
                          ("kernel", RKHS_JOB)):
            paths[name] = os.path.join(workdir, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        self.commands = [
            ["invariant", "--input", paths["tuple"]],
            ["decompose", "--input", paths["tuple"]],
            ["similar", "--input", paths["tuple"], "--input2", paths["tuple2"], "--witness"],
            ["rkhs", "--input", paths["kernel"]],
        ]
        self.reference: dict[int, bytes] = {}
        self.peak_rss_kb = 0

    def check(self, index: int, report: bytes) -> str:
        """Byte-identical to the command's first report that carried the
        planted answer; until there is one, each report is checked itself."""
        if index in self.reference:
            return "ok" if report == self.reference[index] else "wrong"
        if not self._carries_answer(index, report):
            return "wrong"
        self.reference[index] = report
        return "ok"

    def _carries_answer(self, index: int, report: bytes) -> bool:
        try:
            rep = json.loads(report)
        except ValueError:
            return False
        cmd = self.commands[index][0]
        if cmd == "invariant":
            return (rep["k"], tuple(rep["multiplicities"])) == self.expected
        if cmd == "decompose":
            return rep["count"] == self.blocks and all(rep["si_flags"])
        if cmd == "similar":
            return rep["similar"] is True and rep["residual"] is not None \
                and rep["residual"] <= WITNESS_TOL
        return rep["preset"] == "drury_arveson" and all(c["passed"] for c in rep["checks"])

    def subprocess_ops(self, env: dict) -> list:
        """One fresh CLI process per op. Each is reaped with wait4, so that
        ``peak_rss_kb`` is the largest peak among the CLI processes alone.
        A CLI process that hangs is ended with the worker's process group."""
        def make(index):
            argv = [sys.executable, "-m", "sidecomp.cli"] + self.commands[index]

            def op():
                proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                                        stderr=subprocess.DEVNULL)
                with proc.stdout:
                    report = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
                if proc.returncode != 0:
                    return "degenerate"
                return self.check(index, report)
            return op
        return [make(i) for i in range(len(self.commands))]

    def inprocess_ops(self) -> list:
        import sidecomp.cli

        def make(index):
            def op():
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), \
                        contextlib.redirect_stderr(io.StringIO()):
                    rc = sidecomp.cli.main(list(self.commands[index]))
                if rc != 0:
                    return "degenerate"
                return self.check(index, buf.getvalue().encode())
            return op
        return [make(i) for i in range(len(self.commands))]


BUILDERS = {
    "planted": planted_ops,
    "large_d": large_d_ops,
    "similar": similar_ops,
}
