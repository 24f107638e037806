"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed alone, so the same
seed gives the same operations in the same order; operation ``-1`` is the
untimed warm-up.  ``op(i)`` runs one operation, checks every exact output and
returns the canonical text of those outputs (the run's ``output_digest``
hashes it).  A wrong result raises :class:`OpFailed`.
"""

from __future__ import annotations

import json
import math
import os
import random
import select
import shutil
import signal
import sys
from fractions import Fraction
from time import perf_counter

import convval as cv
from convval.documents import dump, format_float, format_rational
from convval.growth import peval

# Library calls go through the package attribute (``cv.make``) so that the
# tracer's rebinding of ``convval.make`` reaches them.

HERE = os.path.dirname(os.path.abspath(__file__))

# The three (zeta_0, zeta_n) weight pairs of acceptance criterion 1.
ZETAS = [
    (cv.make_growth([0, 2], [[2, -1]]), cv.make_growth([0, 1], [[1, -1]])),
    (cv.make_growth([-1, 1], [[1, 0, -1]]), cv.make_growth([0, 3], [[3, -1]])),
    (cv.make_growth([0, 1], [[0, 1]]), cv.make_growth([0, 2], [[2, 0, 0, -1]])),
]


class OpFailed(Exception):
    """An operation returned a wrong exact result or its process misbehaved."""


def fmt(x) -> str:
    """Render a value the way the CLI reports it."""
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, float):
        return format_float(x)
    return str(x)


def coercive_pieces(rng: random.Random, n: int, extra: int):
    """Affine pieces of a coercive max-of-affine function on R^n.

    One slope per sign orthant puts the origin inside the hull of the slopes,
    which makes the maximum coercive; ``extra`` pieces are free.
    """
    def rat(lo, hi, den):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    pieces = []
    for mask in range(2 ** n):
        slope = tuple(rat(1, 4, 2) * (1 if mask >> k & 1 else -1) for k in range(n))
        pieces.append((slope, rat(-3, 3, 3)))
    for _ in range(extra):
        pieces.append((tuple(rat(-4, 4, 2) for _ in range(n)), rat(-3, 3, 3)))
    return pieces


def corpus_item(name: str, seed: int, i: int, size: int) -> int:
    """Index into a fixed corpus of ``size`` inputs for timed operation ``i``.

    Operations go through the corpus in passes; the workload seed shuffles
    the order of every pass.
    """
    cycle, k = divmod(i, size)
    order = list(range(size))
    random.Random(f"{name}-{seed}-{cycle}").shuffle(order)
    return order[k]


def _require(ok: bool, what: str):
    if not ok:
        raise OpFailed(what)


class IdentityN3:
    """Criterion 1 traffic: a certified n = 3 pair, then the valuation identity
    for the three weight pairs with tolerance 0.

    The timed loop goes through a fixed corpus, the first CORPUS pair seeds
    of acceptance criterion 1, in passes whose order the workload seed
    shuffles; the warm-up pair is drawn from the seed.  The four pairs cost
    1.2-5.1 s each, so a 30 s run times each of them about three times.
    """

    name = "identity_n3"
    in_process = True
    CORPUS = 4
    fixed_ops = CORPUS

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def pair_seed(self, i: int) -> int:
        if i < 0:
            rng = random.Random(f"{self.name}-{self.seed}-warmup")
            return rng.randrange(self.CORPUS, 10 ** 9)
        return corpus_item(self.name, self.seed, i, self.CORPUS)

    def item(self, i: int) -> int:
        return self.pair_seed(i)

    def describe(self, i: int) -> str:
        return f"generate_pair_with_convex_min({self.pair_seed(i)}, 3) + 3 identity checks"

    def op(self, i: int, tracer=None) -> str:
        pair_seed = self.pair_seed(i)
        pair = cv.generate_pair_with_convex_min(pair_seed, 3)
        out = [str(pair_seed)]
        for z0, zn in ZETAS:
            rep = cv.check_valuation_identity(lambda f: cv.combined_valuation(z0, zn, f), pair)
            _require(rep.passed and rep.tolerance == 0 and isinstance(rep.left, Fraction),
                     f"identity not exact: {rep.left} != {rep.right}")
            out.append(f"{fmt(rep.left)}={fmt(rep.right)}")
        return " ".join(out)

    def close(self):
        pass


class ConjugacyN2:
    """Conjugates, infimal convolution, smoothing and Moreau envelopes of
    coercive max-of-affine functions at n = 2.

    The timed loop goes through a fixed corpus of CORPUS input sets, drawn
    once from fixed seeds, in passes whose order the workload seed
    shuffles; the warm-up inputs are drawn from the workload seed.
    """

    name = "conjugacy_n2"
    in_process = True
    CORPUS = 12
    fixed_ops = CORPUS
    GRID = [(Fraction(a, 2), Fraction(b, 2)) for a in range(-6, 7) for b in range(-6, 7)]
    MOREAU_T = [Fraction(1, 4), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.steep = cv.Polyhedron.box([(-1, 1), (-1, 1)])

    def item(self, i: int) -> int:
        return -1 if i < 0 else corpus_item(self.name, self.seed, i, self.CORPUS)

    def inputs(self, i: int):
        k = self.item(i)
        rng = random.Random(f"{self.name}-{self.seed}-warmup" if k < 0
                            else f"{self.name}-corpus-{k}")
        pu = coercive_pieces(rng, 2, rng.randint(0, 2))
        pv = coercive_pieces(rng, 2, rng.randint(0, 2))
        x = (Fraction(rng.randint(-6, 6), 2), Fraction(rng.randint(-6, 6), 2))
        return pu, pv, x

    def describe(self, i: int) -> str:
        pu, pv, x = self.inputs(i)
        return f"conjugacy op on u={pu} v={pv} x={x}"

    def op(self, i: int, tracer=None) -> str:
        pu, pv, x = self.inputs(i)
        u, v = cv.make(pu, n=2), cv.make(pv, n=2)
        u_star = cv.conjugate(u)
        _require(cv.biconjugate_check(u), "u** != u")
        w_star = cv.conjugate(cv.inf_convolution(u, v))
        v_star = cv.conjugate(v)
        for y in self.GRID:
            _require(w_star.eval(y) == u_star.eval(y) + v_star.eval(y),
                     f"(u box v)* != u* + v* at {y}")
        seq = [cv.smoothing_sequence(u, self.steep, 2 ** j) for j in range(4)]
        bound = cv.uniform_cone_bound(seq)
        _require(all(bound.holds_for(f) for f in seq), "cone bound certificate fails")
        env = [cv.moreau_eval(u, t, x) for t in self.MOREAU_T]
        # e_t u(x) <= u(x), and e_t u(x) does not increase with t.
        _require(all(isinstance(e, Fraction) for e in env)
                 and env[0] <= u.eval(x)
                 and all(b <= a for a, b in zip(env, env[1:])),
                 f"Moreau envelope values out of order: {env}")
        pieces = sorted(f"{fmt(b)}:{','.join(map(fmt, a))}" for a, b in w_star.pieces)
        return " ".join([*pieces, fmt(bound.a), fmt(bound.b), *map(fmt, env)])

    def close(self):
        pass


def spawn(argv: list[str], env: dict, out_path: str, err_path: str, timeout: float):
    """Run a child with stdout and stderr sent to files.

    Returns (exit code, wall seconds, peak RSS in MB, timed out).  The child is
    reaped with wait4 so its own resource usage is read, and it is killed if
    it outlives ``timeout``.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644)]
    start = perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    elapsed = perf_counter() - start
    return os.waitstatus_to_exitcode(status), elapsed, usage.ru_maxrss / 1024, not ready


class CliCold:
    """One fresh ``python -m convval.cli`` process per operation, going
    through a fixed command mix over documents written at set-up.

    The documents are drawn once from a fixed seed, since how long the
    ``growth`` and ``laws`` commands take depends on them; the workload seed
    shuffles the order of the commands in every pass and picks the warm-up
    command.
    """

    name = "cli_cold"
    in_process = False
    fixed_ops = 7
    CHILD_TIMEOUT = 120.0

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        os.makedirs(workdir, exist_ok=True)
        rng = random.Random(f"{self.name}-corpus")
        self.u = cv.make(coercive_pieces(rng, 2, rng.randint(0, 2)), n=2)
        lam = Fraction(rng.randint(1, 4), 2)
        def nonnegative(breakpoints, pieces, tail=None):
            # Marked nonnegative, so every load runs the nonnegativity certificate.
            return cv.make_growth(breakpoints, pieces, tail=tail, require_nonnegative=True)

        weights = {
            "z0": ZETAS[0][0],
            "zn_poly": nonnegative([0, 1, 2], [[0, 1], [2, -1]]),
            "zn_tail": nonnegative([0], [], (lam, [1, rng.randint(0, 2)])),
            "zeta_poly": nonnegative([0, 1, 3], [[1, 1], [Fraction(5, 2), Fraction(-1, 2)]]),
            "zeta_tail": nonnegative([0], [], (lam, [2, 1])),
        }
        self.docs = {k: cv.growth_to_doc(w) for k, w in weights.items()}
        self.docs["u"] = cv.function_to_doc(self.u)
        self.paths = {k: os.path.join(workdir, f"{k}.json") for k in self.docs}
        for k, doc in self.docs.items():
            dump(doc, self.paths[k])
        self.point = (Fraction(rng.randint(-6, 6), 3), Fraction(rng.randint(-6, 6), 3))
        self.laws_seed = rng.randrange(10 ** 6)
        p = self.paths
        self.commands = [
            ["valuation", p["u"], p["z0"], p["zn_poly"]],
            ["valuation", p["u"], p["z0"], p["zn_tail"]],
            ["growth", p["zeta_poly"], "--n", "3"],
            ["growth", p["zeta_tail"], "--n", "3"],
            ["conjugate", p["u"]],
            ["eval", p["u"], "--point=" + ",".join(map(format_rational, self.point))],
            ["laws", "valuation", "--count", "1", "--n", "2", "--seed", str(self.laws_seed)],
        ]
        self.env = dict(os.environ, PYTHONPATH=os.path.join(os.path.dirname(HERE), "src"))
        self.peak_rss_mb = 0.0
        self.process_s = 0.0
        self.import_s = 0.0
        self.expected = None

    def item(self, i: int) -> int:
        if i < 0:
            return random.Random(f"{self.name}-{self.seed}-warmup").randrange(len(self.commands))
        return corpus_item(self.name, self.seed, i, len(self.commands))

    def describe(self, i: int) -> str:
        return "convval " + " ".join(self.commands[self.item(i)])

    def expect(self):
        """Every exact output of the command mix, computed in this process."""
        zetas = {k: cv.growth_from_doc(doc) for k, doc in self.docs.items() if k != "u"}

        def valuation(zn):
            return {"combined_valuation": fmt(cv.combined_valuation(zetas["z0"], zn, self.u)),
                    "min_value": format_rational(self.u.min_value()[0]),
                    "atom": format_rational(cv.level_volume_profile(self.u).atom)}

        def growth_rows(zeta, n=3, steps=20):
            grid = sorted({Fraction(2 * j, steps) for j in range(steps + 1)}
                          | {b for b in zeta.breakpoints if 0 <= b <= 2})
            psi = cv.psi_from_zeta(zeta, n)
            sign = Fraction((-1) ** n, math.factorial(n))
            rows = [["t", "zeta", "psi_n", "signed_nth_derivative"]]
            for t in grid:
                if zeta.tail is None:
                    deriv = sign * peval(psi.derivative_pieces(n).region_at(t)[1], t)
                    rows.append([fmt(t), fmt(zeta.eval(t)),
                                 fmt(peval(psi.region_at(t)[1], t)), fmt(deriv)])
                else:
                    rows.append([fmt(t), fmt(zeta.eval(t)), fmt(psi.eval(t)), ""])
            return rows

        pair = cv.generate_pair_with_convex_min(self.laws_seed, 2)
        reports = [cv.check_valuation_identity(
                       lambda f, a=a, b=b: cv.combined_valuation(a, b, f), pair)
                   for a, b in ZETAS] + [cv.check_min_lattice(pair)]
        self.expected = [
            valuation(zetas["zn_poly"]),
            valuation(zetas["zn_tail"]),
            growth_rows(zetas["zeta_poly"]),
            growth_rows(zetas["zeta_tail"]),
            cv.function_to_doc(cv.conjugate(self.u),
                               provenance=f"conjugate of {self.paths['u']}"),
            format_rational(self.u.eval(self.point)),
            [[r.law, True, fmt(r.left), fmt(r.right)] for r in reports],
        ]

    def _check(self, k: int, stdout: str) -> str:
        """Compare one command's output with the in-process values."""
        want = self.expected[k]
        if k in (0, 1):
            got = json.loads(stdout)["results"]
        elif k in (2, 3):
            got = [line.split(",") for line in stdout.splitlines()]
        elif k == 4:
            got = json.loads(stdout)
        elif k == 5:
            got = stdout.strip()
        else:
            report = json.loads(stdout)
            got = [[r["law"], r["passed"], r["left"], r["right"]] for r in report["law_reports"]]
        _require(got == want, f"output differs from the in-process values: {got!r} != {want!r}")
        # The documents' directory differs from run to run; the digest must not.
        return json.dumps(got, sort_keys=True).replace(self.dir, "WORKDIR")

    def op(self, i: int, tracer=None) -> str:
        if self.expected is None:
            self.expect()
        k = self.item(i)
        out_path = os.path.join(self.dir, "stdout.txt")
        err_path = os.path.join(self.dir, "stderr.txt")
        trace_path = os.path.join(self.dir, "trace.json")
        if tracer is None:
            argv = ["-m", "convval.cli", *self.commands[k]]
        else:
            argv = [os.path.join(HERE, "cli_boot.py"), trace_path, *self.commands[k]]
        code, elapsed, rss, timed_out = spawn(argv, self.env, out_path, err_path,
                                              self.CHILD_TIMEOUT)
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        _require(not timed_out, f"killed after {self.CHILD_TIMEOUT} s")
        _require(code == 0 and "Traceback" not in stderr, f"exit {code}: {stderr[-2000:]}")
        if tracer is not None:
            with open(trace_path) as fh:
                data = json.load(fh)
            tracer.merge(data, i)
            self.import_s += data["import_s"]
            self.process_s += elapsed
        return self._check(k, stdout)

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (IdentityN3, ConjugacyN2, CliCold)}
