"""The benchmark's four workloads.

A workload builds a fixed pool of systems in :meth:`Workload.setup` and
then yields ops in rounds.  Every round has the same composition; only
the random inputs differ, drawn from a generator seeded by ``(seed,
round)``.  An op is one public ``opsys`` call plus an oracle that checks
the result without going through the code under test: the verdict the
construction guarantees, an explicit witness, or an eigenvalue formula.

The round is a generator: ``run.run_round`` sends each op's result back in, so a
later op can use an earlier op's output (a tower, a norm to compare to).
Public functions are always looked up through their module at yield time,
so a traced run sees the wrapped versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

import numpy as np

from opsys import dual, feasibility, norms, systems, towers

PASS, FAIL, UNDECIDED = "pass", "fail", "undecided"

#: The Archimedean radius schedule 2^-1 .. 2^-20 of criterion 5.
SCHEDULE = tuple(2.0 ** -k for k in range(1, 21))
#: A negative functional is pushed this far (times 1/d) below zero at an
#: explicit witness in S+.
WITNESS_MARGIN = 0.05
#: Radii are found by bisection to 1e-6; full-algebra radii must match the
#: closed form within the acceptance suite's 1e-5.
RADIUS_TOL = 1e-5
#: Interior margin added to rank-deficient CP Choi data (as a multiple of
#: the identity), and the pairing -CP_WITNESS * ||x||_F of a refuted grid
#: with its witness x in M_n(S)+.
CP_MARGIN = 0.02
CP_WITNESS = 2.0
#: Tolerance of the pinned feasibility instances; targets with lambda_min
#: in the gray band (-10 tol, -tol) are redrawn, as in feasibility-oracle.
PIN_TOL = 1e-7
NORM_SLACK = 1e-6
SUBGRAD_ITERS = 20


@dataclass
class Op:
    name: str  # the public function the op times, as layer.function
    call: Callable[[], Any]
    check: Callable[[Any], str]  # PASS, FAIL or UNDECIDED


def expect(ok) -> str:
    return PASS if ok else FAIL


def verdict_is(expected: bool) -> Callable[[Any], str]:
    """Oracle for a bool-or-None verdict; None is undecided."""
    def check(result):
        if result is None:
            return UNDECIDED
        return expect(result is expected)
    return check


def lam_min(h) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2)[0])


def lam_max(h) -> float:
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2)[-1])


def gaussian(rng, rows, cols=None) -> np.ndarray:
    cols = rows if cols is None else cols
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def low_rank_psd(rng, side: int, rank: int) -> np.ndarray:
    g = gaussian(rng, side, rank)
    return g @ g.conj().T / side


class Workload:
    name = ""
    #: Rounds in a traced run; fixed, so counts repeat exactly.
    trace_rounds = 1
    #: Highest tail percentile reported.  A run's op count can cross the
    #: next ladder step on a faster host; the cap keeps the tail comparable.
    tail_cap = 90.0
    #: (max_upper - max_lower) / max_lower of each checked norm report;
    #: only norm-sweep has them.
    sandwich_gaps: list | None = None

    def setup(self, rng) -> None:
        """Build the system pool and fill its lazy caches."""

    def round(self, rng):
        raise NotImplementedError


def warm(pool) -> None:
    for s in pool:
        s.hermitian_basis  # fill the lazy cache before timing


# ----------------------------------------------------------------------------
# section-positivity
# ----------------------------------------------------------------------------

class SectionPositivity(Workload):
    """Level-1 positivity and dual order-unit radii over proper subsystems."""

    name = "section-positivity"

    def setup(self, rng):
        named = systems.named_system
        self.named = [named("pauli-span"), named("diag:3"), named("toeplitz:3"), named("toeplitz:4")]
        self.full = named("full:3")  # control: lambda_min decides exactly
        warm(self.named + [self.full])

    def _boundary_functional(self, s, rng):
        """Positive by construction: a PSD Riesz matrix of rank d - 1."""
        return dual.Functional(s, low_rank_psd(rng, s.d, s.d - 1))

    def _witnessed_negative(self, s, delta, rng):
        """f - c delta with value -WITNESS_MARGIN/d at an explicit x0 in S+."""
        f = self._boundary_functional(s, rng)
        x0 = systems.random_positive_element(s, rng)
        x0 = x0 / np.trace(x0).real
        c = s.d * f.pair(x0).real + WITNESS_MARGIN
        h = f - c * delta
        witness = np.trace(h.riesz @ x0).real
        if not (lam_min(x0) > 0 and witness < -0.5 * WITNESS_MARGIN / s.d):
            raise AssertionError("negative witness construction failed")
        return h

    def _positivity_ops(self, s, rng, positives):
        """``positives`` schedule points r delta + f of one boundary f, then
        one witnessed negative; on a full algebra lambda_min decides."""
        delta = dual.faithful_state(s)
        f = self._boundary_functional(s, rng)
        hs = [float(r) * delta + f for r in rng.choice(SCHEDULE, positives, replace=False)]
        hs.append(self._witnessed_negative(s, delta, rng))
        for i, h in enumerate(hs):
            expected = i < positives if not s.is_full else lam_min(h.riesz) >= -1e-8
            yield Op("dual.is_positive_functional",
                     partial(dual.is_positive_functional, h), verdict_is(expected))

    @staticmethod
    def _radius_check(ambient: float, lower: float, exact: bool):
        """Full algebra: the closed form.  Proper subsystem: between the
        value at the unit and the ambient full-algebra radius."""
        def check(r):
            if r is None:
                return FAIL
            if exact:
                return expect(abs(r - ambient) <= RADIUS_TOL * max(1.0, ambient))
            return expect(lower - RADIUS_TOL <= r <= ambient + RADIUS_TOL)
        return check

    def _trace_radius_op(self, s, rng):
        delta = dual.faithful_state(s)
        g = dual.random_hermitian_functional(s, rng)
        ambient = max(0.0, s.d * lam_max(g.riesz))
        lower = max(0.0, np.trace(g.riesz).real)  # (r delta - g)(I) >= 0
        return Op("dual.dual_order_unit_radius",
                  partial(dual.dual_order_unit_radius, delta, g, 1),
                  self._radius_check(ambient, lower, s.is_full))

    def _series_radius_op(self, s, rng):
        """Non-trace faithful state: a series of three random states."""
        raw = []
        for _ in range(3):
            p = low_rank_psd(rng, s.d, s.d) + 0.1 * np.eye(s.d)
            raw.append(p / np.trace(p).real)
        delta = dual.series_state([dual.Functional(s, p) for p in raw])
        weights = np.array([0.5, 0.25, 0.125]) / 0.875  # series_state's default
        d_raw = sum(w * p for w, p in zip(weights, raw))  # extends delta to M_d
        g = dual.random_hermitian_functional(s, rng)
        chol_inv = np.linalg.inv(np.linalg.cholesky(d_raw))
        ambient = max(0.0, lam_max(chol_inv @ g.riesz @ chol_inv.conj().T))
        lower = max(0.0, np.trace(g.riesz).real)  # delta(I) = 1
        return Op("dual.dual_order_unit_radius",
                  partial(dual.dual_order_unit_radius, delta, g, 1),
                  self._radius_check(ambient, lower, s.is_full))

    def round(self, rng):
        # fresh random systems every round, so a run averages over many
        fresh = [systems.random_system(rng, d=3, generators=1),
                 systems.random_system(rng, d=4, generators=2)]
        warm(fresh)
        small, large = self.named[:2], self.named[2:] + fresh
        # six schedule points on each M_3/M_4 system make their positive
        # verdicts most of the ops, so the round's median lies inside them
        # rather than at a jump between op kinds
        for positives, group in ((1, small), (6, large)):
            for s in group:
                yield from self._positivity_ops(s, rng, positives)
                yield self._trace_radius_op(s, rng)
        for s in small + [self.full]:
            yield self._series_radius_op(s, rng)
        yield from self._positivity_ops(self.full, rng, 1)
        yield self._trace_radius_op(self.full, rng)


# ----------------------------------------------------------------------------
# cp-certify
# ----------------------------------------------------------------------------

def pin_constraints(system, target):
    """Pin every Hermitian basis coordinate of ``target`` (feasibility-oracle)."""
    basis = system.hermitian_basis
    vals = np.real(np.einsum("aij,ji->a", basis, target))
    return [(b, float(v)) for b, v in zip(basis, vals)]


def dykstra_check(expect_feasible: bool, problem):
    """Oracle for a Dykstra verdict; a feasible witness is re-verified."""
    def check(verdict):
        if verdict.status == "undecided":
            return UNDECIDED
        if (verdict.status == "feasible") != expect_feasible:
            return FAIL
        if verdict.status == "feasible":
            w = verdict.witness
            residual = max(abs(np.trace(a @ w).real - b) for a, b in problem.constraints)
            return expect(residual <= 1e-6 and lam_min(w) >= -1e-6)
        return PASS
    return check


class CPCertify(Workload):
    """is_cp at levels 2-3 over a small pool plus pinned Dykstra instances."""

    name = "cp-certify"
    trace_rounds = 6

    def setup(self, rng):
        named = systems.named_system
        self.pool = [named("pauli-span"), named("diag:3"), named("toeplitz:3")]
        self.full = {d: named(f"full:{d}") for d in range(2, 9)}
        warm(self.pool + list(self.full.values()))
        # Choi matrix of the transpose map on M_2 is the swap, eigenvalue -1
        swap = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                swap[2 * i + j, 2 * j + i] = 1.0
        self.swap_problem = feasibility.FeasibilityProblem(
            4, pin_constraints(self.full[4], swap), tol=PIN_TOL)
        self.swap_grid = dual.MatrixFunctional.from_choi(self.full[2], swap)

    def _grids(self, s, n, rng):
        """A CP grid (PSD Choi data) and a grid refuted by x in M_n(S)+."""
        side = n * s.d
        w = low_rank_psd(rng, side, side // 2) + CP_MARGIN * np.eye(side)
        yield dual.MatrixFunctional.from_choi(s, w), True
        x = systems.random_positive_element(s, rng, level=n)
        t = (np.trace(x @ w).real + CP_WITNESS * np.linalg.norm(x)) / np.trace(x @ x).real
        c = w - t * x
        if not (lam_min(x) > 0 and np.trace(x @ c).real < 0):
            raise AssertionError("CP witness construction failed")
        yield dual.MatrixFunctional.from_choi(s, c), False

    def round(self, rng):
        # the named pool is reused by every round; the random systems are
        # fresh, since Dykstra's iteration count depends on their geometry
        fresh = [systems.random_system(rng, d=d, generators=1) for d in (2, 3)]
        warm(fresh)
        for s in self.pool + fresh:
            for n in (2, 3):
                for grid, expected in self._grids(s, n, rng):
                    yield Op("dual.is_cp", partial(dual.is_cp, grid), verdict_is(expected))
        for d, full in self.full.items():
            while True:
                w0 = systems.random_hermitian_element(full, rng)
                lam = lam_min(w0)
                if not (-10 * PIN_TOL < lam < -PIN_TOL):
                    break
            problem = feasibility.FeasibilityProblem(d, pin_constraints(full, w0), tol=PIN_TOL)
            yield Op("feasibility.dykstra_solve", partial(feasibility.dykstra_solve, problem),
                     dykstra_check(lam >= -PIN_TOL, problem))
        yield Op("feasibility.dykstra_solve",
                 partial(feasibility.dykstra_solve, self.swap_problem),
                 dykstra_check(False, self.swap_problem))
        yield Op("dual.is_cp", partial(dual.is_cp, self.swap_grid), verdict_is(False))


# ----------------------------------------------------------------------------
# tower-scale
# ----------------------------------------------------------------------------

def partial_trace_right(f: np.ndarray, m: int) -> np.ndarray:
    """Trace out the right tensor factor C^m of a (d m) x (d m) matrix."""
    d = f.shape[0] // m
    return np.einsum("acbc->ab", f.reshape(d, m, d, m))


class TowerScale(Workload):
    """Fresh full:d systems and matrix-doubling towers, depth-4 duality."""

    name = "tower-scale"
    SIZES = (8, 16, 24)
    DEPTH = 4
    # 7 builds and checks, 2 x 26 threads and 141 amplifications, all on
    # the deepest embedding, make a 200-op round whose p50 falls inside the
    # apply_level ops and whose p90 falls inside the pullbacks, away from a
    # jump between op kinds
    PULLBACKS = 26
    APPLY_LEVELS = 141

    @staticmethod
    def _full_check(d):
        def check(s):
            b = np.stack(s.basis)
            gram = np.einsum("aij,bij->ab", b.conj(), b)
            return expect(s.dim == d * d and np.abs(gram - np.eye(d * d)).max() <= 1e-10)
        return check

    @staticmethod
    def _doubling_check(depth):
        def check(t):
            if t.depth != depth:
                return FAIL
            for k in range(1, depth + 1):
                if t.stage(k).d != 2 ** k or t.stage(k).dim != 4 ** k:
                    return FAIL
            for emb in t.embeddings:
                expected = np.stack([np.kron(b, np.eye(2)) for b in emb.source.basis])
                if np.abs(emb.images - expected).max() > 1e-12:
                    return FAIL
            return PASS
        return check

    def _pullback_check(self, f_top):
        """Stage k of the thread is the partial trace of F over C^(2^(K-k))."""
        def check(thread):
            for k in range(1, self.DEPTH + 1):
                expected = partial_trace_right(f_top, 2 ** (self.DEPTH - k))
                if np.abs(thread.entry(k).riesz - expected).max() > 1e-9 * max(1.0, np.abs(f_top).max()):
                    return FAIL
            return PASS
        return check

    def _pairing_check(self, f_top, x, k):
        expected = np.trace(f_top @ np.kron(x, np.eye(2 ** (self.DEPTH - k))))
        return lambda val: expect(abs(val - expected) <= 1e-9 * max(1.0, abs(expected)))

    @staticmethod
    def _apply_level_check(x, d):
        n = x.shape[0] // d
        blocks = x.reshape(n, d, n, d).transpose(0, 2, 1, 3)
        expected = np.block([[np.kron(blocks[i, j], np.eye(2)) for j in range(n)]
                             for i in range(n)])
        return lambda y: expect(np.abs(y - expected).max() <= 1e-12)

    def round(self, rng):
        for d in self.SIZES:
            yield Op("systems.named_system",
                     partial(systems.named_system, f"full:{d}"), self._full_check(d))
        yield Op("towers.make_tower", partial(towers.make_tower, "matrix-doubling:3"),
                 self._doubling_check(3))
        tower = yield Op("towers.make_tower",
                         partial(towers.make_tower, f"matrix-doubling:{self.DEPTH}"),
                         self._doubling_check(self.DEPTH))
        if tower is None:  # the build failed; the failure is already counted
            return
        top = tower.stage(self.DEPTH)
        for i in range(self.PULLBACKS):
            f_top = gaussian(rng, top.d)
            thread = yield Op("towers.pullback_thread",
                              partial(towers.pullback_thread, tower, dual.Functional(top, f_top)),
                              self._pullback_check(f_top))
            if thread is None:
                continue
            k = 1 + i % self.DEPTH
            x = systems.random_element(tower.stage(k), rng)
            yield Op("towers.pairing", partial(towers.pairing, tower.thread(k, x), thread),
                     self._pairing_check(f_top, x, k))
        k = self.DEPTH - 1
        for _ in range(self.APPLY_LEVELS):
            x = systems.random_element(tower.stage(k), rng, level=2)
            yield Op("towers.Embedding.apply_level",
                     partial(tower.embeddings[k - 1].apply_level, x),
                     self._apply_level_check(x, 2 ** k))
        sub = np.random.default_rng(rng.integers(2 ** 32))
        yield Op("towers.verify_dual_cones",
                 partial(towers.verify_dual_cones, tower, 10, rng=sub),
                 lambda rep: expect(rep["passed"]))
        sub = np.random.default_rng(rng.integers(2 ** 32))
        yield Op("towers.verify_gamma",
                 partial(towers.verify_gamma, tower, 5, 2, rng=sub),
                 lambda rep: expect(rep["passed"]))


# ----------------------------------------------------------------------------
# norm-sweep
# ----------------------------------------------------------------------------

def op_norm(a) -> float:
    return float(np.linalg.norm(a, 2))


class NormSweep(Workload):
    """norm_report, Hermitian coincidence, compressions, order-unit radii."""

    name = "norm-sweep"
    trace_rounds = 12
    tail_cap = 99.0

    def setup(self, rng):
        # fixed generator counts, so every seed gets the same dimensions
        self.pool = [systems.random_system(rng, d=d, generators=g)
                     for d in (2, 3, 4, 5) for g in (1, 2)]
        self.diag2 = systems.named_system("diag:2")
        warm(self.pool + [self.diag2])
        self.sandwich_gaps = []

    def _report_check(self, v):
        """min <= op <= max_upper <= 2 min, max_lower = op, h only if Hermitian."""
        op = op_norm(v)

        def check(rep):
            chain = (rep.min - rep.op, rep.op - rep.max_upper,
                     rep.max_lower - rep.max_upper, rep.max_upper - 2.0 * rep.min)
            ok = (max(chain) <= NORM_SLACK and abs(rep.op - op) <= 1e-9 * max(1.0, op)
                  and abs(rep.max_lower - op) <= 1e-9 * max(1.0, op) and rep.h is None)
            if ok:
                self.sandwich_gaps.append((rep.max_upper - rep.max_lower) / rep.max_lower)
            return expect(ok)
        return check

    def _hermitian_ops(self, s, rng):
        h = systems.random_hermitian_element(s, rng)
        w = np.linalg.eigvalsh(h)
        hnorm = float(max(w[-1], -w[0]))
        close = lambda val: expect(abs(val - hnorm) <= 1e-8 * max(1.0, hnorm))
        yield Op("norms.order_norm_h", partial(norms.order_norm_h, s, h), close)
        yield Op("norms.min_order_norm", partial(norms.min_order_norm, s, h), close)
        yield Op("norms.max_order_norm", partial(norms.max_order_norm, s, h),
                 lambda lu: expect(abs(lu[0] - hnorm) <= 1e-8 * max(1.0, hnorm)
                                   and lu[1] - hnorm <= NORM_SLACK))

    def _compression_ops(self, s, rng):
        """A unital compression never increases the min and max norms."""
        k = int(rng.integers(2, s.d + 1))
        q, _ = np.linalg.qr(gaussian(rng, s.d))
        p = q[:, :k]
        small = systems.make_operator_system([p.conj().T @ b @ p for b in s.basis], k)
        v = systems.random_element(s, rng)
        w = p.conj().T @ v @ p
        radius_bounds = lambda a: lambda val: expect(
            op_norm(a) / 2 - 1e-9 <= val <= op_norm(a) + 1e-9)  # ||a||/2 <= w(a) <= ||a||
        big_min = yield Op("norms.min_order_norm", partial(norms.min_order_norm, s, v),
                           radius_bounds(v))
        yield Op("norms.min_order_norm", partial(norms.min_order_norm, small, w),
                 lambda val: expect(big_min is not None and val <= big_min + 1e-7
                                    and radius_bounds(w)(val) == PASS))
        sandwich = lambda a: lambda lu: expect(
            abs(lu[0] - op_norm(a)) <= 1e-9 * max(1.0, op_norm(a)) and lu[0] <= lu[1] <= 2 * op_norm(a) + 1e-9)
        big_max = yield Op("norms.max_order_norm", partial(norms.max_order_norm, s, v), sandwich(v))
        yield Op("norms.max_order_norm", partial(norms.max_order_norm, small, w),
                 lambda lu: expect(big_max is not None and lu[1] <= big_max[1] + 1e-7
                                   and sandwich(w)(lu) == PASS))

    def _unit_ops(self, s, rng):
        """Order-unit radii of a positive-definite e, exact by a congruence."""
        hh = systems.random_hermitian_element(s, rng, scale=0.4)
        e = hh + (max(0.0, -lam_min(hh)) + 0.25) * np.eye(s.d)
        for n in (1, 2, 3):
            x = systems.random_hermitian_element(s, rng, level=n)
            l_inv = np.linalg.inv(np.linalg.cholesky(np.kron(np.eye(n), e)))
            exact = max(0.0, lam_max(l_inv @ x @ l_inv.conj().T))
            yield Op("systems.order_unit_radius_level",
                     partial(systems.order_unit_radius_level, s, e, x),
                     lambda r, exact=exact: expect(
                         r is not None and abs(r - exact) <= 1e-6 * max(1.0, exact)))
        sub = np.random.default_rng(rng.integers(2 ** 32))
        yield Op("systems.is_matrix_order_unit",
                 partial(systems.is_matrix_order_unit, s, e, 3, samples_per_level=8, rng=sub),
                 lambda rep: expect(rep.ok and all(r is not None for rs in rep.radii.values()
                                                   for r in rs)))

    def round(self, rng):
        for i, s in enumerate(self.pool):
            v = systems.random_element(s, rng)
            yield Op("norms.norm_report",
                     partial(norms.norm_report, s, v, subgrad_iters=SUBGRAD_ITERS * (i % 2)),
                     self._report_check(v))
            yield from self._hermitian_ops(s, rng)
            yield from self._compression_ops(s, rng)
            yield from self._unit_ops(s, rng)
        e_bad = np.diag([1.0, 0.0]).astype(complex)  # not an order unit of diag:2
        yield Op("systems.is_matrix_order_unit",
                 partial(systems.is_matrix_order_unit, self.diag2, e_bad, 1),
                 lambda rep: expect(not rep.ok and rep.counterexample_level == 1))


WORKLOADS = {w.name: w for w in (SectionPositivity, CPCertify, TowerScale, NormSweep)}
