"""Embedded first-order conic solver.

ADMM applied to the homogeneous self-dual embedding of

    min c'x  s.t.  Ax + s = b,  s in K

so a single iteration stream yields either an optimal primal-dual pair or
an infeasibility certificate.  The embedding variable is u = (x, y, tau)
with companion v = (0, s, kappa); each iteration solves one quasidefinite
linear system and projects onto R^n x K* x R+.

The splitting runs in the metric R = diag(I, I / scale, 1), as in SCS 3
(O'Donoghue, "Operator splitting for a homogeneous embedding of the linear
complementarity problem", SIAM J. Optim. 2021).  In R^1/2 coordinates its
step is SCS 1's step on the same data with A and b times sqrt(scale), and
K does not change under a positive scalar; so the metric is a factor
sqrt(scale) in the row equilibration, d = sqrt(scale) d_ruiz, and the
linear step factorizes [[I, As'], [As, -I]].  The Anderson step and its
safeguard then measure the metric's own norm.  b is normalised to norm
sqrt(scale) and c to norm sqrt(_SCALE_START).

The scale starts at _SCALE_START.  At each convergence check the ratio of
the relative primal residual ||As x + s - bs tau|| / max(||As x||, ||s||,
||bs tau||) to the relative dual residual ||As'y + cs tau|| / max(||As'y||,
||cs tau||) joins a geometric mean taken since the last update; a larger
scale weights y less and lowers the primal residual faster.  Once
_SCALE_MIN_ITERS iterations have passed since the last update and the mean
moves the scale by a factor of _SCALE_STEP or more, the scale is
multiplied by it (within a factor _SCALE_RANGE of the start), As, bs and
the KKT matrix are rebuilt, u and v are mapped to the same point in the
new metric and the Anderson memory is emptied.  A solve refactors at most
_MAX_REFACTORS times.  These are constants, not settings.

As SCS keeps ScsWork, a solve sets up a _Workspace once (equilibration,
factorization, buffers, K's layout) and its run() iterates.  check() is the
one exit, so k iterations with r refactors cost 1 + r factorizations,
k + 1 + r KKT solves and k projections.  The CSC pattern of the KKT matrix
is built once per solve from A's indptr and indices, as OSQP keeps its KKT
pattern; a factorization only refills its values, As = (a d) e entry by
entry and the same values scattered into the transposed block, which
gives bit for bit what SciPy's diag(d) A diag(e) and bmat give.

A KKT solve is one SuperLU solve.  Its residual bound is checked on the
rank-one direction g of each factorization and on the last solve before
each convergence check that goes on; a miss refines that solve, and every
later solve of the factorization is refined per call (linalg).  No status
rests on that bound: check() decides optimality and the certificates from
residuals it computes on the problem's own A, b and c, so a less accurate
KKT solve can slow convergence but cannot make a status claim more than
the iterate proves.  Solution.refined_solves counts the refined solves.

The fixed-point map on w = u - v is accelerated by type-II Anderson
acceleration (Zhang, O'Donoghue and Boyd, SIAM J. Optim. 2020): the last
_ACCEL_MEMORY differences of the iterate and of the fixed-point residual
sit in ring buffers, their Gram matrix is updated by one row and column
per step, and the weights come from its normal equations, regularised by
_AA_REG times its trace, as in SCS 3's aa.c.  So a step costs
O(_ACCEL_MEMORY * (n + m)) array work and allocates no history.  A
safeguard rejects an accelerated point whose residual grew, and the
Solution counts accepted, rejected and reset steps.

Deterministic: no random state anywhere in the loop.
"""
from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dposv

from . import cones as cone_ops
from .canon import ConeProgram
from .errors import InputError, NumericError
from .linalg import QuasidefSolver

_RUIZ_SWEEPS = 10
_MIN_SCALE = 1e-6
_TAU_FLOOR = 1e-9
_ACCEL_NORM_FLOOR = 1e-3
_ALPHA = 1.5          # over-relaxation of the splitting step, in (0, 2)
_CHECK_INTERVAL = 25  # iterations between convergence checks
_ACCEL_MEMORY = 10    # Anderson differences kept
# Tikhonov weight of the Anderson normal equations, relative to tr(YY').
# On the gallery 1e-14 keeps every iteration count of the unregularised
# least squares; 1e-10 gives worst_cov's tie-break solve 800 (not 775),
# and 1e-8 gives quantile_reg 1,325 (not 1,250).
_AA_REG = 1e-14
# The KKT metric R = diag(I, I / scale, 1) and its scale rule (see the
# module docstring); the values were measured on the gallery.
_SCALE_START = 3.0
_SCALE_STEP = 1.5       # the least step, up or down, that refactors
_SCALE_MIN_ITERS = 100  # iterations from one update to the next
_MAX_REFACTORS = 5
_SCALE_RANGE = 10.0     # the scale stays within this factor of the start


@dataclass(frozen=True)
class SolverSettings:
    max_iters: int = 50000
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6

    def __post_init__(self):
        if (not isinstance(self.max_iters, numbers.Integral)
                or isinstance(self.max_iters, bool) or self.max_iters < 1):
            raise InputError(f"max_iters must be an integer >= 1, "
                             f"got {self.max_iters!r}")
        for name in ("eps_abs", "eps_rel"):
            val = getattr(self, name)
            if (not isinstance(val, numbers.Real) or not math.isfinite(val)
                    or val < 0):
                raise InputError(f"{name} must be a finite number >= 0, "
                                 f"got {val!r}")


@dataclass
class Solution:
    status: str
    x: np.ndarray
    y: np.ndarray
    s: np.ndarray
    objective: float
    residuals: tuple
    iterations: int
    solve_time: float
    history: list
    certificate: dict | None
    # Anderson steps: accepted (the accelerated point was taken), rejected
    # (the safeguard reverted an accepted point) and resets (the memory was
    # emptied for another cause: a non-finite residual, or an extrapolation
    # that was singular, non-finite or collapsed toward w = 0)
    anderson: dict
    # the scale of the KKT metric: its start and final values and the
    # number of refactors that moved it
    scale: dict
    # KKT solves that missed the residual bound and were refined
    refined_solves: int

    def metrics(self) -> dict:
        """The figures a solve reports, in the order of the `conedsl solve`
        record; `Result.metrics` and that record are this dict."""
        return {"residuals": self.residuals, "iterations": self.iterations,
                "anderson": self.anderson, "scale": self.scale,
                "refined_solves": self.refined_solves,
                "solve_time": self.solve_time}


def _runs(counts):
    """The runs of the given lengths that are not empty, and the first
    position of each."""
    full = np.flatnonzero(counts)
    return full, (np.cumsum(counts) - counts)[full]


def _equilibrate(A: sp.csc_matrix, layout, cols, by_row):
    """Ruiz-style alternating row/col scaling; returns (d, e) with the
    scaled matrix being diag(d) A diag(e).  Rows inside a single SOC, PSD
    or EXP block receive one common factor (geometric mean) so cone
    membership is preserved under the scaling.  cols holds the column of
    each of A's stored entries and by_row puts them in row order; the row
    and column maxima are taken over the entries in row order and in A's
    own order."""
    m, n = A.shape
    d = np.ones(m)
    e = np.ones(n)
    if A.nnz == 0:
        return d, e
    rows, vals = A.indices, np.abs(A.data)
    rows_r, cols_r, vals_r = rows[by_row], cols[by_row], vals[by_row]
    full_rows, row_starts = _runs(np.bincount(rows, minlength=m))
    full_cols, col_starts = _runs(np.diff(A.indptr))
    # the SOC, PSD and EXP blocks come last in K's rows: they tile the
    # rows from `lo` to the end
    starts = np.concatenate([np.zeros(0, np.int64)] + [
        start + blk.starts for kind, start, _, blk in layout.kinds
        if kind in ("soc", "psd", "exp")])
    lo = starts[0] if starts.size else m
    starts -= lo
    sizes = np.diff(starts, append=m - lo)
    for _ in range(_RUIZ_SWEEPS):
        rmax = np.zeros(m)
        rmax[full_rows] = np.maximum.reduceat(vals_r * d[rows_r] * e[cols_r],
                                              row_starts)
        rmax[rmax == 0] = 1.0
        if sizes.size:
            logs = np.add.reduceat(np.log(rmax[lo:]), starts)
            rmax[lo:] = np.repeat(np.exp(logs / sizes), sizes)
        d /= np.sqrt(rmax)
        cmax = np.zeros(n)
        cmax[full_cols] = np.maximum.reduceat(vals * d[rows] * e[cols],
                                              col_starts)
        cmax[cmax == 0] = 1.0
        e /= np.sqrt(cmax)
    return d, e


class _KKTPattern:
    """The CSC pattern of K = [[I, A'], [A, -I]], laid out as sp.bmat lays
    it out, built once per solve from A's indptr and indices.  Column j < n
    holds the 1 at row j and then column j of A; column n + i holds row i
    of A and then the -1 at row n + i.  So A's entry k sits at k + cols[k]
    + 1, and the t-th entry in row order at nnz + n + row + t."""

    def __init__(self, A: sp.csc_matrix, cols, by_row):
        m, n = A.shape
        nnz = A.nnz
        self.shape = (n + m, n + m)
        counts = np.concatenate([np.diff(A.indptr),
                                 np.bincount(A.indices, minlength=m)]) + 1
        indptr = np.zeros(n + m + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        k = np.arange(nnz)
        # where each of A's entries sits, in A's order: in the lower block
        # and in the transposed block
        self.at_a = k + cols + 1
        self.at_t = np.empty(nnz, dtype=np.int64)
        self.at_t[by_row] = k + nnz + n + A.indices[by_row]
        top, bottom = indptr[:n], indptr[n + 1:] - 1
        indices = np.empty(indptr[-1], dtype=np.int64)
        indices[top] = np.arange(n)
        indices[bottom] = np.arange(n, n + m)
        indices[self.at_a] = A.indices + n
        indices[self.at_t] = cols
        self.template = np.empty(indptr[-1])
        self.template[top] = 1.0
        self.template[bottom] = -1.0
        # the index arrays in the dtype SciPy chooses, so that refills
        # share them without a conversion
        base = sp.csc_matrix((self.template, indices, indptr),
                             shape=self.shape)
        self.indices, self.indptr = base.indices, base.indptr

    def matrix(self, as_data):
        """K with As, whose stored values in A's order are as_data."""
        data = self.template.copy()
        data[self.at_a] = as_data
        data[self.at_t] = as_data
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


class _AndersonMemory:
    """The last _ACCEL_MEMORY differences of the iterate w (rows of S) and
    of the fixed-point residual g (rows of Y), kept in ring buffers, with
    G = Y Y' updated by one row and one column per push.

    The live rows are always the first `count` rows: the memory fills from
    row 0 after a clear and overwrites the oldest row once full.
    """

    def __init__(self, dim: int):
        self.S = np.zeros((_ACCEL_MEMORY, dim))
        self.Y = np.zeros((_ACCEL_MEMORY, dim))
        self.G = np.zeros((_ACCEL_MEMORY, _ACCEL_MEMORY))
        self._prev_w = np.empty(dim)
        self._prev_g = np.empty(dim)
        self.count = 0
        self._next = 0          # the row the next difference overwrites
        self._has_prev = False
        # the steps of a solve, as Solution.anderson reports them
        self.counts = {"accepted": 0, "rejected": 0, "resets": 0}

    def clear(self, why: str | None = None):
        """Empty the memory, counting the step as `why` (rejected, resets)
        if given."""
        if why is not None:
            self.counts[why] += 1
        self.count = 0
        self._next = 0
        self._has_prev = False

    def push(self, w, g):
        """Record the pair (w, g); from the second pair on, store its
        differences from the one before."""
        if self._has_prev:
            k = self._next
            np.subtract(w, self._prev_w, out=self.S[k])
            np.subtract(g, self._prev_g, out=self.Y[k])
            self.count = min(self.count + 1, _ACCEL_MEMORY)
            self._next = (k + 1) % _ACCEL_MEMORY
            col = self.Y[:self.count] @ self.Y[k]
            self.G[k, :self.count] = col
            self.G[:self.count, k] = col
        self._prev_w[:] = w
        self._prev_g[:] = g
        self._has_prev = True

    def extrapolate(self, w_plain, g):
        """The type-II point w_plain - gamma'(S + Y), where gamma solves
        (G + r I) gamma = Y g with r = _AA_REG tr(G), or None when that
        system is not numerically positive definite or the point is not
        finite."""
        k = self.count
        lhs = self.G[:k, :k].copy()
        lhs.flat[::k + 1] += _AA_REG * np.trace(lhs)
        _, gamma, info = dposv(lhs, self.Y[:k] @ g, overwrite_a=1)
        if info != 0:
            return None
        cand = w_plain - gamma @ self.S[:k]
        cand -= gamma @ self.Y[:k]
        return cand if np.all(np.isfinite(cand)) else None


class _Workspace:
    """A solve's setup and the state of its scale: the Ruiz scales d_ruiz
    and e with the scales sigma of b and rho of c, the equilibration
    diag(d) A diag(e) with d = sqrt(scale) d_ruiz and its KKT matrix
    factorized, the KKT pattern that each factorization refills, the
    buffers of the embedding's linear solve, the norms of b and c, K's
    layout, the refined KKT solves, and the residual ratios averaged since
    the last refactor."""

    def __init__(self, cp: ConeProgram):
        self.t0 = time.perf_counter()
        self.cp = cp
        n, m = self.n, self.m = cp.n, cp.m
        # the column of each stored entry, and the entries in row order (by
        # column within a row)
        cols = np.repeat(np.arange(n), np.diff(cp.A.indptr))
        by_row = np.argsort(cp.A.indices, kind="stable")
        self.layout = cone_ops.layout(cp.cones)
        self.d_ruiz, self.e = _equilibrate(cp.A, self.layout, cols, by_row)
        self.e_cols = self.e[cols]
        self.kkt = _KKTPattern(cp.A, cols, by_row)
        cs = self.e * cp.c
        # b to norm sqrt(scale) and c to norm sqrt(_SCALE_START): the first
        # iteration is SCS 1's on A, b and c times sqrt(_SCALE_START)
        self.sigma = 1.0 / max(np.linalg.norm(self.d_ruiz * cp.b), _MIN_SCALE)
        self.rho = math.sqrt(_SCALE_START) / max(np.linalg.norm(cs),
                                                 _MIN_SCALE)
        self.cs = self.rho * cs
        self.rhs = np.empty(n + m)
        self.norm_b, self.norm_c = np.linalg.norm(cp.b), np.linalg.norm(cp.c)
        self.refactors = self.last_update = self.log_count = 0
        self.refined = 0     # refined KKT solves of earlier factorizations
        self.log_sum = 0.0
        self.factor(_SCALE_START)

    def factor(self, scale):
        """Set the row scale d = sqrt(scale) d_ruiz, rebuild As, bs and cb
        from the problem's data, factorize [[I, As'], [As, -I]] (its values
        refilled in the pattern of the solve), and solve it for g, the
        embedding's rank-one direction, refined if it misses the residual
        bound."""
        cp, n, cs, A = self.cp, self.n, self.cs, self.cp.A
        self.scale = scale
        d = self.d = math.sqrt(scale) * self.d_ruiz
        # (a d) e, the order in which diag(d) A diag(e) rounds
        as_data = A.data * d[A.indices] * self.e_cols
        self.As = sp.csc_matrix((as_data, A.indices, A.indptr),
                                shape=A.shape)
        bs = self.bs = self.sigma * d * cp.b
        self.cb = np.concatenate([cs, bs])
        self.fac = QuasidefSolver(self.kkt.matrix(as_data))
        rhs = np.concatenate([cs, -bs])
        g = self.fac.refine(rhs, self.fac.solve(rhs))
        self.denom = 1.0 + cs @ g[:n] + bs @ g[n:]
        if not np.isfinite(self.denom) or self.denom <= 0:
            raise NumericError("homogeneous embedding system is singular")
        self.g_ext = np.append(g, -1.0)    # [g; -1]

    def embed_solve(self, w):
        """The embedding's linear step (I + Q)^-1 w: a KKT solve plus a
        rank-one term."""
        n, rhs = self.n, self.rhs
        rhs[:n] = w[:n]
        np.negative(w[n:-1], out=rhs[n:])
        h = self.h = self.fac.solve(rhs)
        zt = (w[-1] + self.cb @ h) / self.denom
        out = self.g_ext * -zt
        out[:-1] += h
        return out

    def proj(self, w):
        """The projection of w onto R^n x K* x R+."""
        out = w.copy()
        out[self.n:-1] = cone_ops.project_dual(self.layout, w[self.n:-1])
        out[-1] = max(out[-1], 0.0)
        return out

    def unscale(self, u, v):
        """The raw directions (x, y, s) of the embedding in the problem's
        own scale; the point they give divided by sigma * tau (x, s) and
        rho * tau (y); its residuals (primal, dual, gap); and the scale
        |c'x| + |b'y| of the gap."""
        cp, n = self.cp, self.n
        tau = max(u[-1], _TAU_FLOOR)
        dirs = xdir, ydir, sdir = (self.e * u[:n], self.d * u[n:-1],
                                   v[n:-1] / self.d)
        x = xdir / (self.sigma * tau)
        y = ydir / (self.rho * tau)
        s = sdir / (self.sigma * tau)
        ctx, bty = cp.c @ x, cp.b @ y
        resid = (np.linalg.norm(cp.A @ x + s - cp.b),
                 np.linalg.norm(cp.A.T @ y + cp.c), abs(ctx + bty))
        return dirs, (x, y, s), resid, abs(ctx) + abs(bty)

    def check(self, it, u, v, settings, fp_res, history):
        """Append the history record of iteration `it`, and return the end
        of the solve, (status, x, y, s, residuals, certificate), if it ends
        here: optimal, infeasible, or at the last iteration."""
        cp, n, m, tau = self.cp, self.n, self.m, u[-1]
        (xdir, ydir, sdir), point, resid, gap_scale = self.unscale(u, v)
        nan3 = (float("nan"),) * 3
        # NaN, which fails every test below, while tau is at its floor
        pres, dres, gap = resid if tau > _TAU_FLOOR else nan3
        history.append({"iter": it, "pres": pres, "dres": dres, "gap": gap,
                        "tau": tau, "kappa": v[-1], "fp_res": fp_res})
        eps_abs, eps_rel = settings.eps_abs, settings.eps_rel
        if (pres <= eps_abs + eps_rel * self.norm_b
                and dres <= eps_abs + eps_rel * self.norm_c
                and gap <= eps_abs + eps_rel * gap_scale):
            return "optimal", *point, resid, None

        # the certificates use the raw directions (no division by tau)
        bty_dir = cp.b @ ydir
        if bty_dir < 0 and self.norm_b > 0:
            res = np.linalg.norm(cp.A.T @ ydir)
            if res <= eps_abs * -bty_dir / self.norm_b:
                y = ydir / (-bty_dir)
                return ("primal_infeasible", np.full(n, np.nan), y,
                        np.full(m, np.nan), nan3,
                        {"kind": "primal", "b_dot_y": -1.0,
                         "residual": float(np.linalg.norm(cp.A.T @ y))})
        ctx_dir = cp.c @ xdir
        if ctx_dir < 0 and self.norm_c > 0:
            res = np.linalg.norm(cp.A @ xdir + sdir)
            if res <= eps_abs * -ctx_dir / self.norm_c:
                scale = 1.0 / (-ctx_dir)
                return ("dual_infeasible", xdir * scale, np.full(m, np.nan),
                        sdir * scale, nan3,
                        {"kind": "dual", "c_dot_x": -1.0,
                         "residual": float(res * scale)})
        if it == settings.max_iters:
            return "max_iters_reached", *point, resid, None
        return None

    def retune(self, it, u, v):
        """Fold this check's ratio of the relative primal to the relative
        dual residual of the equilibrated data into their geometric mean
        since the last update. Refactor at scale * mean (within a factor
        _SCALE_RANGE of the start) when that moves the scale by a factor
        of _SCALE_STEP or more, at least _SCALE_MIN_ITERS iterations after
        the last update, and at most _MAX_REFACTORS times. A refactor maps
        u and v in place to the same x, y, s, tau and kappa in the new
        metric; return whether one happened."""
        n, tau, norm = self.n, u[-1], np.linalg.norm
        s = v[n:-1]
        ax, aty = self.As @ u[:n], self.As.T @ u[n:-1]
        btau, ctau = tau * self.bs, tau * self.cs
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (norm(ax + s - btau) * max(norm(aty), norm(ctau))
                     / (norm(aty + ctau) * max(norm(ax), norm(s), norm(btau))))
        if np.isfinite(ratio) and ratio > 0:
            self.log_sum += math.log(ratio)
            self.log_count += 1
        if (self.refactors == _MAX_REFACTORS or not self.log_count
                or it - self.last_update < _SCALE_MIN_ITERS):
            return False
        step = math.exp(self.log_sum / self.log_count)
        scale = min(max(self.scale * step, _SCALE_START / _SCALE_RANGE),
                    _SCALE_START * _SCALE_RANGE)
        if 1.0 / _SCALE_STEP < scale / self.scale < _SCALE_STEP:
            return False
        # y and s keep their values: u_y scales as 1 / d, v_y as d
        shrink = math.sqrt(self.scale / scale)
        self.refined += self.fac.refined
        self.factor(scale)
        self.refactors += 1
        self.last_update, self.log_sum, self.log_count = it, 0.0, 0
        u[n:-1] *= shrink
        v[n:-1] /= shrink
        return True

    def run(self, settings: SolverSettings) -> Solution:
        """Iterate from the conventional start (u, v) = (e_tau, e_kappa)
        until check() ends the solve, which it does by the last iteration."""
        u = np.zeros(self.n + self.m + 1)
        u[-1] = 1.0
        v = u         # e_kappa: the same vector as e_tau
        # After this first step the pair is projection-consistent, so the
        # iteration is a fixed-point map on the single vector w = u - v,
        # with u = proj(w) and v = u - w; this is the form the Anderson
        # accelerator works on.
        w = _ALPHA * self.embed_solve(u + v) + (1.0 - _ALPHA) * u - v

        w_scale = math.sqrt(w @ w)
        memory = _AndersonMemory(w.size)
        history = []
        # after an Anderson step: the plain step and the residual norm of
        # the point it was extrapolated from
        fallback = None
        gnorm = float("nan")

        for it in range(1, settings.max_iters + 1):
            u = self.proj(w)
            v = u - w
            if it % _CHECK_INTERVAL == 0 or it == settings.max_iters:
                end = self.check(it, u, v, settings, gnorm, history)
                if end is not None:
                    status, x, y, s, residuals, certificate = end
                    objective = (float(self.cp.c @ x) if status == "optimal"
                                 else float("nan"))
                    return Solution(status, x, y, s, objective, residuals, it,
                                    time.perf_counter() - self.t0, history,
                                    certificate, memory.counts,
                                    {"start": _SCALE_START,
                                     "final": self.scale,
                                     "refactors": self.refactors},
                                    self.refined + self.fac.refined)
                # the KKT solve that made this iterate meets its residual
                # bound, or this factorization's solves are refined from
                # here on; the status above is checked on cp.A whatever
                # the accuracy of the solves
                self.fac.refine(self.rhs, self.h)
                if self.retune(it, u, v):
                    # the memory and the safeguard's fallback hold points
                    # of the old metric
                    w = u - v
                    memory.clear()
                    fallback = None

            # the fixed-point residual g = F(w) - w of the plain step
            w_plain = w + _ALPHA * (self.embed_solve(2.0 * u - w) - u)
            g = w_plain - w
            gnorm = math.sqrt(g @ g)

            # Anderson step on g, with a safeguard: an accelerated point
            # whose residual is larger than the residual it was extrapolated
            # from is rejected, and the iteration resumes from the plain
            # step of that point with an empty memory.
            last, fallback = fallback, None
            if not np.isfinite(gnorm) or (last is not None
                                          and gnorm > last[1]):
                w = w_plain if last is None else last[0]
                memory.clear("resets" if last is None else "rejected")
                continue
            memory.push(w, g)
            if memory.count:
                cand = memory.extrapolate(w_plain, g)
                # a candidate that collapsed toward w = 0, a trivial fixed
                # point of the homogeneous map that encodes no solution and
                # no certificate, is dropped like a singular one
                if (cand is not None and math.sqrt(cand @ cand)
                        >= _ACCEL_NORM_FLOOR * w_scale):
                    fallback = (w_plain, gnorm)
                    w = cand
                    memory.counts["accepted"] += 1
                    continue
                memory.clear("resets")
            w = w_plain


def solve_cone_program(cp: ConeProgram, settings: SolverSettings | None = None) -> Solution:
    if settings is None:
        settings = SolverSettings()
    if not isinstance(cp, ConeProgram):
        raise InputError("solve_cone_program expects a ConeProgram")
    return _Workspace(cp).run(settings)


def diagnostics(sol: Solution) -> str:
    """Human-readable account of a solve: status, residuals, history."""
    lines = [f"status: {sol.status}",
             f"iterations: {sol.iterations}",
             f"solve_time: {sol.solve_time:.4f} s"]
    aa, sc = sol.anderson, sol.scale
    lines.append(f"anderson: {aa['accepted']} accepted, "
                 f"{aa['rejected']} rejected, {aa['resets']} resets")
    lines.append(f"scale: {sc['start']:.4g} -> {sc['final']:.4g}, "
                 f"{sc['refactors']} refactors")
    lines.append(f"kkt: {sol.refined_solves} refined solves")
    if sol.status == "optimal":
        lines.append(f"objective: {sol.objective:.10g}")
        pres, dres, gap = sol.residuals
        lines.append(f"residuals: primal {pres:.3e}  dual {dres:.3e}  "
                     f"gap {gap:.3e}")
    elif sol.status == "max_iters_reached":
        lines.append("did not converge within the iteration budget")
        pres, dres, gap = sol.residuals
        lines.append(f"last residuals: primal {pres:.3e}  dual {dres:.3e}  "
                     f"gap {gap:.3e}")
    if sol.certificate is not None:
        kind = sol.certificate["kind"]
        what = ("primal infeasibility (dual ray)" if kind == "primal"
                else "dual infeasibility (unbounded ray)")
        lines.append(f"certificate: {what}, residual "
                     f"{sol.certificate['residual']:.3e}")
    if sol.history:
        lines.append("history:")
        lines.append(f"{'iter':>8} {'pres':>12} {'dres':>12} {'gap':>12}")
        for rec in sol.history:
            lines.append(f"{rec['iter']:>8} {rec['pres']:>12.4e} "
                         f"{rec['dres']:>12.4e} {rec['gap']:>12.4e}")
    return "\n".join(lines)
