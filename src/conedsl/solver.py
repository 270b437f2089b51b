"""Embedded first-order conic solver.

ADMM applied to the homogeneous self-dual embedding of

    min c'x  s.t.  Ax + s = b,  s in K

so a single iteration stream yields either an optimal primal-dual pair or
an infeasibility certificate.  The embedding variable is u = (x, y, tau)
with companion v = (0, s, kappa); each iteration solves one quasidefinite
linear system (factorized once) and projects onto R^n x K* x R+, with K's
layout read once per solve.

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

import time
from dataclasses import dataclass, field

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


@dataclass
class SolverSettings:
    max_iters: int = 50000
    eps_abs: float = 1e-6
    eps_rel: float = 1e-6

    def __post_init__(self):
        if self.max_iters < 1:
            raise InputError("max_iters must be positive")
        if self.eps_abs < 0 or self.eps_rel < 0:
            raise InputError("tolerances must be nonnegative")


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
    history: list = field(default_factory=list)
    certificate: dict | None = None
    # Anderson steps: accepted (the accelerated point was taken), rejected
    # (the safeguard reverted an accepted point) and resets (the memory was
    # emptied for another cause: a singular or non-finite extrapolation,
    # the collapse guard, or a non-finite residual)
    anderson: dict = field(default_factory=dict)


def _equilibrate(A: sp.csc_matrix, cones):
    """Ruiz-style alternating row/col scaling; returns (d, e) with the
    scaled matrix being diag(d) A diag(e).  Rows inside a single SOC, PSD
    or EXP block receive one common factor (geometric mean) so cone
    membership is preserved under the scaling."""
    m, n = A.shape
    d = np.ones(m)
    e = np.ones(n)
    if A.nnz == 0:
        return d, e
    coo = A.tocoo()
    rows, cols, vals = coo.row, coo.col, np.abs(coo.data)
    # the SOC, PSD and EXP blocks tile the rows from `lo` to the end
    lo, sizes = cones.cone_blocks()
    sizes = np.array(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    for _ in range(_RUIZ_SWEEPS):
        cur = vals * d[rows] * e[cols]
        rmax = np.zeros(m)
        np.maximum.at(rmax, rows, cur)
        rmax[rmax == 0] = 1.0
        if sizes.size:
            logs = np.add.reduceat(np.log(rmax[lo:]), starts)
            rmax[lo:] = np.repeat(np.exp(logs / sizes), sizes)
        d /= np.sqrt(rmax)
        cur = vals * d[rows] * e[cols]
        cmax = np.zeros(n)
        np.maximum.at(cmax, cols, cur)
        cmax[cmax == 0] = 1.0
        e /= np.sqrt(cmax)
    return d, e


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

    def clear(self):
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


def solve_cone_program(cp: ConeProgram, settings: SolverSettings | None = None) -> Solution:
    if settings is None:
        settings = SolverSettings()
    if not isinstance(cp, ConeProgram):
        raise InputError("solve_cone_program expects a ConeProgram")
    t0 = time.perf_counter()
    n, m = cp.n, cp.m
    d, e = _equilibrate(cp.A, cp.cones)
    As = sp.csc_matrix(sp.diags(d) @ cp.A @ sp.diags(e))
    bs = d * cp.b
    cs = e * cp.c
    sigma = 1.0 / max(np.linalg.norm(bs), _MIN_SCALE)
    rho = 1.0 / max(np.linalg.norm(cs), _MIN_SCALE)
    bs = sigma * bs
    cs = rho * cs

    kkt = sp.bmat([[sp.eye(n), As.T], [As, -sp.eye(m)]], format="csc")
    fac = QuasidefSolver(kkt)
    g = fac.solve(np.concatenate([cs, -bs]))
    denom = 1.0 + cs @ g[:n] + bs @ g[n:]
    if not np.isfinite(denom) or denom <= 0:
        raise NumericError("homogeneous embedding system is singular")

    cb = np.concatenate([cs, bs])
    g_ext = np.append(g, -1.0)    # [g; -1]
    rhs = np.empty(n + m)

    def embed_solve(w):
        rhs[:n] = w[:n]
        np.negative(w[n:n + m], out=rhs[n:])
        h = fac.solve(rhs)
        zt = (w[-1] + cb @ h) / denom
        out = g_ext * -zt
        out[:-1] += h
        return out

    norm_b = np.linalg.norm(cp.b)
    norm_c = np.linalg.norm(cp.c)
    history = []
    status = "max_iters_reached"
    certificate = None
    x = y = s_vec = None
    residuals = (float("nan"),) * 3
    it = 0

    def directions(uu, vv):
        """(x, y, s) of the embedding in the problem's own scale, before
        the division by sigma * tau (x, s) or rho * tau (y)."""
        return e * uu[:n], d * uu[n:n + m], vv[n:n + m] / d

    def unscale(uu, vv):
        """(x, y, s) in the problem's own scale, their residuals (primal,
        dual, gap) and the scale |c'x| + |b'y| of the gap."""
        tau = max(uu[-1], _TAU_FLOOR)
        xdir, ydir, sdir = directions(uu, vv)
        xv = xdir / (sigma * tau)
        yv = ydir / (rho * tau)
        sv = sdir / (sigma * tau)
        pres = np.linalg.norm(cp.A @ xv + sv - cp.b)
        dres = np.linalg.norm(cp.A.T @ yv + cp.c)
        ctx = cp.c @ xv
        bty = cp.b @ yv
        return xv, yv, sv, (pres, dres, abs(ctx + bty)), abs(ctx) + abs(bty)

    layout = cone_ops.layout(cp.cones)

    def proj(wv):
        out = wv.copy()
        out[n:n + m] = cone_ops.project_dual(layout, wv[n:n + m])
        out[-1] = max(out[-1], 0.0)
        return out

    # First step from the conventional start (u, v) = (e_tau, e_kappa).
    # From then on the pair is projection-consistent, so the iteration is a
    # fixed-point map on the single vector w = u - v, with u = proj(w) and
    # v = u - w; this is the form the Anderson accelerator works on.
    u = np.zeros(n + m + 1)
    v = np.zeros(n + m + 1)
    u[-1] = 1.0
    v[-1] = 1.0
    w = _ALPHA * embed_solve(u + v) + (1.0 - _ALPHA) * u - v

    accel_on = True
    w_scale = float(np.linalg.norm(w))
    memory = _AndersonMemory(n + m + 1)
    accepted = rejected = resets = 0
    # after an Anderson step: the plain step and the residual norm of the
    # point it was extrapolated from
    fallback = None
    last_gnorm = float("nan")

    for it in range(1, settings.max_iters + 1):
        u = proj(w)
        v = u - w

        if it % _CHECK_INTERVAL == 0 or it == settings.max_iters:
            tau = u[-1]
            resid = (float("nan"),) * 3
            if tau > _TAU_FLOOR:
                xv, yv, sv, resid, gap_scale = unscale(u, v)
            pres, dres, gap = resid
            history.append({"iter": it, "pres": pres, "dres": dres,
                            "gap": gap, "tau": tau, "kappa": v[-1],
                            "fp_res": last_gnorm})
            if (tau > _TAU_FLOOR
                    and pres <= settings.eps_abs + settings.eps_rel * norm_b
                    and dres <= settings.eps_abs + settings.eps_rel * norm_c
                    and gap <= settings.eps_abs + settings.eps_rel * gap_scale):
                status = "optimal"
                x, y, s_vec, residuals = xv, yv, sv, resid
                break

            # certificate checks use the raw directions (no tau division)
            xdir, ydir, sdir = directions(u, v)
            bty_dir = cp.b @ ydir
            if bty_dir < 0 and norm_b > 0:
                res = np.linalg.norm(cp.A.T @ ydir)
                if res <= settings.eps_abs * (-bty_dir) / norm_b:
                    ycert = ydir / (-bty_dir)
                    status = "primal_infeasible"
                    certificate = {
                        "kind": "primal", "b_dot_y": -1.0,
                        "residual": float(np.linalg.norm(cp.A.T @ ycert)),
                    }
                    x = np.full(n, np.nan)
                    s_vec = np.full(m, np.nan)
                    y = ycert
                    break
            ctx_dir = cp.c @ xdir
            if ctx_dir < 0 and norm_c > 0:
                res = np.linalg.norm(cp.A @ xdir + sdir)
                if res <= settings.eps_abs * (-ctx_dir) / norm_c:
                    scale = 1.0 / (-ctx_dir)
                    status = "dual_infeasible"
                    certificate = {
                        "kind": "dual", "c_dot_x": -1.0,
                        "residual": float(res * scale),
                    }
                    x = xdir * scale
                    s_vec = sdir * scale
                    y = np.full(m, np.nan)
                    break

        w_plain = w + _ALPHA * (embed_solve(2.0 * u - w) - u)
        if not accel_on:
            w = w_plain
            continue

        # Anderson step on the fixed-point residual g = F(w) - w, with a
        # safeguard: an accelerated point whose residual is larger than the
        # residual it was extrapolated from is rejected, and the iteration
        # resumes from the plain step of that point with an empty memory.
        g = w_plain - w
        gnorm = float(np.linalg.norm(g))
        last_gnorm = gnorm
        if not np.isfinite(gnorm) or (fallback is not None
                                      and gnorm > fallback[1]):
            if fallback is None:
                w = w_plain
                resets += 1
            else:
                w = fallback[0]
                rejected += 1
            fallback = None
            memory.clear()
            continue
        fallback = None
        memory.push(w, g)
        if memory.count:
            cand = memory.extrapolate(w_plain, g)
            if cand is not None:
                if np.linalg.norm(cand) >= _ACCEL_NORM_FLOOR * w_scale:
                    fallback = (w_plain, gnorm)
                    w = cand
                    accepted += 1
                    continue
                # the candidate collapsed toward w = 0, a trivial fixed
                # point of the homogeneous map that encodes no solution and
                # no certificate; acceleration is attracted to it, so stop
                # accelerating and let the plain iteration finish
                accel_on = False
            memory.clear()
            resets += 1
        w = w_plain

    if x is None:
        x, y, s_vec, residuals, _ = unscale(u, v)

    objective = float(cp.c @ x) if status == "optimal" else float("nan")
    return Solution(status, x, y, s_vec, objective, residuals, it,
                    time.perf_counter() - t0, history, certificate,
                    {"accepted": accepted, "rejected": rejected,
                     "resets": resets})


def diagnostics(sol: Solution) -> str:
    """Human-readable account of a solve: status, residuals, history."""
    lines = [f"status: {sol.status}",
             f"iterations: {sol.iterations}",
             f"solve_time: {sol.solve_time:.4f} s"]
    if sol.anderson:
        aa = sol.anderson
        lines.append(f"anderson: {aa['accepted']} accepted, "
                     f"{aa['rejected']} rejected, {aa['resets']} resets")
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
