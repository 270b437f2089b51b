"""Embedded first-order conic solver.

ADMM applied to the homogeneous self-dual embedding of

    min c'x  s.t.  Ax + s = b,  s in K

so a single iteration stream yields either an optimal primal-dual pair or
an infeasibility certificate.  The embedding variable is u = (x, y, tau)
with companion v = (0, s, kappa); each iteration solves one quasidefinite
linear system (factorized once) and projects onto R^n x K* x R+.

Deterministic: no random state anywhere in the loop.
"""
from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

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
    gx, gy = g[:n], g[n:]
    denom = 1.0 + cs @ gx + bs @ gy
    if not np.isfinite(denom) or denom <= 0:
        raise NumericError("homogeneous embedding system is singular")

    def embed_solve(w):
        wx, wy, wt = w[:n], w[n:n + m], w[-1]
        h = fac.solve(np.concatenate([wx, -wy]))
        hx, hy = h[:n], h[n:]
        zt = (wt + cs @ hx + bs @ hy) / denom
        return np.concatenate([hx - zt * gx, hy - zt * gy, [zt]])

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

    def proj(wv):
        out = np.empty_like(wv)
        out[:n] = wv[:n]
        out[n:n + m] = cone_ops.project_dual(cp.cones, wv[n:n + m])
        out[-1] = max(wv[-1], 0.0)
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
    # recent iterate / residual differences
    dws, dgs = deque(maxlen=_ACCEL_MEMORY), deque(maxlen=_ACCEL_MEMORY)
    prev_w = prev_g = None
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
            w = w_plain if fallback is None else fallback[0]
            fallback = None
            dws.clear()
            dgs.clear()
            prev_w = prev_g = None
            continue
        fallback = None
        if prev_w is not None:
            dws.append(w - prev_w)
            dgs.append(g - prev_g)
        prev_w, prev_g = w, g
        if dws:
            Y = np.column_stack(dgs)
            S = np.column_stack(dws)
            gamma = np.linalg.lstsq(Y, g, rcond=None)[0]
            cand = w_plain - (S + Y) @ gamma
            if np.all(np.isfinite(cand)):
                if np.linalg.norm(cand) >= _ACCEL_NORM_FLOOR * w_scale:
                    fallback = (w_plain, gnorm)
                    w = cand
                    continue
                # the candidate collapsed toward w = 0, a trivial fixed
                # point of the homogeneous map that encodes no solution and
                # no certificate; acceleration is attracted to it, so stop
                # accelerating and let the plain iteration finish
                accel_on = False
            dws.clear()
            dgs.clear()
            prev_w = prev_g = None
        w = w_plain

    if x is None:
        x, y, s_vec, residuals, _ = unscale(u, v)

    objective = float(cp.c @ x) if status == "optimal" else float("nan")
    return Solution(status, x, y, s_vec, objective, residuals, it,
                    time.perf_counter() - t0, history, certificate)


def diagnostics(sol: Solution) -> str:
    """Human-readable account of a solve: status, residuals, history."""
    lines = [f"status: {sol.status}",
             f"iterations: {sol.iterations}",
             f"solve_time: {sol.solve_time:.4f} s"]
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
