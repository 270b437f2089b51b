"""Cone membership tests and Euclidean projections.

Supported cones: zero, nonnegative orthant, second-order, positive
semidefinite (svec coordinates), and the exponential cone

    Kexp = cl{ (x, y, z) : y > 0,  y * exp(x/y) <= z }.

Dual-cone projections always go through the Moreau identity
Pi_K*(v) = v + Pi_K(-v), so the primal projections are the single source
of truth.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError
from .linalg import svec, svec_dim, unsvec


# -- second-order and semidefinite cones, batched over blocks ------------------

def _segment_starts(sizes, total):
    """First row of each of the consecutive blocks with the given sizes."""
    sizes = np.asarray(sizes, dtype=np.int64)
    ends = np.add.accumulate(sizes)
    if ends.size == 0 or ends[-1] != total:
        raise ShapeError("cone block sizes do not match vector length")
    return sizes, ends - sizes


def _project_soc(v, sizes):
    """Project consecutive SOC blocks (t, x), t first, in one pass."""
    sizes, starts = _segment_starts(sizes, v.size)
    t = v[starts]
    sq = v * v
    sq[starts] = 0.0
    nx = np.sqrt(np.add.reduceat(sq, starts))
    # per block: ((t + |x|) / 2) * (1, x / |x|), where clipping the scale
    # to [0, 1] leaves a point inside the cone unchanged and sends one in
    # the polar cone to 0; with x = 0 any finite scale gives (t, 0) or 0
    ratio = t / np.where(nx > 0.0, nx, 1.0)
    scale = np.minimum(np.maximum(0.5 * (1.0 + ratio), 0.0), 1.0)
    out = np.repeat(scale, sizes) * v
    out[starts] = np.where(nx <= t, t, scale * nx)
    return out


def _project_psd(v, sides):
    """Project consecutive svec PSD blocks: one batched eigh per side."""
    sides = np.asarray(sides, dtype=np.int64)
    _, starts = _segment_starts(sides * (sides + 1) // 2, v.size)
    out = np.empty_like(v)
    for side in np.unique(sides).tolist():
        rows = starts[sides == side][:, None] + np.arange(svec_dim(side))
        try:
            w, Q = np.linalg.eigh(unsvec(v[rows], side))
        except np.linalg.LinAlgError as e:
            raise NumericError(f"eigendecomposition failed: {e}") from e
        Qw = Q * np.maximum(w, 0.0)[:, None, :]
        out[rows] = svec(Qw @ np.swapaxes(Q, 1, 2))
    return out


# -- exponential cone -----------------------------------------------------------

def _in_exp_primal(r, s, t, tol=0.0):
    """Membership of (r, s, t) in Kexp, vectorized, additive tolerance."""
    r, s, t = np.asarray(r), np.asarray(s), np.asarray(t)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = np.where(s > 0, r / np.where(s > 0, s, 1.0), 0.0)
        interior = (s > 0) & (s * np.exp(ratio) <= t + tol)
    edge = (np.abs(s) <= tol) & (r <= tol) & (t >= -tol)
    return interior | edge


def _in_exp_dual(u, v, w, tol=0.0):
    """Membership in Kexp* = {u<0: -u e^(v/u) <= e w} closure, vectorized."""
    u, v, w = np.asarray(u), np.asarray(v), np.asarray(w)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        ratio = np.where(u < 0, v / np.where(u < 0, u, 1.0), 0.0)
        interior = (u < 0) & (-u * np.exp(ratio) <= np.e * w + tol)
    edge = (np.abs(u) <= tol) & (v >= -tol) & (w >= -tol)
    return interior | edge


def _exp_residual(alpha, r, s, t, xp=np):
    """H(alpha) whose root gives the projection; smooth, no denominators.

    With E = e^alpha: y = (s - (1-alpha) r) / (alpha^2 - alpha + 1) and
    lambda = (r - alpha s) / (E (alpha^2 - alpha + 1)); H is the third KKT
    equation t = y E - lambda multiplied through by the positive
    denominator.
    """
    E = xp.exp(alpha)
    A = s - (1.0 - alpha) * r
    B = r - alpha * s
    C = t * (alpha * alpha - alpha + 1.0)
    return A * E - B / E - C


def _exp_solution(alpha, r, s, t, xp=np):
    E = xp.exp(alpha)
    den = alpha * alpha - alpha + 1.0
    y = (s - (1.0 - alpha) * r) / den
    lam = (r - alpha * s) / (E * den)
    return y, lam, E


_EXP_LIM = 300.0
_EXP_BISECT_ITERS = 90
_EXP_VALID_TOL = 1e-9


def _project_exp_scalar(r, s, t):
    """Robust long-double fallback: scan for sign changes, bisect each
    candidate, keep the valid root closest to the input."""
    ld = np.longdouble
    r_, s_, t_ = ld(r), ld(s), ld(t)
    grid = np.concatenate([
        -np.geomspace(1e-6, 11000.0, 160)[::-1],
        np.array([0.0]),
        np.geomspace(1e-6, 11000.0, 160),
    ]).astype(ld)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _exp_residual(grid, r_, s_, t_, xp=np)
    vals = np.nan_to_num(vals, nan=np.inf)
    best = None
    sign = np.sign(vals)
    for i in np.nonzero(sign[:-1] * sign[1:] <= 0)[0]:
        lo, hi = grid[i], grid[i + 1]
        flo = _exp_residual(lo, r_, s_, t_, xp=np)
        for _ in range(200):
            mid = (lo + hi) / 2
            fm = _exp_residual(mid, r_, s_, t_, xp=np)
            if np.sign(fm) == np.sign(flo):
                lo, flo = mid, fm
            else:
                hi = mid
        alpha = float((lo + hi) / 2)
        y, lam, E = _exp_solution(alpha, r, s, t)
        if not (np.isfinite(y) and np.isfinite(lam) and np.isfinite(E)):
            continue
        if y < -_EXP_VALID_TOL or lam < -_EXP_VALID_TOL:
            continue
        y = max(y, 0.0)
        p = np.array([alpha * y, y, y * E])
        if not np.isfinite(p).all():
            continue
        dist = np.linalg.norm(p - np.array([r, s, t]))
        if best is None or dist < best[0]:
            best = (dist, p)
    # the boundary ray {x <= 0, y = 0, z >= 0} competes with every surface
    # root; when the root-find degenerates (the optimal x/y overflows the
    # float range) the ray point is the projection
    ray = np.array([min(r, 0.0), 0.0, max(t, 0.0)])
    ray_dist = np.linalg.norm(ray - np.array([r, s, t]))
    if best is None or ray_dist < best[0]:
        best = (ray_dist, ray)
    return best[1]


def project_exp_many(V: np.ndarray) -> np.ndarray:
    """Project each row of V (k x 3) onto Kexp.

    Case analysis per block: already in the cone; in the polar cone
    (projection 0); the r <= 0, s <= 0 wedge with closed form (r, 0, t+);
    otherwise the 1-D root-find on H.
    """
    V = np.asarray(V, dtype=float)
    out = V.copy()
    r, s, t = V[:, 0], V[:, 1], V[:, 2]

    in_k = _in_exp_primal(r, s, t)
    in_polar = _in_exp_dual(-r, -s, -t) & ~in_k
    special = (r <= 0) & (s <= 0) & ~in_k & ~in_polar
    newton = ~(in_k | in_polar | special)

    out[in_polar] = 0.0
    if special.any():
        out[special, 1] = 0.0
        out[special, 2] = np.maximum(t[special], 0.0)

    idx = np.nonzero(newton)[0]
    if idx.size == 0:
        return out
    rn, sn, tn = r[idx], s[idx], t[idx]

    # constraint-derived endpoints: y >= 0 and lambda >= 0 restrict alpha
    lo = np.full(idx.size, -_EXP_LIM)
    hi = np.full(idx.size, _EXP_LIM)
    pos_r = rn > 0
    neg_r = rn < 0
    lo[pos_r] = np.maximum(lo[pos_r], 1.0 - sn[pos_r] / rn[pos_r])
    hi[neg_r] = np.minimum(hi[neg_r], 1.0 - sn[neg_r] / rn[neg_r])
    pos_s = sn > 0
    neg_s = sn < 0
    hi[pos_s] = np.minimum(hi[pos_s], rn[pos_s] / sn[pos_s])
    lo[neg_s] = np.maximum(lo[neg_s], rn[neg_s] / sn[neg_s])
    lo = np.clip(lo, -_EXP_LIM, _EXP_LIM)
    hi = np.clip(hi, -_EXP_LIM, _EXP_LIM)

    with np.errstate(over="ignore", invalid="ignore"):
        flo = _exp_residual(lo, rn, sn, tn)
        fhi = _exp_residual(hi, rn, sn, tn)
        # expand whichever side fails to straddle the root
        step = np.ones(idx.size)
        for _ in range(60):
            bad = (np.sign(flo) == np.sign(fhi)) & (np.abs(flo) > 0)
            if not bad.any():
                break
            grow_hi = bad & (np.abs(fhi) <= np.abs(flo))
            grow_lo = bad & ~grow_hi
            hi[grow_hi] = np.minimum(hi[grow_hi] + step[grow_hi], _EXP_LIM)
            lo[grow_lo] = np.maximum(lo[grow_lo] - step[grow_lo], -_EXP_LIM)
            step[bad] *= 2.0
            flo[grow_lo] = _exp_residual(lo[grow_lo], rn[grow_lo], sn[grow_lo],
                                         tn[grow_lo])
            fhi[grow_hi] = _exp_residual(hi[grow_hi], rn[grow_hi], sn[grow_hi],
                                         tn[grow_hi])
        for _ in range(_EXP_BISECT_ITERS):
            mid = 0.5 * (lo + hi)
            fm = _exp_residual(mid, rn, sn, tn)
            take_lo = np.sign(fm) == np.sign(flo)
            lo = np.where(take_lo, mid, lo)
            flo = np.where(take_lo, fm, flo)
            hi = np.where(take_lo, hi, mid)
        alpha = 0.5 * (lo + hi)
        y, lam, E = _exp_solution(alpha, rn, sn, tn)

    proj = np.column_stack([alpha * np.maximum(y, 0.0), np.maximum(y, 0.0),
                            np.maximum(y, 0.0) * E])
    ok = (np.isfinite(proj).all(axis=1) & (y >= -_EXP_VALID_TOL)
          & (lam >= -_EXP_VALID_TOL))
    # guard against degenerate roots: when the optimizer sits on (or hugs)
    # the boundary ray {x <= 0, y = 0, z >= 0}, the KKT root suffers
    # catastrophic cancellation and can return a far-away cone point, so
    # keep whichever candidate is closer
    pts = np.column_stack([rn, sn, tn])
    ray = np.column_stack([np.minimum(rn, 0.0), np.zeros(idx.size),
                           np.maximum(tn, 0.0)])
    with np.errstate(invalid="ignore"):
        root_dist = np.where(ok, np.linalg.norm(np.nan_to_num(proj, nan=np.inf)
                                                - pts, axis=1), np.inf)
    ray_dist = np.linalg.norm(ray - pts, axis=1)
    use_ray = ok & (ray_dist < root_dist)
    proj[use_ray] = ray[use_ray]
    for j in np.nonzero(~ok)[0]:
        proj[j] = _project_exp_scalar(rn[j], sn[j], tn[j])
    out[idx] = proj
    return out


# -- product-cone interface -------------------------------------------------------

def project_block(kind: str, v: np.ndarray, meta=None) -> np.ndarray:
    """Project v, the rows of one cone kind: meta is the list of SOC block
    sizes or PSD sides, or None (SOC) or an int (PSD) for a single block."""
    v = np.asarray(v, dtype=float).ravel()
    if kind == "zero":
        return np.zeros_like(v)
    if kind == "nonneg":
        return np.maximum(v, 0.0)
    if kind == "soc":
        return _project_soc(v, [v.size] if meta is None else meta)
    if kind == "psd":
        return _project_psd(v, np.atleast_1d(meta))
    if kind == "exp":
        return project_exp_many(v.reshape(-1, 3)).ravel()
    raise ShapeError(f"unknown cone kind {kind!r}")


def in_cone_block(kind: str, v: np.ndarray, meta=None, tol: float = 1e-9) -> bool:
    v = np.asarray(v, dtype=float).ravel()
    if kind == "zero":
        return bool(np.max(np.abs(v), initial=0.0) <= tol)
    if kind == "nonneg":
        return bool(np.min(v, initial=0.0) >= -tol)
    if kind == "soc":
        return bool(np.linalg.norm(v[1:]) <= v[0] + tol)
    if kind == "psd":
        return bool(np.linalg.eigvalsh(unsvec(v, meta))[0] >= -tol)
    if kind == "exp":
        return bool(_in_exp_primal(v[0], v[1], v[2], tol))
    raise ShapeError(f"unknown cone kind {kind!r}")


def project(cones, v: np.ndarray) -> np.ndarray:
    """Project v onto the product cone described by a ConeSpec: one pass
    per cone kind present."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != cones.total_dim:
        raise ShapeError("vector length does not match cone dimensions")
    out = np.empty_like(v)
    for kind, start, stop, meta in cones.kinds():
        if kind == "exp":
            out[start:stop] = project_exp_many(
                v[start:stop].reshape(-1, 3)).ravel()
        else:
            out[start:stop] = project_block(kind, v[start:stop], meta)
    return out


def project_dual(cones, v: np.ndarray) -> np.ndarray:
    """Projection onto the dual cone via Pi_K*(v) = v + Pi_K(-v)."""
    v = np.asarray(v, dtype=float).ravel()
    return v + project(cones, -v)


def in_cone(cones, v: np.ndarray, tol: float = 1e-9) -> bool:
    v = np.asarray(v, dtype=float).ravel()
    if v.size != cones.total_dim:
        raise ShapeError("vector length does not match cone dimensions")
    return all(in_cone_block(kind, v[start:stop], meta, tol)
               for kind, start, stop, meta in cones.blocks())
