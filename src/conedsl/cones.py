"""Cone membership tests and Euclidean projections.

Supported cones: zero, nonnegative orthant, second-order, positive
semidefinite (svec coordinates), and the exponential cone

    Kexp = cl{ (x, y, z) : y > 0,  y * exp(x/y) <= z }.

Dual-cone projections always go through the Moreau identity
Pi_K*(v) = v + Pi_K(-v), so the primal projections are the single source
of truth.

A point outside Kexp and its polar projects onto the surface at the ratio
alpha = x/y that is the root of one univariate function H (Friberg,
"Projection onto the exponential cone: a univariate root-finding problem",
Optim. Methods Softw. 2023). project_exp_many brackets the root by the
signs that y and the multiplier must have and finds it for all rows at
once by Newton steps safeguarded with bisection (rtsafe); the boundary ray
{x <= 0, y = 0, z >= 0} competes with the surface point.
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
        interior = (s > 0) & (s * np.exp(r / s) <= t + tol)
    edge = (np.abs(s) <= tol) & (r <= tol) & (t >= -tol)
    return interior | edge


def _in_exp_dual(u, v, w, tol=0.0):
    """Membership in Kexp* = {u<0: -u e^(v/u) <= e w} closure, vectorized."""
    u, v, w = np.asarray(u), np.asarray(v), np.asarray(w)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        interior = (u < 0) & (-u * np.exp(v / u) <= np.e * w + tol)
    edge = (np.abs(u) <= tol) & (v >= -tol) & (w >= -tol)
    return interior | edge


def _exp_residual(alpha, r, s, t):
    """H(alpha), whose root gives the projection, and H'(alpha), both
    scaled by e^-|alpha|.

    With E = e^alpha, A = s - (1-alpha) r, B = r - alpha s and
    den = alpha^2 - alpha + 1 > 0, the KKT conditions give y = A / den and
    lambda = B / (E den); H = A E - B / E - t den is the third of them,
    t = y E - lambda, multiplied through by den (Friberg's h(rho)), and
    H' = (A + r) E + (B + s) / E - t (2 alpha - 1). The positive scale
    keeps the sign of H and the Newton step H / H', and keeps both finite
    at any alpha.
    """
    m = np.abs(alpha)
    Ew, wE, w = np.exp(alpha - m), np.exp(-alpha - m), np.exp(-m)
    A = s - (1.0 - alpha) * r
    B = r - alpha * s
    tw = t * w
    H = A * Ew - B * wE - (alpha * alpha - alpha + 1.0) * tw
    dH = (A + r) * Ew + (B + s) * wE - (2.0 * alpha - 1.0) * tw
    return H, dH


# bracket ends stand in for +-inf on a side that y >= 0 and lambda >= 0
# leave open, and clip those that lie farther out; den and every scaled
# term of H stay finite there
_EXP_LIM = 1e12
_EXP_NEWTON_ITERS = 100  # a cap only: no input seen needs more than 45
_EXP_STEP_TOL = 1e-14


def _exp_root(r, s, t, lo, hi):
    """Root alpha of H in [lo, hi] per row, by safeguarded Newton (rtsafe).

    Newton steps start from the false-position point of the bracket and
    are replaced by a bisection whenever they leave the bracket or fail to
    halve the step before. A row stops when its Newton step is at most
    _EXP_STEP_TOL * max(|alpha|, 1) (the step is taken) or when its
    bracket has collapsed, and leaves the active set. Where rounding at an
    end at which y or lambda vanishes hides the sign change, the root is
    taken at the end where |H| is smaller.
    """
    (hlo, hhi), _ = _exp_residual(np.stack([lo, hi]), r, s, t)
    alpha = np.where(np.abs(hlo) < np.abs(hhi), lo, hi)
    act = np.nonzero((hlo < 0.0) & (hhi > 0.0))[0]
    r, s, t, lo, hi = r[act], s[act], t[act], lo[act], hi[act]
    hlo, hhi = hlo[act], hhi[act]
    a = lo - hlo * (hi - lo) / (hhi - hlo)
    last = hi - lo
    for _ in range(_EXP_NEWTON_ITERS):
        if act.size == 0:
            break
        h, dh = _exp_residual(a, r, s, t)
        below = h < 0.0
        lo = np.where(below, a, lo)
        hi = np.where(below, hi, a)
        step = h / dh
        size = np.abs(step)
        tol = _EXP_STEP_TOL * np.maximum(np.abs(a), 1.0)
        small = size <= tol
        nxt = a - step
        newton = small | ((nxt > lo) & (nxt < hi) & (size <= 0.5 * last))
        nxt = np.where(newton, nxt, 0.5 * (lo + hi))
        last = np.abs(nxt - a)
        a = nxt
        done = small | (hi - lo <= tol)
        if done.any():
            alpha[act[done]] = a[done]
            keep = ~done
            act, r, s, t, lo, hi, a, last = (
                act[keep], r[keep], s[keep], t[keep], lo[keep], hi[keep],
                a[keep], last[keep])
    alpha[act] = a
    return alpha


def project_exp_many(V: np.ndarray) -> np.ndarray:
    """Project each row of V (k x 3) onto Kexp.

    Case analysis per block: already in the cone; in the polar cone
    (projection 0); the r <= 0, s <= 0 wedge with closed form (r, 0, t+);
    otherwise the surface point at the root alpha = x / y of H, or the
    boundary ray when that is closer. The root is bracketed by the
    constraints y >= 0 (A >= 0) and lambda >= 0 (B >= 0) and found for all
    such rows at once by Newton steps on H with the rtsafe safeguards: a
    step that leaves the bracket or fails to halve the one before becomes
    a bisection, and a row leaves the active set once its step is at most
    1e-14 max(|alpha|, 1) or its bracket has collapsed (_exp_root).
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
    pts = V[idx]
    rn, sn, tn = pts[:, 0], pts[:, 1], pts[:, 2]

    with np.errstate(over="ignore", invalid="ignore", divide="ignore",
                     under="ignore"):
        # y >= 0 and lambda >= 0 restrict alpha: A >= 0 and B >= 0
        ratio_sr, ratio_rs = 1.0 - sn / rn, rn / sn
        lo = np.maximum(np.where(rn > 0, ratio_sr, -_EXP_LIM),
                        np.where(sn < 0, ratio_rs, -_EXP_LIM))
        hi = np.minimum(np.where(rn < 0, ratio_sr, _EXP_LIM),
                        np.where(sn > 0, ratio_rs, _EXP_LIM))
        alpha = _exp_root(rn, sn, tn, np.minimum(lo, _EXP_LIM),
                          np.maximum(hi, -_EXP_LIM))
        # (alpha y, y, y E) at the root: y = A / den where E <= 1, and
        # z = y E = t + lambda where E > 1, so that rounding in A (or in B)
        # is never multiplied by E (or by 1/E); past alpha ~ 709 this gives
        # y = 0, and below -745 z = 0
        E = np.exp(alpha)
        den = alpha * alpha - alpha + 1.0
        up = alpha > 0.0
        z = np.maximum(tn + (rn - alpha * sn) / (E * den), 0.0)
        y = np.maximum(np.where(up, z / E, (sn - (1.0 - alpha) * rn) / den),
                       0.0)
        proj = np.stack([alpha * y, y, np.where(up, z, y * E)], axis=1)
    # guard against degenerate roots: when the optimizer sits on (or hugs)
    # the boundary ray {x <= 0, y = 0, z >= 0}, the root lies at the end of
    # its bracket where y = 0 and rounding decides the surface point, so
    # keep whichever candidate is closer
    root_dist = ((proj - pts) ** 2).sum(axis=1)
    ray_dist = np.maximum(rn, 0.0) ** 2 + sn ** 2 + np.minimum(tn, 0.0) ** 2
    use_ray = ray_dist < root_dist
    proj[use_ray, 0] = np.minimum(rn[use_ray], 0.0)
    proj[use_ray, 1] = 0.0
    proj[use_ray, 2] = np.maximum(tn[use_ray], 0.0)
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
