"""Independent reference implementations used to check solver output.

Everything here is written directly against numpy/scipy primitives, not
against the package under test, so agreement between the two is meaningful
evidence of correctness.
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import least_squares


# -- regression oracles ------------------------------------------------------------


def normal_equations(X, y):
    """Least-squares coefficients via a dense orthogonal factorization."""
    return np.linalg.lstsq(X, y, rcond=None)[0]


def pava(y):
    """Pool-adjacent-violators: isotonic (nondecreasing) least squares."""
    y = np.asarray(y, dtype=float).ravel()
    level = y.copy().tolist()
    weight = [1.0] * len(y)
    blocks = []
    for v, w in zip(level, weight):
        blocks.append([v, w])
        while len(blocks) > 1 and blocks[-2][0] >= blocks[-1][0]:
            v2, w2 = blocks.pop()
            v1, w1 = blocks.pop()
            blocks.append([(v1 * w1 + v2 * w2) / (w1 + w2), w1 + w2])
    out = []
    for v, w in blocks:
        out.extend([v] * int(round(w)))
    return np.array(out)


def huber_value(r, M):
    a = np.abs(r)
    return np.where(a <= M, a * a, 2 * M * a - M * M)


def huber_newton(X, y, M, iters=200):
    """Damped Newton on the (differentiable) huber regression objective."""
    X = np.asarray(X, float)
    y = np.asarray(y, float).ravel()
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    for _ in range(iters):
        r = y - X @ beta
        inside = np.abs(r) <= M
        grad = -2 * X.T @ np.where(inside, r, M * np.sign(r))
        H = 2 * (X.T * inside) @ X + 1e-9 * np.eye(X.shape[1])
        step = np.linalg.solve(H, grad)
        obj = huber_value(r, M).sum()
        t = 1.0
        for _ in range(60):
            cand = beta - t * step
            if huber_value(y - X @ cand, M).sum() <= obj - 1e-12 * t:
                break
            t *= 0.5
        beta = beta - t * step
        if np.linalg.norm(t * step) < 1e-14:
            break
    return beta


def huber_objective(X, y, M):
    beta = huber_newton(X, y, M)
    return huber_value(np.asarray(y).ravel() - X @ beta, M).sum()


# -- information theory ------------------------------------------------------------


def bsc_capacity(p):
    """Capacity of the binary symmetric channel, in bits."""
    if p in (0.0, 1.0):
        return 1.0
    h2 = -p * np.log2(p) - (1 - p) * np.log2(1 - p)
    return 1.0 - h2


# -- fastest mixing chain ----------------------------------------------------------


def slem(P):
    """Second largest eigenvalue modulus of a symmetric stochastic matrix."""
    n = P.shape[0]
    vals = np.linalg.eigvalsh(P - np.ones((n, n)) / n)
    return float(np.max(np.abs(vals)))


def fmmc_path3_oracle(step=1e-3):
    """Brute-force FMMC optimum over the 3-node path graph.

    Transition matrices have the form
        [[1-p, p,   0  ],
         [p,   1-p-q, q],
         [0,   q,   1-q]]
    with p, q >= 0 and p + q <= 1.
    """
    ps = np.arange(0.0, 1.0 + step / 2, step)
    best = np.inf
    arg = None
    for p in ps:
        qmax = 1.0 - p
        qs = np.arange(0.0, qmax + step / 2, step)
        for q in qs:
            P = np.array([[1 - p, p, 0.0],
                          [p, 1 - p - q, q],
                          [0.0, q, 1 - q]])
            mu = slem(P)
            if mu < best:
                best, arg = mu, (p, q)
    return best, arg


# -- log-concave pmf estimation -----------------------------------------------------


def logconcave_mle_oracle(counts, coarse=0.005, rounds=4):
    """Grid search over log-concave pmfs on {0..K} maximizing counts' log p.

    Enumerates the first K probabilities on a simplex grid, filters by
    log-concavity (p_k^2 >= p_{k-1} p_{k+1}) and nonnegativity of the
    remainder, then refines around the best point with shrinking steps.
    """
    counts = np.asarray(counts, float)
    K1 = counts.size
    if K1 != 4:
        raise ValueError("oracle written for four support points")

    def evaluate(P):
        # P: (N,4) candidate pmfs, all entries positive
        ok = (P > 0).all(axis=1)
        ok &= P[:, 1] ** 2 >= P[:, 0] * P[:, 2] - 1e-15
        ok &= P[:, 2] ** 2 >= P[:, 1] * P[:, 3] - 1e-15
        vals = np.full(P.shape[0], -np.inf)
        good = P[ok]
        if good.size:
            vals[ok] = np.log(good) @ counts
        return vals

    def grid_around(center, half, step):
        axes = [np.arange(max(c - half, step), min(c + half, 1.0) + step / 2,
                          step) for c in center[:3]]
        G = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        last = 1.0 - G.sum(axis=1)
        P = np.column_stack([G, last])
        return P[last > 0]

    center = np.full(4, 0.25)
    half, step = 0.5, coarse
    best_val, best_p = -np.inf, center
    for _ in range(rounds):
        P = grid_around(best_p, half, step)
        vals = evaluate(P)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_p = float(vals[i]), P[i]
        half, step = step * 4, step / 8
        if step < 1e-5:
            break
    return best_val, best_p


# -- catenary ----------------------------------------------------------------------


def cosh_fit_max_dev(x, y):
    """Max deviation of (x, y) from the best-fitting catenary curve
    y = y0 + a cosh((x - x0)/a)."""
    x = np.asarray(x, float).ravel()
    y = np.asarray(y, float).ravel()

    def resid(p):
        a, x0, y0 = p
        a = max(a, 1e-6)
        return y0 + a * np.cosh((x - x0) / a) - y

    guess = np.array([0.3, float(x.mean()), float(y.min()) - 0.3])
    fit = least_squares(resid, guess, method="lm", max_nfev=20000)
    return float(np.max(np.abs(fit.fun)))


def catenary_analytic(span=1.0, length=1.5):
    """Parameter a solving 2a sinh(span/(2a)) = length (symmetric chain)."""
    lo, hi = 1e-6, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        val = 2 * mid * np.sinh(span / (2 * mid))
        if val > length:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- constructed-optimum cone programs ----------------------------------------------


def _svec_dim(k):
    return k * (k + 1) // 2


def make_cone_blocks(rng, mix):
    """Random cone geometry: list of (kind, dim) blocks per requested mix."""
    blocks = []
    if "zero" in mix:
        blocks.append(("zero", int(rng.randint(3) + 1)))
    if "nonneg" in mix:
        blocks.append(("nonneg", int(rng.randint(4) + 2)))
    if "soc" in mix:
        for _ in range(int(rng.randint(2) + 1)):
            blocks.append(("soc", int(rng.randint(4) + 2)))
    if "psd" in mix:
        k = int(rng.randint(3) + 2)
        blocks.append(("psd", _svec_dim(k)))
    if "exp" in mix:
        for _ in range(int(rng.randint(2) + 1)):
            blocks.append(("exp", 3))
    return blocks


def spec_blocks(spec):
    """(kind, start, stop, meta) of each block of a ConeSpec, in row order,
    read from its five fields alone: zero and nonneg rows one block each,
    meta the SOC size or PSD side (None for the other kinds)."""
    sized = ([("zero", spec.zero, None)] if spec.zero else []) \
        + ([("nonneg", spec.nonneg, None)] if spec.nonneg else []) \
        + [("soc", q, q) for q in spec.soc] \
        + [("psd", _svec_dim(k), k) for k in spec.psd] \
        + [("exp", 3, None)] * spec.ep
    out, row = [], 0
    for kind, size, meta in sized:
        out.append((kind, row, row + size, meta))
        row += size
    return out


def project_block_np(kind, v, k=None):
    """Reference projections (numpy only) used to build optimal pairs."""
    v = np.asarray(v, float)
    if kind == "zero":
        return np.zeros_like(v)
    if kind == "nonneg":
        return np.maximum(v, 0.0)
    if kind == "soc":
        t, z = v[0], v[1:]
        nz = np.linalg.norm(z)
        if nz <= t:
            return v.copy()
        if nz <= -t:
            return np.zeros_like(v)
        coef = (t + nz) / 2.0
        out = np.concatenate([[coef], coef * z / nz])
        return out
    if kind == "psd":
        M = svec_to_mat(v, k)
        vals, vecs = np.linalg.eigh(M)
        vals = np.maximum(vals, 0.0)
        return mat_to_svec(vecs @ np.diag(vals) @ vecs.T)
    if kind == "exp":
        return project_exp_np(v)
    raise ValueError(kind)


def _in_exp_np(r, s, t, tol=0.0):
    if abs(s) <= tol:
        return r <= tol and t >= -tol
    return s > 0 and s * np.exp(r / s) <= t + tol


def project_exp_np(v):
    """Exponential-cone projection via nested scalar minimization (scipy).

    On the boundary surface z = y e^(x/y) the squared distance is smooth in
    (x, y); optimize y in an outer bracket and x in an inner bracket.  The
    closure ray {x <= 0, y = 0, z >= 0} and the polar cone supply the other
    candidates.
    """
    from scipy.optimize import minimize_scalar

    v = np.asarray(v, float)
    r, s, t = v
    if _in_exp_np(r, s, t):
        return v.copy()
    # -v in the dual cone means v is in the polar, so the projection is 0
    u, w, q = -v
    in_polar = (u < 0 and -u * np.exp(w / u) <= np.e * q) or \
        (u == 0.0 and w >= 0 and q >= 0)
    if in_polar:
        return np.zeros(3)

    def surf_dist(y):
        if y <= 0:
            return np.inf

        def over_x(x):
            return (x - r) ** 2 + (y - s) ** 2 + (y * np.exp(min(x / y, 120.0)) - t) ** 2

        span = max(1.0, abs(r)) * 60
        res = minimize_scalar(over_x, bounds=(r - span, r + span),
                              method="bounded",
                              options={"xatol": 1e-14})
        return res.fun

    best_fun, best_y = np.inf, None
    for hi in (1e-3, 1.0, max(10.0, 3 * abs(s) + 3)):
        res = minimize_scalar(surf_dist, bounds=(1e-12, hi), method="bounded",
                              options={"xatol": 1e-14})
        if res.fun < best_fun:
            best_fun, best_y = res.fun, res.x

    def surf_point(y):
        def over_x(x):
            return (x - r) ** 2 + (y - s) ** 2 + (y * np.exp(min(x / y, 120.0)) - t) ** 2
        span = max(1.0, abs(r)) * 60
        res = minimize_scalar(over_x, bounds=(r - span, r + span),
                              method="bounded", options={"xatol": 1e-14})
        x = res.x
        return np.array([x, y, y * np.exp(min(x / y, 120.0))])

    candidates = [np.array([min(r, 0.0), 0.0, max(t, 0.0)])]
    if best_y is not None:
        candidates.append(surf_point(best_y))
    dists = [np.linalg.norm(c - v) for c in candidates]
    return candidates[int(np.argmin(dists))]


def svec_to_mat(v, k):
    M = np.zeros((k, k))
    idx = 0
    for j in range(k):
        for i in range(j, k):
            if i == j:
                M[i, j] = v[idx]
            else:
                M[i, j] = M[j, i] = v[idx] / np.sqrt(2.0)
            idx += 1
    return M


def mat_to_svec(M):
    k = M.shape[0]
    out = np.zeros(_svec_dim(k))
    idx = 0
    for j in range(k):
        for i in range(j, k):
            out[idx] = M[i, j] if i == j else M[i, j] * np.sqrt(2.0)
            idx += 1
    return out


def exp_member(rng):
    """A strictly feasible point of the exponential cone."""
    xv = rng.normal()
    yv = abs(rng.normal()) + 0.2
    z = yv * np.exp(np.clip(xv / yv, -20, 20)) * (1.0 + abs(rng.normal()))
    return np.array([xv, yv, z])


def exp_dual_member(rng):
    """A strictly feasible point of the dual exponential cone."""
    uv = -(abs(rng.normal()) + 0.2)
    vv = rng.normal()
    wv = -uv * np.exp(np.clip(vv / uv, -20, 20) - 1) * (1.0 + abs(rng.normal()))
    return np.array([uv, vv, wv])
