import warnings

import numpy as np
import pytest

from conedsl import cones
from conedsl.canon import ConeSpec
from conedsl.errors import ShapeError
from conedsl.rng import SplitMix64

from oracles import (exp_dual_member, exp_member, project_block_np,
                     project_exp_np, spec_blocks)

N_POINTS = 1000
N_MEMBERS = 100

BLOCKS = [
    ("zero", 5, None),
    ("nonneg", 5, None),
    ("soc", 5, None),
    ("psd", 6, 3),
    ("exp", 3, None),
]


def sample_points(seed, dim, count):
    rng = SplitMix64(seed)
    pts = rng.normals(count, dim) * 3.0
    return pts


@pytest.mark.parametrize("kind,dim,meta", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_idempotence(kind, dim, meta):
    pts = sample_points(101, dim, N_POINTS)
    for v in pts:
        p = cones.project_block(kind, v, meta)
        pp = cones.project_block(kind, p, meta)
        assert np.linalg.norm(pp - p) <= 1e-10


@pytest.mark.parametrize("kind,dim,meta", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_nonexpansiveness(kind, dim, meta):
    pts = sample_points(102, dim, 2 * N_POINTS)
    for u, v in zip(pts[:N_POINTS], pts[N_POINTS:]):
        pu = cones.project_block(kind, u, meta)
        pv = cones.project_block(kind, v, meta)
        assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-12


@pytest.mark.parametrize("kind,dim,meta", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_moreau_decomposition(kind, dim, meta):
    # v = proj_K(v) - proj_{K*}(-v) on every sampled point
    pts = sample_points(103, dim, N_POINTS)
    for v in pts:
        pk = cones.project_block(kind, v, meta)
        pdual = cones.project_block(kind, -v, meta) if kind != "exp" else None
        if kind in ("nonneg", "soc", "psd"):
            # self-dual: dual projection equals primal projection
            pstar = pdual
        elif kind == "zero":
            # dual of {0} is everything
            pstar = -v
        else:
            # exp dual via full-vector helper
            spec = ConeSpec(zero=0, nonneg=0, soc=[], psd=[], ep=1)
            pstar = cones.project_dual(spec, -v)
        assert np.linalg.norm(v - (pk - pstar)) <= 1e-10 * (1.0 + np.linalg.norm(v))


@pytest.mark.parametrize("kind,dim,meta", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_projection_membership(kind, dim, meta):
    pts = sample_points(104, dim, N_POINTS)
    for v in pts:
        p = cones.project_block(kind, v, meta)
        assert cones.in_cone_block(kind, p, meta, tol=1e-8)


@pytest.mark.parametrize("kind,dim,meta", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_projection_optimality(kind, dim, meta):
    # the projected point is at least as close as any sampled cone member
    members = [cones.project_block(kind, v, meta)
               for v in sample_points(105, dim, N_MEMBERS)]
    for v in sample_points(106, dim, 10):
        p = cones.project_block(kind, v, meta)
        d = np.linalg.norm(p - v)
        for s in members:
            assert d <= np.linalg.norm(s - v) + 1e-10


@pytest.mark.parametrize("kind,dim,meta", BLOCKS, ids=[b[0] for b in BLOCKS])
def test_matches_reference_projection(kind, dim, meta):
    rng = SplitMix64(107)
    for _ in range(200):
        v = rng.normals(dim) * 3.0
        got = cones.project_block(kind, v, meta)
        ref = project_block_np(kind, v, meta)
        assert np.allclose(got, ref, atol=1e-8)


def test_known_projections():
    assert np.allclose(cones.project_block("nonneg", np.array([1.0, -2.0, 0.0])),
                       [1.0, 0.0, 0.0])
    # (t, x) = (0, (3, 4)) projects to ((t+norm)/2) * (1, x/norm)
    assert np.allclose(cones.project_block("soc", np.array([0.0, 3.0, 4.0])),
                       [2.5, 1.5, 2.0])
    # svec of diag(1, -1) clips the negative eigenvalue
    v = np.array([1.0, 0.0, -1.0])
    assert np.allclose(cones.project_block("psd", v, 2), [1.0, 0.0, 0.0])
    assert np.allclose(cones.project_block("zero", np.array([3.0, -1.0])), 0.0)


def test_soc_interior_and_reflection():
    # already inside: unchanged
    v = np.array([5.0, 3.0, 0.0])
    assert np.allclose(cones.project_block("soc", v), v)
    # in the polar cone: projects to origin
    w = np.array([-5.0, 3.0, 0.0])
    assert np.allclose(cones.project_block("soc", w), 0.0)


def test_exp_fixed_points():
    rng = SplitMix64(108)
    for _ in range(200):
        v = exp_member(rng)
        p = cones.project_block("exp", v)
        assert np.linalg.norm(p - v) <= 1e-8 * (1.0 + np.linalg.norm(v))


def test_exp_polar_points_project_to_zero():
    # -v in the dual cone means v is in the polar, so the projection is 0
    rng = SplitMix64(109)
    for _ in range(200):
        v = -exp_dual_member(rng)
        p = cones.project_block("exp", v)
        assert np.linalg.norm(p) <= 1e-8 * (1.0 + np.linalg.norm(v))


def test_exp_boundary_ray():
    # the closure ray {(x, 0, z): x <= 0, z >= 0} belongs to the cone
    for v in ([-1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [-3.0, 0.0, 0.0]):
        v = np.asarray(v)
        assert cones.in_cone_block("exp", v, tol=1e-9)
        assert np.allclose(cones.project_block("exp", v), v, atol=1e-9)


def test_exp_projection_raises_no_warning():
    # its root lies past alpha = 709, where e^alpha overflows
    v = np.array([0.0017389, -1.8264, 2.6845])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = cones.project_block("exp", v)
    assert cones.in_cone_block("exp", p, tol=1e-9)


def exp_surface_points(rng, alphas):
    """Points v = p + mu n with p on the exp-cone surface at x/y = alpha and
    n its outward normal, so that p is the projection of v."""
    pts, projs = [], []
    for a in alphas:
        mu = abs(rng.normal())
        if a > 0:
            # keep z = y e^a moderate: y = z e^-a
            z = 1.0 + abs(rng.normal())
            p = np.array([a * z * np.exp(-a), z * np.exp(-a), z])
            n = np.array([1.0, 1.0 - a, -np.exp(-a)])
        else:
            y = np.exp(-abs(rng.normal()))
            E = np.exp(a)
            p = np.array([a * y, y, y * E])
            n = np.array([E, E * (1.0 - a), -1.0])
        pts.append(p + mu * n / np.linalg.norm(n))
        projs.append(p)
    return np.array(pts), np.array(projs)


def exp_stress_families():
    """name -> (points, their projections where known by construction)."""
    rng = SplitMix64(116)
    fams = {f"scale {sc:g}": (rng.normals(200, 3) * sc, None)
            for sc in (1e-3, 1.0, 1e3)}
    # each coordinate at its own scale from 1e-3 to 1e3, where unguarded
    # Newton steps leave the bracket
    fams["mixed scales"] = (
        rng.normals(200, 3) * 10.0 ** (6.0 * rng.uniforms(200, 3) - 3.0), None)
    # within 1e-8 of the boundary ray {x <= 0, y = 0, z >= 0}, half of them
    # at its end z = 0
    ray = np.column_stack([-np.abs(rng.normals(200)), np.zeros(200),
                           np.abs(rng.normals(200))]) * 3.0
    ray[100:, 2] = 0.0
    fams["near ray"] = (ray + (2.0 * rng.uniforms(200, 3) - 1.0) * 1e-8, None)
    # surface roots alpha = x/y near and far beyond +-300; e^alpha leaves
    # the double range past 709 and -745
    alphas = np.geomspace(30.0, 3000.0, 100)
    fams["alpha near and beyond 300"] = exp_surface_points(
        rng, np.concatenate([-alphas, alphas]))
    return fams


@pytest.mark.parametrize("family", list(exp_stress_families()))
def test_exp_root_solve_stress(family):
    V, exact = exp_stress_families()[family]
    P = cones.project_exp_many(V)
    # one batched call gives the same rows as row-by-row calls
    rows = np.array([cones.project_exp_many(v[None])[0] for v in V])
    assert np.array_equal(P, rows)
    tol = 1e-9 * (1.0 + np.linalg.norm(V, axis=1))
    for v, p, t in zip(V, P, tol):
        assert cones.in_cone_block("exp", p, tol=t)
    if exact is not None:
        assert np.all(np.linalg.norm(P - exact, axis=1) <= tol)
        return
    with np.errstate(over="ignore"):
        refs = np.array([project_exp_np(v) for v in V])
    # one-sided: the reference's bounded scalar searches land up to 116
    # farther on 15 of the mixed-scale points; membership bounds the other
    # side
    assert np.all(np.linalg.norm(P - V, axis=1)
                  <= np.linalg.norm(refs - V, axis=1) + tol)


def test_exp_projection_near_the_ray_with_far_root():
    # within 5e-4 of the ray, with its root at alpha = r/s = -536: the
    # projection keeps (r, s) and lifts z to s e^(r/s), while the ray point
    # (r, 0, 0) is 4.3e-4 away
    v = np.array([-0.23088331888879557, 0.000430628258344569,
                  -0.22339180589068444])
    want = np.array([v[0], v[1], v[1] * np.exp(v[0] / v[1])])
    assert np.allclose(cones.project_block("exp", v), want, rtol=0.0,
                       atol=1e-15)


def test_in_cone_block_negatives():
    assert not cones.in_cone_block("nonneg", np.array([1.0, -1e-6]), tol=1e-9)
    assert not cones.in_cone_block("soc", np.array([1.0, 1.0, 0.01]), tol=1e-9)
    assert not cones.in_cone_block("psd", np.array([1.0, 0.0, -1.0]), 2, tol=1e-9)
    assert not cones.in_cone_block("zero", np.array([1e-6]), tol=1e-9)
    assert not cones.in_cone_block("exp", np.array([1.0, 1.0, 0.0]), tol=1e-9)
    assert cones.in_cone_block("nonneg", np.array([0.0, 0.0]), tol=1e-9)


@pytest.mark.parametrize("kind,v,meta", [
    ("soc", [10.0, 1.0, 1.0, 5.0], [2, 2]),
    ("exp", [0.0, 1.0, 2.0, 5.0, 1.0, 0.0], None),
    ("psd", [1.0, 0.0, 1.0, 1.0, 0.0, -1.0], [2, 2]),
], ids=["soc", "exp", "psd"])
def test_in_cone_block_reads_every_block(kind, v, meta):
    # the first of two blocks is in the cone and the second is not
    v = np.array(v)
    first = None if meta is None else meta[0]
    assert cones.in_cone_block(kind, v[:v.size // 2], first)
    assert not cones.in_cone_block(kind, v, meta)
    assert cones.in_cone_block(kind, cones.project_block(kind, v, meta), meta)


def make_spec():
    return ConeSpec(zero=2, nonneg=3, soc=[3, 4], psd=[2], ep=2)


def spec_dim(spec):
    return spec.zero + spec.nonneg + sum(spec.soc) \
        + sum(n * (n + 1) // 2 for n in spec.psd) + 3 * spec.ep


def test_stacked_project_matches_blockwise():
    # the batched passes against the per-block numpy reference
    spec = ConeSpec(zero=2, nonneg=3, soc=[1, 2, 5, 3], psd=[3, 2, 3], ep=2)
    dim = spec_dim(spec)
    rng = SplitMix64(110)
    for _ in range(50):
        v = rng.normals(dim) * 2.0
        full = cones.project(spec, v)
        for kind, start, stop, meta in spec_blocks(spec):
            ref = project_block_np(kind, v[start:stop], meta)
            atol = 1e-8 if kind == "exp" else 1e-12
            assert np.allclose(full[start:stop], ref, atol=atol), kind


def test_project_calls_project_block_once_per_kind(monkeypatch):
    # the per-kind timers of the benchmark's tracer rely on this contract
    calls = []
    block, many = cones.project_block, cones.project_exp_many

    def spy_block(kind, v, meta=None):
        calls.append(kind)
        return block(kind, v, meta)

    def spy_many(V):
        calls.append("exp_many")
        return many(V)

    monkeypatch.setattr(cones, "project_block", spy_block)
    monkeypatch.setattr(cones, "project_exp_many", spy_many)
    for spec, expect in [
            (ConeSpec(zero=2, nonneg=3, soc=[1, 2, 5, 3], psd=[3, 2, 3], ep=2),
             ["zero", "nonneg", "soc", "psd", "exp_many"]),
            (ConeSpec(soc=[3] * 40, ep=5), ["soc", "exp_many"]),
            (ConeSpec(nonneg=4, psd=[2, 2]), ["nonneg", "psd"])]:
        calls.clear()
        cones.project(spec, SplitMix64(114).normals(spec_dim(spec)))
        assert calls == expect


def test_project_block_takes_block_lists():
    rng = SplitMix64(115)
    sizes, sides = [1, 2, 5, 3], [3, 2, 3]
    v = rng.normals(sum(sizes)) * 2.0
    got = cones.project_block("soc", v, sizes)
    start = 0
    for q in sizes:
        assert np.allclose(got[start:start + q],
                           cones.project_block("soc", v[start:start + q]),
                           atol=1e-15)
        start += q
    dims = [k * (k + 1) // 2 for k in sides]
    v = rng.normals(sum(dims)) * 2.0
    got = cones.project_block("psd", v, sides)
    start = 0
    for k, d in zip(sides, dims):
        assert np.allclose(got[start:start + d],
                           cones.project_block("psd", v[start:start + d], k),
                           atol=1e-12)
        start += d
    with pytest.raises(ShapeError):
        cones.project_block("soc", v, [2, 2])


def test_layout_holds_checked_int64_blocks():
    # a Layout converts and checks every kind's block sizes once, and the
    # projections take its Blocks as they take the lists
    spec = ConeSpec(nonneg=2, soc=[3, 4], psd=[2, 3], ep=2)
    metas = {kind: (start, stop, meta)
             for kind, start, stop, meta in cones.layout(spec).kinds}
    rng = SplitMix64(116)
    for kind, sizes, starts in (("nonneg", [2], [0]),
                                ("soc", [3, 4], [0, 3]),
                                ("psd", [2, 3], [0, 3]),
                                ("exp", [3, 3], [0, 3])):
        start, stop, blk = metas[kind]
        assert isinstance(blk, cones.Blocks) and blk.dim == stop - start
        assert blk.sizes.dtype == np.int64 and blk.starts.dtype == np.int64
        assert blk.sizes.tolist() == sizes and blk.starts.tolist() == starts
        if kind in ("soc", "psd"):
            v = rng.normals(blk.dim) * 2.0
            assert np.array_equal(cones.project_block(kind, v, blk),
                                  cones.project_block(kind, v, sizes))
            with pytest.raises(ShapeError):
                cones.project_block(kind, v[:-1], blk)


V_BAD = np.array([3.0, 4.0, 0.0, 1.0, 2.0])


@pytest.mark.parametrize("fn", [cones.project_block, cones.in_cone_block],
                         ids=["project_block", "in_cone_block"])
@pytest.mark.parametrize("kind,meta", [
    ("soc", [2, -1, 4]), ("soc", [3, 2, 0]), ("soc", [3, 0, 2]),
    ("soc", [5.0]), ("soc", [True] * 5), ("soc", []), ("soc", 0),
    ("psd", [2, 0]), ("psd", [-2, 2]), ("psd", [[2, 1]]), ("soc", [True, 4]),
    ("soc", (4, np.True_))])
def test_bad_block_sizes_raise_shape_error(fn, kind, meta):
    # a nonpositive, non-integer or empty size list is refused, not read
    # as blocks that happen to tile the rows (or fail inside numpy)
    with pytest.raises(ShapeError, match="positive integers"):
        fn(kind, V_BAD, meta)


@pytest.mark.parametrize("fn", [
    lambda spec: cones.project(spec, np.zeros(3)),
    lambda spec: cones.in_cone(spec, np.zeros(3)),
    cones.layout], ids=["project", "in_cone", "layout"])
@pytest.mark.parametrize("counts", [
    {"nonneg": 3, "ep": -1}, {"nonneg": 3, "ep": True},
    {"nonneg": 3, "ep": 1.5}, {"nonneg": 3, "zero": 0.0},
    {"zero": 3, "nonneg": None}, {"zero": 3, "nonneg": False},
    {"zero": 3, "nonneg": -1}],
    ids=["-1", "True", "1.5", "zero-0.0", "nonneg-None", "nonneg-False",
         "nonneg--1"])
def test_bad_exp_count_raises_shape_error(fn, counts):
    # a negative count is not read as no cones, a bool not as one, and a
    # float or None fails typed, for the zero, nonneg and exp counts alike
    with pytest.raises(ShapeError, match="cone dimensions must be"):
        fn(ConeSpec(**counts))


def test_project_dual_moreau_full_vector():
    spec = make_spec()
    dim = spec_dim(spec)
    rng = SplitMix64(111)
    layout = cones.layout(spec)
    assert cones.layout(layout) is layout
    assert layout.total_dim == dim
    for _ in range(200):
        v = rng.normals(dim) * 2.0
        pk = cones.project(spec, v)
        pstar = cones.project_dual(spec, -v)
        assert np.linalg.norm(v - (pk - pstar)) <= 1e-10 * (1.0 + np.linalg.norm(v))
        assert cones.in_cone(spec, pk, tol=1e-8)
        assert cones.in_cone(layout, pk, tol=1e-8)
        # the layout a solver reads once gives the same projections
        assert np.array_equal(cones.project(layout, v), pk)
        assert np.array_equal(cones.project_dual(layout, -v), pstar)


def test_zero_cone_dual_is_free():
    spec = ConeSpec(zero=4, nonneg=0, soc=[], psd=[], ep=0)
    rng = SplitMix64(112)
    v = rng.normals(4)
    assert np.allclose(cones.project_dual(spec, v), v)
    assert np.allclose(cones.project(spec, v), 0.0)


def test_self_dual_blocks_agree():
    spec = ConeSpec(zero=0, nonneg=4, soc=[3], psd=[2], ep=0)
    dim = spec_dim(spec)
    rng = SplitMix64(113)
    for _ in range(100):
        v = rng.normals(dim)
        assert np.allclose(cones.project(spec, v), cones.project_dual(spec, v),
                           atol=1e-12)


def test_project_size_mismatch():
    spec = make_spec()
    for layout in (spec, cones.layout(spec)):
        with pytest.raises(ShapeError):
            cones.project(layout, np.zeros(spec_dim(spec) + 1))
