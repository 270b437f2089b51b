"""Lowering of DCP problems to cone-program standard form, and back.

Standard form:

    minimize    c'x
    subject to  A x + s = b,  s in K

with K a product of cones whose counts `ConeSpec` holds and whose row
layout (the order of the cone kinds, the rows of each block, PSD blocks in
scaled-lower-triangle svec coordinates) `cones.layout` states. Objective
sense flips and constant offsets are tracked so user-facing values can be
reported in the original sense.

The rows of each cone kind keep lowering-traversal order (objective
first, then constraints in declaration order); symmetry and
cone-membership rows for psd-symmetric variables are appended after all
constraints. This makes repeated canonicalizations of one problem
byte-identical when exported.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import linalg
from .errors import DCPError, InputError, SchemaError, ShapeError
from .cones import KINDS, layout
from .expr import (AtomExpr, Constraint, Curvature, Expression, Variable,
                   constant_value, dcp_check)
from .lin import LinForm, flat_index, svec_map


@dataclass
class ConeSpec:
    """The cone K as the counts the JSON `cones` keys carry (z, l, q, s,
    ep): the zero and nonneg row counts, the SOC block sizes, the PSD sides
    and the number of exponential cones. `cones.layout` places their rows."""
    zero: int = 0
    nonneg: int = 0
    soc: list = field(default_factory=list)
    psd: list = field(default_factory=list)
    ep: int = 0

    @property
    def total_dim(self) -> int:
        return layout(self).total_dim

    def validate(self, m: int):
        """ShapeError unless the block sizes are lists and K has m rows;
        `cones.layout` checks each count as it places K's rows."""
        for sizes in (self.soc, self.psd):
            if not isinstance(sizes, list):
                raise ShapeError(f"cone block sizes must be a list, got "
                                 f"{sizes!r}")
        if self.total_dim != m:
            raise ShapeError(
                f"cone dimensions sum to {self.total_dim} but A has {m} rows")


@dataclass
class ConeProgram:
    """min c'x s.t. Ax + s = b, s in K. A may be any SciPy sparse matrix;
    it is kept in the canonical form of `linalg.from_scipy`."""
    c: np.ndarray
    A: linalg.SparseMatrix
    b: np.ndarray
    cones: ConeSpec
    offset: float = 0.0
    flipped: bool = False

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float).ravel()
        self.b = np.asarray(self.b, dtype=float).ravel()
        if not sp.issparse(self.A):
            raise InputError(f"A must be a SciPy sparse matrix, got "
                             f"{type(self.A).__name__}")
        # a canonical A (as lowering and import_json build it) is kept as
        # it is, so exporting it copies nothing
        if not linalg.is_canonical(self.A):
            self.A = linalg.from_scipy(self.A)
        for name, vec in (("c", self.c), ("b", self.b), ("A.vals", self.A.vals)):
            if not np.isfinite(vec).all():
                bad = np.flatnonzero(~np.isfinite(vec))[0]
                raise InputError(f"{name}[{bad}] is {vec[bad]}; cone "
                                 f"program data must be finite")
        if self.A.shape != (self.b.size, self.c.size):
            raise ShapeError("A dimensions disagree with c / b")
        if not isinstance(self.cones, ConeSpec):
            raise InputError(f"cones must be a ConeSpec, got "
                             f"{type(self.cones).__name__}")
        self.cones.validate(self.b.size)

    def user_objective(self, objective: float) -> float:
        """The objective of the problem as posed, from that of this
        program: the constant offset added back, and the sign flipped
        back for a maximization."""
        return (-1.0 if self.flipped else 1.0) * (objective + self.offset)

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def m(self) -> int:
        return self.b.size


@dataclass
class VarRecord:
    key: str
    vid: tuple | None
    offset: int
    rows: int
    cols: int
    psd: bool

    @property
    def size(self) -> int:
        return self.rows * self.cols


@dataclass
class ConstrRecord:
    key: str
    cid: tuple | None
    row: int
    length: int
    cone: str  # zero | nonneg | psd
    rows_shape: tuple


def _index(records, attr):
    """attr value -> the first record holding it."""
    return {getattr(r, attr): r for r in reversed(records)}


def _lookup(index, key, what):
    try:
        return index[key]
    except KeyError:
        raise KeyError(f"{what} not in map") from None


@dataclass
class VariableMap:
    """Variable and constraint records. Look-ups go through dicts built
    once, so recovering every variable is linear in their number."""
    n: int
    m: int
    vars: list
    constrs: list

    def __post_init__(self):
        self._vid = _index(self.vars, "vid")
        self._key = _index(self.vars, "key")
        self._cid = _index(self.constrs, "cid")
        self._ckey = _index(self.constrs, "key")

    def var_by_vid(self, vid):
        return _lookup(self._vid, vid, f"variable id {vid}")

    def var_by_key(self, key):
        return _lookup(self._key, key, f"variable '{key}'")

    def constr_by_cid(self, cid):
        return _lookup(self._cid, cid, f"constraint {cid}")

    def constr_by_key(self, key):
        return _lookup(self._ckey, key, f"constraint '{key}'")


class GraphContext:
    """Column allocator and row collector handed to atom graph implementations.

    Each variable gets its columns the first time the lowering meets it:
    user variables through `variable`, auxiliaries through `aux`.
    """

    def __init__(self):
        self.ncols = 0
        self.col_is_aux = []     # one flag per column handed out
        self.var_cols = {}       # vid -> first column of a user variable
        self.user_vars = []      # Variables in first-encounter order
        self.cones = ConeSpec()  # K, grown as rows are registered
        self.forms = {kind: [] for kind in KINDS}

    def _columns(self, size: int, aux: bool) -> int:
        start = self.ncols
        self.ncols += size
        self.col_is_aux.extend([aux] * size)
        return start

    def aux(self, size: int) -> LinForm:
        return LinForm.columns(self._columns(size, True), size)

    def variable(self, v: Variable) -> LinForm:
        start = self.var_cols.get(v.vid)
        if start is None:
            start = self.var_cols[v.vid] = self._columns(v.size, False)
            self.user_vars.append(v)
        return LinForm.columns(start, v.size)

    def _add(self, kind: str, form: LinForm) -> int:
        """Register form's rows under kind; return its index there."""
        self.forms[kind].append(form)
        return len(self.forms[kind]) - 1

    def zero(self, form: LinForm) -> int:
        self.cones.zero += form.size
        return self._add("zero", form)

    def nonneg(self, form: LinForm) -> int:
        self.cones.nonneg += form.size
        return self._add("nonneg", form)

    def soc(self, forms):
        """One second-order block; forms concatenate to (t, x) with t first."""
        block = LinForm.concat(forms)
        self.cones.soc.append(block.size)
        self._add("soc", block)

    def soc_batch(self, forms):
        """len(forms) parallel streams of length n -> n blocks of that size."""
        streams = len(forms)
        n = forms[0].size
        stacked = LinForm.concat(forms)
        if n > 1:
            # row i * streams + j is entry i of stream j
            stacked = stacked.select(
                np.arange(streams * n).reshape(streams, n).T.ravel())
        self.cones.soc.extend([streams] * n)
        self._add("soc", stacked)

    def exp_batch(self, xf: LinForm, yf: LinForm, zf: LinForm):
        n = xf.size
        stacked = LinForm.concat([xf, yf, zf])
        self.cones.ep += n
        self._add("exp",
                  stacked.select(np.arange(3 * n).reshape(3, n).T.ravel()))

    def psd(self, vec_form: LinForm, side: int) -> int:
        self.cones.psd.append(side)
        return self._add("psd", vec_form.left_mul(svec_map(side)))


class Lowerer:
    def __init__(self, ctx: GraphContext):
        self.ctx = ctx
        self.memo = {}

    def lower(self, e: Expression) -> LinForm:
        key = id(e)
        if key in self.memo:
            return self.memo[key]
        if isinstance(e, Variable):
            form = self.ctx.variable(e)
        elif e.curvature == Curvature.CONSTANT:
            form = LinForm.constant(constant_value(e).ravel(order="F"))
        else:  # every other expression is an AtomExpr
            child_forms = [self.lower(a) for a in e.args]
            if e.atom.copies_entries:
                form = LinForm.concat(child_forms).select(_entry_positions(e))
            else:
                form = e.atom.graph(self.ctx, child_forms, e.params)
        self.memo[key] = form
        return form


def _entry_positions(e: AtomExpr) -> np.ndarray:
    """For an atom that copies entries: the position in its concatenated
    argument forms of each output entry, -1 for an entry that is zero.
    The atom's evaluate runs on its argument entries numbered from 1 in
    column-major order, so its output names the source of each entry."""
    numbered, start = [], 1
    for a in e.args:
        rows, cols = a.shape
        numbered.append(np.arange(start, start + a.size, dtype=float)
                        .reshape(rows, cols, order="F"))
        start += a.size
    out = np.asarray(e.atom.evaluate(numbered, e.params))
    return out.ravel(order="F").astype(np.int64) - 1


def _assemble(G: LinForm, col_of) -> linalg.SparseMatrix:
    """-G's coefficients, column j moved to col_of[j], as the canonical CSC
    matrix `linalg.from_scipy` makes: rows ascending within each column and
    no stored zeros. A form stores no (row, column) twice, so no entry of A
    sums two terms."""
    A = linalg.SparseMatrix((-G.data, (G.entry_rows(), col_of[G.indices])),
                            shape=(G.size, col_of.size))
    A.eliminate_zeros()
    return A


def canonicalize(problem):
    """Check a problem against the ruleset and lower it to
    (ConeProgram, VariableMap); raise DCPError if the ruleset rejects it."""
    report = dcp_check(problem)
    if not report.accepted:
        raise DCPError("problem does not follow the composition ruleset:\n"
                       + report.render(), report=report)
    ctx = GraphContext()
    low = Lowerer(ctx)

    obj = problem.objective
    obj_form = low.lower(obj.expr)
    flipped = obj.sense == "maximize"
    if flipped:
        obj_form = -obj_form

    entries = []  # (constraint, cone kind, index of its form there, shape)
    for con in problem.constraints:
        body = low.lower(con.body)
        shape = (con.body.shape.rows, con.body.shape.cols)
        if con.kind == "eq":
            entries.append((con, "zero", ctx.zero(body), shape))
        elif con.kind == "ineq":
            entries.append((con, "nonneg", ctx.nonneg(-body), shape))
        else:  # psd
            entries.append((con, "psd", ctx.psd(body, shape[0]), shape))

    # symmetry and cone membership for psd-symmetric variables
    for v in ctx.user_vars:
        if v.attr != "psd-symmetric":
            continue
        n = v.shape.rows
        form = ctx.variable(v)
        # X[i, j] - X[j, i] = 0 below the diagonal, in svec order
        rows, cols, _ = linalg.svec_layout(n)
        i, j = rows[rows != cols], cols[rows != cols]
        if i.size:
            ctx.zero(form.select(flat_index(i, j, n))
                     - form.select(flat_index(j, i, n)))
        ctx.psd(form, n)

    # column layout: user variables first, then auxiliaries, each in the
    # order their columns were handed out. A variable's key is its name,
    # unless it has none or an earlier key holds it; then it is v<i>,
    # suffixed while an earlier key holds that too.
    var_records = []
    col = 0
    keys = set()
    for i, v in enumerate(ctx.user_vars):
        key = v.name if (v.name and v.name not in keys) else f"v{i}"
        suffix = 0
        while key in keys:
            suffix += 1
            key = f"v{i}_{suffix}"
        keys.add(key)
        var_records.append(VarRecord(key=key, vid=v.vid, offset=col,
                                     rows=v.shape.rows, cols=v.shape.cols,
                                     psd=(v.attr == "psd-symmetric")))
        col += v.size
    n = ctx.ncols
    is_aux = np.array(ctx.col_is_aux, dtype=bool)
    perm = np.concatenate([np.flatnonzero(~is_aux), np.flatnonzero(is_aux)])

    # A = -coefficients, b = constants, rows in the order of K's kinds
    G = LinForm.concat([f for forms in ctx.forms.values() for f in forms])
    m = G.size
    col_of = np.empty(n, dtype=np.int64)
    col_of[perm] = np.arange(n)
    A = _assemble(G, col_of)
    b = G.const
    c = np.zeros(n)  # added into, so a stored -0.0 gives +0.0 as toarray did
    c[col_of[obj_form.indices]] += obj_form.data
    offset = float(obj_form.const[0])

    # a constraint's rows start at its kind's first row plus the rows of
    # the forms registered before its own under that kind
    first = {kind: start + np.cumsum([0] + [f.size for f in ctx.forms[kind]])
             for kind, start, _, _ in layout(ctx.cones).kinds}
    constr_records = [
        ConstrRecord(key=f"c{i}", cid=con.cid, row=int(first[kind][j]),
                     length=ctx.forms[kind][j].size, cone=kind,
                     rows_shape=shape)
        for i, (con, kind, j, shape) in enumerate(entries)]

    vmap = VariableMap(n=n, m=m, vars=var_records, constrs=constr_records)
    cp = ConeProgram(c=c, A=A, b=b, cones=ctx.cones,
                     offset=offset, flipped=flipped)
    return cp, vmap


# -- solution recovery --------------------------------------------------------

def recover(solution, vmap: VariableMap, var) -> np.ndarray:
    """Extract one variable's value matrix from a solver solution."""
    if isinstance(var, Variable):
        rec = vmap.var_by_vid(var.vid)
    else:
        rec = vmap.var_by_key(str(var))
    return record_value(solution, rec)


def record_value(solution, rec: VarRecord) -> np.ndarray:
    """The value matrix of the variable a record places."""
    flat = solution.x[rec.offset: rec.offset + rec.size]
    out = flat.reshape(rec.rows, rec.cols, order="F")
    if rec.psd:
        out = 0.5 * (out + out.T)
    return out


def recover_dual(solution, vmap: VariableMap, constraint, flipped=False):
    """Dual multiplier for a user constraint, shaped like its body.

    Conventions: with L = f + lambda' (a - b) + nu' h, inequality duals are
    nonnegative and equality duals unrestricted; for maximize problems the
    reported duals are negated. A Constraint is found by its id and a
    string by its record key ("c0", ... as exported); KeyError otherwise.
    """
    if isinstance(constraint, Constraint):
        rec = vmap.constr_by_cid(constraint.cid)
    else:
        rec = vmap.constr_by_key(constraint)
    y = solution.y[rec.row: rec.row + rec.length]
    if rec.cone == "psd":
        out = linalg.unsvec(y, rec.rows_shape[0])
    elif rec.cone == "zero":
        out = (-y).reshape(rec.rows_shape, order="F")
    else:
        out = y.reshape(rec.rows_shape, order="F")
    if flipped:
        out = -out
    return out


# -- JSON serialization -------------------------------------------------------

def export_json(cp: ConeProgram, vmap: VariableMap) -> str:
    doc = {
        "version": 1,
        "n": int(cp.n),
        "m": int(cp.m),
        "c": np.asarray(cp.c, dtype=float).tolist(),
        "b": np.asarray(cp.b, dtype=float).tolist(),
        "offset": float(cp.offset),
        "flipped": bool(cp.flipped),
        "A": {
            "colptr": np.asarray(cp.A.colptr, dtype=np.int64).tolist(),
            "rowidx": np.asarray(cp.A.rowidx, dtype=np.int64).tolist(),
            "vals": np.asarray(cp.A.vals, dtype=float).tolist(),
        },
        "cones": {
            "z": int(cp.cones.zero),
            "l": int(cp.cones.nonneg),
            "q": [int(v) for v in cp.cones.soc],
            "s": [int(v) for v in cp.cones.psd],
            "ep": int(cp.cones.ep),
        },
        "vars": [
            {"id": r.key, "offset": int(r.offset), "rows": int(r.rows),
             "cols": int(r.cols), "psd": bool(r.psd)}
            for r in vmap.vars
        ],
        "constrs": [
            {"id": r.key, "row": int(r.row), "len": int(r.length),
             "cone": r.cone}
            for r in vmap.constrs
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def get_problem_data(problem):
    """Canonicalize and return (standard-form dict, VariableMap)."""
    cp, vmap = canonicalize(problem)
    return json.loads(export_json(cp, vmap)), vmap


def _expect(cond, path, msg):
    if not cond:
        raise SchemaError(f"field '{path}': {msg}")


def _as_int(doc, path, minimum=None):
    v = doc
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"field '{path}': expected integer, got {v!r}")
    if minimum is not None and v < minimum:
        raise SchemaError(f"field '{path}': must be >= {minimum}")
    return v


def _array(v, path, types, dtype):
    """A JSON list as one array; every entry's type is one of types."""
    _expect(isinstance(v, list), path, "expected a list of numbers")
    if not set(map(type, v)) <= types:
        i = next(i for i, x in enumerate(v) if type(x) not in types)
        what = "integer" if types == {int} else "number"
        raise SchemaError(f"field '{path}[{i}]': expected {what}")
    try:
        return np.array(v, dtype=dtype)
    except OverflowError:
        raise SchemaError(f"field '{path}': entry out of range") from None


def _num_list(v, path):
    out = _array(v, path, {int, float}, float)
    finite = np.isfinite(out)
    if not finite.all():
        raise SchemaError(f"field '{path}[{int(finite.argmin())}]': "
                          f"must be finite")
    return out


def _new_id(key, path, seen):
    """A record's id: a string that no earlier record of its list holds."""
    _expect(isinstance(key, str), path, "expected string")
    _expect(key not in seen, path, f"duplicate id {key!r}")
    seen.add(key)
    return key


def import_json(text: str):
    """Parse exported problem data back to (ConeProgram, VariableMap)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"malformed JSON at line {e.lineno}, column {e.colno}: "
                          f"{e.msg}") from e
    _expect(isinstance(doc, dict), "$", "expected a JSON object")
    required = {"version", "n", "m", "c", "b", "offset", "flipped", "A",
                "cones", "vars", "constrs"}
    missing = required - doc.keys()
    _expect(not missing, "$", f"missing keys: {sorted(missing)}")
    version = _as_int(doc["version"], "version")
    _expect(version == 1, "version", f"unsupported version {version}")
    n = _as_int(doc["n"], "n", 0)
    m = _as_int(doc["m"], "m", 0)
    c = _num_list(doc["c"], "c")
    _expect(c.size == n, "c", f"expected {n} entries, got {c.size}")
    b = _num_list(doc["b"], "b")
    _expect(b.size == m, "b", f"expected {m} entries, got {b.size}")
    offset = doc["offset"]
    _expect(type(offset) in (int, float), "offset", "expected number")
    # false for NaN, infinities and integers too large for a double
    _expect(abs(offset) <= sys.float_info.max, "offset", "must be finite")
    _expect(isinstance(doc["flipped"], bool), "flipped", "expected boolean")

    Adoc = doc["A"]
    _expect(isinstance(Adoc, dict), "A", "expected object")
    colptr = _array(Adoc.get("colptr", None), "A.colptr", {int}, np.int64)
    rowidx = _array(Adoc.get("rowidx", None), "A.rowidx", {int}, np.int64)
    vals = _num_list(Adoc.get("vals", None), "A.vals")
    _expect(colptr.size == n + 1, "A.colptr", f"expected {n + 1} entries")
    _expect(colptr[0] == 0, "A.colptr", "must start at 0")
    _expect(np.all(np.diff(colptr) >= 0), "A.colptr", "must be nondecreasing")
    _expect(colptr[-1] == vals.size, "A.colptr", "must end at nnz")
    _expect(rowidx.size == vals.size, "A.rowidx", "length must match vals")
    stored_zero = vals == 0.0
    if stored_zero.any():
        raise SchemaError(f"field 'A.vals': entry {int(stored_zero.argmax())} "
                          f"is a stored zero")
    if rowidx.size:
        _expect(rowidx.min() >= 0 and rowidx.max() < m, "A.rowidx",
                "row index out of range")
        # within a column the row indices must increase strictly
        first = np.zeros(rowidx.size, dtype=bool)
        first[colptr[:-1][colptr[:-1] < rowidx.size]] = True
        bad = np.flatnonzero((np.diff(rowidx) <= 0) & ~first[1:])
        if bad.size:
            col = int(np.searchsorted(colptr, bad[0] + 1, side="right")) - 1
            raise SchemaError(f"field 'A.rowidx': row indices of column {col} "
                              f"must increase strictly")
    A = linalg.SparseMatrix((vals, rowidx, colptr), shape=(m, n))

    cdoc = doc["cones"]
    _expect(isinstance(cdoc, dict), "cones", "expected object")
    for key in ("z", "l", "q", "s", "ep"):
        _expect(key in cdoc, f"cones.{key}", "missing")
    for key in ("q", "s"):
        _expect(isinstance(cdoc[key], list), f"cones.{key}", "expected a list")
    cones = ConeSpec(
        zero=_as_int(cdoc["z"], "cones.z", 0),
        nonneg=_as_int(cdoc["l"], "cones.l", 0),
        soc=[_as_int(v, f"cones.q[{i}]", 1) for i, v in enumerate(cdoc["q"])],
        psd=[_as_int(v, f"cones.s[{i}]", 1) for i, v in enumerate(cdoc["s"])],
        ep=_as_int(cdoc["ep"], "cones.ep", 0),
    )
    try:
        cones.validate(m)
    except ShapeError as e:
        raise SchemaError(f"field 'cones': {e}") from e

    var_records, var_ids = [], set()
    _expect(isinstance(doc["vars"], list), "vars", "expected list")
    for i, rec in enumerate(doc["vars"]):
        path = f"vars[{i}]"
        _expect(isinstance(rec, dict), path, "expected object")
        for key in ("id", "offset", "rows", "cols", "psd"):
            _expect(key in rec, f"{path}.{key}", "missing")
        rid = _new_id(rec["id"], f"{path}.id", var_ids)
        _expect(isinstance(rec["psd"], bool), f"{path}.psd", "expected boolean")
        off = _as_int(rec["offset"], f"{path}.offset", 0)
        rows = _as_int(rec["rows"], f"{path}.rows", 1)
        cols = _as_int(rec["cols"], f"{path}.cols", 1)
        _expect(off + rows * cols <= n, f"{path}.offset",
                "variable extends past n columns")
        var_records.append(VarRecord(key=rid, vid=None, offset=off,
                                     rows=rows, cols=cols, psd=rec["psd"]))

    constr_records, constr_ids = [], set()
    _expect(isinstance(doc["constrs"], list), "constrs", "expected list")
    for i, rec in enumerate(doc["constrs"]):
        path = f"constrs[{i}]"
        _expect(isinstance(rec, dict), path, "expected object")
        for key in ("id", "row", "len", "cone"):
            _expect(key in rec, f"{path}.{key}", "missing")
        rid = _new_id(rec["id"], f"{path}.id", constr_ids)
        _expect(rec["cone"] in ("zero", "nonneg", "psd"), f"{path}.cone",
                "expected one of zero/nonneg/psd")
        row = _as_int(rec["row"], f"{path}.row", 0)
        length = _as_int(rec["len"], f"{path}.len", 1)
        _expect(row + length <= m, f"{path}.row", "rows extend past m")
        if rec["cone"] == "psd":
            side = int((np.sqrt(8 * length + 1) - 1) / 2)
            _expect(linalg.svec_dim(side) == length, f"{path}.len",
                    "a psd constraint needs n(n+1)/2 rows for some side n")
            shape = (side, side)
        else:
            shape = (length, 1)
        constr_records.append(ConstrRecord(key=rid, cid=None, row=row,
                                           length=length, cone=rec["cone"],
                                           rows_shape=shape))

    cp = ConeProgram(c=c, A=A, b=b, cones=cones,
                     offset=float(offset), flipped=doc["flipped"])
    vmap = VariableMap(n=n, m=m, vars=var_records, constrs=constr_records)
    return cp, vmap
