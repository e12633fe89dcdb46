"""Independent oracles shared by the unit and acceptance tests.

chain_map_data computes the space of chain maps and its null-homotopic
subspace straight from the commuting-square constraints, using nothing but
hom_space bases, one kernel computation and solved coordinates
(coordinates_in_hom_basis) — deliberately bypassing inner_hom, which reads
coordinates off free rows, so the two can be compared.

quasi_iso_reference decides quasi-isomorphisms through canonical cohomology,
direct_sum_reference builds direct sums with block_diag and entrywise
injections, hom_constraints_reference builds the Hom constraint matrix
from Kronecker products, and bound_quiver_algebra_reference fills the
structure constants of a bound quiver algebra path pair by path pair, and
ext_space_reference cuts the Ext^i cocycles out with the generators of
P_(i+1) of a resolution extended one degree further, and
greedy_generators_reference picks generators one membership test at a time
in an IncrementalSpan, and _draw_module_reference decides a module draw on
the free module of a built algebra, reads ranks by lifting to it, and builds
the drawn quotient with submodule and submodule_quotient;
random_filtration_reference draws through it on an algebra built for every
filtration try, and ses_chain_reference draws every module of a chain
through it.  All of them are the package's earlier constructions, kept as
oracles for is_quasi_iso, direct_sum, _hom_matrix, bound_quiver_algebra,
ext._ExtSpace, ext._greedy_generators, instances.random_module,
instances.random_filtration and instances._random_ses_chain.

ListModuleReference is the earlier explicit Module, one action Mat per
algebra basis vector, kept as the oracle for Module's one action array;
null_basis_reference and solve_reference read kernels and solutions off a
dense RREF of the whole matrix, made over a prime field by _rref_fp, the
package's earlier numpy elimination, and over Q by rref_qq_reference, as
the oracles for the column reads of _kernel and solve in both of
_reduced's regimes, packed and on rows.  rref_qq_reference and
dot_qq_reference are the earlier rational RREF and product: denominators
cleared row by row and operand by operand, and every column of the
fraction-free rows divided by the last pivot.

The dense references of the complex layer (chain_map_validate_reference,
chain_map_compose_reference, chain_map_sub_reference, boundary_reference,
complex_validate_reference, complex_eq_reference) walk every degree of the
range and build a zero map through diff()/comp() for each absent entry, as
the complex layer did before it iterated stored components only; equality
is key equality.
"""

from dataclasses import dataclass
from fractions import Fraction
from random import Random

import numpy as np

from roofext.algebra import (
    Algebra, Filtration, Module, ModuleHom, free_module, hom_space, quiver_simple,
    random_bound_quiver_algebra, submodule, submodule_quotient)
from roofext.complexes import ChainMap, Complex, Homotopy, QuasiIsoReport, cohomology
from roofext.errors import DegenerateFiltrationError, InvariantError, SchemaError
from roofext.ext import Resolution, _hom_delta, ext_group, extension_from_class
from roofext.instances import random_ext_element
from roofext.linalg import (
    QQ, IncrementalSpan, Mat, PrimeField, _clear_denominators, block_diag, hstack,
    kernel_basis, pivots, random_mat, rank, solve, subquotient)


def coordinates_in_hom_basis(basis: list[ModuleHom], hom_matrix: Mat) -> Mat:
    """Coefficients of a hom in a given hom_space basis (column vector), by
    one linear solve."""
    if not basis:
        if hom_matrix.is_zero():
            return Mat.zeros(hom_matrix.field, 0, 1)
        raise ValueError("hom not in span of empty basis")
    cols = hstack([Mat(b.matrix.field, b.matrix.a.reshape(-1, 1).copy()) for b in basis])
    vec = Mat(hom_matrix.field, hom_matrix.a.reshape(-1, 1).copy())
    out = solve(cols, vec)
    if out is None:
        raise ValueError("hom does not lie in the span of the basis")
    return out


@dataclass
class ChainMapData:
    source: Complex
    target: Complex
    slot_bases: dict[int, list]
    offsets: dict[int, int]
    total: int
    cocycles: Mat        # coefficient vectors spanning the chain maps
    boundaries: Mat      # coefficient vectors spanned by dh + hd

    @property
    def maps_dim(self) -> int:
        return self.cocycles.ncols

    @property
    def null_homotopic_dim(self) -> int:
        return rank(self.boundaries)

    @property
    def classes_dim(self) -> int:
        return self.maps_dim - self.null_homotopic_dim

    def materialize(self, coeffs: Mat) -> ChainMap:
        """Chain map from a coefficient column in the slot bases."""
        comps = {}
        for i, basis in self.slot_bases.items():
            if not basis:
                continue
            acc = Mat.zeros(self.source.algebra.field,
                            self.target.obj(i).dim, self.source.obj(i).dim)
            for t, b in enumerate(basis):
                c = coeffs.entry(self.offsets[i] + t, 0)
                if c:
                    acc = acc + b.matrix.scale(c)
            if not acc.is_zero():
                comps[i] = ModuleHom(self.source.obj(i), self.target.obj(i),
                                     acc, check=False)
        return ChainMap(self.source, self.target, comps, check=True)

    def random_chain_map(self, rng: Random) -> tuple[ChainMap, Mat]:
        field = self.source.algebra.field
        if self.cocycles.ncols == 0:
            coeffs = Mat.zeros(field, self.total, 1)
        else:
            coeffs = self.cocycles @ random_mat(rng, field, self.cocycles.ncols, 1)
        return self.materialize(coeffs), coeffs

    def is_null_homotopic(self, coeffs: Mat) -> bool:
        return solve(self.boundaries, coeffs) is not None


def chain_map_data(x: Complex, y: Complex) -> ChainMapData:
    field = x.algebra.field
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)
    degs = list(range(lo, hi + 1))
    slot_bases = {i: hom_space(x.obj(i), y.obj(i)) for i in degs}
    offsets, total = {}, 0
    for i in degs:
        offsets[i] = total
        total += len(slot_bases[i])

    rows = []
    for i in degs[:-1]:
        r = y.obj(i + 1).dim * x.obj(i).dim
        if r == 0:
            continue
        block = field.zeros((r, total))
        d_y = y.diff(i).matrix
        d_x = x.diff(i).matrix
        for t, b in enumerate(slot_bases[i]):
            block[:, offsets[i] + t] = np.asarray((d_y @ b.matrix).a).reshape(-1)
        for t, b in enumerate(slot_bases[i + 1]):
            col = np.asarray((b.matrix @ d_x).a).reshape(-1)
            block[:, offsets[i + 1] + t] = block[:, offsets[i + 1] + t] - col
        rows.append(block)
    if rows and total:
        cocycles = kernel_basis(Mat(field, np.vstack(rows)))
    else:
        cocycles = Mat.identity(field, total)

    cols = []
    for i in degs:
        if i - 1 < lo:
            continue
        for b in hom_space(x.obj(i), y.obj(i - 1)):
            vec = field.zeros((total, 1))
            up = y.diff(i - 1).matrix @ b.matrix       # slot i of dh
            if slot_bases[i] and not up.is_zero():
                c = coordinates_in_hom_basis(slot_bases[i], up)
                vec[offsets[i]: offsets[i] + len(slot_bases[i])] = vec[
                    offsets[i]: offsets[i] + len(slot_bases[i])] + c.a
            down = b.matrix @ x.diff(i - 1).matrix     # slot i-1 of hd
            if slot_bases[i - 1] and not down.is_zero():
                c = coordinates_in_hom_basis(slot_bases[i - 1], down)
                vec[offsets[i - 1]: offsets[i - 1] + len(slot_bases[i - 1])] = vec[
                    offsets[i - 1]: offsets[i - 1] + len(slot_bases[i - 1])] + c.a
            cols.append(vec)
    boundaries = Mat(field, np.hstack(cols)) if cols else Mat.zeros(field, total, 0)
    return ChainMapData(x, y, slot_bases, offsets, total, cocycles, boundaries)


def quasi_iso_reference(f: ChainMap) -> QuasiIsoReport:
    """Canonical cohomology of both ends in every degree, and the rank of
    the induced map between their class coordinates."""
    lo = min(f.source.lo, f.target.lo)
    hi = max(f.source.hi, f.target.hi)
    degrees = {}
    ok = True
    for n in range(lo, hi + 1):
        hx = cohomology(f.source, n)
        hy = cohomology(f.target, n)
        induced = hy.project @ (f.comp(n).matrix @ hx.include)
        r = rank(induced)
        degrees[n] = (hx.module.dim, hy.module.dim, r)
        if not (hx.module.dim == hy.module.dim == r):
            ok = False
    return QuasiIsoReport(ok=ok, degrees=degrees)


def direct_sum_reference(mods: list[Module]):
    """Block-diagonal actions, one block_diag per algebra basis vector, and
    injections and projections filled entry by entry."""
    algebra = mods[0].algebra
    field = mods[0].field
    total = sum(m.dim for m in mods)
    action = [block_diag([m.act_mat(i) for m in mods]) for i in range(algebra.dim)]
    amb = Module(algebra, action=action)
    injs, projs, off = [], [], 0
    for m in mods:
        ji = Mat.zeros(field, total, m.dim).a.copy()
        pi = Mat.zeros(field, m.dim, total).a.copy()
        for t in range(m.dim):
            ji[off + t, t] = 1
            pi[t, off + t] = 1
        injs.append(ModuleHom(m, amb, Mat(field, ji), check=False))
        projs.append(ModuleHom(amb, m, Mat(field, pi), check=False))
        off += m.dim
    return amb, injs, projs


def hom_constraints_reference(source: Module, target: Module) -> Mat:
    """The intertwining constraints on row-major vec(F), F: source -> target,
    as stacked blocks A_i (x) I - I (x) B_i^T, two np.kron calls per algebra
    basis vector."""
    n, m = target.dim, source.dim
    field = source.field
    if n == 0 or m == 0:
        return Mat.zeros(field, source.algebra.dim * n * m, n * m)
    eye_m = Mat.identity(field, m).a
    eye_n = Mat.identity(field, n).a
    blocks = [np.kron(target.act_mat(i).a, eye_m) - np.kron(eye_n, source.act_mat(i).a.T)
              for i in range(source.algebra.dim)]
    return Mat(field, np.vstack(blocks))


def bound_quiver_algebra_reference(field, num_vertices: int, arrows: list[tuple[int, int]],
                                   nil_index: int = 2) -> Algebra:
    """kQ / (paths of length >= nil_index), with p * q ("q then p") looked up
    for every pair of paths in an object table."""
    paths = [(v, v, ()) for v in range(num_vertices)]
    paths += [(s, t, (k,)) for k, (s, t) in enumerate(arrows)]
    if nil_index == 3:
        paths += [(s1, t2, (k1, k2)) for k2, (s2, t2) in enumerate(arrows)
                  for k1, (s1, t1) in enumerate(arrows) if t1 == s2]
    n = len(paths)
    index = {p: i for i, p in enumerate(paths)}
    mult = np.zeros((n, n, n), dtype=object)
    for i, (ps, pt, pw) in enumerate(paths):
        for j, (qs, qt, qw) in enumerate(paths):
            if qt == ps and len(qw + pw) < nil_index:
                mult[i, j, index[(qs, pt, qw + pw)]] = 1
    unit = np.zeros(n, dtype=object)
    unit[:num_vertices] = 1
    rad_cols = [i for i, p in enumerate(paths) if p[2]]
    radical = Mat.zeros(field, n, len(rad_cols)).a.copy()
    for c, i in enumerate(rad_cols):
        radical[i, c] = 1
    alg = Algebra(field, mult, unit, radical=Mat(field, radical),
                  label=f"kQ({num_vertices}v,{len(arrows)}a)/rad^{nil_index}", check=False)
    alg.quiver = {"vertices": num_vertices, "arrows": list(arrows),
                  "nil_index": nil_index, "paths": paths}
    return alg


def ext_space_reference(M: Module, N: Module, i: int) -> tuple[Mat, Mat]:
    """(include, project) of Ext^i(M, N) from a fresh resolution extended to
    degree i+1, whose cocycles vanish on the generators gens[i+1] of P_(i+1)."""
    res = Resolution(M)
    res._extend_to(i + 1)
    delta_out = _hom_delta(N, res.ranks[i], res.gens[i + 1])
    if i == 0:
        delta_in = Mat.zeros(M.field, delta_out.ncols, 0)
    else:
        delta_in = _hom_delta(N, res.ranks[i - 1], res.gens[i])
    _, include, project = subquotient(delta_out, delta_in)
    return include, project


def greedy_generators_reference(ambient: Module, basis: Mat) -> Mat:
    """Greedy generators of the span of basis: a scan that keeps each column
    outside the closure of those kept before it, then a pair-merging pass
    that replaces two generators by their sum (or difference) while the
    closure still has the full rank; every closure is grown in an
    IncrementalSpan from the action images A*G = span{e_i g}."""
    field, total = ambient.field, basis.ncols

    def close(span: IncrementalSpan, fresh: list[np.ndarray]) -> None:
        hit = ambient.act_all(Mat(field, np.array(fresh, dtype=object).T))
        for j in range(hit.ncols):
            span.add(hit.a[:, j])

    gens: list[np.ndarray] = []
    span = IncrementalSpan(field, ambient.dim)
    for j in range(total):
        v = basis.a[:, j]
        if not span.contains(v):
            gens.append(np.array(v, copy=True))
            close(span, [v])

    def spans_all(cand: list[np.ndarray]) -> bool:
        sp = IncrementalSpan(field, ambient.dim)
        close(sp, cand)
        return sp.rank == total

    improved = True
    while improved and len(gens) > 1:
        improved = False
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                merges = [gens[i] + gens[j]]
                if field.char != 2:
                    merges.append(gens[i] - gens[j])
                rest = [g for t, g in enumerate(gens) if t not in (i, j)]
                done = False
                for m in merges:
                    if spans_all(rest + [m]):
                        gens = rest + [m]
                        improved = done = True
                        break
                if done:
                    break
            if improved:
                break
    if not gens:
        return Mat.zeros(field, ambient.dim, 0)
    return Mat(field, np.array(gens, dtype=object).T)


def ses_chain_reference(rng: Random, field, length: int, tries: int) -> tuple:
    """length composable extensions over one algebra, each of the modules
    M_0..M_length drawn on the free module and built as a submodule quotient
    (_draw_module_reference)."""
    for _ in range(tries):
        algebra = random_bound_quiver_algebra(rng, field)
        mods = [_draw_module_reference(rng, algebra, 4)[2]() for _ in range(length + 1)]
        bases = []
        for src, dst in zip(mods, mods[1:]):
            dim, basis = ext_group(src, dst, 1)
            if dim == 0:
                break
            bases.append(basis)
        else:
            return tuple(extension_from_class(random_ext_element(rng, b)) for b in bases)
    raise RuntimeError(f"could not draw a composable chain of {length} extensions")


def _moved_rows(module: Module, vecs: Mat) -> Mat:
    """Row s*k + j is e_s v_j for the k columns v_j of vecs, one act_mat
    product per algebra basis vector."""
    return hstack([module.act_mat(i) @ vecs for i in range(module.algebra.dim)]).T


def _draw_module_reference(rng: Random, algebra: Algebra, max_dim: int, tries: int = 64):
    """(dim, rank_of, build): random_module's draw, decided on the free module
    of a built algebra."""
    free = free_module(algebra, 1)
    if free.dim <= max_dim and rng.random() < 0.2:
        return _decided_reference(free, lambda: free)
    nv = algebra.quiver["vertices"]
    for _ in range(tries):
        k = rng.randint(1, max(1, algebra.dim - 1))
        gens = random_mat(rng, algebra.field, free.dim, k)
        if (gens.a[:nv] != 0).any(axis=1).all():  # Nakayama: gens generate A
            continue
        rows = _moved_rows(free, gens)
        piv = pivots(rows)
        if piv and 1 <= free.dim - len(piv) <= max_dim:
            return _decided_reference(
                free, lambda: submodule_quotient(free, submodule(free, gens))[0], rows, piv)
    simple = quiver_simple(algebra, rng.randrange(nv))
    return _decided_reference(simple, lambda: simple)


def _decided_reference(module: Module, build, rows: Mat | None = None,
                       piv: tuple[int, ...] = ()):
    """The draw of module / span(rows.T): rank_of(g) lifts g off the pivots."""
    field = module.field
    rest = sorted(set(range(module.dim)) - set(piv))

    def rank_of(g: Mat) -> int:
        lift = field.zeros((module.dim, g.ncols))
        lift[rest] = g.a
        hit = _moved_rows(module, Mat(field, lift))
        return rank(hit if rows is None else Mat(field, np.vstack([rows.a, hit.a]))) - len(piv)

    return module.dim - len(piv), rank_of, build


def random_filtration_reference(rng: Random, field, max_dim: int = 6, tries: int = 400):
    """random_filtration with a random_bound_quiver_algebra built for every try."""
    for _ in range(tries):
        algebra = random_bound_quiver_algebra(rng, field)
        dim, rank_of, build = _draw_module_reference(rng, algebra, max_dim)
        if dim < 3:
            continue
        g1 = random_mat(rng, field, dim, 1)
        if not 1 <= (r1 := rank_of(g1)) <= dim - 2:
            continue
        g12 = hstack([g1, random_mat(rng, field, dim, 1)])
        if not r1 < rank_of(g12) < dim:
            continue
        ambient = build()
        return Filtration(ambient, submodule(ambient, g1), submodule(ambient, g12))
    raise DegenerateFiltrationError(f"no nondegenerate filtration in {tries} tries")


def chain_map_validate_reference(f: ChainMap) -> None:
    """ChainMap.validate on every square of the joint degree range."""
    for n, c in f.comps.items():
        if c.source.dim != f.source.obj(n).dim or c.target.dim != f.target.obj(n).dim:
            raise SchemaError(f"component at degree {n} has wrong endpoints")
    for n in range(min(f.source.lo, f.target.lo), max(f.source.hi, f.target.hi)):
        lhs = f.target.diff(n) @ f.comp(n)
        rhs = f.comp(n + 1) @ f.source.diff(n)
        if lhs.matrix != rhs.matrix:
            raise SchemaError(f"square at degree {n} does not commute")


def chain_map_compose_reference(f: ChainMap, g: ChainMap) -> ChainMap:
    """f @ g, one product per degree of g's source."""
    comps = {n: f.comp(n) @ g.comp(n) for n in g.source.degrees()}
    return ChainMap(g.source, f.target, comps, check=False)


def chain_map_sub_reference(f: ChainMap, g: ChainMap) -> ChainMap:
    """f - g, one difference per degree of either source."""
    comps = {n: f.comp(n) - g.comp(n) for n in range(min(f.source.lo, g.source.lo),
                                                     max(f.source.hi, g.source.hi) + 1)}
    return ChainMap(f.source, f.target, comps, check=False)


def boundary_reference(h: Homotopy) -> ChainMap:
    """dh + hd, both terms in every degree of the source."""
    comps = {n: (h.target.diff(n - 1) @ h.comp(n)) + (h.comp(n + 1) @ h.source.diff(n))
             for n in h.source.degrees()}
    return ChainMap(h.source, h.target, comps, check=False)


def complex_validate_reference(algebra: Algebra, objects: dict, diffs: dict) -> None:
    """Complex validation with d^(n+1) d^n formed in every degree of the range."""
    x = Complex(algebra, objects, diffs, check=False)
    for n, m in objects.items():
        if m.algebra != algebra:
            raise SchemaError(f"object in degree {n} lives over a different algebra")
    for n, d in diffs.items():
        if d.source != objects.get(n) or d.target.dim != x.obj(n + 1).dim:
            raise SchemaError(f"differential at degree {n} has wrong endpoints")
    for n in range(x.lo, x.hi):
        if not (x.diff(n + 1) @ x.diff(n)).is_zero():
            raise SchemaError(f"d*d != 0 between degrees {n} and {n + 2}")


def complex_eq_reference(a: Complex, b: Complex) -> bool:
    """Complex equality as key equality."""
    return a is b or a.algebra == b.algebra and a.key() == b.key()


class ListModuleReference:
    """The earlier explicit module: a list of action Mats, np.vstack'ed into
    _blocks' stacked form, from_act_all splitting [A_0 | A_1 | ...] into
    per-element Mats, and key() the tuple of their keys."""

    def __init__(self, algebra: Algebra, action: list[Mat]):
        self.algebra, self.action = algebra, list(action)
        self.dim = self.action[0].nrows

    @staticmethod
    def from_act_all(algebra: Algebra, hit: Mat) -> "ListModuleReference":
        w = hit.ncols // algebra.dim
        return ListModuleReference(
            algebra, [hit.take_cols(range(i * w, (i + 1) * w)) for i in range(algebra.dim)])

    def act_mat(self, i: int) -> Mat:
        return self.action[i]

    def stacked(self) -> np.ndarray:
        return np.vstack([m.a for m in self.action])

    def actions(self) -> Mat:
        return hstack(self.action)

    def act_all(self, vecs: Mat) -> Mat:
        return hstack([m @ vecs for m in self.action])

    def key(self) -> tuple:
        return (self.algebra.key(), self.dim, tuple(m.key() for m in self.action))


def free_module_reference(algebra: Algebra, rank_: int) -> ListModuleReference:
    """A^r with block-diagonal copies of the left regular action."""
    return ListModuleReference(algebra, [block_diag([algebra.left_mult(i)] * rank_)
                                         for i in range(algebra.dim)])


def rref_qq_reference(a: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Fraction-free Gauss-Jordan: rows other than the pivot row become
    (pv * x - f * y) / prev, exactly; then one division by the last pivot."""
    mrows, ncols = a.shape
    rows = [_clear_denominators(row)[1].tolist() for row in a]

    piv: list[int] = []
    r = 0
    prev = 1
    for c in range(ncols):
        if r == mrows:
            break
        sel = next((i for i in range(r, mrows) if rows[i][c] != 0), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        top = rows[r]
        pv, top_sum = top[c], sum(top)
        for i in (*range(r), *range(r + 1, mrows)):
            row = rows[i]
            f = row[c]
            if f == 0 and pv == prev:  # the update would leave the row as it is
                continue
            rows[i] = [(pv * x - f * y) // prev for x, y in zip(row, top)]
            # floor remainders all share prev's sign, so they vanish iff their sum does
            if pv * sum(row) - f * top_sum != prev * sum(rows[i]):
                raise InvariantError("fraction-free elimination lost exact divisibility")
        prev = pv
        piv.append(c)
        r += 1

    out = QQ.zeros((mrows, ncols))
    for i in range(r):
        out[i, :] = [x // prev if x % prev == 0 else Fraction(x, prev) for x in rows[i]]
    return out, piv


def dot_qq_reference(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The rational product with each operand's denominators cleared first."""
    if A.shape[1] == 0 or A.shape[0] == 0 or B.shape[1] == 0:
        return QQ.zeros((A.shape[0], B.shape[1]))
    da, na = _clear_denominators(A)
    db, nb = _clear_denominators(B)
    ma = max(map(abs, na.reshape(-1).tolist()))
    mb = max(map(abs, nb.reshape(-1).tolist()))
    if ma == 0 or mb == 0:
        return QQ.zeros((A.shape[0], B.shape[1]))
    if ma * mb * A.shape[1] <= 2**63 - 1:  # every partial sum fits in int64
        prod = na.astype(np.int64).dot(nb.astype(np.int64)).astype(object)
    else:
        prod = na.dot(nb)
    d = da * db
    if d == 1:
        return prod
    out = np.empty(prod.shape, dtype=object)
    out.reshape(-1)[:] = [n // d if n % d == 0 else Fraction(n, d)
                          for n in prod.reshape(-1).tolist()]
    return out


def _rref_fp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    mrows, ncols = a.shape
    piv: list[int] = []
    r = 0
    for c in range(ncols):
        if r == mrows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        if a[r, c] != 1:
            a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        other = a[:, c].nonzero()[0]
        other = other[other != r]
        if other.size:
            a[other] = (a[other] - a[other, c, None] * a[r]) % p
        piv.append(c)
        r += 1
    return a, piv


def dense_rref_reference(m: Mat) -> tuple[Mat, tuple[int, ...]]:
    """RREF by the numpy elimination _rref_fp over a prime field (never
    packed, never on rows), and by rref_qq_reference over Q."""
    if isinstance(m.field, PrimeField):
        r, piv = _rref_fp(m.a.copy(), m.field.p)
    else:
        r, piv = rref_qq_reference(m.a)
    return Mat(m.field, r), tuple(piv)


def null_basis_reference(r: Mat, piv: tuple[int, ...], n: int) -> tuple[Mat, tuple[int, ...]]:
    """Kernel basis of the first n columns of a dense RREF r: the identity on
    the free rows, the negated RREF entries, reduced through Mat, on the pivot rows."""
    pivset = set(piv)
    free = tuple(j for j in range(n) if j not in pivset)
    out = r.field.zeros((n, len(free)))
    out[list(free), range(len(free))] = 1
    out[list(piv), :] = -r.a[: len(piv), list(free)]
    return Mat(r.field, out), free


def solve_reference(m: Mat, b: Mat, rng: Random | None = None) -> Mat | None:
    """solve read off the whole dense RREF of [m | b]; an rng adds the same
    random null vector solve adds."""
    r, piv = dense_rref_reference(hstack([m, b]))
    n = m.ncols
    if any(c >= n for c in piv):
        return None
    out = m.field.zeros((n, b.ncols))
    out[list(piv), :] = r.a[: len(piv), n:]
    sol = Mat(m.field, out)
    if rng is not None and len(piv) < n and b.ncols:
        K, free = null_basis_reference(r, piv, n)
        sol = sol + K @ random_mat(rng, m.field, len(free), b.ncols)
    return sol
