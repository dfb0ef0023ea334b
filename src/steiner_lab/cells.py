"""Cells of the omega-category presented by a directed complex.

An i-cell is a double row of positive chains in degrees 0..i: both rows
share every differential (d x = upper - lower one degree down), the degree-0
entries have augmentation 1, and the two degree-i entries agree; it is a
morphism out of the globe complex G_i.  Source, target, identities and
compositions act row-wise, a composite padding its lower factor by identities.

Cells, and slice cells (``slices.py``), are enumerated by one loop,
``_levels``: level i grows from level i-1 by the pairs with one boundary
(the top's source and target in G_i), which ``chains._matched`` lists as it
lists ``lambda_of_nu``'s composable pairs, and the top fillers of
``_fillers``.  Its module slot keeps the last level returned, with its key,
dim and ``complete`` flag.  The key is ("cells", K, coeff_bound) or
("slice", u, c, coeff_bound), K and u compared by identity.  A call with
the same key and a dim at or above the kept one resumes from that level;
any other call clears the slot first, so at most one level is alive.  Cells
and slice cells share the one slot, so a call of either kind frees the
other's level: one live level bounds peak RSS, which a slot per kind raised.
The kept tuple is never mutated, so a call racing another thread's at worst
misses a resume.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chains import Chain, _matched, _toposort, pos_neg_decompose
from .linalg import abelian_invariants
from .solve import solve_augmentation, solve_boundary


@dataclass(frozen=True)
class CellTableau:
    """A cell of nu(K): ``x0[k]``/``x1[k]`` are the degree-k row entries."""

    complex: object
    x0: tuple[Chain, ...]
    x1: tuple[Chain, ...]

    @property
    def dim(self):
        return len(self.x0) - 1

    @property
    def top(self):
        return self.x0[-1]

    def __str__(self):
        lo = " | ".join(str(c) for c in self.x0)
        hi = " | ".join(str(c) for c in self.x1)
        return f"[{lo} // {hi}]"


def _check_shape(cell):
    K = cell.complex
    if len(cell.x0) != len(cell.x1) or not cell.x0:
        raise ValueError("rows must be two equal-length nonempty tuples")
    for k, (a, b) in enumerate(zip(cell.x0, cell.x1)):
        if a.degree != k or b.degree != k:
            raise ValueError(f"row {k} entries must be degree-{k} chains")
        if not (K.contains_chain(a) and K.contains_chain(b)):
            raise ValueError(f"row {k} mentions tokens outside the complex")


def cell_problems(cell):
    """Diagnostics for the four tableau conditions; empty iff a genuine cell."""
    _check_shape(cell)
    K = cell.complex
    problems = []
    for k, (a, b) in enumerate(zip(cell.x0, cell.x1)):
        for label, chain in (("lower", a), ("upper", b)):
            if not chain.is_positive:
                problems.append(f"{label} entry in degree {k} is not positive")
        if k > 0:
            want = cell.x1[k - 1] - cell.x0[k - 1]
            for label, chain in (("lower", a), ("upper", b)):
                if K.d(chain) != want:
                    problems.append(
                        f"d of {label} degree-{k} entry is not the row difference"
                    )
    for label, chain in (("lower", cell.x0[0]), ("upper", cell.x1[0])):
        if K.e(chain) != 1:
            problems.append(f"augmentation of {label} degree-0 entry is {K.e(chain)}")
    if cell.x0[-1] != cell.x1[-1]:
        problems.append("top entries differ")
    return problems


def object_cell(K, chain):
    return CellTableau(K, (chain,), (chain,))


def _atom(K, token):
    """The double row of a basis element, by iterated sign splitting of d: a
    cell iff both degree-0 entries have augmentation 1."""
    x0 = x1 = (Chain.unit(K.degree_of(token), token),)
    for _ in range(K.degree_of(token)):
        x0 = (pos_neg_decompose(K.d(x0[0]))[1],) + x0
        x1 = (pos_neg_decompose(K.d(x1[0]))[0],) + x1
    return CellTableau(K, x0, x1)


def atom_cell(K, token):
    """The atom of a basis element, as a cell tableau."""
    atom = _atom(K, token)
    if not K.e(atom.x0[0]) == K.e(atom.x1[0]) == 1:
        raise ValueError(f"atom of {token!r} is not a cell")
    return atom


def is_unitary(K):
    """True iff the atom of every basis element is a genuine cell."""
    atoms = (_atom(K, t) for t in K.index)
    return all(K.e(atom.x0[0]) == K.e(atom.x1[0]) == 1 for atom in atoms)


def is_loopfree(K):
    """Degreewise precedence constraints admit a linear order (cycle detection)."""
    atoms = [_atom(K, t) for t in K.index]
    for i in K.degrees():
        edges = {
            (a, b)
            for atom in atoms if atom.dim > i
            for a in atom.x0[i].support() for b in atom.x1[i].support()
        }
        if _toposort(list(K.tokens(i)), edges)[0] is None:
            return False
    return True


def _source_rows(x0, x1, j):
    """The two rows of s_j of the double row (x0, x1), also the coherence
    rows of a slice cell's s_j."""
    return x0[:j + 1], x1[:j] + (x0[j],)


def _target_rows(x0, x1, j):
    """The two rows of t_j of the double row (x0, x1)."""
    return x0[:j] + (x1[j],), x1[:j + 1]


def source(cell):
    return source_iter(cell, cell.dim - 1)


def target(cell):
    return target_iter(cell, cell.dim - 1)


def identity(cell):
    return CellTableau(cell.complex, *_padded_rows(cell, cell.dim + 1))


def source_iter(cell, j):
    """Iterated source s_j, read off the rows in one step; s_j is the cell
    itself for j >= dim."""
    if j < 0:
        raise ValueError("0-cells have no source")
    if j >= cell.dim:
        return cell
    return CellTableau(cell.complex, *_source_rows(cell.x0, cell.x1, j))


def target_iter(cell, j):
    """Iterated target t_j, read off the rows like ``source_iter``."""
    if j < 0:
        raise ValueError("0-cells have no target")
    if j >= cell.dim:
        return cell
    return CellTableau(cell.complex, *_target_rows(cell.x0, cell.x1, j))


def is_identity_cell(cell):
    return cell.dim > 0 and cell.top.is_zero


def _padded_rows(cell, i):
    """The rows of ``cell`` padded by identities up to dimension ``i``."""
    pad = tuple(Chain.zero(k) for k in range(cell.dim + 1, i + 1))
    return cell.x0 + pad, cell.x1 + pad


def _joins(x0, x1, y0, y1, j):
    """Whether s_j of the rows (x0, x1) equals t_j of the rows (y0, y1), as
    ``_source_rows``/``_target_rows`` give them, compared entry by entry
    without building either."""
    return x0[j] == y1[j] and x0[:j] == y0[:j] and x1[:j] == y1[:j]


def composable(x, y, j):
    i = max(x.dim, y.dim)
    if not 0 <= j < i or x.complex != y.complex:
        return False
    return _joins(*_padded_rows(x, i), *_padded_rows(y, i), j)


def compose(x, y, j):
    """The composite x *_j y (x after y over the shared j-boundary).

    Cells of different dimensions are composed by padding the lower one
    with iterated identities.
    """
    if x.complex != y.complex:
        raise ValueError("cells live over different complexes")
    if j >= max(x.dim, y.dim) or j < 0:
        raise ValueError(f"no composition *_{j} in dimension {max(x.dim, y.dim)}")
    i = max(x.dim, y.dim)
    x0, x1 = _padded_rows(x, i)
    y0, y1 = _padded_rows(y, i)
    if not _joins(x0, x1, y0, y1, j):
        raise ValueError(f"cells are not {j}-composable")
    rows0 = y0[: j + 1] + tuple(a + b for a, b in zip(x0[j + 1 :], y0[j + 1 :]))
    rows1 = x1[: j + 1] + tuple(a + b for a, b in zip(x1[j + 1 :], y1[j + 1 :]))
    return CellTableau(x.complex, rows0, rows1)


def map_cell(f, cell):
    """Entrywise image of a cell under a morphism of complexes."""
    if cell.complex != f.source:
        raise ValueError("cell does not live over the morphism source")
    return CellTableau(
        f.target,
        tuple(f.apply(c) for c in cell.x0),
        tuple(f.apply(c) for c in cell.x1),
    )


@dataclass(frozen=True)
class CellEnumeration:
    cells: tuple[CellTableau, ...]
    complete: bool

    def nonidentity(self):
        return tuple(c for c in self.cells if not is_identity_cell(c))


_kept = None  # (key, dim, level, complete) of the last level returned


def _fillers(K, lo, top, bound):
    """The cells over K from ``lo`` to the cell with ``lo``'s lower rows and
    top ``top``, one per z with d z = top - lo.top, and ``complete``."""
    sols = solve_boundary(K, lo.dim + 1, top - lo.top, bound)
    return [
        CellTableau(K, lo.x0 + (z,), lo.x1[:-1] + (top, z)) for z in sols.chains
    ], sols.complete


def _levels(key, dim, first, boundary, grow, order):
    """Level ``dim`` of an enumeration, sorted by ``order``, and its
    ``complete`` flag, through the slot of the module docstring.

    Level 0 is ``first()``, a (list, complete) pair; level i comes from
    level i-1 by ``grow(lo, hi)`` over every ordered pair with one
    ``boundary``, also giving (list, complete).  The kept level is resumed
    when its key is ``key`` (the owner ``key[1]`` compared by identity) and
    its dim is at most ``dim``.
    """
    global _kept
    kept, _kept = _kept, None
    if (kept and kept[1] <= dim and kept[0][0] == key[0]
            and kept[0][1] is key[1] and kept[0][2:] == key[2:]):
        start, level, complete = kept[1:]
    else:
        start, (level, complete) = 0, first()
    for _ in range(start, dim):
        lower, level = level, []
        for lo, hi in _matched(lower, map(boundary, lower), lower, map(boundary, lower)):
            new, ok = grow(lo, hi)
            complete &= ok
            level.extend(new)
    level = tuple(sorted(level, key=order))
    _kept = (key, dim, level, complete)
    return level, complete


def enumerate_cells(K, dim, coeff_bound=None):
    """All i-cells of nu(K), by degreewise boundary-constrained search.

    The ``complete`` flag is inherited from the chain solver: exact whenever
    the complex carries the peeling certificate (notably every strongly
    loop-free complex with pointed differentials), otherwise the result is
    bounded by ``coeff_bound`` and marked possibly incomplete.

    The returned level is kept (see the module docstring): a next call with
    the same K (by identity) and bound and a dim at or above this one starts
    from it instead of from the 0-cells.
    """
    if dim < 0:
        raise ValueError(f"cell dimension must be non-negative, got {dim}")

    def first():
        zero = solve_augmentation(K, 1, coeff_bound)
        return [object_cell(K, z) for z in zero.chains], zero.complete

    return CellEnumeration(*_levels(
        ("cells", K, coeff_bound), dim, first,
        lambda c: (c.x0[:-1], c.x1[:-1]),
        lambda lo, hi: _fillers(K, lo, hi.top, coeff_bound),
        lambda c: tuple(ch.coeffs for ch in c.x0 + c.x1),
    ))


@dataclass(frozen=True)
class DegreeComparison:
    """Presented abelianization in one degree versus the chain group."""

    degree: int
    generators: int
    rank: int
    torsion: tuple[int, ...]
    basis_size: int

    @property
    def matches(self):
        return self.rank == self.basis_size and not self.torsion


def lambda_of_nu(K, max_dim, coeff_bound=None):
    """Compare the abelianization of nu(K) with K itself, degree by degree.

    In each degree the group is presented by the enumerated cells modulo
    [x *_j y] = [x] + [y]; its rank and torsion are computed by Smith
    normal form and compared with the basis size (the adjunction counit is
    an isomorphism for Steiner complexes, so they must agree).
    """
    if max_dim < 0:
        raise ValueError(f"max_dim must be non-negative, got {max_dim}")
    reports = []
    for i in range(max_dim + 1):
        enum = enumerate_cells(K, i, coeff_bound)
        if not enum.complete:
            raise ValueError(
                f"cell enumeration in dimension {i} is possibly incomplete; "
                "refusing to present the abelianization"
            )
        cells = enum.cells
        index = {c: k for k, c in enumerate(cells)}
        relations = set()
        for j in range(i):
            sources = (source_iter(c, j) for c in cells)
            targets = (target_iter(c, j) for c in cells)
            for x, y in _matched(cells, sources, cells, targets):
                row = [0] * len(cells)
                row[index[compose(x, y, j)]] += 1
                row[index[x]] -= 1
                row[index[y]] -= 1
                if any(row):
                    relations.add(tuple(row))
        rank, torsion = abelian_invariants(len(cells), sorted(relations))
        reports.append(
            DegreeComparison(i, len(cells), rank, torsion, len(K.tokens(i)))
        )
    return reports
