"""The (p+1)-regular tree of lattice classes and chain complexes over it.

Vertices are homothety classes of rank-2 lattices, written in the normal
form spanned by the columns of [[p**m, u], [0, 1]] with u reduced modulo
p**m; this makes equality, hashing, and the matrix action exact.  On top of
the combinatorics sit coefficient systems with one space per vertex and
edge, their one-step chain complexes with optional augmentation, iterated
pushouts of a subtree along a common piece, and the alternating cochain
rows those pushouts generate.

Distances come from elementary-divisor valuations of the transition matrix
between two lattice representatives, so every geometric statement here is a
statement about exact rational arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from wallforge.arith import _require_prime, p_valuation
from wallforge.complexes import ChainComplex, ChainMap, homology_dims
from wallforge.linalg import RationalMatrix


@dataclass(frozen=True)
class TreeVertex:
    """A lattice class: column span of [[p**m, u], [0, 1]], u canonical mod p**m."""

    prime: int
    level: int
    shift: Fraction

    @classmethod
    def of(cls, p: int, level: int, shift) -> "TreeVertex":
        """Canonicalize an arbitrary rational shift modulo p**level.

        Denominators prime to p are inverted modulo the relevant power, so
        the stored shift always has a pure p-power denominator and lies in
        [0, p**level).
        """
        _require_prime(p)
        u = Fraction(shift)
        if u == 0 or p_valuation(u, p) >= level:
            return cls(prime=p, level=level, shift=Fraction(0))
        v = int(p_valuation(u, p))
        k = max(0, -v)
        a = u * p**k  # valuation >= 0 now
        s = a.denominator  # prime to p
        modulus = p ** (level + k)
        residue = a.numerator * pow(s, -1, modulus) % modulus
        return cls(prime=p, level=level, shift=Fraction(residue, p**k))

    @classmethod
    def base(cls, p: int) -> "TreeVertex":
        _require_prime(p)
        return cls(prime=p, level=0, shift=Fraction(0))

    def lattice_matrix(self) -> RationalMatrix:
        return RationalMatrix(
            [[Fraction(self.prime) ** self.level, self.shift], [0, 1]]
        )

    def neighbors(self) -> List["TreeVertex"]:
        """The p+1 adjacent classes: one up a level, p down."""
        p, m, u = self.prime, self.level, self.shift
        out = [TreeVertex.of(p, m - 1, u)]
        step = Fraction(p) ** m
        for t in range(p):
            out.append(TreeVertex.of(p, m + 1, u + t * step))
        return out

    def sort_key(self) -> tuple:
        return (self.level, self.shift)

    def to_json(self) -> dict:
        return {"m": self.level, "u": str(self.shift)}

    @classmethod
    def from_json(cls, p: int, data: dict) -> "TreeVertex":
        return cls.of(p, int(data["m"]), Fraction(data["u"]))

    def __repr__(self) -> str:
        return f"TreeVertex(p={self.prime}, m={self.level}, u={self.shift})"


def tree_distance(v: TreeVertex, w: TreeVertex) -> int:
    """Tree distance via elementary-divisor valuations.

    The transition matrix between the two lattice representatives is
    [[p**(n-m), (u_w - u_v) p**(-m)], [0, 1]]; its two elementary-divisor
    valuations are (min entry valuation) and (det valuation - min), and the
    distance between the homothety classes is their difference.
    """
    if v.prime != w.prime:
        raise ValueError("vertices live on trees of different primes")
    p = v.prime
    a = w.level - v.level
    diff = w.shift - v.shift
    vals = [a, 0]
    if diff:
        vals.append(p_valuation(diff, p) - v.level)
    low = min(vals)
    return a - 2 * low


def geodesic(v: TreeVertex, w: TreeVertex) -> List[TreeVertex]:
    """The unique path from v to w, endpoints included."""
    if v.prime != w.prime:
        raise ValueError("vertices live on trees of different primes")
    path = [v]
    current = v
    remaining = tree_distance(v, w)
    while remaining > 0:
        for nb in current.neighbors():
            if tree_distance(nb, w) == remaining - 1:
                current = nb
                break
        else:
            raise RuntimeError("no neighbor decreased the distance")
        path.append(current)
        remaining -= 1
    return path


@dataclass(frozen=True)
class GroupElement:
    """An invertible 2x2 rational matrix acting on lattice classes."""

    matrix: RationalMatrix

    def __post_init__(self):
        if self.matrix.shape != (2, 2):
            raise ValueError("need a 2x2 matrix")
        if self.matrix.det() == 0:
            raise ValueError("matrix is singular")


def act_vertex(g: Union[GroupElement, RationalMatrix], v: TreeVertex) -> TreeVertex:
    """The image class of v, renormalized to the canonical lattice form.

    The image matrix is scaled so its bottom row has minimum valuation 0,
    then column-reduced over the p-adic integers back to the normal form;
    unit column scalings and column additions do not change the lattice.
    """
    mat = g.matrix if isinstance(g, GroupElement) else g
    if mat.shape != (2, 2) or mat.det() == 0:
        raise ValueError("need an invertible 2x2 matrix")
    p = v.prime
    n = mat @ v.lattice_matrix()
    c, d = n.entry(1, 0), n.entry(1, 1)
    low = min(
        p_valuation(c, p) if c else float("inf"),
        p_valuation(d, p) if d else float("inf"),
    )
    scale = Fraction(p) ** int(-low)
    row0 = [n.entry(0, 0) * scale, n.entry(0, 1) * scale]
    row1 = [c * scale, d * scale]
    j = 1 if (row1[1] and p_valuation(row1[1], p) == 0) else 0
    jj = 1 - j
    u0 = Fraction(row0[j], row1[j])
    x = row0[jj] - row1[jj] * u0
    m = int(p_valuation(x, p))
    return TreeVertex.of(p, m, u0)


@dataclass(frozen=True)
class OrientedEdge:
    """An ordered pair of adjacent vertices."""

    tail: TreeVertex
    head: TreeVertex

    def __post_init__(self):
        if tree_distance(self.tail, self.head) != 1:
            raise ValueError("endpoints are not adjacent")

    def reverse(self) -> "OrientedEdge":
        return OrientedEdge(tail=self.head, head=self.tail)


def orientation_character(
    g: Union[GroupElement, RationalMatrix], e: OrientedEdge
) -> int:
    """+1 if g fixes both endpoints of the edge, -1 if it swaps them."""
    ta = act_vertex(g, e.tail)
    ha = act_vertex(g, e.head)
    if ta == e.tail and ha == e.head:
        return 1
    if ta == e.head and ha == e.tail:
        return -1
    raise ValueError("element does not stabilize the edge")


# ---------------------------------------------------------------------------
# finite windows
# ---------------------------------------------------------------------------


class FiniteSubtree:
    """A finite set of vertices with a subset of the tree's edges.

    Vertices are stored sorted by (level, shift) and edges as index pairs
    (i, j) with i < j; the smaller endpoint is the canonical tail.  Edges
    must join adjacent vertices.  Connectivity is NOT forced at
    construction (gluing data is allowed to be disconnected); it is exposed
    through :meth:`is_connected` and demanded by the operations whose
    meaning needs it.
    """

    __slots__ = ("prime", "vertices", "edges", "_index")

    def __init__(
        self,
        prime: int,
        vertices: Sequence[TreeVertex],
        edge_pairs: Sequence[Tuple[TreeVertex, TreeVertex]] = (),
    ):
        _require_prime(prime)
        seen: Dict[TreeVertex, None] = {}
        for v in vertices:
            if v.prime != prime:
                raise ValueError("vertex prime mismatch")
            seen.setdefault(v, None)
        vs = tuple(sorted(seen, key=TreeVertex.sort_key))
        index = {v: i for i, v in enumerate(vs)}
        edges = set()
        for a, b in edge_pairs:
            if a not in index or b not in index:
                raise ValueError("edge endpoint outside the vertex set")
            if tree_distance(a, b) != 1:
                raise ValueError(f"edge {a!r} -- {b!r} joins non-adjacent vertices")
            i, j = sorted((index[a], index[b]))
            edges.add((i, j))
        object.__setattr__(self, "prime", prime)
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "edges", tuple(sorted(edges)))
        object.__setattr__(self, "_index", index)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteSubtree is immutable")

    # -- constructors -------------------------------------------------------------

    @classmethod
    def ball(cls, p: int, radius: int) -> "FiniteSubtree":
        """All vertices within the given distance of the base vertex."""
        _require_prime(p)
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        base = TreeVertex.base(p)
        frontier = [base]
        known = {base}
        pairs = []
        for _ in range(radius):
            nxt = []
            for v in frontier:
                for nb in v.neighbors():
                    if nb not in known:
                        known.add(nb)
                        nxt.append(nb)
                        pairs.append((v, nb))
            frontier = nxt
        return cls(p, sorted(known, key=TreeVertex.sort_key), pairs)

    @classmethod
    def from_vertices(cls, p: int, vertices: Sequence[TreeVertex]) -> "FiniteSubtree":
        """The induced subgraph: all tree edges between the given vertices."""
        vs = list(vertices)
        pairs = []
        for i, a in enumerate(vs):
            for b in vs[i + 1 :]:
                if tree_distance(a, b) == 1:
                    pairs.append((a, b))
        return cls(p, vs, pairs)

    # -- basic queries ------------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def vertex_index(self, v: TreeVertex) -> int:
        return self._index[v]

    def has_vertex(self, v: TreeVertex) -> bool:
        return v in self._index

    def has_edge(self, a: TreeVertex, b: TreeVertex) -> bool:
        if a not in self._index or b not in self._index:
            return False
        i, j = sorted((self._index[a], self._index[b]))
        return (i, j) in set(self.edges)

    def edge_vertices(self, e: int) -> Tuple[TreeVertex, TreeVertex]:
        i, j = self.edges[e]
        return self.vertices[i], self.vertices[j]

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: Dict[int, List[int]] = {i: [] for i in range(len(self.vertices))}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        stack = [0]
        seen = {0}
        while stack:
            cur = stack.pop()
            for nb in adj[cur]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.vertices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteSubtree):
            return NotImplemented
        return (
            self.prime == other.prime
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __repr__(self) -> str:
        return (
            f"FiniteSubtree(p={self.prime}, {len(self.vertices)} vertices,"
            f" {len(self.edges)} edges)"
        )

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "p": self.prime,
            "vertices": [v.to_json() for v in self.vertices],
            "edges": [list(e) for e in self.edges],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteSubtree":
        p = int(data["p"])
        vs = [TreeVertex.from_json(p, v) for v in data["vertices"]]
        pairs = [(vs[i], vs[j]) for i, j in data["edges"]]
        return cls(p, vs, pairs)


def is_convex(s: FiniteSubtree) -> bool:
    """Whether every geodesic between vertices of s runs inside s.

    Both the intermediate vertices and the edges along the path must be
    present, so a pair of adjacent vertices without their edge is not
    convex (the subcomplex cannot connect them).
    """
    vs = s.vertices
    for i, a in enumerate(vs):
        for b in vs[i + 1 :]:
            path = geodesic(a, b)
            for v in path:
                if not s.has_vertex(v):
                    return False
            for u, w in zip(path, path[1:]):
                if not s.has_edge(u, w):
                    return False
    return True


# ---------------------------------------------------------------------------
# coefficient systems and the one-step chain complex
# ---------------------------------------------------------------------------


class TreeCoefficientSystem:
    """A space per facet of a finite subtree with edge-to-vertex restrictions.

    ``tail_maps[e]`` and ``head_maps[e]`` carry the edge space into the
    spaces at the two endpoints (tail = smaller vertex in the canonical
    order).  An optional augmentation attaches one map per vertex into a
    common target; the two routes around every edge must then agree, which
    is exactly what makes the augmented complex a complex.
    """

    __slots__ = (
        "subtree",
        "vertex_dims",
        "edge_dims",
        "tail_maps",
        "head_maps",
        "augmentation_dim",
        "augmentation_maps",
    )

    def __init__(
        self,
        subtree: FiniteSubtree,
        vertex_dims: Sequence[int],
        edge_dims: Sequence[int],
        tail_maps: Sequence[RationalMatrix],
        head_maps: Sequence[RationalMatrix],
        augmentation_dim: Optional[int] = None,
        augmentation_maps: Optional[Sequence[RationalMatrix]] = None,
    ):
        nv, ne = subtree.vertex_count, subtree.edge_count
        if len(vertex_dims) != nv or len(edge_dims) != ne:
            raise ValueError("need one dimension per vertex and per edge")
        if len(tail_maps) != ne or len(head_maps) != ne:
            raise ValueError("need one restriction pair per edge")
        for e, (i, j) in enumerate(subtree.edges):
            if tail_maps[e].shape != (vertex_dims[i], edge_dims[e]):
                raise ValueError(f"tail restriction at edge {e} has the wrong shape")
            if head_maps[e].shape != (vertex_dims[j], edge_dims[e]):
                raise ValueError(f"head restriction at edge {e} has the wrong shape")
        if (augmentation_dim is None) != (augmentation_maps is None):
            raise ValueError("augmentation needs both a target dimension and maps")
        if augmentation_maps is not None:
            if len(augmentation_maps) != nv:
                raise ValueError("need one augmentation map per vertex")
            for i, m in enumerate(augmentation_maps):
                if m.shape != (augmentation_dim, vertex_dims[i]):
                    raise ValueError(f"augmentation map at vertex {i} has the wrong shape")
            for e, (i, j) in enumerate(subtree.edges):
                left = augmentation_maps[i] @ tail_maps[e]
                right = augmentation_maps[j] @ head_maps[e]
                if left != right:
                    raise ValueError(
                        f"augmentation disagrees around edge {e} (vertices {i}, {j})"
                    )
        object.__setattr__(self, "subtree", subtree)
        object.__setattr__(self, "vertex_dims", tuple(int(d) for d in vertex_dims))
        object.__setattr__(self, "edge_dims", tuple(int(d) for d in edge_dims))
        object.__setattr__(self, "tail_maps", tuple(tail_maps))
        object.__setattr__(self, "head_maps", tuple(head_maps))
        object.__setattr__(self, "augmentation_dim", augmentation_dim)
        object.__setattr__(
            self,
            "augmentation_maps",
            tuple(augmentation_maps) if augmentation_maps is not None else None,
        )

    def __setattr__(self, name, value):
        raise AttributeError("TreeCoefficientSystem is immutable")

    @classmethod
    def constant(cls, subtree: FiniteSubtree, dim: int = 1) -> "TreeCoefficientSystem":
        """Q**dim on every facet, identity restrictions, augmented onto Q**dim."""
        ident = RationalMatrix.identity(dim)
        ne = subtree.edge_count
        return cls(
            subtree,
            [dim] * subtree.vertex_count,
            [dim] * ne,
            [ident] * ne,
            [ident] * ne,
            augmentation_dim=dim,
            augmentation_maps=[ident] * subtree.vertex_count,
        )


def ss_chain_complex(
    cs: TreeCoefficientSystem,
) -> Tuple[ChainComplex, Optional[ChainMap]]:
    """The two-term complex of a coefficient system, plus its augmentation.

    Degree 0 is the direct sum over vertices, degree 1 the direct sum over
    canonically oriented edges, and the boundary of an edge value is its
    head restriction minus its tail restriction.  When the system is
    augmented the returned chain map targets the one-term complex of the
    augmentation space, and its chain-map law (the composite with the
    boundary vanishes) is certified before returning.
    """
    sub = cs.subtree
    v_off = [0]
    for d in cs.vertex_dims:
        v_off.append(v_off[-1] + d)
    e_off = [0]
    for d in cs.edge_dims:
        e_off.append(e_off[-1] + d)
    dim0, dim1 = v_off[-1], e_off[-1]
    # an edge joins two distinct vertices, so its two blocks never overlap
    blocks = []
    for e, (i, j) in enumerate(sub.edges):
        blocks.append((v_off[j], e_off[e], cs.head_maps[e]))
        blocks.append((v_off[i], e_off[e], -cs.tail_maps[e]))
    dims = {0: dim0, 1: dim1}
    diffs = {1: RationalMatrix.from_blocks(dim0, dim1, blocks)} if dim0 or dim1 else {}
    complex_ = ChainComplex(dims, diffs)
    if cs.augmentation_maps is None:
        return complex_, None
    target = ChainComplex({0: cs.augmentation_dim}, {})
    blocks = [cs.augmentation_maps[i] for i in range(sub.vertex_count)]
    aug = RationalMatrix.hstack(blocks) if blocks else RationalMatrix.zeros(
        cs.augmentation_dim, 0
    )
    chain_map = ChainMap(source=complex_, target=target, components={0: aug})
    chain_map.require_chain_map()
    return complex_, chain_map


# ---------------------------------------------------------------------------
# pushouts and cosimplicial rows
# ---------------------------------------------------------------------------


Label = Tuple[Union[int, str], int]


class PushoutComplex:
    """Several labeled copies of a subtree glued along a common piece.

    Cells of the shared piece appear once with label ("z", index); every
    other cell of the original appears once per copy with label
    (copy, index).  Multi-edges arise exactly when an edge outside the
    shared piece has both endpoints inside it, so edges form a list, not a
    set, and the chain complex is the one of a Delta-complex.
    """

    __slots__ = (
        "prime",
        "copies",
        "ambient",
        "shared",
        "vertex_labels",
        "edge_labels",
        "edge_endpoints",
        "complex",
        "_vindex",
        "_eindex",
    )

    def __init__(self, ambient: FiniteSubtree, shared: FiniteSubtree, copies: int):
        if copies < 1:
            raise ValueError("need at least one copy")
        if shared.prime != ambient.prime:
            raise ValueError("prime mismatch between the pieces")
        for v in shared.vertices:
            if not ambient.has_vertex(v):
                raise ValueError(f"shared vertex {v!r} is not in the ambient subtree")
        for a, b in [shared.edge_vertices(e) for e in range(shared.edge_count)]:
            if not ambient.has_edge(a, b):
                raise ValueError(f"shared edge {a!r} -- {b!r} is not an ambient edge")
        z_vset = {ambient.vertex_index(v) for v in shared.vertices}
        z_eset = set()
        ambient_edge_set = {pair: e for e, pair in enumerate(ambient.edges)}
        for e in range(shared.edge_count):
            a, b = shared.edge_vertices(e)
            i, j = sorted((ambient.vertex_index(a), ambient.vertex_index(b)))
            z_eset.add(ambient_edge_set[(i, j)])

        vertex_labels: List[Label] = [("z", i) for i in sorted(z_vset)]
        for k in range(copies):
            vertex_labels.extend(
                (k, i) for i in range(ambient.vertex_count) if i not in z_vset
            )
        edge_labels: List[Label] = [("z", e) for e in sorted(z_eset)]
        for k in range(copies):
            edge_labels.extend(
                (k, e) for e in range(ambient.edge_count) if e not in z_eset
            )
        vindex = {lab: n for n, lab in enumerate(vertex_labels)}

        def vertex_label(copy: Union[int, str], i: int) -> Label:
            return ("z", i) if i in z_vset else (copy, i)

        endpoints = []
        for lab in edge_labels:
            copy, e = lab
            i, j = ambient.edges[e]
            endpoints.append(
                (vindex[vertex_label(copy, i)], vindex[vertex_label(copy, j)])
            )

        dim0, dim1 = len(vertex_labels), len(edge_labels)
        grid = [[0] * dim1 for _ in range(dim0)]
        for col, (ti, hi) in enumerate(endpoints):
            grid[hi][col] += 1
            grid[ti][col] -= 1
        dims = {0: dim0, 1: dim1}
        diffs = {1: RationalMatrix(grid, ncols=dim1)} if dim0 else {}
        object.__setattr__(self, "prime", ambient.prime)
        object.__setattr__(self, "copies", copies)
        object.__setattr__(self, "ambient", ambient)
        object.__setattr__(self, "shared", shared)
        object.__setattr__(self, "vertex_labels", tuple(vertex_labels))
        object.__setattr__(self, "edge_labels", tuple(edge_labels))
        object.__setattr__(self, "edge_endpoints", tuple(endpoints))
        object.__setattr__(self, "complex", ChainComplex(dims, diffs))
        object.__setattr__(self, "_vindex", vindex)
        object.__setattr__(self, "_eindex", {lab: n for n, lab in enumerate(edge_labels)})

    def __setattr__(self, name, value):
        raise AttributeError("PushoutComplex is immutable")

    def cells(self, q: int) -> Tuple[Label, ...]:
        if q == 0:
            return self.vertex_labels
        if q == 1:
            return self.edge_labels
        raise ValueError("the tree has cells only in dimensions 0 and 1")


def pushout_complex(
    ambient: FiniteSubtree, shared: FiniteSubtree, copies: int
) -> PushoutComplex:
    """Glue ``copies`` labeled copies of the subtree along the shared piece."""
    return PushoutComplex(ambient, shared, copies)


def _coface_matrix(
    small: PushoutComplex, big: PushoutComplex, skip: int, q: int
) -> RationalMatrix:
    """The map on q-cells induced by renumbering copies around ``skip``."""
    src = small.cells(q)
    tgt_index = big._vindex if q == 0 else big._eindex
    rows = len(big.cells(q))
    grid = [[0] * len(src) for _ in range(rows)]
    for col, (copy, idx) in enumerate(src):
        if copy == "z":
            lab: Label = ("z", idx)
        else:
            lab = (copy if copy < skip else copy + 1, idx)
        grid[tgt_index[lab]][col] = 1
    return RationalMatrix(grid, ncols=len(src))


def _collapse_matrix(po: PushoutComplex, q: int) -> RationalMatrix:
    """Fold all copies back onto the ambient subtree, on q-cells."""
    src = po.cells(q)
    rows = po.ambient.vertex_count if q == 0 else po.ambient.edge_count
    grid = [[0] * len(src) for _ in range(rows)]
    for col, (_, idx) in enumerate(src):
        grid[idx][col] = 1
    return RationalMatrix(grid, ncols=len(src))


@dataclass(frozen=True)
class CosimplicialReport:
    """Cohomology and alternation data of an iterated-pushout cochain row."""

    q: int
    j_max: int
    row_dims: tuple
    cohomology: tuple
    expected_degree_zero: int
    alternation_ok: bool

    @property
    def ok(self) -> bool:
        if not self.alternation_ok:
            return False
        if self.cohomology[0] != self.expected_degree_zero:
            return False
        return all(h == 0 for h in self.cohomology[1:])

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "j_max": self.j_max,
            "row_dims": list(self.row_dims),
            "cohomology": list(self.cohomology),
            "expected_degree_zero": self.expected_degree_zero,
            "alternation_ok": self.alternation_ok,
            "ok": self.ok,
        }


def cosimplicial_row_check(
    ambient: FiniteSubtree, shared: FiniteSubtree, q: int, j_max: int
) -> CosimplicialReport:
    """Certify the cochain row of iterated pushouts along a convex piece.

    For j = 0..j_max the row has the q-chains of the (j+1)-fold pushout,
    with differential the alternating sum of the copy-skipping cofaces.
    Two facts are verified: the row's cohomology sits entirely in degree 0
    where it equals the q-chains of the shared piece, and composing each
    differential with the collapse onto a single copy gives 0 in even
    degrees and the collapse itself in odd degrees.  The shared piece must
    be convex; the check is refused otherwise.
    """
    if q not in (0, 1):
        raise ValueError("q must be 0 or 1")
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    if not is_convex(shared):
        raise ValueError("shared piece is not convex; check refused")
    pushouts = [pushout_complex(ambient, shared, j + 1) for j in range(j_max + 2)]
    row_dims = [len(po.cells(q)) for po in pushouts]
    diffs = {}
    alternation_ok = True
    for j in range(j_max + 1):
        small, big = pushouts[j], pushouts[j + 1]
        total = RationalMatrix.zeros(row_dims[j + 1], row_dims[j])
        for i in range(j + 2):
            mat = _coface_matrix(small, big, i, q)
            total = total + (mat if i % 2 == 0 else -mat)
        diffs[-j] = total
        folded = _collapse_matrix(big, q) @ total
        if j % 2 == 0:
            want = RationalMatrix.zeros(folded.nrows, folded.ncols)
        else:
            want = _collapse_matrix(small, q)
        if folded != want:
            alternation_ok = False
    dims = {-j: row_dims[j] for j in range(j_max + 2)}
    row = ChainComplex(dims, diffs, presentation="cochain")
    row.require_valid()
    table = homology_dims(row)
    cohomology = tuple(table.get(-j, 0) for j in range(j_max + 1))
    expected = shared.vertex_count if q == 0 else shared.edge_count
    return CosimplicialReport(
        q=q,
        j_max=j_max,
        row_dims=tuple(row_dims),
        cohomology=cohomology,
        expected_degree_zero=expected,
        alternation_ok=alternation_ok,
    )
