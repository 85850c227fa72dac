"""Chain complexes of finite-dimensional rational vector spaces.

Indexing is homological throughout: the differential ``d_n`` maps degree n
to degree n-1.  Cochain complexes are stored as chain complexes in negative
degrees with a presentation flag, so there is exactly one validation and one
homology code path.

Construction is lazy: the constructor checks shapes only.  ``d o d = 0`` is
checked by ``ChainComplex.violations``, and anything downstream (homology,
truncation, Hom complexes) insists on a valid complex before it runs.

Sign conventions, fixed once for the whole package:

* mapping cone of f: C -> D: ``cone_n = C_{n-1} (+) D_n`` with
  ``d(c, x) = (-d_C c, d_D x - f c)``
* hom complexes use plain precomposition with no extra sign.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Sequence

from wallforge.linalg import (
    RationalMatrix,
    extend_to_basis,
    rank_kernel_image,
    solve_matrix,
)


class CertificateError(RuntimeError):
    """An exact mathematical certificate failed to hold."""


class ChainComplex:
    """A bounded chain complex with ``Fraction``-matrix differentials.

    ``dims`` maps degrees to dimensions (absent means zero) and ``diffs``
    maps n to the matrix of ``d_n``, of shape (dim(n-1), dim(n)); absent
    differentials are zero.  Instances are immutable.
    """

    __slots__ = ("_dims", "_diffs", "presentation", "_valid")

    def __init__(
        self,
        dims: Dict[int, int],
        diffs: Dict[int, RationalMatrix],
        presentation: str = "chain",
    ):
        if presentation not in ("chain", "cochain"):
            raise ValueError(f"unknown presentation {presentation!r}")
        clean_dims = {}
        for n, d in dims.items():
            if d < 0:
                raise ValueError(f"negative dimension at degree {n}")
            if d > 0:
                clean_dims[int(n)] = int(d)
        clean_diffs = {}
        for n, M in diffs.items():
            n = int(n)
            want = (clean_dims.get(n - 1, 0), clean_dims.get(n, 0))
            if M.shape != want:
                raise ValueError(f"d_{n} has shape {M.shape}, expected {want}")
            if not M.is_zero():
                clean_diffs[n] = M
        object.__setattr__(self, "_dims", dict(sorted(clean_dims.items())))
        object.__setattr__(self, "_diffs", dict(sorted(clean_diffs.items())))
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "_valid", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ChainComplex is immutable")

    # -- shape ----------------------------------------------------------------

    @property
    def lo(self) -> int:
        return min(self._dims) if self._dims else 0

    @property
    def hi(self) -> int:
        return max(self._dims) if self._dims else 0

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def dim(self, n: int) -> int:
        return self._dims.get(n, 0)

    @property
    def dims(self) -> Dict[int, int]:
        return dict(self._dims)

    def diff(self, n: int) -> RationalMatrix:
        M = self._diffs.get(n)
        if M is None:
            return RationalMatrix.zeros(self.dim(n - 1), self.dim(n))
        return M

    def is_zero_complex(self) -> bool:
        return not self._dims

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChainComplex):
            return NotImplemented
        if self._dims != other._dims or self.presentation != other.presentation:
            return False
        degs = set(self._diffs) | set(other._diffs)
        return all(self.diff(n) == other.diff(n) for n in degs)

    def __repr__(self) -> str:
        spans = ", ".join(f"{n}:{d}" for n, d in self._dims.items())
        return f"ChainComplex({{{spans}}}, {self.presentation})"

    # -- validation -------------------------------------------------------------

    def violations(self) -> list:
        """Degrees n where ``d_n o d_{n+1} != 0``; cached."""
        if self._valid is None:
            bad = []
            for n in range(self.lo, self.hi + 1):
                dn = self.diff(n)
                dn1 = self.diff(n + 1)
                if dn.ncols and dn1.ncols and not (dn @ dn1).is_zero():
                    bad.append(n)
            object.__setattr__(self, "_valid", tuple(bad))
        return list(self._valid)

    def require_valid(self) -> None:
        bad = self.violations()
        if bad:
            raise CertificateError(f"d o d != 0 at degrees {bad}")

    # -- serialization ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "presentation": self.presentation,
            "dims": {str(n): d for n, d in self._dims.items()},
            "diffs": {str(n): M.to_json() for n, M in self._diffs.items()},
        }

    @classmethod
    def from_json(cls, data: dict) -> "ChainComplex":
        dims = {int(k): int(v) for k, v in data.get("dims", {}).items()}
        diffs = {int(k): RationalMatrix.from_json(v) for k, v in data.get("diffs", {}).items()}
        return cls(dims, diffs, presentation=data.get("presentation", "chain"))


class HomologyRecord(NamedTuple):
    degree: int
    dim: int
    representatives: tuple = ()


def homology(C: ChainComplex, n: int) -> HomologyRecord:
    """Homology at degree n with explicit cycle representatives.

    The representatives are kernel basis vectors that complete an image
    basis of ``d_{n+1}`` to a basis of ``ker d_n``; their classes form a
    basis of the homology space.
    """
    C.require_valid()
    cn = C.dim(n)
    if cn == 0:
        return HomologyRecord(degree=n, dim=0)
    _, kernel, _ = rank_kernel_image(C.diff(n))
    rank_in, _, image_in = rank_kernel_image(C.diff(n + 1))
    chosen = extend_to_basis(image_in, kernel, cn)
    reps = tuple(kernel[i] for i in chosen)
    h = len(kernel) - rank_in
    if len(reps) != h:  # pragma: no cover - internal consistency
        raise CertificateError(f"representative count {len(reps)} != rank count {h}")
    return HomologyRecord(degree=n, dim=h, representatives=reps)


def homology_dims(C: ChainComplex) -> Dict[int, int]:
    """All homology dimensions over the support range (zeros included).

    ``dim H_n = dim C_n - rank d_n - rank d_{n+1}``, from the ranks alone:
    no cycle representatives are built.
    """
    C.require_valid()
    return {n: C.dim(n) - C.diff(n).rank() - C.diff(n + 1).rank() for n in C.degrees()}


def is_exact(C: ChainComplex, skip_degrees: Sequence[int] = ()) -> bool:
    skip = set(skip_degrees)
    return all(h == 0 for n, h in homology_dims(C).items() if n not in skip)


class ChainMap:
    """A degreewise map between chain complexes.

    Components default to zero; ``violations`` lists every degree where the
    square with the differentials fails to commute.
    """

    __slots__ = ("source", "target", "_components")

    def __init__(
        self,
        source: ChainComplex,
        target: ChainComplex,
        components: Dict[int, RationalMatrix],
    ):
        clean = {}
        for n, M in components.items():
            n = int(n)
            want = (target.dim(n), source.dim(n))
            if M.shape != want:
                raise ValueError(f"f_{n} has shape {M.shape}, expected {want}")
            if not M.is_zero():
                clean[n] = M
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "_components", dict(sorted(clean.items())))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("ChainMap is immutable")

    def component(self, n: int) -> RationalMatrix:
        M = self._components.get(n)
        if M is None:
            return RationalMatrix.zeros(self.target.dim(n), self.source.dim(n))
        return M

    def violations(self) -> list:
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        bad = []
        for n in range(lo, hi + 1):
            left = self.component(n - 1) @ self.source.diff(n)
            right = self.target.diff(n) @ self.component(n)
            if left != right:
                bad.append(n)
        return bad

    def require_chain_map(self) -> None:
        bad = self.violations()
        if bad:
            raise CertificateError(f"chain-map squares fail at degrees {bad}")


def mapping_cone(f: ChainMap) -> ChainComplex:
    """The cone of a chain map; exact exactly when f is a quasi-isomorphism."""
    f.require_chain_map()
    C, D = f.source, f.target
    lo = min(C.lo + 1, D.lo)
    hi = max(C.hi + 1, D.hi)
    dims = {}
    diffs = {}
    for n in range(lo, hi + 1):
        dims[n] = C.dim(n - 1) + D.dim(n)
    for n in range(lo, hi + 1):
        rows = dims.get(n - 1, 0)
        cols = dims.get(n, 0)
        if rows == 0 or cols == 0:
            continue
        # block matrix [[-d_C, 0], [-f, d_D]] on (C_{n-1} (+) D_n)
        top = RationalMatrix.hstack(
            [
                -C.diff(n - 1),
                RationalMatrix.zeros(C.dim(n - 2), D.dim(n)),
            ]
        )
        bottom = RationalMatrix.hstack([-f.component(n - 1), D.diff(n)])
        diffs[n] = RationalMatrix.vstack([top, bottom])
    return ChainComplex(dims, diffs)


class TruncationData(NamedTuple):
    """How the top degree of a canonical truncation presents the quotient."""

    degree: int
    kept_columns: tuple
    projection: RationalMatrix  # old coords -> quotient coords
    inclusion: RationalMatrix  # quotient representatives -> old coords


def truncate_canonical(C: ChainComplex, d: int):
    """Canonical truncation: kill homology above degree d, keep it below.

    Degrees above d are dropped, degree d becomes the quotient
    ``C_d / im(d_{d+1})`` presented on a greedily chosen subset of the
    original coordinates, and ``d_d`` descends because boundaries map to
    zero.  Returns ``(truncated complex, data)``, where ``data`` is the
    ``TruncationData`` of the quotient presentation (its projection and
    inclusion matrices), or None when C is already zero above d and is
    returned as it is.
    """
    C.require_valid()
    if C.lo < 0:
        raise ValueError("canonical truncation expects nonnegative degrees")
    if d < 0:
        raise ValueError("truncation degree must be nonnegative")
    if d >= C.hi:
        return C, None
    cd = C.dim(d)
    _, _, image = rank_kernel_image(C.diff(d + 1))
    std = [
        tuple(1 if k == i else 0 for k in range(cd))
        for i in range(cd)
    ]
    kept = extend_to_basis(image, std, cd) if cd else []
    new_dim = len(kept)
    dims = {n: C.dim(n) for n in range(C.lo, d)}
    if new_dim:
        dims[d] = new_dim
    diffs = {n: C.diff(n) for n in range(C.lo + 1, d)}
    inclusion = RationalMatrix.from_columns(
        [std[i] for i in kept], nrows=cd
    ) if cd else RationalMatrix.zeros(0, 0)
    if new_dim and d - 1 >= C.lo and C.dim(d - 1):
        diffs[d] = C.diff(d) @ inclusion
    if cd and (image or kept):
        basis_cols = list(image) + [std[i] for i in kept]
        M = RationalMatrix.from_columns(basis_cols, nrows=cd)
        Minv = solve_matrix(M, RationalMatrix.identity(cd))
        if Minv is None:  # pragma: no cover - internal consistency
            raise CertificateError("quotient basis failed to invert")
        projection = Minv.submatrix(range(len(image), cd), range(cd))
    else:
        projection = RationalMatrix.zeros(new_dim, cd)
    data = TruncationData(
        degree=d,
        kept_columns=tuple(kept),
        projection=projection,
        inclusion=inclusion,
    )
    return ChainComplex(dims, diffs), data


def hom_into_space(C: ChainComplex, w_dim: int) -> ChainComplex:
    """The cochain complex Hom(C, Q**w) stored in negative degrees.

    Degree -n carries Hom(C_n, W), flattened row-major; the differential
    Hom(C_n, W) -> Hom(C_{n+1}, W) is plain precomposition with d_{n+1}
    (no sign; the fixed global choice).
    """
    C.require_valid()
    if w_dim < 0:
        raise ValueError("negative dimension")
    if w_dim == 0 or C.is_zero_complex():
        return ChainComplex({}, {}, presentation="cochain")
    dims = {-n: w_dim * C.dim(n) for n in C.degrees() if C.dim(n)}
    diffs = {}
    for n in C.degrees():
        # map from degree -n to degree -(n+1): phi -> phi o d_{n+1}
        if C.dim(n) and C.dim(n + 1):
            mat = RationalMatrix.identity(w_dim).kron(C.diff(n + 1).transpose())
            diffs[-n] = mat
    return ChainComplex(dims, diffs, presentation="cochain")


def hom_constrained(
    C: ChainComplex,
    hom_bases: Dict[int, Sequence[RationalMatrix]],
    w_dim: int,
) -> ChainComplex:
    """Cochain complex of a constrained Hom, e.g. module-linear maps.

    ``hom_bases[n]`` spans the allowed maps C_n -> W as (w_dim x dim C_n)
    matrices.  The differential is precomposition with ``d_{n+1}``
    expressed in the given bases; it must stay inside the span, otherwise
    the bases do not describe a subcomplex and a CertificateError is
    raised.
    """
    from wallforge.linalg import vec

    C.require_valid()
    dims = {}
    for n in C.degrees():
        basis = hom_bases.get(n, [])
        for T in basis:
            if T.shape != (w_dim, C.dim(n)):
                raise ValueError(f"hom basis at degree {n} has shape {T.shape}")
        dims[-n] = len(basis)
    diffs = {}
    for n in C.degrees():
        src = hom_bases.get(n, [])
        tgt = hom_bases.get(n + 1, [])
        if not src or not tgt:
            continue
        tgt_mat = RationalMatrix.from_columns([vec(T) for T in tgt])
        cols = []
        for T in src:
            image = T @ C.diff(n + 1)
            coeff = solve_matrix(tgt_mat, RationalMatrix.column(vec(image)))
            if coeff is None:
                raise CertificateError(
                    f"precomposition leaves the constrained span at degree {n}"
                )
            cols.append(coeff.col(0))
        diffs[-n] = RationalMatrix.from_columns(cols, nrows=len(tgt))
    return ChainComplex(dims, diffs, presentation="cochain")


def cohomology_dims(C: ChainComplex) -> Dict[int, int]:
    """Homology of a cochain-presented complex, reindexed to cohomological degrees."""
    if C.presentation != "cochain":
        raise ValueError("expected a cochain-presented complex")
    return {-n: h for n, h in homology_dims(C).items()}
