"""The finite cube category: coordinate insertions, deletions, and their composites.

A morphism between cubes I^m -> I^n is stored as a target assignment: each
of the n output coordinates is either a constant bit or one of the m input
coordinates. The input coordinates that appear must occur in strictly
increasing order, each at most once. These assignments are exactly the
composites of face insertions and coordinate deletions, and composition
is substitution, so equality of morphisms is equality of tuples.

Token convention: 0 means the constant 0, -1 means the constant 1, and a
positive integer i means input coordinate number i (1-based).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache
from itertools import combinations, product


class CubeMorphism:
    """A morphism I^src_dim -> I^dst_dim in the cube category."""

    __slots__ = ("src_dim", "dst_dim", "tokens")

    def __init__(self, src_dim: int, dst_dim: int, tokens: Sequence[int]):
        self.src_dim = int(src_dim)
        self.dst_dim = int(dst_dim)
        self.tokens = tuple(int(t) for t in tokens)
        if self.src_dim < 0 or self.dst_dim < 0:
            raise ValueError("cube dimensions must be nonnegative")
        if len(self.tokens) != self.dst_dim:
            raise ValueError(f"expected {self.dst_dim} tokens, got {len(self.tokens)}")
        last_var = 0
        for t in self.tokens:
            if t in (0, -1):
                continue
            if not 1 <= t <= self.src_dim:
                raise ValueError(f"token {t} is not a coordinate of I^{self.src_dim}")
            if t <= last_var:
                raise ValueError("input coordinates must appear in strictly increasing order")
            last_var = t

    def compose(self, other: "CubeMorphism") -> "CubeMorphism":
        """self . other: apply other first, then self."""
        if other.dst_dim != self.src_dim:
            raise ValueError(f"cannot compose I^{other.src_dim}->I^{other.dst_dim} "
                             f"with I^{self.src_dim}->I^{self.dst_dim}")
        toks = tuple(t if t <= 0 else other.tokens[t - 1] for t in self.tokens)
        return CubeMorphism(other.src_dim, self.dst_dim, toks)

    def __call__(self, point: Sequence[int]) -> tuple:
        """Evaluate on a vertex of the source cube (a 0/1 tuple)."""
        if len(point) != self.src_dim or any(b not in (0, 1) for b in point):
            raise ValueError(f"expected a 0/1 tuple of length {self.src_dim}")
        return tuple(0 if t == 0 else 1 if t == -1 else point[t - 1] for t in self.tokens)

    def is_epi(self) -> bool:
        """True when no output coordinate is constant (a pure deletion composite)."""
        return all(t >= 1 for t in self.tokens)

    def is_mono(self) -> bool:
        """True when every input coordinate is used (a pure insertion composite)."""
        return sum(1 for t in self.tokens if t >= 1) == self.src_dim

    def is_identity(self) -> bool:
        return self.src_dim == self.dst_dim and self.tokens == tuple(range(1, self.src_dim + 1))

    def token_word(self) -> str:
        """Comma-separated token text: constants as 0/1, coordinates as x<i>."""
        return ",".join("0" if t == 0 else "1" if t == -1 else f"x{t}" for t in self.tokens)

    @staticmethod
    def from_word(src_dim: int, word: str) -> "CubeMorphism":
        """Parse the token text produced by token_word."""
        word = word.strip()
        if not word:
            return CubeMorphism(src_dim, 0, ())
        toks = []
        for part in word.split(","):
            part = part.strip()
            if part == "0":
                toks.append(0)
            elif part == "1":
                toks.append(-1)
            elif part.startswith("x") and part[1:].isdigit() and int(part[1:]) >= 1:
                toks.append(int(part[1:]))
            else:
                raise ValueError(f"bad morphism token {part!r}")
        return CubeMorphism(src_dim, len(toks), toks)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CubeMorphism)
            and self.src_dim == other.src_dim
            and self.tokens == other.tokens
        )

    def __hash__(self):
        return hash((self.src_dim, self.tokens))

    def __repr__(self):
        return f"CubeMorphism({self.src_dim}->{self.dst_dim}: {self.token_word() or '()'})"


def identity(n: int) -> CubeMorphism:
    return CubeMorphism(n, n, range(1, n + 1))


def face(n: int, slot: int, bit: int) -> CubeMorphism:
    """The insertion I^{n-1} -> I^n putting the constant bit at coordinate slot."""
    if not 1 <= slot <= n:
        raise ValueError(f"slot {slot} out of range for target dimension {n}")
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    const = 0 if bit == 0 else -1
    toks = list(range(1, slot)) + [const] + list(range(slot, n))
    return CubeMorphism(n - 1, n, toks)


def degeneracy(n: int, slot: int) -> CubeMorphism:
    """The deletion I^n -> I^{n-1} dropping coordinate slot."""
    if not 1 <= slot <= n:
        raise ValueError(f"slot {slot} out of range for source dimension {n}")
    toks = list(range(1, slot)) + list(range(slot + 1, n + 1))
    return CubeMorphism(n, n - 1, toks)


IDENTITY_FAMILIES = ("face-face", "degeneracy-degeneracy", "face-degeneracy")


@lru_cache(maxsize=None)
def cubical_identities(top: int) -> tuple:
    """Every instance of the cubical identities up to dimension top, in report order.

    An entry (family, n, detail, lhs, rhs) says that the operator paths lhs
    and rhs agree on every cube of dimension n. A path lists its steps in
    the order they act, in the keys of a cubes table: (n, i, eps) is the
    face (i, eps) of an n-cube, (m, i) the i-th degeneracy of an m-cube and
    () the identity. The families (Grandis and Mauri, "Cubical sets and
    their site", TAC 11, 2003) come in IDENTITY_FAMILIES order: two faces,
    two degeneracies, and a face of a degeneracy, which is the identity when
    both act on one coordinate. Within a family entries run by n, then in
    the order of detail, which names the instance as reports print it.
    """
    out = [e for n in range(2, top + 1) for e in face_face_identities(n)]
    for m in range(top - 1):
        for j in range(1, m + 2):
            for i in range(1, j + 1):
                out.append(("degeneracy-degeneracy", m, f"i={i}, j={j}",
                            ((m, j), (m + 1, i)), ((m, i), (m + 1, j + 1))))
    for m in range(top):
        for j, i, eps in product(range(1, m + 2), range(1, m + 2), (0, 1)):
            rhs = (() if i == j else ((m, i, eps), (m - 1, j - 1)) if i < j
                   else ((m, i - 1, eps), (m - 1, j)))
            out.append(("face-degeneracy", m, f"i={i}, j={j}, eps={eps}",
                        ((m, j), (m + 1, i, eps)), rhs))
    return tuple(out)


@lru_cache(maxsize=None)
def face_face_identities(n: int) -> tuple:
    """The face-face entries of cubical_identities at dimension n, in report order."""
    return tuple(("face-face", n, f"i={i}, j={j}, alpha={a}, beta={b}",
                  ((n, j, b), (n - 1, i, a)), ((n, i, a), (n - 1, j - 1, b)))
                 for i in range(1, n) for j in range(i + 1, n + 1)
                 for a, b in product((0, 1), repeat=2))


def identity_failures(entries, ends) -> list:
    """The failures of some entries of cubical_identities, in report order.

    ends(n, path) lists what path gives on each cube of dimension n. A cube
    on which lhs and rhs give different results fails; each failure is
    (family, n, cube index, detail, lhs result, rhs result), sorted by
    family, n, cube and entry.
    """
    found = []
    for k, (family, n, _, lhs, rhs) in enumerate(entries):
        found += [(IDENTITY_FAMILIES.index(family), n, idx, k, a, b)
                  for idx, (a, b) in enumerate(zip(ends(n, lhs), ends(n, rhs))) if a != b]
    found.sort(key=lambda f: f[:4])
    return [(entries[k][0], n, idx, entries[k][2], a, b) for _, n, idx, k, a, b in found]


def hom_set(m: int, n: int) -> tuple:
    """All morphisms I^m -> I^n, sorted by token tuple."""
    out = []
    for k in range(min(m, n) + 1):
        for positions in combinations(range(n), k):
            posset = set(positions)
            for coords in combinations(range(1, m + 1), k):
                for consts in product((0, -1), repeat=n - k):
                    toks = []
                    ci = iter(coords)
                    ki = iter(consts)
                    for p in range(n):
                        toks.append(next(ci) if p in posset else next(ki))
                    out.append(CubeMorphism(m, n, toks))
    out.sort(key=lambda f: f.tokens)
    return tuple(out)


class FormalMorphismSum:
    """An integer linear combination of parallel cube morphisms.

    Composition extends bilinearly, which is all the chain-level
    calculus with degeneracy idempotents needs.
    """

    __slots__ = ("src_dim", "dst_dim", "terms")

    def __init__(self, src_dim: int, dst_dim: int, terms: dict[CubeMorphism, int] | None = None):
        self.src_dim = src_dim
        self.dst_dim = dst_dim
        self.terms = {}
        for f, c in (terms or {}).items():
            if (f.src_dim, f.dst_dim) != (src_dim, dst_dim):
                raise ValueError("all terms must be parallel morphisms")
            if c:
                self.terms[f] = int(c)

    @staticmethod
    def from_morphism(f: CubeMorphism, coeff: int = 1) -> "FormalMorphismSum":
        return FormalMorphismSum(f.src_dim, f.dst_dim, {f: coeff})

    def _check_parallel(self, other):
        if (self.src_dim, self.dst_dim) != (other.src_dim, other.dst_dim):
            raise ValueError("sums must live in the same hom set")

    def __add__(self, other: "FormalMorphismSum") -> "FormalMorphismSum":
        self._check_parallel(other)
        terms = dict(self.terms)
        for f, c in other.terms.items():
            terms[f] = terms.get(f, 0) + c
        return FormalMorphismSum(self.src_dim, self.dst_dim, terms)

    def __sub__(self, other: "FormalMorphismSum") -> "FormalMorphismSum":
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c: int) -> "FormalMorphismSum":
        return FormalMorphismSum(self.src_dim, self.dst_dim,
                                 {f: c * a for f, a in self.terms.items()})

    def compose(self, other: "FormalMorphismSum") -> "FormalMorphismSum":
        """self . other, extended bilinearly over both sums."""
        if other.dst_dim != self.src_dim:
            raise ValueError("sums are not composable")
        terms: dict[CubeMorphism, int] = {}
        for g, a in self.terms.items():
            for f, b in other.terms.items():
                gf = g.compose(f)
                terms[gf] = terms.get(gf, 0) + a * b
        return FormalMorphismSum(other.src_dim, self.dst_dim, terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FormalMorphismSum)
            and (self.src_dim, self.dst_dim) == (other.src_dim, other.dst_dim)
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.src_dim, self.dst_dim, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"FormalMorphismSum({self.src_dim}->{self.dst_dim}: 0)"
        body = " + ".join(f"{c}*[{f.token_word() or '()'}]" for f, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].tokens))
        return f"FormalMorphismSum({self.src_dim}->{self.dst_dim}: {body})"


def degeneracy_idempotent(k: int) -> FormalMorphismSum:
    """Inclusion-exclusion sum over 'snap some coordinates to 0' maps on I^k.

    With m_S denoting the endomorphism setting the coordinates in S to 0,
    the sum over nonempty S of (-1)^(|S|+1) m_S is idempotent, and any
    morphism out of I^k that ignores at least one coordinate composes with
    it to give itself back.
    """
    total = FormalMorphismSum(k, k)
    coords = range(1, k + 1)
    for size in range(1, k + 1):
        for s in combinations(coords, size):
            sset = set(s)
            m_s = CubeMorphism(k, k, tuple(0 if i in sset else i for i in coords))
            total = total + FormalMorphismSum.from_morphism(m_s, (-1) ** (size + 1))
    return total
