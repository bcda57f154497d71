"""Free-group words, integral group rings, Fox calculus, and twisted
presentation complexes.

Words are freely reduced tuples of (generator index, +-1) letters.
Group-ring elements are finite integer combinations of words.  The
integral group ring is implemented once, in ``_GroupRing``, over any
group whose elements are hashable keys: :class:`GroupRingElem` is
Z[F] for the free group F, and ``knots.LaurentInt`` is Z[t, 1/t], the
group ring of its abelianization Z, keyed by the exponent.  The
free derivative d/dx_g satisfies

    d(x)/dx = 1,   d(y)/dx = 0 (y != x),
    d(uv)/dx = du/dx + u . dv/dx,

which forces d(x^-1)/dx = -x^-1.

A :class:`RepFamily` assigns an invertible RatFunc matrix to each
generator; :func:`specialize` pushes group-ring elements through it as
a ring homomorphism.  :func:`presentation_complex` assembles the
twisted chain complex of the 2-complex of a presentation, reading its
Fox Jacobian off one prefix pass per relator.  Cells are
ordered as given in the input and lifted at the base point; tensor
factors are ordered cell-major, then bundle coordinate.  With the
boundary matrices in column convention this means each Fox-derivative
block enters transposed, which is exactly what makes
d_1 . d_2 = phi(r) - 1 = 0 for every relator r.
"""

from __future__ import annotations

import operator

from .complexes import BasedChainComplex
from .linalg import Matrix
from .ratfunc import RatFunc
from .scalars import _Record, _set, parse_integer

__all__ = [
    "Word",
    "GroupRingElem",
    "RepFamily",
    "fox_derivative",
    "specialize",
    "specialize_word",
    "presentation_complex",
    "parse_word",
    "format_word",
]

# longest word parse_word expands, in letters
MAX_WORD_LETTERS = 10_000


class Word(_Record):
    """Freely reduced word in a free group.  Immutable."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        reduced: list[tuple[int, int]] = []
        for gen, exp in letters:
            gen = int(gen)
            exp = int(exp)
            if gen < 0:
                raise ValueError("generator indices are non-negative")
            if exp not in (1, -1):
                raise ValueError("letter exponents must be +1 or -1")
            if reduced and reduced[-1] == (gen, -exp):
                reduced.pop()
            else:
                reduced.append((gen, exp))
        object.__setattr__(self, "letters", tuple(reduced))

    @classmethod
    def identity(cls) -> "Word":
        return cls(())

    @classmethod
    def generator(cls, g: int, exp: int = 1) -> "Word":
        return cls(((g, exp),))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __len__(self) -> int:
        return len(self.letters)

    def max_generator(self) -> int:
        """Largest generator index used, or -1 for the identity."""
        return max((g for g, _ in self.letters), default=-1)

    def __repr__(self):
        return f"Word({format_word(self)!r})"


class _GroupRing(_Record):
    """Finite Z-linear combination of group elements, ``terms`` mapping
    each to its coefficient; no zero terms stored.  A subclass names
    ``_key``, which checks or normalizes a group element, and
    ``_key_mul``, the group law."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        key, acc = self._key, {}
        for k, coeff in terms.items() if isinstance(terms, dict) else terms:
            k = key(k)
            acc[k] = acc.get(k, 0) + int(coeff)
            if not acc[k]:
                del acc[k]
        object.__setattr__(self, "terms", acc)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        return type(self)([*self.terms.items(), *other.terms.items()])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        mul, terms = self._key_mul, other.terms.items()
        return type(self)(
            (mul(ka, kb), ca * cb) for ka, ca in self.terms.items() for kb, cb in terms
        )

    def __hash__(self):  # the one record whose field, a dict, does not hash
        return hash(frozenset(self.terms.items()))


class GroupRingElem(_GroupRing):
    """Element of Z[F]: a finite Z-linear combination of words."""

    __slots__ = ()
    _key_mul = staticmethod(operator.mul)

    @staticmethod
    def _key(word):
        if not isinstance(word, Word):
            raise TypeError("group-ring keys must be Words")
        return word

    @classmethod
    def zero(cls) -> "GroupRingElem":
        return cls(())

    @classmethod
    def one(cls) -> "GroupRingElem":
        return cls(((Word.identity(), 1),))

    @classmethod
    def of_word(cls, w: Word, coeff: int = 1) -> "GroupRingElem":
        return cls(((w, coeff),))

    def __repr__(self):
        if not self.terms:
            return "GroupRingElem(0)"
        parts = [
            f"{c}*{format_word(w) or '1'}"
            for w, c in sorted(self.terms.items(), key=lambda wc: wc[0].letters)
        ]
        return "GroupRingElem(" + " + ".join(parts) + ")"


def fox_derivative(w: Word, g: int) -> GroupRingElem:
    """Free derivative of a word with respect to generator ``g``."""
    if g < 0:
        raise ValueError(f"invalid generator index {g}")
    acc = GroupRingElem.zero()
    prefix = Word.identity()
    for gen, exp in w.letters:
        if gen == g:
            if exp == 1:
                acc = acc + GroupRingElem.of_word(prefix)
            else:
                acc = acc - GroupRingElem.of_word(prefix * Word.generator(g, -1))
        prefix = prefix * Word.generator(gen, exp)
    return acc


class RepFamily(_Record):
    """Family of invertible matrices assigned to the free generators.

    ``images[g]`` is the square RatFunc matrix of generator g; every
    image must have nonzero determinant over the function field.  The
    ``unitary`` flag asserts image . conj(image^T) = 1 as a matrix
    identity, ``special`` asserts det(image) = 1; both are validated.
    ``inverses[g]`` is the inverse of ``images[g]``, computed once.
    """

    __slots__ = ("rank", "images", "unitary", "special", "inverses")

    def __init__(self, rank: int, images, unitary: bool = False, special: bool = False):
        images = tuple(images)
        if rank < 1:
            raise ValueError("representation rank must be positive")
        ident = Matrix.identity(rank)
        for g, mat in enumerate(images):
            if not isinstance(mat, Matrix) or mat.shape() != (rank, rank):
                raise ValueError(f"image of generator {g} has wrong shape")
            det = mat.det()
            if det.is_zero():
                raise ValueError(f"image of generator {g} is singular")
            if unitary:
                if mat @ mat.transpose().conj() != ident:
                    raise ValueError(f"image of generator {g} is not unitary")
            if special:
                if det != 1:
                    raise ValueError(f"image of generator {g} has determinant != 1")
        _set(self, "rank", rank)
        _set(self, "images", images)
        _set(self, "unitary", unitary)
        _set(self, "special", special)
        _set(self, "inverses", tuple(mat.inverse() for mat in images))

    @property
    def ngens(self) -> int:
        return len(self.images)

    def image(self, g: int) -> Matrix:
        if not 0 <= g < len(self.images):
            raise ValueError(f"representation has no image for generator {g}")
        return self.images[g]

    def image_inverse(self, g: int) -> Matrix:
        self.image(g)  # range check
        return self.inverses[g]


def specialize_word(w: Word, rho: RepFamily) -> Matrix:
    """Image of a word: the ordered product of generator images."""
    out = Matrix.identity(rho.rank)
    for g, e in w.letters:
        factor = rho.image(g) if e == 1 else rho.image_inverse(g)
        out = out @ factor
    return out


def specialize(e: GroupRingElem, rho: RepFamily) -> Matrix:
    """Ring homomorphism from the group ring into RatFunc matrices."""
    out = Matrix.zeros(rho.rank, rho.rank)
    for w, c in e.terms.items():
        out = out + specialize_word(w, rho).scale(RatFunc.coerce(c))
    return out


def presentation_complex(generators, relators, rho: RepFamily):
    """Twisted chain complex of the 2-complex of a presentation.

    C_2 has one block per relator, C_1 one per generator, C_0 one cell;
    blocks are rho.rank wide.  d_2 carries the Fox derivatives, d_1 the
    blocks rho(x_j) - 1 (both transposed into column convention), and
    d_1 . d_2 = 0 exactly by the fundamental identity of the free
    calculus whenever every relator maps to the identity.  One pass per
    relator carries P = rho(prefix) from 1: x_g adds P to block g, then
    P <- P rho(x_g); x_g^-1 sets P <- P rho(x_g)^-1, then subtracts P, so
    L letters cost L products (:func:`fox_derivative` is the O(L^2)
    reference).  The last P, rho(r), must be 1; relators are checked in
    order, for undeclared generators first.
    """
    ngens = int(generators)
    if ngens < 1:
        raise ValueError("presentation needs at least one generator")
    relators = list(relators)
    if rho.ngens < ngens:
        raise ValueError(
            f"representation covers {rho.ngens} generators, presentation has {ngens}"
        )
    d = rho.rank
    ident = Matrix.identity(d)

    # d_1 : C_1 -> C_0, block row of (rho(x_j) - 1)^T
    d1 = Matrix([r for j in range(ngens) for r in (rho.images[j] - ident).rows], d).transpose()

    # d_2 : C_2 -> C_1, the Fox Jacobian transposed: block (j, i) = rho(d r_i / d x_j)^T
    jacobian = []
    for rel in relators:
        if rel.max_generator() >= ngens:
            raise ValueError(f"relator {format_word(rel)!r} uses an undeclared generator")
        blocks, prefix = [Matrix.zeros(d, d)] * ngens, ident
        for g, e in rel.letters:
            if e == 1:
                blocks[g] = blocks[g] + prefix
                prefix = prefix @ rho.images[g]
            else:
                prefix = prefix @ rho.inverses[g]
                blocks[g] = blocks[g] - prefix
        if prefix != ident:
            raise ValueError(
                f"relator {format_word(rel)!r} is not respected by the representation"
            )
        jacobian += [[x for block in blocks for x in block.rows[a]] for a in range(d)]
    d2 = Matrix(jacobian, ngens * d).transpose()

    ranks = [d, ngens * d, len(relators) * d]
    boundaries = [d1, d2]
    if not relators:
        ranks = ranks[:2]
        boundaries = boundaries[:1]
    return BasedChainComplex(ranks, boundaries)


def format_word(w: Word) -> str:
    """Letter-exponent text like ``x0 x1 x0^-1 x1^-1`` (empty for 1)."""
    parts = []
    for g, e in w.letters:
        parts.append(f"x{g}" if e == 1 else f"x{g}^-1")
    return " ".join(parts)


def parse_word(text: str, names: list[str]) -> Word:
    """Parse a letter-exponent word over the named generators.

    Tokens are generator names with an optional ``^k`` exponent for a
    nonzero integer k, written ``[+-]digits`` (so ``x^-2`` means two
    inverse letters).  A word that would expand past ``MAX_WORD_LETTERS``
    letters is rejected before it is expanded.
    """
    letters: list[tuple[int, int]] = []
    for tok in text.split():
        name, caret, exp_text = tok.partition("^")
        try:
            exp = parse_integer(exp_text) if caret else 1
        except ValueError:
            raise _refusal(f"bad exponent in word token {tok!r}", tok) from None
        if name not in names:
            raise _refusal(f"unknown generator {name!r} in word", name)
        if exp == 0:
            continue
        if len(letters) + abs(exp) > MAX_WORD_LETTERS:
            raise _refusal(
                f"word token {tok!r} expands past the cap of {MAX_WORD_LETTERS} letters", tok
            )
        g = names.index(name)
        step = 1 if exp > 0 else -1
        letters.extend((g, step) for _ in range(abs(exp)))
    return Word(letters)


def _refusal(message: str, token: str) -> ValueError:
    """``ValueError(message)`` that keeps the token it quotes as ``.token``."""
    exc = ValueError(message)
    exc.token = token
    return exc
