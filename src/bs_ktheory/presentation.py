"""One-relator group presentations: parsing, abelianization, and the
homology and K-homology of the presentation two-complex.

Grammar (whitespace insignificant between tokens)::

    presentation := "<" gens "|" rel ">"
    gens         := ident {"," ident}
    rel          := word ["=" word]
    word         := letter {letter}
    letter       := ident ["^" int]
    ident        := alpha {alnum | "_"}
    int          := nonzero signed decimal

where alpha is a character ``str.isalpha`` accepts and alnum one
``str.isalnum`` accepts, in any script: ``<α,β | α β α^-1 β^-2>`` parses,
and ``a²`` is one generator name, not a squared ``a``. Exponent digits
are ASCII only.

An equation form w1 = w2 is converted to the relator w1 * w2^-1. Only one
relator is accepted; a comma in the relator part is an error.

The one-vertex complex with one edge per generator and a single 2-cell
glued along the relator has H0 = Z, H1 = the abelianization (the
1-boundary vanishes since there is one vertex), and H2 = Z exactly when
the relator's exponent vector vanishes. When the relator is not a proper
power, the complex is a 2-dimensional classifying space for the group and
its K-homology is K0 = H0 + H2, K1 = H1.

The relator is kept as syllables, (generator, exponent) runs, and every
test on it works on syllables: exponents of any size cost nothing beyond
their digits, so ``bs_presentation`` accepts every nonzero integer n.
"""

from __future__ import annotations

import reprlib

from .abelian import (
    FgAbGroup,
    GroupHom,
    IntMatrix,
    _cokernel_ext,
    _dominant_names,
    _relations_snf,
    element_order,
)
from .errors import DomainError, ParseError, ProperPowerRelator, UndeclaredGenerator, _checked_namedtuple
from .ledger import KClass, KClassLedger

Letter = tuple[int, int]  # (generator index, nonzero exponent)


def _reduce_letters(letters) -> tuple[Letter, ...]:
    out: list[list[int]] = []
    for gen, exp in letters:
        if type(gen) is not int or type(exp) is not int:
            raise ValueError("generator indices and exponents must be Python ints")
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            out[-1][1] += exp
            if out[-1][1] == 0:
                out.pop()
        else:
            out.append([gen, exp])
    return tuple((g, e) for g, e in out)


class Word(_checked_namedtuple("Word", "letters")):
    """A freely reduced word: adjacent letters use distinct generators."""

    __slots__ = ()

    def __new__(cls, letters: tuple[Letter, ...] = ()):
        return tuple.__new__(cls, (_reduce_letters(letters),))

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)


class Presentation(_checked_namedtuple("Presentation", "generators relator")):
    """A one-relator presentation < generators | relator >."""

    __slots__ = ()

    def __new__(cls, generators: tuple[str, ...], relator: Word):
        generators = tuple(generators)
        if len(set(generators)) != len(generators):
            raise ValueError("generator names must be distinct")
        for g, _ in relator.letters:
            if not 0 <= g < len(generators):
                raise ValueError("relator uses an out-of-range generator index")
        return tuple.__new__(cls, (generators, relator))


class ComplexHomology(_checked_namedtuple("ComplexHomology", "h0 h1 h2 basepoint_gen h1_projection")):
    """Homology of the presentation complex; h0 is Z with a named basepoint.

    ``h1_projection`` maps the 1-cycles, one generator per edge, onto h1.
    """

    __slots__ = ()

    def __new__(cls, h0: FgAbGroup, h1: FgAbGroup, h2: FgAbGroup, basepoint_gen: str, h1_projection: GroupHom):
        if h0.free_rank != 1 or h0.torsion:
            raise ValueError("h0 of a connected complex must be Z")
        if h2.torsion or h2.free_rank > 1:
            raise ValueError("h2 of a one-relator complex is Z or 0")
        return tuple.__new__(cls, (h0, h1, h2, basepoint_gen, h1_projection))


# ---------------------------------------------------------------------------
# parsing


_SYMBOLS = "<>|,=^"
_DIGITS = "0123456789"  # str.isdigit also accepts other scripts' digits


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch.isalpha():
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in _DIGITS or ch in "+-":
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            lit = text[i:j]
            if lit in "+-":
                raise ParseError("dangling sign", i)
            tokens.append(("int", lit, i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text, at = self.take()
        if kind != "sym" or text != value:
            raise ParseError(f"expected {value!r}, found {reprlib.repr(text or 'end of input')}", at)

    def parse(self) -> Presentation:
        self.expect("<")
        gens = [self._ident("generator name")]
        while self.peek()[:2] == ("sym", ","):
            self.take()
            gens.append(self._ident("generator name"))
        if len(set(gens)) != len(gens):
            raise ParseError("duplicate generator name", self.peek()[2])
        self.expect("|")
        index = {name: i for i, name in enumerate(gens)}
        left = self._word(index)
        relator = left
        if self.peek()[:2] == ("sym", "="):
            self.take()
            right = self._word(index)
            relator = left * right.inverse()
        kind, text, at = self.peek()
        if (kind, text) == ("sym", ","):
            raise ParseError("only one relator is supported", at)
        self.expect(">")
        kind, text, at = self.take()
        if kind != "end":
            raise ParseError(f"trailing input {reprlib.repr(text)}", at)
        return Presentation(tuple(gens), relator)

    def _ident(self, what: str) -> str:
        kind, text, at = self.take()
        if kind != "ident":
            raise ParseError(f"expected {what}, found {reprlib.repr(text or 'end of input')}", at)
        return text

    def _word(self, index: dict[str, int]) -> Word:
        letters = []
        if self.peek()[0] != "ident":
            kind, text, at = self.peek()
            raise ParseError(f"expected a word, found {reprlib.repr(text or 'end of input')}", at)
        while self.peek()[0] == "ident":
            kind, name, at = self.take()
            if name not in index:
                raise UndeclaredGenerator(f"undeclared generator {reprlib.repr(name)}", at)
            exp = 1
            if self.peek()[:2] == ("sym", "^"):
                self.take()
                kind, lit, at2 = self.take()
                if kind != "int":
                    raise ParseError("expected an exponent after '^'", at2)
                exp = int(lit)
                if exp == 0:
                    raise ParseError("zero exponent is not allowed", at2)
            letters.append((index[name], exp))
        return Word(tuple(letters))


def parse(text: str) -> Presentation:
    """Parse presentation text; the relator comes back freely reduced."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# invariants of the presentation complex


def exponent_vector(p: Presentation) -> tuple[int, ...]:
    """Sum of exponents of each generator in the relator."""
    sums = [0] * len(p.generators)
    for g, e in p.relator.letters:
        sums[g] += e
    return tuple(sums)


def _abelianization_ext(p: Presentation) -> tuple[FgAbGroup, GroupHom]:
    m = len(p.generators)
    free = FgAbGroup.free(m, p.generators)
    relator_source = FgAbGroup.free(1, ("r",))
    h = GroupHom(relator_source, free, IntMatrix(m, 1, exponent_vector(p)))
    data = _cokernel_ext(h, _relations_snf(h, False))  # H1 reads no lifts
    group = data.group.renamed(_dominant_names(data.proj, p.generators, ""))
    return group, GroupHom(free, group, IntMatrix.from_rows(data.proj, cols=m))


def _is_cyclic_proper_power(letters: tuple[Letter, ...]) -> bool:
    """Whether the freely reduced word is conjugate to some u^k with k >= 2.

    Cyclic reduction merges the first and last syllables while they share
    a generator, dropping them when the exponents cancel. After it the cut
    between the ends is a syllable boundary, so the word is a proper power
    exactly when its syllable tuple has a period p < m dividing m, or when
    it is one syllable g^e with |e| >= 2. The empty word counts as a proper
    power (the trivial relator).
    """
    i, j = 0, len(letters) - 1
    while i < j and letters[i][0] == letters[j][0] and letters[i][1] == -letters[j][1]:
        i, j = i + 1, j - 1
    if i < j and letters[i][0] == letters[j][0]:
        letters = ((letters[i][0], letters[i][1] + letters[j][1]),) + letters[i + 1 : j]
    else:
        letters = letters[i : j + 1]
    m = len(letters)
    if m == 1:
        return abs(letters[0][1]) >= 2
    return m == 0 or any(m % p == 0 and letters[p:] == letters[:-p] for p in range(1, m))


def presentation_homology(p: Presentation) -> ComplexHomology:
    """Homology of the one-vertex, m-edge, one-cell complex.

    Requires the relator not to be a proper power (otherwise the group has
    torsion and the complex is not aspherical); the test works on the
    relator's syllables, so its cost does not grow with exponent size.
    """
    if _is_cyclic_proper_power(p.relator.letters):
        raise ProperPowerRelator(
            "the relator is a proper power (or trivial), so the two-complex "
            "is not a classifying space"
        )
    h1, projection = _abelianization_ext(p)
    h0 = FgAbGroup.free(1, ("pt",))
    # H2 = Z exactly when the exponent vector vanishes, i.e. H1 is free of rank m
    h2 = FgAbGroup.free(1, ("cell",)) if h1.free_rank == len(p.generators) else FgAbGroup.trivial()
    return ComplexHomology(h0, h1, h2, basepoint_gen="pt", h1_projection=projection)


def classifying_space_k(p: Presentation) -> tuple[FgAbGroup, FgAbGroup, KClassLedger]:
    """K-homology of the classifying space: K0 = H0 + H2 and K1 = H1.

    The ledger places the basepoint class "[pt]" in K0 and each group
    generator's class in K1 through the abelianization.
    """
    hom = presentation_homology(p)
    k0 = FgAbGroup.free(1 + hom.h2.free_rank, (hom.basepoint_gen,) + hom.h2.gen_names)
    k1 = hom.h1

    pt = (1, *hom.h2.zero())
    entries = {"[pt]": KClass("k0", pt, element_order(k0, pt), "inclusion of a base point")}
    proj = hom.h1_projection.matrix
    for i, name in enumerate(p.generators):
        vec = k1.reduce(proj.col(i))
        entries[name] = KClass("k1", vec, element_order(k1, vec), "class of a group generator")
    return k0, k1, KClassLedger(entries)


def bs_presentation(n: int) -> Presentation:
    """The standard two-generator presentation with relator a b a^-1 b^-n."""
    if n == 0:
        raise DomainError("the parameter must be a nonzero integer")
    return Presentation(("a", "b"), Word(((0, 1), (1, 1), (0, -1), (1, -n))))
