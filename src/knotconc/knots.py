"""Symbolic knots: named atoms combined by mirror image and connected sum.

Expressions follow the grammar

    expr  ::= term ('+' term)*
    term  ::= '-' term | '(' expr ')' | NAME

where NAME is an identifier that may itself contain balanced parentheses and
commas, so that knot-table style names like ``T(2,3)``, ``9_42`` and
``Wh(T(2,3))`` are single atoms.  A leading ``-`` is the mirror image.
Parentheses and mirror signs may nest at most ``MAX_NESTING`` (100) deep.

Normalization pushes mirrors down to atoms (mirror is an involution and
distributes over connected sum), flattens sums, and sorts summands, so two
expressions denote the same formal sum iff their normal forms are equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


class ExpressionError(ValueError):
    pass


@dataclass(frozen=True)
class Atom:
    name: str


@dataclass(frozen=True)
class Mirror:
    inner: "KnotExpression"


@dataclass(frozen=True)
class Sum:
    left: "KnotExpression"
    right: "KnotExpression"


KnotExpression = Union[Atom, Mirror, Sum]

# A normalized expression is determined by its multiset of signed atoms,
# each a (name, mirrored) pair.
SignedAtom = tuple[str, bool]


def signed_atoms(expr: KnotExpression) -> tuple[SignedAtom, ...]:
    """Sorted multiset of (name, mirrored) leaves of the expression.

    Walks with an explicit stack: a long sum is a deep left-nested tree."""
    leaves: list[SignedAtom] = []
    stack: list[tuple[KnotExpression, bool]] = [(expr, False)]
    while stack:
        e, flip = stack.pop()
        if isinstance(e, Atom):
            leaves.append((e.name, flip))
        elif isinstance(e, Mirror):
            stack.append((e.inner, not flip))
        elif isinstance(e, Sum):
            stack.append((e.right, flip))
            stack.append((e.left, flip))
        else:
            raise ExpressionError(f"not a knot expression: {e!r}")
    return tuple(sorted(leaves))


def from_signed_atoms(atoms: tuple[SignedAtom, ...]) -> KnotExpression:
    if not atoms:
        raise ExpressionError("empty expression")
    terms: list[KnotExpression] = [
        Mirror(Atom(name)) if mirrored else Atom(name) for name, mirrored in sorted(atoms)
    ]
    out = terms[0]
    for t in terms[1:]:
        out = Sum(out, t)
    return out


def mirror_atoms(atoms: tuple[SignedAtom, ...]) -> tuple[SignedAtom, ...]:
    """The sorted multiset of signed atoms of the mirror image."""
    return tuple(sorted((name, not m) for name, m in atoms))


def normalize(expr: KnotExpression) -> KnotExpression:
    """Canonical form: mirrors at atoms, sums flattened, summands sorted."""
    return from_signed_atoms(signed_atoms(expr))


def expr_to_string(expr: KnotExpression) -> str:
    parts = []
    for name, mirrored in signed_atoms(normalize(expr)):
        parts.append(f"-{name}" if mirrored else name)
    return " + ".join(parts)


_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _tokenize(text: str) -> list[str]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-":
            tokens.append(ch)
            i += 1
        elif ch == "(" or ch == ")":
            tokens.append(ch)
            i += 1
        elif ch in _NAME_CHARS:
            j = i
            while j < n and text[j] in _NAME_CHARS:
                j += 1
            name = text[i:j]
            # A '(' directly after a name opens that name's argument list,
            # e.g. T(2,3) or Wh(T(2,3)); consume it balanced into the name.
            if j < n and text[j] == "(":
                depth = 0
                k = j
                while k < n:
                    if text[k] == "(":
                        depth += 1
                    elif text[k] == ")":
                        depth -= 1
                        if depth == 0:
                            k += 1
                            break
                    elif text[k] not in _NAME_CHARS and text[k] != ",":
                        raise ExpressionError(
                            f"bad character {text[k]!r} inside name at position {k}"
                        )
                    k += 1
                if depth != 0:
                    raise ExpressionError(f"unbalanced parentheses in name {name!r}")
                name = text[i:k]
                j = k
            tokens.append("NAME:" + name)
            i = j
        else:
            raise ExpressionError(f"unexpected character {ch!r} at position {i}")
    return tokens


# Deepest nesting of parentheses and mirror signs the parser accepts; the
# parser recurses once per level, so deeper input is refused, not crashed on.
MAX_NESTING = 100


def parse_expression(text: str) -> KnotExpression:
    """Parse the expression grammar; raises ExpressionError on bad input,
    including terms nested more than MAX_NESTING deep."""
    tokens = _tokenize(text)
    pos = 0
    depth = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_sum() -> KnotExpression:
        out = parse_term()
        while peek() == "+":
            take()
            out = Sum(out, parse_term())
        return out

    def parse_term() -> KnotExpression:
        nonlocal depth
        tok = peek()
        if tok in ("-", "("):
            depth += 1
            if depth > MAX_NESTING:
                raise ExpressionError(
                    f"expression nested more than {MAX_NESTING} levels deep "
                    f"(parentheses and mirror signs)")
            take()
            if tok == "-":
                inner = Mirror(parse_term())
            else:
                inner = parse_sum()
                if take() != ")":
                    raise ExpressionError(f"expected ')' in {text!r}")
            depth -= 1
            return inner
        if tok is not None and tok.startswith("NAME:"):
            take()
            return Atom(tok[5:])
        raise ExpressionError(f"expected a knot name in {text!r}")

    out = parse_sum()
    if pos != len(tokens):
        raise ExpressionError(f"trailing input in {text!r}")
    return out
