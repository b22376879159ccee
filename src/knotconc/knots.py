"""Symbolic knots: named atoms combined by mirror image and connected sum.

Expressions follow the grammar

    expr  ::= term ('+' term)*
    term  ::= '-' term | '(' expr ')' | NAME

where NAME is a run of letters, digits and underscores, followed directly
(no space between) by at most one balanced group of parentheses holding such
runs, commas and nested groups, so that knot-table style names like
``T(2,3)``, ``9_42`` and ``Wh(T(2,3))`` are single atoms.  A leading ``-`` is
the mirror image.
Parentheses and mirror signs may nest at most ``MAX_NESTING`` (100) deep.

Connected sum is commutative and associative, and mirroring is an involution
that distributes over it, so an expression is exactly its multiset of signed
atoms.  ``parse_expression`` returns that multiset as its key: the sorted
tuple of (name, mirrored) pairs.  Two expressions denote the same formal sum
iff their keys are equal.
"""

from __future__ import annotations

from typing import Iterable


class ExpressionError(ValueError):
    pass


SignedAtom = tuple[str, bool]
Key = tuple[SignedAtom, ...]


def signed_atoms(atoms: Iterable[SignedAtom]) -> Key:
    """The key of a multiset of signed atoms: the atoms, sorted."""
    return tuple(sorted(atoms))


def mirror_atoms(key: Key) -> Key:
    """The key of the mirror image."""
    return signed_atoms((name, not m) for name, m in key)


def expr_to_string(key: Key) -> str:
    return " + ".join(f"-{name}" if mirrored else name for name, mirrored in key)


_NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


# Deepest nesting of parentheses and mirror signs the parser accepts; the
# parser recurses once per level, so deeper input is refused, not crashed on.
MAX_NESTING = 100

# Largest inference universe of ``infer``, kept here beside MAX_NESTING so
# the command line states both limits without loading the engine.  A reduced
# query whose signed atoms occur c_1, ..., c_k times has prod(c_i + 1) - 1
# non-empty sub-multisets, each a node as is its mirror, so it needs at
# least 2 prod(c_i + 1) - 2 nodes; larger queries are refused before any
# rule fires.
MAX_NODES = 4000


def parse_expression(text: str) -> Key:
    """Parse the expression grammar into its key; raises ExpressionError on
    bad input, including terms nested more than MAX_NESTING deep.

    One recursive descent over the text.  A name is read where a term meets
    one, with its single argument group when ``(`` follows it directly; a
    later ``(`` opens a term.  Where the grammar fails, the token it stopped
    at is read first, so a malformed token there is what gets reported."""
    n = len(text)
    pos = depth = 0

    def peek() -> str:
        """The next character after whitespace, or '' at the end."""
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1
        return text[pos:pos + 1]

    def name() -> str:
        """The name at pos, with its argument group if it has one."""
        nonlocal pos
        start = pos
        while pos < n and text[pos] in _NAME_CHARS:
            pos += 1
        if not text.startswith("(", pos):
            return text[start:pos]
        head, level = text[start:pos], 0
        while pos < n:
            ch = text[pos]
            if ch not in _NAME_CHARS and ch not in "(),":
                raise ExpressionError(f"bad character {ch!r} inside name at position {pos}")
            level += (ch == "(") - (ch == ")")
            pos += 1
            if not level:
                return text[start:pos]
        raise ExpressionError(f"unbalanced parentheses in name {head!r}")

    def fail(message: str):
        """Raise ``message``, or the error of a malformed token at pos."""
        ch = peek()
        if ch in _NAME_CHARS:
            name()
        elif ch and ch not in "+-()":
            raise ExpressionError(f"unexpected character {ch!r} at position {pos}")
        raise ExpressionError(message)

    def parse_sum() -> list[SignedAtom]:
        nonlocal pos
        out = parse_term()
        while peek() == "+":
            pos += 1
            out += parse_term()
        return out

    def parse_term() -> list[SignedAtom]:
        nonlocal pos, depth
        ch = peek()
        if ch in _NAME_CHARS:
            return [(name(), False)]
        if ch not in ("-", "("):
            fail(f"expected a knot name in {text!r}")
        depth += 1
        if depth > MAX_NESTING:
            raise ExpressionError(
                f"expression nested more than {MAX_NESTING} levels deep "
                f"(parentheses and mirror signs)")
        pos += 1
        if ch == "-":
            inner = [(atom, not m) for atom, m in parse_term()]
        else:
            inner = parse_sum()
            if peek() != ")":
                fail(f"expected ')' in {text!r}")
            pos += 1
        depth -= 1
        return inner

    out = parse_sum()
    if peek():
        fail(f"trailing input in {text!r}")
    return signed_atoms(out)
