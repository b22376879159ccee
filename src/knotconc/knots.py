"""Symbolic knots: named atoms combined by mirror image and connected sum.

Expressions follow the grammar

    expr  ::= term ('+' term)*
    term  ::= '-' term | '(' expr ')' | NAME

where NAME is an identifier that may itself contain balanced parentheses and
commas, so that knot-table style names like ``T(2,3)``, ``9_42`` and
``Wh(T(2,3))`` are single atoms.  A leading ``-`` is the mirror image.
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

# Largest inference universe of ``infer``, kept here beside MAX_NESTING so
# the command line states both limits without loading the engine.  A reduced
# query whose signed atoms occur c_1, ..., c_k times has prod(c_i + 1) - 1
# non-empty sub-multisets, each a node as is its mirror, so it needs at
# least 2 prod(c_i + 1) - 2 nodes; larger queries are refused before any
# rule fires.
MAX_NODES = 4000


def parse_expression(text: str) -> Key:
    """Parse the expression grammar into its key; raises ExpressionError on
    bad input, including terms nested more than MAX_NESTING deep."""
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

    def parse_sum() -> list[SignedAtom]:
        out = parse_term()
        while peek() == "+":
            take()
            out += parse_term()
        return out

    def parse_term() -> list[SignedAtom]:
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
                inner = [(name, not m) for name, m in parse_term()]
            else:
                inner = parse_sum()
                if take() != ")":
                    raise ExpressionError(f"expected ')' in {text!r}")
            depth -= 1
            return inner
        if tok is not None and tok.startswith("NAME:"):
            take()
            return [(tok[5:], False)]
        raise ExpressionError(f"expected a knot name in {text!r}")

    out = parse_sum()
    if pos != len(tokens):
        raise ExpressionError(f"trailing input in {text!r}")
    return signed_atoms(out)
