import random

import pytest

from knotconc.knots import (
    ExpressionError,
    expr_to_string,
    mirror_atoms,
    parse_expression,
)

NAMES = ["T(2,3)", "T(3,7)", "9_42", "Wh(T(2,3))", "unknot", "8_19"]


def random_expr(rng, depth=0):
    """A random expression string: atoms under nested mirrors, sums and
    parentheses."""
    r = rng.random()
    if depth > 4 or r < 0.4:
        return rng.choice(NAMES)
    if r < 0.7:
        return f"-{random_expr(rng, depth + 1)}"
    return f"({random_expr(rng, depth + 1)} + {random_expr(rng, depth + 1)})"


def test_parse_atoms_with_nested_parens():
    assert parse_expression("Wh(T(2,3))") == (("Wh(T(2,3))", False),)
    e = parse_expression("-(9_42) + Wh(T(2,3))")
    assert e == (("9_42", True), ("Wh(T(2,3))", False))


def test_parse_sum_and_mirror():
    e = parse_expression("T(2,5) + -Wh(T(2,3))")
    assert e == (("T(2,5)", False), ("Wh(T(2,3))", True))
    e = parse_expression("-(T(2,5) + -Wh(T(2,3)))")
    assert e == (("T(2,5)", True), ("Wh(T(2,3))", False))


def test_parse_errors():
    for bad in ("", "T(3,7", ")", "a + ", "+ a", "a ++ b", "a b", "T(2,3))"):
        with pytest.raises(ExpressionError):
            parse_expression(bad)


def test_mirror_involution():
    rng = random.Random(40)
    for _ in range(300):
        a = random_expr(rng)
        assert parse_expression(f"-(-({a}))") == parse_expression(a)


def test_mirror_distributes_over_sum():
    rng = random.Random(43)
    for _ in range(300):
        a, b = random_expr(rng), random_expr(rng)
        assert parse_expression(f"-({a} + {b})") == parse_expression(f"-({a}) + -({b})")


def test_sum_commutative():
    rng = random.Random(44)
    for _ in range(300):
        a, b, c = random_expr(rng), random_expr(rng), random_expr(rng)
        assert parse_expression(f"{a} + {b}") == parse_expression(f"{b} + {a}")
        assert (parse_expression(f"({a} + {b}) + {c}")
                == parse_expression(f"{a} + ({b} + {c})"))


def test_key_laws_random():
    """For random a and b: the key of a + b is that of b + a and of
    -(-(a) + -(b)), its mirror is the key of -(a + b), and it is sorted."""
    rng = random.Random(41)
    for _ in range(1000):
        a, b = random_expr(rng), random_expr(rng)
        key = parse_expression(f"{a} + {b}")
        assert key == parse_expression(f"{b} + {a}") == parse_expression(f"-(-({a}) + -({b}))")
        assert mirror_atoms(key) == parse_expression(f"-({a} + {b})")
        assert list(key) == sorted(key)


def test_string_round_trip():
    rng = random.Random(42)
    for _ in range(300):
        key = parse_expression(random_expr(rng))
        assert parse_expression(expr_to_string(key)) == key
