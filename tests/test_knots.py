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


def test_a_name_takes_one_argument_group():
    """Only a '(' directly after a name opens its argument group, and only
    one: a second group, or a group after a space, is a term of its own,
    whose comma then lies outside any name."""
    for bad in ("4(9)(923)", "2h(x3x29)(T)", "T(2,3)(5)"):
        with pytest.raises(ExpressionError, match="trailing input"):
            parse_expression(bad)
    for bad in ("T (2,3)", "-T (2,3)", "(T (2,3))"):
        with pytest.raises(ExpressionError):
            parse_expression(bad)


def test_a_comma_outside_a_name_and_an_unbalanced_name():
    for bad in ("a, b", "(a, b)", ", a", "a + ,b", "(2,3)"):
        with pytest.raises(ExpressionError, match="unexpected character ','"):
            parse_expression(bad)
    for bad, name in (("T(3", "T"), ("Wh(T(2,3)", "Wh"), ("a + b((c)", "b")):
        with pytest.raises(ExpressionError, match=f"unbalanced parentheses in name '{name}'"):
            parse_expression(bad)


def test_nesting_limit_is_one_hundred():
    for k in (99, 100):
        assert parse_expression("-" * k + "T(2,3)") == (("T(2,3)", k % 2 == 1),)
        assert parse_expression("(" * k + "x" + ")" * k) == (("x", False),)
    assert parse_expression("(-" * 50 + "x" + ")" * 50) == (("x", False),)
    for text in ("-" * 101 + "T(2,3)", "(" * 101 + "x" + ")" * 101,
                 "-" + "(-" * 50 + "x" + ")" * 50):
        with pytest.raises(ExpressionError, match="nested more than 100 levels deep"):
            parse_expression(text)


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
