from fractions import Fraction

from schurkit import polys


def test_from_roots_and_evaluate():
    p = polys.from_roots([1, -1])
    assert p == (-1, 0, 1)
    assert polys.evaluate(p, 3) == 8
    assert polys.evaluate(p, Fraction(1, 2)) == Fraction(-3, 4)
    for root in (1, -1):
        assert polys.evaluate(p, root) == 0


def test_mul_and_degree():
    p = polys.mul((1, 1), (-1, 1))
    assert p == (-1, 0, 1)
    assert polys.degree(p) == 2
    assert polys.mul((), (1, 2)) == ()


def test_normalize_drops_trailing_zeros():
    assert polys.normalize([Fraction(2, 2), 0, 0]) == (1,)
    assert polys.normalize([0, 0]) == ()
