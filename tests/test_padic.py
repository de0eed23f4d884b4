import random
from fractions import Fraction as F

import pytest

from shintani.cli import _padic_str


def s(x, p=3, prec=20):
    return _padic_str(F(x), p, prec)


def parse(text):
    """(v, u) of a "p^v*u" string."""
    head, u = text.split("*")
    return int(head.split("^")[1]), int(u)


def expansion_holds(x, p, prec, v, u):
    """0 < u < p^prec, p does not divide u, and x p^-v = u mod p^prec."""
    mod = p ** prec
    y = x / F(p) ** v
    return (0 < u < mod and u % p != 0 and y.denominator % p != 0
            and (y.numerator - u * y.denominator) % mod == 0)


def test_from_rational_and_str():
    v, u = parse(s(F(1, 2)))
    assert v == 0 and 0 < u < 3**20
    assert s(18) == "3^2*2"
    assert s(F(1, 3)).startswith("3^-1*")
    assert s(0) == "0"
    # the unit is x / p^val modulo p^prec: -1/2 = 1/2 * -1, and 1/2 is
    # (3^20 + 1)/2 modulo 3^20
    assert s(F(1, 2)) == f"3^0*{(3**20 + 1) // 2}"
    assert s(F(-9, 2), prec=5) == f"3^2*{(-pow(2, -1, 3**5)) % 3**5}"
    # more digits extend the expansion, they do not change it
    assert parse(s(F(7, 96), prec=40))[1] % 3**20 == parse(s(F(7, 96)))[1]
    assert parse(s(F(7, 96), prec=40))[0] == parse(s(F(7, 96)))[0] == -1


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_expansion_property(p):
    rng = random.Random(p)
    for _ in range(300):
        x = F(rng.randint(-10**12, 10**12) or 1, rng.randint(1, 10**12))
        x *= F(p) ** rng.randint(-6, 6)
        prec = rng.randint(1, 30)
        text = s(x, p, prec)
        assert text.startswith(f"{p}^")
        v, u = parse(text)
        assert expansion_holds(x, p, prec, v, u), (x, prec, text)
        # negative control: a unit off by one fails the check
        assert not expansion_holds(x, p, prec, v, u + 1)
        assert not expansion_holds(x, p, prec, v, u - 1)
