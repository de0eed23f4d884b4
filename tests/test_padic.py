from fractions import Fraction as F

from shintani.padic import PadicScalar


def s(x, p=3, prec=20):
    return PadicScalar.from_rational(F(x), p, prec)


def test_from_rational_and_str():
    a = s(F(1, 2))
    assert a.val == 0 and a.prec == 20
    assert str(s(18)) == "3^2*2"
    assert str(s(F(1, 3))).startswith("3^-1*")
    assert str(s(0)) == "0"
    # the unit is x / p^val modulo p^prec: -1/2 = 1/2 * -1, and 1/2 is
    # (3^20 + 1)/2 modulo 3^20
    assert str(s(F(1, 2))) == f"3^0*{(3**20 + 1) // 2}"
    assert str(s(F(-9, 2), prec=5)) == f"3^2*{(-pow(2, -1, 3**5)) % 3**5}"
    # more digits extend the expansion, they do not change it
    assert s(F(7, 96), prec=40).unit % 3**20 == s(F(7, 96)).unit
