from fractions import Fraction as F

from shintani.padic import PadicScalar, rational_reconstruct


def s(x, p=3, prec=20):
    return PadicScalar.from_rational(F(x), p, prec)


def test_from_rational_and_str():
    a = s(F(1, 2))
    assert a.val == 0 and a.prec == 20
    assert str(s(18)) == "3^2*2"
    assert str(s(F(1, 3))).startswith("3^-1*")
    assert str(PadicScalar.exact_zero(3)) == "0"
    assert str(PadicScalar.zero_at(3, 7)) == "O(3^7)"


def test_add_cancellation_tracks_precision():
    a = s(F(1, 2)) + s(F(-1, 2))
    assert a.is_zero and not a.is_exact_zero
    assert a.abs_prec == 20
    b = s(5) + s(4)
    assert b.val == 2 and b.unit % 3 != 0  # 9 = 3^2
    c = s(1) + PadicScalar.exact_zero(3)
    assert c == s(1)


def test_mul():
    a = s(6) * s(F(1, 2))
    assert a.eq_at_precision(s(3))
    z = PadicScalar.zero_at(3, 5) * s(9)
    assert z.is_zero and z.abs_prec == 7


def test_eq_at_precision():
    assert s(1).eq_at_precision(s(1 + 3**20))  # differ beyond precision
    assert not s(1).eq_at_precision(s(2))
    assert s(0).eq_at_precision(PadicScalar.zero_at(3, 4))


def test_rational_reconstruct():
    for x in (F(1, 2), F(-1, 2), F(7, 96), F(5), F(0), F(-22, 7), F(1, 3), F(9, 5)):
        if x.denominator % 3 == 0:
            # valuation is carried separately, reconstruct the unit part
            rec = rational_reconstruct(s(x))
            assert rec == x
        else:
            assert rational_reconstruct(s(x)) == x
    assert rational_reconstruct(PadicScalar.zero_at(3, 8)) == 0
