"""The desk instances every suite shares.

Each builder returns (field, S).  The names describe the field and the
rational primes whose places were put into S; S always carries all
infinite places on top.
"""

from sgen2.field import create_field
from sgen2.ideals import factor_rational_prime
from sgen2.sunits import PrimeSet

from test_field import ZETA5_DATASHEET


def rational_two():
    k = create_field([-1, 1])
    return k, PrimeSet(k, list(factor_rational_prime(k, 2)))


def gaussian_two():
    # the ramified prime (1 + i); card 2, the CM borderline instance
    k = create_field([1, 0, 1])
    return k, PrimeSet(k, list(factor_rational_prime(k, 2)))


def gaussian_three():
    # the inert prime (3); card 2, CM borderline again
    k = create_field([1, 0, 1])
    return k, PrimeSet(k, list(factor_rational_prime(k, 3)))


def gaussian_five():
    # both primes above 5; card 3
    k = create_field([1, 0, 1])
    return k, PrimeSet(k, list(factor_rational_prime(k, 5)))


def sqrt2_seven():
    # only the prime <3 + sqrt 2> of the two above 7
    k = create_field([-2, 0, 1])
    sel = [p for p in factor_rational_prime(k, 7) if p.contains(k.theta + 3)]
    assert len(sel) == 1
    return k, PrimeSet(k, sel)


def sqrt5_two():
    # 2 stays inert: one finite prime of norm 4
    k = create_field([-5, 0, 1])
    return k, PrimeSet(k, list(factor_rational_prime(k, 2)))


def zeta5_nofinite():
    # S = infinite places only (two of them), datasheet tier
    k = create_field([1, 1, 1, 1, 1], datasheet=ZETA5_DATASHEET)
    return k, PrimeSet(k, [])


DESK = [rational_two, gaussian_two, gaussian_three, gaussian_five,
        sqrt2_seven, sqrt5_two]
ALL = DESK + [zeta5_nofinite]
