import random
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, prod

from sgen2 import linalg
from sgen2.linalg import RatLattice

import oracles


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def kept(L):
    """A RatLattice's kept triangle as (den, rows)."""
    return L.den, [r for r in L.tri if r is not None]


def equal(A, B):
    """A = B for full-rank lattices: each has index 1 in their sum."""
    return A.sum_index(*kept(B)) == 1 == B.sum_index(*kept(A))


def rand_unimodular(rng, n, steps=12):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-3, 3)
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def test_hnf_known():
    # span{(5,0),(2,1)} = {(a,b): a = 2b mod 5} has HNF [[1,3],[0,5]]
    assert linalg.hnf([[5, 0], [2, 1]]) == [(1, 3), (0, 5)]
    assert linalg.hnf([[2, 0], [0, 2], [1, 1]]) == [(1, 1), (0, 2)]
    assert linalg.hnf([[0, 0]]) == []


def test_hnf_canonical_under_unimodular_transform():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        h1 = linalg.hnf(a)
        u = rand_unimodular(rng, n)
        ua = mat_mul(u, a)
        assert linalg.hnf([[int(x) for x in r] for r in ua]) == h1


def hermite_inputs(rng, count):
    """Random integer matrices of up to 6 rows, entries in [-9, 9], with
    zero rows, repeated rows and rows that combine earlier ones, so that
    many are rank-deficient."""
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 5)
        rows = []
        for _ in range(m):
            kind = rng.random()
            if kind < 0.15:
                rows.append([0] * n)
            elif rows and kind < 0.3:
                rows.append(list(rng.choice(rows)))
            elif rows and kind < 0.5:
                u, v = rng.choice(rows), rng.choice(rows)
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
                rows.append([a * x + b * y for x, y in zip(u, v)])
            else:
                rows.append([rng.randint(-9, 9) for _ in range(n)])
        yield rows


def assert_hermite(h):
    """h is in echelon form, pivots positive and the entries above each
    pivot reduced into [0, pivot)."""
    pivots = []
    for row in h:
        pc = next(i for i, x in enumerate(row) if x)
        assert row[pc] > 0
        pivots.append(pc)
    assert pivots == sorted(pivots) and len(set(pivots)) == len(pivots)
    for j, row in enumerate(h):
        pc = pivots[j]
        for i in range(j):
            assert 0 <= h[i][pc] < row[pc]


def test_hnf_shape():
    rng = random.Random(9)
    for _ in range(30):
        assert_hermite(linalg.hnf(rand_matrix(rng, rng.randint(1, 5),
                                              rng.randint(1, 5))))


def carried(a):
    """(H, T, K) off one HNF of a's rows with the identity carried beside
    them: H the HNF of a and T its transform (the rows with a pivot in
    a's columns, split there), and K the relations of a's rows (the rows
    with a pivot in the carried columns)."""
    m, n = len(a), len(a[0])
    full = linalg.hnf([list(r) + [int(i == k) for k in range(m)]
                       for i, r in enumerate(a)])
    lead = [r for r in full if any(r[:n])]
    return ([r[:n] for r in lead], [r[n:] for r in lead],
            [r[n:] for r in full if not any(r[:n])])


def test_hnf_carried_identity_consistent():
    rng = random.Random(3)
    inputs = [rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
              for _ in range(30)]
    for a in inputs + list(hermite_inputs(rng, 200)):
        h, t, kern = carried(a)
        assert h == linalg.hnf(a)
        assert_hermite(h)
        # the same row lattice both ways: every row of a over H, and H
        # from a through T
        assert all(linalg.in_lattice(h, r) for r in a)
        assert [tuple(r) for r in mat_mul(t, a)] == h
        assert all(not any(r) for r in mat_mul(kern, a))
        # the kernel is complete: its rank is the number of rows less the
        # rank, and it comes out in its canonical form
        assert len(linalg.hnf(kern)) == len(a) - len(h)
        assert linalg.hnf(kern) == kern
        # a carried column rides along: each row hnf returns is u @ (a
        # with that column), u its block of the carried identity
        m, n = len(a), len(a[0])
        wide = [r + [rng.randint(-9, 9)] for r in a]
        H = linalg.hnf([r + [int(i == k) for k in range(m)]
                        for i, r in enumerate(wide)])
        assert all(list(r[:n + 1]) == mat_mul([r[n + 1:]], wide)[0]
                   for r in H)


def test_kernel_rank():
    # rank-1 matrix with 3 rows: kernel rank 2
    a = [[1, 2], [2, 4], [3, 6]]
    _, _, kern = carried(a)
    assert len(linalg.hnf(kern)) == 2
    for k in kern:
        assert not any(sum(c * a[i][j] for i, c in enumerate(k)) for j in range(2))


def test_solve_through_transform():
    # integer combinations of arbitrary generators: v | 0 reduces to
    # 0 | -c down the HNF of the generators with the identity carried
    gens = [[2, 0], [3, 3]]
    H = linalg.hnf([r + [int(i == k) for k in range(2)]
                    for i, r in enumerate(gens)])
    v = linalg.remainder(H, [7, 3, 0, 0])
    assert v[:2] == [0, 0]
    c = [-x for x in v[2:]]
    assert [c[0] * 2 + c[1] * 3, c[1] * 3] == [7, 3]
    assert any(linalg.remainder(H, [1, 1, 0, 0])[:2])


def test_remainder_is_a_coset_representative():
    # down a canonical HNF and down an unreduced kept triangle of the
    # same rows: zero exactly on members, the same vector across a coset,
    # each pivot entry in [0, pivot)
    rng = random.Random(5)
    seen = {"member": 0, "outside": 0, "unreduced": 0}
    for a in hermite_inputs(rng, 200):
        n = len(a[0])
        H = linalg.hnf(a)
        tri = kept(RatLattice(1, a, n))[1]
        seen["unreduced"] += [tuple(r) for r in tri] != H
        for rows in (H, tri):
            pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
            for _ in range(4):
                v = [rng.randint(-20, 20) for _ in range(n)]
                if rng.random() < 0.5:
                    v = linalg.vec_mat([rng.randint(-5, 5) for _ in a], a)
                member = linalg.hnf(a + [v]) == H
                seen["member" if member else "outside"] += 1
                r = linalg.remainder(rows, v)
                assert (not any(r)) == member
                assert all(0 <= r[j] < row[j] for j, row in zip(pivots, rows))
                shift = linalg.vec_mat([rng.randint(-5, 5) for _ in a], a)
                assert linalg.remainder(
                    rows, [x + y for x, y in zip(v, shift)]) == r
    assert min(seen.values()) >= 50, seen


def leibniz_det(a):
    total = Fraction(0)
    for perm in permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        term = Fraction(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term *= a[i][j]
        total += term
    return total


def test_mat_det_matches_leibniz():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(0, 5)
        a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(n)]
             for _ in range(n)]
        if n > 1 and rng.random() < 0.2:
            a[-1] = list(a[0])  # singular
        assert linalg.mat_det(a) == leibniz_det(a)
        assert oracles.gj_det(a) == leibniz_det(a)
        ints = [[x.numerator for x in r] for r in a]
        assert linalg.int_det(ints) == leibniz_det(ints)


def test_lattice_index_known():
    # [Z^2 : 2Z x 3Z] = 6, read as [L + Z^2 : L] with L inside Z^2
    assert lat(1, [[2, 0], [0, 3]]).sum_index(1, [[1, 0], [0, 1]]) == 6


def test_lattice_index_multiplicative():
    rng = random.Random(23)
    for _ in range(50):
        n = rng.randint(1, 4)
        base = rand_matrix(rng, n, n)
        while linalg.int_det(base) == 0:
            base = rand_matrix(rng, n, n)
        m1 = rand_matrix(rng, n, n, -3, 3)
        while linalg.int_det(m1) == 0:
            m1 = rand_matrix(rng, n, n, -3, 3)
        m2 = rand_matrix(rng, n, n, -3, 3)
        while linalg.int_det(m2) == 0:
            m2 = rand_matrix(rng, n, n, -3, 3)
        r1 = base
        r2 = [[int(x) for x in r] for r in mat_mul(m1, base)]
        r3 = [[int(x) for x in r] for r in mat_mul(mat_mul(m2, m1), base)]
        # r1 > r2 > r3, so each sum is the larger lattice
        i12 = lat(1, r2).sum_index(1, r1)
        i23 = lat(1, r3).sum_index(1, r2)
        i13 = lat(1, r3).sum_index(1, r1)
        assert i12 == abs(linalg.int_det(m1))
        assert i23 == abs(linalg.int_det(m2))
        assert i13 == i12 * i23


def test_snf_known():
    assert oracles.snf_invariants([[2, 0], [0, 3]]) == [1, 6]
    assert oracles.snf_invariants([[2, 0], [0, 4]]) == [2, 4]
    assert oracles.snf_invariants([[1, 0], [0, 1]]) == [1, 1]
    assert oracles.snf_invariants([[2, 4], [4, 8]]) == [2]


def test_snf_product_is_det():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        d = abs(linalg.int_det(a))
        inv = oracles.snf_invariants(a)
        if d:
            prod = 1
            for x in inv:
                prod *= x
            assert prod == d
            for x, y in zip(inv, inv[1:]):
                assert y % x == 0
        else:
            assert len(inv) < n


def intersect(a, b):
    """HNF of the intersection of two row spans, from the integer kernel
    of [a; -b]: the library forms no intersection, so the second
    isomorphism identity is checked against this."""
    _, _, kern = carried(a + [[-x for x in r] for r in b])
    return linalg.hnf([linalg.vec_mat(k[:len(a)], a) for k in kern])


def pivot_product(H):
    return prod(next(x for x in r if x) for r in H)


def test_intersect_and_sum():
    a = [[2, 0], [0, 1]]
    b = [[1, 0], [0, 3]]
    assert intersect(a, b) == linalg.hnf([[2, 0], [0, 3]])
    total = linalg.hnf(a + b)
    assert total == linalg.hnf([[1, 0], [0, 1]])
    # [a : a cap b] = 3 = [b + a : b]
    assert lat(1, b).sum_index(1, a) == 3
    assert lat(1, a).sum_index(1, b) == 2


def test_intersect_second_isomorphism():
    # [A : A cap B] == [B + A : B] (B's sum_index) for random pairs with
    # B of full rank; a B of lower rank gives None
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 3)
        a = rand_matrix(rng, n, n)
        b = rand_matrix(rng, n, n)
        if linalg.int_det(b) == 0:
            assert lat(1, b).sum_index(1, a) is None
            continue
        # cap has A's rank and lies in A: the index is the ratio of
        # the pivot products of the two Hermite forms
        ha, cap = linalg.hnf(a), intersect(a, b)
        assert len(cap) == len(ha)
        assert all(linalg.in_lattice(ha, r) for r in cap)
        assert (pivot_product(cap) // pivot_product(ha)
                == lat(1, b).sum_index(1, a))


def test_span_coeffs():
    # coefficients over the rows' span come from linalg.solve
    rows = [[1, 0, 1], [0, 2, 0]]
    assert linalg.solve(rows, [3, 4, 3]) == [Fraction(3), Fraction(2)]
    assert linalg.solve(rows, [0, 0, 1]) is None
    # dependent rows: some c with c @ rows = target, read off one relation
    rows = [[1, 2], [2, 4], [3, 6], [0, 0]]
    for target in ([5, 10], [0, 0], [-7, -14]):
        c = linalg.solve(rows, target)
        assert c is not None and linalg.vec_mat(c, rows) == target
    assert linalg.solve(rows, [1, 0]) is None


def test_mat_inv_roundtrip():
    # row i of the inverse solves c @ a = e_i
    rng = random.Random(13)
    for _ in range(25):
        n = rng.randint(1, 4)
        a = rand_matrix(rng, n, n)
        inv = [linalg.solve(a, [int(i == j) for j in range(n)]) for i in range(n)]
        if linalg.int_det(a) == 0:
            assert None in inv
            assert oracles.gj_inverse(a) is None
            continue
        prod = mat_mul(a, inv)
        assert prod == [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        assert inv == oracles.gj_inverse(a)


def test_solve_matches_gauss_jordan_oracle():
    rng = random.Random(13)
    kinds = {"independent": 0, "dependent": 0, "inconsistent": 0}
    for trial in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 5)
        rows = rand_matrix(rng, m, n)
        if trial % 3 == 1 and m > 1:
            # a row that is a combination of the others
            c = [rng.randint(-2, 2) for _ in range(m - 1)]
            rows[-1] = linalg.vec_mat(c, rows[:-1])
        if trial % 3 == 2:
            target = rand_matrix(rng, 1, n)[0]
        else:
            target = linalg.vec_mat([rng.randint(-3, 3) for _ in range(m)], rows)
        got = linalg.solve(rows, target)
        want = oracles.gj_solve(rows, target)
        if want is None:
            kinds["inconsistent"] += 1
            assert got is None
            continue
        assert got is not None
        assert linalg.vec_mat(got, rows) == target
        if len(oracles.gauss_jordan(rows, n)[1]) == m:
            kinds["independent"] += 1
            assert got == want
        else:
            kinds["dependent"] += 1
    assert min(kinds.values()) >= 10, kinds


def lat(den, rows):
    """The subgroup of Q^n spanned by the integer rows over den."""
    return RatLattice(den, linalg.hnf(rows), len(rows[0]))


def test_ratlattice_index_and_normalization():
    # Z^2 against (1/2)Z x 3Z, each as (den, rows)
    half = (2, [[1, 0], [0, 6]])
    whole = (1, [[1, 0], [0, 1]])
    assert not lat(*half).contains(*whole)  # Z^2 not inside the other
    assert lat(*whole).sum_index(*half) == 2  # over its part Z x 3Z in Z^2
    assert lat(*half).sum_index(*whole) == 3  # Z^2 over Z x 3Z
    sub = (2, [[1, 0], [0, 1]])
    assert lat(*whole).sum_index(*sub) == 4  # [(1/2)Z^2 : Z^2]
    assert lat(*sub).sum_index(*whole) == 1  # Z^2 lies inside (1/2)Z^2
    assert lat(*sub).contains(*whole) and not lat(*whole).contains(*sub)
    # equal subgroups built from different generators are equal
    a = lat(2, [[1, 0], [1, 2]])
    b = lat(2, [[1, 2], [0, 2], [3, 2]])
    assert equal(a, b)
    # and so are the same subgroup over different denominators
    assert equal(lat(4, [[2, 0], [2, 4]]), a)


def test_ratlattice_sum_index():
    # a = (1/2)Z x Z, b = (1/3)Z x Z, a cap b = Z^2, each as (den, rows)
    a = (2, [[1, 0], [0, 2]])
    b = (3, [[1, 0], [0, 3]])
    cap = (1, [[1, 0], [0, 1]])
    assert lat(*a).contains(*cap) and lat(*b).contains(*cap)
    assert not lat(*cap).contains(*a)
    assert lat(*b).sum_index(*a) == 2 == lat(*cap).sum_index(*a)
    assert lat(*a).sum_index(*b) == 3 == lat(*cap).sum_index(*b)
    # the sum, over the common denominator 6
    total = lat(6, [[3, 0], [0, 6], [2, 0], [0, 6]])
    assert equal(total, lat(6, [[1, 0], [0, 6]]))
    assert total.contains(*a) and total.contains(*b)
    assert lat(*a).contains(2, [[5, 14]])  # (5/2, 7)
    assert not lat(*a).contains(3, [[1, 0]])  # (1/3, 0)


def test_extend_matches_hnf_from_scratch():
    # rows inserted batch by batch into the kept triangle, over growing
    # denominators and modulo the determinant once it has full rank,
    # give the canonical form of all rows at once
    rng = random.Random(53)
    full = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        grown = RatLattice(1, (), n)
        den, rows = 1, []
        for _ in range(rng.randint(1, 5)):
            d = rng.randint(1, 12)
            batch = rand_matrix(rng, rng.randint(1, 3), n, -20, 20)
            grown = grown.extend(d, batch)
            new = den * d // gcd(den, d)
            rows = ([[x * (new // den) for x in r] for r in rows]
                    + [[x * (new // d) for x in r] for r in batch])
            den = new
            assert oracles.same_span(kept(grown), (den, rows))
        full += None not in grown.tri
    assert full >= 40


def test_sum_index_matches_stacked_hnf():
    # A's rows inserted into B's triangle modulo its determinant give
    # the index of the from-scratch route: over the common denominator,
    # B's pivot product over that of the HNF of A and B stacked
    rng = random.Random(61)
    for _ in range(80):
        n = rng.randint(1, 4)
        da, db = rng.randint(1, 30), rng.randint(1, 30)
        a = rand_matrix(rng, rng.randint(1, n + 1), n, -40, 40)
        b = rand_matrix(rng, n, n, -40, 40)
        if linalg.int_det(b) == 0 or not any(map(any, a)):
            continue
        d = da * db // gcd(da, db)
        sa = [[x * (d // da) for x in r] for r in a]
        sb = [[x * (d // db) for x in r] for r in b]
        want = (pivot_product(linalg.hnf(sb))
                // pivot_product(linalg.hnf(sa + sb)))
        assert lat(db, b).sum_index(da, a) == want


def test_ratlattice_rank_deficient():
    a = (1, [[1, 1]])
    full = (1, [[1, 0], [0, 1]])
    assert lat(*a).sum_index(*full) is None  # [Z^2 : Z(1, 1)] is infinite
    assert lat(*full).sum_index(*a) == 1


def test_kept_triangles_match_stacked_hnf():
    # stage sequences as power spans grow them, a few rows per stage over
    # denominators != 1, below full rank first and then on the mod-D
    # path: after each stage, sum_index and contains of a probe (den,
    # rows) and the span of its triangle give the answers of the HNF of
    # all rows stacked over one denominator
    def canonical(den, rows):
        H = linalg.hnf(rows)
        g = gcd(den, *(x for r in H for x in r))
        return den // g, [[x // g for x in r] for r in H]

    def over(d, den, rows):
        return [[x * (d // den) for x in r] for r in rows]

    rng = random.Random(71)
    seen = {"below": 0, "modular": 0, "inside": 0, "outside": 0,
            "equal": 0, "unequal": 0}
    for _ in range(40):
        n = rng.randint(1, 4)
        grown, den, rows = RatLattice(1, (), n), 1, []
        for _ in range(n + 3):
            seen["modular" if grown.D else "below"] += 1
            d = rng.randint(2, 40)
            batch = rand_matrix(rng, rng.randint(1, 2), n, -60, 60)
            grown = grown.extend(d, batch)
            new = lcm(den, d)
            rows, den = over(new, den, rows) + over(new, d, batch), new
            full = len(linalg.hnf(rows)) == n
            assert (grown.D != 0) == full

            # a probe over a multiple of den, inside the lattice unless
            # its first row is moved by small random offsets
            k = rng.randint(1, 5)
            probe = [[k * x for x in linalg.vec_mat(
                [rng.randint(-4, 4) for _ in rows], rows)]
                for _ in range(rng.randint(1, n))]
            if rng.random() < 0.5:
                probe[0] = [x + rng.randint(-3, 3) for x in probe[0]]
            pd = den * k
            stacked = over(pd, den, rows)
            H = linalg.hnf(stacked)
            inside = all(linalg.in_lattice(H, r) for r in probe)
            seen["inside" if inside else "outside"] += 1
            assert grown.contains(pd, probe) == inside
            want = (pivot_product(H) // pivot_product(linalg.hnf(
                stacked + probe)) if full else None)
            assert grown.sum_index(pd, probe) == want

            # the span with the probe added, from other generators over
            # twice the probe's denominator: the same span when it is inside
            other = (2 * pd, over(2 * pd, den, rows[::-1])
                     + over(2 * pd, pd, probe))
            same = canonical(den, rows) == canonical(*other)
            seen["equal" if same else "unequal"] += 1
            assert oracles.same_span(kept(grown), other) == same
            assert oracles.same_span(kept(grown), (den, rows))
    assert min(seen.values()) >= 20, seen
