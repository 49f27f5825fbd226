import random

from chebotarev_lab.gfpoly import (
    distinct_degree_factorization,
    factor_degrees,
    gf_degree,
    gf_mul,
    gf_trim,
    squarefree_decomposition,
)


def test_small_quadratic_examples():
    # x^2 + 1 mod 5: two linear factors (roots 2 and 3)
    assert factor_degrees([1, 0, 1], 5) == [(1, 1), (1, 1)]
    # x^2 + 1 mod 3: irreducible quadratic (no roots mod 3)
    assert factor_degrees([1, 0, 1], 3) == [(2, 1)]
    # x^2 + 1 mod 2: (x + 1)^2
    assert factor_degrees([1, 0, 1], 2) == [(1, 2)]
    assert squarefree_decomposition([1, 0, 1], 2) == [([1, 1], 2)]


def test_exhaustive_roots_oracle():
    # factor counts of quadratics against exhaustive root search
    for p in (3, 5, 7, 11, 13):
        for c0 in range(p):
            f = [c0, 1, 1]  # x^2 + x + c0
            roots = [r for r in range(p) if (r * r + r + c0) % p == 0]
            linear = sum(mult for d, mult in factor_degrees(f, p) if d == 1)
            assert linear == len(roots) or (len(roots) == 1 and linear == 2)


def test_factors_multiply_back():
    # squarefree parts to their multiplicities, and the distinct-degree blocks
    # of each part, multiply back to f; a degree-d block has degree d * count
    rng = random.Random(11)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7, 11, 101])
        deg = rng.randint(1, 6)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        f = gf_trim(f, p)
        if len(f) == 1:
            continue
        product = [1]
        for sqf, mult in squarefree_decomposition(f, p):
            blocks = [1]
            for block, d in distinct_degree_factorization(sqf, p):
                assert gf_degree(block) % d == 0
                blocks = gf_mul(blocks, block, p)
            assert blocks == sqf, (f, p)
            for _ in range(mult):
                product = gf_mul(product, sqf, p)
        assert product == f, (f, p)


def test_degree_sum_invariant():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([2, 3, 13, 997])
        deg = rng.randint(1, 8)
        f = [rng.randrange(p) for _ in range(deg)] + [1]
        pairs = factor_degrees(f, p)
        assert sum(d * mult for d, mult in pairs) == len(gf_trim(f, p)) - 1


def test_deterministic_output():
    f = [3, 1, 4, 1, 5, 9, 1]
    assert factor_degrees(f, 101) == factor_degrees(f, 101)
    assert factor_degrees(f, 2) == factor_degrees(f, 2)
