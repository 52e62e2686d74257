import numpy as np
import pytest

from mdscosets.gf import GF, default_irreducible, field_of_order, is_prime
from oracle import Field, field_of

def _prime_powers(lo, hi):
    out = []
    for q in range(lo, hi + 1):
        p = next(p for p in range(2, q + 1) if q % p == 0)
        v = q
        while v % p == 0:
            v //= p
        if v == 1:
            out.append(q)
    return tuple(out)


SMALL_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
LARGE_ORDERS = _prime_powers(17, 256)


def test_prime_field_basics():
    # the library's arrays and the oracle's field agree with arithmetic mod p
    f5, f7 = field_of_order(5), field_of_order(7)
    F5, F7 = field_of(f5), field_of(f7)
    assert f5.mul_array(3, 4) == F5.mul(3, 4) == 2
    assert f5.add_table()[3, 4] == F5.add(3, 4) == 2
    assert f5.inv_array(3) == F5.inv(3) == 2
    assert f7.inv_array(3) == F7.inv(3) == 5  # 3*5 = 15 = 1 mod 7


def test_gf4_default_modulus_and_products():
    f4 = field_of_order(4)
    F4 = field_of(f4)
    assert f4.poly == (1, 1, 1)  # x^2 + x + 1
    # x * x = x + 1 in the packed labels: 2 * 2 = 3
    assert f4.mul_array(2, 2) == F4.mul(2, 2) == 3
    assert f4.add_table()[2, 3] == F4.add(2, 3) == 1
    units = np.arange(1, 4)
    assert (f4.mul_array(units, f4.inv_array(units)) == 1).all()
    assert [F4.mul(a, F4.inv(a)) for a in range(1, 4)] == [1, 1, 1]


def test_default_moduli_are_pinned():
    assert default_irreducible(2, 3) == (1, 1, 0, 1)   # x^3 + x + 1
    assert default_irreducible(3, 2) == (1, 0, 1)      # x^2 + 1
    assert default_irreducible(2, 4) == (1, 1, 0, 0, 1)


def test_constructor_rejections():
    with pytest.raises(ValueError):
        GF(4, 1)                   # 4 is not prime
    with pytest.raises(ValueError):
        field_of_order(12)         # not a prime power
    with pytest.raises(ValueError):
        GF(2, 17)                  # 2^17 over the order bound


def test_element_validation_and_zero_inverse():
    # the library checks labels where they enter, as arrays (Matrix and
    # Arc), and its array inverse maps zero to zero
    f5 = field_of_order(5)
    assert f5.inv_array(0) == 0
    F5 = field_of(f5)
    with pytest.raises(KeyError):
        F5.add(3, 7)
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
    assert F5.power(0, 0) == 1 and F5.power(0, 5) == 0


def test_oracle_field_refuses_a_reducible_modulus():
    # x^2 + 1 = (x + 1)^2 over GF(2): x + 1 has no inverse
    with pytest.raises(ValueError, match="no field"):
        Field(2, 2, (1, 0, 1))


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    # the oracle's own field, which the library's tables are checked against
    f = field_of(field_of_order(q))
    elems = list(range(f.q))
    for a in elems:
        assert f.add(a, 0) == a and f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    if q <= 16:
        for a in elems:
            for b in elems:
                assert f.add(a, b) == f.add(b, a)
                assert f.mul(a, b) == f.mul(b, a)
                for c in elems:
                    assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
                    assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
                    assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


@pytest.mark.parametrize("q", _prime_powers(2, 64))
def test_array_ops_match_scalar_ops_and_field_axioms(q):
    # every pair and triple, zero included, under the pinned default
    # modulus; the scalar ops are the oracle's own field, which shares no
    # table with the library
    f = field_of_order(q)
    F = field_of(f)
    a = np.arange(q)
    add = f.add_table().astype(np.int64)
    mul = f.mul_array(a[:, None], a[None, :])
    inv = f.inv_array(a)
    assert mul.dtype.kind == add.dtype.kind == inv.dtype.kind == "i"
    assert add.tolist() == [[F.add(x, y) for y in range(q)] for x in range(q)]
    assert mul.tolist() == [[F.mul(x, y) for y in range(q)] for x in range(q)]
    assert inv.tolist() == [0] + [F.inv(x) for x in range(1, q)]
    assert np.array_equal(add, add.T) and np.array_equal(mul, mul.T)
    assert np.array_equal(add[add], add[a[:, None, None], add])  # (a+b)+c = a+(b+c)
    assert np.array_equal(mul[mul], mul[a[:, None, None], mul])
    assert np.array_equal(mul[a[:, None, None], add], add[mul[:, :, None], mul[:, None, :]])
    assert np.array_equal(mul[a, inv][1:], np.ones(q - 1, dtype=np.int64))
    assert (mul[0] == 0).all() and (add[0] == a).all() and (mul[1] == a).all()


@pytest.mark.parametrize("q", LARGE_ORDERS)
def test_field_axioms_sampled(q):
    # 10^5 random triples per field, through the same tables the library uses
    f = field_of_order(q)
    add_t = f.add_table().astype(np.int64)
    mul = f.mul_array
    rng = np.random.default_rng(q)
    a, b, c = rng.integers(0, q, size=(3, 100_000))
    assert np.array_equal(add_t[add_t[a, b], c], add_t[a, add_t[b, c]])
    assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert np.array_equal(mul(a, add_t[b, c]), add_t[mul(a, b), mul(a, c)])


@pytest.mark.parametrize("q", SMALL_ORDERS + (27, 32, 49))
def test_generator_has_exact_order(q):
    f = field_of_order(q)
    F = field_of(f)
    seen = set()
    x = 1
    for _ in range(q - 1):
        seen.add(x)
        x = F.mul(x, f.generator)
    assert x == 1
    assert seen == set(range(1, f.q))


def test_is_prime():
    assert [n for n in range(2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1) and not is_prime(0)
