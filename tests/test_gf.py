import hashlib
import time

import numpy as np
import pytest

from mdscosets import InvariantError
from mdscosets.gf import GF, check_field_order, default_irreducible, field_of_order
import sieve
from oracle import Field, field_of


SMALL_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
LARGE_ORDERS = tuple(q for q in sieve.prime_powers(256) if q >= 17)


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


def test_a_field_prints_its_order_and_modulus():
    assert repr(field_of_order(7)) == "GF(7)"
    assert repr(field_of_order(8)) == "GF(8=2^3, poly=(1, 1, 0, 1))"


def test_constructor_rejections():
    with pytest.raises(ValueError):
        GF(6)                      # not a prime power
    with pytest.raises(ValueError):
        field_of_order(12)         # not a prime power
    with pytest.raises(ValueError):
        GF(2**17)                  # over the order bound


HUGE = 10**18 + 3


@pytest.mark.parametrize("q, text", [
    (0, "0 is not a prime power"),
    (1, "1 is not a prime power"),
    (6, "6 is not a prime power"),
    (12, "12 is not a prime power"),
    (10000, "10000 is not a prime power"),
    (65537, "field order 65537 exceeds the configured maximum 65536"),
    (2**17, "field order 131072 exceeds the configured maximum 65536"),
    (HUGE, f"field order {HUGE} exceeds the configured maximum 65536"),
])
def test_one_check_refuses_every_field_order(q, text):
    # the constructor, the shared field and the bare check refuse q with
    # one text; a q over the maximum is not factorized, which at 10^18+3
    # would take about 10^9 trial divisions
    for refuse in (GF, field_of_order, check_field_order):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            refuse(q)
        assert str(info.value) == text, refuse
        assert time.perf_counter() - start < 0.1, refuse


def test_check_field_order_returns_the_prime_and_degree():
    assert [check_field_order(q) for q in (2, 9, 11, 128, 65536)] == \
        [(2, 1), (3, 2), (11, 1), (2, 7), (2, 16)]
    f = field_of_order(81)
    assert (f.p, f.m, f.q) == (3, 4, 81)


def test_the_field_recipe_is_pinned():
    # every extension modulus up to 65536 and every generator up to 1024:
    # the labels of every field, and so every census digest, rest on them
    orders = sieve.orders(1 << 16)
    assert len(orders) == 6542 + 93 and all(check_field_order(q) == (p, m) for q, p, m in orders)
    moduli = "".join(f"{p} {m} {default_irreducible(p, m)}\n" for _, p, m in orders if m >= 2)
    generators = "".join(f"{q} {field_of_order(q).generator}\n"
                         for q, _, _ in orders if q <= 1024)
    assert hashlib.sha256(moduli.encode()).hexdigest() == \
        "99491b3fab38dcfa5e4f983c30d5f59bce1933eb6ade7d46c0e8bc75b93743ec"
    assert hashlib.sha256(generators.encode()).hexdigest() == \
        "caf2261243b5cbf8316935441870db60f4b4b980a4fa48676dfbb1277ec1e725"


def test_element_validation_and_zero_inverse():
    # the library checks labels where they enter, as arrays (LinearCode and
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


@pytest.mark.parametrize("q", sieve.prime_powers(64))
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


class _NoElementOfFullOrder(GF):
    """GF(q) whose products are all 0, so the powers of the least
    candidate, 1, never return to 1 and it is taken as the generator."""

    def _raw_mul(self, a, b):
        return 0


class _NoInverses(GF):
    """GF(q) whose inverse lookup maps every element to 1."""

    def inv_array(self, a):
        return np.ones_like(a)


def test_field_construction_checks_its_own_tables():
    with pytest.raises(InvariantError) as err:
        _NoElementOfFullOrder(5)
    assert str(err.value) == "generator 1 does not have order 4"
    with pytest.raises(InvariantError) as err:
        _NoInverses(9)
    assert str(err.value) == "element 2 of GF(9) lacks an inverse"
