"""Checks of the table algebra: construction, products, brute force."""
import tracemalloc

import pytest

from starinv.algebra import (
    AlgebraConstructionError,
    AlgebraParseError,
    ExhaustiveEngine,
    StructureConstantAlgebra,
    TooLargeError,
    brute_force_drazin,
    brute_force_mp,
    enumerate_projections,
    example26_algebra,
    format_algebra,
    parse_algebra,
)
from starinv.ring import CachingEngine, is_projection, verify_drazin, verify_mp


@pytest.fixture(scope="module")
def alg():
    return example26_algebra()


def el(alg, *names):
    return alg.element_from_labels(*names)


def test_generator_products(alg):
    x, y = el(alg, "X"), el(alg, "Y")
    assert x * y == el(alg, "XY")
    assert y * x == el(alg, "YX")
    assert x * x == x
    assert y * y == y
    assert (x * y * x).bits == 0  # the defining relation
    assert y * el(alg, "XY") == el(alg, "YXY")
    assert y * x * y == el(alg, "YXY")
    assert el(alg, "YX") * el(alg, "XY") == el(alg, "YXY")
    assert (el(alg, "XY") * el(alg, "YX")).bits == 0
    assert (el(alg, "YXY") * el(alg, "YXY")).bits == 0


def test_involution_on_basis(alg):
    assert el(alg, "XY").star() == el(alg, "YX")
    assert el(alg, "YX").star() == el(alg, "XY")
    assert el(alg, "YXY").star() == el(alg, "YXY")
    assert el(alg, "1").star() == el(alg, "1")
    for e in alg.elements():
        assert e.star().star() == e


def test_involution_anti_multiplicative_everywhere(alg):
    elements = list(alg.elements())
    for u in elements[:16]:
        for v in elements[:16]:
            assert (u * v).star() == v.star() * u.star()


def test_char_two_addition(alg):
    x = el(alg, "X")
    assert (x + x).bits == 0
    assert -x == x
    assert x - x == x + x


def test_construction_rejects_broken_involution():
    good = example26_algebra()
    star = list(good._star)
    # swap only one side of the XY <-> YX exchange: no longer order two
    star[3] = star[3]  # XY -> YX stays
    star[4] = 1 << 4  # YX -> YX breaks it
    with pytest.raises(AlgebraConstructionError):
        StructureConstantAlgebra(good.labels, [list(r) for r in good._mul], star, 1)


def test_construction_rejects_broken_associativity():
    good = example26_algebra()
    mul = [list(r) for r in good._mul]
    mul[3][3] = 1 << 3  # XY * XY = XY breaks (XY XY) XY vs XY (XY XY)? keep: breaks vs relation
    with pytest.raises(AlgebraConstructionError):
        StructureConstantAlgebra(good.labels, mul, list(good._star), 1)


def test_brute_force_mp_examples(alg):
    zero = alg.zero_element()
    assert brute_force_mp(alg, zero) == zero
    x = el(alg, "X")
    assert brute_force_mp(alg, x) == x
    assert brute_force_mp(alg, el(alg, "XY")) is None


def test_brute_force_mp_witnesses_verify(alg):
    for a in alg.elements():
        witness = brute_force_mp(alg, a)
        if witness is not None:
            assert verify_mp(a, witness).all


def test_brute_force_mp_unique(alg):
    for a in alg.elements():
        witnesses = [b for b in alg.elements() if verify_mp(a, b).all]
        assert len(witnesses) <= 1
        found = brute_force_mp(alg, a)
        assert (found is None) == (not witnesses)
        if witnesses:
            assert found == witnesses[0]


def test_brute_force_drazin_examples(alg):
    one = alg.one_element()
    assert brute_force_drazin(alg, one) == (one, 0)
    xy = el(alg, "XY")
    assert (xy * xy).bits == 0
    assert brute_force_drazin(alg, xy) == (alg.zero_element(), 2)
    x = el(alg, "X")
    assert brute_force_drazin(alg, x) == (x, 1)


def test_brute_force_drazin_witnesses_verify(alg):
    for a in alg.elements():
        result = brute_force_drazin(alg, a)
        assert result is not None  # finite rings are strongly pi-regular
        witness, k = result
        assert verify_drazin(a, witness, k).valid
        if k > 0:
            assert not verify_drazin(a, witness, k - 1).index_eq


def test_enumerate_projections(alg):
    projections = enumerate_projections(alg)
    assert alg.zero_element() in projections
    assert alg.one_element() in projections
    assert el(alg, "X") in projections
    assert el(alg, "1", "Y") in projections
    assert all(is_projection(e) for e in projections)
    coefficient_tuples = [e.coefficients() for e in projections]
    assert coefficient_tuples == sorted(coefficient_tuples)


def test_not_star_reducing(alg):
    witness = alg.non_star_reducing_witness()
    assert witness is not None
    assert witness.bits != 0
    assert (witness.star() * witness).bits == 0
    assert not alg.is_star_reducing


def test_exhaustive_engine(alg):
    engine = ExhaustiveEngine(alg)
    assert not engine.star_reducing
    xy = el(alg, "XY")
    assert engine.mp(xy) is None
    assert engine.mp(xy) is None  # every call scans again
    witness, k = engine.drazin(xy)
    assert witness == alg.zero_element() and k == 2
    assert engine.serialize(el(alg, "1", "X")) == "1 + X"


def test_format_element(alg):
    assert alg.format_element(alg.zero_element()) == "0"
    assert alg.format_element(el(alg, "1", "X", "YXY")) == "1 + X + YXY"


def product_algebra(dim):
    # e_i e_j = delta_ij e_i, star = id, one = sum of all basis elements
    mul = [[(1 << i) if i == j else 0 for j in range(dim)] for i in range(dim)]
    star = [1 << i for i in range(dim)]
    one = (1 << dim) - 1
    return StructureConstantAlgebra(tuple(f"e{i}" for i in range(dim)), mul, star, one)


def test_brute_force_dim_cap():
    big = product_algebra(17)  # valid, but over the scan cap
    with pytest.raises(TooLargeError):
        brute_force_mp(big, big.one_element())
    with pytest.raises(TooLargeError):
        brute_force_drazin(big, big.one_element())


def test_algebra_scans_dim_cap(monkeypatch):
    big = product_algebra(17)

    def no_scan(self):
        raise AssertionError("scanned elements past the cap")

    monkeypatch.setattr(StructureConstantAlgebra, "elements", no_scan)
    scans = {
        "non_star_reducing_witness": big.non_star_reducing_witness,
        "is_star_reducing": lambda: big.is_star_reducing,
        "ExhaustiveEngine": lambda: ExhaustiveEngine(big).star_reducing,
        "CachingEngine": lambda: CachingEngine(ExhaustiveEngine(big)).star_reducing,
        "enumerate_projections": lambda: enumerate_projections(big),
    }
    for name, scan in scans.items():
        with pytest.raises(TooLargeError):
            scan()


def test_generic_algebra_brute_force():
    # dim-2 product algebra GF(2) x GF(2): every element is its own MP
    # inverse except the two idempotent factors, which are too.
    mul = [[1, 0], [0, 2]]
    star = [1, 2]
    small = StructureConstantAlgebra(("u", "v"), mul, star, 3)
    assert small.is_star_reducing
    for a in small.elements():
        witness = brute_force_mp(small, a)
        assert witness == a  # boolean ring: a is its own MP inverse


def test_algebra_description_round_trip(alg):
    text = format_algebra(alg)
    parsed = parse_algebra(text, name="rebuilt")
    assert parsed.dim == alg.dim
    for u in range(alg.size):
        for v in range(alg.size):
            assert parsed.mul_bits(u, v) == alg.mul_bits(u, v)
    for u in range(alg.size):
        assert parsed.star_bits(u) == alg.star_bits(u)
    assert parsed.one_element().bits == alg.one_element().bits


@pytest.mark.parametrize(
    "text",
    [
        "",
        "algebra x over GF(2)\n",
        "algebra 1 over GF(3)\none = 1\nmul 0 0 = 1\nstar 0 = 1\n",
        "algebra 1 over GF(2)\nmul 0 0 = 1\nstar 0 = 1\n",  # missing one
        "algebra 1 over GF(2)\none = 1\nstar 0 = 1\n",  # missing mul
        "algebra 1 over GF(2)\none = 1\nmul 0 0 = 1\n",  # missing star
        "algebra 1 over GF(2)\none = 1\nmul 0 0 = 11\nstar 0 = 1\n",  # bad bitvector
        "algebra 1 over GF(2)\none = 1\nmul 0 1 = 1\nstar 0 = 1\n",  # index range
        "algebra 1 over GF(2)\none = 1\nmul 0 0 = 1\nmul 0 0 = 1\nstar 0 = 1\n",
    ],
)
def test_parse_algebra_rejects_malformed(text):
    with pytest.raises(AlgebraParseError):
        parse_algebra(text)


def test_parse_algebra_line_diagnostics():
    with pytest.raises(AlgebraParseError) as info:
        parse_algebra("algebra 1 over GF(2)\none = 1\nmul 0 0 = 2\nstar 0 = 1\n")
    assert info.value.line == 3


def test_parse_algebra_sizes_nothing_by_the_header():
    # the header's dimension has no bound, so only lines read may allocate
    tracemalloc.start()
    try:
        with pytest.raises(AlgebraParseError) as info:
            parse_algebra("algebra 2000 over GF(2)\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == "missing mul entries, first is (0, 0)"
    assert peak < 1 << 20
    with pytest.raises(AlgebraParseError) as info:
        parse_algebra("algebra 2 over GF(2)\nmul 1 1 = 01\nmul 0 0 = 10\n")
    assert str(info.value) == "missing mul entries, first is (0, 1)"
