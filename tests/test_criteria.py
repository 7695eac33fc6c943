import itertools
import json
import math
from fractions import Fraction

import pytest

from hmfcert import criteria, nfield
from hmfcert.criteria import (
    CertificationInputs,
    MixedSignature,
    QuadExtDescription,
    certify,
    dihedral_noncm_excluded,
    irr_excluded_primes,
)
from hmfcert.nfield import (
    ZERO,
    DyadicInterval,
    Indeterminate,
    embed,
    fundamental_unit_quadratic,
    make_field,
    norm,
    totally_positive_fundamental,
)
from hmfcert.primes import factor
from hmfcert.weights import make_weight, subset_label


def irr_fast_path_quadratic(inputs: CertificationInputs):
    """Closed form for d = 2: primes dividing Nm((e^m1 - 1)(e^(k0-m1-1) - 1)).

    Returns the primes of every unit, an oracle for the generic engine;
    requires a non-parallel weight.
    """
    w = inputs.weight
    if w.d != 2 or w.is_parallel:
        raise ValueError("fast path requires d = 2 and non-parallel weight")
    m1 = max(w.m)
    agg: set[int] = set()
    one = inputs.field.one
    for eps in inputs.units:
        val = norm((eps**m1 - one) * (eps ** (w.k0 - m1 - 1) - one))
        assert val.denominator == 1
        if val != 0:
            agg.update(factor(int(val)))
    return tuple(sorted(agg))


def irr_fast_path_cubic(inputs: CertificationInputs):
    """Four-factor closed form for a cyclic cubic field, certified by intervals.

    Its escalation loop is written out here, apart from the library's, so
    that the oracle shares no certification code with the engine.
    """
    w = inputs.weight
    fld = inputs.field
    if w.d != 3 or fld.galois is None or len(fld.galois) != 3:
        raise ValueError("fast path requires a cyclic cubic field")
    cap = inputs.precision_cap
    msorted = sorted(w.m)
    if msorted[0] != 0 or msorted[2] == 0:
        raise ValueError("weight must be non-parallel with m = (0, m1, m2)")
    m1, m2 = msorted[1], msorted[2]
    k0 = w.k0
    cyc = next(g for g in fld.galois if g != (0, 1, 2))
    exponent_pairs = ((m1, -m2), (m1, m2 + 1 - k0),
                      (m1 + 1 - k0, m2), (k0 - m1 - 1, m2 + 1 - k0))
    agg: set[int] = set()
    for eps in inputs.units:
        bits = 64
        value = None
        while bits <= cap:
            try:
                embs = [embed(eps, j, bits) for j in range(3)]
                total = DyadicInterval(Fraction(1), Fraction(1))
                for j in range(3):
                    tau_j = cyc[j]
                    for ea, eb in exponent_pairs:
                        f = embs[tau_j].power(ea, bits) - embs[j].power(eb, bits)
                        total = (total * f).round(bits)
            except ZeroDivisionError:
                bits *= 2
                continue
            if total.width < Fraction(1, 2) and not total.straddles_zero():
                lo = math.ceil(total.lo)
                if lo <= total.hi:
                    value = lo
                    break
            bits *= 2
        if value is None:
            raise Indeterminate(cap)
        agg.update(factor(value))
    return tuple(sorted(agg))


def wreath_product_oracle(kd: QuadExtDescription, pair, w, bits):
    """Interval around the dihedral product, one factor per (signs, g).

    The loop that evaluated _wreath_product_value before it ran on the
    shared symmetrized kernel: every sign assignment and group element is
    multiplied out, and up * dn is rounded once per embedding.
    """
    fld = kd.delta.field
    d = fld.degree
    a, b = pair
    group = nfield._symmetrization_group(fld)
    exponents = set(w.m) | {w.k0 - m - 1 for m in w.m}
    emb_a = [embed(a, j, bits) for j in range(d)]
    emb_b = [embed(b, j, bits) for j in range(d)]
    emb_sd = [embed(kd.delta, j, bits).sqrt(bits) for j in range(d)]
    emb = {}
    for j in range(d):
        root = (emb_b[j] * emb_sd[j]).round(bits)
        emb[(j, 1)] = emb_a[j] + root
        emb[(j, -1)] = emb_a[j] - root
    powers = {(j, s, x): emb[(j, s)].power(x, bits) for (j, s) in emb for x in exponents}
    one = DyadicInterval(1, 1)
    total = one
    for signs in itertools.product((1, -1), repeat=d):
        for g in group:
            f = one
            for t in range(d):
                up = powers[(g[t], signs[t], w.m[t])]
                dn = powers[(g[t], -signs[t], w.k0 - w.m[t] - 1)]
                f = (f * up * dn).round(bits)
            total = (total * (f - one)).round(bits)
    return total


def _k_norm_exact_base_q(kd: QuadExtDescription, unit_pair, w):
    """Exact value, ZERO or an int, for d = 1: the criterion element lives in K."""
    fld = kd.delta.field
    delta = kd.delta
    a, b = unit_pair

    def kmul(x, y):
        return (x[0] * y[0] + x[1] * y[1] * delta, x[0] * y[1] + x[1] * y[0])

    def kpow(x, e):
        out = (fld.one, fld.zero)
        for _ in range(e):
            out = kmul(out, x)
        return out

    eps = (a, b)
    ceps = (a, -b)
    m0 = w.m[0]
    x = kmul(kpow(eps, m0), kpow(ceps, w.k0 - m0 - 1))
    x = (x[0] - fld.one, x[1])
    val = norm(x[0] * x[0] - delta * x[1] * x[1])  # norm from K to F, then to Q
    assert val.denominator == 1
    return ZERO if val == 0 else int(val)


@pytest.fixture(scope="module")
def q5():
    return make_field([-5, 0, 1])


@pytest.fixture(scope="module")
def eps0(q5):
    return q5.element([Fraction(3, 2), Fraction(1, 2)])


@pytest.fixture(scope="module")
def flagship(q5, eps0):
    return CertificationInputs(field=q5, weight=make_weight([4, 2]),
                               delta=20, units=(eps0,))


@pytest.fixture(scope="module")
def rational_field():
    return make_field([0, 1])


class TestInputValidation:
    def test_rejects_non_unit(self, q5):
        with pytest.raises(ValueError):
            CertificationInputs(field=q5, weight=make_weight([4, 2]), delta=1,
                                units=(q5.gen,))

    def test_rejects_non_totally_positive_unit(self, q5):
        u = fundamental_unit_quadratic(5)  # norm -1, mixed signs
        with pytest.raises(ValueError):
            CertificationInputs(field=q5, weight=make_weight([4, 2]), delta=1,
                                units=(u,))

    def test_rejects_degree_mismatch(self, q5):
        with pytest.raises(ValueError):
            CertificationInputs(field=q5, weight=make_weight([4]), delta=1,
                                units=())

    def test_rejects_mixed_signature_delta(self, q5, eps0):
        with pytest.raises(MixedSignature):
            CertificationInputs(
                field=q5, weight=make_weight([4, 2]), delta=1, units=(eps0,),
                quadratic_extensions=(
                    QuadExtDescription(delta=q5.gen, units=()),
                ),
            )


class TestIrrCriterion:
    def test_flagship_per_subset(self, flagship):
        rep = irr_excluded_primes(flagship)
        values = {subset_label(mask): st.value for mask, st in rep.per_subset}
        assert values == {"{}": -1, "{0}": -5, "{1}": -5, "{0,1}": -1}
        assert rep.aggregate == (5,)

    def test_primes_divide_values(self, flagship):
        rep = irr_excluded_primes(flagship)
        for _, st in rep.per_subset:
            if st.kind == "excludes":
                for p in st.primes:
                    assert st.value % p == 0

    def test_empty_units_degenerate(self, q5):
        inputs = CertificationInputs(field=q5, weight=make_weight([4, 2]),
                                     delta=1, units=())
        rep = irr_excluded_primes(inputs)
        assert all(st.kind == "degenerate" for _, st in rep.per_subset)
        assert rep.aggregate == ()

    def test_parallel_weight_partial(self, q5, eps0):
        inputs = CertificationInputs(field=q5, weight=make_weight([2, 2]),
                                     delta=1, units=(eps0,))
        rep = irr_excluded_primes(inputs)
        masks = [mask for mask, _ in rep.per_subset]
        assert masks == [1, 2]  # proper nonempty subsets only
        assert any("parallel" in n for n in rep.notes)

    def test_fallback_to_second_unit(self, q5, eps0):
        # first unit 1 is degenerate everywhere; engine must use the second
        one = q5.one
        inputs = CertificationInputs(field=q5, weight=make_weight([4, 2]),
                                     delta=1, units=(one, eps0))
        rep = irr_excluded_primes(inputs)
        assert rep.aggregate == (5,)
        assert all(st.unit_index == 1 for _, st in rep.per_subset
                   if st.kind == "excludes")


class TestFastPaths:
    def test_quadratic_matches_generic(self):
        for d_sq in (2, 3, 5, 13):
            f = make_field([-d_sq, 0, 1])
            eps = totally_positive_fundamental(fundamental_unit_quadratic(d_sq))
            for k0 in range(4, 9):
                for k1 in range(2, k0):
                    if (k0 - k1) % 2:
                        continue
                    w = make_weight([k0, k1])
                    inputs = CertificationInputs(field=f, weight=w, delta=1,
                                                 units=(eps,))
                    generic = set(irr_excluded_primes(inputs).aggregate)
                    fast = set(irr_fast_path_quadratic(inputs))
                    assert generic == fast, (d_sq, k0, k1)

    def test_cubic_matches_generic_small_weights(self):
        f = make_field([-1, -3, 0, 1])
        eps = f.gen * f.gen
        for kvec in [(4, 2, 2), (4, 4, 2), (5, 3, 3), (5, 5, 3), (4, 2, 4)]:
            w = make_weight(kvec)
            inputs = CertificationInputs(field=f, weight=w, delta=1,
                                         units=(eps,))
            generic = set(irr_excluded_primes(inputs).aggregate)
            fast = set(irr_fast_path_cubic(inputs))
            assert generic == fast, kvec

    def test_cubic_requires_cyclic(self, q5, eps0):
        inputs = CertificationInputs(field=q5, weight=make_weight([4, 2]),
                                     delta=1, units=(eps0,))
        with pytest.raises(ValueError):
            irr_fast_path_cubic(inputs)


class TestDihedral:
    def test_fundamental_unit_of_qsqrt2(self, rational_field):
        f = rational_field
        kd = QuadExtDescription(delta=f.element([2]),
                                units=((f.element([1]), f.element([1])),),
                                label="Qsqrt2")
        inputs = CertificationInputs(field=f, weight=make_weight([2]), delta=8,
                                     units=(f.one,), quadratic_extensions=(kd,))
        rep = dihedral_noncm_excluded(inputs, 0)
        assert all(st.value == -2 for _, st in rep.per_subset)
        assert rep.aggregate == (2,)

    def test_unit_square(self, rational_field):
        f = rational_field
        kd = QuadExtDescription(delta=f.element([2]),
                                units=((f.element([3]), f.element([2])),),
                                label="K")
        inputs = CertificationInputs(field=f, weight=make_weight([2]), delta=8,
                                     units=(f.one,), quadratic_extensions=(kd,))
        rep = dihedral_noncm_excluded(inputs, 0)
        assert rep.per_subset[0][1].value == -4
        assert rep.aggregate == (2,)

    def test_degenerate_unit_one(self, rational_field):
        f = rational_field
        kd = QuadExtDescription(delta=f.element([2]),
                                units=((f.one, f.zero),), label="K")
        inputs = CertificationInputs(field=f, weight=make_weight([2]), delta=8,
                                     units=(f.one,), quadratic_extensions=(kd,))
        rep = dihedral_noncm_excluded(inputs, 0)
        assert all(st.kind == "degenerate" for _, st in rep.per_subset)

    def test_cm_reported_not_evaluated(self, rational_field):
        f = rational_field
        kd = QuadExtDescription(delta=f.element([-1]), units=(), label="CM")
        inputs = CertificationInputs(field=f, weight=make_weight([2]), delta=8,
                                     units=(), quadratic_extensions=(kd,))
        rep = dihedral_noncm_excluded(inputs, 0)
        assert rep.per_subset[0][1].kind == "indeterminate"
        assert "theta-series" in rep.per_subset[0][1].note

    def test_real_quadratic_base(self, q5, eps0):
        kd = QuadExtDescription(delta=q5.element([3]),
                                units=((q5.element([2]), q5.element([1])),),
                                label="Fsqrt3")
        inputs = CertificationInputs(field=q5, weight=make_weight([4, 2]),
                                     delta=20, units=(eps0,),
                                     quadratic_extensions=(kd,))
        rep = dihedral_noncm_excluded(inputs, 0)
        # hand value: (2304)^2 over 4 sign patterns x 2 group elements
        assert rep.per_subset[0][1].value == 2304 * 2304
        assert rep.aggregate == (2, 3)

    def test_indeterminate_at_low_cap(self, q5, eps0):
        # sqrt(eps0) makes the criterion value exactly zero: it is proven
        # zero at the first level, and never certifies a non-zero value
        kd = QuadExtDescription(delta=eps0, units=((q5.zero, q5.one),),
                                label="degenerate")
        inputs = CertificationInputs(field=q5, weight=make_weight([4, 2]),
                                     delta=20, units=(eps0,),
                                     quadratic_extensions=(kd,),
                                     precision_cap=64)
        rep = dihedral_noncm_excluded(inputs, 0)
        assert all(st.kind == "degenerate" for _, st in rep.per_subset)

    @pytest.mark.parametrize("k, value, primes", [
        ((6, 4, 2), 2687832743450974656340378342003908507835826176, (2, 7, 199, 239)),
        ((4, 2, 2), 1103060965837930140591456256, (2, 7, 41)),
    ])
    def test_non_galois_cubic_values(self, k, value, primes):
        # x^3 - 4x + 1 has no Galois data, so the product runs over
        # 8 sign assignments times S_3 on intervals
        f = make_field([1, -4, 0, 1])
        kd = QuadExtDescription(delta=f.element([2]), units=((f.one, f.one),),
                                label="Fsqrt2")
        inputs = CertificationInputs(field=f, weight=make_weight(list(k)), delta=1,
                                     units=(f.gen * f.gen,), quadratic_extensions=(kd,))
        rep = dihedral_noncm_excluded(inputs, 0)
        assert [mask for mask, _ in rep.per_subset] == list(range(8))
        for _, st in rep.per_subset:
            assert (st.kind, st.value, st.primes, st.unit_index) == \
                ("excludes", value, primes, 0)
        assert rep.aggregate == primes

    def test_non_galois_cubic_indeterminate_below_needed_bits(self):
        f = make_field([1, -4, 0, 1])
        kd = QuadExtDescription(delta=f.element([2]), units=((f.one, f.one),),
                                label="Fsqrt2")
        inputs = CertificationInputs(field=f, weight=make_weight([6, 4, 2]), delta=1,
                                     units=(f.gen * f.gen,), quadratic_extensions=(kd,),
                                     precision_cap=64)
        rep = dihedral_noncm_excluded(inputs, 0)
        for _, st in rep.per_subset:
            assert st.kind == "indeterminate"
            assert st.note == "interval certification hit the precision cap"

    def test_wreath_powers_once_per_round(self, monkeypatch):
        # x^3 - 4x + 1 with K = F(sqrt 2) and k = (6, 4, 2): m = (0, 1, 2)
        # and k0 - m - 1 = (5, 4, 3), so 2 signs x 3 embeddings x 6
        # exponents = 36 distinct powers per precision level
        f = make_field([1, -4, 0, 1])
        kd = QuadExtDescription(delta=f.element([2]), units=((f.one, f.one),),
                                label="Fsqrt2")
        w = make_weight([6, 4, 2])
        calls = {"power": 0, "embed": 0}
        power, embed_ = DyadicInterval.power, criteria.embed

        def counted_power(self, e, bits):
            calls["power"] += 1
            return power(self, e, bits)

        def counted_embed(*args, **kwargs):
            calls["embed"] += 1
            return embed_(*args, **kwargs)

        monkeypatch.setattr(DyadicInterval, "power", counted_power)
        monkeypatch.setattr(criteria, "embed", counted_embed)
        value = criteria._wreath_product_value(kd, (f.one, f.one), w, 2**16)
        assert value == 2687832743450974656340378342003908507835826176
        rounds = calls["embed"] // (3 * 3)  # a, b and delta at each embedding
        exponents = set(w.m) | {w.k0 - m - 1 for m in w.m}
        assert rounds >= 1
        assert calls["power"] <= rounds * 2 * 3 * len(exponents)

    def test_wreath_multiplications_per_level(self, monkeypatch):
        # k = (4, 4, 4): every position carries exponent 0 or 3, so the 48
        # elements of C_2 wr S_3 give 8 labellings with stabilizers of order
        # 6.  8 factors of 7 products, 12 for the cubes, 5 for the 6th power
        # and 3 for b * sqrt(delta) make 76; all 48 factors make 351
        f = make_field([1, -4, 0, 1])
        kd = QuadExtDescription(delta=f.element([2]), units=((f.one, f.one),),
                                label="Fsqrt2")
        calls = {"mul": 0, "embed": 0}
        mul, embed_ = DyadicInterval.__mul__, criteria.embed

        def counted_mul(self, other):
            calls["mul"] += 1
            return mul(self, other)

        def counted_embed(*args, **kwargs):
            calls["embed"] += 1
            return embed_(*args, **kwargs)

        monkeypatch.setattr(DyadicInterval, "__mul__", counted_mul)
        monkeypatch.setattr(criteria, "embed", counted_embed)
        value = criteria._wreath_product_value(kd, (f.one, f.one), make_weight([4, 4, 4]), 2**16)
        assert isinstance(value, int) and value != 0
        rounds = calls["embed"] // (3 * 3)
        assert rounds >= 1
        assert calls["mul"] <= 80 * rounds

    def test_one_factorization_per_report(self, monkeypatch):
        # the 8 assignment masks of a d = 3 report share one status
        f = make_field([1, -4, 0, 1])
        kd = QuadExtDescription(delta=f.element([2]), units=((f.one, f.one),),
                                label="Fsqrt2")
        inputs = CertificationInputs(field=f, weight=make_weight([4, 2, 2]), delta=1,
                                     units=(f.gen * f.gen,), quadratic_extensions=(kd,))
        factored = []
        factor_ = criteria.factor

        def counted_factor(n):
            factored.append(n)
            return factor_(n)

        monkeypatch.setattr(criteria, "factor", counted_factor)
        rep = dihedral_noncm_excluded(inputs, 0)
        assert factored == [1103060965837930140591456256]
        assert rep.aggregate == (2, 7, 41)
        assert len({st for _, st in rep.per_subset}) == 1

    def test_exact_value_once_per_unit_tried(self, rational_field, monkeypatch):
        # d = 1: the first unit gives an exact zero, the second -2
        f = rational_field
        kd = QuadExtDescription(delta=f.element([2]),
                                units=((f.one, f.zero), (f.one, f.one), (f.one, f.one)),
                                label="Qsqrt2")
        inputs = CertificationInputs(field=f, weight=make_weight([2]), delta=8,
                                     units=(f.one,), quadratic_extensions=(kd,))
        tried = []
        value = criteria._wreath_product_value

        def counted_value(kd_, pair, w, cap):
            tried.append(pair)
            return value(kd_, pair, w, cap)

        monkeypatch.setattr(criteria, "_wreath_product_value", counted_value)
        rep = dihedral_noncm_excluded(inputs, 0)
        assert tried == list(kd.units[:2])
        assert [(st.kind, st.value, st.unit_index) for _, st in rep.per_subset] == \
            [("excludes", -2, 1)] * 2


KLEIN_QUARTIC = [1, 0, -4, 0, 1]
KLEIN_GALOIS = [[0, 1, 2, 3], [3, 2, 1, 0], [1, 0, 3, 2], [2, 3, 0, 1]]


def _value_or_indeterminate(run):
    try:
        return run()
    except Indeterminate:
        return Indeterminate


def _value_or_zero(certified):
    return certified if certified is ZERO else certified.value


class TestWreathOracle:
    """_wreath_product_value agrees with the multiplied-out product over C_2 wr G."""

    # (poly, galois, delta, units, k, nonzero): nonzero says whether the
    # first unit's value is non-zero; every first unit is pinned at 1024
    # bits, so the comparison is never vacuous
    CASES = [
        ([1, -4, 0, 1], None, [2], [([1], [1]), ([3], [2])], (6, 4, 2), True),
        ([1, -4, 0, 1], None, [2], [([1], [1]), ([3], [2])], (4, 4, 4), True),
        ([1, -4, 0, 1], None, [2], [([1], [1]), ([3], [2])], (4, 2, 2), True),
        ([1, -4, 0, 1], None, [2], [([1], [1]), ([3], [2])], (2, 2, 2), True),
        ([-5, 0, 1], None, [3], [([2], [1])], (4, 2), True),
        ([-1, -3, 0, 1], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], [2], [([1], [1])], (4, 2, 2), True),
        # 2 + sqrt 5 comes from Q(sqrt 5): some sign assignments give exactly 0
        (KLEIN_QUARTIC, None, [5], [([2], [1])], (2, 2, 2, 2), False),
        (KLEIN_QUARTIC, KLEIN_GALOIS, [5], [([2], [1])], (2, 2, 2, 2), False),
        (KLEIN_QUARTIC, KLEIN_GALOIS, [5], [([-3, -2, 3], [0, 1])], (4, 2, 2, 2), True),
    ]

    @pytest.mark.parametrize("poly, galois, delta, units, k, nonzero", CASES)
    def test_matches_multiplied_out_oracle(self, poly, galois, delta, units, k, nonzero):
        fld = make_field(poly, galois)
        kd = QuadExtDescription(
            delta=fld.element(delta),
            units=tuple((fld.element(a), fld.element(b)) for a, b in units), label="K")
        w = make_weight(list(k))
        outcomes = []
        for pair in kd.units:
            want = _value_or_indeterminate(lambda: _value_or_zero(nfield._certify(
                lambda bits: wreath_product_oracle(kd, pair, w, bits), 1024)))
            got = _value_or_indeterminate(
                lambda: criteria._wreath_product_value(kd, pair, w, 1024))
            assert got == want, pair
            outcomes.append(want)
        assert outcomes[0] is not Indeterminate
        assert (outcomes[0] is not ZERO) == nonzero


class TestExactOracles:
    """The dihedral kernel against the exact routes it replaced."""

    @pytest.mark.parametrize("delta, a, b, k", [
        (2, 1, 1, 2), (2, 3, 2, 4), (3, 2, 1, 3), (5, "1/2", "1/2", 2),
        (5, "1/2", "1/2", 5), (6, 5, 2, 6), (7, 8, 3, 3),
        (2, 1, 0, 2),    # b = 0, a = 1: exactly zero
        (3, -1, 0, 3),   # b = 0, (-1)^2 - 1 = 0
        (3, -1, 0, 4),   # b = 0, (-1)^3 - 1 = -2
    ])
    def test_base_q_matches_exact_value_in_k(self, rational_field, delta, a, b, k):
        f = rational_field
        kd = QuadExtDescription(delta=f.element([delta]),
                                units=((f.element([a]), f.element([b])),), label="K")
        w = make_weight([k])
        want = _k_norm_exact_base_q(kd, kd.units[0], w)
        assert criteria._wreath_product_value(kd, kd.units[0], w, 2**16) == want
        inputs = CertificationInputs(field=f, weight=w, delta=1, units=(f.one,),
                                     quadratic_extensions=(kd,))
        st = dihedral_noncm_excluded(inputs, 0).per_subset[0][1]
        assert (st.kind, st.value) == (("degenerate", None) if want is ZERO
                                       else ("excludes", want))

    @pytest.mark.parametrize("poly, galois, a, k", [
        ([-5, 0, 1], None, ["1/2", "1/2"], (4, 2)),
        ([-5, 0, 1], None, ["3/2", "1/2"], (4, 2)),
        ([-1, -3, 0, 1], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], [0, 1], (4, 2, 2)),
        ([1, -4, 0, 1], None, [0, 1], (5, 3, 3)),
        ([1, -4, 0, 1], None, [0, 1], (4, 2, 2)),
        ([1, -4, 0, 1], None, [0, 0, 1], (4, 2, 2)),
    ])
    def test_unit_of_f_matches_norm_formula(self, poly, galois, a, k):
        # b = 0: every embedding pair collapses to a, so each of the
        # 2^d |G| factors is N(a)^(k0 - 1) - 1
        fld = make_field(poly, galois)
        a = fld.element([Fraction(x) for x in a])
        kd = QuadExtDescription(delta=fld.element([2]), units=((a, fld.zero),), label="K")
        w = make_weight(list(k))
        base = norm(a) ** (w.k0 - 1) - 1
        order = (1 << fld.degree) * len(nfield._symmetrization_group(fld))
        want = ZERO if base == 0 else int(base ** order)
        assert criteria._wreath_product_value(kd, kd.units[0], w, 2**16) == want


class TestProvenZeros:
    """Exact zeros are proven at the first precision level and reported degenerate."""

    def test_quartic_without_galois_data(self):
        # x^4 - 4x^2 + 1 with eps = x^2, which lies in Q(sqrt 3): 6 of the 16
        # S_4 products are exactly 0
        f = make_field(KLEIN_QUARTIC)
        inputs = CertificationInputs(field=f, weight=make_weight([4, 2, 2, 2]), delta=1,
                                     units=(f.gen * f.gen,), precision_cap=64)
        kinds = [st.kind for _, st in irr_excluded_primes(inputs).per_subset]
        assert kinds.count("degenerate") == 6
        assert kinds.count("excludes") == 10

    def test_cubic_dihedral(self):
        # unit x^2 + x^2 sqrt 2: the sign assignment (+, -, -) gives 1 + sqrt 2
        # the exponent -4 + 2 + 2 = 0, so one factor is exactly 1 - 1
        f = make_field([1, -4, 0, 1])
        u = f.gen * f.gen
        kd = QuadExtDescription(delta=f.element([2]), units=((u, u),), label="Fsqrt2")
        inputs = CertificationInputs(field=f, weight=make_weight([5, 3, 3]), delta=1,
                                     units=(), quadratic_extensions=(kd,), precision_cap=64)
        rep = dihedral_noncm_excluded(inputs, 0)
        assert {st.kind for _, st in rep.per_subset} == {"degenerate"}


class TestIntegrality:
    """Units must be algebraic integers; norm +-1 alone is not enough."""

    def test_non_integral_unit_rejected(self):
        # ((9 + 4 sqrt 2) / 7)^2 has norm 1 and is totally positive
        f = make_field([-2, 0, 1])
        u = f.element([Fraction(113, 49), Fraction(72, 49)])
        assert norm(u) == 1
        with pytest.raises(ValueError, match="not an algebraic integer"):
            CertificationInputs(field=f, weight=make_weight([4, 2]), delta=1, units=(u,))

    def test_non_integral_cubic_unit_rejected(self):
        # (x + 3)^3 / 17 in x^3 - 3x + 1: N(x + 3) = 17
        f = make_field([1, -3, 0, 1])
        u = (f.gen + 3) ** 3 * Fraction(1, 17)
        assert norm(u) == 1
        with pytest.raises(ValueError, match="not an algebraic integer"):
            CertificationInputs(field=f, weight=make_weight([6, 4, 2]), delta=1, units=(u,))

    @pytest.mark.parametrize("delta, a, b, ok", [
        (2, "113/49", "72/49", False),  # relative norm 1, 2a not integral
        (2, "3", "2", True),
        (5, "1/2", "1/2", True),        # (1 + sqrt 5) / 2: 2a = 1, a^2 - 5 b^2 = -1
    ])
    def test_k_unit_integrality(self, rational_field, delta, a, b, ok):
        f = rational_field
        kd = QuadExtDescription(delta=f.element([delta]),
                                units=((f.element([a]), f.element([b])),), label="K")
        if ok:
            kd.validate_units()
        else:
            with pytest.raises(ValueError, match="not an algebraic integer"):
                kd.validate_units()


class TestCertify:
    def test_flagship_aggregate(self, flagship):
        rep = certify(flagship)
        assert set(rep.excluded_set) >= {2, 5} | {3, 7} | {5}
        assert rep.excluded_set == (2, 3, 5, 7)
        assert rep.bound == 13
        assert rep.mw_ok
        assert rep.worst_status == "certified"

    def test_parallel_weight_mw_note(self, q5, eps0):
        inputs = CertificationInputs(field=q5, weight=make_weight([2, 2]),
                                     delta=1, units=(eps0,))
        rep = certify(inputs)
        assert not rep.mw_ok
        assert any("(MW) fails" in n for n in rep.notes)

    def test_empty_units_partial(self, q5):
        inputs = CertificationInputs(field=q5, weight=make_weight([4, 2]),
                                     delta=1, units=())
        rep = certify(inputs)
        assert rep.worst_status == "partial"

    def test_unit_congruence_note_present(self, flagship):
        rep = certify(flagship)
        assert any("asserted by the caller" in n for n in rep.notes)

    def test_non_induced_entries(self, q5, eps0):
        inputs = CertificationInputs(field=q5, weight=make_weight([4, 2]),
                                     delta=1, units=(eps0,),
                                     fiber_partitions=(((0, 1),),))
        rep = certify(inputs)
        assert rep.non_induced == (("0,1", True),)

    def test_report_determinism(self, flagship):
        a = certify(flagship).to_json()
        b = certify(flagship).to_json()
        assert a == b

    def test_json_roundtrip_stable(self, flagship):
        rep = certify(flagship)
        payload = json.loads(rep.to_json())
        assert json.dumps(payload, sort_keys=True, indent=2) == rep.to_json()


class TestSharedUnitWork:
    """Every subset product of a certificate shares its unit's norm and embeddings."""

    QUINTIC = [1, 3, -3, -4, 1, 1]
    QUINTIC_GALOIS = [[0, 1, 2, 3, 4], [4, 2, 0, 1, 3], [3, 0, 4, 2, 1],
                      [1, 4, 3, 0, 2], [2, 3, 1, 4, 0]]

    def test_cyclic_quintic_certificate(self, monkeypatch):
        # 32 subsets and two forms make 64 kernel products on one unit; each
        # once called norm, and embed for all five embeddings
        fld = make_field(self.QUINTIC, self.QUINTIC_GALOIS)
        unit = fld.gen * fld.gen
        inputs = CertificationInputs(field=fld, weight=make_weight([4, 2, 2, 2, 2]),
                                     delta=11, units=(unit,))
        embeds, norms = [], []
        embed_, norm_ = nfield.embed, nfield.norm

        def counted_embed(a, idx, bits):
            embeds.append((a.coeffs, idx, bits))
            return embed_(a, idx, bits)

        def counted_norm(a):
            norms.append(a.coeffs)
            return norm_(a)

        monkeypatch.setattr(nfield, "embed", counted_embed)
        monkeypatch.setattr(nfield, "norm", counted_norm)
        rep = certify(inputs)
        assert all(st.kind == "excludes" for _, st in rep.irr.per_subset)
        assert len(rep.irr.per_subset) == 32
        assert norms == [unit.coeffs]
        levels = {bits for _, _, bits in embeds}
        assert len(embeds) == len(set(embeds)) <= 5 * len(levels)
        assert sorted(embeds) == sorted((unit.coeffs, i, bits)
                                        for i in range(5) for bits in levels)


class TestFactorizationFallback:
    def test_unfactored_cofactor_flagged(self):
        from hmfcert.criteria import _factor_primes

        p1 = 2**89 - 1   # Mersenne prime
        p2 = 2**107 - 1  # Mersenne prime; product is a composite above 2^128
        primes, note, incomplete = _factor_primes(12 * p1 * p2)
        assert incomplete
        assert "unfactored composite cofactor" in note
        assert set(primes) == {2, 3}

    def test_small_values_complete(self):
        from hmfcert.criteria import _factor_primes

        primes, note, incomplete = _factor_primes(-45)
        assert (primes, note, incomplete) == ((3, 5), "", False)


class TestQuadExtValidation:
    def test_non_unit_rejected(self, rational_field):
        f = rational_field
        kd = QuadExtDescription(delta=f.element([2]),
                                units=((f.element([2]), f.element([1])),),
                                label="bad")  # 2 + sqrt2 has norm 2
        with pytest.raises(ValueError):
            CertificationInputs(field=f, weight=make_weight([2]), delta=8,
                                units=(), quadratic_extensions=(kd,))
