"""The package's records: field names, defaults, immutability, equality and
the checks each makes at construction.

The records are namedtuples and plain classes.  Each keeps its constructor
(positional order, keywords and defaults), its attribute names and its
checks, and a record that cannot be changed raises AttributeError on
assignment to a field.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from hmfcert import bgg, criteria, gl2img, lattice, modform, nfield, weights

Q5 = nfield.make_field([-5, 0, 1])
EPS = Q5.element([Fraction(3, 2), Fraction(1, 2)])
W42 = weights.make_weight([4, 2])
F7 = gl2img.Fq(7)
T = ((1, 1, 0, 1),)


def _pieces(basis, l2_proj_denom=5):
    return lattice.SplitPieces(((1,),), 1, ((5,),), 1, ((1,),), 1, ((1,),), l2_proj_denom,
                               basis, 1)


# name -> (factory, expected fields in constructor order, frozen)
RECORDS = {
    "TWeight": (lambda: bgg.TWeight((4, -2)),
                {"coords": (4, -2), "nu_exponent": None}, True),
    "E1Table": (lambda: bgg.E1Table(2, (4, 2), (), ()),
                {"d": 2, "k": (4, 2), "cells": (), "fil": ()}, True),
    "SubsetStatus": (lambda: criteria.SubsetStatus("excludes"),
                     {"kind": "excludes", "primes": (), "value": None, "unit_index": None,
                      "note": "", "incomplete": False}, True),
    "CriterionReport": (lambda: criteria.CriterionReport("irr", (), (5,)),
                        {"criterion_id": "irr", "per_subset": (), "aggregate": (5,),
                         "notes": ()}, True),
    "QuadExtDescription": (lambda: criteria.QuadExtDescription(Q5.element([2]), ()),
                           {"delta": Q5.element([2]), "units": (), "label": "K"}, True),
    "CertificationInputs": (lambda: criteria.CertificationInputs(Q5, W42, 20, (EPS,)),
                            {"field": Q5, "weight": W42, "delta": 20, "units": (EPS,),
                             "quadratic_extensions": (), "fiber_partitions": (),
                             "precision_cap": nfield.DEFAULT_PRECISION_CAP}, True),
    "Classification": (lambda: gl2img.Classification("A4"),
                       {"kind": "A4", "parameter": None, "projective_order": None,
                        "trace_field_size": None}, True),
    "TameChar": (lambda: gl2img.TameChar(2, 3, (1, 2)), {"h": 2, "p": 3, "e": (1, 2)}, True),
    "FqMatrixGroup": (lambda: gl2img.FqMatrixGroup(F7, T),
                      {"field": F7, "generators": T}, False),
    "Lattice": (lambda: lattice.Lattice(((1, 1), (0, 5)), 2),
                {"basis": ((1, 1), (0, 5)), "ambient_dim": 2}, True),
    "Split": (lambda: lattice.coordinate_split(2, 1),
              {"v1_basis": ((1, 0),), "v2_basis": ((0, 1),)}, True),
    "SplitPieces": (lambda: _pieces(((1, 1), (0, 5))),
                    {"l1": ((1,),), "l1_denom": 1, "l2": ((5,),), "l2_denom": 1,
                     "l1_proj": ((1,),), "l1_proj_denom": 1, "l2_proj": ((1,),),
                     "l2_proj_denom": 5, "basis": ((1, 1), (0, 5)), "basis_denom": 1}, True),
    "CongruenceModule": (lambda: lattice.CongruenceModule(5, (5,), ((5,), (5,), (5,))),
                         {"p": 5, "invariant_factors": (5,),
                          "three_way": ((5,), (5,), (5,))}, True),
    "DiscPairing": (lambda: lattice.DiscPairing(Fraction(-1), Fraction(-1), ()),
                    {"determinant": -1, "pair_product": -1, "pairs": ()}, True),
    "Eigensystem": (lambda: lattice.Eigensystem((2,), 1), {"values": (2,), "dim": 1}, True),
    "EulerParams": (lambda: modform.EulerParams(1j, -1j, 1, 2, 2),
                    {"alpha": 1j, "beta": -1j, "psi0": 1, "q": 2, "k0": 2}, True),
    "DLocalFactor": (lambda: modform.DLocalFactor([1, 0], [1]),
                     {"numerator": [1, 0], "denominator": [1]}, True),
    "AdjointInputs": (lambda: modform.AdjointInputs(4, 20, 1, Fraction(3)),
                      {"abs_k": 4, "delta": 20, "h_f": 1, "petersson": Fraction(3),
                       "w_f": None, "ratio": None}, True),
    "ScaledValue": (lambda: modform.ScaledValue(EPS, 3),
                    {"factor": EPS, "base": 3}, True),
    "CertifiedInteger": (lambda: nfield.CertifiedInteger(-4, Fraction(1, 8)),
                         {"value": -4, "final_width": Fraction(1, 8)}, True),
    "FieldElem": (lambda: Q5.element([1, 2]),
                  {"field": Q5, "coeffs": (1, 2)}, True),
    "Weight": (lambda: W42, {"k": (4, 2), "k0": 4, "n": (2, 0), "m": (0, 1), "d": 2}, True),
    "HodgeMultiset": (lambda: weights.hodge_multiset(W42),
                      {"entries": (1, 2, 4, 5), "motivic_weight": 6}, True),
    "MwResult": (lambda: weights.mw_check(W42), {"ok": True, "witness": None}, True),
    "BoundsReport": (lambda: weights.BoundsReport(4, 4, 7, 13, 13, 11, frozenset({3, 7}),
                                                  frozenset({5}), frozenset({2, 3})),
                     {"k0": 4, "sum_k_minus_1": 4, "min_prime_ii": 7,
                      "min_prime_exceptional": 13, "min_prime_combined": 13,
                      "min_prime_quadratic_alt": 11, "special_double": frozenset({3, 7}),
                      "special_cross": frozenset({5}), "small_excluded": frozenset({2, 3})},
                     True),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    factory, fields, frozen = RECORDS[name]
    rec = factory()
    assert type(rec).__name__ == name
    assert {f: getattr(rec, f) for f in fields} == fields
    cls = type(rec)
    # the same record from the fields, by position and by keyword
    assert cls(*fields.values()) == rec
    assert cls(**fields) == rec
    assert copy.copy(rec) == rec
    first = next(iter(fields))
    if frozen:
        with pytest.raises(AttributeError):
            setattr(rec, first, fields[first])
    else:
        setattr(rec, first, fields[first])


def test_certification_report_fields():
    cfg = criteria.CertificationInputs(Q5, W42, 20, (EPS,))
    rep = criteria.certify(cfg)
    assert type(rep).__name__ == "CertificationReport"
    assert rep.field_poly == (-5, 0, 1) and rep.weight == W42 and rep.delta == 20
    with pytest.raises(AttributeError):
        rep.bound = 0


def test_field_equality_ignores_root_and_unit_caches():
    a, b = nfield.make_field([-5, 0, 1]), nfield.make_field([-5, 0, 1])
    nfield.embed(a.element([0, 1]), 0, 256)
    a.element([Fraction(3, 2), Fraction(1, 2)])._unit_memo
    assert a._root_cache and a._unit_cache and not b._root_cache and not b._unit_cache
    assert a == b and hash(a) == hash(b)
    assert a != nfield.make_field([-2, 0, 1])
    with pytest.raises(AttributeError):
        a.degree = 3


@pytest.mark.parametrize("name", ["Field", "FieldElem", "TWeight", "CertificationInputs"])
def test_pickle_round_trip(name):
    rec = {"Field": Q5, "FieldElem": EPS, "TWeight": bgg.TWeight((4, -2), 3),
           "CertificationInputs": RECORDS["CertificationInputs"][0]()}[name]
    assert pickle.loads(pickle.dumps(rec)) == rec
    assert copy.deepcopy(rec) == rec


def test_field_elem_keeps_its_equality_and_hash():
    x = Q5.element([3, 0])
    assert x == 3 and x == Fraction(3) and hash(x) == hash(Q5.element([3]))
    assert x != Q5.element([3, 1])
    assert x._unit_memo is x._unit_memo


def test_split_pieces_equality_ignores_basis():
    a, b = _pieces(((1, 1), (0, 5))), _pieces(((1, 6), (0, 5)))
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != _pieces(((1, 1), (0, 5)), l2_proj_denom=1)


def test_fq_matrix_group_equality_and_closure():
    g, h = gl2img.FqMatrixGroup(F7, T), gl2img.FqMatrixGroup(F7, [[1, 1, 0, 1]])
    assert g == h and g != gl2img.FqMatrixGroup(F7, ((1, 2, 0, 1),))
    with pytest.raises(TypeError):
        hash(g)
    assert len(g.closure()) == 7 and "closure" in vars(gl2img.FqMatrixGroup)


def test_tweight_iterates_over_its_coordinates():
    t = bgg.TWeight((4, -2), 3)
    assert list(t) == [4, -2] and t != (4, -2)
    assert t == bgg.TWeight((4, -2), 3) != bgg.TWeight((4, -2))


@pytest.mark.parametrize("build,exc,message", [
    (lambda: nfield.CertifiedInteger(3, Fraction(1, 2)), ValueError,
     "certifying interval is too wide"),
    (lambda: gl2img.TameChar(2, 3, (1,)), ValueError,
     "exponent vector length must equal the level"),
    (lambda: modform.AdjointInputs(4, 0, 1, Fraction(1)), ValueError,
     "delta and h_f must be >= 1"),
    (lambda: lattice.Lattice(((1, 1), (0,)), 2), ValueError,
     "row length does not match ambient dimension"),
    (lambda: lattice.Split(((1, 0),), ((0, 1), (1, 1))), lattice.DegenerateSplit,
     "dim V1 + dim V2 != ambient dimension"),
    (lambda: criteria.CertificationInputs(Q5, weights.make_weight([4, 2, 2]), 20, (EPS,)),
     ValueError, "field degree and weight length differ"),
    (lambda: gl2img.FqMatrixGroup(F7, ((1, 1, 1, 1),)), ValueError,
     "generator (1, 1, 1, 1) is singular"),
], ids=["CertifiedInteger", "TameChar", "AdjointInputs", "Lattice", "Split",
        "CertificationInputs", "FqMatrixGroup"])
def test_construction_checks(build, exc, message):
    with pytest.raises(exc, match=f"^{re.escape(message)}$"):
        build()
