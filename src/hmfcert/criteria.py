"""The prime-exclusion engine.

Evaluates the explicit hypothesis-certification criteria for a supplied
field, weight, level norm and unit list, and aggregates a deterministic
report: which primes are excluded by which criterion, which bound makes
all larger primes safe, and which hypotheses remain assumption-only.

Subset statuses are data, never exceptions: a single indeterminate or
degenerate subset must not abort the rest of the report.
"""

from __future__ import annotations

import itertools
import json
from collections import namedtuple

from .nfield import (
    DEFAULT_PRECISION_CAP,
    Field,
    FieldElem,
    Indeterminate,
    Zero,
    _START_BITS,
    _PowerTable,
    _certified_product,
    _is_integral,
    _symmetrization_group,
    embed,
    embed_sign,
    is_totally_positive,
    norm,
    symmetrized_difference_norm,
    symmetrized_norm,
)
from .primes import FactorizationIncomplete, factor
from .weights import (
    Weight,
    mask_indices,
    mw_check,
    non_induced_check,
    p_of,
    prime_bounds,
    subset_label,
)


class FormDisagreement(Exception):
    """The two printed expression forms differ by more than a sign: a bug."""


class MixedSignature(ValueError):
    pass


class SubsetStatus(namedtuple("SubsetStatus", "kind primes value unit_index note incomplete",
                              defaults=((), None, None, "", False))):
    """kind is "excludes", "degenerate" or "indeterminate"; incomplete says
    that an unfactored cofactor may hide primes."""

    __slots__ = ()

    def to_json_dict(self):
        out = {"kind": self.kind}
        if self.kind == "excludes":
            out["primes"] = list(self.primes)
            out["value"] = self.value
            out["unit_index"] = self.unit_index
        if self.incomplete:
            out["incomplete"] = True
        if self.note:
            out["note"] = self.note
        return out


class CriterionReport(namedtuple("CriterionReport", "criterion_id per_subset aggregate notes",
                                 defaults=((),))):
    """per_subset holds (mask, SubsetStatus) pairs; aggregate the excluded primes."""

    __slots__ = ()

    @property
    def has_indeterminate(self) -> bool:
        return any(s.kind == "indeterminate" for _, s in self.per_subset)

    @property
    def has_degenerate(self) -> bool:
        return any(s.kind == "degenerate" for _, s in self.per_subset)

    @property
    def fully_certified(self) -> bool:
        return all(s.kind == "excludes" and not s.incomplete
                   for _, s in self.per_subset)

    def to_json_dict(self):
        return {
            "criterion": self.criterion_id,
            "per_subset": {
                subset_label(mask): st.to_json_dict() for mask, st in self.per_subset
            },
            "excluded_primes": list(self.aggregate),
            "notes": list(self.notes),
        }


class QuadExtDescription(namedtuple("QuadExtDescription", "delta units label",
                                    defaults=("K",))):
    """K = F(sqrt(delta)) with a unit list given as (a, b) pairs: a + b sqrt(delta)."""

    __slots__ = ()

    def signature(self) -> str:
        signs = {embed_sign(self.delta, i) for i in range(self.delta.field.degree)}
        if signs == {1}:
            return "totally_positive"
        if signs == {-1}:
            return "totally_negative"
        raise MixedSignature("delta must be totally positive or totally negative")

    @property
    def is_cm(self) -> bool:
        return self.signature() == "totally_negative"

    def validate_units(self):
        """Each a + b sqrt(delta) must be an algebraic integer of norm +-1.

        Its characteristic polynomial over F is x^2 - 2a x + (a^2 - delta b^2),
        so it is integral exactly when 2a and a^2 - delta b^2 are.
        """
        for a, b in self.units:
            rel_norm = a * a - self.delta * b * b
            if abs(norm(rel_norm)) != 1:
                raise ValueError(
                    f"{self.label}: {a} + {b} sqrt(delta) is not a unit"
                )
            if not (_is_integral(a + a) and _is_integral(rel_norm)):
                raise ValueError(
                    f"{self.label}: {a} + {b} sqrt(delta) is not an algebraic integer"
                )


class CertificationInputs(namedtuple(
        "CertificationInputs",
        "field weight delta units quadratic_extensions fiber_partitions precision_cap")):
    """The data of one certificate, checked at construction.

    delta is the norm of the level times the different, caller-supplied;
    fiber_partitions holds partitions of the embedding indices into blocks.
    """

    __slots__ = ()

    def __new__(cls, field: Field, weight: Weight, delta: int, units: tuple[FieldElem, ...],
                quadratic_extensions: tuple[QuadExtDescription, ...] = (),
                fiber_partitions: tuple[tuple[tuple[int, ...], ...], ...] = (),
                precision_cap: int = DEFAULT_PRECISION_CAP):
        if field.degree != weight.d:
            raise ValueError("field degree and weight length differ")
        if delta < 1:
            raise ValueError("delta must be a positive integer")
        if precision_cap < _START_BITS:
            raise ValueError(f"precision cap {precision_cap} is below {_START_BITS}, "
                             "the first precision level, so nothing could be certified")
        for u in units:
            if abs(norm(u)) != 1:
                raise ValueError(f"unit {u} does not have norm +-1")
            if not _is_integral(u):
                raise ValueError(f"unit {u} is not an algebraic integer")
            if not is_totally_positive(u):
                raise ValueError(f"unit {u} is not totally positive")
        for kd in quadratic_extensions:
            kd.signature()  # raises on mixed signature
            kd.validate_units()
        return super().__new__(cls, field, weight, delta, units, quadratic_extensions,
                               fiber_partitions, precision_cap)


UNIT_CONGRUENCE_NOTE = (
    "unit congruence epsilon = 1 mod n is asserted by the caller, not verified"
)


def _factor_primes(value: int):
    """(sorted primes, note, incomplete) with a marker on factor failure.

    An unfactored cofactor means divisors may be missing from the excluded
    set, so the status is flagged incomplete and degrades the report.
    """
    try:
        return tuple(sorted(factor(value))), "", False
    except FactorizationIncomplete as exc:
        primes = tuple(sorted(exc.partial))
        note = f"unfactored composite cofactor {exc.cofactor} (excluded-unknown)"
        return primes, note, True


def _excludes(value: int, unit_index: int) -> SubsetStatus:
    """The status of a certified nonzero value: the primes dividing it."""
    primes, note, incomplete = _factor_primes(value)
    return SubsetStatus(kind="excludes", primes=primes, value=value,
                        unit_index=unit_index, note=note, incomplete=incomplete)


def irr_excluded_primes(inputs: CertificationInputs) -> CriterionReport:
    """Per-subset unit-norm criterion for residual irreducibility.

    For each subset J, the first unit whose symmetrized norm is nonzero
    contributes the primes dividing it.  Both the single-product exponent
    form and the two-product difference form are computed and asserted
    equal up to sign.  Parallel weights only see the proper subsets and
    the result is labeled partial.
    """
    w = inputs.weight
    fld = inputs.field
    notes = [UNIT_CONGRUENCE_NOTE]
    masks = list(range(1 << w.d))
    if w.is_parallel:
        masks = [m for m in masks if m not in (0, (1 << w.d) - 1)]
        notes.append("partial (parallel weight): only proper nonempty subsets evaluated")
    per = []
    agg: set[int] = set()
    for mask in masks:
        pj, _ = p_of(w, mask)
        e_on = tuple(w.k0 - w.m[t] - 1 for t in range(w.d))
        e_off = tuple(-w.m[t] for t in range(w.d))
        status = SubsetStatus(kind="degenerate",
                              note="every supplied unit gives an exact zero"
                              if inputs.units else "no units supplied")
        for i, eps in enumerate(inputs.units):
            try:
                v1 = symmetrized_norm(eps, pj, fld, inputs.precision_cap)
            except Indeterminate as exc:
                status = SubsetStatus(kind="indeterminate",
                                      note=f"escalation cap {exc.max_bits} bits")
                continue
            if isinstance(v1, Zero):
                continue
            try:
                v2 = symmetrized_difference_norm(
                    eps, e_on, e_off, mask_indices(mask), fld, inputs.precision_cap
                )
            except Indeterminate as exc:
                status = SubsetStatus(kind="indeterminate",
                                      note=f"difference form hit cap {exc.max_bits}")
                continue
            if isinstance(v2, Zero) or abs(v1.value) != abs(v2.value):
                raise FormDisagreement(
                    f"J={subset_label(mask)}: forms give {v1} vs {v2}"
                )
            status = _excludes(v1.value, i)
            break
        per.append((mask, status))
        if status.kind == "excludes":
            agg.update(status.primes)
    return CriterionReport(
        criterion_id="irr",
        per_subset=tuple(per),
        aggregate=tuple(sorted(agg)),
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# dihedral (non-CM) criterion


def dihedral_noncm_excluded(inputs: CertificationInputs, k_index: int) -> CriterionReport:
    """Unit-norm criterion along a totally real quadratic extension.

    The first unit with a nonzero value gives one status, shared by every
    embedding assignment.  The value is the certified full product over all
    sign assignments and base permutations (for F = Q the norm from K to Q;
    for higher degree a sound integer multiple of each assignment's norm).
    """
    kd = inputs.quadratic_extensions[k_index]
    w = inputs.weight
    d = inputs.field.degree
    if kd.is_cm:
        status = SubsetStatus(
            kind="indeterminate",
            note="Unverifiable: requires theta-series congruence data (CM extension)",
        )
        return CriterionReport(
            criterion_id=f"dihedral[{kd.label}]",
            per_subset=((0, status),),
            aggregate=(),
            notes=("CM-type extension reported, never evaluated",),
        )
    notes = [UNIT_CONGRUENCE_NOTE]
    if d > 1:
        notes.append(
            "certified value is the full sign-assignment product "
            "(integer multiple of each assignment norm)"
        )
    status = SubsetStatus(kind="degenerate",
                          note="every supplied unit gives an exact zero"
                          if kd.units else "no units supplied")
    for i, pair in enumerate(kd.units):
        try:
            value = _wreath_product_value(kd, pair, w, inputs.precision_cap)
        except Indeterminate:
            status = SubsetStatus(kind="indeterminate",
                                  note="interval certification hit the precision cap")
            continue
        if isinstance(value, Zero):
            continue
        status = _excludes(value, i)
        break
    return CriterionReport(
        criterion_id=f"dihedral[{kd.label}]",
        per_subset=tuple((amask, status) for amask in range(1 << d)),
        aggregate=status.primes,
        notes=tuple(notes),
    )


def _wreath_product_value(kd: QuadExtDescription, pair, w: Weight, cap: int):
    """Certified product over all sign assignments and group elements.

    The 2d real embeddings of K = F(sqrt(delta)) are a_j + (-1)^u b_j sqrt(delta_j)
    at position 2j + u; position 2t carries the exponent m_t and 2t + 1 the
    exponent k0 - m_t - 1, and C_2 wr G permutes the positions.  The product
    is nfield's symmetrized kernel with J = every position.

    Returns an int, or ZERO when the product is 0; raises Indeterminate
    when no integer is pinned at the cap.
    """
    fld = kd.delta.field
    d = fld.degree
    a, b = pair
    group = _symmetrization_group(fld)

    def table(bits):
        emb_a, emb_b, emb_delta = ([embed(x, j, bits) for j in range(d)] for x in (a, b, kd.delta))
        roots = [(y * z.sqrt(bits)).round(bits) for y, z in zip(emb_b, emb_delta)]
        return _PowerTable([v for x, r in zip(emb_a, roots) for v in (x + r, x - r)], bits)

    exponents = [x for m in w.m for x in (m, w.k0 - m - 1)]
    # (signs, g) sends position 2t + u to 2 g(t) + (u xor signs_t)
    wreath = [tuple(2 * g[t] + (u ^ signs[t]) for t in range(d) for u in (0, 1))
              for signs in itertools.product((0, 1), repeat=d) for g in group]
    value = _certified_product(table, exponents, range(2 * d), wreath, cap)
    return value if isinstance(value, Zero) else value.value


# ---------------------------------------------------------------------------
# full certification


class CertificationReport(namedtuple(
        "CertificationReport",
        "field_poly weight delta delta_primes bounds mw_ok mw_witness irr dihedral "
        "non_induced excluded_set bound statement assumption_only notes")):
    """dihedral holds one CriterionReport per quadratic extension, non_induced
    (label, ok) pairs, and mw_witness a subset mask or None."""

    __slots__ = ()

    @property
    def worst_status(self) -> str:
        reports = (self.irr, *self.dihedral)
        if any(r.has_indeterminate or r.has_degenerate for r in reports):
            return "partial"
        if any(s.incomplete for r in reports for _, s in r.per_subset):
            return "partial"
        return "certified"

    def to_json_dict(self):
        return {
            "field": {"min_poly": list(self.field_poly)},
            "weight": {
                "k": list(self.weight.k),
                "k0": self.weight.k0,
                "n": list(self.weight.n),
                "m": list(self.weight.m),
            },
            "level": {"delta": self.delta, "primes": list(self.delta_primes)},
            "bounds": self.bounds.to_json_dict(),
            "middle_weight": {
                "ok": self.mw_ok,
                "witness": subset_label(self.mw_witness)
                if self.mw_witness is not None
                else None,
            },
            "irr": self.irr.to_json_dict(),
            "dihedral": [r.to_json_dict() for r in self.dihedral],
            "non_induced": [
                {"partition": label, "non_induced": ok}
                for label, ok in self.non_induced
            ],
            "excluded_set": list(self.excluded_set),
            "bound": self.bound,
            "statement": self.statement,
            "assumption_only": list(self.assumption_only),
            "notes": list(self.notes),
            "status": self.worst_status,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2)


def certify(inputs: CertificationInputs) -> CertificationReport:
    """Aggregate every machine-checkable hypothesis into one report.

    Sub-criterion failures become per-subset statuses; the report is always
    produced.  The excluded set collects level divisors, the small primes,
    both special weight sets, and every prime any unit-norm criterion
    excludes; the bound is the largest of the smallest admissible primes.
    """
    w = inputs.weight
    bounds = prime_bounds(w)
    delta_primes = tuple(sorted(factor(inputs.delta)))
    mw = mw_check(w)
    irr = irr_excluded_primes(inputs)
    dihedral = tuple(
        dihedral_noncm_excluded(inputs, i)
        for i in range(len(inputs.quadratic_extensions))
    )
    ni = tuple(
        (
            ";".join(",".join(str(i) for i in sorted(block)) for block in part),
            non_induced_check(w, part),
        )
        for part in inputs.fiber_partitions
    )
    excluded: set[int] = set(delta_primes)
    excluded |= bounds.small_excluded
    excluded |= bounds.special_double
    excluded |= bounds.special_cross
    excluded |= set(irr.aggregate)
    for r in dihedral:
        excluded |= set(r.aggregate)
    bound = max(
        bounds.min_prime_ii,
        bounds.min_prime_exceptional,
        bounds.min_prime_combined,
    )
    notes = [UNIT_CONGRUENCE_NOTE]
    if not mw.ok:
        notes.append(
            "hypothesis (MW) fails: middle weight attained at J="
            + subset_label(mw.witness)
        )
    assumption_only = [
        "large-image hypothesis (group-theoretic content) is assumed, not certified",
    ]
    if any(kd.is_cm for kd in inputs.quadratic_extensions):
        assumption_only.append(
            "CM-type dihedral condition requires theta-series congruence data"
        )
    statement = (
        f"every prime p >= {bound} outside {{{', '.join(map(str, sorted(excluded)))}}} "
        "passes all machine-checkable hypotheses"
    )
    return CertificationReport(
        field_poly=inputs.field.min_poly,
        weight=w,
        delta=inputs.delta,
        delta_primes=delta_primes,
        bounds=bounds,
        mw_ok=mw.ok,
        mw_witness=mw.witness,
        irr=irr,
        dihedral=dihedral,
        non_induced=ni,
        excluded_set=tuple(sorted(excluded)),
        bound=bound,
        statement=statement,
        assumption_only=tuple(assumption_only),
        notes=tuple(notes),
    )
