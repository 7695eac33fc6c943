"""Kostant/Verma weight combinatorics and the degree-one spectral table.

Torus characters live in Z[J_F]: one integer coordinate per embedding
index.  The sign-flip action of a subset J sends n+t to its negative on J,
so the extremal weights in exterior degree i are -n_t - 2 on J (|J| = i)
and n_t elsewhere.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter, namedtuple

from .exact import _Frozen, _as_int
from .weights import Weight, mask_indices, p_of, subset_label, subset_mask


class TWeight(_Frozen):
    """A torus character: one integer coordinate per embedding index.

    A plain class, not a tuple: it iterates over its coordinates alone.
    """

    def __init__(self, coords: tuple[int, ...], nu_exponent: int | None = None):
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "nu_exponent", nu_exponent)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coords, self.nu_exponent) == (other.coords, other.nu_exponent)

    def __hash__(self):
        return hash((self.coords, self.nu_exponent))

    def __repr__(self):
        return f"TWeight(coords={self.coords!r}, nu_exponent={self.nu_exponent!r})"

    def __iter__(self):
        return iter(self.coords)


def kostant_weights(n, i: int) -> list[tuple[int, TWeight]]:
    """(J, weight) for each |J| = i: coordinates -n_t-2 on J, n_t off J."""
    n = tuple(_as_int(x, "n entry") for x in n)
    d = len(n)
    if not 0 <= i <= d:
        raise ValueError("degree out of range")
    out = []
    for combo in itertools.combinations(range(d), i):
        mask = subset_mask(combo)
        coords = tuple(-n[t] - 2 if (mask >> t) & 1 else n[t] for t in range(d))
        out.append((mask, TWeight(coords)))
    return out


def omega_weights(n, i: int) -> Counter:
    """Multiset of weights of the i-th exterior twist of the n-module.

    Entries are nu - 2*1_J with nu a weight of the highest-weight-n module
    (coordinates n_t - 2 j_t, 0 <= j_t <= n_t) and |J| = i.
    """
    n = tuple(_as_int(x, "n entry") for x in n)
    d = len(n)
    if not 0 <= i <= d:
        raise ValueError("degree out of range")
    out: Counter = Counter()
    ranges = [range(nt + 1) for nt in n]
    for js in itertools.product(*ranges):
        nu = tuple(n[t] - 2 * js[t] for t in range(d))
        for combo in itertools.combinations(range(d), i):
            coords = list(nu)
            for t in combo:
                coords[t] -= 2
            out[tuple(coords)] += 1
    return out


def central_char_equiv(mu, n, p: int) -> list[int]:
    """Subsets J with mu = (sign-flipped n+t) - t coordinatewise mod p."""
    mu = tuple(_as_int(x, "mu entry") for x in mu)
    n = tuple(_as_int(x, "n entry") for x in n)
    p = _as_int(p, "p")
    d = len(n)
    out = []
    for mask in range(1 << d):
        target = tuple(-n[t] - 2 if (mask >> t) & 1 else n[t] for t in range(d))
        if all((a - b) % p == 0 for a, b in zip(mu, target)):
            out.append(mask)
    return out


def mod_p_guard(n, p: int, d: int | None = None) -> bool:
    """The decomposition hypothesis p - 1 > |n| + d, reported not assumed."""
    n = tuple(_as_int(x, "n entry") for x in n)
    p = _as_int(p, "p")
    d = len(n) if d is None else _as_int(d, "d")
    return p - 1 > sum(n) + d


class E1Table(namedtuple("E1Table", "d k cells fil")):
    """Cells (r, i) -> subsets J with |J| <= r and |p(J)| = i, plus the
    filtration-jump sets Fil^i = {J : |p(J)| >= i}.

    cells holds (r, i, masks) triples and fil (i, masks) pairs.
    """

    __slots__ = ()

    def cell(self, r: int, i: int) -> tuple[int, ...]:
        for rr, ii, masks in self.cells:
            if rr == r and ii == i:
                return masks
        return ()

    def fil_set(self, i: int) -> tuple[int, ...]:
        for ii, masks in self.fil:
            if ii == i:
                return masks
        return ()

    def to_json(self) -> str:
        payload = {
            "k": list(self.k),
            "cells": [
                {"r": r, "i": i, "subsets": [list(mask_indices(m)) for m in masks]}
                for r, i, masks in self.cells
            ],
            "filtration": [
                {"i": i, "subsets": [list(mask_indices(m)) for m in masks]}
                for i, masks in self.fil
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"E1 table for k={list(self.k)}"]
        width = max((len(subset_label(m)) for _, _, ms in self.cells for m in ms),
                    default=2)
        for r, i, masks in self.cells:
            cell = " ".join(subset_label(m).ljust(width) for m in masks)
            lines.append(f"  r={r}  i={i:>3}  {cell}")
        lines.append("filtration jumps:")
        for i, masks in self.fil:
            cell = " ".join(subset_label(m) for m in masks)
            lines.append(f"  Fil^{i:<3} {cell}")
        return "\n".join(lines)


def bgg_table(w: Weight) -> E1Table:
    levels = {mask: p_of(w, mask)[1] for mask in range(1 << w.d)}
    all_i = sorted(set(levels.values()))
    cells = []
    for r in range(w.d + 1):
        for i in all_i:
            masks = tuple(
                m for m in sorted(levels) if bin(m).count("1") <= r and levels[m] == i
            )
            if masks:
                cells.append((r, i, masks))
    fil = []
    for i in range(max(levels.values()) + 2):
        masks = tuple(m for m in sorted(levels) if levels[m] >= i)
        fil.append((i, masks))
    return E1Table(d=w.d, k=w.k, cells=tuple(cells), fil=tuple(fil))
