"""Triangle-group tessellations of the parameter domain.

Each case (cases.Case) carries three anti-holomorphic reflections of a
Schwarz triangle group; the projective monodromy group is the group of
even words in them.  This module knows no family: it takes the mirrors
and the probe points from the case.  Group elements are enumerated
breadth-first by word length and deduplicated by their action on the
three probe points, looked up in a hash of the first probe's image, so
enumeration is O(n).

A reflection z -> (a conj(z) + b) / (c conj(z) + d) is stored by its matrix;
composing two reflections gives the Moebius map with matrix M1 @ conj(M2).
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

_DEDUP_TOL = 1e-9
# cap on the word length of an enumerated element
MAX_WORD_LENGTH = 12


@dataclass(frozen=True)
class Mobius:
    """Holomorphic Moebius map z -> (az + b)/(cz + d)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) < 1e-14:
            raise ValueError("singular Moebius matrix")
        object.__setattr__(self, "matrix", m / cmath.sqrt(det))

    def __call__(self, z: complex) -> complex:
        a, b = self.matrix[0]
        c, d = self.matrix[1]
        return (a * z + b) / (c * z + d)

    def compose(self, other: "Mobius") -> "Mobius":
        return Mobius(self.matrix @ other.matrix)

    @classmethod
    def identity(cls) -> "Mobius":
        return cls(np.eye(2))


@dataclass(frozen=True)
class Reflection:
    """Anti-holomorphic involution z -> (a conj(z) + b)/(c conj(z) + d)."""

    matrix: np.ndarray

    def __call__(self, z: complex) -> complex:
        a, b = self.matrix[0]
        c, d = self.matrix[1]
        zc = complex(z).conjugate()
        return (a * zc + b) / (c * zc + d)

    @classmethod
    def conjugation_times(cls, phase: complex) -> "Reflection":
        """z -> phase * conj(z)."""
        return cls(np.array([[phase, 0.0], [0.0, 1.0]], dtype=complex))

    @classmethod
    def circle(cls, center: complex, radius: float) -> "Reflection":
        """Inversion in the circle |z - center| = radius."""
        c = complex(center)
        return cls(np.array([[c, radius ** 2 - abs(c) ** 2],
                             [1.0, -c.conjugate()]], dtype=complex))

    @classmethod
    def line(cls, point: complex, direction: complex) -> "Reflection":
        """Reflection across the line through `point` along `direction`."""
        u = complex(direction)
        u /= abs(u)
        p = complex(point)
        # z -> p + u^2 conj(z - p)
        return cls(np.array([[u * u, p - u * u * p.conjugate()],
                             [0.0, 1.0]], dtype=complex))

    def then(self, other: "Reflection") -> Mobius:
        """The holomorphic composition other o self."""
        return Mobius(other.matrix @ np.conj(self.matrix))


@dataclass
class TileSet:
    elements: list  # list of (Mobius, label)
    complete: bool  # False when a limit cut enumeration short


def _signature(g: Mobius, probes):
    return tuple(g(p) for p in probes)


def _cell(a: complex):
    """Hash cell of a probe image.  Images that match within _DEDUP_TOL
    differ by less than 0.02 in u = a / (100 _DEDUP_TOL (1 + |a|)), so
    they lie in the same or neighbouring cells of the unit grid in u."""
    u = a / (100.0 * _DEDUP_TOL * (1.0 + abs(a)))
    return math.floor(u.real), math.floor(u.imag)


def _known(buckets: dict, sig) -> bool:
    """True if a signature matching sig is in buckets (cell of its first
    probe image -> signatures); otherwise add sig and return False."""
    cx, cy = _cell(sig[0])
    for key in [(cx + i, cy + j) for i in (-1, 0, 1) for j in (-1, 0, 1)]:
        for s in buckets.get(key, ()):
            if all(abs(a - b) <= _DEDUP_TOL * (1.0 + abs(a))
                   for a, b in zip(sig, s)):
                return True
    buckets.setdefault((cx, cy), []).append(sig)
    return False


def tile_parameter_domain(case, max_count: int | None = None) -> TileSet:
    """Enumerate distinct even-word group elements breadth-first.

    Labels are the generating words, e.g. "" (identity), "12" (R1 then R2).
    case is a cases.Case; its mirrors generate the group and its probes
    tell elements apart.  Applying each element to the base triangle pair
    tiles the domain.
    """
    refl = case.mirrors
    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                gens.append((refl[j].then(refl[i]), f"{j + 1}{i + 1}"))
    probes = case.probes
    buckets = {}
    out = []

    def known(g):
        return _known(buckets, _signature(g, probes))

    ident = Mobius.identity()
    known(ident)
    out.append((ident, ""))
    queue = deque([(ident, "", 0)])
    complete = True
    while queue and complete:
        g, word, depth = queue.popleft()
        for h, hw in gens:
            gh = h.compose(g)
            if known(gh):
                continue
            if depth >= MAX_WORD_LENGTH or \
               (max_count is not None and len(out) >= max_count):
                # a new element exists beyond a limit: enumeration is cut
                complete = False
                break
            out.append((gh, word + hw))
            queue.append((gh, word + hw, depth + 1))
    return TileSet(elements=out, complete=complete)
