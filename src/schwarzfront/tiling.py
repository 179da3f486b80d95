"""Triangle-group tessellations of the parameter domain.

Each case (cases.Case) carries three anti-holomorphic reflections of a
Schwarz triangle group; the projective monodromy group is the group of
even words in them.  This module knows no family: it takes the mirrors
and the probe points from the case.  Group elements are enumerated
breadth-first by word length, one level at a time: the frontier times the
six generators is one batched product, normalized and mapped over the
three probe points in one array expression.  Candidates are deduplicated
by their probe images, looked up in a hash of the first probe's image,
so enumeration is O(n).

A reflection z -> (a conj(z) + b) / (c conj(z) + d) is stored by its matrix;
composing two reflections gives the Moebius map with matrix M1 @ conj(M2).
"""

from __future__ import annotations

import cmath
import math
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


def _normalized(m: np.ndarray) -> np.ndarray:
    """The (K, 2, 2) matrices m divided by the square roots of their
    determinants, rounded as Mobius rounds one matrix."""
    def mul(x, y):      # x * y rounded as a numpy complex scalar product
        return np.stack([x.real * y.real - x.imag * y.imag,
                         x.real * y.imag + x.imag * y.real], axis=-1)
    a, b, c, d = m.reshape(-1, 4).T
    det = (mul(a, d) - mul(b, c)).view(complex)     # keeps signed zeros
    return m / np.sqrt(det)[:, None]


def _element(m: np.ndarray) -> Mobius:
    """Mobius of an already normalized matrix, kept bit for bit."""
    g = object.__new__(Mobius)
    object.__setattr__(g, "matrix", m)
    return g


def tile_parameter_domain(case, max_count: int | None = None) -> TileSet:
    """Enumerate distinct even-word group elements breadth-first.

    Labels are the generating words, e.g. "" (identity), "12" (R1 then R2).
    case is a cases.Case; its mirrors generate the group and its probes
    tell elements apart.  Applying each element to the base triangle pair
    tiles the domain.  Each BFS level is one batched product of the
    generators with the frontier, its candidates in (parent, generator)
    order; only the hash lookup visits them one by one.
    """
    refl = case.mirrors
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    gens = np.array([refl[j].then(refl[i]).matrix for i, j in pairs])
    labels = [f"{j + 1}{i + 1}" for i, j in pairs]
    probes = np.asarray(case.probes, dtype=complex)
    buckets = {}
    ident = Mobius.identity()
    _known(buckets, _signature(ident, probes))
    out = [(ident, "")]
    frontier, words = ident.matrix[None], [""]
    complete = True
    for depth in range(MAX_WORD_LENGTH + 1):
        cand = _normalized((gens @ frontier[:, None]).reshape(-1, 2, 2))
        a, b, c, d = cand.reshape(-1, 4).T[..., None]
        keep = []
        for k, sig in enumerate(((a * probes + b) / (c * probes + d))
                                .tolist()):
            if _known(buckets, sig):
                continue
            if depth >= MAX_WORD_LENGTH or (max_count is not None and
                                            len(out) + len(keep) >= max_count):
                # a new element exists beyond a limit: enumeration is cut
                complete = False
                break
            keep.append(k)
        words = [words[k // 6] + labels[k % 6] for k in keep]
        out += [(_element(cand[k]), w) for k, w in zip(keep, words)]
        if not keep or not complete:
            break
        frontier = cand[keep]
    return TileSet(elements=out, complete=complete)
