"""Triangle-group tessellations of the parameter domain.

Each case (cases.Case) carries three anti-holomorphic reflections of a
Schwarz triangle group; the projective monodromy group is the group of
even words in them.  This module knows no family: it takes the mirrors
and the probe points from the case.  Group elements are enumerated
breadth-first by word length, one level at a time: the frontier times the
six generators is one batched product, normalized and mapped over the
three probe points in one array expression.  Candidates are deduplicated
by these probe images with a sorted search over the first probe image,
one array pass per level.

A reflection z -> (a conj(z) + b) / (c conj(z) + d) is stored by its matrix;
composing two reflections gives the Moebius map with matrix M1 @ conj(M2).
"""

from __future__ import annotations

import cmath
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


def _images(m: np.ndarray, probes: np.ndarray) -> np.ndarray:
    """The (K, P) images of the P probes under the K matrices m: the
    tiles' signatures."""
    a, b, c, d = m.reshape(-1, 4).T[..., None]
    return (a * probes + b) / (c * probes + d)


def _new_rows(known: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Indices, ascending, of the signatures cand that match no row of
    known and no earlier row of cand.  A signature a matches b when
    |a - b| <= _DEDUP_TOL (1 + |a|) at every probe.  The rows are sorted by
    the real part of their first probe image, and each candidate is
    compared only with the rows inside its window of that key."""
    sig = np.concatenate([known, cand])
    order = np.argsort(sig[:, 0].real)
    key = sig[order, 0].real
    tol = _DEDUP_TOL * (1.0 + np.abs(cand))
    lo = np.searchsorted(key, cand[:, 0].real - tol[:, 0], "left")
    size = np.searchsorted(key, cand[:, 0].real + tol[:, 0], "right") - lo
    # one (candidate i, row j) pair per row of each window
    i = np.repeat(np.arange(len(cand)), size)
    first = np.cumsum(size) - size          # index of each window's first pair
    j = order[lo[i] + np.arange(len(i)) - first[i]]
    match = (j < len(known) + i) & \
        (np.abs(cand[i] - sig[j]) <= tol[i]).all(axis=1)
    dup = np.zeros(len(cand), dtype=bool)
    dup[i[match]] = True
    return np.flatnonzero(~dup)


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
    order, and one array pass (_new_rows: a sorted search over the first
    probe image) finds which of them are new.
    """
    refl = case.mirrors
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    gens = np.array([refl[j].then(refl[i]).matrix for i, j in pairs])
    labels = [f"{j + 1}{i + 1}" for i, j in pairs]
    probes = np.asarray(case.probes, dtype=complex)
    ident = Mobius.identity()
    out = [(ident, "")]
    frontier, words = ident.matrix[None], [""]
    known = _images(frontier, probes)
    complete = True
    for depth in range(MAX_WORD_LENGTH + 1):
        cand = _normalized((gens @ frontier[:, None]).reshape(-1, 2, 2))
        sig = _images(cand, probes)
        new = _new_rows(known, sig)
        room = len(new) if max_count is None else max(max_count - len(out), 0)
        if depth >= MAX_WORD_LENGTH:
            room = 0
        if len(new) > room:
            # a new element exists beyond a limit: enumeration is cut
            new, complete = new[:room], False
        words = [words[k // 6] + labels[k % 6] for k in new.tolist()]
        frontier = cand[new]
        out += [(_element(m), w) for m, w in zip(frontier, words)]
        if not len(new) or not complete:
            break
        known = np.concatenate([known, sig[new]])
    return TileSet(elements=out, complete=complete)
