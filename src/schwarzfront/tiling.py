"""Triangle-group tessellations of the parameter domain.

Each case (cases.Case) carries three anti-holomorphic reflections of a
Schwarz triangle group; the projective monodromy group is the group of
even words in them.  This module knows no family: it takes the mirrors
from the case, and tells the tiles of every group apart by their images
of one fixed set of generic points, _PROBES.  Group elements are
enumerated breadth-first by word length, one level at a time: the
frontier times the six generators is one batched product, normalized and
mapped over the three probe points in one array expression.  Candidates
are deduplicated by these probe images with a sorted search over the
first probe image, one array pass per level.  The walk stops when a
level adds nothing or the tile count is reached, so an infinite group
needs a count.

A reflection z -> (a conj(z) + b) / (c conj(z) + d) is stored by its matrix;
composing two reflections gives the Moebius map with matrix M1 @ conj(M2).
A group element is a row of a (K, 2, 2) complex array, normalized to
det 1, and apply() maps points by such rows.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

_DEDUP_TOL = 1e-9
# three generic points of the upper half-plane, where the Fuchsian group
# acts; the finite groups act on the whole sphere, so the points tell the
# tiles of every group apart
_PROBES = (0.31 + 0.83j, -0.52 + 1.27j, 0.11 + 0.45j)


@dataclass(frozen=True)
class Reflection:
    """Anti-holomorphic involution z -> (a conj(z) + b)/(c conj(z) + d)."""

    matrix: np.ndarray

    def __call__(self, z):
        """The image of z, a point or an array."""
        a, b = self.matrix[0]
        c, d = self.matrix[1]
        zc = np.conj(z)
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

    def then(self, other: "Reflection") -> np.ndarray:
        """The matrix, det 1, of the holomorphic composition other o self."""
        m = other.matrix @ np.conj(self.matrix)
        return m / cmath.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


@dataclass
class TileSet:
    elements: np.ndarray    # (K, 2, 2) tile matrices, det 1; row 0 is 1
    words: list             # words[k] generates elements[k]; "" first
    complete: bool          # False when the count cut enumeration short


def apply(m: np.ndarray, z) -> np.ndarray:
    """The (K, P) images of the P points z (or (K, 1) of one point) under
    the Moebius maps z -> (az + b)/(cz + d) of the (K, 2, 2) matrices m."""
    a, b, c, d = np.reshape(m, (-1, 4)).T[..., None]
    return (a * z + b) / (c * z + d)


def check_tile_count(case, tiles):
    """ValueError, naming the case as users write it, for a count that is
    not an int (a bool is not), below 1 or above the group order, or none
    for an infinite group."""
    cap = case.max_tiles
    text = case.tag if case.n is None else f"{case.tag}:{case.n}"
    if tiles is None:
        if cap is None:
            raise ValueError(f"case {text} has infinitely many tiles; "
                             f"set a tile count (--tiles N)")
    elif type(tiles) is not int:
        raise ValueError(f"tiles must be an int, got {tiles!r}")
    elif tiles < 1:
        raise ValueError(f"tiles must be >= 1, got {tiles}")
    elif cap is not None and tiles > cap:
        raise ValueError(f"case {text} has at most {cap} tiles")


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
    determinants.  Each product of a determinant is rounded as numpy
    rounds one complex scalar product, which keeps exact zeros and their
    signs, as `tiles` prints them; a*d - b*c on whole arrays rounds
    differently, and leaves residues such as 4e-33 or a flipped -0."""
    def mul(x, y):
        return np.stack([x.real * y.real - x.imag * y.imag,
                         x.real * y.imag + x.imag * y.real], axis=-1)
    a, b, c, d = m.reshape(-1, 4).T
    det = (mul(a, d) - mul(b, c)).view(complex)
    return m / np.sqrt(det)[:, None]


def tile_parameter_domain(case, max_count: int | None = None) -> TileSet:
    """Enumerate distinct even-word group elements breadth-first: at most
    max_count of them, or the whole group when max_count is None or above
    the group order.  An infinite group needs a count (ValueError, see
    check_tile_count).

    Words name the generators, e.g. "" (identity), "12" (R1 then R2).
    case is a cases.Case; its mirrors generate the group, and the images
    of _PROBES tell elements apart.  Applying each element to the base
    triangle pair tiles the domain.  Each BFS level is one batched product
    of the generators with the frontier, its candidates in (parent,
    generator) order, and one array pass (_new_rows: a sorted search over
    the first probe image) finds which of them are new.
    """
    # a count above the group order lists the whole group
    counts = [c for c in (max_count, case.max_tiles) if c is not None]
    limit = min(counts) if counts else None
    check_tile_count(case, limit)
    refl = case.mirrors
    pairs = [(i, j) for i in range(3) for j in range(3) if i != j]
    gens = np.array([refl[j].then(refl[i]) for i, j in pairs])
    labels = [f"{j + 1}{i + 1}" for i, j in pairs]
    probes = np.asarray(_PROBES, dtype=complex)
    frontier, words = np.eye(2, dtype=complex)[None], [""]
    levels, tile_words = [frontier], [""]
    known = apply(frontier, probes)
    complete = True
    # every level but the last adds an element, so the count bounds the
    # depth of the walk
    while True:
        cand = _normalized((gens @ frontier[:, None]).reshape(-1, 2, 2))
        sig = apply(cand, probes)
        new = _new_rows(known, sig)
        if len(new) > limit - len(tile_words):
            # a new element exists beyond the count: enumeration is cut
            new, complete = new[:limit - len(tile_words)], False
        words = [words[k // 6] + labels[k % 6] for k in new.tolist()]
        frontier = cand[new]
        levels.append(frontier)
        tile_words += words
        if not len(new) or not complete:
            break
        known = np.concatenate([known, sig[new]])
    return TileSet(np.concatenate(levels), tile_words, complete)
