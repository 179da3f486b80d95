"""Triangle-group tessellations of the parameter domain.

Each standard case comes with three anti-holomorphic reflections whose
mirrors bound a Schwarz triangle; the projective monodromy group is the
group of even words in them.  Group elements are enumerated breadth-first
by word length and deduplicated by their action on three probe points,
looked up in a hash of the first probe's image, so enumeration is O(n).

A reflection z -> (a conj(z) + b) / (c conj(z) + d) is stored by its matrix;
composing two reflections gives the Moebius map with matrix M1 @ conj(M2).
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .equation import (TAG_DIHEDRAL, TAG_FUCHSIAN_INF, TAG_ICOSAHEDRAL,
                       TAG_OCTAHEDRAL, TAG_TETRAHEDRAL)

_DEDUP_TOL = 1e-9


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


def reflection_triple(tag: str, n: int | None = None):
    """The three mirror reflections bounding the base Schwarz triangle."""
    if tag == TAG_DIHEDRAL:
        if n is None or n < 1:
            raise ValueError("dihedral case needs n >= 1")
        return (Reflection.conjugation_times(1.0),
                Reflection.conjugation_times(cmath.exp(2j * math.pi / n)),
                Reflection(np.array([[0.0, 1.0], [1.0, 0.0]],
                                    dtype=complex)))  # z -> 1/conj(z)
    if tag == TAG_TETRAHEDRAL:
        return (Reflection.conjugation_times(1.0),
                Reflection.conjugation_times(-1.0),
                Reflection.circle(-(1.0 + 1.0j) / math.sqrt(2.0),
                                  math.sqrt(2.0)))
    if tag == TAG_OCTAHEDRAL:
        return (Reflection.conjugation_times(1.0),
                Reflection.conjugation_times(1.0j),
                Reflection.circle(-1.0, math.sqrt(2.0)))
    if tag == TAG_ICOSAHEDRAL:
        eps = cmath.exp(2j * math.pi / 5.0)
        # mirror circle of the Moebius form of R3; it is centered at
        # -2 cos(pi/5) with radius sqrt(1 + 4 cos^2(pi/5))
        c = -2.0 * math.cos(math.pi / 5.0)
        r = math.sqrt(1.0 + 4.0 * math.cos(math.pi / 5.0) ** 2)
        ref = Reflection.circle(c, r)
        # cross-check against the epsilon form of the same involution
        probe = 0.3 + 0.2j
        num = -(eps - eps ** 4) * probe.conjugate() + (eps ** 2 - eps ** 3)
        den = (eps ** 2 - eps ** 3) * probe.conjugate() + (eps - eps ** 4)
        assert abs(ref(probe) - num / den) < 1e-12
        return (Reflection.conjugation_times(1.0),
                Reflection.conjugation_times(eps ** 2),
                ref)
    if tag == TAG_FUCHSIAN_INF:
        # zero-angle triangle with vertices 0, 1, infinity in the upper
        # half-plane: mirrors Re z = 0, Re z = 1, |z - 1/2| = 1/2
        return (Reflection.line(0.0, 1.0j),
                Reflection.line(1.0, 1.0j),
                Reflection.circle(0.5, 0.5))
    raise ValueError(f"no reflection triple for tag {tag!r}")


@dataclass
class TileSet:
    elements: list  # list of (Mobius, label)
    complete: bool  # False when a limit cut enumeration short


def _probe_points(tag: str):
    if tag == TAG_FUCHSIAN_INF:
        return (0.31 + 0.83j, -0.52 + 1.27j, 0.11 + 0.45j)
    return (0.31 + 0.12j, -0.22 + 0.47j, 0.15 - 0.33j)


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


def tile_parameter_domain(tag: str, n: int | None = None,
                          max_count: int | None = None,
                          max_word_length: int = 12) -> TileSet:
    """Enumerate distinct even-word group elements breadth-first.

    Labels are the generating words, e.g. "" (identity), "12" (R1 then R2).
    Applying each element to the base triangle pair tiles the domain.
    """
    refl = reflection_triple(tag, n)
    gens = []
    for i in range(3):
        for j in range(3):
            if i != j:
                gens.append((refl[j].then(refl[i]), f"{j + 1}{i + 1}"))
    probes = _probe_points(tag)
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
            if depth >= max_word_length or \
               (max_count is not None and len(out) >= max_count):
                # a new element exists beyond a limit: enumeration is cut
                complete = False
                break
            out.append((gh, word + hw))
            queue.append((gh, word + hw, depth + 1))
    if max_count is not None and len(out) > max_count:
        out, complete = out[:max_count], False
    return TileSet(elements=out, complete=complete)


# --- base triangles for sampling -------------------------------------------

@dataclass(frozen=True)
class BaseTriangle:
    """Vertices of the base Schwarz triangle in the z-plane.

    v_inf / v_zero / v_one are the vertices lying over x = infinity, 0, 1
    (zeros of fInf, f0, f1 for the polyhedral cases).
    """

    v_inf: complex
    v_zero: complex
    v_one: complex


def base_triangle(tag: str, n: int | None = None) -> BaseTriangle:
    if tag == TAG_DIHEDRAL:
        if n is None or n < 1:
            raise ValueError("dihedral case needs n >= 1")
        return BaseTriangle(v_inf=0.0, v_zero=cmath.exp(1j * math.pi / n),
                            v_one=1.0)
    if tag == TAG_TETRAHEDRAL:
        r = math.sqrt(2.0 - math.sqrt(3.0))
        return BaseTriangle(v_zero=0.0, v_one=r, v_inf=1j * r)
    if tag == TAG_OCTAHEDRAL:
        r0 = math.sqrt(2.0 - math.sqrt(3.0))
        return BaseTriangle(v_inf=0.0, v_one=math.sqrt(2.0) - 1.0,
                            v_zero=r0 * cmath.exp(0.25j * math.pi))
    if tag == TAG_ICOSAHEDRAL:
        c = 2.0 * math.cos(math.pi / 5.0)
        r = math.sqrt(1.0 + 4.0 * math.cos(math.pi / 5.0) ** 2)
        t1 = r - c
        # line arg(z) = pi/5 meets the mirror circle |z + c| = r
        t0 = (-2.0 * c * math.cos(math.pi / 5.0)
              + math.sqrt(4.0 * c * c * math.cos(math.pi / 5.0) ** 2
                          + 4.0 * (r * r - c * c))) / 2.0
        return BaseTriangle(v_inf=0.0, v_one=t1,
                            v_zero=t0 * cmath.exp(1j * math.pi / 5.0))
    raise ValueError(f"no base triangle for tag {tag!r}")
