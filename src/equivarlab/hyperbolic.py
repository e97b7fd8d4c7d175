"""Poincaré disk utilities for the regular hyperbolic octagon.

Disk isometries are carried as SU(1,1)-type matrices [[a,b],[conj(b),conj(a)]]
acting by z -> (a z + b)/(conj(b) z + conj(a)); composition is matrix product.
The regular octagon with corner angle pi/4 underlies the genus-2 surface with
side word a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1.
"""

from __future__ import annotations

import numpy as np

# corner angle pi/4 octagon: right triangle (pi/8, pi/8, pi/2) data
COT_PI8 = 1.0 + np.sqrt(2.0)
RADIUS_CORNER = np.arccosh(COT_PI8 ** 2)   # center to corner

SIDE_LABELS = ("a1", "b1", "A1", "B1", "a2", "b2", "A2", "B2")
#: primary side -> paired (secondary) side; generator g maps side p+2 onto p
PRIMARY_SIDES = (0, 1, 4, 5)
PAIR_OF = {0: 2, 1: 3, 4: 6, 5: 7}


def disk_point(angle, hyper_radius):
    return np.tanh(hyper_radius / 2.0) * np.exp(1j * angle)


def octagon_corners():
    return [disk_point(k * np.pi / 4.0, RADIUS_CORNER) for k in range(8)]


def mobius_apply(M, z):
    a, b = M[0, 0], M[0, 1]
    c, d = M[1, 0], M[1, 1]
    return (a * z + b) / (c * z + d)


def translate_to_origin(p):
    """Disk isometry sending p to 0."""
    s = 1.0 / np.sqrt(1.0 - abs(p) ** 2)
    return np.array([[s, -p * s], [-np.conj(p) * s, s]], dtype=complex)


def rotation(theta):
    h = np.exp(1j * theta / 2.0)
    return np.array([[h, 0.0], [0.0, np.conj(h)]], dtype=complex)


def isometry_two_points(p1, p2, q1, q2):
    """Orientation-preserving disk isometry with p1 -> q1 and p2 -> q2.

    Requires d(p1,p2) = d(q1,q2); the rotation part is fixed by the second
    point correspondence.
    """
    Tp = translate_to_origin(p1)
    Tq = translate_to_origin(q1)
    u = mobius_apply(Tp, p2)
    v = mobius_apply(Tq, q2)
    theta = np.angle(v) - np.angle(u)
    M = np.linalg.inv(Tq) @ rotation(theta) @ Tp
    return M / np.sqrt(np.linalg.det(M) + 0j)


def dist_disk(p, q):
    num = abs(p - q)
    den = abs(1.0 - np.conj(p) * q)
    r = min(num / den, 1.0 - 1e-16)
    return 2.0 * np.arctanh(r)


def geodesic_midpoint(p, q):
    """Midpoint of the geodesic segment [p, q] between distinct points;
    symmetric under swap."""
    swapped = (q.real, q.imag) < (p.real, p.imag)
    if swapped:
        p, q = q, p
    T = translate_to_origin(p)
    u = mobius_apply(T, q)
    r = abs(u)
    m = (u / r) * np.tanh(np.arctanh(r) / 2.0)
    return mobius_apply(np.linalg.inv(T), m)


def corner_angle(vertex, n1, n2):
    """Angle at `vertex` between geodesics toward n1 and n2."""
    T = translate_to_origin(vertex)
    u = mobius_apply(T, n1)
    v = mobius_apply(T, n2)
    ang = np.angle(u) - np.angle(v)
    ang = abs((ang + np.pi) % (2.0 * np.pi) - np.pi)
    return ang


def triangle_area(p, q, r):
    """Hyperbolic area by angle deficit."""
    a = corner_angle(p, q, r)
    b = corner_angle(q, r, p)
    c = corner_angle(r, p, q)
    return max(np.pi - (a + b + c), 0.0)


def side_pairings():
    """SU(1,1) deck transformations of the four octagon-group generators.

    The a-type generator of primary side p maps the paired side p+2 onto p
    reversing the boundary orientation (V_{p+2} -> V_{p+1}, V_{p+3} -> V_p);
    the b-type generator is the inverse convention (it maps side p onto side
    p+2, V_{p+1} -> V_{p+2}, V_p -> V_{p+3}).  With these choices the four
    maps satisfy the surface relation a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1 = 1.
    """
    V = octagon_corners()
    maps = {}
    for p in PRIMARY_SIDES:
        q = PAIR_OF[p]
        g = isometry_two_points(V[q], V[(q + 1) % 8], V[(p + 1) % 8], V[p])
        if SIDE_LABELS[p].startswith("b"):
            g = np.linalg.inv(g)
        maps[SIDE_LABELS[p]] = g / np.sqrt(np.linalg.det(g) + 0j)
    return maps


def corner_relations():
    """Deck-generator action on octagon corner indices, for orbit words.

    Yields (token, src_corner, dst_corner) meaning  V_dst = g_token . V_src.
    """
    rels = []
    for p in PRIMARY_SIDES:
        q = PAIR_OF[p]
        name = SIDE_LABELS[p]
        if name.startswith("a"):
            rels.append((name, q, (p + 1) % 8))
            rels.append((name, (q + 1) % 8, p))
        else:
            rels.append((name, (p + 1) % 8, q))
            rels.append((name, p, (q + 1) % 8))
    return rels


def secondary_point_word(primary_side):
    """Word w with  x_sec(t) = w . x_prim(1-t)  for the paired sides."""
    name = SIDE_LABELS[primary_side]
    if name.startswith("a"):
        return (name[0].upper() + name[1:],)
    return (name,)


_CAYLEY = np.array([[1.0, -1j], [1.0, 1j]], dtype=complex)
_CAYLEY_INV = np.linalg.inv(_CAYLEY)


def su11_to_sl2r(M):
    """Conjugate a disk isometry to an SL(2,R) matrix via the Cayley map."""
    g = _CAYLEY_INV @ M @ _CAYLEY
    g = g / np.sqrt(np.linalg.det(g) + 0j)
    if np.abs(g.imag).max() > 1e-8:
        raise ValueError("disk isometry did not convert to a real matrix")
    return g.real.astype(complex)


def fuchsian_generators():
    """SL(2,R) images of a1,b1,a2,b2 satisfying the octagon relation."""
    return {name: su11_to_sl2r(M) for name, M in side_pairings().items()}
