"""Built-in instance corpus: small hand-made subdivisions plus a random
triangulation generator.

Each builder returns a plain JSON-able document for parse_instance.  The
hand-made instances are chosen to pin down one feature each: line edges,
rays, holes, multi-arc pieces, a piece whose vertex cone is disconnected,
and a nested-ring function whose every vertex has degree three or four.
"""
from __future__ import annotations

import random
from fractions import Fraction

from .errors import RetriesExhaustedError
from .model import parse_instance, serialize_instance, validate

DEFAULT_RANDOM_SEED = 7
RANDOM_COORD_RANGE = 9  # random_instance draws integer coordinates in [-9, 9]
RANDOM_MAX_ATTEMPTS = 32
LAWSON_MAX_PASSES = 64


def single_piece() -> dict:
    """One affine piece covering the whole plane: f = 3x + 2y + 1."""
    return {
        "vertices": {},
        "edges": {},
        "pieces": {
            "P": {"affine": [3, 2, 1], "witness": [0, 0], "boundary": []},
        },
    }


def half_plane() -> dict:
    """f = max(0, x): one line edge, two unbounded pieces."""
    return {
        "vertices": {},
        "edges": {
            "l": {"kind": "line", "p": [0, 0], "d": [0, 1],
                  "pieces": ["L", "R"]},
        },
        "pieces": {
            "L": {"affine": [0, 0, 0], "witness": [-1, "1/3"],
                  "boundary": [{"kind": "arc", "edges": ["l"]}]},
            "R": {"affine": [1, 0, 0], "witness": [1, "1/2"],
                  "boundary": [{"kind": "arc", "edges": ["l"]}]},
        },
    }


def strip() -> dict:
    """f = clamp(x, 0, 1).  The middle band has two arc components, so its
    conic coefficient is -1 and the affine tail is nonzero."""
    return {
        "vertices": {},
        "edges": {
            "l0": {"kind": "line", "p": [0, 0], "d": [0, 1],
                   "pieces": ["L", "M"]},
            "l1": {"kind": "line", "p": [1, 0], "d": [0, 1],
                   "pieces": ["M", "R"]},
        },
        "pieces": {
            "L": {"affine": [0, 0, 0], "witness": [-1, "1/3"],
                  "boundary": [{"kind": "arc", "edges": ["l0"]}]},
            "M": {"affine": [1, 0, 0], "witness": ["1/2", "2/3"],
                  "boundary": [{"kind": "arc", "edges": ["l0"]},
                               {"kind": "arc", "edges": ["l1"]}]},
            "R": {"affine": [0, 0, 1], "witness": [2, "1/5"],
                  "boundary": [{"kind": "arc", "edges": ["l1"]}]},
        },
    }


def max_zero_xy() -> dict:
    """f = max(0, x, y): three rays from the origin."""
    return {
        "vertices": {"o": [0, 0]},
        "edges": {
            "nx": {"kind": "ray", "v": "o", "d": [-1, 0], "pieces": ["Y", "Z"]},
            "ny": {"kind": "ray", "v": "o", "d": [0, -1], "pieces": ["Z", "X"]},
            "dg": {"kind": "ray", "v": "o", "d": [1, 1], "pieces": ["X", "Y"]},
        },
        "pieces": {
            "Z": {"affine": [0, 0, 0], "witness": [-1, -2],
                  "boundary": [{"kind": "arc", "edges": ["nx", "ny"]}]},
            "X": {"affine": [1, 0, 0], "witness": [2, "1/2"],
                  "boundary": [{"kind": "arc", "edges": ["ny", "dg"]}]},
            "Y": {"affine": [0, 1, 0], "witness": ["1/2", 2],
                  "boundary": [{"kind": "arc", "edges": ["dg", "nx"]}]},
        },
    }


def cross() -> dict:
    """f = |x| + |y|: four rays, one degree-4 vertex whose reduction needs
    the two-antipodal-pair split."""
    return {
        "vertices": {"o": [0, 0]},
        "edges": {
            "e": {"kind": "ray", "v": "o", "d": [1, 0], "pieces": ["Q4", "Q1"]},
            "n": {"kind": "ray", "v": "o", "d": [0, 1], "pieces": ["Q1", "Q2"]},
            "w": {"kind": "ray", "v": "o", "d": [-1, 0], "pieces": ["Q2", "Q3"]},
            "s": {"kind": "ray", "v": "o", "d": [0, -1], "pieces": ["Q3", "Q4"]},
        },
        "pieces": {
            "Q1": {"affine": [1, 1, 0], "witness": [2, 1],
                   "boundary": [{"kind": "arc", "edges": ["e", "n"]}]},
            "Q2": {"affine": [-1, 1, 0], "witness": [-2, 1],
                   "boundary": [{"kind": "arc", "edges": ["n", "w"]}]},
            "Q3": {"affine": [-1, -1, 0], "witness": [-2, -1],
                   "boundary": [{"kind": "arc", "edges": ["w", "s"]}]},
            "Q4": {"affine": [1, -1, 0], "witness": [2, -1],
                   "boundary": [{"kind": "arc", "edges": ["s", "e"]}]},
        },
    }


def hat() -> dict:
    """Pyramid over the unit diamond: f = max(0, 1 - |x| - |y|)."""
    return {
        "vertices": {"a": [0, 0], "e": [1, 0], "n": [0, 1],
                     "w": [-1, 0], "s": [0, -1]},
        "edges": {
            "sp_e": {"kind": "segment", "a": "a", "b": "e",
                     "pieces": ["NE", "SE"]},
            "sp_n": {"kind": "segment", "a": "a", "b": "n",
                     "pieces": ["NW", "NE"]},
            "sp_w": {"kind": "segment", "a": "a", "b": "w",
                     "pieces": ["SW", "NW"]},
            "sp_s": {"kind": "segment", "a": "a", "b": "s",
                     "pieces": ["SE", "SW"]},
            "sd_en": {"kind": "segment", "a": "e", "b": "n",
                      "pieces": ["NE", "OUT"]},
            "sd_nw": {"kind": "segment", "a": "n", "b": "w",
                      "pieces": ["NW", "OUT"]},
            "sd_ws": {"kind": "segment", "a": "w", "b": "s",
                      "pieces": ["SW", "OUT"]},
            "sd_se": {"kind": "segment", "a": "s", "b": "e",
                      "pieces": ["SE", "OUT"]},
        },
        "pieces": {
            "NE": {"affine": [-1, -1, 1], "witness": ["1/3", "1/5"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["sp_e", "sd_en", "sp_n"]}]},
            "NW": {"affine": [1, -1, 1], "witness": ["-1/3", "1/5"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["sp_n", "sd_nw", "sp_w"]}]},
            "SW": {"affine": [1, 1, 1], "witness": ["-1/3", "-1/5"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["sp_w", "sd_ws", "sp_s"]}]},
            "SE": {"affine": [-1, 1, 1], "witness": ["1/3", "-1/5"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["sp_s", "sd_se", "sp_e"]}]},
            "OUT": {"affine": [0, 0, 0], "witness": [3, "1/3"],
                    "boundary": [{"kind": "cycle",
                                  "edges": ["sd_en", "sd_nw", "sd_ws",
                                            "sd_se"]}]},
        },
    }


def square_hole() -> dict:
    """Unit square cut out of the plane; both sides carry the same affine
    (continuity across two independent directions forces that), so the
    square is redundant and sparsify must erase it.  The outer piece is
    the corpus's hole-boundary example."""
    g = [1, -2, 3]
    cyc = [{"kind": "cycle", "edges": ["bottom", "right", "top", "left"]}]
    return {
        "vertices": {"c00": [0, 0], "c10": [1, 0], "c11": [1, 1],
                     "c01": [0, 1]},
        "edges": {
            "bottom": {"kind": "segment", "a": "c00", "b": "c10",
                       "pieces": ["S", "O"]},
            "right": {"kind": "segment", "a": "c10", "b": "c11",
                      "pieces": ["S", "O"]},
            "top": {"kind": "segment", "a": "c11", "b": "c01",
                    "pieces": ["S", "O"]},
            "left": {"kind": "segment", "a": "c01", "b": "c00",
                     "pieces": ["S", "O"]},
        },
        "pieces": {
            "S": {"affine": g, "witness": ["1/3", "1/2"], "boundary": cyc},
            "O": {"affine": g, "witness": [2, "1/3"], "boundary": cyc},
        },
    }


def disconnected_cone() -> dict:
    """A kite of three triangles with two wedges hanging south of the apex.

    The wrap-around piece B touches the apex in two separated angular
    sectors, so its vertex cone there is disconnected; its boundary is
    one two-ray arc plus the kite cycle seen as a hole.  Two edges
    deliberately share affine hulls with rays (the apex-to-center segment
    with the southwest ray, the left segment with the south ray)."""
    return {
        "vertices": {"v": [0, 0], "m": ["1/2", "1/2"],
                     "pe": [2, 0], "pn": [0, 2]},
        "edges": {
            "s_ve": {"kind": "segment", "a": "v", "b": "pe",
                     "pieces": ["T1", "B"]},
            "s_vm": {"kind": "segment", "a": "v", "b": "m",
                     "pieces": ["T1", "T2"]},
            "s_vn": {"kind": "segment", "a": "v", "b": "pn",
                     "pieces": ["T2", "B"]},
            "s_em": {"kind": "segment", "a": "pe", "b": "m",
                     "pieces": ["T1", "T3"]},
            "s_nm": {"kind": "segment", "a": "pn", "b": "m",
                     "pieces": ["T2", "T3"]},
            "s_en": {"kind": "segment", "a": "pe", "b": "pn",
                     "pieces": ["T3", "B"]},
            "r_sw": {"kind": "ray", "v": "v", "d": [-1, -1],
                     "pieces": ["B", "C1"]},
            "r_s": {"kind": "ray", "v": "v", "d": [0, -1],
                    "pieces": ["C1", "C2"]},
            "r_se": {"kind": "ray", "v": "v", "d": [1, -1],
                     "pieces": ["C2", "B"]},
        },
        "pieces": {
            "B": {"affine": [0, 0, 0], "witness": [10, 4],
                  "boundary": [{"kind": "arc", "edges": ["r_sw", "r_se"]},
                               {"kind": "cycle",
                                "edges": ["s_ve", "s_en", "s_vn"]}]},
            "T1": {"affine": [0, -2, 0], "witness": ["5/6", "1/6"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["s_ve", "s_em", "s_vm"]}]},
            "T2": {"affine": [-2, 0, 0], "witness": ["1/6", "5/6"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["s_vm", "s_nm", "s_vn"]}]},
            "T3": {"affine": [1, 1, -2], "witness": [1, "3/4"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["s_em", "s_nm", "s_en"]}]},
            "C1": {"affine": [1, -1, 0], "witness": [-1, -3],
                   "boundary": [{"kind": "arc", "edges": ["r_sw", "r_s"]}]},
            "C2": {"affine": [-1, -1, 0], "witness": [1, -3],
                   "boundary": [{"kind": "arc", "edges": ["r_s", "r_se"]}]},
        },
    }


def ring_bump() -> dict:
    """Annular bump over nested triangles: 0 inside the small triangle,
    4 on the middle one, 0 outside the big one.  Eight pieces, fifteen
    segments, no rays; every vertex has degree 3 or 4."""
    return {
        "vertices": {
            "ti": [0, 2], "ri": [3, -1], "li": [-3, -1],
            "tm": [0, 6], "rm": [9, -3], "lm": [-9, -3],
            "to": [0, 10], "ro": [15, -5], "lo": [-15, -5],
        },
        "edges": {
            "i_tr": {"kind": "segment", "a": "ti", "b": "ri",
                     "pieces": ["IN", "MR"]},
            "i_rl": {"kind": "segment", "a": "ri", "b": "li",
                     "pieces": ["IN", "MB"]},
            "i_lt": {"kind": "segment", "a": "li", "b": "ti",
                     "pieces": ["IN", "ML"]},
            "m_tr": {"kind": "segment", "a": "tm", "b": "rm",
                     "pieces": ["MR", "OR"]},
            "m_rl": {"kind": "segment", "a": "rm", "b": "lm",
                     "pieces": ["MB", "OB"]},
            "m_lt": {"kind": "segment", "a": "lm", "b": "tm",
                     "pieces": ["ML", "OL"]},
            "o_tr": {"kind": "segment", "a": "to", "b": "ro",
                     "pieces": ["OR", "OUT"]},
            "o_rl": {"kind": "segment", "a": "ro", "b": "lo",
                     "pieces": ["OB", "OUT"]},
            "o_lt": {"kind": "segment", "a": "lo", "b": "to",
                     "pieces": ["OL", "OUT"]},
            "q_t1": {"kind": "segment", "a": "ti", "b": "tm",
                     "pieces": ["MR", "ML"]},
            "q_r1": {"kind": "segment", "a": "ri", "b": "rm",
                     "pieces": ["MR", "MB"]},
            "q_l1": {"kind": "segment", "a": "li", "b": "lm",
                     "pieces": ["ML", "MB"]},
            "q_t2": {"kind": "segment", "a": "tm", "b": "to",
                     "pieces": ["OR", "OL"]},
            "q_r2": {"kind": "segment", "a": "rm", "b": "ro",
                     "pieces": ["OR", "OB"]},
            "q_l2": {"kind": "segment", "a": "lm", "b": "lo",
                     "pieces": ["OL", "OB"]},
        },
        "pieces": {
            "IN": {"affine": [0, 0, 0], "witness": ["1/7", "1/5"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["i_tr", "i_rl", "i_lt"]}]},
            "MR": {"affine": [1, 1, -2], "witness": [3, "6/5"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["i_tr", "q_r1", "m_tr", "q_t1"]}]},
            "ML": {"affine": [-1, 1, -2], "witness": [-3, "6/5"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["i_lt", "q_t1", "m_lt", "q_l1"]}]},
            "MB": {"affine": [0, -2, -2], "witness": ["1/3", -2],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["i_rl", "q_l1", "m_rl", "q_r1"]}]},
            "OR": {"affine": [-1, -1, 10], "witness": [7, "1/5"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["m_tr", "q_r2", "o_tr", "q_t2"]}]},
            "OL": {"affine": [1, -1, 10], "witness": [-7, "1/5"],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["m_lt", "q_t2", "o_lt", "q_l2"]}]},
            "OB": {"affine": [0, 2, 10], "witness": ["1/3", -4],
                   "boundary": [{"kind": "cycle",
                                 "edges": ["m_rl", "q_l2", "o_rl", "q_r2"]}]},
            "OUT": {"affine": [0, 0, 0], "witness": [20, "1/3"],
                    "boundary": [{"kind": "cycle",
                                  "edges": ["o_tr", "o_rl", "o_lt"]}]},
        },
    }


BUILDERS = {
    "single_piece": single_piece,
    "half_plane": half_plane,
    "strip": strip,
    "max_zero_xy": max_zero_xy,
    "cross": cross,
    "hat": hat,
    "square_hole": square_hole,
    "disconnected_cone": disconnected_cone,
    "ring_bump": ring_bump,
}


# ---------------------------------------------------------------------------
# Random bounded triangulations (Delaunay via incremental insert + flips)

def _sgn(v: int) -> int:
    return (v > 0) - (v < 0)


def _orient(a, b, c) -> int:
    return _sgn((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _incircle(a, b, c, d) -> int:
    """Positive iff d is strictly inside the circumcircle of CCW (a,b,c)."""
    rows = []
    for p in (a, b, c):
        dx, dy = p[0] - d[0], p[1] - d[1]
        rows.append((dx, dy, dx * dx + dy * dy))
    (a1, a2, a3), (b1, b2, b3), (c1, c2, c3) = rows
    return _sgn(a1 * (b2 * c3 - b3 * c2)
                - a2 * (b1 * c3 - b3 * c1)
                + a3 * (b1 * c2 - b2 * c1))


def _convex_hull(pts):
    """Monotone chain; collinear hull points are dropped, so the result
    is strictly convex and CCW."""
    pts = sorted(pts)
    lo, hi = [], []
    for p in pts:
        while len(lo) >= 2 and _orient(lo[-2], lo[-1], p) <= 0:
            lo.pop()
        lo.append(p)
    for p in reversed(pts):
        while len(hi) >= 2 and _orient(hi[-2], hi[-1], p) <= 0:
            hi.pop()
        hi.append(p)
    return lo[:-1] + hi[:-1]


def _has_directed(tri, u, v) -> bool:
    return any(tri[i] == u and tri[(i + 1) % 3] == v for i in range(3))


def _lawson_flips(tris):
    """Flip non-Delaunay interior edges until none remain."""
    for _ in range(LAWSON_MAX_PASSES):
        edge_tris: dict = {}
        for idx, tri in enumerate(tris):
            for i in range(3):
                key = tuple(sorted((tri[i], tri[(i + 1) % 3])))
                edge_tris.setdefault(key, []).append(idx)
        flipped = False
        for (u, v), owners in sorted(edge_tris.items()):
            if len(owners) != 2:
                continue
            i1, i2 = owners
            t1, t2 = tris[i1], tris[i2]
            c1 = next(p for p in t1 if p != u and p != v)
            c2 = next(p for p in t2 if p != u and p != v)
            if _incircle(*t1, c2) <= 0:
                continue
            if not _has_directed(t1, u, v):
                u, v = v, u
            new1, new2 = (u, c2, c1), (c2, v, c1)
            if _orient(*new1) <= 0 or _orient(*new2) <= 0:
                continue
            tris[i1], tris[i2] = new1, new2
            flipped = True
            break
        if not flipped:
            return


def _plane_through(p1, z1, p2, z2, p3, z3):
    """Affine coefficients (a, b, c) with a*x + b*y + c = z at the three
    (non-collinear) points."""
    x1, y1 = p1
    x2, y2 = p2
    x3, y3 = p3
    det = Fraction(x1 * (y2 - y3) - y1 * (x2 - x3) + (x2 * y3 - x3 * y2))
    a = (z1 * (y2 - y3) - y1 * (z2 - z3) + (z2 * y3 - z3 * y2)) / det
    b = (x1 * (z2 - z3) - z1 * (x2 - x3) + (x2 * z3 - x3 * z2)) / det
    c = (x1 * (y2 * z3 - y3 * z2) - y1 * (x2 * z3 - x3 * z2)
         + z1 * (x2 * y3 - x3 * y2)) / det
    return a, b, c


def _rat_json(r: Fraction):
    return int(r) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


_WITNESS_WEIGHTS = ((4, 3, 2), (3, 4, 2), (2, 3, 4), (5, 2, 1), (1, 5, 2),
                    (2, 1, 5), (7, 3, 1), (1, 1, 1), (9, 5, 2), (2, 9, 5))


def _off_all_lines(x: Fraction, y: Fraction, lines) -> bool:
    return all(A * x + B * y + C != 0 for (A, B, C) in lines)


def random_instance(seed: int = DEFAULT_RANDOM_SEED, n_points: int = 10) -> dict:
    """Random bounded triangulated instance with one unbounded piece.

    Hull vertex heights are pinned to a random ambient affine so the
    outer piece continues every boundary triangle; interior heights are
    pushed off that plane, which keeps the function genuinely piecewise.
    Retries with derived seeds until the instance validates.
    """
    for attempt in range(RANDOM_MAX_ATTEMPTS):
        rng = random.Random(f"{seed}/{attempt}")
        doc = _random_attempt(rng, n_points)
        if doc is None:
            continue
        inst = parse_instance(doc)
        if validate(inst).ok:
            return doc
    raise RetriesExhaustedError(
        f"no valid random instance after {RANDOM_MAX_ATTEMPTS} attempts "
        f"(seed {seed})")


def _random_attempt(rng: random.Random, n_points: int):
    pts: set = set()
    guard = 0
    while len(pts) < n_points:
        pts.add((rng.randint(-RANDOM_COORD_RANGE, RANDOM_COORD_RANGE),
                 rng.randint(-RANDOM_COORD_RANGE, RANDOM_COORD_RANGE)))
        guard += 1
        if guard > 100 * n_points:
            return None
    hull = _convex_hull(sorted(pts))
    if len(hull) < 3:
        return None
    hull_set = set(hull)

    tris = [(hull[0], hull[i], hull[i + 1]) for i in range(1, len(hull) - 1)]
    inserted = []
    for q in sorted(pts - hull_set):
        home = None
        for idx, (a, b, c) in enumerate(tris):
            if _orient(a, b, q) > 0 and _orient(b, c, q) > 0 \
                    and _orient(c, a, q) > 0:
                home = idx
                break
        if home is None:  # outside or exactly on an edge; drop the point
            continue
        a, b, c = tris[home]
        tris[home] = (a, b, q)
        tris.append((b, c, q))
        tris.append((c, a, q))
        inserted.append(q)
    if not inserted:
        return None
    _lawson_flips(tris)

    # heights: hull on a random ambient plane, interior pushed off it
    ga, gb, gc = (rng.randint(-3, 3) for _ in range(3))
    height = {}
    for p in sorted(hull_set | set(inserted)):
        height[p] = ga * p[0] + gb * p[1] + gc
        if p not in hull_set:
            height[p] += rng.choice((-1, 1)) * rng.randint(1, 4)

    used = sorted(hull_set | set(inserted))
    vid = {p: f"v{i}" for i, p in enumerate(used)}
    tris = sorted(tris, key=lambda t: sorted(vid[p] for p in t))

    edge_owner: dict = {}
    for ti, tri in enumerate(tris):
        for i in range(3):
            key = tuple(sorted((tri[i], tri[(i + 1) % 3])))
            edge_owner.setdefault(key, []).append(f"t{ti}")
    eid = {key: f"e{vid[key[0]][1:]}_{vid[key[1]][1:]}"
           for key in sorted(edge_owner)}
    lines = []
    for (p, q) in sorted(edge_owner):
        A, B = p[1] - q[1], q[0] - p[0]
        lines.append((A, B, -(A * p[0] + B * p[1])))

    doc: dict = {"vertices": {}, "edges": {}, "pieces": {}}
    for p in used:
        doc["vertices"][vid[p]] = [p[0], p[1]]
    for key, owners in sorted(edge_owner.items()):
        if len(owners) == 1:
            owners = owners + ["out"]
        elif len(owners) != 2:
            return None
        a, b = key
        doc["edges"][eid[key]] = {"kind": "segment", "a": vid[a], "b": vid[b],
                                  "pieces": owners}

    for ti, tri in enumerate(tris):
        a, b, c = tri
        pa, pb, pc = _plane_through(a, height[a], b, height[b], c, height[c])
        witness = None
        for wa, wb, wc in _WITNESS_WEIGHTS:
            tot = wa + wb + wc
            wx = Fraction(wa * a[0] + wb * b[0] + wc * c[0], tot)
            wy = Fraction(wa * a[1] + wb * b[1] + wc * c[1], tot)
            if _off_all_lines(wx, wy, lines):
                witness = (wx, wy)
                break
        if witness is None:
            return None
        cyc = [eid[tuple(sorted((tri[i], tri[(i + 1) % 3])))] for i in range(3)]
        doc["pieces"][f"t{ti}"] = {
            "affine": [_rat_json(pa), _rat_json(pb), _rat_json(pc)],
            "witness": [_rat_json(witness[0]), _rat_json(witness[1])],
            "boundary": [{"kind": "cycle", "edges": cyc}],
        }

    xmax = max(p[0] for p in used)
    ymax = max(p[1] for p in used)
    out_w = None
    for t in range(64):
        cand = (Fraction(2 * xmax + 1 + t), Fraction(2 * ymax + 2 + 3 * t))
        if _off_all_lines(cand[0], cand[1], lines):
            out_w = cand
            break
    if out_w is None:
        return None
    hull_cycle = [eid[tuple(sorted((hull[i], hull[(i + 1) % len(hull)])))]
                  for i in range(len(hull))]
    doc["pieces"]["out"] = {
        "affine": [ga, gb, gc],
        "witness": [_rat_json(out_w[0]), _rat_json(out_w[1])],
        "boundary": [{"kind": "cycle", "edges": hull_cycle}],
    }
    return doc


def all_documents(random_seed: int = DEFAULT_RANDOM_SEED) -> dict:
    """Every named builder plus one generated instance, keyed by name."""
    out = {name: fn() for name, fn in BUILDERS.items()}
    out[f"random_tri_{random_seed}"] = random_instance(random_seed)
    return out


def write_corpus(dirpath, random_seed: int = DEFAULT_RANDOM_SEED) -> list:
    """Write the whole corpus as canonical JSON files; returns the paths."""
    import json
    import os
    os.makedirs(dirpath, exist_ok=True)
    paths = []
    for name, doc in sorted(all_documents(random_seed).items()):
        canonical = serialize_instance(parse_instance(doc))
        path = os.path.join(dirpath, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(canonical, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths
