"""Seeded inputs and correctness oracles for the tropmono benchmark.

The seed picks, for each base polygon, one of the 8 signed coordinate
permutations and a translation in [-5, 5]^2.  Shears are excluded: they
would enlarge the bounding box that lattice enumeration walks, so timings
would depend on the seed.  The program only ever sees the image's vertex
list.
"""

from __future__ import annotations

import json
import os
import random
from math import gcd

# Base polygons by name.  Triangles T_k, rectangles R_{a x b}, and the
# degree-251 triangle with its three unit corners cut off.
BASE = {
    "T3": [(0, 0), (3, 0), (0, 3)],
    "T4": [(0, 0), (4, 0), (0, 4)],
    "SQ4": [(0, 0), (4, 0), (4, 4), (0, 4)],
    "T6": [(0, 0), (6, 0), (0, 6)],
    "T300": [(0, 0), (300, 0), (0, 300)],
    "R300x202": [(0, 0), (300, 0), (300, 202), (0, 202)],
    "HEX250": [(1, 0), (250, 0), (250, 1), (1, 250), (0, 250), (0, 1)],
}

DERIVE_LADDER = ("T3", "T4", "SQ4", "T6")
REPLAY_SET = ("T4", "SQ4", "T6")
VERDICT_SET = ("T300", "R300x202", "HEX250")

# Corruption deltas for pinned integer fields, as in the engine tests.
DELTAS = (-3, -2, -1, 1, 2, 3, 11)


def closed_form(name: str) -> tuple[int, int]:
    """(genus, n) from closed forms: T_k has g = (k-1)(k-2)/2 and n = k-3
    (n = 1 for T3, whose adjoint is a point); an a x b rectangle has
    g = (a-1)(b-1) and n = gcd(a-2, b-2); cutting unit corners off T_k keeps
    its interior points and its adjoint."""
    if name.startswith("T"):
        k = int(name[1:])
        return (k - 1) * (k - 2) // 2, max(k - 3, 1)
    if name.startswith("SQ"):
        a = b = int(name[2:])
    elif name.startswith("R"):
        a, b = (int(t) for t in name[1:].split("x"))
    elif name == "HEX250":
        return closed_form("T251")
    else:
        raise KeyError(name)
    return (a - 1) * (b - 1), gcd(a - 2, b - 2)


def expected_verdict(g: int, d: int, n: int) -> tuple[str, str]:
    """(mu, algebraic_mu) from the decision table for d in {0, 2}."""
    if g == 0:
        return "not_applicable", "not_applicable"
    if d == 0 or n == 1:
        return "surjective", "surjective"
    if n % 2 == 1:
        return "not_surjective", "surjective"
    return "not_surjective", "not_surjective"


# Pinned (g, d, n, mu, algebraic_mu) for every base polygon.  The tests
# cross-check them against closed_form and expected_verdict.
EXPECTED = {
    "T3": (1, 0, 1, "surjective", "surjective"),
    "T4": (3, 2, 1, "surjective", "surjective"),
    "SQ4": (9, 2, 2, "not_surjective", "not_surjective"),
    "T6": (10, 2, 3, "not_surjective", "surjective"),
    "T300": (44551, 2, 297, "not_surjective", "surjective"),
    "R300x202": (60099, 2, 2, "not_surjective", "not_surjective"),
    "HEX250": (31125, 2, 248, "not_surjective", "not_surjective"),
}


def sp_order_formula(g: int, q: int) -> int:
    """|Sp(2g, F_q)| = q^(g^2) * prod_{i=1..g} (q^(2i) - 1)."""
    order = q ** (g * g)
    for i in range(1, g + 1):
        order *= q ** (2 * i) - 1
    return order


CLOSURE_ORDER = sp_order_formula(3, 2)  # 1451520


class Image:
    """A signed coordinate permutation followed by a translation."""

    def __init__(self, swap: bool, sx: int, sy: int, t: tuple[int, int]):
        self.swap, self.sx, self.sy, self.t = swap, sx, sy, t

    @staticmethod
    def draw(rng: random.Random) -> "Image":
        m = rng.randrange(8)
        t = (rng.randint(-5, 5), rng.randint(-5, 5))
        return Image(bool(m & 4), 1 if m & 1 else -1, 1 if m & 2 else -1, t)

    def __call__(self, p):
        x, y = (p[1], p[0]) if self.swap else (p[0], p[1])
        return (self.sx * x + self.t[0], self.sy * y + self.t[1])


def image_of(name: str, seed: int) -> Image:
    return Image.draw(random.Random(f"{seed}:image:{name}"))


def seeded_vertices(name: str, seed: int) -> list[tuple[int, int]]:
    f = image_of(name, seed)
    return [f(p) for p in BASE[name]]


def canonical_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def node_counts(cert: dict) -> dict[str, int]:
    counts: dict[str, int] = {}
    for node in cert["nodes"]:
        counts[node["rule"]] = counts.get(node["rule"], 0) + 1
    return counts


def distinct_witnesses(cert: dict) -> set[bytes]:
    return {
        canonical_bytes(node["params"]["certificate"]["heights"])
        for node in cert["nodes"]
        if node["rule"] == "admissible"
    }


def corruptible_paths(obj, path=()):
    """Paths to the pinned integer fields of a certificate; DAG wiring and
    height witnesses are left alone (they are not canonical)."""
    if isinstance(obj, bool):
        return []
    if isinstance(obj, int):
        return [path]
    out = []
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            out.extend(corruptible_paths(v, path + (i,)))
    elif isinstance(obj, dict):
        for k, v in obj.items():
            if k in ("premises", "id", "heights"):
                continue
            out.extend(corruptible_paths(v, path + (k,)))
    return out


def corrupted(cert: dict, path, delta: int) -> dict:
    data = json.loads(json.dumps(cert))
    obj = data
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] += delta
    return data


def corruption_batch(certs: list[dict], seed: int, sizes: tuple[int, ...]) -> list:
    """A fixed batch of single-field corruptions, as (index of certificate,
    path, delta): ``sizes[i]`` evenly spaced fields of certificate ``i``
    from a seeded offset, each with a seeded delta, in seeded order.  Even
    spacing keeps the mix of early (fast) and late (slow) rejections the
    same for every seed."""
    rng = random.Random(f"{seed}:corrupt")
    batch = []
    for i, (cert, k) in enumerate(zip(certs, sizes)):
        paths = corruptible_paths(cert)
        step = len(paths) / k
        offset = rng.random() * step
        batch.extend((i, paths[int(offset + j * step)], rng.choice(DELTAS)) for j in range(k))
    rng.shuffle(batch)
    return batch


def closure_order(seed: int, k: int) -> list[int]:
    order = list(range(k))
    random.Random(f"{seed}:closure").shuffle(order)
    return order


def write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh)


def polygon(name: str, seed: int):
    from tropmono.geometry import LatticePolygon

    return LatticePolygon(seeded_vertices(name, seed))


def setup(workload: str, seed: int, work: str) -> None:
    """Inputs for one run of ``workload``, after the import users pay before
    their first job; replay also derives and stores its certificates,
    verdict-scale writes its polygon files.  perfbench/run.py times this in
    fresh processes that import nothing else of the benchmark."""
    from tropmono.engine import GEOMETRIC, Engine

    if workload == "derive":
        for name in DERIVE_LADDER:
            polygon(name, seed)
    elif workload == "replay":
        for name in REPLAY_SET:
            engine = Engine(polygon(name, seed))
            cert = engine.derive_surjectivity()["certificate"]
            write_json(os.path.join(work, f"{name}.json"), cert)
            if name == "T4":
                anchor = image_of("T4", seed)((1, 1))
                _, nid = engine.facts[(GEOMETRIC, ("bridge", anchor))]
                write_json(os.path.join(work, "T4.sub.json"), engine.minimal_subdag(nid))
    elif workload == "verdict-scale":
        for name in VERDICT_SET + ("T3",):
            write_json(os.path.join(work, f"{name}.poly.json"),
                       {"vertices": [list(p) for p in seeded_vertices(name, seed)]})
    elif workload == "group-closure":
        polygon("T4", seed)
