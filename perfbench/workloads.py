"""Workloads of the benchmark: instances, seeded inputs, jobs and answer checks.

Every instance is built with the package generators, relabelled by the
seed and written as a facet file; the program under test sees only those
files and argv.  The expected answers come from theory and are computed
here without calling any package helper: f-vectors of cross-polytopes and
barycentric subdivisions, h-vectors and Euler characteristics derived from
them, Betti numbers of spheres and of the torus, and independent checks of
every certificate (cuts by BFS, walks step by step, t2 coverage, the t3
cross-polytope bijection).
"""

from __future__ import annotations

import os
import random
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from math import comb, factorial

# -- theory ---------------------------------------------------------------


def cross_f(d: int) -> tuple[int, ...]:
    """f-vector (f_-1, ..., f_{d-1}) of the boundary of the d-cross-polytope."""
    return tuple((1 << i) * comb(d, i) for i in range(d + 1))


def _stirling2(n: int, k: int) -> int:
    return sum((-1) ** j * comb(k, j) * (k - j) ** n for j in range(k + 1)) // factorial(k)


def bary_f(f: tuple[int, ...]) -> tuple[int, ...]:
    """f-vector of the barycentric subdivision of a complex with f-vector f.

    A k-face of the subdivision is a chain of k+1 nonempty faces; the
    chains topped by one face with m vertices are the ordered partitions
    of its vertex set into k+1 blocks, (k+1)! S(m, k+1) of them.
    """
    top = len(f) - 1
    out = [1]
    for k in range(top):
        out.append(sum(f[m] * factorial(k + 1) * _stirling2(m, k + 1) for m in range(1, top + 1)))
    return tuple(out)


def h_from_f(f: tuple[int, ...]) -> tuple[int, ...]:
    d = len(f) - 1
    return tuple(
        sum((-1) ** (j - i) * comb(d - i, j - i) * f[i] for i in range(j + 1))
        for j in range(d + 1)
    )


def reduced_euler(f: tuple[int, ...]) -> int:
    return sum(c if i % 2 == 1 else -c for i, c in enumerate(f))


TORUS_F = (1, 7, 21, 14)
TORUS_BETTI = (0, 0, 2, 1)
ICOSAHEDRON_F = (1, 12, 30, 20)


@dataclass
class Kind:
    """What theory says about one family of instances."""

    build: object  # callable(simplicial module) -> SimplicialComplex
    f: tuple[int, ...]
    flag: bool
    sphere: bool
    betti: tuple[int, ...]  # reduced, from dimension -1, over every field


def _sphere_betti(f):
    return (0,) * (len(f) - 1) + (1,)


def _kind(name: str) -> Kind:
    if name.startswith("cross"):
        d = int(name[5:])
        f = cross_f(d)
        return Kind(lambda s: s.cross_polytope_boundary(d), f, True, True, _sphere_betti(f))
    if name.startswith("bary"):
        d = int(name[4:])
        f = bary_f(cross_f(d))
        return Kind(
            lambda s: s.barycentric_subdivision(s.cross_polytope_boundary(d)),
            f, True, True, _sphere_betti(f),
        )
    if name == "ico":
        return Kind(lambda s: s.icosahedron(), ICOSAHEDRON_F, True, True, _sphere_betti(ICOSAHEDRON_F))
    if name == "bico":
        return Kind(
            lambda s: s.barycentric_subdivision(s.icosahedron()),
            bary_f(ICOSAHEDRON_F), True, True, _sphere_betti(ICOSAHEDRON_F),
        )
    if name == "torus7":
        return Kind(lambda s: s.torus_7(), TORUS_F, False, False, TORUS_BETTI)
    if name == "btorus":
        return Kind(
            lambda s: s.barycentric_subdivision(s.torus_7()),
            bary_f(TORUS_F), True, False, TORUS_BETTI,
        )
    raise ValueError(f"unknown instance family {name!r}")


# -- instances --------------------------------------------------------------


@dataclass
class Instance:
    name: str
    kind: Kind
    facets: list[tuple[int, ...]]
    path: str
    _graph: dict | None = field(default=None, repr=False)

    @property
    def d(self) -> int:
        """Facet size."""
        return len(self.f) - 1

    @property
    def f(self) -> tuple[int, ...]:
        return self.kind.f

    @property
    def vertices(self) -> list[int]:
        return sorted({v for fc in self.facets for v in fc})

    def graph(self) -> dict:
        if self._graph is None:
            adj: dict = {v: set() for v in self.vertices}
            for fc in self.facets:
                for u, w in combinations(fc, 2):
                    adj[u].add(w)
                    adj[w].add(u)
            self._graph = adj
        return self._graph

    def sizes(self) -> dict:
        return {"vertices": self.f[1], "facets": self.f[-1], "f_vector": list(self.f)}


def make_instance(simplicial, base: str, copy: int, seed: int, workdir: str) -> Instance:
    """Build one instance, relabel its vertices and shuffle its facet lines."""
    kind = _kind(base)
    cx = kind.build(simplicial)
    rng = random.Random(f"{seed}/{base}/{copy}")
    old = sorted({v for fc in cx.facets for v in fc})
    new = rng.sample(range(1, 8 * len(old) + 1), len(old))
    relabel = dict(zip(old, new))
    facets = [tuple(sorted(relabel[v] for v in fc)) for fc in cx.facets]
    rng.shuffle(facets)
    name = base if copy == 0 else f"{base}#{copy}"
    path = os.path.join(workdir, f"{base}-{copy}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(" ".join(map(str, fc)) + "\n" for fc in facets))
    return Instance(name, kind, facets, path)


# -- certificate checks, independent of the package ------------------------


def _separates(adj: dict, cut, s, t) -> bool:
    gone = set(cut)
    if s in gone or t in gone:
        return False
    seen = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen and w not in gone:
                seen.add(w)
                queue.append(w)
    return t not in seen


def _edge_graph(inst: Instance) -> dict:
    """Graph on the edges of the complex, joined when they span a triangle."""
    adj: dict = {}
    for fc in inst.facets:
        for tri in combinations(fc, 3):
            es = list(combinations(tri, 2))
            for e in es:
                adj.setdefault(e, set()).update(x for x in es if x != e)
    return adj


def _as_node(x):
    return tuple(x) if isinstance(x, list) else x


def _check_connectivity(res: dict, adj: dict, bound: int) -> str | None:
    det = res["details"]
    if res["status"] != "pass" or det["bound"] != bound or det["connectivity"] < bound:
        return f"connectivity {det.get('connectivity')} against bound {bound}"
    cut = [_as_node(x) for x in det["minimum_cut"]]
    s, t = (_as_node(x) for x in det["separated_pair"])
    if len(cut) != det["connectivity"] or len(set(cut)) != len(cut):
        return "cut size differs from the reported connectivity"
    if not all(x in adj for x in cut) or not _separates(adj, cut, s, t):
        return "reported minimum cut does not separate its pair"
    return None


def check_analyze(inst: Instance, field_name: str | None, rc: int, rep: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    r = rep["results"]
    f = inst.f
    want_complex = {
        "void": False, "empty": False, "vertices": f[1],
        "dimension": inst.d - 1, "facets": f[-1], "pure": True,
    }
    if r["complex"] != want_complex:
        return f"complex summary {r['complex']}"
    if tuple(r["f_vector"]) != f:
        return f"f-vector {r['f_vector']} != {list(f)}"
    h = h_from_f(f)
    if tuple(r["h_vector"]) != h:
        return f"h-vector {r['h_vector']} != {list(h)}"
    chi = reduced_euler(f)
    if r["reduced_euler_characteristic"] != chi:
        return "reduced Euler characteristic"
    if inst.kind.sphere and (h != h[::-1] or chi != (-1) ** (inst.d - 1)):
        return "sphere with asymmetric h-vector or wrong Euler characteristic"
    if not r["pseudomanifold"]["ok"] or r["strong_components"] != {"count": 1, "pure": True}:
        return "pseudomanifold verdict"
    flag = r["flag"]
    if flag["ok"] != inst.kind.flag:
        return f"flag verdict {flag['ok']}"
    if not flag["ok"]:
        w = flag["witness"]
        adj = inst.graph()
        if (
            len(w) < 3
            or any(v not in adj[u] for u, v in combinations(w, 2))
            or any(set(w) <= set(fc) for fc in inst.facets)
        ):
            return f"non-flag witness {w} is not a minimal nonface of size >= 3"
    if field_name is not None:
        hom = r["homology"]
        if hom["field"] != field_name or tuple(hom["betti"]["values"]) != inst.kind.betti:
            return f"Betti numbers {hom['betti']}"
        sphere = inst.kind.sphere
        want = {
            "cohen_macaulay": sphere, "doubly_cohen_macaulay": sphere,
            "homology_sphere": sphere, "homology_manifold": True,
        }
        got = {k: hom[k]["ok"] for k in want}
        if got != want:
            return f"homology verdicts {got}"
    return None


def check_lb(inst: Instance, rc: int, rep: dict) -> str | None:
    r = rep["results"]
    if not inst.kind.flag:
        return None if rc == 4 and r["status"] == "not-applicable" else "lb on a non-flag input"
    d = inst.d
    want = [
        {"index": i, "value": inst.f[i], "bound": (1 << i) * comb(d, i), "ok": inst.f[i] >= (1 << i) * comb(d, i)}
        for i in range(d + 1)
    ]
    if rc != 0 or r["status"] != "pass" or r["details"]["rows"] != want:
        return f"lb report: exit {rc}, status {r['status']}"
    return None


def check_t1(inst: Instance, rc: int, rep: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    return _check_connectivity(rep["results"], inst.graph(), 2 * inst.d - 2)


def check_gk(inst: Instance, rc: int, rep: dict) -> str | None:
    if rc != 0:
        return f"exit code {rc}"
    k, d = 1, inst.d
    return _check_connectivity(rep["results"], _edge_graph(inst), 2 * (k + 1) * (d - k - 1))


def check_t2(inst: Instance, rc: int, rep: dict) -> str | None:
    r = rep["results"]
    det = r["details"]
    if rc != 0 or r["status"] != "pass":
        return f"t2: exit {rc}, status {r['status']}"
    if det["facets_checked"] != len(inst.facets):
        return f"facets_checked {det['facets_checked']} != {len(inst.facets)}"
    if sorted(tuple(e["facet"]) for e in det["results"]) != sorted(inst.facets):
        return "t2 did not root an embedding at every facet"
    if not all(e["ok"] for e in det["results"]):
        return "an embedding failed its verification"
    return None


def check_t3(inst: Instance, rc: int, rep: dict) -> str | None:
    r = rep["results"]
    if not inst.kind.flag:
        return None if rc == 4 and r["status"] == "not-applicable" else "t3 on a non-flag input"
    if rc != 0 or r["status"] != "pass":
        return f"t3: exit {rc}, status {r['status']}"
    det = r["details"]
    d = inst.d
    h = h_from_f(inst.f)
    if tuple(det["h_vector"]) != h:
        return "t3 h-vector"
    tight = all(h[i] == comb(d, i) for i in range(d + 1))
    if not tight:
        return None if det["cross_polytope_isomorphic"] is None else "isomorphism claimed without tightness"
    if det["cross_polytope_isomorphic"] is not True:
        return "tight h-vector without a cross-polytope bijection"
    m = dict(map(tuple, det["cross_polytope_mapping"]))
    if sorted(m) != inst.vertices or sorted(m.values()) != list(range(1, 2 * d + 1)):
        return "cross-polytope mapping is not a bijection onto 1..2d"
    for fc in inst.facets:
        img = sorted(m[v] for v in fc)
        # a cross-polytope facet picks one vertex from each antipodal pair {i, d+i}
        if len(set(img)) != d or len({(x - 1) % d for x in img}) != d:
            return f"bijection maps facet {fc} to non-facet {img}"
    return None


def check_walk(inst: Instance, a: int, b: int, avoid, rc: int, rep: dict) -> str | None:
    r = rep["results"]
    if rc != 0 or not r["verified"] or not r["avoidance_ok"]:
        return f"walk: exit {rc}"
    nodes = r["certificate"]["nodes"]
    wits = [tuple(w) for w in r["certificate"]["witness_facets"]]
    facet_set = set(inst.facets)
    if nodes[0] != a or nodes[-1] != b or set(nodes) & set(avoid):
        return "walk has wrong endpoints or meets its avoided set"
    if len(wits) != len(nodes) - 1:
        return "one witness per step is required"
    for (u, v), w in zip(zip(nodes, nodes[1:]), wits):
        if u == v or w not in facet_set or not {u, v} <= set(w):
            return f"step {u}-{v} is not an edge inside witness {w}"
    return None


def check_betti(inst: Instance, values) -> str | None:
    if tuple(values) != inst.kind.betti:
        return f"Betti numbers {tuple(values)} != {inst.kind.betti}"
    return None


# -- jobs ---------------------------------------------------------------------


@dataclass
class Job:
    """One user job: CLI argv, or a library Betti computation when argv is None."""

    label: str
    inst: Instance
    argv: list[str] | None
    check: object  # callable(rc, report_dict_or_values) -> error text or None
    field: str | None = None


def _analyze(inst, field_name=None):
    argv = ["analyze", inst.path] + (["--homology", field_name] if field_name else [])
    return Job(
        f"analyze {inst.name}" + (f" {field_name}" if field_name else ""), inst, argv,
        lambda rc, rep: check_analyze(inst, field_name, rc, rep),
    )


def _verify(theorem, inst, *extra):
    checker = {"lb": check_lb, "t1": check_t1, "t2": check_t2, "t3": check_t3, "gk": check_gk}[theorem]
    return Job(
        f"verify {theorem} {inst.name}", inst, ["verify", theorem, inst.path, *extra],
        lambda rc, rep: checker(inst, rc, rep),
    )


def _walks(inst: Instance, rng: random.Random, count: int) -> list[Job]:
    """Seeded walk queries: half flag mode, half face mode.

    Flag mode avoids any set of fewer than 2d-2 vertices; face mode avoids
    a face, or a set of fewer than d vertices.
    """
    d = inst.d
    verts = inst.vertices
    jobs = []
    for i in range(count):
        mode = "flag" if i % 2 == 0 else "face"
        if mode == "flag":
            avoid = rng.sample(verts, rng.randint(1, 2 * d - 3))
        elif rng.random() < 0.5:
            fc = rng.choice(inst.facets)
            avoid = rng.sample(fc, rng.randint(1, d))
        else:
            avoid = rng.sample(verts, rng.randint(1, d - 1))
        a, b = rng.sample([v for v in verts if v not in avoid], 2)
        argv = ["walk", inst.path, "--from", str(a), "--to", str(b),
                "--avoid", " ".join(map(str, sorted(avoid))), "--mode", mode]
        jobs.append(Job(
            f"walk {mode} {inst.name} {a}->{b} avoid {len(avoid)}", inst, argv,
            lambda rc, rep, a=a, b=b, avoid=avoid: check_walk(inst, a, b, avoid, rc, rep),
        ))
    return jobs


def _betti(inst, field_name):
    return Job(
        f"betti {inst.name} {field_name}", inst, None,
        lambda rc, values: check_betti(inst, values), field=field_name,
    )


# Each builder takes an instance factory and a random source, both tied to
# one relabelled copy of the instances, and returns the job list of one
# pass over that copy.  Passes take turns over COPIES copies, so a run's
# median pass time averages over several relabellings of each instance
# rather than the one the seed happens to give: a rank or a walk on one
# labelling can take 15% longer than on another.  A pass lasts 0.4 to
# 1.8 s on a 2.1 GHz Xeon core, so a run times many of them.

COPIES = 8


def _classify(inst, rng):
    jobs = [_analyze(inst("bary4")), _verify("lb", inst("bary4"))]
    for base in ("bary3", "cross5", "cross6", "cross7", "ico", "torus7", "btorus"):
        jobs += [_analyze(inst(base)), _verify("lb", inst(base))]
    return jobs


def _homology(inst, rng):
    return [
        _analyze(inst("cross5"), "gf2"),
        _analyze(inst("bary3"), "gf3"),
        _analyze(inst("cross5"), "rational"),
        _analyze(inst("ico"), "rational"),
        _analyze(inst("btorus"), "gf2"),
        _verify("t3", inst("cross5")),
        _verify("t3", inst("ico")),
        _verify("t3", inst("torus7")),
    ]


def _certify(inst, rng):
    bary3, bary4, cross6 = inst("bary3"), inst("bary4"), inst("cross6")
    return [
        *_walks(bary3, rng, 4),
        _verify("gk", cross6, "--k", "1"),
        _verify("gk", bary3, "--k", "1"),
        _verify("t2", cross6, "--all-facets"),
        _verify("t2", bary3, "--all-facets"),
        _verify("t1", bary4),
        _verify("t1", inst("cross7")),
        _verify("t1", bary3),
        *_walks(bary4, rng, 2),
    ]


def _betti_jobs(inst, rng):
    return [
        _betti(inst("bary4"), "gf2"),
        _betti(inst("bary4"), "gf3"),
        _betti(inst("cross7"), "gf2"),
        *(_betti(inst(base), fld) for base in ("bary3", "cross5") for fld in ("gf2", "gf3", "rational")),
    ]


def _tiny(inst, rng):
    """Harness self-test on the smallest instances; not a benchmark workload."""
    cross3, bary3 = inst("cross3"), inst("bary3")
    return [
        _analyze(cross3), _analyze(bary3, "gf2"), _analyze(inst("torus7")),
        _verify("lb", cross3), _verify("t1", bary3), _verify("t2", cross3, "--all-facets"),
        _verify("t3", cross3), _verify("gk", bary3, "--k", "1"),
        *_walks(bary3, rng, 2),
        _betti(cross3, "rational"), _betti(bary3, "gf3"),
    ]


def _roadmap(inst, rng):
    """The heavy single jobs behind the ROADMAP Baseline rows; one pass takes minutes.

    Not a benchmark workload: each job alone outlasts a timed run, so its
    time would measure the machine's speed swings more than the program.
    """
    bary4, bary5 = inst("bary4"), inst("bary5")
    return [
        _analyze(bary5), _verify("t1", bary5), _betti(bary5, "gf2"),
        _betti(bary4, "rational"), _analyze(bary4, "gf2"),
    ]


WORKLOADS = {
    "classify": _classify,
    "homology": _homology,
    "certify": _certify,
    "betti": _betti_jobs,
}
EXTRA_WORKLOADS = {"tiny": _tiny, "roadmap": _roadmap}


def setup(simplicial, workload: str, seed: int, workdir: str):
    """Build every instance of a workload and write COPIES relabellings of each.

    Returns one job list per copy, and the sizes of the instances.
    """
    builder = {**WORKLOADS, **EXTRA_WORKLOADS}[workload]
    copies = 1 if workload == "roadmap" else COPIES
    built: dict = {}

    def factory(copy):
        def inst(base):
            key = (base, copy)
            if key not in built:
                built[key] = make_instance(simplicial, base, copy, seed, workdir)
                got = len(built[key].facets)
                if got != built[key].f[-1]:
                    raise RuntimeError(f"{base}: generator gave {got} facets, theory {built[key].f[-1]}")
            return built[key]
        return inst

    rounds = [builder(factory(c), random.Random(f"{seed}/walks/{c}")) for c in range(copies)]
    sizes = {x.name: x.sizes() for (_, copy), x in built.items() if copy == 0}
    return rounds, sizes
