"""Spans around the public functions of each package module, installed from outside.

A traced run replaces each public function where its callers look it up
(every ``simplicial.*`` module attribute bound to it, or the method on
``SimplicialComplex``) by a wrapper that records one span: name, start,
end, parent span and job id.  Spans are kept in flat arrays in memory and
written out as JSON lines when the run ends.  ``uninstall`` restores every
original, so untraced runs execute the package unchanged.
"""

from __future__ import annotations

import gzip
import json
import sys
from array import array
from time import perf_counter_ns

# (span name, module or None for SimplicialComplex methods, attribute)
TARGETS = (
    ("formats.read_complex_file", "simplicial.formats", "read_complex_file"),
    ("core.build", None, "__init__"),
    ("core.faces", None, "faces"),
    ("core.faces", None, "num_faces"),
    ("core.faces", None, "f_vector"),
    ("core.is_flag", None, "is_flag"),
    ("core.strong_components", None, "strong_components"),
    ("core.is_pseudomanifold", None, "is_pseudomanifold"),
    ("core.link", None, "link"),
    ("core.delete", None, "delete"),
    ("homology.reduced_betti_numbers", "simplicial.homology", "reduced_betti_numbers"),
    ("homology.boundary_matrix", "simplicial.homology", "boundary_matrix"),
    ("linalg.rank", "simplicial.linalg", "rank"),
    ("homology.is_cohen_macaulay", "simplicial.homology", "is_cohen_macaulay"),
    ("homology.is_m_cohen_macaulay", "simplicial.homology", "is_m_cohen_macaulay"),
    ("homology.is_homology_sphere", "simplicial.homology", "is_homology_sphere"),
    ("homology.is_homology_manifold", "simplicial.homology", "is_homology_manifold"),
    ("graphs.graph_of", "simplicial.graphs", "graph_of"),
    ("graphs.face_adjacency_graph", "simplicial.graphs", "face_adjacency_graph"),
    ("graphs.vertex_connectivity", "simplicial.graphs", "vertex_connectivity"),
    ("graphs.strong_walk_avoiding", "simplicial.graphs", "strong_walk_avoiding"),
    ("graphs.verify_strong_walk", "simplicial.graphs", "verify_strong_walk"),
    ("graphs.verify_subdivision", "simplicial.graphs", "verify_subdivision"),
    ("theorems.cross_polytope_subdivision", "simplicial.theorems", "cross_polytope_subdivision"),
    ("theorems.strong_walk_avoiding_set", "simplicial.theorems", "strong_walk_avoiding_set"),
    ("generators.is_isomorphic", "simplicial.generators", "is_isomorphic"),
    ("cli.main", "simplicial.cli", "main"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in TARGETS))


def _matrix_entries(m) -> int:
    return len(m) * len(m[0]) if m else 0


# Work counted at a span boundary: (span name) -> (metric suffix, f(args, result)).
COUNTERS = {
    "linalg.rank": (("entries", lambda a, r: _matrix_entries(a[0])),),
    "homology.boundary_matrix": (("entries", lambda a, r: _matrix_entries(r)),),
    "graphs.vertex_connectivity": (
        ("nodes", lambda a, r: len(a[0].nodes)),
        ("edges", lambda a, r: len(a[0].edges)),
    ),
    "graphs.verify_subdivision": (("ok", lambda a, r: int(bool(r))),),
    "graphs.verify_strong_walk": (("ok", lambda a, r: int(bool(r))),),
}

# Spans whose useful outcome is building nothing: a call with no core.build
# child was answered from the complex's own cache.
CACHED = ("core.link", "core.delete")


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    out = []
    for name in SPAN_NAMES:
        out += [(f"{name}.self_s", "s"), (f"{name}.total_s", "s"),
                (f"{name}.calls", "count"), (f"{name}.errors", "count")]
    for name in CACHED:
        out.append((f"{name}.hit_ratio", "ratio"))
    for name, counters in COUNTERS.items():
        for suffix, _ in counters:
            if suffix == "ok":
                out.append((f"{name}.ok_ratio", "ratio"))
            else:
                out.append((f"{name}.{suffix}", "count"))
    out += [("trace.spans", "count"), ("trace.untraced_mix_s", "s"),
            ("trace.traced_mix_s", "s"), ("trace.overhead_s", "s")]
    return out


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.name_ix = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("q")
        self.end = array("q")
        self.error = bytearray()
        self.outer = bytearray()  # 1 when no enclosing span has the same name
        self.job_id = -1
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._active = [0] * len(SPAN_NAMES)
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = SPAN_NAMES.index(name)
        counters = COUNTERS.get(name, ())
        stack, active, counts = self._stack, self._active, self.counts
        name_ix, parent, job, start, end = self.name_ix, self.parent, self.job, self.start, self.end
        error, outer = self.error, self.outer

        def traced(*args, **kwargs):
            i = len(start)
            name_ix.append(nid)
            parent.append(stack[-1] if stack else -1)
            job.append(self.job_id)
            outer.append(active[nid] == 0)
            error.append(0)
            end.append(0)
            active[nid] += 1
            stack.append(i)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                error[i] = 1
                raise
            finally:
                end[i] = perf_counter_ns()
                stack.pop()
                active[nid] -= 1
            for suffix, count in counters:
                key = f"{name}.{suffix}"
                counts[key] = counts.get(key, 0) + count(args, result)
            return result

        return traced

    def install(self) -> None:
        from simplicial.core import SimplicialComplex

        modules = [m for n, m in sys.modules.items() if n == "simplicial" or n.startswith("simplicial.")]
        for name, module, attr in TARGETS:
            if module is None:
                orig = SimplicialComplex.__dict__[attr]
                self._restore.append((SimplicialComplex, attr, orig))
                setattr(SimplicialComplex, attr, self._wrap(name, orig))
                continue
            orig = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------------

    def summarize(self) -> tuple[dict, list[str]]:
        """Per-layer metrics, and a list of nesting violations (empty when sound)."""
        n = len(self.start)
        k = len(SPAN_NAMES)
        child = [0] * n
        built = bytearray(n)
        build_id = SPAN_NAMES.index("core.build")
        problems = []
        start, end, parent, job, name_ix = self.start, self.end, self.parent, self.job, self.name_ix
        for i in range(n):
            p = parent[i]
            if p < 0:
                continue
            if not (start[p] <= start[i] <= end[i] <= end[p]) or job[p] != job[i]:
                if len(problems) < 10:
                    problems.append(f"span {i} ({SPAN_NAMES[name_ix[i]]}) escapes its parent {p}")
            child[p] += end[i] - start[i]
            if name_ix[i] == build_id:
                built[p] = 1
        self_ns = [0] * k
        total_ns = [0] * k
        calls = [0] * k
        errors = [0] * k
        misses = [0] * k
        for i in range(n):
            nid = name_ix[i]
            dur = end[i] - start[i]
            self_ns[nid] += dur - child[i]
            if self.outer[i]:
                total_ns[nid] += dur
            calls[nid] += 1
            errors[nid] += self.error[i]
            misses[nid] += built[i]
        metrics = {}
        for nid, name in enumerate(SPAN_NAMES):
            metrics[f"{name}.self_s"] = self_ns[nid] / 1e9
            metrics[f"{name}.total_s"] = total_ns[nid] / 1e9
            metrics[f"{name}.calls"] = calls[nid]
            metrics[f"{name}.errors"] = errors[nid]
        for name in CACHED:
            nid = SPAN_NAMES.index(name)
            metrics[f"{name}.hit_ratio"] = (calls[nid] - misses[nid]) / calls[nid] if calls[nid] else 0.0
        for name, counters in COUNTERS.items():
            nid = SPAN_NAMES.index(name)
            for suffix, _ in counters:
                value = self.counts.get(f"{name}.{suffix}", 0)
                if suffix == "ok":
                    metrics[f"{name}.ok_ratio"] = value / calls[nid] if calls[nid] else 0.0
                else:
                    metrics[f"{name}.{suffix}"] = value
        metrics["trace.spans"] = n
        return metrics, problems

    def write_jsonl(self, path: str, header: dict) -> None:
        """The header line, then one JSON object per span.

        Span ids count from 0 after the header; times are relative to the
        first span, and job ids index the header's job list.
        """
        t0 = self.start[0] if len(self.start) else 0
        chunk = []
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                chunk.append(
                    f'{{"id":{i},"name":"{SPAN_NAMES[self.name_ix[i]]}","job":{self.job[i]},'
                    f'"parent":{self.parent[i]},"start_ns":{self.start[i] - t0},'
                    f'"end_ns":{self.end[i] - t0},"error":{self.error[i]}}}\n'
                )
                if len(chunk) >= 65536:
                    fh.write("".join(chunk))
                    chunk.clear()
            fh.write("".join(chunk))
