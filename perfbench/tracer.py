"""Per-layer spans recorded from outside qglab.

While a ``Tracer`` is installed, each public function named in ``LAYERS`` is
replaced, in every qglab module that binds it, by a wrapper that records a
span: name, start, end, parent span, pass and labels (instance name and n, or
the Fock dimension).  ``FiniteQuantumGroup.gns`` and ``.block_decomposition``
are wrapped on the class.  Spans stay in memory until ``write_jsonl``;
``restore`` puts every original function back.

A span's self time is its duration less the durations of its direct child
spans; calls run one at a time, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import itertools
import json
import operator
import sys
import time
from collections import defaultdict

# layer (the qglab module) -> wrapped functions; "Class.method" names a method
LAYERS = {
    "qgroup": ("validate", "operator_norm", "FiniteQuantumGroup.gns",
               "FiniteQuantumGroup.block_decomposition"),
    "builders": ("builtin_instance", "from_function_algebra",
                 "from_group_algebra"),
    "convolution": ("convolve", "sharp", "star_l1"),
    "corep": ("random_invertible_corep", "unitarize", "is_corep",
              "inverse_corep", "essential_data", "corep_product", "cb_norm",
              "pi_of"),
    "duality": ("build_w", "build_dual", "biduality",
                "multiplier_from_coefficient", "pairing_identity_check"),
    "catalog": ("corep_catalog", "unitary_corepresentation"),
    "fock": ("build_fock", "free_action", "amplified_sum", "compression_norm",
             "pi_norm_search", "norm_equivalence", "khintchine_check",
             "cb_vs_bounded_probe"),
}

SUITES = ("validate", "duality", "corep", "multiplier", "unitarize",
          "khintchine", "noncb")

# Spans whose first argument is a quantum-group instance that qglab caches
# work on: a call on an instance already seen in the pass counts as a hit.
HIT_RATIO = {"qgroup.gns", "qgroup.block_decomposition", "duality.build_w",
             "duality.build_dual", "catalog.corep_catalog"}

# Size of the object a span returns.
SIZES = {"fock.build_fock": lambda F: F.dim,
         "fock.free_action": lambda op: op.matrix.nnz}

# Reported stats of each span, in report order.
_REPORTED = {
    "qgroup.validate": "calls self_s",
    "qgroup.gns": "calls self_s hit_ratio",
    "qgroup.block_decomposition": "calls self_s hit_ratio",
    "qgroup.operator_norm": "calls self_s",
    "builders.builtin_instance": "calls self_s",
    "builders.from_function_algebra": "self_s",
    "builders.from_group_algebra": "self_s",
    "convolution.convolve": "calls self_s",
    "convolution.sharp": "calls",
    "convolution.star_l1": "calls",
    **{"corep." + f: "calls self_s" for f in LAYERS["corep"]},
    "duality.build_w": "calls self_s hit_ratio",
    "duality.build_dual": "calls self_s hit_ratio",
    "duality.biduality": "calls self_s",
    "duality.multiplier_from_coefficient": "calls self_s",
    "duality.pairing_identity_check": "calls self_s",
    "catalog.corep_catalog": "calls self_s hit_ratio",
    "catalog.unitary_corepresentation": "calls self_s",
    "fock.build_fock": "calls self_s dim_sum",
    "fock.free_action": "calls self_s nnz_sum",
    "fock.amplified_sum": "calls self_s",
    "fock.compression_norm": "calls self_s errors",
    "fock.pi_norm_search": "calls self_s",
    "fock.norm_equivalence": "self_s",
    "fock.khintchine_check": "self_s",
    "fock.cb_vs_bounded_probe": "self_s",
    **{"suite." + s: "s self_s" for s in SUITES},
}

# stat -> (unit, better)
_STAT_UNITS = {
    "calls": ("count", "lower"),
    "self_s": ("s", "lower"),
    "s": ("s", "lower"),
    "hit_ratio": ("1", "higher"),
    "errors": ("count", "lower"),
    "dim_sum": ("count", "lower"),
    "nnz_sum": ("count", "lower"),
}

# Traced pass time, and traced minus untraced pass time, from one traced run.
OVERHEAD_METRICS = [("trace.pass_s", "s", "lower"),
                    ("trace.overhead_s", "s", "lower")]


def metric_specs():
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for span, stats in _REPORTED.items():
        for stat in stats.split():
            out.append(("%s.%s" % (span, stat),) + _STAT_UNITS[stat])
    return out + OVERHEAD_METRICS


def _qglab_modules():
    import qglab.builders, qglab.catalog, qglab.convolution  # noqa: E401,F401
    import qglab.corep, qglab.duality, qglab.fock, qglab.qgroup  # noqa: E401,F401
    import qglab.suite  # noqa: F401
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "qglab" or name.startswith("qglab."))]


class Tracer:
    """Spans of the qglab calls made while installed, grouped by pass."""

    def __init__(self, workload):
        self.workload = workload
        self.spans = []   # (id, parent, name, start, end, pass, label, error, hit, size)
        self.origin = time.perf_counter()
        self._stack = []
        self._ids = itertools.count()
        self._pass = None
        self._seen = {}
        self._patches = []

    # -- installation ------------------------------------------------------

    def install(self):
        from qglab.fock import FockSpace
        from qglab.qgroup import FiniteQuantumGroup
        self._label_types = (FiniteQuantumGroup, FockSpace)
        self._labelers = {}
        mods = _qglab_modules()
        bindings = defaultdict(list)
        for m in mods:
            for attr, val in vars(m).items():
                bindings[id(val)].append((m, attr))
        for layer, funcs in LAYERS.items():
            home = sys.modules["qglab." + layer]
            for fname in funcs:
                name = "%s.%s" % (layer, fname.rpartition(".")[2])
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[meth]
                    self._patch(cls, meth, orig, self._wrap(name, orig))
                    continue
                orig = getattr(home, fname)
                wrapper = self._wrap(name, orig)
                for owner, attr in bindings[id(orig)]:
                    self._patch(owner, attr, orig, wrapper)

    def _patch(self, owner, attr, orig, wrapper):
        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def bindings(self):
        """(owner, attribute, original) of every wrapper currently installed."""
        return list(self._patches)

    # -- passes and spans ----------------------------------------------------

    @contextlib.contextmanager
    def traced_pass(self, index):
        """Install the wrappers and record a root span for pass ``index``."""
        self._pass = index
        self._seen = {}
        try:
            with self.installed(), self.span("pass"):
                yield
        finally:
            self._pass = None
            self._seen = {}

    @contextlib.contextmanager
    def span(self, name):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        error = True
        t0 = time.perf_counter()
        try:
            yield
            error = False
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1, self._pass, None,
                               error, None, None))

    def _labeler(self, a):
        """How to label an argument like ``a``: the quantum group it is or
        belongs to, or the Fock space it is or acts on; None if neither."""
        for attr in (None, "owner", "space"):
            obj = a if attr is None else getattr(a, attr, None)
            if isinstance(obj, self._label_types):
                get = (lambda x: x) if attr is None else operator.attrgetter(attr)
                return lambda x: (getattr(get(x), "name", None), get(x).dim)
        return None

    def _label(self, args, kwargs):
        labelers = self._labelers
        for a in itertools.chain(args, kwargs.values()):
            t = type(a)
            if t not in labelers:
                labelers[t] = self._labeler(a)
            if labelers[t] is not None:
                return labelers[t](a)
        return None

    def _hit(self, name, obj):
        seen = self._seen.setdefault(name, {})
        if id(obj) in seen:
            return True
        seen[id(obj)] = obj          # held, so the id is not reused in the pass
        return False

    def _wrap(self, name, fn):
        stack, spans, ids = self._stack, self.spans, self._ids
        clock = time.perf_counter
        hit_ratio = name in HIT_RATIO
        size = SIZES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1] if stack else None
            label = self._label(args, kwargs)
            hit = self._hit(name, args[0]) if hit_ratio else None
            stack.append(sid)
            out = None
            error = True
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                error = False
                return out
            finally:
                t1 = clock()
                stack.pop()
                if label is None and not error:
                    # builders and build_fock: label by what they built
                    label = self._label((out,), {})
                spans.append((sid, parent, name, t0, t1, self._pass, label,
                              error, hit, size(out) if size and not error else None))

        return wrapper

    # -- reduction -----------------------------------------------------------

    def pass_stats(self):
        """{pass: {span name: {calls, time_s, self_s, hits, errors, size}}}."""
        child = defaultdict(float)
        for sid, parent, name, t0, t1, *_ in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out = defaultdict(lambda: defaultdict(lambda: dict(
            calls=0, time_s=0.0, self_s=0.0, hits=0, errors=0, size=0)))
        for sid, parent, name, t0, t1, p, label, error, hit, size in self.spans:
            st = out[p][name]
            st["calls"] += 1
            st["time_s"] += t1 - t0
            st["self_s"] += t1 - t0 - child[sid]
            st["hits"] += bool(hit)
            st["errors"] += error
            st["size"] += size or 0
        return out

    def metrics(self):
        """Every per-layer metric but the overhead ones, averaged per pass."""
        per_pass = self.pass_stats()
        n = max(1, len(per_pass))
        empty = dict(calls=0, time_s=0.0, self_s=0.0, hits=0, errors=0, size=0)
        key = {"calls": "calls", "self_s": "self_s", "s": "time_s",
               "errors": "errors", "dim_sum": "size", "nnz_sum": "size"}
        out = {}
        for name, unit, _ in metric_specs():
            if name.startswith("trace."):
                continue
            span, _, stat = name.rpartition(".")
            stats = [per_pass[p].get(span, empty) for p in per_pass]
            if stat == "hit_ratio":
                calls = sum(s["calls"] for s in stats)
                value = sum(s["hits"] for s in stats) / calls if calls else 0.0
            else:
                value = sum(s[key[stat]] for s in stats) / n
            out[name] = {"value": value, "unit": unit}
        return out

    def write_jsonl(self, path):
        """Write the spans as gzip-compressed JSON lines."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, parent, name, t0, t1, p, label, error, hit, size in self.spans:
                row = {"id": sid, "parent": parent, "name": name,
                       "start": t0 - self.origin, "end": t1 - self.origin,
                       "workload": self.workload, "pass": p, "labels": {}}
                if label is not None:
                    if label[0] is None:
                        row["labels"]["fock_dim"] = label[1]
                    else:
                        row["labels"].update(instance=label[0], n=label[1])
                if error:
                    row["error"] = True
                if hit is not None:
                    row["hit"] = hit
                fh.write(json.dumps(row) + "\n")
