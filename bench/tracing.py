"""Per-layer tracing of qtchains, installed from outside the package.

Each layer is one module of the package.  The tracer replaces public
functions with wrappers and rebinds every module attribute that held the
original, because the modules import names directly (`builder.ti2`,
`flagpole.ti2`, `verify.ti2`, ...) and a call through a stale binding would
bypass the wrapper.

Three kinds of wrapper:

* span: coarse calls.  A span (name, start, end, parent) is kept in memory
  for each call and returned at the end.
* timed: frequent calls.  Self time is summed on the fly, no span per call.
* count: the innermost maps.  A call counter only.

Self time is a call's duration minus the time its traced callees took;
calls are strictly nested in one thread, so that is exactly the part of
the interval the child calls do not cover.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, kind); "Chain.x" names a method of verify.Chain.
TARGETS = [
    ("cli", "run", "span"),
    ("builder", "search_base_collection", "span"),
    ("builder", "search_chains", "span"),
    ("builder", "extend_all", "span"),
    ("builder", "build_context", "span"),
    ("builder", "build_flagpole_pair", "span"),
    ("builder", "save_collection", "span"),
    ("builder", "load_collection", "span"),
    ("builder", "validate_collection", "span"),
    ("flagpole", "is_flagpole", "span"),
    ("tails", "ti2", "span"),
    ("tails", "s_vectors", "span"),
    ("verify", "check_basic", "span"),
    ("verify", "check_local", "span"),
    ("verify", "check_extra", "span"),
    ("verify", "check_amh", "span"),
    ("verify", "amh_vectors", "span"),
    ("verify", "opposite_bruteforce", "span"),
    ("verify", "cat_n_mu", "span"),
    ("poly", "cat_n", "span"),
    ("dyck", "enumerate_deficit", "span"),
    ("verify", "Chain.elements_upto", "timed"),
    ("partitions", "partitions_of", "generator"),
    ("steps", "nu1", "count"),
    ("steps", "nd", "count"),
    ("steps", "nu", "count"),
    ("dyck", "class_from_partition", "count"),
    ("dyck", "partition_from_class", "count"),
]

# lru caches whose state is checked cold before timed work and reported after
CACHES = [
    ("dyck", "reduce"),
    ("dyck", "dinv"),
    ("tails", "ti2"),
    ("partitions", "count_partitions_max"),
]


def _module(name: str):
    return importlib.import_module(f"qtchains.{name}")


def cache_functions() -> dict:
    """The cached functions themselves; take them before Tracer.install rebinds the names."""
    return {f"{mod}.{attr}": getattr(_module(mod), attr, None) for mod, attr in CACHES}


def cache_stats(functions: dict) -> dict[str, dict[str, int]]:
    """hits, misses and currsize of each cache; zeros for a function without one."""
    out = {}
    for name, fn in functions.items():
        info = getattr(fn, "cache_info", None)
        c = info() if info else None
        out[name] = {
            "hits": c.hits if c else 0,
            "misses": c.misses if c else 0,
            "currsize": c.currsize if c else 0,
        }
    return out


class Tracer:
    """Holds the spans and counters of one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.items = 0  # elements returned by Chain.elements_upto
        self._slots: dict[int, int] = {}  # id(chain) -> longest prefix returned
        self._chains: list = []  # keeps ids of counted chains from being reused
        self._child_time: list[float] = []  # per open timed call
        self._open_spans: list[int] = []
        self._gen_depth = 0

    # ------------------------------------------------------------ install

    def install(self) -> None:
        """Wrap every target present in the package; absent ones stay at zero."""
        mods = [m for n, m in list(sys.modules.items()) if n == "qtchains" or n.startswith("qtchains.")]
        for mod_name, attr, kind in TARGETS:
            name = f"{mod_name}.{attr.split('.')[-1]}"
            mod = _module(mod_name)
            if attr.startswith("Chain."):
                cls = getattr(mod, "Chain")
                meth = attr.split(".", 1)[1]
                orig = getattr(cls, meth, None)
                if orig is not None:
                    setattr(cls, meth, self._wrap(name, orig, kind))
                continue
            orig = getattr(mod, attr, None)
            if orig is None:
                continue
            wrapped = self._wrap(name, orig, kind)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, wrapped)

    def _wrap(self, name: str, fn, kind: str):
        if kind == "count":
            return self._counting(name, fn)
        if kind == "generator":
            return self._generator(name, fn)
        wrapped = self._timed(name, fn, keep_span=kind == "span")
        if name == "verify.elements_upto":
            return self._elements(wrapped)
        return wrapped

    # ----------------------------------------------------------- wrappers

    def _counting(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, fn, keep_span: bool):
        calls, self_s = self.calls, self.self_s
        child_time, open_spans, spans = self._child_time, self._open_spans, self.spans

        def wrapper(*args, **kwargs):
            if keep_span:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, open_spans[-1] if open_spans else -1])
                open_spans.append(idx)
            child_time.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                dur = t1 - t0
                self_s[name] += dur - child_time.pop()
                if child_time:
                    child_time[-1] += dur
                calls[name] += 1
                if keep_span:
                    open_spans.pop()
                    spans[idx][1] = t0
                    spans[idx][2] = t1

        return wrapper

    def _elements(self, timed):
        """Chain.elements_upto: also count returned elements and distinct slots."""
        slots, chains = self._slots, self._chains

        def wrapper(chain, *args, **kwargs):
            out = timed(chain, *args, **kwargs)
            self.items += len(out)
            key = id(chain)
            if key not in slots:
                chains.append(chain)
                slots[key] = 0
            if len(out) > slots[key]:
                slots[key] = len(out)
            return out

        return wrapper

    def _generator(self, name: str, fn):
        """Time the outermost iteration of a recursive generator, piece by piece."""

        def pieces(it):
            self.calls[name] += 1
            while True:
                self._gen_depth += 1
                self._child_time.append(0.0)
                t0 = perf_counter()
                try:
                    x = next(it)
                except StopIteration:
                    return
                finally:
                    dur = perf_counter() - t0
                    self.self_s[name] += dur - self._child_time.pop()
                    if self._child_time:
                        self._child_time[-1] += dur
                    self._gen_depth -= 1
                yield x

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            return it if self._gen_depth else pieces(it)

        return wrapper

    # ------------------------------------------------------------ results

    def distinct_elements(self) -> int:
        """Distinct (chain, position) slots any elements_upto call returned."""
        return sum(self._slots.values())

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "elements_items": self.items,
            "elements_distinct": self.distinct_elements(),
            "spans": self.spans,
        }
