"""In-memory span tracer for the benchmark's traced passes.

The tracer replaces, for the duration of a traced pass, the names that
``nonterm.analysis`` calls for each layer (and
``nonterm.detection.match_recurrent_pattern``, which the recurrent-pair
search calls per candidate pair) with wrappers that record a span:
name, start, end and the span that was open when it began.  The worker
opens the parse, analyze and certificate spans itself.  Wrappers keep
references to their arguments and results; every count that needs real
work (variant keys, term sizes) is computed after the pass, so it does
not fall inside any span.

A layer's self time is the time its spans cover minus the time covered
by their child spans.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

import nonterm.analysis as analysis
import nonterm.detection as detection
from nonterm.errors import ResourceLimitError
from nonterm.terms import canonical, term_size

LAYERS = ("parsing", "unfolding", "loop", "recpair", "prefix", "verify", "certificate", "analysis")
MAX_DEPTH = 4  # deepest unfolding any corpus program asks for

# name -> (module that calls it, layer)
_WRAPPED = {
    "unfold_trs": (analysis, "unfolding"),
    "binary_unfold": (analysis, "unfolding"),
    "_rule_loop_witness": (analysis, "loop"),
    "find_loop": (analysis, "loop"),
    "find_recurrent_pair": (analysis, "recpair"),
    "match_recurrent_pattern": (detection, "recpair"),
    "infinite_chain_prefix": (analysis, "prefix"),
    "witness_chain": (analysis, "prefix"),
    "verify_chain": (analysis, "verify"),
}
_OWN = {"parse": "parsing", "analyze": "analysis", "emit": "certificate"}


def _variant_key(*terms):
    return canonical(tuple(terms))


def _nodes(state) -> int:
    """Node count of a term, or of all atoms of a goal."""
    if isinstance(state, tuple):
        return sum(term_size(t) for t in state)
    return term_size(state)


class Tracer:
    """Collects the spans and boundary counts of one traced pass.

    Arguments and results seen during an analysis are kept until
    ``end_analysis``, which reduces them to counts outside every span and
    outside the timed region, then drops them.
    """

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent, depth]
        self._stack: list[int] = []
        self._depth = 0
        self._saved: dict[str, object] = {}
        # records of the current analysis
        self._unfolds: list[tuple] = []  # (depth, rules)
        self._loop_candidates: list[tuple] = []  # (depth, rule)
        self._pairs: list[tuple] = []  # (depth, chain1, chain2)
        self._prefixes: list = []  # chains
        # counts over the pass
        self.counts: dict[str, int] = defaultdict(int)
        self.verify_rules: list[int] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        layer = _OWN.get(name) or _WRAPPED[name][1]
        self.spans.append([layer, time.perf_counter(), 0.0, parent, self._depth])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def begin_analysis(self) -> None:
        self._depth = 0
        self._unfolds, self._loop_candidates, self._pairs, self._prefixes = [], [], [], []

    def end_analysis(self, certificate: str | None) -> None:
        c = self.counts
        if certificate is not None:
            c["certificate.bytes"] += len(certificate.encode())
        for d, pool in self._unfolds:
            c["unfolding.rules"] += len(pool)
            c["unfolding.rebuilt"] += sum(1 for u in pool if u.depth < d)
        first_depth: dict = {}
        for d, rule in self._loop_candidates:
            c["loop.candidates"] += 1
            c["loop.rechecks"] += first_depth.setdefault(_variant_key(rule.lhs, *rule.rhs), d) < d
        first_depth = {}
        for d, c1, c2 in self._pairs:
            key = (_variant_key(c1.start, c1.end), _variant_key(c2.start, c2.end))
            c["recpair.pairs"] += 1
            c["recpair.rechecks"] += first_depth.setdefault(key, d) < d
        for chain in self._prefixes:
            c["prefix.steps"] += len(chain.steps)
            c["prefix.peak_nodes"] = max(
                c["prefix.peak_nodes"], *(_nodes(t) for t in chain.states())
            )
        self.begin_analysis()

    # -- wrappers ----------------------------------------------------------

    def install(self) -> None:
        for name, (module, _) in _WRAPPED.items():
            self._saved[name] = getattr(module, name)
            setattr(module, name, self._wrap(name, self._saved[name]))

    def uninstall(self) -> None:
        for name, (module, _) in _WRAPPED.items():
            setattr(module, name, self._saved[name])
        self._saved.clear()

    def _wrap(self, name, fn):
        if name in ("unfold_trs", "binary_unfold"):
            def wrapper(program, depth, *args, **kwargs):
                self._depth = depth
                with self.span(name):
                    pool = fn(program, depth, *args, **kwargs)
                self._unfolds.append((depth, pool))
                return pool
        elif name == "_rule_loop_witness":
            def wrapper(rule, kind):
                self._loop_candidates.append((self._depth, rule))
                with self.span(name):
                    return fn(rule, kind)
        elif name == "match_recurrent_pattern":
            def wrapper(chain1, chain2):
                self._pairs.append((self._depth, chain1, chain2))
                with self.span(name):
                    rp = fn(chain1, chain2)
                self.counts["recpair.hits"] += rp is not None
                return rp
        elif name in ("infinite_chain_prefix", "witness_chain"):
            def wrapper(*args, **kwargs):
                try:
                    with self.span(name):
                        chain = fn(*args, **kwargs)
                except ResourceLimitError:
                    self.counts["prefix.resource_limits"] += 1
                    raise
                self._prefixes.append(chain)
                return chain
        elif name == "verify_chain":
            def wrapper(program, chain):
                with self.span(name):
                    ok = fn(program, chain)
                self.counts["verify.steps"] += len(chain.steps)
                self.counts["verify.rejects"] += not ok
                self.verify_rules.append(len(program.rules))
                return ok
        else:
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
        return wrapper

    # -- summary -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer figures of the pass; call after ``uninstall``."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        depth_s = defaultdict(float)
        for i, (layer, start, end, _, depth) in enumerate(self.spans):
            own = end - start - child_time[i]
            self_s[layer] += own
            if layer == "unfolding":
                depth_s[depth] += own
        traced = sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

        def ratio(a, b):
            return a / b if b else 0.0

        c = self.counts
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = self_s[layer]
            out[f"{layer}.share"] = ratio(self_s[layer], traced)
        out["analysis.self_s"] = out.pop("analysis.s")
        for d in range(MAX_DEPTH + 1):
            out[f"unfolding.d{d}.s"] = depth_s[d]
            out[f"unfolding.d{d}.share"] = ratio(depth_s[d], self_s["unfolding"])
        out["unfolding.rules"] = c["unfolding.rules"]
        out["unfolding.rebuild_share"] = ratio(c["unfolding.rebuilt"], c["unfolding.rules"])
        out["loop.candidates"] = c["loop.candidates"]
        out["loop.recheck_share"] = ratio(c["loop.rechecks"], c["loop.candidates"])
        out["recpair.pairs"] = c["recpair.pairs"]
        out["recpair.pairs_per_s"] = ratio(c["recpair.pairs"], self_s["recpair"])
        out["recpair.recheck_share"] = ratio(c["recpair.rechecks"], c["recpair.pairs"])
        out["recpair.hits"] = c["recpair.hits"]
        out["prefix.steps"] = c["prefix.steps"]
        out["prefix.peak_nodes"] = c["prefix.peak_nodes"]
        out["prefix.resource_limits"] = c["prefix.resource_limits"]
        out["prefix.power_cache_entries"] = len(detection._power_cache)
        out["verify.steps"] = c["verify.steps"]
        out["verify.program_rules"] = ratio(sum(self.verify_rules), len(self.verify_rules))
        out["verify.us_per_step"] = ratio(self_s["verify"], c["verify.steps"]) * 1e6
        out["verify.rejects"] = c["verify.rejects"]
        out["certificate.bytes"] = c["certificate.bytes"]
        return out
