"""End-to-end non-termination analysis and certificate emission.

``analyze`` takes a parsed program and returns a verdict: NO (proved
non-terminating, with a witness whose simulated prefix re-verifies
against the rules it uses) or MAYBE (nothing found within the configured
depth, word-length and time budgets).  A NO is only ever reported after
the simulated prefix has been re-executed step by step.

One driver searches either the input rules themselves (``raw``) or one
unfolded pool per depth, running each technique's witness search on the
pool and re-verifying every witness it yields.  The searches resume from
the depth before: the loop check and the recurrent-pair precheck see only
the rules a pool gained (semi-naive evaluation).

All output is deterministic: certificates for the same input and
configuration are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from typing import Optional, Union

from .detection import (
    Budget,
    Embedding,
    EmbeddingKind,
    LoopWitness,
    PairSweep,
    RecurrentPair,
    find_loop,
    find_recurrent_pair,
    infinite_chain_prefix,
    witness_chain,
)
from .errors import DeadlineError, ResourceLimitError, UnrollError
from .rewriting import (
    Chain,
    Mode,
    Program,
    Semantics,
    Step,
    rewrite_at,
    verify_chain,
)
from .substitution import match
from .terms import App, HOLE, ROOT, render_position, renderer
from .unfolding import (
    DEFAULT_DEPTH,
    Unfolding,
    binary_unfold,
    unfold_trs,
    unfolded_program,
    unmark_root,
)

TECHNIQUE_LOOP = "loop"
TECHNIQUE_RECPAIR = "recpair"
_TECHNIQUES = (TECHNIQUE_LOOP, TECHNIQUE_RECPAIR)


@dataclass(frozen=True)
class AnalysisConfig:
    """The settings of one analysis, each checked once, here: a config
    that would search nothing or never stop is refused when it is built."""

    techniques: tuple[str, ...] = _TECHNIQUES
    unfold_depth: int = DEFAULT_DEPTH
    max_word_len: Optional[int] = None  # raw only; default 3
    simulate_steps: int = 5  # 0 still simulates one step
    timeout: Optional[float] = 10.0  # seconds for the whole analysis
    raw: bool = False

    def __post_init__(self):
        if not self.techniques:
            raise ValueError("no technique to run")
        for tech in self.techniques:
            if tech not in _TECHNIQUES:
                raise ValueError(f"unknown technique {tech!r}")
        if len(set(self.techniques)) < len(self.techniques):
            raise ValueError(f"repeated technique in {self.techniques!r}")
        # settings that would search nothing
        if self.unfold_depth < 0:
            raise ValueError(f"unfold_depth must be non-negative, not {self.unfold_depth!r}")
        if self.max_word_len is not None and self.max_word_len < 1:
            raise ValueError(f"max_word_len must be at least 1, not {self.max_word_len!r}")
        # an unfolded pool is searched over one-rule words only
        if self.max_word_len is not None and not self.raw:
            raise ValueError("max_word_len needs raw")
        if self.simulate_steps < 0:
            raise ValueError(
                f"simulate_steps must be non-negative, not {self.simulate_steps!r}"
            )
        # 0 would read as no deadline, and nan never passes
        if self.timeout is not None and not (
            math.isfinite(self.timeout) and self.timeout > 0
        ):
            raise ValueError(f"timeout must be finite and positive, not {self.timeout!r}")

    def word_len(self) -> int:
        """Longest rule word searched: 1 in an unfolded pool, whose rules
        already stand for words of input rules."""
        if not self.raw:
            return 1
        return 3 if self.max_word_len is None else self.max_word_len


@dataclass
class Verdict:
    """The answer of one analysis.  ``used_program`` is the last program
    searched, the one the verdict rests on: the input rules under
    ``raw``, otherwise the unfolded pool that ``stats["unfold_depth"]``
    and ``stats["unfolded_rules"]`` describe, where the certificate's rule
    ids resolve.  It is None only when no program was searched at all."""

    answer: str  # "NO" or "MAYBE"
    technique: Optional[str] = None
    witness: Union[LoopWitness, RecurrentPair, None] = None
    simulated_prefix: Optional[Chain] = None
    used_program: Optional[Program] = None
    stats: dict = field(default_factory=dict)


def _rule_loop_witness(r, kind: EmbeddingKind) -> Optional[LoopWitness]:
    """Context-free loop check of a single candidate rule against itself:
    the whole right-hand side is an instance of the left-hand side (ins),
    or the whole resolvent is more general than the goal (mg), so the
    embedding's context is the bare hole."""
    if kind is EmbeddingKind.INS:
        if not r.trs_usable:
            return None
        theta = match(r.lhs, r.rhs[0])
        if theta is None:
            return None
        # built by hand: rewrite_at would first match the rule against itself
        step = Step(r.id, ROOT, r.rhs[0])
        emb = Embedding(kind, App(HOLE), theta)
        return LoopWitness(emb, Chain(r.lhs, [step], Semantics.TRS))
    start = (r.lhs,)
    step = rewrite_at(r, start, (1,), Semantics.LP_NARROW)
    theta = match(step.target, start)
    if theta is None:
        return None
    emb = Embedding(kind, (App(HOLE),), theta)
    return LoopWitness(emb, Chain(start, [step], Semantics.LP_NARROW))


def _pools(
    program: Program, cfg: AnalysisConfig, stats: dict, deadline: Optional[float]
):
    """Yield the programs to search, each with the index of its first
    rule new since the program before: the input itself under ``raw``,
    otherwise the unfolded pool of each depth in turn, so cheap witnesses
    are found before the pool grows large.  Each depth resumes the
    unfolding of the one before: dependency-pair unfolding for a TRS,
    binary unfolding for a logic program, each pool extending the one
    before with its rules kept in order.  From depth 1 on, unfolding
    raises ``DeadlineError`` once ``deadline`` (a ``time.monotonic()``
    reading, or None) has passed; the pool of the depth before is then
    the last one searched."""
    if cfg.raw:
        stats["unfolding"] = "none"
        yield program, 0
        return
    trs = program.mode is Mode.TRS
    stats["unfolding"] = "dependency-pair" if trs else "binary"
    unfold = unfold_trs if trs else binary_unfold
    resume = Unfolding()
    resume.deadline = deadline
    fresh = 0
    for depth in range(cfg.unfold_depth + 1):
        pool = unfold(program, depth, resume=resume)
        if trs and depth == 0:
            # every pair built, variants included
            stats["dependency_pairs"] = len(resume.dependency_pairs)
        stats["unfold_depth"] = depth
        stats["unfolded_rules"] = len(pool)
        if depth == cfg.unfold_depth:
            # nothing resumes the unfolding now: free its variant keys and
            # tables before the deepest pool is searched
            resume = None
        yield unfolded_program(pool, program.mode), fresh
        fresh = len(pool)


def _loop_witnesses(cand: Program, fresh: int, cfg: AnalysisConfig, budget: Budget):
    """Loop candidates: one full-context word search on the input rules,
    or a context-free self-loop check of each unfolded rule from index
    ``fresh`` on, the rules the pool gained.

    A rejected witness is not tried again: its prefix and its
    verification depend only on its rule and on rule ids that a deeper
    pool keeps.
    """
    if cfg.raw:
        lw = find_loop(cand, cfg.word_len(), budget=budget)
        if lw is not None:
            yield lw
        return
    kind = EmbeddingKind.INS if cand.mode is Mode.TRS else EmbeddingKind.MG
    for r in cand.rules[fresh:]:
        if not budget.tick():
            return
        lw = _rule_loop_witness(r, kind)
        if lw is not None:
            yield lw


def _recpair_witnesses(
    cand: Program, cfg: AnalysisConfig, budget: Budget, resume: PairSweep
):
    """The first recurrent pair of ``cand``; over one-rule words the search
    resumes from the pool of the depth before."""
    words = cfg.word_len()
    resume = resume if words == 1 else None
    rp = find_recurrent_pair(cand, words, budget, resume=resume)
    if rp is not None:
        yield rp


def _verified(tech: str, cand: Program, witness, cfg, stats) -> Optional[Verdict]:
    """NO if the simulated prefix of ``witness`` re-verifies in ``cand``."""
    steps = max(1, cfg.simulate_steps)
    if tech == TECHNIQUE_LOOP:
        try:
            prefix = infinite_chain_prefix(cand, witness, steps)
        except UnrollError:
            prefix = None
    else:
        prefix = witness_chain(witness, witness.n2, witness.n2, steps)
    if prefix is None or not verify_chain(cand, prefix):
        stats.setdefault("rejected", []).append(tech)
        return None
    return Verdict("NO", tech, witness, prefix, cand, stats)


def analyze(program: Program, cfg: Optional[AnalysisConfig] = None) -> Verdict:
    cfg = cfg or AnalysisConfig()
    stats: dict = {"mode": program.mode.value, "input_rules": len(program.rules)}
    # one deadline bounds every search and the unfolding
    deadline = None if cfg.timeout is None else time.monotonic() + cfg.timeout
    budgets = {t: Budget(deadline) for t in cfg.techniques}
    sweep = PairSweep()  # what the recurrent-pair search swept before
    cand = None  # the last program searched
    try:
        for cand, fresh in _pools(program, cfg, stats, deadline):
            for tech in cfg.techniques:
                budget = budgets[tech]
                if budget.exhausted:
                    continue
                if tech == TECHNIQUE_LOOP:
                    witnesses = _loop_witnesses(cand, fresh, cfg, budget)
                else:
                    witnesses = _recpair_witnesses(cand, cfg, budget, sweep)
                verdicts = (_verified(tech, cand, w, cfg, stats) for w in witnesses)
                v = next((v for v in verdicts if v is not None), None)
                if budget.exhausted:
                    stats.setdefault("exhausted", []).append(tech)
                if v is not None:
                    return v
            if all(b.exhausted for b in budgets.values()):
                break
    except DeadlineError as exc:
        # the clock ends every technique still running
        stats["deadline"] = str(exc)
        running = [t for t, b in budgets.items() if not b.exhausted]
        stats.setdefault("exhausted", []).extend(running)
    except ResourceLimitError as exc:
        stats["resource_limit"] = str(exc)
    return Verdict("MAYBE", used_program=cand, stats=stats)


# ---------------------------------------------------------------------------
# Certificates


def _witness_dict(v: Verdict, show) -> Optional[dict]:
    w = v.witness
    if w is None:
        return None
    if isinstance(w, LoopWitness):
        return {
            "kind": "loop",
            "word": list(w.word),
            "start": show(w.start),
            "start_unmarked": show(unmark_root(w.start))
            if not isinstance(w.start, tuple)
            else None,
            "end": show(w.end),
            "embedding": w.embedding.kind.value,
            "context": show(w.embedding.context),
            "binder": w.embedding.binder.text(show),
        }
    return {
        "kind": "recurrent-pair",
        "word1": list(w.word1),
        "word2": list(w.word2),
        "c1": show(w.c1),
        "c2": show(w.c2),
        "exponents": [w.n1, w.n2, w.n3, w.n4],
        "base": show(w.s),
        "regrown_base": show(w.s) if w.t_is_s else w.x.name,
        "x": w.x.name,
        "y": w.y.name,
    }


def _prefix_dicts(v: Verdict, show) -> list[dict]:
    if v.simulated_prefix is None:
        return []
    states = [show(x) for x in v.simulated_prefix.states()]
    return [
        {
            "source": source,
            "rule": st.rule_id,
            "position": render_position(st.position),
            "target": target,
        }
        for st, source, target in zip(v.simulated_prefix.steps, states, states[1:])
    ]


def _used_rules(v: Verdict, show) -> dict:
    if v.used_program is None or v.simulated_prefix is None:
        return {}
    ids = sorted({st.rule_id for st in v.simulated_prefix.steps})
    return {rid: v.used_program.rule(rid).text(show) for rid in ids}


# Stats that are a pure function of input and configuration; wall-clock
# dependent diagnostics stay out of certificates so that equal runs
# produce byte-identical output.
_CERT_STATS = ("mode", "input_rules", "unfolding", "dependency_pairs")
_CERT_STATS_NO = _CERT_STATS + ("unfold_depth", "unfolded_rules")


def certificate_dict(v: Verdict) -> dict:
    """The certificate of ``v``.  Every term in it is rendered by one
    ``renderer``, so a subterm object the witness, the rules and the
    prefix states share is rendered once per certificate."""
    keys = _CERT_STATS_NO if v.answer == "NO" else _CERT_STATS
    show = renderer()
    return {
        "answer": v.answer,
        "technique": v.technique,
        "witness": _witness_dict(v, show),
        "rules": _used_rules(v, show),
        "simulated_prefix": _prefix_dicts(v, show),
        "stats": {k: v.stats[k] for k in keys if k in v.stats},
    }


def emit_certificate(v: Verdict, as_json: bool = False) -> str:
    """Render ``certificate_dict(v)``; the first line of the text form is
    the answer."""
    cert = certificate_dict(v)
    if as_json:
        return json.dumps(cert, indent=2, sort_keys=False) + "\n"
    lines = [cert["answer"]]
    if cert["technique"]:
        lines.append(f"technique: {cert['technique']}")
    for key, val in (cert["witness"] or {}).items():
        if val is None:
            continue
        shown = " ".join(val) if isinstance(val, list) and key.startswith("word") else val
        lines.append(f"{key}: {shown}")
    if cert["rules"]:
        lines.append("rules:")
        lines.extend(f"  {rule}" for rule in cert["rules"].values())
    prefix = cert["simulated_prefix"]
    if prefix:
        lines.append("simulated prefix:")
        lines.append(f"  {prefix[0]['source']}")
        for st in prefix:
            lines.append(f"  =[{st['rule']}@{st['position']}]=> {st['target']}")
    lines.extend(f"stat {key}: {val}" for key, val in cert["stats"].items())
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> dict:
    """Round-trip helper for the JSON certificate form."""
    data = json.loads(text)
    if data.get("answer") not in ("NO", "MAYBE"):
        raise ValueError("certificate answer must be NO or MAYBE")
    return data
