"""End-to-end non-termination analysis and certificate emission.

``analyze`` takes a parsed program and returns a verdict: NO (proved
non-terminating, with a witness whose simulated prefix re-verifies
against the rules it uses) or MAYBE (nothing found within the configured
depth, word-length and time budgets).  A NO is only ever reported after
the simulated prefix has been re-executed step by step.

One driver searches either the input rules themselves (``raw``) or one
unfolded pool per depth, running each technique's witness search on the
pool and re-verifying every witness it yields.

All output is deterministic: certificates for the same input and
configuration are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Optional, Union

from .detection import (
    Budget,
    EmbeddingKind,
    LoopWitness,
    PairSweep,
    RecurrentPair,
    find_embedding,
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
from .terms import ROOT, render_position, renderer
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


@dataclass
class AnalysisConfig:
    techniques: tuple[str, ...] = (TECHNIQUE_LOOP, TECHNIQUE_RECPAIR)
    unfold_depth: int = DEFAULT_DEPTH
    max_word_len: Optional[int] = None  # raw only; default 3
    simulate_steps: int = 5
    timeout: Optional[float] = 10.0  # seconds for the whole analysis
    raw: bool = False

    def word_len(self) -> int:
        """Longest rule word searched: 1 in an unfolded pool, whose rules
        already stand for words of input rules."""
        if not self.raw:
            return 1
        return 3 if self.max_word_len is None else self.max_word_len


@dataclass
class Verdict:
    answer: str  # "NO" or "MAYBE"
    technique: Optional[str] = None
    witness: Union[LoopWitness, RecurrentPair, None] = None
    simulated_prefix: Optional[Chain] = None
    used_program: Optional[Program] = None
    stats: dict = field(default_factory=dict)


def _rule_loop_witness(r, kind: EmbeddingKind) -> Optional[LoopWitness]:
    """Context-free loop check of a single candidate rule against itself."""
    if kind is EmbeddingKind.INS:
        if not r.trs_usable:
            return None
        emb = find_embedding(EmbeddingKind.INS, r.lhs, r.rhs[0], full_context=False)
        if emb is None:
            return None
        # built by hand: rewrite_at would first match the rule against itself
        step = Step(r.id, ROOT, r.rhs[0])
        return LoopWitness(emb, Chain(r.lhs, [step], Semantics.TRS))
    start = (r.lhs,)
    step = rewrite_at(r, start, (1,), Semantics.LP_NARROW)
    emb = find_embedding(EmbeddingKind.MG, start, step.target, full_context=False)
    if emb is None:
        return None
    return LoopWitness(emb, Chain(start, [step], Semantics.LP_NARROW))


def unfold(program: Program, depth: int, resume: Optional[Unfolding] = None) -> list:
    """The derived-rule pool of ``program`` at ``depth``: dependency-pair
    unfolding for a TRS, binary unfolding for a logic program.  With
    ``resume``, the unfolding continues from where it last stopped."""
    if program.mode is Mode.TRS:
        return unfold_trs(program, depth, resume=resume)
    return binary_unfold(program, depth, resume=resume)


def _pools(
    program: Program, cfg: AnalysisConfig, stats: dict, deadline: Optional[float]
):
    """Yield the programs to search: the input itself under ``raw``,
    otherwise the unfolded pool of each depth in turn, so cheap witnesses
    are found before the pool grows large.  Each depth resumes the
    unfolding of the one before; unfolding raises ``DeadlineError`` once
    ``deadline`` (a ``time.monotonic()`` reading, or None) has passed."""
    if cfg.raw:
        stats["unfolding"] = "none"
        yield program
        return
    trs = program.mode is Mode.TRS
    stats["unfolding"] = "dependency-pair" if trs else "binary"
    resume = Unfolding()
    resume.deadline = deadline
    for depth in range(cfg.unfold_depth + 1):
        pool = unfold(program, depth, resume)
        if trs and depth == 0:
            # every pair built, variants included
            stats["dependency_pairs"] = len(resume.dependency_pairs)
        stats["unfold_depth"] = depth
        stats["unfolded_rules"] = len(pool)
        if depth == cfg.unfold_depth:
            # nothing resumes the unfolding now: free its variant keys and
            # tables before the deepest pool is searched
            resume = None
        yield unfolded_program(pool, program.mode)


def _loop_witnesses(cand: Program, cfg: AnalysisConfig, budget: Budget):
    """Loop candidates: one full-context word search on the input rules,
    or a context-free self-loop check of every unfolded rule."""
    if cfg.raw:
        lw = find_loop(cand, cfg.word_len(), budget=budget)
        if lw is not None:
            yield lw
        return
    kind = EmbeddingKind.INS if cand.mode is Mode.TRS else EmbeddingKind.MG
    for r in cand.rules:
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


_WITNESSES = {TECHNIQUE_LOOP: _loop_witnesses, TECHNIQUE_RECPAIR: _recpair_witnesses}


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


def _mark_timed_out(budgets: dict[str, Budget], stats: dict) -> bool:
    """Mark exhausted each budget whose deadline has passed, though its
    search may never have ticked; True when every budget is exhausted."""
    for tech, budget in budgets.items():
        if not budget.exhausted and not budget.tick(0):
            stats.setdefault("exhausted", []).append(tech)
    return all(b.exhausted for b in budgets.values())


def analyze(program: Program, cfg: Optional[AnalysisConfig] = None) -> Verdict:
    cfg = cfg or AnalysisConfig()
    stats: dict = {"mode": program.mode.value, "input_rules": len(program.rules)}
    for tech in cfg.techniques:
        if tech not in _WITNESSES:
            raise ValueError(f"unknown technique {tech!r}")
    if len(set(cfg.techniques)) < len(cfg.techniques):
        raise ValueError(f"repeated technique in {cfg.techniques!r}")
    # settings that would search nothing
    if cfg.unfold_depth < 0:
        raise ValueError(f"unfold_depth must be non-negative, not {cfg.unfold_depth!r}")
    if cfg.max_word_len is not None and cfg.max_word_len < 1:
        raise ValueError(f"max_word_len must be at least 1, not {cfg.max_word_len!r}")
    # 0 would read as no deadline, and nan never passes
    if cfg.timeout is not None and not (math.isfinite(cfg.timeout) and cfg.timeout > 0):
        raise ValueError(f"timeout must be finite and positive, not {cfg.timeout!r}")
    # one deadline bounds every search and the unfolding
    deadline = None if cfg.timeout is None else time.monotonic() + cfg.timeout
    budgets = {t: Budget(deadline) for t in cfg.techniques}
    # the recurrent-pair search of each depth skips the pairs the depth
    # before swept with no hit
    searches = dict(_WITNESSES)
    searches[TECHNIQUE_RECPAIR] = partial(_recpair_witnesses, resume=PairSweep())
    try:
        for cand in _pools(program, cfg, stats, deadline):
            for tech in cfg.techniques:
                budget = budgets[tech]
                if budget.exhausted:
                    continue
                witnesses = searches[tech](cand, cfg, budget)
                verdicts = (_verified(tech, cand, w, cfg, stats) for w in witnesses)
                v = next((v for v in verdicts if v is not None), None)
                if budget.exhausted:
                    stats.setdefault("exhausted", []).append(tech)
                if v is not None:
                    return v
            if _mark_timed_out(budgets, stats):
                break
    except DeadlineError:
        _mark_timed_out(budgets, stats)
    except ResourceLimitError as exc:
        stats["resource_limit"] = str(exc)
    return Verdict("MAYBE", stats=stats)


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
