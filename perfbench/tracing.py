"""Spans around the package's layer boundaries, recorded from outside.

The tracer replaces a function by a timing wrapper under the name its
caller looks it up by (``ilc_sos.sdp.solve``, ``ilc_sos.freqdomain.compile_sos``,
``ilc_sos.sdp._Assembled.schur`` ...), so nothing in the package changes.
Several of those names are private.  A name that a later refactor removes
is recorded as missing and its metrics read zero; the benchmark keeps
running.

Spans stay in memory while the workload runs.  Each span knows its parent,
so the per-layer metrics and the per-solve attempt chains are derived after
the run: a layer's self time is its duration minus that of its children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "parent", "t0", "t1", "child_s", "outer", "attrs")

    def __init__(self, name, parent, outer):
        self.name = name
        self.parent = parent
        self.outer = outer          # no enclosing span of the same name
        self.child_s = 0.0
        self.attrs = {}
        self.t0 = _clock()
        self.t1 = None

    @property
    def dur(self) -> float:
        return self.t1 - self.t0

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s

    def ancestor(self, *names):
        s = self.parent
        while s is not None and s.name not in names:
            s = s.parent
        return s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[Span] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        outer = all(s.name != name for s in self._stack)
        s = Span(name, parent, outer)
        s.attrs.update(attrs)
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        finally:
            s.t1 = _clock()
            self._stack.pop()
            if parent is not None:
                parent.child_s += s.dur

    def wrap(self, owner, attr: str, name: str, record=None) -> None:
        """Replace ``owner.attr`` by a wrapper that runs it inside a span;
        ``record(span, args, kwargs, result)`` may attach attributes."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as s:
                out = fn(*args, **kwargs)
                if record is not None:
                    record(s, args, kwargs, out)
                return out

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, fn))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, fn = self._undo.pop()
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# what is wrapped


def _rec_compile(s, args, kwargs, prob):
    s.attrs["p"] = prob.n_equalities
    s.attrs["dims"] = list(prob.block_dims)


def _rec_solve(s, args, kwargs, sol):
    prob = args[0] if args else kwargs["problem"]
    s.attrs.update(p=prob.n_equalities, dims=list(prob.block_dims),
                   method=sol.method, status=sol.status, message=sol.message)


def _rec_ipm(s, args, kwargs, sol):
    init = kwargs.get("init_scale", args[4] if len(args) > 4 else 1.0)
    s.attrs.update(init_scale=float(init), iterations=int(sol.iterations),
                   status=sol.status, message=sol.message, trace=sol.trace)


def _rec_bisection(s, args, kwargs, sol):
    s.attrs["probes"] = int(sol.iterations)


def _rec_recertify(s, args, kwargs, out):
    s.attrs["method"] = out[0].method


def _rec_synth(s, args, kwargs, res):
    s.attrs["k_levels"] = len(res.k_trace)


def _rec_oracle_freq(s, args, kwargs, out):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    s.attrs["points"] = grid.lambda_points.shape[0] * grid.freq_points.shape[0]


def _rec_oracle_time(s, args, kwargs, out):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    s.attrs["points"] = grid.lambda_points.shape[0]


def _rec_replay(s, args, kwargs, trace):
    s.attrs["trials"] = len(trace.error_norms) - 1


def install(tracer: Tracer) -> None:
    """Patch every layer boundary the per-layer metrics are derived from."""
    from ilc_sos import freqdomain, sdp, simulate, timedomain, verify

    table = [
        (freqdomain, "synth_freq_robust", "freqdomain.synth", _rec_synth),
        (freqdomain, "synth_freq_nominal", "freqdomain.synth", _rec_synth),
        (freqdomain, "jury_stability", "freqdomain.jury", None),
        (timedomain, "synth_time", "timedomain.synth", _rec_synth),
        (freqdomain, "build_T_hat", "polyalg.build", None),
        (freqdomain, "tau_decompose", "polyalg.build", None),
        (freqdomain, "substitute_squares", "polyalg.build", None),
        (timedomain, "build_M", "polyalg.build", None),
        (timedomain, "substitute_squares", "polyalg.build", None),
        (freqdomain, "compile_sos", "soscompiler.compile", _rec_compile),
        (timedomain, "compile_sos", "soscompiler.compile", _rec_compile),
        (sdp, "check_certificate", "soscompiler.check", None),
        (sdp, "solve", "sdp.solve", _rec_solve),
        (sdp, "_solve_ipm", "sdp.ipm", _rec_ipm),
        (sdp, "solve_bisection", "sdp.bisection", _rec_bisection),
        (sdp, "ensure_certified", "sdp.ensure_certified", _rec_recertify),
        (sdp, "_chol", "sdp.chol", None),
        (sdp, "_max_step", "sdp.step", None),
        (verify, "sampled_gamma_freq", "verify.oracle", _rec_oracle_freq),
        (verify, "sampled_gamma_time", "verify.oracle", _rec_oracle_time),
        (simulate, "run_ilc", "simulate.replay", _rec_replay),
    ]
    assembled = getattr(sdp, "_Assembled", None)
    if assembled is None:
        tracer.missing.append("ilc_sos.sdp._Assembled")
    else:
        table += [(assembled, "__init__", "sdp.assemble", None),
                  (assembled, "schur", "sdp.schur", None)]
    for owner, attr, name, record in table:
        tracer.wrap(owner, attr, name, record)


# ---------------------------------------------------------------------------
# derived metrics


def _total(spans, name) -> float:
    return sum(s.dur for s in spans if s.name == name and s.outer)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values, name -> (value, unit)."""
    spans = tracer.spans
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    ipm = by.get("sdp.ipm", [])
    ipm_s = _total(spans, "sdp.ipm")
    iters = sum(s.attrs.get("iterations", 0) for s in ipm)
    clean = sum(1 for s in ipm if s.attrs.get("status") == "optimal"
                and not s.attrs.get("message"))
    restarts = [s for s in ipm if s.parent is not None
                and s.parent.name == "sdp.solve" and s.attrs.get("init_scale", 1.0) != 1.0]
    recert_resolves = [s for s in ipm if s.parent is not None
                       and s.parent.name == "sdp.ensure_certified"]

    recert_s = 0.0
    for ens in by.get("sdp.ensure_certified", []):
        kids = [s for s in recert_resolves if s.parent is ens]
        if kids:
            # the pinned re-solves start once the first check has failed
            recert_s += ens.t1 - min(s.t0 for s in kids)
    restart_s = sum(s.dur for s in restarts)
    bisection_s = _total(spans, "sdp.bisection")
    solve_s = _total(spans, "sdp.solve")
    compiles = by.get("soscompiler.compile", [])
    synth_f = [s for s in by.get("freqdomain.synth", []) if s.outer]
    synth_t = [s for s in by.get("timedomain.synth", []) if s.outer]

    sec, cnt, one = "s", "count", "1"
    return {
        "sdp.ipm_s": (ipm_s, sec),
        "sdp.ipm_iters": (iters, cnt),
        "sdp.ipm_ms_per_iter": (1e3 * ipm_s / iters if iters else 0.0, "ms"),
        "sdp.schur_s": (_total(spans, "sdp.schur"), sec),
        "sdp.chol_s": (_total(spans, "sdp.chol"), sec),
        "sdp.step_s": (_total(spans, "sdp.step"), sec),
        "sdp.ipm_other_s": (sum(s.self_s for s in ipm), sec),
        "sdp.ipm_calls": (len(ipm), cnt),
        "sdp.restarts": (len(restarts), cnt),
        "sdp.ipm_clean_ratio": (clean / len(ipm) if ipm else 0.0, one),
        "sdp.bisection_s": (bisection_s, sec),
        "sdp.bisection_probes": (sum(s.attrs.get("probes", 0)
                                     for s in by.get("sdp.bisection", [])), cnt),
        "sdp.fallback_share": ((restart_s + bisection_s + recert_s) / solve_s
                               if solve_s else 0.0, one),
        "sdp.solve_s": (solve_s, sec),
        "sdp.assemble_s": (_total(spans, "sdp.assemble"), sec),
        "sdp.recertify_s": (recert_s, sec),
        "sdp.recertify_resolves": (len(recert_resolves), cnt),
        "soscompiler.compile_s": (_total(spans, "soscompiler.compile"), sec),
        "soscompiler.equalities": (sum(s.attrs.get("p", 0) for s in compiles), cnt),
        "soscompiler.gram_vars": (sum(n * (n + 1) // 2 for s in compiles
                                      for n in s.attrs.get("dims", ())), cnt),
        "soscompiler.block_dim_max": (max((n for s in compiles
                                           for n in s.attrs.get("dims", ())), default=0), cnt),
        "soscompiler.check_s": (_total(spans, "soscompiler.check"), sec),
        "polyalg.build_s": (_total(spans, "polyalg.build"), sec),
        "freqdomain.synth_s": (sum(s.dur for s in synth_f), sec),
        "freqdomain.k_levels": (sum(s.attrs.get("k_levels", 0) for s in synth_f), cnt),
        "freqdomain.jury_s": (_total(spans, "freqdomain.jury"), sec),
        "timedomain.synth_s": (sum(s.dur for s in synth_t), sec),
        "timedomain.k_levels": (sum(s.attrs.get("k_levels", 0) for s in synth_t), cnt),
        "verify.oracle_s": (_total(spans, "verify.oracle"), sec),
        "verify.points": (sum(s.attrs.get("points", 0)
                              for s in by.get("verify.oracle", [])), cnt),
        "simulate.replay_s": (_total(spans, "simulate.replay"), sec),
        "simulate.trials": (sum(s.attrs.get("trials", 0)
                                for s in by.get("simulate.replay", [])), cnt),
    }


_TAGS = ("reduced accuracy", "rescaled restart", "bisection fallback")


def attempt_chains(tracer: Tracer) -> list:
    """One record per solve (and per certificate re-solve) with every IPM
    attempt beneath it, in the order they ran."""
    records = {}
    k_next = {}
    order = []
    for s in tracer.spans:
        if s.name in ("sdp.solve", "sdp.ensure_certified"):
            design = s.ancestor("design")
            label = design.attrs["label"] if design is not None else None
            if s.name == "sdp.solve":
                k = k_next.get(id(design), 0)
                k_next[id(design)] = k + 1
                msg = s.attrs.get("message", "")
                rec = {"design": label, "kind": "solve", "k": k,
                       "p": s.attrs.get("p"), "block_dims": s.attrs.get("dims"),
                       "method": s.attrs.get("method"), "status": s.attrs.get("status"),
                       "message": msg,
                       "tags": [tag for tag in _TAGS if tag in msg]}
            else:
                rec = {"design": label, "kind": "certify",
                       "method": s.attrs.get("method"),
                       "tags": ["recertify"] if "recertify" in (s.attrs.get("method") or "")
                       else []}
            rec.update(seconds=s.dur, ipm_iters=0, attempts=[])
            records[id(s)] = rec
            order.append(rec)
        elif s.name == "sdp.ipm":
            rec = records.get(id(s.ancestor("sdp.solve", "sdp.ensure_certified")))
            if rec is None:
                continue
            # an attempt that raised has no recorded outcome
            attempt = {"via": s.parent.name, "seconds": s.dur, "status": "raised"}
            attempt.update(s.attrs)
            rec["ipm_iters"] += attempt.get("iterations", 0)
            rec["attempts"].append(attempt)
    # a certificate record that re-solved nothing says nothing new
    return [r for r in order if r["kind"] == "solve" or r["attempts"]]
