"""One pass of a workload through the layers of gtlc, optionally traced.

A pass takes each input in turn through the `gtlc analyze` path (source
text to per-module verdicts, no module trusted) and the `gtlc optimize`
path (source text to the optimized core program), then evaluates the
untyped baseline, the unoptimized and the optimized program back to back
in rotating order.  Only the public entry points of the layers are called.

The calls that `compute_verdicts` and `optimize_program` make into other
layers are reached by wrapping the names they look up in the `optimize`
module for the length of the pass.  In every pass the wrappers keep each
analyzed slice and its blame set for counting; in a traced pass they also
open a span, nested under the verdict and rewrite spans, as the benchmark
does around every layer call of its own.  A wrapped name that no call of
the pass reached is reported, since its layer would silently drop out of
the figures.

Counts that need extra work (abstract states, tree sizes) are taken after
an input's timed paths, outside every span.
"""

from __future__ import annotations

import contextlib
import gc
import statistics
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter

from gtlc import interp, optimize
from gtlc.analysis import DEFAULT_BUDGET, reachable_states
from gtlc.bench import answers_agree
from gtlc.frontend import check_wellformed, parse_program
from gtlc.optimize import compute_verdicts, optimize_program
from gtlc.syntax import App, If, Lam, Let, Mon
from gtlc.translate import compile_program

from speed import SpeedProbe
from workloads import CONFIGS, FUEL, Workload, answer_key

# Names `optimize` resolves at call time, and the span each call gets.
_WRAPPED = (("slice_for_module", "optimize.slice"),
            ("compile_program", "translate.compile"),
            ("analyze", "analysis.analyze"))

_OUTCOMES = ((interp.BlamedA, "blamed"), (interp.StuckA, "stuck"),
             (interp.OutOfFuelA, "out_of_fuel"))


class Tracer:
    """Spans kept in memory, one entry per span in each parallel list, so a
    span adds no object the garbage collector has to scan."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.pids: list[str | None] = []
        self.parents: list[int] = []      # index of the enclosing span, or -1
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._open: list[int] = []

    def span(self, name: str, pid: str | None) -> "_Span":
        return _Span(self, name, pid)

    def current_pid(self) -> str | None:
        return self.pids[self._open[-1]] if self._open else None

    def as_rows(self) -> list[tuple]:
        return list(zip(self.names, self.pids, self.parents, self.starts, self.ends))

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for parent, start, end in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                own[parent] -= end - start
        return own


class _Span:
    __slots__ = ("tracer", "name", "pid", "index")

    def __init__(self, tracer: Tracer, name: str, pid: str | None) -> None:
        self.tracer, self.name, self.pid = tracer, name, pid

    def __enter__(self) -> None:
        t = self.tracer
        self.index = len(t.names)
        t.names.append(self.name)
        t.pids.append(self.pid)
        t.parents.append(t._open[-1] if t._open else -1)
        t.ends.append(0.0)
        t._open.append(self.index)
        t.starts.append(perf_counter())

    def __exit__(self, *exc) -> None:
        t = self.tracer
        t.ends[self.index] = perf_counter()
        t._open.pop()


class NullTracer:
    _NULL = contextlib.nullcontext()

    def span(self, name: str, pid: str | None) -> contextlib.nullcontext:
        return self._NULL

    def current_pid(self) -> None:
        return None


class StageError(Exception):
    """A layer call that raised, tagged with the span name of the call."""

    def __init__(self, stage: str, exc: BaseException) -> None:
        super().__init__(stage)
        self.stage = stage
        self.detail = _describe(exc)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class PassResult:
    traced: bool
    # (path, input, rep) or (config, input, 0) -> (wall, reference-speed)
    # seconds; an evaluation's are its medians over the pass's rounds.
    times: dict = field(default_factory=dict)
    e2e_scaled_s: float = 0.0  # all measured calls of the pass, at reference speed
    probe: SpeedProbe = field(default_factory=SpeedProbe)
    counters: Counter = field(default_factory=Counter)      # compared across passes
    layer_counts: Counter = field(default_factory=Counter)  # traced passes only
    attempted: int = 0
    failures: list[tuple[str, str, str]] = field(default_factory=list)
    unreached: list[str] = field(default_factory=list)  # wrapped layers never called
    tracer: Tracer | None = None
    rows: list[dict] = field(default_factory=list)


@dataclass
class _Collected:
    """The trees one input produced, kept only until its counts are taken,
    so that no input's garbage collection pays for another's trees."""
    analyzed: list = field(default_factory=list)   # (root, BlameSet, on verify path)
    compiled: list = field(default_factory=list)   # CompiledProgram
    parsed: list = field(default_factory=list)     # Program
    optimized: list = field(default_factory=list)  # optimized core roots
    on_verify: bool = False                        # inside the verify path
    calls: Counter = field(default_factory=Counter)  # per wrapped span name, whole pass

    def clear(self) -> None:
        for part in (self.analyzed, self.compiled, self.parsed, self.optimized):
            part.clear()


def run_pass(work: Workload, pass_index: int, seed: int, traced: bool) -> PassResult:
    """Each input in turn: both compile-side paths, then its evaluation rounds."""
    gc.collect()
    res = PassResult(traced)
    units: list[tuple] = []  # (path or config, input, rep or round, start, seconds)
    tracer = Tracer() if traced else NullTracer()
    rows = []
    with _wrapped_layers(tracer) as got:
        for k, inp in enumerate(work.inputs):
            res.attempted += 1
            got.clear()
            stage = "bench.verify"
            # Any exception fails the input, tagged with its stage, and
            # never ends the run.
            try:
                for rep in range(work.compile_reps):
                    res.probe.maybe()
                    units.append(("verify", k, rep, *_verify_path(inp, tracer, res, got)))
                    res.probe.maybe()
                    program, report, t0, dt = _optimize_path(inp, work, tracer, res, got)
                    units.append(("optimize", k, rep, t0, dt))
                roots = _prepare(inp, program, tracer, got)
                outcomes = _evaluate(k, inp, roots, work.eval_rounds, seed + pass_index + k,
                                     tracer, res, units)
                stage = "bench.check"
                problem = _check(inp, outcomes)
                stage = "bench.count"
                _census(res, got, traced)
                row = {"pid": inp.pid, "modules": len(program.modules),
                       "monitors": report.monitors_before,
                       "eval": _count_outcomes(res.counters, outcomes)}
            except StageError as err:
                res.failures.append((inp.pid, err.stage, err.detail))
                continue
            except Exception as exc:
                res.failures.append((inp.pid, stage, _describe(exc)))
                continue
            if problem:
                res.failures.append((inp.pid, *problem))
            rows.append(row)
        if rows:  # with no input through, an unreached layer says nothing
            res.unreached = sorted(name for name, n in got.calls.items() if n == 0)
    res.probe.probe()
    _reduce(res, units)
    res.counters["failed"] = len({pid for pid, _, _ in res.failures})
    if traced:
        res.tracer = tracer
        res.rows = _add_split(rows, tracer)
    return res


def _verify_path(inp, tracer, res, got) -> tuple[float, float]:
    """`gtlc analyze`: parse, check, and every module's verdict with no
    module trusted.  Returns the path's start and wall time."""
    pid = inp.pid
    stage = "frontend.parse"
    got.on_verify = True
    t0 = perf_counter()
    try:
        with tracer.span("bench.verify", pid):
            with tracer.span(stage, pid):
                program, diags = parse_program(inp.text)
            stage = "frontend.wf"
            with tracer.span(stage, pid):
                diags = diags + check_wellformed(program)
            _reject(diags, res)
            stage = "optimize.verdicts"
            with tracer.span(stage, pid):
                verdicts = compute_verdicts(program, trust_typed=False, budget=DEFAULT_BUDGET)
        dt = perf_counter() - t0
        stage = "bench.count"
        res.counters["verify.pairs_proven"] += sum(len(v.safe_against) for v in verdicts)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc
    finally:
        got.on_verify = False
    got.parsed.append(program)
    return t0, dt


def _optimize_path(inp, work, tracer, res, got):
    """`gtlc optimize`: parse, check, verdicts, rewrite.  Returns the
    program, the optimization report and the path's start and wall time."""
    pid = inp.pid
    stage = "frontend.parse"
    t0 = perf_counter()
    try:
        with tracer.span("bench.optimize", pid):
            with tracer.span(stage, pid):
                program, diags = parse_program(inp.text)
            stage = "frontend.wf"
            with tracer.span(stage, pid):
                diags = diags + check_wellformed(program)
            _reject(diags, res)
            stage = "optimize.verdicts"
            with tracer.span(stage, pid):
                verdicts = compute_verdicts(program, trust_typed=work.trust_typed,
                                            budget=DEFAULT_BUDGET)
            stage = "optimize.rewrite"
            with tracer.span(stage, pid):
                optimized, report = optimize_program(
                    program, trust_typed=work.trust_typed, budget=DEFAULT_BUDGET,
                    verdicts=verdicts)
        dt = perf_counter() - t0
        stage = "bench.count"
        _count_report(res.counters, report)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc
    got.parsed.append(program)
    got.optimized.append(optimized.root)
    return program, report, t0, dt


def _reject(diags, res) -> None:
    res.counters["frontend.diagnostics"] += len(diags)
    if diags:
        raise ValueError(f"{len(diags)} diagnostics, first: {diags[0]}")


def _count_report(c: Counter, report) -> None:
    c["optimize.monitors_before"] += report.monitors_before
    c["optimize.monitors_after"] += report.monitors_after
    for kind, n in report.counts().items():
        c[f"optimize.{kind}"] += n
    for v in report.verdicts:
        c["optimize.pairs_proven"] += len(v.safe_against)
        c["optimize.exhausted"] += v.exhausted


def _prepare(inp, program, tracer, got) -> dict:
    """The baseline and unoptimized programs to evaluate beside the optimized one."""
    pid = inp.pid
    stage = "frontend.parse"
    try:
        with tracer.span(stage, pid):
            base, diags = parse_program(inp.base_text)
        stage = "frontend.wf"
        with tracer.span(stage, pid):
            diags = diags + check_wellformed(base)
        if diags:
            raise ValueError(f"baseline diagnostics: {diags[0]}")
        stage = "translate.compile"
        with tracer.span(stage, pid):
            base_cp = compile_program(base)
        with tracer.span(stage, pid):
            unopt_cp = compile_program(program)
    except StageError:
        raise
    except Exception as exc:
        raise StageError(stage, exc) from exc
    got.parsed.append(base)
    got.compiled.extend((base_cp, unopt_cp))
    return {"base": base_cp.root, "unopt": unopt_cp.root, "opt": got.optimized[-1]}


def _evaluate(k, inp, roots, rounds, shift, tracer, res, units) -> dict:
    """The input's three programs back to back, once per round, in an order
    that rotates with the round, the input, the pass and the seed.  Records
    each evaluation; returns the first round's (answer, metrics, seconds)
    per configuration."""
    first = {}
    traced = isinstance(tracer, Tracer)
    for r in range(rounds):
        j = (shift + r) % len(CONFIGS)
        for cfg in CONFIGS[j:] + CONFIGS[:j]:
            root = roots[cfg]
            res.probe.maybe()
            t0 = perf_counter()
            try:
                if traced:
                    with tracer.span(f"interp.eval_{cfg}", inp.pid):
                        answer, m = interp.evaluate(root, fuel=FUEL)
                else:
                    answer, m = interp.evaluate(root, fuel=FUEL)
            except Exception as exc:
                raise StageError(f"interp.eval_{cfg}", exc) from exc
            dt = perf_counter() - t0
            units.append((cfg, k, r, t0, dt))
            if r == 0:
                first[cfg] = (answer, m, dt)
    return first


def _reduce(res, units) -> None:
    """Scale every measured call to reference speed and keep, per key, the
    median over the pass's repetitions of it."""
    samples: dict = defaultdict(list)
    for kind, k, sub, start, dt in units:
        scaled = dt * res.probe.scale(start, dt)
        res.e2e_scaled_s += scaled
        samples[kind, k, 0 if kind in CONFIGS else sub].append((dt, scaled))
    res.times = {key: (statistics.median(w for w, _ in v), statistics.median(s for _, s in v))
                 for key, v in samples.items()}


def _check(inp, outcomes) -> tuple[str, str] | None:
    """The correctness gate for one input: (stage, reason), or None."""
    (a0, m0, _), (a1, m1, _) = outcomes["unopt"], outcomes["opt"]
    if answer_key(a0) != inp.answer:
        return "interp.eval_unopt", f"answer {answer_key(a0)!r}, pinned {inp.answer!r}"
    base = answer_key(outcomes["base"][0])
    if base != inp.base_answer:
        return "interp.eval_base", f"answer {base!r}, pinned {inp.base_answer!r}"
    if not answers_agree(a0, a1):
        return "optimize", f"optimized answer {answer_key(a1)!r} disagrees"
    if m1.flat_checks > m0.flat_checks or m1.wrappers_allocated > m0.wrappers_allocated:
        return "optimize", "optimized program checks or wraps more"
    for cfg, (steps, checks) in inp.exact.items():
        a, m, _ = outcomes[cfg]
        if answer_key(a) != inp.answer or m.steps != steps or m.flat_checks != checks:
            return (f"interp.eval_{cfg}",
                    f"{answer_key(a)!r} in {m.steps} steps with {m.flat_checks} checks, "
                    f"expected {inp.answer!r} in {steps} with {checks}")
    return None


def _count_outcomes(c: Counter, outcomes) -> dict:
    """Add one input's evaluation counts; return them as plain data."""
    out = {}
    for cfg, (answer, m, dt) in outcomes.items():
        counts = {"steps": m.steps, "flat_checks": m.flat_checks,
                  "wrappers_allocated": m.wrappers_allocated,
                  "wrapped_calls": m.wrapped_calls}
        for kind, name in _OUTCOMES:
            counts[name] = int(isinstance(answer, kind))
        for name, v in counts.items():
            c[f"interp.{cfg}.{name}"] += v
        out[cfg] = {"answer": answer_key(answer), **counts, "ms": dt * 1000.0}
    return out


def _census(res, got, traced) -> None:
    """Counts that cost extra work, taken outside every timed path.  The
    optimize path analyzes slices equal to the verify path's, whose state
    counts are reused."""
    c, lc = res.counters, res.layer_counts
    states_of: dict[str, int] = {}   # by repr, as core nodes do not hash
    for root, bs, on_verify in got.analyzed:
        if not (on_verify or traced):
            continue
        key = repr(root)
        states = states_of.get(key)
        if states is None:
            states = states_of[key] = reachable_states(root, DEFAULT_BUDGET)
        if on_verify:
            c["verify.slices"] += 1
            c["verify.labels"] += len(bs.labels)
            c["verify.exhausted"] += bs.exhausted
            c["verify.states"] += states
            c["verify.max_states"] = max(c["verify.max_states"], states)
        if traced:
            lc["analysis.slices"] += 1
            lc["analysis.labels"] += len(bs.labels)
            lc["analysis.exhausted"] += bs.exhausted
            lc["analysis.states"] += states
            lc["analysis.max_states"] = max(lc["analysis.max_states"], states)
    if traced:
        lc["frontend.ast_nodes"] += sum(count_nodes(m.body) + 1
                                        for p in got.parsed for m in p.modules)
        lc["translate.monitors"] += sum(len(cp.boundary_index) for cp in got.compiled)
        lc["translate.core_nodes"] += sum(count_nodes(cp.root) for cp in got.compiled)
        lc["optimize.core_nodes_after"] += sum(count_nodes(r) for r in got.optimized)


_CHILDREN = {App: ("fn", "arg"), If: ("test", "then", "orelse"), Lam: ("body",),
             Let: ("rhs", "body"), Mon: ("body",)}


def count_nodes(e) -> int:
    n, stack = 0, [e]
    while stack:
        node = stack.pop()
        n += 1
        for attr in _CHILDREN.get(type(node), ()):
            stack.append(getattr(node, attr))
    return n


@contextlib.contextmanager
def _wrapped_layers(tracer: Tracer | NullTracer):
    """Wrap the layer functions `optimize` looks up by name; yields the
    collector the wrapped calls report to.  A name `optimize` no longer
    has is left unwrapped and shows as never called."""
    got = _Collected()
    saved = {}
    for attr, name in _WRAPPED:
        got.calls[name] = 0
        fn = getattr(optimize, attr, None)
        if callable(fn):
            saved[attr] = fn
            setattr(optimize, attr, _wrap(fn, name, tracer, got))
    try:
        yield got
    finally:
        for attr, fn in saved.items():
            setattr(optimize, attr, fn)


def _wrap(fn, name, tracer, got):
    def call(*args, **kwargs):
        got.calls[name] += 1
        try:
            with tracer.span(name, tracer.current_pid()):
                out = fn(*args, **kwargs)
        except Exception as exc:
            raise StageError(name, exc) from exc
        if name == "analysis.analyze":
            got.analyzed.append((args[0], out, got.on_verify))
        elif name == "translate.compile":
            got.compiled.append(out)
        return out
    return call


def _add_split(rows: list[dict], tracer: Tracer) -> list[dict]:
    """Give each input's row its optimize time and the self time of each
    layer within it, both averaged over compile repetitions."""
    own = tracer.self_times()
    top: list[int] = []
    split: dict[str, Counter] = {}
    opt_ms: dict[str, list[float]] = {}
    for i, (name, pid, parent, start, end) in enumerate(tracer.as_rows()):
        top.append(i if parent < 0 else top[parent])
        if tracer.names[top[i]] != "bench.optimize":
            continue
        split.setdefault(pid, Counter())[name.split(".")[0]] += own[i] * 1000.0
        if parent < 0:
            opt_ms.setdefault(pid, []).append((end - start) * 1000.0)
    for row in rows:
        times = opt_ms.get(row["pid"], [0.0])
        row["optimize_ms"] = statistics.fmean(times)
        row["split_ms"] = {layer: ms / len(times) for layer, ms
                           in sorted(split.get(row["pid"], Counter()).items())}
    return rows
