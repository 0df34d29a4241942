"""Benchmark inputs: one list of source texts per workload, made from a seed.

Each input is a source text in one typed/untyped configuration plus the
fully-untyped configuration of the same program, which is the baseline of
the overhead ratio (Takikawa et al., POPL 2016).  `gen` only makes the
inputs and `syntax` only formats them; the measured layers see nothing but
the text.

Generated programs are drawn from a fixed universe of program seeds so that
the unoptimized answer, and the untyped baseline's answer, of every program
that any workload seed can select is pinned in `reference/` (see
`pin_answers.py`).  That reference comes from compilation and evaluation
alone, never from the optimizer.  A program that runs out of fuel, as
written or untyped, is never selected (one of the 7000 does): its rounds
would time the fuel budget, not the work.  Nor is a program listed in its
family's `skip` (see GEN_SPECS).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import gtlc
from gtlc import interp
from gtlc.gen import GenConfig, gen_program
from gtlc.syntax import Module, Program, Require, format_program
from gtlc.translate import erase

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Workload seed used when none is given, and the seed reserved for
# confirming a claim on inputs not looked at while writing the change.
DEFAULT_SEED = 1
CONFIRM_SEED = 7919

# Evaluation step budget; the typed, unoptimized hot loop needs 6.3 M.
FUEL = 100_000_000

# The three evaluated configurations of every input, in rotation order.
CONFIGS = ("base", "unopt", "opt")

HOTLOOP_ANSWER = "5"
HOTLOOP_STEPS = {"base": 3_333_370, "unopt": 6_333_374, "opt": 3_333_370}
HOTLOOP_CHECKS = {"base": 0, "unopt": 2_000_000, "opt": 0}


@dataclass(frozen=True)
class GenSpec:
    """A family of generated programs and how a workload samples it."""
    config: dict            # GenConfig fields other than the seed
    universe: int           # program seeds 0 .. universe-1 are pinned
    per_stratum: int        # programs per module count (0: plain sample)
    sample: int             # programs per workload seed when not stratified
    trust_typed: bool       # the verdict setting of the optimize path
    skip: frozenset = frozenset()  # program seeds never selected


GEN_SPECS = {
    # Stratified by module count: the cost of a program grows steeply with
    # its module count (about 1 ms at 1 module, 420 ms at 16), so an equal
    # number per count keeps one seed's pass within a few percent of
    # another's.  Uniform counts are what `gen` draws anyway.
    # Every slice analyzed: where the verifier and the rewriter work.
    # Program seed 1906 evaluates in 17,845 steps unoptimized, ten times the
    # next heaviest of the 2000 and more than the other 111 programs of a
    # draw together: a draw that picks it has run_s 2.6 times the median.
    "gen-large": GenSpec({"expr_size": 64, "max_modules": 16},
                         universe=2000, per_stratum=7, sample=0, trust_typed=False,
                         skip=frozenset({1906})),
    # Typed modules trusted, the CLI default.
    "gen-small": GenSpec({}, universe=5000, per_stratum=0, sample=1000, trust_typed=True),
}


@dataclass
class Input:
    pid: str                 # stable id: "<workload>/<program seed or file>"
    text: str                # the configuration being compiled and optimized
    base_text: str           # its fully-untyped configuration
    answer: str              # expected unoptimized answer (answer_key form)
    base_answer: str         # expected answer of the untyped baseline
    exact: dict = field(default_factory=dict)   # config -> (steps, checks)


@dataclass
class Workload:
    name: str
    inputs: list[Input]
    trust_typed: bool        # the verdict setting of the optimize path
    compile_reps: int        # verify/optimize repetitions per pass
    eval_rounds: int         # interleaved evaluation rounds per pass


def answer_key(a: interp.Answer) -> str:
    """A short, stable rendering of an answer, as pinned in `reference/`."""
    match a:
        case interp.ValA(v):
            return interp.format_value(v)
        case interp.BlamedA(label):
            return f"blame {label.blamed} {label.holder}"
        case interp.StuckA(_):
            return "stuck"
        case interp.OutOfFuelA():
            return "fuel"
    raise TypeError(f"not an answer: {a!r}")


def untyped_config(p: Program) -> Program:
    """The same program with every module untyped and unannotated."""
    return Program([
        Module(m.name, None,
               [Require(r.target, opaque=r.opaque) for r in m.requires],
               erase(m.body))
        for m in p.modules])


def gen_config(name: str, program_seed: int) -> GenConfig:
    return GenConfig(seed=program_seed, **GEN_SPECS[name].config)


def load_reference(name: str) -> list[tuple[str, str]]:
    """Per program seed: the pinned (unoptimized, untyped baseline) answers."""
    path = REFERENCE_DIR / f"{name}.txt"
    return [tuple(line.split("\t")) for line in path.read_text(encoding="utf-8").splitlines()]


def select_programs(name: str, seed: int, reference) -> list[tuple[int, Program]]:
    """The (program seed, program) pairs a workload seed selects."""
    spec = GEN_SPECS[name]
    order = [s for s in range(spec.universe)
             if "fuel" not in reference[s] and s not in spec.skip]
    random.Random(seed).shuffle(order)
    if not spec.per_stratum:
        picked = sorted(order[:spec.sample])
        return [(s, gen_program(gen_config(name, s))) for s in picked]
    strata: dict[int, list[tuple[int, Program]]] = {
        n: [] for n in range(1, spec.config["max_modules"] + 1)}
    for s in order:
        p = gen_program(gen_config(name, s))
        bucket = strata[len(p.modules)]
        if len(bucket) < spec.per_stratum:
            bucket.append((s, p))
            if all(len(b) == spec.per_stratum for b in strata.values()):
                break
    else:
        raise RuntimeError(f"{name}: universe too small for the strata")
    return sorted((sp for b in strata.values() for sp in b), key=lambda sp: sp[0])


def build(name: str, seed: int) -> Workload:
    if name == "hotloop":
        return _hotloop()  # the seed only shifts the rotation of evaluations
    reference = load_reference(name)
    inputs = [Input(f"{name}/{s}", format_program(p),
                    format_program(untyped_config(p)), *reference[s])
              for s, p in select_programs(name, seed, reference)]
    return Workload(name, inputs, trust_typed=GEN_SPECS[name].trust_typed,
                    compile_reps=1, eval_rounds=10)


def _hotloop() -> Workload:
    entry = Path(gtlc.__file__).resolve().parent / "corpus" / "hotloop"
    text = (entry / "1.gtl").read_text(encoding="utf-8")
    base = (entry / "0.gtl").read_text(encoding="utf-8")
    exact = {c: (HOTLOOP_STEPS[c], HOTLOOP_CHECKS[c]) for c in CONFIGS}
    inp = Input("hotloop/1", text, base, HOTLOOP_ANSWER, HOTLOOP_ANSWER, exact=exact)
    # One evaluation takes about 1 s against 10 ms for compile and
    # optimize; a few repetitions give the compile side more samples
    # without taking rounds from the evaluations.
    return Workload("hotloop", [inp], trust_typed=True, compile_reps=4,
                    eval_rounds=1)


WORKLOADS = ("hotloop", "gen-large", "gen-small")
