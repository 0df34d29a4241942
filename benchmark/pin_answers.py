"""Write the pinned answers of every generated program a workload seed can
select: one line per program seed, the unoptimized answer and the untyped
baseline's answer in `answer_key` form, separated by a tab.

The answers come from parsing, compiling and evaluating the programs as
written, with no optimizer involved.  They are the reference the benchmark
checks against, so regenerate them only for a deliberate change of the
language's semantics or of `gen`, never to make a failing check pass.

    python3 benchmark/pin_answers.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gtlc import interp  # noqa: E402
from gtlc.frontend import check_wellformed, parse_program  # noqa: E402
from gtlc.gen import gen_program  # noqa: E402
from gtlc.syntax import format_program  # noqa: E402
from gtlc.translate import compile_program  # noqa: E402

from workloads import (  # noqa: E402
    FUEL, GEN_SPECS, REFERENCE_DIR, answer_key, gen_config, untyped_config,
)


def _answer(text: str) -> str:
    program, diags = parse_program(text)
    if program is None or diags or check_wellformed(program):
        raise RuntimeError(f"ill-formed program:\n{text}")
    answer, _ = interp.evaluate(compile_program(program).root, fuel=FUEL)
    return answer_key(answer)


def pinned_answers(name: str, program_seed: int) -> str:
    p = gen_program(gen_config(name, program_seed))
    return f"{_answer(format_program(p))}\t{_answer(format_program(untyped_config(p)))}"


def main() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name, spec in GEN_SPECS.items():
        lines = [pinned_answers(name, s) for s in range(spec.universe)]
        (REFERENCE_DIR / f"{name}.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"{name}: {len(lines)} answers")


if __name__ == "__main__":
    main()
