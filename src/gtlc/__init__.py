"""A gradually-typed module language with contract-backed boundaries,
a modular blame verifier, and a contract-stripping optimizer."""

from .analysis import BlameSet, analyze
from .frontend import Diagnostic, check_wellformed, parse_expr, parse_program
from .gen import GenConfig, gen_program
from .interp import Answer, BlamedA, Metrics, OutOfFuelA, StuckA, ValA, evaluate
from .optimize import (
    OptimizationReport, Verdict, copt, optimize_program, slice_for_module,
)
from .syntax import (
    BlameLabel, Contract, Expr, Module, Polarity, Program, Ty, flip,
    format_expr, format_program,
)
from .translate import CompiledProgram, compile_program, compile_type, erase

__version__ = "0.1.0"

__all__ = [
    "Answer", "BlamedA", "BlameLabel", "BlameSet", "CompiledProgram",
    "Contract", "Diagnostic", "Expr", "GenConfig", "Metrics", "Module",
    "OptimizationReport", "OutOfFuelA", "Polarity", "Program", "StuckA",
    "Ty", "ValA", "Verdict", "analyze", "check_wellformed", "compile_program",
    "compile_type", "copt", "erase", "evaluate", "flip", "format_expr",
    "format_program", "gen_program", "optimize_program", "parse_expr",
    "parse_program", "slice_for_module",
]
