"""Entropy-constrained spin-1/2 collapse model.

Core pieces: exact Bloch-sphere geometry, binary-entropy utilities, the
constrained solver for the post-measurement observer axis (grid and closed
form), boolean outcome policies, and the iterated-measurement automaton.

Importing the package loads none of them: each name below is imported from
its submodule on first use (PEP 562), so a caller pays, numpy included, only
for the modules it reaches.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "automaton": ("ObserverAutomaton", "RunResult", "StepRecord"),
    "bloch": ("Axis", "SpinState", "axes_up_overlap", "axis_to_bloch",
              "canonicalize_axis", "eigenstate_as_state", "eigenvectors",
              "spin_operator", "state_to_bloch", "up_overlap_prob"),
    "entropy": ("binary_entropy", "collapse_entropies",
                "entropy_pair_solutions"),
    "pfn": ("BoolProjection", "Measure", "P_AND", "P_OR", "TruthTable",
            "decide_outcome", "outcome_probability", "parse_expr",
            "project_axis", "render", "to_cnf", "to_dnf", "to_truth_table"),
    "solver": ("CollapseSolution", "LevelSetCurve", "SolverConfig", "Status",
               "constraint_levels", "solve_collapse",
               "solve_collapse_closed_form", "trace_level_sets"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
