"""Circuits that convert amplitude encodings through a staircase state.

The library builds exact synthesis circuits linking one-hot, binary, and
staircase (edick) amplitude encodings, prepares Dicke states, and loads
binomial distributions, with an embedded statevector simulator and cost
analysis for every construction.
"""

from .analysis import (
    SWEEP_CSV_HEADER,
    SWEEP_SUBJECTS,
    ScalingModel,
    SweepRow,
    fit_scaling,
    rows_to_csv,
    run_sweep,
)
from .circuit import (
    Circuit,
    CostReport,
    Gate,
    GateKind,
    Granularity,
    ccry,
    cnot,
    compose,
    cost,
    cphase,
    cry,
    h,
    inverse,
    mcx,
    phase,
    remap,
    ry,
    toffoli,
    x,
)
from .converters import (
    ConverterPlan,
    Direction,
    EvenMethod,
    binary_width,
    build_adder,
    build_binary_to_onehot,
    build_cnot_stair,
    build_converter,
    build_edick_to_binary,
    build_edick_to_onehot,
    build_onehot_to_binary,
)
from .decompose import decompose_to_basis
from .dicke import (
    BinomialSpec,
    build_binomial_pipeline,
    build_dicke_unitary,
    build_scs,
)
from .encodings import (
    AmplitudeVector,
    EncodingKind,
    build_state,
    dicke_state,
    level_to_basis,
    random_vector,
    read_state,
)
from .qasm import emit_text, parse_text
from .statevector import (
    Statevector,
    basis_state,
    fidelity,
    run,
    run_rows,
    zero_state,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeVector",
    "BinomialSpec",
    "Circuit",
    "ConverterPlan",
    "CostReport",
    "Direction",
    "EncodingKind",
    "EvenMethod",
    "Gate",
    "GateKind",
    "Granularity",
    "ScalingModel",
    "Statevector",
    "SweepRow",
    "SWEEP_CSV_HEADER",
    "SWEEP_SUBJECTS",
    "basis_state",
    "binary_width",
    "build_adder",
    "build_binary_to_onehot",
    "build_binomial_pipeline",
    "build_cnot_stair",
    "build_converter",
    "build_dicke_unitary",
    "build_edick_to_binary",
    "build_edick_to_onehot",
    "build_onehot_to_binary",
    "build_scs",
    "build_state",
    "ccry",
    "cnot",
    "compose",
    "cost",
    "cphase",
    "cry",
    "decompose_to_basis",
    "dicke_state",
    "emit_text",
    "fidelity",
    "fit_scaling",
    "h",
    "inverse",
    "level_to_basis",
    "mcx",
    "parse_text",
    "phase",
    "random_vector",
    "read_state",
    "remap",
    "rows_to_csv",
    "run",
    "run_rows",
    "run_sweep",
    "ry",
    "toffoli",
    "x",
    "zero_state",
]
