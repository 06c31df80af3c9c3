"""Exact compilation of unitary matrices into circuits of fully controlled
single-qubit and controlled-NOT gates, with palindromic ordering to minimize
the controlled-NOT count."""

from .decompose import Decomposition, two_level_decompose
from .linalg import (
    TwoLevelMatrix,
    is_unitary,
    random_unitary,
)
from .optimize import (
    cancel_pass,
    count_structural,
    formula_conventional,
    formula_conventional_cancel,
    formula_poa,
)
from .ordering import OrderArray, conventional_order, poa_order, validate_order
from .palindrome import build_trie, trie_gate_count
from .sim import VerificationReport, circuit_to_matrix, verify
from .synth import (
    Circuit,
    ControlledGate,
    construct_circuit,
    gray_code,
)

__all__ = [
    "Circuit",
    "ControlledGate",
    "Decomposition",
    "OrderArray",
    "TwoLevelMatrix",
    "VerificationReport",
    "build_trie",
    "cancel_pass",
    "circuit_to_matrix",
    "construct_circuit",
    "conventional_order",
    "count_structural",
    "formula_conventional",
    "formula_conventional_cancel",
    "formula_poa",
    "gray_code",
    "is_unitary",
    "poa_order",
    "random_unitary",
    "trie_gate_count",
    "two_level_decompose",
    "validate_order",
    "verify",
]

__version__ = "0.1.0"
