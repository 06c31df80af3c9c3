"""Exact compilation of unitary matrices into circuits of fully controlled
single-qubit and controlled-NOT gates, with palindromic ordering to minimize
the controlled-NOT count."""

from .decompose import Decomposition, two_level_decompose
from .linalg import (
    TwoLevelMatrix,
    frobenius_distance,
    is_unitary,
    random_unitary,
)
from .optimize import (
    cancel_pass,
    count_structural,
    formula_conventional,
    formula_conventional_cancel,
    formula_poa,
    poa_recurrence,
)
from .ordering import OrderArray, conventional_order, poa_order, validate_order
from .palindrome import build_trie, dfs_order, mos_check, overlap, trie_gate_count
from .sim import VerificationReport, circuit_to_matrix, verify
from .synth import (
    Circuit,
    ControlledGate,
    PalindromicSubcircuit,
    construct_circuit,
    gray_code,
)

__all__ = [
    "Circuit",
    "ControlledGate",
    "Decomposition",
    "OrderArray",
    "PalindromicSubcircuit",
    "TwoLevelMatrix",
    "VerificationReport",
    "build_trie",
    "cancel_pass",
    "circuit_to_matrix",
    "construct_circuit",
    "conventional_order",
    "count_structural",
    "dfs_order",
    "formula_conventional",
    "formula_conventional_cancel",
    "formula_poa",
    "frobenius_distance",
    "gray_code",
    "is_unitary",
    "mos_check",
    "overlap",
    "poa_order",
    "poa_recurrence",
    "random_unitary",
    "trie_gate_count",
    "two_level_decompose",
    "validate_order",
    "verify",
]

__version__ = "0.1.0"
