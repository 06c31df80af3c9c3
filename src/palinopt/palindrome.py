"""Trie-based ordering of palindromic subcircuits for maximal cancellation.

The X run of every subcircuit is entered into a trie by its gates' position
codes, ending in a leaf for the subcircuit's pair; runs sharing a prefix
share a path.  Listing leaves in depth-first order yields an ordering whose
concatenation cancels the maximum number of adjacent self-inverting gates,
and the trie shape gives the post-cancellation gate count directly: leaves
+ 2 * interior nodes, both counted while the trie is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .synth import position_text


@dataclass
class PalindromeTrie:
    # A node is a dict: an X gate's child node under its position code
    # target << n | base, a leaf's pair (r, c) under a negative int unique
    # within the trie.
    root: dict
    n: int  # qubit count of the subcircuits
    leaves: int
    interior: int  # nodes other than the root and the leaves

    def counts(self) -> tuple[int, int]:
        """(leaf count, interior count), as recorded while building."""
        return self.leaves, self.interior


def build_trie(
    n: int, subcircuits: Iterable[tuple[Sequence[int], tuple[int, int]]]
) -> PalindromeTrie:
    """One leaf per ``(prefix, pair)`` subcircuit of n qubits; shared X-run
    prefixes share paths.  Children are keyed by the X gates' position
    codes."""
    root: dict = {}
    interior = 0
    pairs: set[tuple[int, int]] = set()
    for prefix, pair in subcircuits:
        if pair in pairs:
            raise ValueError(f"duplicate subcircuit for pair {pair}")
        pairs.add(pair)
        node = root
        for key in prefix:
            child = node.get(key)
            if child is None:
                child = node[key] = {}
                interior += 1
            node = child
        node[-len(pairs)] = pair
    return PalindromeTrie(root, n, len(pairs), interior)


# The recursive walks are module-level functions: a nested function that
# calls itself is a reference cycle, which would keep the trie alive until
# the cyclic garbage collector runs.
def _leaves(node: dict, out: list) -> list:
    for key, child in node.items():
        if key < 0:
            out.append(child)
        else:
            _leaves(child, out)
    return out


def dfs_order(t: PalindromeTrie) -> list[tuple[int, int]]:
    """Leaf pairs in depth-first order; children visited in insertion order."""
    return _leaves(t.root, [])


def _run(node: dict, pos: dict, runs: list) -> tuple[int, int, int]:
    """(first, last, count) of the leaf positions under ``node``; appends
    each interior node's triple to ``runs``."""
    first, last, count = len(pos), -1, 0
    for key, child in node.items():
        if key < 0:
            lo = hi = pos[child]
            k = 1
        else:
            lo, hi, k = _run(child, pos, runs)
        first, last, count = min(first, lo), max(last, hi), count + k
    runs.append((first, last, count))
    return first, last, count


def mos_check(t: PalindromeTrie, seq: Sequence[tuple[int, int]]) -> bool:
    """True iff ``seq`` is a maximal overlap sequence for the trie.

    Characterization: the leaves under every trie node fill one contiguous
    run of positions in the sequence; siblings may appear in any order.
    One post-order walk finds each node's (first, last, count) of leaf
    positions.  Positions are distinct, so a run with last - first >= count
    has a gap.
    """
    pos = {leaf: i for i, leaf in enumerate(seq)}
    if len(pos) != len(seq) or pos.keys() != set(dfs_order(t)):
        raise ValueError("sequence is not a permutation of the trie's leaves")
    runs: list[tuple[int, int, int]] = []
    _run(t.root, pos, runs)
    return all(last - first < count for first, last, count in runs)


def trie_gate_count(t: PalindromeTrie) -> int:
    """Gates remaining after cancelling a maximal overlap concatenation."""
    leaves, interior = t.counts()
    return leaves + 2 * interior


def _dump(node: dict, n: int, indent: str, lines: list[str], labels: dict) -> list[str]:
    for key, child in node.items():
        if key < 0:  # the pair (r, c) as its repr, rendered from its two ints
            pair = "(%d, %d)" % child
            lines.append(f"{indent}V{pair} [leaf {pair}]\n")
            continue
        label = labels.get(key)
        if label is None:  # each distinct X gate's text is rendered once
            label = labels[key] = "X " + position_text(key, n) + "\n"
        lines.append(indent + label)
        _dump(child, n, indent + "  ", lines, labels)
    return lines


def dump_trie(t: PalindromeTrie) -> str:
    """Indented one-node-per-line rendering, leaves tagged with their id."""
    return "".join(_dump(t.root, t.n, "", [], {}))
