"""Trie-based ordering of palindromic subcircuits for maximal cancellation.

The X run of every subcircuit is entered into a trie by its gates' position
codes, ending in a leaf for the subcircuit's pair; runs sharing a prefix
share a path.  Listing leaves in depth-first order yields an ordering whose
concatenation cancels the maximum number of adjacent self-inverting gates,
and the trie shape gives the post-cancellation gate count directly: leaves
+ 2 * interior nodes, both counted while the trie is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .synth import PalindromicSubcircuit, position_text

MiddleId = tuple[int, int]


@dataclass(slots=True)
class TrieNode:
    # An X gate's child is keyed by its position code target << n | base,
    # a leaf by a negative int unique within the trie.
    children: dict[int, TrieNode] = field(default_factory=dict)
    leaf_id: MiddleId | None = None

    @property
    def is_leaf(self) -> bool:
        return self.leaf_id is not None


@dataclass
class PalindromeTrie:
    root: TrieNode
    n: int  # qubit count of the subcircuits; 0 for an empty trie
    leaves: int
    interior: int  # nodes other than the root and the leaves

    def counts(self) -> tuple[int, int]:
        """(leaf count, interior count), as recorded while building."""
        return self.leaves, self.interior


def build_trie(subcircuits: Iterable[PalindromicSubcircuit]) -> PalindromeTrie:
    """One leaf per subcircuit; shared X-run prefixes share paths.  Children
    are keyed by the X gates' position codes."""
    root = TrieNode()
    n = interior = 0
    pairs: set[MiddleId] = set()
    for sub in subcircuits:
        if sub.pair in pairs:
            raise ValueError(f"duplicate subcircuit for pair {sub.pair}")
        pairs.add(sub.pair)
        n = sub.n
        node = root
        for key in sub.prefix:
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = TrieNode()
                interior += 1
            node = child
        node.children[-len(pairs)] = TrieNode(leaf_id=sub.pair)
    return PalindromeTrie(root, n, len(pairs), interior)


# The recursive walks are module-level functions: a nested function that
# calls itself is a reference cycle, which would keep the trie alive until
# the cyclic garbage collector runs.
def _leaves(node: TrieNode, out: list[MiddleId]) -> list[MiddleId]:
    if node.is_leaf:
        out.append(node.leaf_id)
    for child in node.children.values():
        _leaves(child, out)
    return out


def dfs_order(t: PalindromeTrie) -> list[MiddleId]:
    """Leaf labels in depth-first order; children visited in insertion order."""
    return _leaves(t.root, [])


def _run(node: TrieNode, pos: dict, runs: list) -> tuple[int, int, int]:
    """(first, last, count) of the leaf positions under ``node``; appends
    each interior node's triple to ``runs``."""
    if node.is_leaf:
        i = pos[node.leaf_id]
        return i, i, 1
    first, last, count = len(pos), -1, 0
    for child in node.children.values():
        lo, hi, k = _run(child, pos, runs)
        first, last, count = min(first, lo), max(last, hi), count + k
    runs.append((first, last, count))
    return first, last, count


def mos_check(t: PalindromeTrie, seq: Sequence[MiddleId]) -> bool:
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


def overlap(a: PalindromicSubcircuit, b: PalindromicSubcircuit) -> int:
    """Length of the cancelling run between consecutive subcircuits: the
    longest common prefix of their X-gate runs."""
    runs = zip(a.prefix, b.prefix)
    return next((k for k, (x, y) in enumerate(runs) if x != y), min(len(a.prefix), len(b.prefix)))


def _dump(node: TrieNode, n: int, indent: str, lines: list[str], labels: dict) -> list[str]:
    for key, child in node.children.items():
        if key < 0:
            lines.append(f"{indent}V{child.leaf_id} [leaf {child.leaf_id}]\n")
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
