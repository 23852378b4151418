"""Graph worklists shared by the engines and the F-system code:
reachability, breadth-first numbering, the cycle test, and the members
of a set held as an int's bits.

None of them recurses, so chain length is not bounded by the Python stack.
"""

from __future__ import annotations


def closure(seeds, successors) -> set:
    """Every node reachable from seeds through successors(node), seeds
    included."""
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for r in successors(frontier.pop()):
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return seen


def breadth_first(start, successors) -> tuple[list, list[list[int]]]:
    """The nodes reachable from start, numbered breadth-first from start 0
    with each node's successors taken in the order successors(node) lists
    them, and for each node in that order its successors' numbers."""
    number, order, rows = {start: 0}, [start], []
    for node in order:  # order grows while it is walked
        row = []
        for nxt in successors(node):
            if nxt not in number:
                number[nxt] = len(order)
                order.append(nxt)
            row.append(number[nxt])
        rows.append(row)
    return order, rows


def has_cycle(succ) -> bool:
    """Whether the digraph succ (node -> its successors, all of them keys)
    has a cycle.  Peeling nodes with no unpeeled predecessor (Kahn) leaves
    some behind exactly when there is one."""
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for b in targets:
            indegree[b] += 1
    ready = [a for a, d in indegree.items() if d == 0]
    peeled = 0
    while ready:
        peeled += 1
        for b in succ[ready.pop()]:
            indegree[b] -= 1
            if indegree[b] == 0:
                ready.append(b)
    return peeled < len(succ)


def set_bits(mask: int):
    """The indices of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
