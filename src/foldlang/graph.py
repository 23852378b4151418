"""Graph worklists shared by both engines: reachability and the cycle test.

Neither recurses, so chain length is not bounded by the Python stack.
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
