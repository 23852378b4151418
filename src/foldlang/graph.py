"""Graph worklists shared by the engines and the F-system code:
reachability, breadth-first numbering, the cycle test, memoised
evaluation over a DAG, and the members of a set held as an int's bits.

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


def fill(memo: dict, root, parts, combine):
    """memo[root], filling first every entry it depends on, children
    before parents.  parts(node) lists node's parts, each a pair of nodes
    (none for a leaf); it is called once per node filled.  combine(node,
    entries) builds node's entry from its parts' entries, one pair per
    part.  The dependencies must be acyclic."""
    stack = [(root, None)]
    while stack:
        node, node_parts = stack[-1]
        if node in memo:
            stack.pop()
            continue
        if node_parts is None:
            node_parts = parts(node)
            stack[-1] = (node, node_parts)
        todo = [(k, None) for part in node_parts for k in part if k not in memo]
        if todo:
            stack.extend(todo)
            continue
        memo[node] = combine(node, [(memo[p], memo[q]) for p, q in node_parts])
        stack.pop()
    return memo[root]


def set_bits(mask: int):
    """The indices of mask's set bits, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
