"""Regex matching oracle for the tests."""

from foldlang.regular import (Concat, Empty, Epsilon, Literal, Optional, Plus,
                              RegexAst, Star, Union)


def match_backtrack(ast: RegexAst, w: str) -> bool:
    """Direct recursive matcher, independent of the automaton pipeline.

    Used as a testing oracle; exponential in the worst case.
    """

    def matches(node, i):
        """Yield end positions of matches of node starting at i."""
        if isinstance(node, Empty):
            return
        if isinstance(node, Epsilon):
            yield i
        elif isinstance(node, Literal):
            if i < len(w) and w[i] == node.symbol:
                yield i + 1
        elif isinstance(node, Concat):
            def seq(parts, j):
                if not parts:
                    yield j
                    return
                for k in matches(parts[0], j):
                    yield from seq(parts[1:], k)
            yield from seq(list(node.parts), i)
        elif isinstance(node, Union):
            for part in node.parts:
                yield from matches(part, i)
        elif isinstance(node, Star):
            yield i
            seen = {i}
            frontier = [i]
            while frontier:
                nxt = []
                for j in frontier:
                    for k in matches(node.child, j):
                        if k not in seen and k > j:
                            seen.add(k)
                            nxt.append(k)
                            yield k
                frontier = nxt
        elif isinstance(node, Plus):
            yield from matches(Concat((node.child, Star(node.child))), i)
        elif isinstance(node, Optional):
            yield i
            yield from matches(node.child, i)
        else:
            raise TypeError(node)

    return any(j == len(w) for j in matches(ast, 0))
