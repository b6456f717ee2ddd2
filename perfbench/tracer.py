"""Span tree for the traced run, built from the benchmark's own code.

Wrappers are installed around each layer's public entry points, patched
where the caller looks the name up (a module global or a class
attribute), and removed again afterwards; no file under ``src/`` is
touched.  Spans nest by call: a node's *self time* is its total minus
its children's totals, and the exported tree lists it as an explicit
``(unattributed)`` child so every parent equals the sum of its children.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

UNATTRIBUTED = "(unattributed)"


class Node:
    __slots__ = ("name", "total", "calls", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.total = 0.0
        self.calls = 0
        self.children: dict[str, Node] = {}

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    @property
    def self_time(self) -> float:
        return self.total - sum(c.total for c in self.children.values())

    def add(self, seconds: float, calls: int = 1) -> None:
        self.total += seconds
        self.calls += calls

    def export(self) -> dict:
        """``{name, s, calls, children}`` with the ``(unattributed)`` row."""
        children = [c.export() for c in self.children.values()]
        if children:
            children.append({"name": UNATTRIBUTED, "s": self.self_time,
                             "calls": self.calls, "children": []})
        return {"name": self.name, "s": self.total, "calls": self.calls,
                "children": children}

    def walk(self, ancestors=()):
        """``(node, ancestor_names)`` for every node below this one."""
        for child in self.children.values():
            yield child, ancestors
            yield from child.walk(ancestors + (child.name,))


class Tracer:
    """Accumulates spans into a tree and counters into a Counter."""

    def __init__(self) -> None:
        self.root = Node("run")
        self.counts: Counter = Counter()
        self._stack = [self.root]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        node = self._stack[-1].child(name)
        self._stack.append(node)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            node.add(perf_counter() - t0)
            self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed as span ``name``; ``after(tracer, args, result)``
        runs once the call returns (outside the span)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.call(name, fn, *args, **kwargs)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` (module global or class attribute)."""
        original = (owner.__dict__[attr] if isinstance(owner, type)
                    else getattr(owner, attr))
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, after))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------

    def total(self, name: str) -> float:
        """Seconds in spans called ``name``, outermost ones only."""
        return sum(node.total for node, up in self.root.walk()
                   if node.name == name and name not in up)

    def self_time(self, name: str) -> float:
        return sum(node.self_time for node, _ in self.root.walk()
                   if node.name == name)

    def tree(self) -> dict:
        # The root is a container, never timed itself.
        self.root.total = sum(c.total for c in self.root.children.values())
        return self.root.export()


def build_tree(name: str, total: float, calls: int, phases: dict) -> Node:
    """A node of ``total`` seconds whose children come from a flat
    ``{"a/b": {"s": .., "calls": ..}}`` profile table (the server's
    ``alloc_phases``)."""
    node = Node(name)
    node.add(total, calls)
    for path, entry in phases.items():
        cur = node
        for part in path.split("/"):
            cur = cur.child(part)
        cur.add(entry["s"], entry["calls"])
    return node
