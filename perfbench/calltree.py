"""Call-tree tracer for the benchmark's traced run.

A wrapped function records every call into a call tree whose nodes are
keyed by the wrapped names on the stack above it, as (count, total time,
self time).  Functions marked as spans, the ones called a few times per
run, also keep each call as a span (id, name, start, end, parent span id,
self time).  Self time is a call's duration minus the time its wrapped
children cover, so the self times of all nodes add up to the durations of
the top-level calls.  Everything stays in memory until ``dump``.
"""

import time


class Node:
    __slots__ = ("name", "children", "count", "total", "self_time")

    def __init__(self, name):
        self.name = name
        self.children = {}
        self.count = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.root = Node("")
        self.spans = []
        self.counters = {}
        # One frame per active wrapped call: [node, time covered by its
        # wrapped children, id of the innermost enclosing span].
        self._stack = [[self.root, 0.0, None]]

    def wrap(self, name, fn, span=False):
        stack, clock, spans = self._stack, self.clock, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1]
            node = parent[0].children.get(name)
            if node is None:
                node = parent[0].children[name] = Node(name)
            frame = [node, 0.0, parent[2]]
            if span:
                frame[2] = len(spans)
                spans.append(None)
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                node.count += 1
                node.total += elapsed
                node.self_time += elapsed - frame[1]
                parent[1] += elapsed
                if span:
                    spans[frame[2]] = (
                        frame[2], name, start, end, parent[2],
                        elapsed - frame[1],
                    )

        traced.__wrapped__ = fn
        return traced

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def top_level_s(self):
        """Summed duration of the outermost wrapped calls."""
        return sum(node.total for node in self.root.children.values())

    def dump(self):
        """JSON-ready record of the spans, the call tree and the counters."""
        keys = ("id", "name", "start", "end", "parent", "self")
        return {
            "spans": [dict(zip(keys, span)) for span in self.spans],
            "tree": _tree_json(self.root)["children"],
            "counters": dict(self.counters),
        }


def _tree_json(node):
    return {
        "name": node.name, "count": node.count, "total": node.total,
        "self": node.self_time,
        "children": [_tree_json(c) for c in node.children.values()],
    }


def walk(root):
    """Yield (path of names from the top, node) for every node below root."""
    todo = [((), root)]
    while todo:
        path, node = todo.pop()
        for child in node.children.values():
            child_path = path + (child.name,)
            yield child_path, child
            todo.append((child_path, child))

