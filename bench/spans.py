"""In-memory spans around momlat's public calls, and self-time arithmetic.

`Tracer.install` replaces each traced function at every module binding that
holds it (a name imported with `from .operators import build_operator` is a
separate binding from `operators.build_operator`), and patches traced methods
on their class.  A span is `[name, start, end, parent, count]`; `parent` is
the index of the enclosing span or -1, and `count` is the work a boundary
reports (the term count of a normal form, say).  A call that re-enters the
boundary it is already inside (recursive `build_operator`, `dumps`) opens no
new span: the outer span covers it.  Pure counters (lattice points, dense
matrices) hook a constructor and record no span, so their cost stays in the
caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(int)
        self._stack = []
        self._undo = []

    def reset(self):
        """Start a new list of spans and counters (the old ones stay intact)."""
        self.spans = []
        self.counters = defaultdict(int)
        self._stack.clear()

    def wrap(self, name, fn, count=None):
        """fn wrapped in a span called `name`; count(result) is stored on it."""
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            if stack and spans[stack[-1]][NAME] == name:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if count is not None:
                record[COUNT] = count(result)
            return result

        return traced

    def counter(self, fn, tally):
        """fn (a constructor hook taking self) that adds tally(self) to the counters."""
        tracer = self

        @functools.wraps(fn)
        def counted(obj, *args, **kwargs):
            fn(obj, *args, **kwargs)
            for key, value in tally(obj).items():
                tracer.counters[key] += value

        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, package, functions, methods, counters):
        """Patch the package.

        functions: {(module, attr): (span name, count fn or None)} - wrapped at
                   every binding of the same function object in the package;
        methods:   {(class, attr): span name};
        counters:  {(class, attr): tally(obj) -> {counter: value}}.
        """
        prefix = package + "."
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == package or name.startswith(prefix))]
        for (module, attr), (span_name, count) in functions.items():
            original = getattr(module, attr)
            traced = self.wrap(span_name, original, count)
            for m in modules:
                for binding, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, binding, traced)
        for (cls, attr), span_name in methods.items():
            self._set(cls, attr, self.wrap(span_name, cls.__dict__[attr]))
        for (cls, attr), tally in counters.items():
            self._set(cls, attr, self.counter(cls.__dict__[attr], tally))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans):
    """{name: (total self time, span count, total count)}.

    A span's self time is its duration minus the durations of its direct
    children.  Spans come from one thread, so children nest inside their
    parent and do not overlap one another.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    totals = defaultdict(lambda: [0.0, 0, 0])
    for span, children in zip(spans, child_time):
        entry = totals[span[NAME]]
        entry[0] += span[END] - span[START] - children
        entry[1] += 1
        entry[2] += span[COUNT]
    return {name: tuple(entry) for name, entry in totals.items()}


def inclusive_time(spans, name):
    """Total duration of the spans called `name`."""
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)
