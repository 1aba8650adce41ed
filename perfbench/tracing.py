"""Spans, hooks and order statistics for the benchmark's traced pass.

Hooks wrap a program function from outside, at the dotted name its caller
looks it up by (``dcmwalk.harness.support_polygon_at``,
``dcmwalk.wholebody.build_wholebody_qp``, ``dcmwalk.harness.Plant.step``).
Each call then records one span: (name, start, end, parent, run id). Spans
are kept in memory; the benchmark writes them out when it ends.
"""

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional

# Spans whose name starts with this prefix are the benchmark's own work done
# inside a traced call (e.g. an independent KKT check). They count as children
# of the span they sit in, so they never inflate a layer's self time, and
# `Tracer.effective_duration` removes them from a layer's total.
BENCH_PREFIX = "bench."


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.runs = []
        self.attrs = {}
        self.run_id = -1
        self._stack = []

    def __len__(self):
        return len(self.names)

    def begin(self, name):
        """Open a span; a span opened with none open starts a new run."""
        i = len(self.names)
        if not self._stack:
            self.run_id += 1
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.runs.append(self.run_id)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(self.clock())
        return i

    def end(self, i):
        self.ends[i] = self.clock()
        popped = self._stack.pop()
        if popped != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    def duration(self, i):
        return self.ends[i] - self.starts[i]

    def children(self):
        """Child span indices of every span (index -1 holds the roots)."""
        kids = {-1: []}
        for i, p in enumerate(self.parents):
            kids.setdefault(p, []).append(i)
        return kids

    def self_times(self):
        """Each span's duration minus the time its direct children cover.

        Calls nest strictly in one thread, so children never overlap and
        their durations add up.
        """
        own = [self.duration(i) for i in range(len(self))]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.duration(i)
        return own

    def effective_durations(self):
        """Each span's duration minus the benchmark's own spans inside it."""
        bench = [0.0] * len(self)
        # Children are recorded after their parent, so a reverse sweep has
        # every subtree total ready before it is added to the parent.
        for i in range(len(self) - 1, -1, -1):
            if self.names[i].startswith(BENCH_PREFIX):
                bench[i] = self.duration(i)
            p = self.parents[i]
            if p >= 0:
                bench[p] += bench[i]
        return [self.duration(i) - bench[i] for i in range(len(self))]

    def to_records(self):
        return {"fields": ["name", "start", "end", "parent", "run"],
                "spans": [[n, s, e, p, r] for n, s, e, p, r in
                          zip(self.names, self.starts, self.ends,
                              self.parents, self.runs)],
                "attrs": {str(k): v for k, v in self.attrs.items()}}


@dataclass(frozen=True)
class Hook:
    """Wrap the callable at `target` so each call records span `span`.

    `before()` runs before the span opens. `after(tracer, index, args,
    kwargs, result)` runs once the call has returned, with the span already
    closed; it may attach attributes.
    """

    target: str
    span: str
    after: Optional[Callable] = None
    before: Optional[Callable] = None


def resolve(target):
    """(owner, attribute) for a dotted name; raises LookupError if missing."""
    parts = target.split(".")
    owner = None
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        rest = parts[cut:-1]
        break
    if owner is None:
        raise LookupError(f"no module in {target!r}")
    for name in rest:
        if not hasattr(owner, name):
            raise LookupError(f"{target!r}: no attribute {name!r}")
        owner = getattr(owner, name)
    if not hasattr(owner, parts[-1]):
        raise LookupError(f"{target!r}: no attribute {parts[-1]!r}")
    return owner, parts[-1]


def _wrap(fn, tracer, hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if hook.before is not None:
            hook.before()
        i = tracer.begin(hook.span)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(i)
        if hook.after is not None:
            hook.after(tracer, i, args, kwargs, result)
        return result
    return traced


class Installed:
    """Hooks in place; `restore` puts every original back."""

    def __init__(self):
        self.patches = []  # (owner, attribute, original or None if inherited)
        self.missing = []

    def restore(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def install(hooks, tracer, warn=sys.stderr):
    """Install `hooks`; a target that no longer exists is skipped with a
    warning and listed in `missing`, so its metrics read as absent."""
    done = Installed()
    try:
        for hook in hooks:
            try:
                owner, attr = resolve(hook.target)
            except LookupError as exc:
                done.missing.append(hook.target)
                print(f"warning: hook not installed: {exc}", file=warn)
                continue
            own = vars(owner).get(attr) if isinstance(owner, type) else None
            raw = own if own is not None else getattr(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(_wrap(raw.__func__, tracer, hook))
            elif callable(raw):
                new = _wrap(raw, tracer, hook)
            else:
                done.missing.append(hook.target)
                print(f"warning: hook not installed: {hook.target!r} is not "
                      "callable", file=warn)
                continue
            original = raw if own is not None or not isinstance(owner, type) else None
            setattr(owner, attr, new)
            done.patches.append((owner, attr, original))
    except BaseException:
        done.restore()
        raise
    return done


def percentile(values, q):
    """Nearest-rank percentile: the smallest sample with at least q% of the
    samples at or below it. None when there are no samples."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(values, q):
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(values, q)
    return 0 if cut is None else sum(1 for v in values if v > cut)
