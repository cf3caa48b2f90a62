"""Per-layer spans recorded from outside ``circsq``.

The tracer never edits the package's source.  It replaces module attributes:
every public function of ``words``, ``squares``, ``rauzy`` and ``verify`` is
wrapped in each module namespace that binds it, so a call made by another
module (``from .words import is_primitive`` binds the name in the caller's
namespace) or by the defining module itself (a global lookup) passes through
exactly one wrapper.  ``open`` and ``multiprocessing`` are shadowed the same
way inside ``circsq.verify`` only, to count checkpoint I/O and pool fan-out.

Sweeps make millions of calls into ``words``, so per-call spans are folded
into per-name accumulators (calls, total, self) as they close; only the
coarse spans (suite, check, CLI entry, pool start and map) are kept as
(id, name, start, end, parent) records.  Everything stays in memory until the
pass ends.  Self time is a span's duration minus the time its child spans
cover; spans nest strictly because one thread makes all traced calls.
"""

from __future__ import annotations

import sys
import time
from types import FunctionType

LAYERS = ("words", "squares", "rauzy", "verify")

# Spans logged one by one; every other span only feeds the accumulators.
COARSE = frozenset(
    {"cli.main", "verify.run_suite", "verify.run_check", "verify.pool_start", "verify.pool_map"}
)

# split_point calls itself through decompose_split; the group's total counts
# only its outermost span so the nested call is not timed twice.
SPLIT_GROUP = "rauzy.split"
SPLIT_FUNCS = frozenset({"split_point", "decompose_split", "circuit_root"})


class _Acc:
    __slots__ = ("calls", "total_ns", "self_ns", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.depth = 0


class Tracer:
    """Span accumulators, coarse span records and plain counters."""

    def __init__(self) -> None:
        self.accs: dict[str, _Acc] = {}
        self.counters: dict[str, int] = {}
        self.timers_ns: dict[str, int] = {}
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self._child_ns: list[int] = []  # one slot per open span
        self._open_ids: list[int] = []  # ids of open coarse spans
        self._next_id = 0
        self.t0_ns = time.perf_counter_ns()

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def add_time(self, name: str, ns: int) -> None:
        self.timers_ns[name] = self.timers_ns.get(name, 0) + ns

    def _acc(self, name: str) -> _Acc:
        acc = self.accs.get(name)
        if acc is None:
            acc = self.accs[name] = _Acc()
        return acc

    def wrap(self, name: str, fn, group: str | None = None, on_result=None):
        """``fn`` with a span named ``name`` around every call."""
        accs = [self._acc(name)] + ([self._acc(group)] if group else [])
        coarse = name in COARSE
        child_ns = self._child_ns
        open_ids = self._open_ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            for acc in accs:
                acc.depth += 1
            if coarse:
                span_id = self._next_id
                self._next_id += 1
                parent = open_ids[-1] if open_ids else None
                open_ids.append(span_id)
            child_ns.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                own = dur - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
                for acc in accs:
                    acc.calls += 1
                    acc.self_ns += own
                    acc.depth -= 1
                    if acc.depth == 0:
                        acc.total_ns += dur
                if coarse:
                    open_ids.pop()
                    self.spans.append(
                        (span_id, name, start - self.t0_ns, end - self.t0_ns, parent)
                    )
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def calls(self, name: str) -> int:
        acc = self.accs.get(name)
        return acc.calls if acc else 0

    def dump(self) -> dict:
        return {
            "accumulators": {
                n: {"calls": a.calls, "total_s": a.total_ns / 1e9, "self_s": a.self_ns / 1e9}
                for n, a in sorted(self.accs.items())
            },
            "counters": dict(sorted(self.counters.items())),
            "timers_s": {n: v / 1e9 for n, v in sorted(self.timers_ns.items())},
            "spans": [
                {"id": i, "name": n, "start_s": s / 1e9, "end_s": e / 1e9, "parent": p}
                for i, n, s, e, p in sorted(self.spans)
            ],
        }


# ---------------------------------------------------------------------------
# installing the wrappers


def _public_functions(module) -> dict[str, FunctionType]:
    """Public functions bound in ``module`` that a layer module defines."""
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or not isinstance(obj, FunctionType):
            continue
        home = sys.modules.get(obj.__module__)
        layer = obj.__module__.rpartition(".")[2]
        if layer in LAYERS and home is not None and obj.__name__ in getattr(home, "__all__", ()):
            out[attr] = obj
    return out


def _note_circuits(tracer: Tracer):
    def note(args, circuits) -> None:
        order = args[0].order
        tracer.count("rauzy.circuits_found", len(circuits))
        tracer.count("rauzy.small_circuits", sum(1 for c in circuits if c.length <= order))

    return note


def install_layer_spans(tracer: Tracer, package) -> None:
    """Wrap every public layer function wherever a layer module binds it."""
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, fn in _public_functions(module).items():
            name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"
            group = SPLIT_GROUP if name.startswith("rauzy.") and fn.__name__ in SPLIT_FUNCS else None
            on_result = (
                _note_circuits(tracer) if fn.__name__ == "enumerate_elementary_circuits" else None
            )
            setattr(module, attr, tracer.wrap(name, fn, group, on_result))


class _TracedFile:
    """A checkpoint file handle that counts what is written and times the session."""

    def __init__(self, fh, tracer: Tracer, start_ns: int) -> None:
        self._fh = fh
        self._tracer = tracer
        self._start_ns = start_ns

    def write(self, text: str) -> int:
        self._tracer.count("verify.checkpoint_bytes", len(text.encode()))
        self._tracer.count("verify.checkpoint_lines", text.count("\n"))
        return self._fh.write(text)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()
            self._tracer.add_time(
                "verify.checkpoint_session", time.perf_counter_ns() - self._start_ns
            )

    def __enter__(self) -> "_TracedFile":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __getattr__(self, attr):
        return getattr(self._fh, attr)


def install_checkpoint_io(tracer: Tracer, verify_module) -> None:
    """Shadow the builtin ``open`` for ``circsq.verify`` only."""
    real_open = open

    def traced_open(*args, **kwargs):
        start = time.perf_counter_ns()
        tracer.count("verify.checkpoint_opens")
        try:
            fh = real_open(*args, **kwargs)
        except OSError:
            tracer.add_time("verify.checkpoint_session", time.perf_counter_ns() - start)
            raise
        return _TracedFile(fh, tracer, start)

    verify_module.open = traced_open


class _TracedPool:
    def __init__(self, pool, tracer: Tracer) -> None:
        self._pool = pool
        self._tracer = tracer
        self._map = tracer.wrap("verify.pool_map", pool.map)

    def map(self, fn, iterable, *args, **kwargs):
        items = list(iterable)
        self._tracer.count("verify.pool_tasks", len(items))
        return self._map(fn, items, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._pool, attr)


class _MultiprocessingView:
    """``multiprocessing`` as ``circsq.verify`` sees it, with a counted ``Pool``."""

    def __init__(self, real, tracer: Tracer) -> None:
        self._real = real
        self._tracer = tracer
        self._start = tracer.wrap("verify.pool_start", real.Pool)

    def Pool(self, *args, **kwargs):  # noqa: N802 - mirrors multiprocessing.Pool
        return _TracedPool(self._start(*args, **kwargs), self._tracer)

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install_pool_counters(tracer: Tracer, verify_module) -> None:
    verify_module.multiprocessing = _MultiprocessingView(verify_module.multiprocessing, tracer)
