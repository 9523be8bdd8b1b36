"""In-memory spans and counters around the public functions of ``chanuq``.

Tracing happens from the benchmark's side only: :meth:`Tracer.install`
replaces each listed function in every ``chanuq`` module that binds it
(the defining module and every module that imported it by name), and
:meth:`Tracer.uninstall` puts the originals back. Nothing in ``src/``
is edited.

A *span group* records one span per call (group, parent span, start,
end, ok); a group's self time is the summed span durations minus the
parts covered by their child spans. A *count group* only counts calls,
for functions called hundreds of times per item where a span would cost
more than the work it measures. Every group counts calls and errors
(calls that raised).
"""

from __future__ import annotations

import functools
import hashlib
import pickle
import sys
import time
from collections import Counter

# group -> (module, function names, records spans)
GROUPS = {
    "ensembles.rng": ("ensembles", ("random_density", "random_channel",
                                    "random_operator"), True),
    "ensembles.verify_suite": ("ensembles", ("verify_suite",), True),
    "objects.validate": ("objects", ("make_density", "make_channel"), True),
    "objects.json_load": ("objects", ("state_from_json", "channel_from_json"), True),
    "linalg.as_matrix": ("linalg", ("as_matrix",), False),
    "linalg.spectral": ("linalg", ("hermitian_eig", "psd_sqrt"), True),
    "linalg.brackets": ("linalg", ("commutator", "anticommutator", "sym_commutator",
                                   "sym_anticommutator", "frob_inner"), False),
    "measures.channel": ("measures", ("channel_measures",), True),
    "measures.operator": ("measures", ("abs_variance", "sym_abs_variance", "operator_u",
                                       "mwy_skew_info", "mwy_anti_info"), True),
    "bounds.thm1": ("bounds", ("thm1_bound",), True),
    "bounds.thm2": ("bounds", ("thm2_bound",), True),
    "bounds.thm3": ("bounds", ("thm3_bound", "fine_grained_terms"), True),
    "bounds.thm4": ("bounds", ("thm4_bound",), True),
    "bounds.lb_eq13": ("bounds", ("lb_eq13",), True),
    "bounds.lb1_eq14": ("bounds", ("lb1_eq14",), True),
    "bounds.observable": ("bounds", ("heisenberg_bound", "schrodinger_bound",
                                     "luo_bound", "dou_bounds"), True),
    "bounds.report": ("bounds", ("bound_report",), True),
    "examples.objects": ("examples", ("example_state", "werner_state", "rho_theta_state",
                                      "channel_E", "channel_F"), True),
    "examples.closed_forms": ("examples", ("closed_forms", "example1_closed_forms",
                                           "example2_closed_forms"), True),
}

#: the op itself, one span per CLI invocation, opened by the worker
CLI_GROUP = "cli"
#: group whose distinct (state, channel) inputs are counted per op
DISTINCT_GROUP = "measures.channel"


def _input_key(args: tuple, kwargs: dict):
    """Content hash of a call's arguments; a call that cannot be hashed counts as distinct."""
    try:
        return hashlib.blake2b(pickle.dumps((args, kwargs), protocol=4),
                               digest_size=16).digest()
    except (pickle.PicklingError, TypeError, AttributeError):
        return object()


class Tracer:
    """Spans, call counts and error counts for one traced pass."""

    def __init__(self):
        self.spans: list = []       # (op id, group, parent index, start, end, ok)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.distinct_inputs = 0    # summed over ops
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op_keys: set = set()
        self._op_id = -1
        self._patched: list = []

    # -- spans -------------------------------------------------------------

    def open(self, group: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([self._op_id, group, parent, time.perf_counter(), 0.0, True])
        self._stack.append(sid)
        self.calls[group] += 1
        return sid

    def close(self, sid: int, ok: bool) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter()
        span[5] = ok
        self._stack.pop()
        if not ok:
            self.errors[span[1]] += 1

    def begin_op(self) -> int:
        self._op_id += 1
        self._op_keys = set()
        return self.open(CLI_GROUP)

    def end_op(self, sid: int, ok: bool) -> None:
        self.close(sid, ok)
        self.distinct_inputs += len(self._op_keys)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, group: str, fn, spans: bool):
        tracer = self
        if not spans:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                tracer.calls[group] += 1
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    tracer.errors[group] += 1
                    raise
            return counted

        distinct = group == DISTINCT_GROUP

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if distinct:
                tracer._op_keys.add(_input_key(args, kwargs))
            sid = tracer.open(group)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                tracer.close(sid, ok)
        return spanned

    def install(self) -> None:
        """Wrap every listed function in every loaded ``chanuq`` module that binds it."""
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "chanuq" or name.startswith("chanuq."))]
        for group, (module, names, spans) in GROUPS.items():
            home = sys.modules.get(f"chanuq.{module}")
            for name in names:
                original = getattr(home, name, None)
                if original is None:
                    self.missing.append(f"chanuq.{module}.{name}")
                    continue
                wrapper = self._wrap(group, original, spans)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def self_seconds(self) -> Counter:
        """Per group: span durations minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for sid, (_, group, _, start, end, _) in enumerate(self.spans):
            out[group] += (end - start) - child[sid]
        return out

    def counts(self) -> dict:
        """Everything that must repeat exactly between two passes over the same ops."""
        return {"calls": dict(sorted(self.calls.items())),
                "errors": dict(sorted(self.errors.items())),
                "distinct_inputs": self.distinct_inputs}
