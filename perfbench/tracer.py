"""Timing wrappers installed on the library's module attributes.

The wrappers live here, in the benchmark, so the library itself is not
edited. Every wrapped call is one span (name, start, end, parent). Spans are
kept in preallocated numpy arrays and written out when the run ends; the
per-function call counts and self times (span minus the time covered by its
wrapped children) are accumulated as the spans close, so they stay complete
when the span store is full.
"""

from __future__ import annotations

import functools
import time

import numpy as np

# (module, attribute path) of every function the traced run times, in the
# order the per-layer metrics are reported.
TRACED = (
    ("numkit", "Rng.normals"),
    ("numkit", "Rng.uniforms"),
    ("numkit", "sym_eig"),
    ("numkit", "solve_inverse"),
    ("numkit", "range_space_pinv"),
    ("numkit", "softmax"),
    ("numkit", "softmax_lse_rows"),
    ("numkit", "logsumexp"),
    ("numkit", "fd_jacobian"),
    ("energy", "pair_energies"),
    ("energy", "boltzmann_weights"),
    ("energy", "free_energy"),
    ("energy", "helmholtz_free_energy"),
    ("energy", "grad_z"),
    ("energy", "grad_weight"),
    ("energy", "gradient_engine"),
    ("energy", "hessian_split"),
    ("energy", "stationary_point"),
    ("attention", "softmax_attention"),
    ("attention", "linear_attention"),
    ("attention", "mha"),
    ("attention", "nag_mha"),
    ("attention", "mha2nd_exact"),
    ("attention", "mha2nd1st"),
    ("attention", "light_mha2nd1st"),
    ("attention", "range_space_cache"),
    ("descent", "descend"),
    ("descent", "compare_optimizers"),
    ("equivalence", "make_tied_instance"),
    ("equivalence", "verify_softmax_gd"),
    ("equivalence", "verify_linear_gd"),
    ("equivalence", "verify_multihead_gd"),
    ("equivalence", "verify_boltzmann_optimality"),
    ("equivalence", "verify_hessian_structure"),
    ("loopsim", "loop_forward"),
    ("loopsim", "loop_alternating_optimize"),
)

# the closures gradient_engine returns are timed under this name
EVALUATE = "energy.evaluate"

SPAN_DTYPE = np.dtype([("name", np.int32), ("parent", np.int64),
                       ("start", np.float64), ("end", np.float64)])


def span_names() -> list[str]:
    names = [f"{module}.{path}" for module, path in TRACED]
    names.insert(names.index("energy.gradient_engine") + 1, EVALUATE)
    return names


class Tracer:
    """Span recorder; spans are recorded only while ``active`` is true."""

    def __init__(self, capacity: int = 400_000):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = np.zeros(len(self.names), dtype=np.int64)
        self.self_s = np.zeros(len(self.names))
        self.spans = np.zeros(capacity, dtype=SPAN_DTYPE)
        self.recorded = 0
        self.dropped = 0
        self.active = False
        self._stack: list[list] = []  # [span index, child seconds]
        self._installed: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        nid = self._ids[name]
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.recorded + self.dropped
            parent = self._stack[-1][0] if self._stack else -1
            frame = [index, 0.0]
            self._stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.self_s[nid] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                if self.recorded < len(self.spans):
                    self.spans[self.recorded] = (nid, parent, start, end)
                    self.recorded += 1
                else:
                    self.dropped += 1

        return traced

    def install(self, package) -> None:
        """Wrap every traced function of ``package`` (the imported library).

        A function is replaced wherever a library module holds it, so names
        bound at import time (``energy._row_softmax_lse`` is
        ``numkit.softmax_lse_rows``) are timed too. The closures that
        ``gradient_engine`` returns are wrapped as they are created.
        """
        modules = [getattr(package, name) for name in
                   ("numkit", "energy", "attention", "descent", "equivalence",
                    "loopsim")]
        for module_name, path in TRACED:
            owner = getattr(package, module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            name = f"{module_name}.{path}"
            if name == "energy.gradient_engine":
                wrapped = self.wrap(name, self._engine_wrapper(original))
            else:
                wrapped = self.wrap(name, original)
            self._replace(owner, attr, wrapped)
            if not outer:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original and module is not owner:
                            self._replace(module, key, wrapped)

    def _engine_wrapper(self, engine):
        wrap_evaluate = functools.partial(self.wrap, EVALUATE)

        @functools.wraps(engine)
        def build(*args, **kwargs):
            return wrap_evaluate(engine(*args, **kwargs))

        return build

    def _replace(self, owner, attr: str, value) -> None:
        self._installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def calls_of(self, name: str) -> int:
        return int(self.calls[self._ids[name]])

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            spans=self.spans[:self.recorded],
                            dropped=np.array(self.dropped))
