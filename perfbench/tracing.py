"""In-memory spans and counters around the public entry points of each layer.

The layers are the ``obstruct`` modules.  Tracing patches every module and
class attribute that holds a listed function object, so a function bound
elsewhere with ``from ... import`` is traced as well.  Nothing under
``src/`` is changed; the patches are undone by ``Tracer.uninstall``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, attribute, layer name, mode, post hook)
#   mode "span": time every call;  "count": count calls only, for functions
#   called so often (over a million times per pass) that a span would swamp
#   the work it measures.
#   The post hook adds work counters from the arguments and the result.
TARGETS = [
    ("obstruct.perron", "perron_eigendata", "perron.perron_eigendata", "span",
     lambda t, a, r: t.add("perron.exact", int(r.exact))),
    ("obstruct.measures", "parry_measure", "measures.parry_measure", "span",
     lambda t, a, r: t.add("measures.parry_measure.cylinders", len(r.table))),
    ("obstruct.measures", "empirical_mme", "measures.empirical_mme", "span",
     lambda t, a, r: t.add("measures.empirical_mme.cylinders", len(r.table))),
    ("obstruct.automata", "Presentation.state_counts", "automata.state_counts",
     "count", None),
    ("obstruct.automata", "Presentation.extension_counts",
     "automata.extension_counts", "count", None),
    ("obstruct.automata", "Presentation.enumerate_words", "automata.enumerate_words",
     "span", lambda t, a, r: t.add("automata.enumerate_words.words", len(r))),
    ("obstruct.decomposition", "min_gluing_time", "decomposition.min_gluing_time",
     "span", None),
    ("obstruct.decomposition", "check_specification",
     "decomposition.check_specification", "count",
     lambda t, a, r: (t.add("decomposition.tuples_checked", r.tuples_checked),
                      t.add("decomposition.exhaustive_passes",
                            int(r.exhaustive and r.passed)))),
    ("obstruct.suites", "counting_suite", "suites.counting_suite", "span", None),
    ("obstruct.suites", "gibbs_check", "suites.gibbs_check", "span", None),
    ("obstruct.suites", "mixing_check", "suites.mixing_check", "span", None),
    ("obstruct.suites", "positive_mass_count", "suites.positive_mass_count", "span",
     None),
    ("obstruct.suites", "mixing_liminf_probe", "suites.mixing_liminf_probe", "span",
     None),
    ("obstruct.beta", "greedy_expansion", "beta.greedy_expansion", "span", None),
    ("obstruct.beta", "BetaSystem.__init__", "beta.BetaSystem", "span",
     lambda t, a, r: t.add("beta.presentation.states", a[0].presentation.n_states)),
    ("obstruct.orbits", "upper_entropy", "orbits.upper_entropy", "span", None),
    ("obstruct.orbits", "count_separated", "orbits.count_separated", "count", None),
    ("obstruct.factors", "FactorSystem.__init__", "factors.FactorSystem", "span",
     lambda t, a, r: t.add("factors.FactorSystem.subset_states",
                           a[0].presentation.n_states)),
    ("obstruct.factors", "build_pair_automaton", "factors.build_pair_automaton",
     "span",
     lambda t, a, r: t.add("factors.build_pair_automaton.pair_states", len(r.states))),
    ("obstruct.factors", "nonexpansive_growth", "factors.nonexpansive_growth", "span",
     None),
    ("obstruct.factors", "factor_entropy_positive", "factors.factor_entropy_positive",
     "span", None),
    ("obstruct.quadratic", "QuadraticNumber.__mul__", "quadratic.mul", "count", None),
    ("obstruct.quadratic", "QuadraticNumber.__truediv__", "quadratic.div", "count",
     None),
    ("obstruct.reports", "dumps_report", "reports.dumps_report", "span",
     lambda t, a, r: t.add("reports.report_bytes", len(r.encode()))),
    ("obstruct.cli", "build_system", "cli.build_system", "span", None),
]

# work counters the post hooks add to
COUNTERS = (
    "perron.exact",
    "measures.parry_measure.cylinders",
    "measures.empirical_mme.cylinders",
    "automata.enumerate_words.words",
    "decomposition.tuples_checked",
    "decomposition.exhaustive_passes",
    "beta.presentation.states",
    "factors.FactorSystem.subset_states",
    "factors.build_pair_automaton.pair_states",
    "reports.report_bytes",
)


class Tracer:
    """Spans (name, start, end, parent, run id) and counters, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, run id]
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.run_id = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def add(self, name: str, amount) -> None:
        self.counters[name] += amount

    # -- spans -----------------------------------------------------------------

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, mode, post):
        calls = self.calls

        if mode == "count":
            def counted(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                if post is not None:
                    post(self, args, result)
                return result
            return counted

        def spanned(*args, **kwargs):
            calls[name] += 1
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if post is not None:
                post(self, args, result)
            return result
        return spanned

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        """Patch every attribute holding a target; fail if a target is missing."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "obstruct" or k.startswith("obstruct."))]
        for module_name, attr, name, mode, post in TARGETS:
            owner_name, _, member = attr.rpartition(".")
            module = sys.modules[module_name]
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__.get(member)
                holders = [owner]
            else:
                original = getattr(module, member, None)
                holders = modules
            if original is None:
                raise LookupError(f"trace target {module_name}.{attr} not found")
            wrapper = self._wrap(original, name, mode, post)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    # -- summaries -------------------------------------------------------------

    def span_times(self) -> tuple[Counter, Counter]:
        """Total and self seconds per span name.

        Total time counts only the outermost span of a name, so recursion is
        not counted twice.  Self time is a span's duration minus the part its
        children cover; spans nest and run on one thread, so the children of
        a span never overlap and that part is the sum of their durations.
        """
        total, own = Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            own[name] += dur
            if parent is not None:
                own[self.spans[parent][0]] -= dur
            ancestor = parent
            while ancestor is not None and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor is None:
                total[name] += dur
        return total, own

    def dump(self) -> list[dict]:
        keys = ("name", "start", "end", "parent", "run")
        return [dict(zip(keys, s)) for s in self.spans]
