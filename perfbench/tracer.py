"""Span tracer for the traced benchmark run.

Wraps named public functions of ``qexterior`` once each, records nested
spans in memory and reports per name the call count and the self time
(span duration minus the time covered by child spans).  A few wrapped
functions also feed counters (term counts, matrix cells, repeat shares).

The wrapper is rebound in every loaded ``qexterior`` module whose namespace
holds the original object, because several modules import functions by
name (``from .snf import smith_normal_form``); patching only the defining
module would miss those calls.  Methods are patched on their class, which
subclasses that inherit them also see.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute path).  Two targets may share a prefix:
# HLaurent overrides __divmod__ and calls HPoly's, both count as hpoly.divmod.
TARGETS = [
    ("hpoly.divmod", "qexterior.hpoly", "HPoly.__divmod__"),
    ("hpoly.divmod", "qexterior.hpoly", "HLaurent.__divmod__"),
    ("hpoly.mul", "qexterior.hpoly", "HPoly.__mul__"),
    ("quantum.qwedge", "qexterior.quantum", "qwedge"),
    ("forms.wedge", "qexterior.forms", "wedge"),
    ("forms.bivector_contract", "qexterior.forms", "bivector_contract"),
    ("forms.symplectic_star", "qexterior.forms", "symplectic_star"),
    ("lefschetz.apply_Lh", "qexterior.lefschetz", "apply_Lh"),
    ("lefschetz.apply_Lh_star", "qexterior.lefschetz", "apply_Lh_star"),
    ("lefschetz.Mh_matrix", "qexterior.lefschetz", "Mh_matrix"),
    ("calculus.quantum_d", "qexterior.calculus", "quantum_d"),
    ("calculus.koszul_delta", "qexterior.calculus", "koszul_delta"),
    ("snf.smith_normal_form", "qexterior.snf", "smith_normal_form"),
    ("snf.solve_linear", "qexterior.snf", "solve_linear"),
    ("snf.rank_fraction_field", "qexterior.snf", "rank_fraction_field"),
    ("linalg.det", "qexterior.linalg", "det"),
    ("linalg.charpoly", "qexterior.linalg", "charpoly"),
    ("linalg.factor_charpoly", "qexterior.linalg", "factor_charpoly"),
    ("linalg.geometric_multiplicity", "qexterior.linalg",
     "geometric_multiplicity"),
    ("cohomology.quantum_derham_table", "qexterior.cohomology",
     "quantum_derham_table"),
    ("cohomology.ring_table", "qexterior.cohomology", "ring_table"),
    ("complexes.complex_homology", "qexterior.complexes", "complex_homology"),
    ("lefschetz.commutator_check", "qexterior.lefschetz", "commutator_check"),
    ("lefschetz.hard_lefschetz_check", "qexterior.lefschetz",
     "hard_lefschetz_check"),
    ("suites.run_suite", "qexterior.suites", "run_suite"),
    ("cli.main", "qexterior.cli", "main"),
    ("serialize.dump_json", "qexterior.serialize", "dump_json"),
    ("serialize.model_from_json", "qexterior.serialize", "model_from_json"),
]

# Extra counters per prefix: name -> unit.  Repeat shares are derived from
# the two internal counts ``<name>.repeats`` / calls at report time.
EXTRAS = {
    "quantum.qwedge": {"in_terms": "count", "out_terms": "count",
                       "w_repeat_share": "ratio"},
    "snf.smith_normal_form": {"cells": "count"},
    "snf.solve_linear": {"matrix_repeat_share": "ratio"},
    "linalg.factor_charpoly": {"roots_found": "count"},
    "serialize.dump_json": {"bytes": "B"},
}


def prefixes():
    """Metric prefixes in declaration order, each once."""
    return list(dict.fromkeys(p for p, _m, _a in TARGETS))


def _value_key(x):
    """Hashable value of a matrix entry (HPoly/HLaurent or a scalar)."""
    coeffs = getattr(x, "coeffs", None)
    if coeffs is None:
        return x
    return (type(x).__name__, tuple(sorted(coeffs.items())))


def _bivector_key(w):
    return (w.dim, tuple(sorted(w.entries.items())))


def _matrix_key(rows):
    return tuple(tuple(_value_key(x) for x in row) for row in rows)


class Tracer:
    """Installs span wrappers and aggregates calls, self time and counters.

    ``install`` returns the targets it could not resolve; they are reported
    as missing rather than raising, so the benchmark keeps working when a
    later change renames or removes a function.
    """

    def __init__(self):
        self.calls = {p: 0 for p in prefixes()}
        self.self_s = {p: 0.0 for p in prefixes()}
        self.counts = {}
        self.missing = []
        self._seen = {}
        # Each frame is [time covered by child spans]; the bottom frame
        # collects top-level spans and is never reported.
        self._stack = [[0.0]]
        self._restore = []

    def _count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def _repeat(self, name, key):
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self._count(name + ".repeats", 1)
        else:
            seen.add(key)

    def _observe(self, prefix, args, result):
        if prefix == "quantum.qwedge":
            a, b, w = args[:3]
            self._count(prefix + ".in_terms", len(a.terms) + len(b.terms))
            self._count(prefix + ".out_terms", len(result.terms))
            self._repeat(prefix, _bivector_key(w))
        elif prefix == "snf.smith_normal_form":
            A = args[0]
            self._count(prefix + ".cells",
                        len(A) * (len(A[0]) if A else 0))
        elif prefix == "snf.solve_linear":
            self._repeat(prefix, _matrix_key(args[0]))
        elif prefix == "linalg.factor_charpoly":
            self._count(prefix + ".roots_found",
                        sum(result.rational_roots.values()))
        elif prefix == "serialize.dump_json":
            self._count(prefix + ".bytes", len(result.encode("utf-8")))

    def _wrap(self, prefix, fn):
        stack = self._stack
        clock = time.perf_counter
        observe = prefix in EXTRAS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            frame = [0.0]
            stack.append(frame)
            try:
                start = clock()
                result = fn(*args, **kwargs)
                span = clock() - start
            finally:
                stack.pop()
            self.calls[prefix] += 1
            self.self_s[prefix] += span - frame[0]
            if observe:
                self._observe(prefix, args, result)
            # The parent treats the whole wrapper, bookkeeping included, as
            # child time, so tracer cost is charged to no reported span.
            stack[-1][0] += clock() - entered
            return result

        return wrapper

    def install(self):
        for prefix, modname, path in TARGETS:
            try:
                module = importlib.import_module(modname)
                owner = module
                *parents, attr = path.split(".")
                for name in parents:
                    owner = getattr(owner, name)
                original = owner.__dict__[attr] if isinstance(owner, type) \
                    else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{modname}.{path}")
                continue
            wrapper = self._wrap(prefix, original)
            # A class namespace can alias the method (``__rmul__ =
            # __mul__``); a function can be imported into other modules.
            holders = [owner] if isinstance(owner, type) else [
                mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "qexterior"
                                        or name.startswith("qexterior."))]
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is original:
                        self._rebind(holder, name, original, wrapper)
        return self.missing

    def _rebind(self, owner, name, original, wrapper):
        setattr(owner, name, wrapper)
        self._restore.append((owner, name, original))

    def uninstall(self):
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)} for every prefix."""
        out = {}
        for prefix in prefixes():
            calls = self.calls[prefix]
            out[prefix + ".calls"] = (calls, "count")
            out[prefix + ".self_s"] = (self.self_s[prefix], "s")
            for extra, unit in EXTRAS.get(prefix, {}).items():
                if extra.endswith("_repeat_share"):
                    repeats = self.counts.get(prefix + ".repeats", 0)
                    value = repeats / calls if calls else 0.0
                else:
                    value = self.counts.get(f"{prefix}.{extra}", 0)
                out[f"{prefix}.{extra}"] = (value, unit)
        return out
