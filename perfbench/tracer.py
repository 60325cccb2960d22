"""Per-layer tracing of fraccond from outside the package.

The tracer wraps named functions and methods of fraccond modules and keeps,
per layer, the number of calls, the total time spent inside the call and the
self time: the total minus the time covered by nested traced calls.  Spans
are aggregated as they close, so memory does not grow with the call count.

Module-level functions are replaced by identity in every ``fraccond.*``
namespace, so a module that imported the function by name (``experiments``
binds ``assemble_dn``, ``dnmap`` binds ``interior_system``) calls the wrapper
too.  A layer whose module or attribute no longer exists is reported as
absent rather than raised, so the tracer keeps working when refactors
delete or rename functions.

Tracing assumes the traced code runs on one thread, which holds for the
CLI run the benchmark drives (it never passes ``--threads``).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# metric prefix -> (module, attribute path inside the module)
LAYERS = {
    "geometry.bandlimited_field": ("fraccond.geometry", "bandlimited_field"),
    "kernels.moment_weights_for": ("fraccond.kernels", "moment_weights_for"),
    "kernels.product_weights_for": ("fraccond.kernels", "product_weights_for"),
    "operators.pair_form": ("fraccond.operators", "pair_form"),
    "operators.pair_matvec": ("fraccond.operators", "pair_matvec"),
    "operators.hs_norm": ("fraccond.operators", "hs_norm"),
    "operators.hs_gram": ("fraccond.operators", "hs_gram"),
    "operators.frac_laplacian": ("fraccond.operators", "frac_laplacian"),
    "conductivity.liouville_potential": ("fraccond.conductivity", "liouville_potential"),
    "conductivity.mandache_family": ("fraccond.conductivity", "mandache_family"),
    "conductivity.pairwise_sup_gaps": ("fraccond.conductivity", "pairwise_sup_gaps"),
    "conductivity.validate_admissibility": ("fraccond.conductivity", "validate_admissibility"),
    "solver.interior_system": ("fraccond.solver", "interior_system"),
    "solver.factorize": ("fraccond.solver", "InteriorSystem.__init__"),
    "solver.solve": ("fraccond.solver", "InteriorSystem.solve"),
    "solver.apply": ("fraccond.solver", "InteriorSystem.apply"),
    "dnmap.build_exterior_basis": ("fraccond.dnmap", "build_exterior_basis"),
    "dnmap.assemble_dn": ("fraccond.dnmap", "assemble_dn"),
    "dnmap.dn_operator_norm": ("fraccond.dnmap", "dn_operator_norm"),
    "dnmap.restrict_dn": ("fraccond.dnmap", "restrict_dn"),
}


class Tracer:
    """Aggregates call count, total time and self time per layer name."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, total_s, self_s]
        self._children = []  # child time accumulated by each open span

    def wrap(self, name, fn):
        self.stats.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                child = self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
                entry = self.stats[name]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child

        return traced


def _resolve(module_name, path):
    """Return (owner, attribute name, value), or None when any part is missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # look in the owner's own namespace so an inherited method is not
    # mistaken for the one named here
    value = vars(owner).get(attr)
    if not callable(value):
        return None
    return owner, attr, value


def install(tracer, layers=LAYERS, package="fraccond"):
    """Wrap every resolvable layer; return the sorted names of absent ones."""
    absent = []
    for name, (module_name, path) in layers.items():
        found = _resolve(module_name, path)
        if found is None:
            absent.append(name)
            continue
        owner, attr, original = found
        wrapped = tracer.wrap(name, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapped)
            continue
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)
    return sorted(absent)
