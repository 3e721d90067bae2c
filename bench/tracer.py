"""Outside-in tracer: spans around calls into each hlab module.

The tracer changes no hlab source.  It replaces every public module-level
function of each layer module with a timing wrapper, at every binding site in
the package: the defining module and every module that imported the name
directly (for example `hlab.coarse.solve_neumann_affine` or
`hlab.solver.discrete_gradient`).  Calls made through a module object
(`spectral.torus_solve_nodespace`) and names imported inside function bodies
resolve to the patched attribute at call time, so they are covered too.
Private helpers (`_cg`, `_amul`, `_net_cg`, ...) are not wrapped: their time
is self time of the layer that owns them.

Spans stay in memory while the pass runs and are written out afterwards.
"""

from __future__ import annotations

import csv
import functools
import itertools
import sys
import time
import types

import numpy as np

LAYERS = ("lattice", "fields", "spectral", "solver", "coarse", "correctors",
          "renorm", "twoscale", "stochproc", "harness")

# span record fields (records are plain lists to keep per-call cost low)
ID, PARENT, LAYER, NAME, START, END, CHILD, ERROR, INFO = range(9)

SOLVE_BC = {
    "solve_dirichlet_affine": "dirichlet_affine",
    "solve_dirichlet_data": "dirichlet_data",
    "solve_neumann_affine": "neumann",
    "solve_periodic_cell": "periodic",
    "solve_forced": "forced",
}
SPECTRAL_KIND = {
    "torus_solve_nodespace": "torus",
    "dirichlet_solve_nodespace": "dirichlet",
    "neumann_solve_nodespace": "neumann",
}


def _nbytes(obj) -> int:
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (tuple, list)):
        return sum(_nbytes(x) for x in obj)
    return 0


def _lattice_bytes(args, kwargs, result) -> int:
    n = _nbytes(result)
    for x in args:
        if isinstance(x, np.ndarray):
            n += x.nbytes
    for x in kwargs.values():
        if isinstance(x, np.ndarray):
            n += x.nbytes
    return n


class Tracer:
    """Records one span per wrapped call; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._ids = itertools.count()
        self._patched = []          # (module, attribute, original)
        self._pair_keys = set()     # (id(field), cube) per coarse pair
        self._pair_fields = []      # keeps keyed fields alive so ids stay unique

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layer modules at every binding site."""
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"hlab.{layer}"]
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(layer, name, obj))
        sites = [m for n, m in list(sys.modules.items())
                 if m is not None and (n == "hlab" or n.startswith("hlab."))]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, layer, name, fn):
        probe = self._probe_for(layer, name)
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [next(ids), stack[-1][ID] if stack else None, layer, name,
                   0.0, 0.0, 0.0, False, None]
            stack.append(rec)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                end = clock()
                stack.pop()
                rec[START] = start
                rec[END] = end
                if stack:
                    stack[-1][CHILD] += end - start
                spans.append(rec)
            if probe is not None:
                rec[INFO] = probe(args, kwargs, result)
            return result

        return traced

    # -- per-call counters read from arguments and returned objects ----------

    def _probe_for(self, layer, name):
        if layer == "solver" and name in SOLVE_BC:
            return lambda a, k, r: (r.iterations, r.residual)
        if layer == "spectral" and name in SPECTRAL_KIND:
            return lambda a, k, r: np.size(a[0] if a else k["b"])
        if layer == "lattice":
            return _lattice_bytes
        if layer == "coarse" and name == "coarse_matrices":
            return self._pair_probe
        if layer == "renorm" and name == "coarse_grained_b":
            return lambda a, k, r: len(r.points)
        if layer == "stochproc" and name == "parabolic_green":
            return lambda a, k, r: int(r.metadata["cg_iterations"])
        if layer == "harness" and name == "ensemble_values":
            return lambda a, k, r: (len(r[1]), len(r[2]))
        return None

    def _pair_probe(self, args, kwargs, result):
        fld = args[0] if args else kwargs["a_field"]
        self._pair_keys.add((id(fld), result.cube))
        self._pair_fields.append(fld)
        return result.iterations

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer counts and self times of the recorded spans."""
        self_s = dict.fromkeys(LAYERS, 0.0)
        entries = dict.fromkeys(LAYERS, 0)
        spectral_calls = dict.fromkeys(SPECTRAL_KIND.values(), 0)
        solves = dict.fromkeys(SOLVE_BC.values(), 0)
        spectral_points = lattice_bytes = 0
        cg_iters = solver_errors = pairs = pair_solves = 0
        residual_max = 0.0
        flux_corrector_s = walk_s = green_s = rate_fit_s = 0.0
        renorm_points = green_iters = members = member_errors = 0
        by_id = {s[ID]: s for s in self.spans}
        in_pair = {}   # span id -> whether a coarse_matrices span encloses it

        def enclosed(span_id):
            if span_id is None:
                return False
            if span_id not in in_pair:
                p = by_id[span_id]
                in_pair[span_id] = p[NAME] == "coarse_matrices" or enclosed(p[PARENT])
            return in_pair[span_id]

        for s in self.spans:
            layer, name, info = s[LAYER], s[NAME], s[INFO]
            dur = s[END] - s[START]
            self_s[layer] += dur - s[CHILD]
            entry = s[PARENT] is None or by_id[s[PARENT]][LAYER] != layer
            if entry:
                entries[layer] += 1
            if layer == "solver":
                solver_errors += s[ERROR]
                if name in SOLVE_BC and info is not None:
                    solves[SOLVE_BC[name]] += 1
                    cg_iters += info[0]
                    residual_max = max(residual_max, info[1])
                    pair_solves += enclosed(s[PARENT])
            elif layer == "spectral" and entry and name in SPECTRAL_KIND:
                spectral_calls[SPECTRAL_KIND[name]] += 1
                spectral_points += info or 0
            elif layer == "lattice" and entry:
                lattice_bytes += info or 0
            elif layer == "coarse" and name == "coarse_matrices" and info is not None:
                pairs += 1
            elif layer == "correctors" and name == "flux_corrector":
                flux_corrector_s += dur
            elif layer == "renorm" and name == "coarse_grained_b" and info is not None:
                renorm_points += info
            elif layer == "stochproc":
                if name == "simulate_walks":
                    walk_s += dur
                elif name == "parabolic_green":
                    green_s += dur
                    green_iters += info or 0
            elif layer == "harness":
                if name == "rate_fit":
                    rate_fit_s += dur
                elif name == "ensemble_values" and info is not None:
                    members += info[0]
                    member_errors += info[1]
        n_solves = sum(solves.values())
        out = {f"spectral.calls.{k}": v for k, v in spectral_calls.items()}
        out["spectral.points"] = spectral_points
        out.update({f"solver.solves.{k}": v for k, v in solves.items()})
        out.update({
            "solver.cg_iters": cg_iters,
            "solver.iters_per_solve": cg_iters / n_solves if n_solves else 0.0,
            "solver.residual_max": residual_max,
            "solver.errors": solver_errors,
            "lattice.calls": entries["lattice"],
            "lattice.bytes_computed": lattice_bytes,
            "coarse.pairs": pairs,
            "coarse.solves_per_pair": pair_solves / pairs if pairs else 0.0,
            "coarse.distinct_frac": len(self._pair_keys) / pairs if pairs else 0.0,
            "fields.calls": entries["fields"],
            "correctors.calls": entries["correctors"],
            "correctors.flux_corrector_s": flux_corrector_s,
            "renorm.points": renorm_points,
            "twoscale.calls": entries["twoscale"],
            "stochproc.walk_s": walk_s,
            "stochproc.green_s": green_s,
            "stochproc.green_cg_iters": green_iters,
            "harness.members": members,
            "harness.member_errors": member_errors,
            "harness.rate_fit_s": rate_fit_s,
        })
        out.update({f"{layer}.self_s": self_s[layer] for layer in LAYERS})
        return out

    def write_spans(self, path) -> None:
        """One CSV row per span: id, parent, layer, function, start, end, self time, error."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "layer", "function", "start_s", "end_s",
                        "self_s", "error"])
            for s in sorted(self.spans, key=lambda s: s[ID]):
                w.writerow([s[ID], "" if s[PARENT] is None else s[PARENT], s[LAYER], s[NAME],
                            f"{s[START]:.9f}", f"{s[END]:.9f}",
                            f"{s[END] - s[START] - s[CHILD]:.9f}", int(s[ERROR])])
