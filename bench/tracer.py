"""Outside tracer: spans around kpv's public entry points, installed by rebinding.

Nothing in ``src/`` is edited.  A function is wrapped by replacing every
module attribute inside the ``kpv`` package that refers to it (the defining
module and every module that imported the name), so calls through any import
path land in the wrapper.  ``BallSystem`` and ``PolyhedralSet`` methods are
wrapped at class level.  ``RadialVolumeProfile.value_scalar`` stays unwrapped
on purpose: it runs inside every RK45 right-hand-side call, so a span there
would measure the tracer rather than the integrator.

Spans are kept in memory (capped) together with per-name aggregates, and the
caller writes them out when the run ends.  Self time is a span's duration
minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.incl = defaultdict(float)      # outermost spans of each name only
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans: list[tuple] = []        # (id, parent id, name, start, end)
        self.dropped = 0
        self._stack: list[list] = []        # [id, child time] per open span
        self._depth = defaultdict(int)
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        self._depth[name] += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            self._stack.pop()
            self._depth[name] -= 1
            if self._stack:
                self._stack[-1][1] += dt
            self.calls[name] += 1
            self.self_s[name] += dt - frame[1]
            if self._depth[name] == 0:
                self.incl[name] += dt
            if len(self.spans) < SPAN_CAP:
                self.spans.append((sid, parent, name, t0, t1))
            else:
                self.dropped += 1

    def add(self, counter: str, value: int):
        self.counts[counter] += int(value)

    # -- installation ------------------------------------------------------

    def _rebind(self, fn, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "kpv" or mod_name.startswith("kpv.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, fn))

    def _wrapper(self, fn, name, after):
        """fn inside a span; name may be a function of the call's arguments."""
        def wrapper(*args, **kwargs):
            out = self.call(name(args, kwargs) if callable(name) else name,
                            fn, *args, **kwargs)
            if after is not None:
                after(out, args, kwargs)
            return out
        return functools.update_wrapper(wrapper, fn)

    def wrap_function(self, fn, name, after=None):
        """Rebind fn everywhere in kpv; after(result, args, kwargs) adds counts."""
        self._rebind(fn, self._wrapper(fn, name, after))

    def wrap_method(self, cls, attr, name, after=None):
        fn = getattr(cls, attr)
        setattr(cls, attr, self._wrapper(fn, name, after))
        self._undo.append((cls, attr, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def install_kpv(self):
        """Wrap the public entry point of every kpv layer."""
        import kpv.asymptotics as asy
        import kpv.ball_volumes as bv
        import kpv.cli as cli
        import kpv.configurations as conf
        import kpv.meanwidth as mw
        import kpv.polyhedra as poly
        import kpv.truncated_volume as tv

        def faces_after(out, args, kwargs):
            self.add("polyhedra.face_data.faces", len(out))
            self.add("polyhedra.face_data.halfspaces", args[0].n_halfspaces)

        def ivp_after(sol, args, kwargs):
            self.add("truncated_volume.solve_ivp.nfev", sol.nfev)
            self.add("truncated_volume.solve_ivp.steps", len(sol.t) - 1)

        def mc_after(out, args, kwargs):
            samples = args[3] if len(args) > 3 else kwargs["samples"]
            self.add("ball_volumes.mc_ball_volume.samples", samples)

        def profile_name(args, kwargs):
            P = args[0] if args else kwargs["P"]
            return f"truncated_volume.volume_profile.d{P.dimension}"

        self.wrap_function(poly.face_data, "polyhedra.face_data", faces_after)
        self.wrap_method(poly.PolyhedralSet, "feasibility_margin",
                         "polyhedra.feasibility_margin")
        self.wrap_function(tv.solve_ivp, "truncated_volume.solve_ivp", ivp_after)
        self.wrap_function(tv.volume_profile, profile_name)
        self.wrap_function(tv.fit_radial_powers, "truncated_volume.fit_radial_powers")
        self.wrap_function(asy.laurent_fit, "asymptotics.laurent_fit")
        for fn in (asy.verify_capoyleas_pach, asy.verify_csikos,
                   asy.verify_ww_proposition, asy.verify_lift_identity):
            self.wrap_function(fn, "asymptotics.verify")
        self.wrap_function(asy.kp_threshold, "asymptotics.kp_threshold")
        self.wrap_method(bv.BallSystem, "__init__", "ball_volumes.BallSystem")
        for attr in ("union_volume", "intersection_volume", "union_boundary",
                     "intersection_boundary", "off_breakpoint"):
            self.wrap_method(bv.BallSystem, attr, "ball_volumes.eval")
        self.wrap_function(bv.mc_ball_volume, "ball_volumes.mc_ball_volume", mc_after)
        self.wrap_function(mw.calibrate, "meanwidth.calibrate")
        for fn in (mw.mean_width_exact_2d, mw.mean_width_edge_sum_3d,
                   mw.mean_width_quadrature):
            self.wrap_function(fn, "meanwidth.mean_width")
        self.wrap_function(cli.run, "cli.run")
        for fn in (conf.load_configuration, conf.save_configuration,
                   conf.distance_matrix, conf.is_expansion, conf.are_congruent,
                   conf.embed, conf.random_expansion):
            self.wrap_function(fn, "configurations")

    # -- output ------------------------------------------------------------

    def to_dict(self) -> dict:
        names = sorted(self.calls)
        return {
            "aggregates": {n: {"calls": self.calls[n], "s": self.incl[n],
                               "self_s": self.self_s[n]} for n in names},
            "counts": dict(sorted(self.counts.items())),
            "spans": [list(s) for s in self.spans],
            "spans_dropped": self.dropped,
        }
