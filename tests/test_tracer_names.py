"""The names the bench tracer (bench/tracer.py) wraps exist, and it leaves kpv as it was.

The tracer rebinds kpv's entry points by name; a name it wraps that kpv no
longer has makes install_kpv raise here, in a second, and not only in a
traced bench run.
"""

import sys
from pathlib import Path

import kpv.asymptotics
import kpv.ball_volumes
import kpv.cli
import kpv.configurations
import kpv.meanwidth
import kpv.polyhedra
import kpv.truncated_volume

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _kpv_attributes() -> dict:
    """Every attribute of every kpv module, and of the classes the tracer wraps."""
    owners = [mod for name, mod in sys.modules.items()
              if mod is not None and (name == "kpv" or name.startswith("kpv."))]
    owners += [kpv.ball_volumes.BallSystem, kpv.polyhedra.PolyhedralSet]
    return {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}


def test_tracer_wraps_kpv_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracer import Tracer

    before = _kpv_attributes()
    tracer = Tracer()
    try:
        tracer.install_kpv()
        wrapped = list(tracer._undo)
        for owner, attr, fn in wrapped:
            assert getattr(owner, attr) is not fn, attr
    finally:
        tracer.uninstall()
    names = {(getattr(owner, "__name__", ""), attr) for owner, attr, _ in wrapped}
    for name in (("BallSystem", "off_breakpoint"), ("kpv.truncated_volume", "solve_ivp"),
                 ("kpv.truncated_volume", "fit_radial_powers"), ("kpv.meanwidth", "calibrate")):
        assert name in names, name
    after = _kpv_attributes()
    assert after.keys() == before.keys()
    assert [key for key, value in after.items() if value is not before[key]] == []
