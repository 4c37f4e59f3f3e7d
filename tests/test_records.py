"""Records are NamedTuples.  The validated ones (Context, Observable,
CommMatrix, MPInstrument, RunConfig) check their fields on every way a
record is built, and importing the package generates no dataclass code."""

import os
import pickle
import subprocess
import sys

import pytest

from gptwb.cli import RunConfig
from gptwb.communication import comm_matrix
from gptwb.instruments import mp_instrument
from gptwb.numerics import Context
from gptwb.observables import observable
from gptwb.spaces import make_polygon

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _records():
    """(valid record, field, a value of it that the record refuses)."""
    sp = make_polygon(4)
    half = observable(sp, [(0, 0, 0.5), (0, 0, 0.5)])
    return {
        "Context": (Context("float", 1e-9), "backend", "nonsense"),
        "Observable": (half, "effects", ((0, 0, 0.5), (0, 0, 0.4))),
        "CommMatrix": (comm_matrix([[1, 0], [0, 1]]), "matrix", ((0.5, 0.6), (0.2, 0.8))),
        "MPInstrument": (mp_instrument(half, sp.vertices[:2], sp), "prepared_states",
                         sp.vertices[:1]),
        "RunConfig": (RunConfig(), "tolerance", 1e-13),
        "RunConfig.backend": (RunConfig(), "backend", "exat"),
        "RunConfig.fmt": (RunConfig(), "fmt", "yaml"),
    }


# each way to build a record of ``type(rec)`` from a dict of all its fields
BUILDS = {
    "positional": lambda rec, fields: type(rec)(*fields.values()),
    "keyword": lambda rec, fields: type(rec)(**fields),
    "_make": lambda rec, fields: type(rec)._make(fields.values()),
    "_replace": lambda rec, fields: rec._replace(**fields),
    # a record forged past the constructor, pickled and loaded back
    "pickle": lambda rec, fields: pickle.loads(pickle.dumps(
        tuple.__new__(type(rec), tuple(fields.values())))),
}


@pytest.mark.parametrize("build", list(BUILDS))
@pytest.mark.parametrize("name", ["Context", "Observable", "CommMatrix", "MPInstrument",
                                  "RunConfig", "RunConfig.backend", "RunConfig.fmt"])
def test_validated_records_refuse_invalid_fields_on_every_path(name, build):
    """Every path builds the valid record and refuses it with one field
    invalid: NamedTuple's own ``_make`` and ``_replace`` would skip the
    check through ``tuple.__new__``."""
    rec, field, bad = _records()[name]
    assert type(BUILDS[build](rec, rec._asdict())) is type(rec)
    with pytest.raises(ValueError):
        BUILDS[build](rec, rec._asdict() | {field: bad})


def test_importing_the_package_and_cli_loads_no_dataclasses_or_inspect():
    """In a fresh process, as CI's "Standard library only" step counts:
    only the modules the import adds, since site hooks may preload some."""
    code = ("import sys; before = set(sys.modules); import gptwb, gptwb.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    added = set(proc.stdout.split())
    assert "gptwb.cli" in added
    assert not added & {"dataclasses", "inspect"}
