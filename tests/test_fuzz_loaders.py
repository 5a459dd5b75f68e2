"""Fuzz the JSON input boundary through ``cli.main``.

Random JSON trees, and near-valid documents built from the same leaves, are
written as the model, form, connection and action files of the commands
that read them.  Every run must exit 0 or 2 with no traceback: exit 1 (a
property failure) or 3 (an internal error) on such input is a finding.
Integers are drawn from -2..5, so no valid model exceeds dimension 5.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qexterior.cli import main

INTS = st.integers(-2, 5)
WORDS = st.sampled_from(["torus", "affine", "darboux", "0", "1", "-1",
                         "1/2", "-3/4", "1/0", "x", ""])
KEYS = st.sampled_from(["space", "dim", "bivector", "symplectic", "complex",
                        "indices", "h", "coeff", "poly", "fourier", "re",
                        "im", "rank", "theta", "generators"])
LEAVES = st.one_of(INTS, WORDS, st.booleans(), st.none(),
                   st.sampled_from([0.5, -1.0, 1.9]))
TREES = st.recursive(
    LEAVES, lambda kids: st.one_of(st.lists(kids, max_size=4),
                                   st.dictionaries(KEYS, kids, max_size=4)),
    max_leaves=10)

SCALARS = st.one_of(INTS, WORDS, st.fixed_dictionaries(
    {"re": st.one_of(INTS, WORDS), "im": st.one_of(INTS, WORDS)}), LEAVES)
COEFFS = st.one_of(SCALARS, TREES, st.builds(
    lambda name, terms: {name: terms}, st.sampled_from(["poly", "fourier"]),
    st.lists(st.tuples(st.lists(INTS, max_size=5), SCALARS).map(list),
             max_size=3)))
TERMS = st.fixed_dictionaries(
    {"indices": st.one_of(st.lists(st.integers(1, 5), min_size=1, max_size=2,
                                   unique=True).map(sorted),
                          st.lists(INTS, max_size=3), TREES),
     "coeff": COEFFS},
    optional={"h": st.one_of(INTS, LEAVES)})
FORMS = st.one_of(st.lists(st.one_of(TERMS, TREES), max_size=3), TREES)


def near(bases, values):
    """One of the valid documents ``bases``, as it is or with one key set
    to a draw of ``values[key]``, or a random tree."""
    pair = st.sampled_from(sorted(values)).flatmap(
        lambda key: st.tuples(st.just(key), values[key]))
    return st.one_of(st.sampled_from(bases), st.builds(
        lambda base, kv: {**base, kv[0]: kv[1]}, st.sampled_from(bases),
        pair), TREES)


MODELS = near(
    [{"space": "torus", "dim": 2, "symplectic": "darboux"},
     {"space": "torus", "dim": 2, "symplectic": "darboux", "complex": True},
     {"space": "torus", "dim": 4, "symplectic": "darboux"},
     {"space": "torus", "dim": 3, "bivector": [[1, 2, "1/2"], [2, 3, -1]]},
     {"space": "affine", "dim": 2, "symplectic": "darboux"},
     {"space": "affine", "dim": 3,
      "bivector": [[1, 2, {"poly": [[[0, 0, 1], "1"]]}]]}],
    {"space": st.one_of(st.sampled_from(["torus", "affine"]), LEAVES),
     "dim": st.one_of(INTS, LEAVES),
     "bivector": st.one_of(st.lists(st.one_of(
         st.tuples(INTS, INTS, COEFFS).map(list), TREES), max_size=3), TREES),
     "symplectic": st.one_of(
         st.just("darboux"),
         st.lists(st.lists(SCALARS, max_size=4), max_size=4), TREES),
     "complex": st.one_of(st.booleans(), LEAVES)})
CONNECTIONS = near(
    [{"rank": 1, "theta": [[[]]]},
     {"rank": 2, "theta": [[[], [{"indices": [1], "coeff": "1"}]],
                           [[{"indices": [2], "h": 0, "coeff": 2}], []]]}],
    {"rank": st.one_of(INTS, LEAVES),
     "theta": st.one_of(st.lists(st.lists(FORMS, max_size=2), max_size=2),
                        TREES)})
ACTIONS = near(
    [{"generators": [["1", 0]]}, {"generators": []}],
    {"generators": st.one_of(st.lists(st.lists(SCALARS, max_size=4),
                                      max_size=2), TREES)})


def run(argv):
    """Exit code and stderr of an in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(model=MODELS, form=FORMS, connection=CONNECTIONS, action=ACTIONS)
def test_loaders_exit_0_or_2(tmp_path, model, form, connection, action):
    files = {}
    for name, body in [("model", model), ("form", form),
                       ("connection", connection), ("action", action)]:
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(body), encoding="utf-8")
    m = ["--model", str(files["model"])]
    for argv in (["integral", *m, "--form", str(files["form"])],
                 ["chern", *m, "--connection", str(files["connection"]),
                  "--power", "1"],
                 ["equivariant", *m, "--action", str(files["action"]),
                  "--cutoff", "1", "--mode-box", "0"]):
        code, err = run(argv)
        assert code in (0, 2), (argv[0], model, form, connection, action, err)
        assert "Traceback" not in err
        if code == 2:
            assert json.loads(err)["error"]["code"] == 2
