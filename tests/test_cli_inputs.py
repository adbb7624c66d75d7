"""Property test of the command line's input surface.

Any argv built from the parser's own flags, with unknown names, empty
values, repeated flags, odd tolerances and seeds and the removed flags
mixed in, ends in an exit status: 0, 1, 2 or the broken-pipe status, never
a traceback or a warning.  A usage error says so on exactly one ``error:``
line.  Point counts are drawn only from -2..3, which run in a few
milliseconds, and from 10**7 up, which the memory budget refuses before
sampling; sampling more than 3 points fails the test.
"""

import contextlib
import io
from unittest import mock

import pytest

pytest.importorskip("hypothesis")

from hypothesis import event, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from kenmotsu import catalog, cli  # noqa: E402
from kenmotsu.catalog import NamedExample  # noqa: E402
from kenmotsu.report import IDENTITIES  # noqa: E402

EXITS = {0, 1, 2, cli.EXIT_BROKEN_PIPE}
HUGE = ["--manifold", "h5", "--points", "6710886"]

_names = st.text(alphabet="abcdehnuz0123456789-_.", max_size=8)
_tolerance = st.sampled_from(
    ["1e-5", "2", "nan", "inf", "-inf", "1e-320", "5e-324", "1e400", "0", "-1", "", "x"]
)
# each flag's values; a switch takes none
VALUES = {
    "--manifold": st.sampled_from([ex.name for ex in catalog()] + ["", "nope"]) | _names,
    "--suite": st.sampled_from([*cli.SUITE_ORDER, "all", "", "nope"]) | _names,
    "--points": st.integers(-2, 3) | st.integers(min_value=10**7),
    "--seed": st.integers(-(2**70), 2**70),
    "--tol": st.one_of(
        st.builds(lambda name, value: f"{name}={value}",
                  st.sampled_from([*IDENTITIES, "", "nope"]), _tolerance),
        st.sampled_from(["", "=", "=1e-5", "garbage", "kenmotsu-condition", "a=b=c"]),
    ),
    # removed: no finite difference is left to tune
    "--step": st.sampled_from(["1e-4", "5e-324", "0", "nan"]),
}
SWITCHES = ("--json", "--list", "--help", "--no-richardson")
REMOVED = ("--step", "--no-richardson")


def _option(flag: str):
    """One occurrence of ``flag`` as argv tokens: ``--flag value``, ``--flag=value`` or a switch."""
    if flag not in VALUES:
        return st.just([flag])
    return st.builds(
        lambda value, joined: [f"{flag}={value}"] if joined else [flag, str(value)],
        VALUES[flag], st.booleans(),
    )


# a drawn --points comes first, so that the default of 20 never applies;
# argparse keeps the last of a repeated flag
_argv = st.builds(
    lambda points, options: [*points, *(token for option in options for token in option)],
    _option("--points"),
    st.lists(st.one_of([_option(flag) for flag in (*VALUES, *SWITCHES)]), max_size=7),
)


def test_every_parser_flag_is_drawn():
    parser = cli.build_parser()
    flags = {max(action.option_strings, key=len) for action in parser._actions}
    assert flags == (set(VALUES) | set(SWITCHES)) - set(REMOVED)


@settings(max_examples=200, deadline=None)
@example(HUGE)
# a memory estimate beyond a float's range once ended in an OverflowError
@example(["--points", str(10**400)])
@given(_argv)
def test_any_argv_ends_in_an_exit_status(argv):
    sample_points = NamedExample.sample_points

    def guarded(self, count, seed):
        assert count <= 3, f"sampled {count} points"
        return sample_points(self, count, seed)

    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(NamedExample, "sample_points", guarded), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exit_:  # argparse's usage errors and --help
            status = exit_.code
    err = err.getvalue()
    event(f"exit {status}")
    assert status in EXITS, (status, err)
    assert "Traceback" not in err and "Warning" not in err
    if status == 2:
        assert sum("error:" in line for line in err.splitlines()) == 1, err
    else:
        assert err == ""
    if argv == HUGE:
        assert status == 2
