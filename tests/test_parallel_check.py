"""`check` runs its suites in forked processes, one per usable CPU: the
same report bytes, stderr line and exit code as one process, whichever
process runs which suite, and no child outlives the command.

"One CPU" patches os.sched_getaffinity to {0}, which forks nothing.
a_child_runs_mv_first pins a layout in which a child surely runs a suite
that comes before the parent's: two processes, a child that pulls the
first suite, mv, before the parent pulls, and holds it 0.2 s.
"""

import os
import threading
import time
from pathlib import Path

import pytest

from formalcalc import cli
from formalcalc.cli import main
from formalcalc.errors import (CertificateError, QuadratureError,
                               UndecidedCertificateError)
from formalcalc.suites import SUITE_NAMES

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DEMO = str(SCENARIOS / "discrete_demo.json")


def check(capsys, *argv):
    """main(["check", *argv]) as (exit, stdout, stderr); no child of this
    process is left, reaped or not."""
    code = main(["check", *argv])
    captured = capsys.readouterr()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return code, captured.out, captured.err


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def every_suite_its_own_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(len(SUITE_NAMES))))


def wrap_suites(monkeypatch, before):
    """cli.run_suite calls before(name) first; what it raises, the suite
    raises."""
    real = cli.run_suite

    def run_suite(name, *args):
        before(name)
        return real(name, *args)
    monkeypatch.setattr(cli, "run_suite", run_suite)


def a_child_runs_mv_first(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    real = os.fork

    def fork():
        pid = real()
        if pid:
            time.sleep(0.1)  # the child pulls mv meanwhile
        return pid
    monkeypatch.setattr(os, "fork", fork)
    parent = os.getpid()

    def before(name):
        if os.getpid() != parent:
            time.sleep(0.2)  # the parent pulls glue meanwhile
    wrap_suites(monkeypatch, before)
    return parent


def no_fork():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("seed", [[], ["--seed", "13"]])
@pytest.mark.parametrize("name", ["discrete_demo", "glue_mismatch",
                                  "pair_demo", "smooth_demo"])
def test_check_all_json_is_the_bytes_of_one_cpu(name, seed, monkeypatch,
                                                capsys):
    argv = ["all", "--scenario", str(SCENARIOS / (name + ".json")),
            "--json", *seed]
    every = check(capsys, *argv)
    every_suite_its_own_cpu(monkeypatch)
    six = check(capsys, *argv)
    one_cpu(monkeypatch)
    one = check(capsys, *argv)
    assert every == six == one
    assert one[0] == (1 if name == "glue_mismatch" else 0)


def test_the_reports_keep_suite_order_when_a_child_runs_the_first_suite(
        monkeypatch, capsys):
    for argv in (["all", "--scenario", DEMO, "--json"],
                 ["all", "--scenario", DEMO]):
        with monkeypatch.context() as m:
            one_cpu(m)
            one = check(capsys, *argv)
        with monkeypatch.context() as m:
            a_child_runs_mv_first(m)
            assert check(capsys, *argv) == one


def _local_error():
    class LocalError(RuntimeError):
        """Defined in a function, so it does not pickle."""
    return LocalError


@pytest.mark.parametrize("error, code, line", [
    (CertificateError, 1, "check failed: mv"),
    (UndecidedCertificateError, 2, "error: mv: proof out of reach"),
    (QuadratureError, 2, "error: mv: integral out of reach"),
    (RuntimeError, 3, "internal error: RuntimeError('mv')"),
    (_local_error(), 3, "internal error: LocalError('mv')"),
])
def test_a_suite_that_raises_in_a_child_exits_as_in_one_process(
        error, code, line, monkeypatch, capsys):
    def before(name):
        if name == "mv":
            raise error(name)
    argv = ["all", "--scenario", DEMO, "--json"]
    with monkeypatch.context() as m:
        one_cpu(m)
        wrap_suites(m, before)
        one = check(capsys, *argv)
    assert one == (code, "", line + "\n")
    a_child_runs_mv_first(monkeypatch)
    wrap_suites(monkeypatch, before)
    assert check(capsys, *argv) == one


def test_of_two_suites_that_raise_the_earlier_in_suite_order_decides(
        monkeypatch, capsys):
    # the parent's glue raises at once, the child's mv 0.2 s later
    def before(name):
        if name == "mv":
            raise CertificateError(name)
        if name == "glue":
            raise QuadratureError(name)
    a_child_runs_mv_first(monkeypatch)
    wrap_suites(monkeypatch, before)
    assert check(capsys, "all", "--scenario", DEMO) == (
        1, "", "check failed: mv\n")


def test_a_child_that_dies_mid_suite_changes_nothing(monkeypatch, capsys):
    argv = ["all", "--scenario", DEMO, "--json"]
    with monkeypatch.context() as m:
        one_cpu(m)
        one = check(capsys, *argv)
    parent = a_child_runs_mv_first(monkeypatch)

    def before(name):
        if os.getpid() != parent:
            os._exit(7)
    wrap_suites(monkeypatch, before)
    assert check(capsys, *argv) == one


def test_an_interrupted_parent_reaps_its_children(monkeypatch, capsys):
    parent = a_child_runs_mv_first(monkeypatch)

    def before(name):
        if os.getpid() == parent:
            raise KeyboardInterrupt
    wrap_suites(monkeypatch, before)
    with pytest.raises(KeyboardInterrupt):
        main(["check", "all", "--scenario", DEMO])
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_one_suite_forks_nothing(monkeypatch, capsys):
    monkeypatch.setattr(os, "fork", no_fork)
    code, out, err = check(capsys, "mv", "--scenario", DEMO)
    assert (code, out.splitlines()[-1], err) == (0, "PASS", "")


def test_a_fork_that_fails_leaves_the_suites_to_the_caller(monkeypatch,
                                                           capsys):
    argv = ["all", "--scenario", DEMO, "--json"]
    one = check(capsys, *argv)

    def fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")
    every_suite_its_own_cpu(monkeypatch)
    monkeypatch.setattr(os, "fork", fork)
    assert check(capsys, *argv) == one


def test_no_child_is_forked_while_another_thread_runs(monkeypatch, capsys):
    argv = ["all", "--scenario", DEMO, "--json"]
    one = check(capsys, *argv)
    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert check(capsys, *argv) == one
    finally:
        stop.set()
        thread.join()
