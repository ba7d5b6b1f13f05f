import json
import multiprocessing
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from d4green import cli, green, verify
from d4green.cli import main
from d4green.grammar import parse_pres_element
from d4green.green import GreenElement, projective
from d4green.presentation import PresElement, mono_y, mono_z, to_green
from d4green.verify import run_table


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.strip(), out.err.strip()


def test_multiply_text(capsys):
    code, out, _ = run(capsys, "multiply", "[V(2,0)]", "[V(2,0)]")
    assert code == 0
    assert out == "[P(1)]"


def test_multiply_unit(capsys):
    code, out, _ = run(capsys, "multiply", "[V(0)]", "[V(0)]")
    assert code == 0
    assert out == "[V(0)]"


def test_multiply_mixed(capsys):
    code, out, _ = run(capsys, "multiply", "[O^2V(1)]", "[O^-1V(0)]")
    assert code == 0
    assert out == "3*[P(1)] + [O^1V(1)]"


def test_multiply_json(capsys):
    code, out, _ = run(capsys, "multiply", "[V(2,0)]", "[V(2,1)]", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"terms": [{"label": {"kind": "projective", "r": 0}, "coeff": 1}]}


def test_dual(capsys):
    assert run(capsys, "dual", "[O^2V(0)]")[1] == "[O^-2V(0)]"
    assert run(capsys, "dual", "[P(0)]")[1] == "[P(0)]"
    assert run(capsys, "dual", "[M_1(0,oo)]")[1] == "[M_1(1,oo)]"


def test_presentation_normal_form(capsys):
    code, out, _ = run(capsys, "presentation", "normal-form", "y*z")
    assert code == 0
    assert out == "1 + 2*x^2"


def test_presentation_from_modules(capsys):
    code, out, _ = run(capsys, "presentation", "from-modules", "[O^2V(0)]")
    assert code == 0
    assert out == "-g*x^2 + y^2"


def test_presentation_to_modules(capsys):
    code, out, _ = run(capsys, "presentation", "to-modules", "X_{2,1/3}")
    assert code == 0
    assert out == "[M_2(0,1/3)]"


@pytest.mark.parametrize(
    "argv, expected",
    [(["multiply", "--", "-[V(0)]", "[V(0)]"], "-[V(0)]"), (["presentation", "normal-form", "--", "-x"], "-x")],
)
def test_elements_with_a_leading_minus_follow_the_separator(capsys, argv, expected):
    assert run(capsys, *argv)[:2] == (0, expected)


def test_normal_form_of_deep_mixed_power(capsys):
    code, out, err = run(capsys, "presentation", "normal-form", "y^1200*z^1200")
    assert (code, err) == (0, "")
    y, z = (to_green(PresElement.from_monomial(m)) for m in (mono_y(1200), mono_z(1200)))
    assert to_green(parse_pres_element(out)) == green.mul(y, z)


def test_output_beyond_int_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    code, out, _ = run(capsys, "presentation", "from-modules", "[O^20000V(0)]")
    assert code == 0
    assert max(len(word) for word in out.split()) > limit
    assert sys.get_int_max_str_digits() == limit
    code, back, _ = run(capsys, "presentation", "to-modules", out)
    assert (code, back) == (0, "[O^20000V(0)]")
    assert sys.get_int_max_str_digits() == limit


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_dual", broken)
    code, out, err = run(capsys, "dual", "[P(0)]")
    assert (code, out, err) == (3, "", "error: internal: RuntimeError: boom")


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, "multiply", "[V(7)]", "[V(0)]")
    assert code == 2
    assert "position" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("multiply", "²*[V(0)]", "[V(1)]"),
        ("multiply", "[M_١(0,1)]", "[V(1)]"),
        ("presentation", "normal-form", "x^²"),
        ("verify", "table", "--max-s", "1", "--etas", "١"),
    ],
)
def test_non_ascii_digit_exits_2_with_position(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "(at position " in err


def test_bad_eta_csv_exits_2(capsys):
    for etas in ("0,zz", "1/0", "0.5"):
        code, out, err = run(capsys, "verify", "table", "--etas", etas)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize(
    "etas, message",
    [("oo,5/7,x", "expected an unsigned integer (at position 7)"),
     ("0, 1/0", "zero denominator (at position 3)"),
     ("0,zz", "expected an unsigned integer (at position 2)")],
)
def test_bad_eta_position_counts_from_the_start_of_the_list(capsys, etas, message):
    code, out, err = run(capsys, "verify", "table", "--max-s", "1", "--etas", etas)
    assert (code, out, err) == (2, "", f"error: {message}")


@pytest.mark.parametrize("etas, item", [("0,,1", 2), ("0,", 2), (",", 1)])
def test_empty_eta_item_exits_2(capsys, etas, item):
    code, out, err = run(capsys, "verify", "table", "--max-s", "1", "--etas", etas)
    assert (code, out) == (2, "")
    assert err == f"error: --etas item {item} of {etas!r} is empty"


def _child_env():
    """The environment for a fresh interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_closed_stdout_exits_141():
    with subprocess.Popen(
        [sys.executable, "-m", "d4green.cli", "verify", "table", "--max-s", "1"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_child_env(),
    ) as proc:
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (141, b"")


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # only verify --jobs N > 1 starts a pool, so only it imports multiprocessing
    probe = "import sys, d4green.cli; print('multiprocessing' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env(), timeout=120, check=True
    )
    assert done.stdout == "False\n"


def test_importing_the_package_leaves_dataclasses_and_inspect_unloaded():
    # labels, reports and the braiding element are tuples or slotted classes
    probe = "import sys, d4green.cli, d4green.verify, d4green.replab; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env(), timeout=120, check=True
    )
    assert done.stdout == "[]\n"


@pytest.mark.parametrize("scope", ["table", "presentation", "braiding", "all"])
@pytest.mark.parametrize("etas, repeated", [("1,1", "1"), ("1,2/2", "1"), ("0,-0", "0"), ("0,oo,5/7,oo", "oo")])
def test_repeated_eta_exits_2(capsys, scope, etas, repeated):
    code, out, err = run(capsys, "verify", scope, "--max-s", "1", "--etas", etas)
    assert (code, out) == (2, "")
    assert err == f"error: eta {repeated} is given more than once"


@pytest.mark.parametrize("scope", ["table", "presentation", "braiding", "all"])
@pytest.mark.parametrize("max_s", ["0", "-3"])
def test_verify_max_s_below_one_exits_2(capsys, monkeypatch, scope, max_s):
    # checked once for every scope, before any of them runs
    def no_run(*args, **kwargs):
        raise AssertionError("a scope ran")

    for name in ("run_table", "run_presentation", "run_braiding"):
        monkeypatch.setattr(verify, name, no_run)
    code, out, err = run(capsys, "verify", scope, "--max-s", max_s)
    assert (code, out, err) == (2, "", "error: max_s must be at least 1")


@pytest.mark.parametrize("jobs", ["0", "-1", "3"])
def test_verify_jobs_out_of_range_exits_2(capsys, monkeypatch, jobs):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code, out, err = run(capsys, "verify", "table", "--max-s", "1", "--jobs", jobs)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--jobs" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["multiply"])
    assert exc.value.code == 2


def test_verify_table_small(capsys):
    code, out, _ = run(capsys, "verify", "table", "--max-s", "1", "--etas", "0,oo", "--seed", "7")
    assert code == 0
    assert "[table] PASS" in out
    assert "C19" in out and "seed=7" in out


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-s", "1", "--etas", "0,oo")
    assert code == 0
    assert out.count("PASS") == 3


def test_verify_table_large_etas(capsys):
    code, out, _ = run(capsys, "verify", "table", "--max-s", "2", "--etas", "1000036000099,210/221")
    assert code == 0
    assert "[table] PASS" in out


def test_verify_empty_etas(capsys):
    code, out, _ = run(capsys, "verify", "table", "--max-s", "1", "--etas", "")
    assert code == 0
    assert "C18" not in out  # no band labels in the grid


def test_verify_all_empty_etas_runs_every_scope_without_bands(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-s", "1", "--etas", "")
    assert code == 0
    headers = [line for line in out.splitlines() if not line.startswith(" ") and "PASS" not in line]
    assert headers == [
        "[table] max_s=1 etas=- seed=0 jobs=1 pairs=55",
        "[presentation] round_n=12 mul_n=2 etas=- seed=0",
        "[braiding] max_s=1 etas=- seed=0 jobs=1 pairs=55",
    ]


def test_fault_injection_names_case(capsys, monkeypatch):
    real = green.mul_labels

    def corrupted(l1, l2):
        if green.case_name(l1, l2) == "C6":
            return GreenElement([(projective(0), 1)])  # wrong residue on purpose
        return real(l1, l2)

    monkeypatch.setattr(green, "mul_labels", corrupted)
    report = run_table(max_s=1, etas=(), seed=0, jobs=1)
    assert not report.passed
    assert any("C6" in f for f in report.failures)
    code, out, _ = run(capsys, "verify", "table", "--max-s", "1", "--etas", "")
    assert code == 1
    assert "C6" in out and "FAIL" in out


def test_json_output_stable_across_runs(capsys):
    first = run(capsys, "multiply", "[M_1(0,oo)]", "[O^2V(1)] + [V(1)]", "--format", "json")[1]
    second = run(capsys, "multiply", "[M_1(0,oo)]", "[O^2V(1)] + [V(1)]", "--format", "json")[1]
    assert first == second
    json.loads(first)


def _readme_examples():
    """The (argv, output) pairs of the ``d4green ... # -> output`` lines of README "Command line"."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    return [
        (shlex.split(command)[1:], output)
        for command, output in re.findall(r"^(d4green .*?)\s*# -> (.*)$", section, re.MULTILINE)
    ]


def test_readme_has_command_line_examples():
    assert len(_readme_examples()) == 7


@pytest.mark.parametrize("argv, output", _readme_examples(), ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_readme_command_line_examples_match(capsys, argv, output):
    assert run(capsys, *argv)[:2] == (0, output)
