"""The output checks, and that a failed check counts as a failed operation."""

import gzip

import pytest

import checks
import run as runner
import workloads

REF_LINES = [
    "# underlaysim 0.1.0\n",
    "tau_ms,gamma_dB,rho_out,m,p_cont_dBm,regime,rs\n",
    "0.1,-20,0.1,inf,-11.28417343,interference-limited,4.5\n",
    "0.1,-10,0.1,inf,0,power-limited,5.25\n",
    "1,-20,0.1,inf,-10.5,interference-limited,6.125\n",
    "1,-10,0.1,inf,0,power-limited,6.75\n",
]


def table_problems(lines):
    return checks.TableReference(REF_LINES).check(lines)


def test_table_matches_itself_in_any_row_order():
    assert table_problems(REF_LINES) == []
    assert table_problems(REF_LINES[:2] + REF_LINES[:1:-1]) == []


def test_table_tolerates_rounding_below_tol():
    lines = list(REF_LINES)
    lines[2] = lines[2].replace("-11.28417343", "-11.28417344")
    assert table_problems(lines) == []


@pytest.mark.parametrize("old, new", [
    ("-11.28417343", "-11.2841"),              # numeric cell beyond tolerance
    (",4.5", ",4.5001"),                       # rate cell beyond tolerance
    ("interference-limited", "power-limited"),  # regime label
    ("0.1,-20", "0.2,-20"),                    # key not in the grid
])
def test_perturbed_table_fails(old, new):
    lines = list(REF_LINES)
    lines[2] = lines[2].replace(old, new)
    assert table_problems(lines)


def test_missing_or_repeated_row_fails():
    assert table_problems(REF_LINES[:-1])
    assert table_problems(REF_LINES[:-1] + [REF_LINES[2]])


def test_perturbed_shipped_reference_fails():
    spec = workloads.RATE_TABLE
    reference = checks.TableReference.from_gzip(spec.reference_path)
    assert reference.rows == spec.rows
    with gzip.open(spec.reference_path, "rt", encoding="utf-8") as fh:
        lines = fh.readlines()
    assert reference.check(lines) == []
    last = lines[-1].split(",")
    last[-1] = repr(float(last[-1]) * (1 + 1e-5)) + "\n"
    assert reference.check(lines[:-1] + [",".join(last)])


def test_fading_reference_values():
    assert checks.check_fading(dict(checks.FADING_REFERENCE)) == []
    wrong = dict(checks.FADING_REFERENCE, rate_1ms=4.9893)
    assert checks.check_fading(wrong)
    missing = dict(checks.FADING_REFERENCE)
    del missing["no_pc_tau"]
    assert checks.check_fading(missing)


def test_validate_verdict():
    good = "check  1  PASS  x\nvalidate: PASS (13/13 checks)\n"
    assert checks.check_validate(0, good) == []
    assert checks.check_validate(1, "validate: FAIL (12/13 checks)\n")
    assert checks.check_validate(0, "validate: PASS (12/13 checks)\n")
    assert checks.check_validate(3, good)
    assert checks.check_validate(0, "")


def with_row(row):
    return REF_LINES[:2] + [row] + REF_LINES[3:]


PERTURBED_TABLE = with_row(REF_LINES[2].replace("4.5", "4.6"))


@pytest.mark.parametrize("output, check", [
    (PERTURBED_TABLE, checks.TableReference(REF_LINES).check),
    # rows the check cannot parse: an empty numeric cell, a short row
    (with_row("0.1,-20,0.1,inf,,interference-limited,4.5\n"),
     checks.TableReference(REF_LINES).check),
    (with_row("0.1,-20,0.1,inf\n"), checks.TableReference(REF_LINES).check),
    (dict(checks.FADING_REFERENCE, rate_3ms=4.0), checks.check_fading),
    ((1, "validate: FAIL (12/13 checks)\n"), lambda out: checks.check_validate(*out)),
])
def test_failed_check_is_a_failed_operation(output, check):
    op = runner.timed(lambda: output, check)
    assert op["problems"] and op["wall_s"] >= 0.0


def test_raising_operation_is_a_failed_operation():
    def boom():
        raise ValueError("numeric error")

    op = runner.timed(boom, lambda out: [])
    assert op["problems"] == ["ValueError: numeric error"]


def test_table_argv_shuffles_axes_by_seed():
    spec = workloads.POWER_TABLE

    def tau_values(seed):
        argv = spec.argv(".", "out.csv", seed)
        arg = next(a for a in argv if a.startswith("sweep.tau_ms="))
        return arg.partition("=")[2].split(", ")

    assert tau_values(7) == tau_values(7)
    assert tau_values(7) != tau_values(None)
    assert sorted(tau_values(7)) == sorted(tau_values(None))
    assert len(tau_values(None)) == spec.tau_ms[2]
