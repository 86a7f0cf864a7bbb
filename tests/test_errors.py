"""The one rule for integer degrees and counts, at every public entry point."""

from functools import lru_cache

import numpy as np
import pytest

import wavext as wx
from conftest import small_homogeneous_run
from wavext.errors import ConfigurationError, check_integer
from wavext.estimator import best_approx_constant, gap_constant
from wavext.timebasis import gauss_rule

_MESH = wx.build_structured_mesh(2, 2)
_SPACE = wx.build_space(_MESH, 2)
_PARTITION = wx.uniform_time_partition(1.0, 2)


@lru_cache(maxsize=None)
def _run():
    return small_homogeneous_run(q=1, n_slabs=2, nx=2, p=2)


def _report(samples):
    prob, sol = _run()
    return wx.compute_error_report(sol, prob, samples)


#: Each entry point as a call of its degree or count, with one integer out of its range.
_ENTRY_POINTS = {
    "Discretization-q": (lambda v: wx.Discretization(_SPACE, _PARTITION, v), 13),
    "build_space-p": (lambda v: wx.build_space(_MESH, v), 11),
    "build_structured_mesh-nx": (lambda v: wx.build_structured_mesh(v, 2), 0),
    "build_structured_mesh-ny": (lambda v: wx.build_structured_mesh(2, v), 0),
    "uniform_time_partition-n_slabs": (lambda v: wx.uniform_time_partition(1.0, v), 0),
    "gauss_rule-npts": (lambda v: gauss_rule(v, (0.0, 1.0)), 31),
    "slab_temporal_matrices-q": (lambda v: wx.slab_temporal_matrices(v, (0.0, 1.0)), 0),
    "endpoint_exact_project-q": (lambda v: wx.endpoint_exact_project(v, np.cos, _PARTITION), 0),
    "lagrange_time_interp-q": (lambda v: wx.lagrange_time_interp(v, np.cos, _PARTITION), 0),
    "gap_constant-q": (gap_constant, 0),
    "best_approx_constant-s": (best_approx_constant, -1),
    "compute_error_report-samples": (_report, 2),
}

#: Values that are not integers, though each equals or truncates to one in range.
_NOT_INTEGERS = [2.5, 2.0, np.float64(2.0), True, "2"]
_OUT_OF_RANGE = object()


@pytest.mark.parametrize("value", _NOT_INTEGERS + [_OUT_OF_RANGE],
                         ids=["2.5", "2.0", "np.float64", "True", "str", "out-of-range"])
@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_degrees_and_counts_must_be_integers_in_range(entry, value):
    # before, p = 2.5 built a degree-2 space, npts = 2.5 gave the 2-point rule,
    # q = 1.5 and samples = 3.5 failed inside numpy, and q = True ran as q = 1
    call, out_of_range = _ENTRY_POINTS[entry]
    value = out_of_range if value is _OUT_OF_RANGE else value
    with pytest.raises(ValueError) as info:
        call(value)
    assert info.type is ConfigurationError
    assert str(info.value).endswith(f", got {value!r}")


@pytest.mark.parametrize("entry", _ENTRY_POINTS)
def test_numpy_integers_are_accepted(entry):
    _ENTRY_POINTS[entry][0](np.int64(3))


def test_estimator_needs_an_integer_degree_of_at_least_two():
    prob, sol = small_homogeneous_run(q=1, n_slabs=2, nx=2, p=1)
    with pytest.raises(ConfigurationError, match=r"spatial degree p of the estimator must be "
                                                 r"an integer in \[2, inf\], got 1$"):
        wx.compute_estimator(sol, prob)


def test_check_integer_returns_a_python_int_and_names_what_it_rejects():
    value = check_integer("count", np.int64(4), 1, 4)
    assert value == 4 and type(value) is int
    assert check_integer("count", 10 ** 30, 0) == 10 ** 30
    with pytest.raises(ConfigurationError, match=r"^temporal degree q must be an integer in "
                                                 r"\[1, 12\], got 13$"):
        check_integer("temporal degree q", 13, 1, 12)
    for value in (np.bool_(True), np.int64(0), None, 1j, float("nan")):
        with pytest.raises(ConfigurationError, match="count"):
            check_integer("count", value, 1)
