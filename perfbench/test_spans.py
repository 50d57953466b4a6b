"""Self-time arithmetic and parent attribution of the traced run.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import types

import pytest

import spans


def test_self_times_of_nested_spans_add_up_to_the_job():
    # cli -> loci [0, 10] -> theta [1, 4] -> chars [2, 3]
    #                     -> theta [5, 6]
    #     -> symp [12, 14]
    records = [
        ["loci.is_diagonal_orbit", 0.0, 10.0, -1],
        ["theta.theta_constants_batch", 1.0, 4.0, 0],
        ["chars.parity", 2.0, 3.0, 1],
        ["theta.eval_theta", 5.0, 6.0, 0],
        ["symp.verify_transitivity", 12.0, 14.0, -1],
    ]
    m = spans.job_metrics(records, {"symp.orbit_points": 4}, job_s=20.0)
    assert m["loci.self_s"] == pytest.approx(6.0)
    assert m["theta.self_s"] == pytest.approx(3.0)
    assert m["theta.batch.self_s"] == pytest.approx(2.0)
    assert m["theta.single.self_s"] == pytest.approx(1.0)
    assert m["chars.self_s"] == pytest.approx(1.0)
    assert m["symp.self_s"] == pytest.approx(2.0)
    assert m["cli.self_s"] == pytest.approx(8.0)
    total = sum(m["%s.self_s" % layer] for layer in spans.LAYERS + ("cli",))
    assert total == pytest.approx(20.0)
    assert m["theta.calls"] == 2 and m["theta.batch.calls"] == 1
    assert m["loci.theta_calls"] == 2
    assert m["symp.orbit_points"] == 4


def test_loci_theta_calls_count_only_theta_spans_opened_by_loci():
    records = [
        ["expand.bind_symbols", 0.0, 1.0, -1],
        ["theta.f_phi_psi", 0.1, 0.2, 0],
        ["loci.minor_identity_check", 2.0, 5.0, -1],
        ["expand.fit_slope", 2.5, 2.6, 2],
        ["theta.tau_gradient", 3.0, 4.0, 2],
        ["theta.eval_theta", 6.0, 7.0, -1],
    ]
    m = spans.job_metrics(records, {}, job_s=7.0)
    assert m["theta.calls"] == 3
    assert m["loci.theta_calls"] == 1
    assert m["theta.genus1.self_s"] == pytest.approx(0.1)


def test_calls_inside_a_layer_pass_through_and_counters_see_them():
    ticks = iter(range(100))
    recorder = spans.Recorder(clock=lambda: float(next(ticks)))
    layer = types.SimpleNamespace()

    def orbit(n):
        return [layer.act(i) for i in range(n)]

    layer.act = recorder.wrap("symp", "act", lambda i: i)
    layer.orbit = recorder.wrap("symp", "orbit", orbit)
    entry = recorder.wrap("loci", "entry", lambda: layer.orbit(3) + layer.orbit(2))

    assert entry() == [0, 1, 2, 0, 1]
    names = [(name, parent) for name, _, _, parent in recorder.spans]
    assert names == [("loci.entry", -1), ("symp.orbit", 0), ("symp.orbit", 0)]
    assert recorder.counts["symp.orbit_points"] == 5


@pytest.mark.parametrize("records, fault", [
    ([["loci.is_diagonal_orbit", 1.0, None, -1]], "never closed"),
    ([["loci.is_diagonal_orbit", 1.0, 21.0, -1]], "outside its parent"),
    ([["loci.is_diagonal_orbit", -1.0, 3.0, -1]], "outside its parent"),
    ([["loci.is_diagonal_orbit", 1.0, 5.0, -1],
      ["theta.eval_theta", 4.0, 6.0, 0]], "outside its parent"),
    ([["loci.is_diagonal_orbit", 1.0, 5.0, -1],
      ["theta.eval_theta", 2.0, 4.0, 1]], "has parent"),
    ([["loci.is_diagonal_orbit", 1.0, 5.0, -1],
      ["theta.eval_theta", 1.0, 4.0, 0],
      ["theta.eval_theta", 2.0, 5.0, 0]], "children of loci.is_diagonal_orbit"),
    ([["loci.is_diagonal_orbit", 0.0, 15.0, -1],
      ["symp.orbit", 5.0, 20.0, -1]], "top-level spans"),
])
def test_span_problem_names_malformed_spans(records, fault):
    assert fault in spans.span_problem(records, 0.0, 20.0)


def test_span_problem_accepts_the_nested_spans_of_a_job():
    records = [
        ["loci.is_diagonal_orbit", 0.0, 10.0, -1],
        ["theta.theta_constants_batch", 1.0, 4.0, 0],
        ["chars.parity", 2.0, 3.0, 1],
        ["theta.eval_theta", 5.0, 6.0, 0],
        ["symp.verify_transitivity", 12.0, 14.0, -1],
    ]
    assert spans.span_problem(records, 0.0, 20.0) is None
    assert spans.span_problem([], 0.0, 20.0) is None
