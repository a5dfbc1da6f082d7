"""Property: serving a job is indistinguishable from running it yourself.

For any generated circuit and any service-representable option set, the
BLIF that comes back from ``powder serve`` must be byte-identical to an
in-process :func:`repro.transform.optimizer.power_optimize` with the same
options, and the optimized netlist must be proven equivalent to the
submitted one by the differential oracle.  One module-scoped server
serves every Hypothesis example.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fuzz.generator import GeneratorConfig, random_mapped_netlist
from repro.fuzz.oracle import check_equivalence_tiers
from repro.netlist.blif import parse_blif, write_blif
from repro.serve.jobspec import server_library
from repro.transform.optimizer import OptimizeOptions, power_optimize

option_dicts = st.fixed_dictionaries({
    "num_patterns": st.sampled_from([64, 128, 256]),
    "repeat": st.integers(min_value=3, max_value=8),
    "max_rounds": st.integers(min_value=1, max_value=4),
    "seed": st.integers(min_value=0, max_value=2**16),
    "objective": st.sampled_from(["power", "area"]),
})

circuit_configs = st.fixed_dictionaries({
    "seed": st.integers(min_value=0, max_value=2**20),
    "shape": st.sampled_from(["random", "reconvergent", "high_fanout"]),
    "min_gates": st.just(6),
    "max_gates": st.integers(min_value=8, max_value=14),
})


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(circuit=circuit_configs, options=option_dicts)
def test_served_result_matches_inprocess_and_passes_oracle(
    server, circuit, options
):
    blif = write_blif(random_mapped_netlist(GeneratorConfig(**circuit)))

    client = server.client()
    view = client.run(blif, options=options, timeout=180.0)
    served_blif = view["result"]["blif"]
    served_summary = view["result"]["summary"]

    reference = power_optimize(
        parse_blif(blif, server_library()),
        OptimizeOptions.from_dict(dict(options)),
    )
    assert served_blif == write_blif(reference.netlist)
    assert served_summary["final_power"] == reference.final_power
    assert served_summary["moves"] == len(reference.moves)

    original = parse_blif(blif, server_library())
    optimized = parse_blif(served_blif, server_library())
    report = check_equivalence_tiers(original, optimized,
                                     num_patterns=256)
    assert report.equal, report.disagreements or report.verdicts
    assert report.consistent, report.disagreements
