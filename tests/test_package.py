import twoway_energy
from twoway_energy import chain, entropy, inner, outer, protocol, search

# The package's public names, each once: a name dropped from its module's
# __all__, or listed by two modules, fails below.
PUBLIC = [
    "MarginalPolicy", "NotIrreducibleError", "TransitionKernel", "build_kernel", "simulate_chain",
    "stationary", "uniform_policy",
    "JointSymbolDist", "binary_entropy", "joint_entropy", "joint_from_marginals",
    "OptimizationResult", "RatePair", "SearchConfig", "optimize_sum_rate", "rates_for_policy",
    "region_sweep",
    "JointStatePolicy", "OuterBoundValues", "SweepRow", "optimize_outer_sum", "optimize_outer_weighted",
    "outer_values", "sweep_details",
    "CodebookLevel", "CodebookSet", "MarginExhaustedError", "MonteCarloReport", "Transcript",
    "TrialOutcome", "U1SimResult", "build_codebooks", "draw_messages", "monte_carlo_error",
    "naive_frame_rate", "optimal_timeshare_sim", "run_trial", "validate_transcript",
    "variable_length_sim",
    "__version__",
]


def test_the_package_exports_each_public_name_once_from_its_defining_module():
    assert len(PUBLIC) == len(set(PUBLIC)) == 40
    assert sorted(twoway_energy.__all__) == sorted(PUBLIC)
    for module in (entropy, chain, search, inner, outer, protocol):
        for name in module.__all__:
            obj = getattr(module, name)
            assert obj.__module__ == module.__name__, name  # defined there, not imported
            assert getattr(twoway_energy, name) is obj
    star = {}
    exec("from twoway_energy import *", star)
    assert sorted(set(star) - {"__builtins__"}) == sorted(PUBLIC)
