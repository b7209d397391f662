"""What the benchmark measures and why: the single source for BENCHMARK.json.

Every workload, end-to-end metric and per-layer metric is declared here once.
`run.py --smoke` fails when BENCHMARK.json at the repository root disagrees
with these tables, so the file the driver reads cannot drift from the code.

Per-layer metrics carry the prediction the benchmark was designed around:
which end-to-end metric a change to that layer should move, and on which
workloads.  On every workload not named, the prediction is no change.  The
per-command figures named in `moves` (demo_s, forest_s, match_p50_ms,
match_p98_ms) are printed in each run's report; the gated metric each feeds
is solve_ref, and on matcher_mix also cmd_p50_ref / cmd_p90_ref.
"""

DEFAULT_SEED = 20260816  # acceptance criterion 1's seed
RUN_SECONDS = 30

WORKLOADS = {
    "f2_r11": (
        "largest free-group window tier-1 allows (354,293 points): window "
        "expansion, cycle surgery and the 7.4 MB forest JSON dominate; no "
        "Hall, layering, matcher or rotation code runs"
    ),
    "sphere_r10": (
        "same actions/paradox code on exact rational rotations with coordinate "
        "hashing, plus the rotation freeness certificate, which runs nowhere else"
    ),
    "matcher_mix": (
        "criterion-1 family of 500 small graphs through the Hall precheck, "
        "layering and stage selection, half audited; no window or paradox code"
    ),
}

# name, unit, better, bound (share of the parent's median), meaning.  Times
# other than setup_s are in reference units ("ref"): a command's wall time
# divided by the mean time of a fixed loop timed just before, during and
# after it (see run.py).  The report prints the wall seconds beside them.
END_TO_END = [
    ("solve_ref", "ref", "lower", 0.2,
     "time of one pass of the timed section, median over passes"),
    ("setup_s", "s", "lower", 0.25,
     "import of paradecomp plus generating and writing the inputs, median of 3"),
    ("peak_rss_mib", "MiB", "lower", 0.1,
     "ru_maxrss of the workload process at the end of the timed section"),
    ("ok_frac", "ok/op", "higher", 0.01,
     "share of attempted operations whose output passed every check"),
    ("cmd_p50_ref", "ref", "lower", 0.25,
     "median latency of one command of a pass, median over passes"),
    ("cmd_p90_ref", "ref", "lower", 0.2,
     "90th-percentile latency of one command of a pass, median over passes"),
]

PIPES = ("f2_r11", "sphere_r10")
MATCH = ("matcher_mix",)
F2 = ("f2_r11",)
ALL = PIPES + MATCH

# name, unit, better, end-to-end figures it should move, workloads it moves on
PER_LAYER = [
    ("actions.expand_window_s", "s", "lower", "solve_ref demo_s forest_s peak_rss_mib", PIPES),
    ("actions.expand_window_calls", "count", "lower", "solve_ref demo_s forest_s", PIPES),
    ("actions.window_points", "count", "lower", "solve_ref demo_s forest_s peak_rss_mib", PIPES),
    ("actions.interior_points", "count", "higher", "base of actions.interior_share", PIPES),
    ("actions.interior_share", "ratio", "higher", "solve_ref peak_rss_mib", PIPES),
    ("actions.interior_saturating_matching_s", "s", "lower", "demo_s forest_s", PIPES),
    ("actions.unmatched_boundary_stats_s", "s", "lower", "demo_s", PIPES),
    ("matching.hopcroft_karp_s", "s", "lower", "demo_s forest_s; match_p98_ms", ALL),
    ("matching.hopcroft_karp_calls", "count", "lower", "demo_s forest_s; match_p98_ms", ALL),
    ("matching.combine_saturating_s", "s", "lower", "demo_s forest_s", PIPES),
    ("paradox.matching_to_paradox_s", "s", "lower", "demo_s", PIPES),
    ("paradox.verify_paradox_s", "s", "lower", "demo_s", PIPES),
    ("paradox.classical_f2_decomposition_s", "s", "lower", "demo_s", PIPES),
    ("paradox.paradox_to_matching_s", "s", "lower", "demo_s", PIPES),
    ("paradox.deep_interior", "count", "higher", "demo_s", PIPES),
    ("treedyn.triple_system_from_matching_s", "s", "lower", "forest_s", PIPES),
    ("treedyn.forest_from_paradox_s", "s", "lower", "forest_s", PIPES),
    ("treedyn.forest_components_kept", "count", "higher", "forest_s", PIPES),
    ("treedyn.forest_from_obj_s", "s", "lower", "solve_ref cmd_p50_ref", F2),
    ("treedyn.f2_action_from_forest_s", "s", "lower", "solve_ref cmd_p50_ref", F2),
    ("treedyn.free_word_violation_s", "s", "lower", "solve_ref cmd_p50_ref", F2),
    ("treedyn.action_covered", "count", "higher", "base of treedyn.action_coverage", F2),
    ("treedyn.action_eligible", "count", "higher", "base of treedyn.action_coverage", F2),
    ("treedyn.action_coverage", "ratio", "higher", "solve_ref", F2),
    ("rotations.assert_free_s", "s", "lower", "solve_ref cmd_p90_ref", ("sphere_r10",)),
    ("hall.check_hall_eps_n_s", "s", "lower", "match_p50_ms", MATCH),
    ("hall.check_hall_eps_n_calls", "count", "lower", "match_p50_ms", MATCH),
    ("hall.check_hall_s", "s", "lower", "match_p98_ms", MATCH),
    ("hall.check_hall_calls", "count", "lower", "match_p98_ms", MATCH),
    ("layers.epsilon_after_s", "s", "lower", "solve_ref match_p50_ms", MATCH),
    ("layers.epsilon_after_calls", "count", "lower", "solve_ref match_p50_ms", MATCH),
    ("layers.greedy_layering_s", "s", "lower", "solve_ref match_p50_ms", MATCH),
    ("layers.stages", "count", "lower", "solve_ref match_p50_ms", MATCH),
    ("layers.vertices", "count", "higher", "base of layers.vertices_per_stage", MATCH),
    ("layers.vertices_per_stage", "ratio", "higher", "solve_ref match_p50_ms", MATCH),
    ("matcher.layered_perfect_matching_s", "s", "lower", "match_p50_ms", MATCH),
    ("graphs.induced_subgraph_s", "s", "lower", "match_p98_ms", MATCH),
    ("graphs.graph_from_obj_s", "s", "lower", "match_p50_ms", MATCH),
    ("cli.main_s", "s", "lower", "cmd_p50_ref", ALL),
    ("cli.canonical_json_s", "s", "lower", "forest_s; cmd_p50_ref on matcher_mix", ALL),
    ("cli.payload_bytes", "count", "lower", "forest_s peak_rss_mib; cmd_p50_ref", ALL),
    ("trace.overhead_s", "s", "lower", "none: traced minus untraced wall time of a pass", ALL),
    ("trace.spans", "count", "lower", "none: spans recorded in the traced pass", ALL),
]


def benchmark_json() -> dict:
    """The BENCHMARK.json these tables describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, _ in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _, _ in PER_LAYER
        ],
    }
