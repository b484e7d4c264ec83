"""The package namespace and the README's library example."""

import contextlib
import importlib
import io
import itertools
import re
import types
from pathlib import Path

import sgwalk

MODULES = ("core", "construct", "spectral", "quotient", "multiparticle", "scenarios")

# the names the package exported when it listed them by hand; none may leave it
EXPORTED = """
    BalanceVerdict Claim CubelikeSpec DEFAULT_GRID_STEP DEFAULT_TOL EquitableProfile
    JoinPstCondition JoinSpectralData LayeredVertex MULTIGRAPH Partition PstVerdict
    QuotientGraph REPORT_SCHEMA RegularGraphStats SCENARIO_IDS SIMPLE ScenarioReport
    SignedGraph Spectrum WalkAmplitude WeightedGraph adjacency_matrix
    amplitude amplitude_series antipodal_pairs antisymmetrizer balance_verdict
    boson_formula_comparison boson_quotient boson_quotient_oracle build_signed_graph
    cartesian_power_matrix cartesian_product circulant coarsest_equitable cocktail_party
    complement complete complete_bipartite cover_index cover_vertex cubelike cycle
    discrete_partition double_cover eig_sym exterior_power exterior_power_oracle
    fermion_pst_lift format_edge_list from_net_matrix graph_edges hypercube is_connected
    is_equitable is_periodic is_periodic_at is_pst join_pst_condition join_spectral_data
    k_subsets multiset_rank multiset_states negative_part normalized_partition_matrix
    partition_from_cell_of partition_from_cells path permutation_graph petersen
    positive_part propagator pst_search quotient random_regular
    read_partition read_signed_graph read_weighted_graph regular_stats report_to_dict
    run_all_scenarios run_scenario signed_join signed_join_amplitude signed_union
    single_cell_partition subset_rank subset_unrank switch symmetric_power symmetrizer
    underlying unsigned_k2_join_condition write_edge_list write_partition
""".split()


def test_the_package_exports_exactly_its_modules_lists():
    lists = {name: importlib.import_module(f"sgwalk.{name}").__all__ for name in MODULES}
    for (a, names_a), (b, names_b) in itertools.combinations(lists.items(), 2):
        assert not set(names_a) & set(names_b), (a, b)
    declared = set().union(*lists.values())
    public = {name for name, value in vars(sgwalk).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == declared
    assert len(EXPORTED) == 96 and set(EXPORTED) <= public
    assert public - set(EXPORTED) == {"format_partition", "MAX_POWER_STATES"}
    for name in declared:
        module = next(m for m, names in lists.items() if name in names)
        assert getattr(sgwalk, name) is getattr(importlib.import_module(f"sgwalk.{module}"), name)


def test_the_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert abs(float(lines[0]) - 1.0) < 1e-9
    assert len(lines) > 1  # the search finds transfer within 4 pi
