"""Socially weighted user association for D2D-underlaid small cell networks.

The package splits into five layers:

* :mod:`socialcell.socialgraph` -- social topology, betweenness, similarity,
  blended social distance, and relay election
* :mod:`socialcell.radio` -- geometry, pathloss, and per-link rate budgets
* :mod:`socialcell.matching` -- serving-node utilities, max-RSSI baseline,
  the annealed swap engine, and stability auditing
* :mod:`socialcell.harness` -- replicated sweeps with isolated seed streams
* :mod:`socialcell.cli` -- the ``socialcell`` command line front end
"""

from .config import (ScenarioConfig, config_as_dict, config_sha, dump_config,
                     engine_config_from_config, load_config, scenario_from_config,
                     social_graph_from_config)
from .errors import ConfigError, InputError, LinkRangeError, SocialCellError
from .harness import (METHOD_BASELINE, METHOD_SOCIAL, ExperimentSpec,
                      replication_seed, run_experiment)
from .matching import (AnnealResult, AssociationProblem, Matching,
                       anneal_on_problem, anneal_problems, audit_stability,
                       build_problem, greedy_stabilize, reports)
from .radio import LinkBudget, RadioScenario, channel_gain, link_rate, pathloss_db
from .socialgraph import (SocialGraph, edge_betweenness, elect_important_ues,
                          graph_from_edges, grouped_edge_betweenness,
                          importance_scores, similarity, social_distance,
                          social_pipeline, social_pipelines)

__version__ = "0.1.0"

__all__ = [
    "AnnealResult", "AssociationProblem", "ConfigError", "ExperimentSpec",
    "InputError", "LinkBudget", "LinkRangeError", "Matching",
    "METHOD_BASELINE", "METHOD_SOCIAL", "RadioScenario",
    "ScenarioConfig", "SocialCellError", "SocialGraph",
    "anneal_on_problem", "anneal_problems", "audit_stability",
    "build_problem", "channel_gain", "config_as_dict",
    "config_sha", "dump_config", "edge_betweenness", "elect_important_ues",
    "engine_config_from_config", "graph_from_edges",
    "greedy_stabilize", "grouped_edge_betweenness",
    "importance_scores", "link_rate", "load_config", "pathloss_db",
    "replication_seed", "reports", "run_experiment", "scenario_from_config",
    "similarity", "social_distance", "social_graph_from_config", "social_pipeline",
    "social_pipelines",
    "__version__",
]
