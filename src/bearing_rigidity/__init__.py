"""Bearing rigidity analysis for multi-agent frameworks.

Build a sensing graph, attach agent states (positions, optionally headings
or full rotations, possibly mixed), and ask whether the measured bearings
pin the formation shape: rigidity matrices, kernel decompositions, and
IBR/IBF verdicts, with seeded generators and a CLI on top.
"""
from .errors import (BearingRigidityError, CoincidentAgentsError,
                     DegenerateConfigurationError, NumericalError, ParseError,
                     ValidationError)
from .graphs import (SensingGraph, complete_edges, complete_graph,
                     connected_components, is_connected, orient)
from .linalg import (TOLERANCE_PROFILES, TolerancePolicy, orthonormal_columns,
                     random_rotation, rank_and_nullspace, rotation_axis_angle,
                     rotation_exp, skew, subspace_contains)
from .spaces import (AgentState, BearingStack, DegeneracyReport, Framework,
                     MetricSpace, bearing_rigidity_function, is_non_degenerate)
from .engine import (ColumnBlock, FDCheckResult, HeteroKernelReport,
                     RigidityMatrix, RigidityVerdict, SubspaceBasis,
                     bearing_congruent, bearing_equivalent,
                     complete_graph_kernel, degenerate_trivial_dim,
                     fd_jacobian_check, hetero_kernel_analysis, ibr_verdict,
                     rigidity_matrix, trivial_variation_basis,
                     unified_rigidity_matrix)
from .scenarios import (FIXTURES, MIN_SEPARATION, GeneratorSpec,
                        augment_to_ibr, case_study_partition, fixture,
                        hetero_case_study, random_framework)
from .formats import (SCHEMA_VERSION, analysis_report, dumps, export_dot,
                      framework_from_json, framework_to_json, load_framework,
                      space_from_json, space_to_json, verdict_to_json,
                      write_matrix_csv)

__version__ = "0.1.0"
