"""First-order SAPT observables and fault-tolerant resource estimates.

The package builds the electrostatic, exchange and electrostatic-exchange
observables of a weakly bound dimer from ingested tensor data, factorizes
their coefficient blocks, evaluates block-encoding l1 norms in sparse and
factorized representations, and turns them into Toffoli/qubit call graphs.
A dense Fock-space oracle for tiny dimers certifies every algebraic step.
"""

from .active import (
    SpacePartition,
    renormalize_electrostatic,
    renormalize_exchange,
    renormalize_vp,
)
from .archive import TensorArchive, demo_archive, load_archive, save_archive
from .costing import (
    CalibrationConstants,
    CostGraph,
    ErrorBudget,
    SystemParams,
    budget_errors,
    emit_callgraph,
    estimate_observable,
    estimate_supermolecular,
    qrom_cost,
)
from .factorize import FactorizedOperator, factorize_coefficients
from .fock import FockSpace, build_operator_matrix, first_order_energy
from .norms import NormReport, df_hamiltonian_norm, sparse_norms, tf_norm, tf_norms
from .tensors import (
    DimerBasis,
    SaptCoefficients,
    build_dressed_nu,
    build_majorana_coefficients,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationConstants",
    "CostGraph",
    "DimerBasis",
    "ErrorBudget",
    "FactorizedOperator",
    "FockSpace",
    "NormReport",
    "SaptCoefficients",
    "SpacePartition",
    "SystemParams",
    "TensorArchive",
    "budget_errors",
    "build_dressed_nu",
    "build_majorana_coefficients",
    "build_operator_matrix",
    "demo_archive",
    "df_hamiltonian_norm",
    "emit_callgraph",
    "estimate_observable",
    "estimate_supermolecular",
    "factorize_coefficients",
    "first_order_energy",
    "load_archive",
    "qrom_cost",
    "renormalize_electrostatic",
    "renormalize_exchange",
    "renormalize_vp",
    "save_archive",
    "sparse_norms",
    "tf_norm",
    "tf_norms",
]
