"""Numerical laboratory for the fractional conductivity inverse problem.

Discretizes the fractional conductivity equation and its exterior
Dirichlet-to-Neumann maps on a periodic box, implements the fractional
Liouville reduction, and probes the stability picture at desk scale:
Lipschitz exterior determination, the reduction inequality, the
logarithmic stability modulus, and the exponential-instability family.
"""

__version__ = "0.1.0"

from .geometry import GeometryConfig, GridField, Region, default_geometry
from .operators import (
    FracOperator,
    bilinear_form,
    frac_laplacian,
    hs_gram,
)
from .conductivity import (
    AdmissibilityReport,
    Conductivity,
    MandacheParams,
    Potential,
    liouville_potential,
    mandache_family,
    validate_admissibility,
)
from .solver import (
    ExteriorDatum,
    Solution,
    SolverError,
)
from .dnmap import (
    DnMatrix,
    ExteriorBasis,
    assemble_dn,
    build_exterior_basis,
    dn_operator_norm,
    restrict_dn,
)
from .experiments import (
    exterior_recovery,
    exterior_stability_scan,
    instability_search,
    liouville_identity_residual,
    log_stability_fit,
    mtilde_equation_residual,
)

__all__ = [name for name in dir() if not name.startswith("_")]
