"""Flat fronts in hyperbolic 3-space from the hypergeometric equation.

The package evaluates the hyperbolic Schwarz map x -> U(x) conj(U(x))^t
in closed form from the inverse Schwarz map (polyhedral rational maps or
the modular lambda function), locates and classifies the singularities
of the image front, and exports tiled surface meshes.
"""

from .cases import Case, resolve_case
from .equation import (ExponentData, exponents_from_abc, exponents_from_mu,
                       eval_q, eval_q_derivatives, is_standard)
from .front import (eval_front_closed_form, eval_front_matrix,
                    integrate_sl_form, match_isometry)
from .h3 import H3Point, HermitianForm
from .mesh import JobConfig, SurfaceMesh, build_mesh, export_mesh
from .modular import eval_lambda, fuchsian_z_from_x, theta_values
from .polyhedral import PolyhedralInverse, build_polyhedral
from .singular import (classify_point, find_swallowtails,
                       trace_singular_curve)
from .tiling import tile_parameter_domain

__version__ = "1.0.0"
