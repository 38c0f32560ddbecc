"""Numerical verification toolkit for weighted curvature-dimension bounds.

Model spaces (euclidean, sphere, hyperbolic) carry smooth weights; the
package computes re-parametrized distances, twisted interpolation
coefficients, weighted Jacobian trajectories, entropy functionals and
optimal transport on one-dimensional geometries, and checks the
displacement convexity, Brunn-Minkowski, interpolation, HWI, log-Sobolev
and transport-energy inequalities with explicit numerical margins.
"""

from .errors import (CdCheckError, ConfigError, CutLocusError,
                     DimensionError, HypothesisError, PreconditionError,
                     RangeError, RegionError, SingularJacobian)
from .params import (DimensionParams, c_kappa, diam_kappa, s_kappa,
                     validate_params)
from .report import CheckReport, canonical_json, report_hash
from .spaces import (Euclidean, GeodesicSegment, Hyperbolic, ModelSpace,
                     Sphere, WeightFunction, check_curvature_bound,
                     constant_weight, make_space, segment_between,
                     weight_preset)
from .reparam import reparam_partial
from .coefficients import (TwistedCoefficient, b_coeff, beta, frak_b,
                           log_beta, require_conjugate_radius,
                           within_conjugate_radius)
from .jacobi import (JacobianTrajectory, TransportRay, check_riccati,
                     integrate_jacobi, jacobi_closed_form, sample_rays,
                     scan_rays)
from .ot import (AxisGeometry, DensityField, LineGeometry, MeridianGeometry,
                 MonotoneInterpolation, density_from_callable,
                 entropy_functional, fisher_information,
                 monotone_1d_transport, renyi_pointwise, w2_axis)
from .suites import (RegionPair, check_brunn_minkowski, check_hwi_lsi,
                     check_interpolation, check_transport_energy, check_twcd,
                     conclusion_exponent, p_mean)
from .taylor import (SeriesCheck, check_F_identity, check_limit_bound,
                     check_series, f_of_theta, theta_eps)

__version__ = "0.1.0"
