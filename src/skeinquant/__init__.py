"""skeinquant: torus quantum invariants two ways.

Exact skein-theoretic arithmetic (brackets, colored Jones polynomials,
curve operators, surgery invariants) and geometric quantization by theta
sections over the torus, with numerical verification that the two
pictures agree and norm-growth sequences for catalog knots.
"""

__version__ = "0.1.0"

from .bracket import (ChebyshevColor, braid_closure_bracket, chebyshev_coeffs,
                      colored_bracket, kauffman_bracket)
from .diagrams import BraidWord, LinkDiagram, braid_to_diagram, unknot_diagram
from .errors import (CablingUnsupported, DimensionMismatch, InexactDivision,
                     NonconvergentSeries, NotLatticeFraction, NotPrimitive,
                     PrecisionLoss, QuadratureNotConverged, SkeinQuantError,
                     StateSpaceTooLarge, UnknownCatalogEntry)
from .geom import (ModularReport, QuadratureConfig, QuantizationContext,
                   ThetaSection, basis_phi, basis_psi, curve_operator_geom,
                   eval_grid, gram_matrix, inner_product, intertwining_deviation,
                   iso_from_skein, iso_to_skein, modular_phase_check,
                   section_eval, translate)
from .jones import (CATALOG_BRAIDS, JonesValue, KnotPresentation, colored_jones,
                    colored_jones_catalog, colored_jones_exact,
                    colored_jones_rmatrix, so3_bracket_coefficient)
from .knotstate import (KnotState, L2Norm, VolumeRow, knot_state,
                        l2_norm_formula, l2_norm_quadrature, lobachevsky,
                        reference_volume, volume_sequence, write_volume_csv)
from .laurent import LaurentPoly, loop_value, quantum_integer_poly, signed_color_norm
from .roots import RootContext, eval_at_root, quantum_integer
from .tqft import (KirbyConstants, MappingClassWord, TorusVector,
                   curve_operator_skein, kirby_constants, rep_S, rep_T,
                   rt_invariant, sl2z_rep, word_from_matrix)
from .verify import verification_report
