"""superquad: exact-arithmetic quadratic Lie superalgebras.

Construction and verification of T*-extensions from supercyclic
2-cocycles, the correspondence with even scalar 3-cocycles, shear
isometries, and the decomposition of nilpotent/solvable quadratic Lie
superalgebras along maximal totally isotropic graded ideals.  All
arithmetic is over exact rationals.
"""

from .cohomology import (Cochain2Dual, ScalarCochain2, ScalarCochain3,
                         b3_basis, cohomologous, delta_scalar2, hat, h3_dim,
                         is_closed3, is_cocycle2, is_supercyclic, unhat,
                         z2_basis, z2_supercyclic_basis, z3_basis,
                         zero_cochain2, zero_scalar2)
from .decompose import (Decomposition, IsotropicFlagResult, decompose,
                        max_isotropic_ideal)
from .errors import (AxiomError, CochainError, CocycleError, FormError,
                     InternalCheckError, NotGradedError, NotIdealError,
                     NotSupercyclicError, PreconditionError,
                     RationalPointNotFound, SuperquadError)
from .forms import (EvenForm, QuadraticLieSuperalgebra, is_invariant,
                    is_totally_isotropic, isotropic_complement, orthogonal,
                    quadratic)
from .gallery import (build_class_c_example, build_glnn, build_gn,
                      heisenberg3, hyperbolic_even, hyperbolic_odd,
                      orthogonal_direct_sum, solvable2d, stock, tstar_of_gn)
from .superalgebra import (EVEN, ODD, AxiomReport, GradedBasis,
                           LieSuperalgebra, Subspace, abelian, bracket,
                           center, check_axioms, class_condition,
                           derived_series, from_brackets, graded_basis,
                           is_nilpotent, is_solvable, lower_central_series,
                           quotient, subspace)
from .tstar import TStarExtension, build, recognize, s_phi_isometry

__version__ = "0.1.0"
