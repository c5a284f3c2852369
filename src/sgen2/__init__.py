"""Exact generators for S-integral special linear groups of number
fields, with a verification suite.  Everything is integer and rational
arithmetic; no floating point enters any correctness path."""

from .errors import (CardinalityTooSmall, ConfigInvalid, DatasheetInvalid,
                     DatasheetRequired, HypothesisFails, IdentityFailed,
                     InconsistentCM, NotInLattice, NotMonic, NotStabilized,
                     PrimeInS, Reducible, SearchExhausted, SgenError,
                     VerificationFailure)
from .field import FieldElement, NumberField, create_field
from .ideals import (IntegralIdeal, PrimeIdeal, ResidueMap, class_order,
                     factor_rational_prime, residue_maps)
from .sunits import (AlphaCertificate, CMStructure, PrimeSet, SubfieldDescriptor,
                     SUnitBasis, choose_alpha, default_subfields,
                     exponent_vector, is_cm, rank_of_intersection,
                     s_unit_basis, zalpha_index)
from .generators import (CaseInfo, GeneratorTriple, SL2Element,
                         build_generators, classify_case)
from .verification import (Witness, admissible_primes, elementary_witness,
                           ideal_ladder, identity_suite, modp_surjectivity,
                           prove_shape, reduce_triple, run_verification)

__version__ = "0.1.0"
