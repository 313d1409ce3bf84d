"""Exact computer algebra for additive endomorphisms of G_a^N over
finite fields: twisted polynomials in the Frobenius, the splitting into
Frobenius-diagonal and multiplicatively independent parts, the
dense-orbit trichotomy with machine-verifiable certificates, and an
F-set / lambda-density laboratory."""

__version__ = "0.1.0"

from .fields import FieldSpec, FqElem, CPoly, RatFun
from .ore import OrePoly, format_ore, parse_ore, OreParseError
from .skew import (SkewElem, SkewMatrix, CenterPoly, tilde,
                   central_multiplier, min_poly_center, char_poly_tilde)
from .split import (FactorClassification, SplitData, factor_center,
                    classify_factor, split_endomorphism,
                    jordan_form_central, power_up, CapacityError,
                    NonDominantError)
from .classify import (AdditiveMap, CertificateB,
                       CertificateC, DensityReport, WitnessA, Verdict,
                       classify, build_certificate_B, build_certificate_C,
                       derive_iterate_certificate, verify_certificate,
                       construct_independent_points, check_independence,
                       witness_A, orbit, orbit_sequence, density_check,
                       density_check_orbit)
from .fsets import (FpFModule, FSetDescriptor, LambdaEqInstance,
                    fset_enumerate, module_contains,
                    brute_force_intersection, solve_lambda_eq,
                    lambda_density, vandermonde_check)
from .mrat import MPoly, MRatFun
