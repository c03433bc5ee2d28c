"""Magic rectangle sets over dihedral groups: exact construction,
verification, feasibility classification and exhaustive search."""

from ._backend import active_backend
from .construct import (diagonal_plan, lemma_block, lmrs_2_2, lmrs_even,
                        lsms, ms, ms_block)
from .designs import (CoverReport, CoverViolationWarning, ProductSpec,
                      Rectangle, RectangleSet, concat_horizontal,
                      concat_vertical, deserialize, render_text, serialize,
                      validate_cover)
from .dihedral import (DihedralElement, element_from_index, element_index,
                       elements, format_element, identity, inverse, multiply,
                       parse_element, power, reflection, rotation,
                       word_product)
from .errors import (BudgetExceededError, CapacityError, CoverError,
                     ParseError, SchemaError, ShapeError)
from .feasibility import (FeasibilityVerdict, Justification, Status, classify,
                          parity_witness)
from .search import (SearchConfig, SearchOutcome, count_solutions,
                     exhaustive_search)
from .verify import (Failure, VerificationReport, achievable_products,
                     verify_linear, verify_magic_square, verify_orderable,
                     verify_semi_magic_square)

__version__ = "0.1.0"
