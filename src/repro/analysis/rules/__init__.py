"""Built-in ``dplint`` rules, one module per rule.

Importing this package registers every rule with
:mod:`repro.analysis.registry`.
"""

from repro.analysis.rules.rng import RngDisciplineRule
from repro.analysis.rules.sampling import NoNaiveSamplingRule
from repro.analysis.rules.exports import ExplicitExportsRule
from repro.analysis.rules.docstrings import DocstringParametersRule

__all__ = [
    "DocstringParametersRule",
    "ExplicitExportsRule",
    "NoNaiveSamplingRule",
    "RngDisciplineRule",
]
