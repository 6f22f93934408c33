# The benchmark reads this one name from the package: bench/rep.py calls
# dsl.default_budget and bench/tests/test_perfbench.py imports it.
from .interp import default_budget
