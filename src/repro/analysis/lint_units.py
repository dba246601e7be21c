"""Standalone entry of the unit-hygiene linter (U001/U002).

``python -m repro.analysis.lint_units [paths]`` lints the repo's
``src``, ``tools`` and ``benchmarks`` trees by default and exits 1 on
findings.  It is a module of its own because importing the
``repro.analysis`` package already imports
:mod:`repro.analysis.rules_units`, and ``-m`` on an imported module
makes runpy warn before running it a second time.
"""

import sys

from repro.analysis.rules_units import main

if __name__ == "__main__":
    sys.exit(main())
