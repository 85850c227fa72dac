"""wallforge: an exact-arithmetic homological algebra workbench.

Everything is computed over the rationals, so every certificate the package
emits is an exact matrix identity, never a floating-point estimate.

Importing the package loads nothing else; import the submodule you need
(``wallforge.linalg``, ``wallforge.groupalg``, ...).  The command line is
``python -m wallforge.cli``.
"""
