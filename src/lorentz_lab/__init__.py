"""Desk-scale synthetic Lorentzian geometry toolkit.

The public interface is the submodules (``lorentz_lab.core``,
``lorentz_lab.models``, ...) and the ``lorentz-lab`` command line."""

__version__ = "0.1.0"
