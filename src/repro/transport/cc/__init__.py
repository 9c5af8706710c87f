"""Congestion-control policies: NewReno, DCTCP, and MPTCP's LIA.

Import the policies from their modules (:mod:`repro.transport.cc.base`,
:mod:`~repro.transport.cc.dctcp_alpha`, :mod:`~repro.transport.cc.lia`).
"""
