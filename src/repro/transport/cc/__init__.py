"""Congestion-control policies: NewReno and MPTCP's LIA.

Import the policies from their modules (:mod:`repro.transport.cc.base`,
:mod:`~repro.transport.cc.lia`).
"""
