"""Discrete-event simulation substrate: the event heap."""

from .engine import EventHandle, Simulator

__all__ = ["Simulator", "EventHandle"]
