"""Shared utilities: sorted containers, statistics, seeded RNG streams."""
