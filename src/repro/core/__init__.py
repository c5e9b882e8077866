"""Identifier algebra, the reference PGCP tree, and the query model."""
