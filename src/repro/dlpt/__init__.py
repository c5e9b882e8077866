"""The DLPT overlay: mapping, routing, macro system, async protocol, facade."""
