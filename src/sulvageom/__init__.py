"""Exact-arithmetic kernel for the circle-square rules of the Sulvasutra
and Brahmagupta's cyclic quadrilateral propositions."""
