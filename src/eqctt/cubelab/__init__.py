"""Finite combinatorics of the cartesian cube category and truncated
presheaves: hom enumeration, Eilenberg-Zilber factorization, quotients,
triangulation, open boxes and bounded equivariant-lifting certificates."""
