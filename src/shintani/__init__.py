"""Exact pairing of rational cone functions with lattice step functions
into p-adic pseudo-measures, with measure criteria, moments, and cocycle
verification."""
