"""Epipolar feature sampling, attention fusion, and triangulation toolkit."""
