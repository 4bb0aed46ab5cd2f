"""Experiment drivers regenerating every table and figure of the paper."""
