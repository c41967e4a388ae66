"""Seeded, closed-loop benchmark for the nuttallq evaluation routes.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
