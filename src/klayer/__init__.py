"""Boundary-layer steady states and nonlinear stability of a singular
chemotaxis system: radial and 2D nonlocal elliptic solvers, closed-form layer
barriers, small-diffusion expansion checks, and a conservative, positive
implicit time integrator for the transformed radial system."""
