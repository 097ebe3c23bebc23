"""Inverting the exponential map: Jacobian, logarithm, distance, homothety.

On the injectivity domain the endpoint map is a diffeomorphism with an
explicit Jacobian determinant, so targets can be hit exactly (log_map) and
the Carnot-Caratheodory distance read off the covector norm.  Targets on
the cut locus are reached at the cut time, by a covector in closed form.
"""

import numpy as np

from htcarnot import (
    Covector,
    CutLocusTarget,
    GroupPoint,
    catalog_structure,
    distance,
    distance_bound,
    exp_map,
    homothety,
    jacobian,
    log_map,
)

heis = catalog_structure("heisenberg3")

lam = Covector([0.9, -0.4], [1.3])
pt = exp_map(heis, lam)
print("endpoint:", pt)

# The determinant of the endpoint map, in closed form vs brute force.
h = 1e-6
cols = []
base = lam.as_vector()
for i in range(3):
    step = np.zeros(3)
    step[i] = h
    fwd = exp_map(heis, Covector.from_vector(base + step, 2)).as_vector()
    bwd = exp_map(heis, Covector.from_vector(base - step, 2)).as_vector()
    cols.append((fwd - bwd) / (2 * h))
print(f"jacobian closed form:   {jacobian(heis, lam):.12f}")
print(f"finite differences:     {np.linalg.det(np.array(cols).T):.12f}\n")

# log_map recovers the covector; the distance is |u|.
rec = log_map(heis, pt)
print("recovered covector:", rec)
print("round trip error:", np.linalg.norm(rec.as_vector() - lam.as_vector()))
d = distance(heis, GroupPoint([0, 0], [0]), pt)
print(f"distance = |u| = {float(d):.12f}\n")

# A point on the vertical axis lies past every covector the solver may use:
# log_map refuses, and the cut-locus formula takes over.  For Heisenberg it
# reduces to the classical vertical distance sqrt(4 pi z).
target = GroupPoint([0.0, 0.0], [1.0])
try:
    log_map(heis, target)
except CutLocusTarget as exc:
    print("log_map:", exc)
bound = distance_bound(heis, target)
print(f"cut-locus formula:  {bound:.12f}")
print(f"sqrt(4 pi):         {np.sqrt(4 * np.pi):.12f}\n")

# Geodesic homotheties contract any target toward a base point; at t = 0.5
# the distance halves.
x0 = GroupPoint([0.2, 0.1], [0.0])
y = GroupPoint([1.1, -0.3], [0.25])
mid = homothety(heis, x0, y, 0.5)
print("homothety midpoint:", mid)
print(f"d(x0, y)   = {float(distance(heis, x0, y)):.9f}")
print(f"d(x0, mid) = {float(distance(heis, x0, mid)):.9f}")

# Works on every catalog group, including corank 3.
quat = catalog_structure("htype4x3")
lam = Covector([1.0, 0.2, -0.5, 0.7], [0.8, -0.3, 0.5])
err = np.linalg.norm(
    log_map(quat, exp_map(quat, lam)).as_vector() - lam.as_vector())
print(f"\nquaternionic round trip error: {err:.2e}")
