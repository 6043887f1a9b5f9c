"""Tour of the five-span plan geometry and the moving vehicle frame.

Builds the default plan (straight, transition, circular arc at R = 6000 m,
transition, straight; 30 m each), fits the smooth centerline, and walks a
frame along it at 100 m/s, printing curvature, angular velocity, and the
centripetal acceleration the vehicle model sees.

Run:  python3 demos/path_geometry_tour.py
"""
import numpy as np

from vtsi.pathgeom import build_plan_path, frame_kinematics
from vtsi.scenario import default_plan_spec

spec = default_plan_spec()
path = build_plan_path(spec)

print("plan: %s" % " -> ".join(sp.kind for sp in spec.spans))
print("total arclength: %.3f m (target %.1f m)"
      % (path.amap.length, spec.total_length))
print()

v = 100.0
print("%8s %12s %14s %14s %14s"
      % ("s [m]", "kappa [1/m]", "omega_z [1/s]", "|a_c| [m/s2]",
         "v^2*kappa"))
for s in np.linspace(2.0, 148.0, 15):
    fk = frame_kinematics(path.curve, path.amap, s, v)
    i = int(np.searchsorted(spec.joints, s)) - 1
    kappa = spec.spans[i].curvature(s - spec.joints[i])
    print("%8.1f %12.3e %14.3e %14.3e %14.3e"
          % (s, kappa, fk.omega[2], np.linalg.norm(fk.origin_acc),
             v * v * kappa))

print()
print("On the circular span the frame acceleration approaches "
      "v^2/R = %.4f m/s^2; on the transitions the curvature ramps "
      "linearly (clothoid), so the frame rates change smoothly and the "
      "vehicle never sees a curvature jump." % (v * v / 6000.0))
