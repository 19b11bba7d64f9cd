import numpy as np
from hypothesis import HealthCheck, settings, strategies as st

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    max_examples=30,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("ci")

#: recording grids that the flow solver and the particle simulator refuse
BAD_GRIDS = ([0.0, 1.0, 0.5], [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf], [],
             [-1.0, 1.0])


def measure_strategy(d: int, floor: float = 0.0):
    """Random simplex points (optionally bounded away from the boundary)."""

    def normalize(ws):
        w = np.asarray(ws, dtype=float)
        m = w / w.sum()
        if floor > 0:
            m = (1.0 - floor * d) * m + floor
        return m

    return st.lists(
        st.floats(0.05, 1.0, allow_nan=False), min_size=d, max_size=d
    ).map(normalize)
